"""The paper's map written literally, one move per case, as an oracle for
the step cores.

Each step below follows the ``bijection`` module docstring and is built
only from the definitions: heights by running sum, matching by
``stack_matching``, key downsteps, the degree of elevation and the menu
by what they are, and every intermediate path a validated ``DyckPath``.
It shares nothing with the step cores, the library's scans or its carried
state, so equal steps tie the cores to the paper's map and not only to
each other.

``forward_disagreement`` compares a forward core with the oracle on
every edge of the prefix tree, feeding both the oracle's parent word; as
the words agree at the root UD, by induction ``forward`` agrees on the
whole family.  ``inverse_disagreement`` compares an inverse core with one
oracle step on every path.  Both take the core they check as an argument,
so a mutant core can be handed in directly.
"""

from itertools import accumulate

import pytest

from ascentdyck import AscentSequence, DyckPath, forward
from ascentdyck.bijection import _forward_step_core, _inverse_step_core
from ascentdyck.paths import _iter_dyck_steps

from conftest import catalan_binomial, stack_matching
from test_fuzz import members
from test_mutants import MUTANTS


# -- definitions ---------------------------------------------------------------


RISE = {"U": 1, "D": -1}.__getitem__


def heights(steps: str) -> list[int]:
    """Height of every vertex 0..2n."""
    return [0, *accumulate(map(RISE, steps))]


def degree_by_definition(steps: str) -> int | None:
    """Height of the lowest valley vertex (a D followed by a U); None
    when there is no valley."""
    h = heights(steps)
    valleys = [h[v] for v in range(1, len(steps)) if steps[v - 1 : v + 1] == "DU"]
    return min(valleys, default=None)


def terminal_descent(steps: str) -> range:
    """1-based indices of the maximal downstep run ending the path."""
    return range(len(steps.rstrip("D")) + 1, len(steps) + 1)


def key_downsteps_by_definition(steps: str, match: dict[int, int]) -> list[int]:
    """1-based terminal-descent downsteps whose matching upstep (by
    ``match``, the word's ``stack_matching``) is the middle U of a DUU
    factor, left to right."""
    return [d for d in terminal_descent(steps)
            if 2 <= match[d] < len(steps) and steps[match[d] - 2] == "D"
            and steps[match[d]] == "U"]


def elevated(steps: str) -> bool:
    """The only return to ground is the last step."""
    return 0 not in heights(steps)[1:-1]


def ascent_start(steps: str, i: int) -> int:
    """0-based start of the ascent holding the upstep at 0-based i."""
    while i and steps[i - 1] == "U":
        i -= 1
    return i


def ascents(entries) -> int:
    """Positions i with entries[i] < entries[i + 1]."""
    return sum(map(int.__lt__, entries, entries[1:]))


def prefix_state(entries) -> tuple:
    """The state a forward core takes, each part by its definition: the
    ascents, the maximum, the last entry, and the run of entries equal to
    and just left of the last nonzero entry (None while all are 0)."""
    k = len(entries) - 1
    while k and not entries[k]:
        k -= 1
    run = None
    if k:
        run = 0
        while entries[k - 1 - run] == entries[k]:
            run += 1
    return ascents(entries), max(entries), entries[-1], run


def children(entries) -> list[int]:
    """Every v keeping entries + (v,) an ascent sequence with weakly
    increasing nonzero entries."""
    return [v for v in range(ascents(entries) + 2) if v == 0 or v >= max(entries)]


# -- the oracle ------------------------------------------------------------------


def oracle_forward_step(steps: str, entries, u: int):
    """One forward step of the paper's map from the image ``steps`` of
    ``entries`` by the entry u: (word, case, extras) as a core returns it."""
    top = ascents(entries) + 1
    if u == 0:
        # widen the last peak: a new peak in the vertex at the top of the last ascent
        v = len(steps.rstrip("D"))
        return DyckPath(steps[:v] + "UD" + steps[v:]).steps, 1, None
    if u == entries[-1]:
        return DyckPath("U" + steps + "D").steps, 2, None
    if u == top:
        return DyckPath(steps + "UD").steps, 3, None
    # the menu: the legal nonzero values other than a repeat and a new top
    menu = [v for v in children(entries) if v not in (0, entries[-1], top)]
    match = stack_matching(steps)
    keys = key_downsteps_by_definition(steps, match)
    assert len(menu) == len(keys) > 0
    position = menu.index(u) + 1
    d = keys[position - 1]
    # open a peak on top of the key downstep: its matching upstep keeps its index
    opened = DyckPath(steps[: d - 1] + "UD" + steps[d - 1 :]).steps
    e = degree_by_definition(steps)
    # move e upsteps from the front into the ascent of the matching upstep
    c = ascent_start(opened, match[d] - 1)
    moved = DyckPath(opened[e:c] + "U" * e + opened[c:]).steps
    return moved, 4, (position, e)


def oracle_inverse_step(steps: str):
    """One inverse step of the paper's map from a word of size >= 2:
    (word, case, emitted, mark offset, rank) as a core returns it."""
    valleys = steps.count("DU")
    last_up = steps.rfind("U")
    if steps[last_up - 1] == "U":
        # a long last ascent: delete the last peak
        return DyckPath(steps[:last_up] + steps[last_up + 2 :]).steps, 1, 0, None, None
    if elevated(steps):
        return DyckPath(steps[1:-1]).steps, 2, None, None, None
    if steps.endswith("UD"):
        return DyckPath(steps[:-2]).steps, 3, valleys, None, None
    # mark the second downstep of the terminal descent and delete the last
    # peak, which slides the mark two places left
    mark = terminal_descent(steps)[1] - 2
    shorter = DyckPath(steps[:last_up] + steps[last_up + 2 :]).steps
    # move the upsteps before the mark's matching upstep in its ascent to the front
    u0 = stack_matching(shorter)[mark] - 1
    c = ascent_start(shorter, u0)
    new = DyckPath("U" * (u0 - c) + shorter[:c] + shorter[u0:]).steps
    keys = key_downsteps_by_definition(new, stack_matching(new))
    rank = len(keys) - keys.index(mark)
    return new, 4, valleys - rank, mark - 1, rank


# -- comparisons ---------------------------------------------------------------------


def forward_disagreement(core, follow):
    """The first edge, as (entries, u, oracle step, core step), where
    ``core`` differs from the oracle, walking from the root 0 along the
    entries ``follow(entries)`` lists at each prefix; None if none."""
    stack = [((0,), "UD")]
    while stack:
        entries, steps = stack.pop()
        for u in follow(entries):
            want = oracle_forward_step(steps, entries, u)
            got = core(steps, u, prefix_state(entries))
            if got != want:
                return entries, u, want, got
            stack.append(((*entries, u), want[0]))
    return None


def tree(n: int):
    """Follow every edge of the prefix tree up to size n."""
    return lambda entries: children(entries) if len(entries) < n else []


def branch(walk):
    """Follow the one branch leading to the sequence ``walk``."""
    return lambda entries: walk[len(entries) : len(entries) + 1]


def inverse_disagreement(core, words, unwind=False):
    """The first word, as (word, oracle step, core step), where ``core``
    differs from one oracle step; None if none.  With ``unwind``, each of
    ``words`` is followed down to UD, one oracle step at a time."""
    for steps in words:
        while len(steps) > 2:
            want = oracle_inverse_step(steps)
            got = core(steps)
            if got != want:
                return steps, want, got
            if not unwind:
                break
            steps = want[0]
    return None


# -- tests --------------------------------------------------------------------------


def test_oracle_draws_the_worked_example():
    # the construction's worked figures, as criteria 2 and 3 pin them
    entries, steps, seen = (0, 1, 0, 1, 2, 2, 0, 3), "UD", []
    for k in range(1, len(entries)):
        steps, case, extras = oracle_forward_step(steps, entries[:k], entries[k])
        seen.append((steps, case, extras))
    assert seen == [
        ("UDUD", 3, None), ("UDUUDD", 1, None), ("UDUUDUDD", 4, (1, 0)),
        ("UDUUDUDUDD", 4, (1, 0)), ("UUDUUDUDUDDD", 2, None),
        ("UUDUUDUDUUDDDD", 1, None), ("UDUUUDUDUUDDUDDD", 4, (2, 1)),
    ]
    assert oracle_inverse_step(steps) == ("UUDUUDUDUUDDDD", 4, 3, 12, 1)
    assert oracle_inverse_step("UUDUUDDD")[:3] == ("UUDUDD", 1, 0)
    assert oracle_inverse_step("UUDUDD")[:3] == ("UDUD", 2, None)
    assert oracle_inverse_step("UUDUDDUD")[:3] == ("UUDUDD", 3, 2)
    assert oracle_inverse_step("UDUUDUUUDUDDDD")[:3] == ("UUDUUDUUDDDD", 4, 1)


def test_forward_core_is_the_paper_map_on_every_edge_up_to_10():
    edges = []

    def counted(steps, u, state):
        edges.append(u)
        return _forward_step_core(steps, u, state)

    assert forward_disagreement(counted, tree(10)) is None
    assert len(edges) == sum(catalan_binomial(k) for k in range(2, 11)) == 23_712


@pytest.mark.parametrize("n", range(2, 11))
def test_inverse_core_is_the_paper_map_on_every_path(n):
    assert inverse_disagreement(_inverse_step_core, _iter_dyck_steps(n)) is None


def test_both_cores_are_the_paper_map_on_the_fuzz_members():
    for entries in members():
        assert forward_disagreement(_forward_step_core, branch(entries)) is None
        # the image, which the oracle has just drawn step by step
        image = forward(AscentSequence(entries)).steps
        assert inverse_disagreement(_inverse_step_core, [image], unwind=True) is None


@pytest.mark.parametrize("mutant_id", ["fwd-case1-splices-at-the-first-peak",
                                       "fwd-case4-extras-off-by-one"])
def test_forward_mutant_fails_the_oracle(mutant_id):
    target, make, _ = MUTANTS[mutant_id]
    assert target == "_forward_step_core"
    assert forward_disagreement(make(_forward_step_core), tree(6)) is not None


def test_inverse_mutant_fails_the_oracle():
    target, make, _ = MUTANTS["inv-case4-rank-off-by-one"]
    assert target == "_inverse_step_core"
    words = [w for n in range(2, 7) for w in _iter_dyck_steps(n)]
    assert inverse_disagreement(make(_inverse_step_core), words) is not None
