"""Single-rule mutants of the construction, run through the verify checks.

Each mutant breaks one rule of ``_forward_step_core``,
``_inverse_step_core``, ``sequences._grow`` or ``_classify``.  The table
names the checks that catch it at size 8: the report fails, or the check
raises.  Every mutant runs twice, once through each check alone and once
through one shared sweep of all four and one path walk shared by counts
and invariants (as ``verify`` on the command line runs them), and the two
runs must give the same report, or raise the same exception, check by
check.  So a rewrite that quietly weakens a check, or
a shared walk that drifts from the standalone ones, fails here.  A second
table breaks the right-spine and valley-count rules that only ``inverse``
and ``inverse_trace`` read, and a third the right-spine rules that only
``forward`` and ``forward_step`` read.
"""

import inspect
import textwrap

import pytest

from ascentdyck import (
    AscentSequence,
    DyckPath,
    bijection,
    forward,
    forward_step,
    inverse,
    inverse_trace,
    sequences,
    verify,
)
from ascentdyck.errors import InternalInvariant

from conftest import catalan_binomial
from test_verify import case1_drops_the_first_peak, case2_appends_a_peak, case3_emits_one_more

FUSED = ("roundtrip", "bijectivity", "invariants", "statistics")
CHECKS = {name: getattr(verify, "check_" + name) for name in FUSED}
ALL = set(FUSED)
N = 8

# the namespaces the checks read each mutated function from
HOLDERS = {
    "_forward_step_core": [verify],
    "_inverse_step_core": [bijection],
    "_grow": [sequences],
    "_classify": [bijection, verify],
}


def rewrite(old, new):
    """A mutant maker: the function recompiled with the one occurrence of
    ``old`` in its source replaced by ``new``, over a copy of its module's
    namespace."""

    def make(fn):
        source = textwrap.dedent(inspect.getsource(fn))
        assert source.count(old) == 1, old
        namespace = dict(fn.__globals__)
        code = compile("from __future__ import annotations\n" + source.replace(old, new),
                       f"<mutant of {fn.__name__}>", "exec")
        exec(code, namespace)
        return namespace[fn.__name__]

    return make


def refuses_case3(core):
    # a forward core whose case-3 edges raise, as its own assertions do
    def broken(path, v, state):
        stepped = core(path, v, state)
        if stepped[1] == 3:
            raise InternalInvariant("case 3 refused")
        return stepped

    return broken


def last_word_has_no_d(core):
    # the last edge writes x for D: n upsteps in 2n steps, and no path
    def broken(path, v, state):
        stepped = core(path, v, state)
        last = len(path) == 2 * N - 2
        return (stepped[0].replace("D", "x"), *stepped[1:]) if last else stepped

    return broken


def last_word_as_a_list(core):
    # the last edge hands back its word as a list: each check meets its
    # own exception on it, at the edge or at the leaf
    def broken(path, v, state):
        stepped = core(path, v, state)
        return (list(stepped[0]), *stepped[1:]) if len(path) == 2 * N - 2 else stepped

    return broken


MUTANTS = {
    # forward core
    "fwd-case1-splices-at-the-first-peak": (
        "_forward_step_core", rewrite('i = path.rfind("UD")', 'i = path.find("UD")'), ALL),
    "fwd-case2-appends-a-peak": ("_forward_step_core", case2_appends_a_peak, ALL),
    "fwd-case3-prepends-its-peak": (
        "_forward_step_core", rewrite('return path + "UD", 3', 'return "UD" + path, 3'), ALL),
    "fwd-case3-refused": ("_forward_step_core", refuses_case3, ALL),
    "fwd-case4-menu-position-off-by-one": (
        "_forward_step_core", rewrite("d0 = keys[u - lo]", "d0 = keys[u - lo - 1]"), ALL),
    "fwd-case4-menu-from-the-wrong-end": (
        "_forward_step_core", rewrite("d0 = keys[u - lo]", "d0 = keys[lo - u - 1]"), ALL),
    "fwd-case4-menu-low-off-by-one": (
        "_forward_step_core",
        rewrite("lo = _menu_low(m, last)", "lo = _menu_low(m, last) + 1"), ALL),
    "fwd-case4-moves-e-minus-1-upsteps": (
        "_forward_step_core",
        rewrite("new = new[e:u0] + UP * e", "new = new[e - 1:u0] + UP * (e - 1)"), ALL),
    "fwd-last-word-has-no-d": ("_forward_step_core", last_word_has_no_d, ALL),
    "fwd-last-word-as-a-list": ("_forward_step_core", last_word_as_a_list, ALL),
    # only the trace records read the extras: the trace tests and the
    # oracle comparison in test_oracle.py check them
    "fwd-case4-extras-off-by-one": (
        "_forward_step_core", rewrite("(u - lo + 1, e)", "(u - lo, e)"), set()),
    # inverse core
    "inv-case1-drops-the-first-peak": ("_inverse_step_core", case1_drops_the_first_peak,
                                       {"roundtrip"}),
    "inv-case2-emits-zero": (
        "_inverse_step_core",
        rewrite("return steps[1:-1], 2, None", "return steps[1:-1], 2, 0"), {"roundtrip"}),
    "inv-case3-emits-one-more": ("_inverse_step_core", case3_emits_one_more, {"roundtrip"}),
    "inv-case4-rank-off-by-one": (
        "_inverse_step_core",
        rewrite("rank = len(keys) - keys.index(mark0)",
                "rank = len(keys) - keys.index(mark0) + 1"), {"roundtrip"}),
    # raises: the mark is no key downstep of the result
    "inv-case4-marks-one-step-left": (
        "_inverse_step_core", rewrite("mark0 = r\n", "mark0 = r - 1\n"), {"roundtrip"}),
    # equivalent in the word: a word starts with U, so the front gets the
    # same upsteps; only the spine that unmap carries would differ
    "inv-case4-stops-one-step-early": (
        "_inverse_step_core",
        rewrite("while c0 and shorter", "while c0 > 1 and shorter"), set()),
    # prefix state
    "grow-drops-the-e-update": (
        "_grow", rewrite("e = e + 1 if v == last else 0", "pass"), ALL),
    "grow-repeat-keeps-e": (
        "_grow", rewrite("e = e + 1 if v == last else 0", "e = e if v == last else 0"), ALL),
    "grow-repeat-counts-as-an-ascent": ("_grow", rewrite("if last < v:", "if last <= v:"), ALL),
    "grow-drops-the-max-update": ("_grow", rewrite("if m < v:", "if False:"), ALL),
    # classifier: UUDD read as elevated unwinds to the same parent and entry
    "classify-long-ascent-from-3-steps": (
        "_classify", rewrite("if r >= 1 and", "if r >= 2 and"), {"invariants"}),
    "classify-peak-read-as-case-1": (
        "_classify", rewrite("return 3", "return 1"), {"roundtrip", "invariants"}),
    "classify-peak-needs-a-long-ascent": (
        "_classify", rewrite('endswith("UD")', 'endswith("UUD")'), {"roundtrip", "invariants"}),
}


def outcome(check, n, **kwargs):
    """A check's report without its time, or the exception it raised."""
    try:
        r = check(n, **kwargs)
    except Exception as exc:  # any exception is an outcome
        return exc
    return (r.check, r.n, r.sequences_checked, r.paths_checked, r.failures,
            r.failures_total, r.equidistribution)


def caught(result) -> bool:
    return isinstance(result, Exception) or bool(result[4])


def install(monkeypatch, mutant_id):
    target, make, _ = MUTANTS[mutant_id]
    mutant = make(getattr(HOLDERS[target][0], target))
    for holder in HOLDERS[target]:
        monkeypatch.setattr(holder, target, mutant)


def standalone_and_shared(n):
    # counts first, as verify runs it: it runs the path walk it shares
    # with invariants
    alone = {name: outcome(CHECKS[name], n) for name in FUSED}
    alone["counts"] = outcome(verify.check_counts, n)
    sweep, paths = verify._Sweep(FUSED), verify._PathWalk()
    shared = {"counts": outcome(verify.check_counts, n, _paths=paths)}
    for name in FUSED:
        walks = {"_paths": paths} if name == "invariants" else {}
        shared[name] = outcome(CHECKS[name], n, _sweep=sweep, **walks)
    return alone, shared


@pytest.mark.parametrize("mutant_id", MUTANTS)
def test_mutant_is_caught_by_exactly_its_checks(monkeypatch, mutant_id):
    install(monkeypatch, mutant_id)
    alone, shared = standalone_and_shared(N)
    for name in alone:
        a, b = alone[name], shared[name]
        if isinstance(a, Exception):
            assert (type(b), str(b)) == (type(a), str(a)), name
        else:
            assert b == a, name
    assert {name for name in FUSED if caught(alone[name])} == MUTANTS[mutant_id][2]


def test_unmutated_checks_pass_both_ways():
    alone, shared = standalone_and_shared(N)
    assert alone == shared
    assert not any(caught(r) for r in alone.values())


def test_invariants_prune_while_the_others_walk_on(monkeypatch):
    # every check fails here without raising; only invariants skips the
    # subtrees under its failing edges, in the shared walk as alone
    install(monkeypatch, "fwd-case4-moves-e-minus-1-upsteps")
    alone, shared = standalone_and_shared(N)
    assert alone == shared
    assert shared["invariants"][2] < catalan_binomial(N)
    assert all(shared[name][2] == catalan_binomial(N)
               for name in ("roundtrip", "bijectivity", "statistics"))


def test_invariants_alone_walks_no_subtree_under_a_failing_edge(monkeypatch):
    # every case-2 edge fails; alone, invariants runs the forward core only
    # on the edges above none of them
    install(monkeypatch, "fwd-case2-appends-a-peak")
    core, calls = verify._forward_step_core, []
    monkeypatch.setattr(verify, "_forward_step_core",
                        lambda path, v, state: calls.append(v) or core(path, v, state))
    assert not verify.check_invariants(N).passed

    def repeats(s):
        return [j for j in range(1, len(s)) if s[j] and s[j] == s[j - 1]]

    edges = [s for k in range(2, N + 1) for s in map(tuple, sequences._iter_021_entries(k))
             if all(j == k - 1 for j in repeats(s))]
    assert len(calls) == len(edges) < sum(catalan_binomial(k) for k in range(2, N + 1))


def test_a_forward_core_exception_is_an_invariants_witness(monkeypatch):
    # the other three checks meet it on their own walks and raise it
    install(monkeypatch, "fwd-case3-refused")
    _, shared = standalone_and_shared(N)
    raised = [shared[name] for name in ("roundtrip", "bijectivity", "statistics")]
    assert isinstance(raised[0], InternalInvariant)
    assert {(type(exc), str(exc)) for exc in raised} == {(InternalInvariant, "case 3 refused")}
    assert {f.detail for f in shared["invariants"][4]} == {"case 3 refused"}


def test_an_inverse_core_exception_ends_only_roundtrip(monkeypatch):
    install(monkeypatch, "inv-case4-marks-one-step-left")
    _, shared = standalone_and_shared(N)
    assert isinstance(shared["roundtrip"], InternalInvariant)
    assert all(not caught(shared[name]) for name in ("bijectivity", "invariants", "statistics"))


@pytest.mark.parametrize("name, met", [("_is_valid_steps", {"roundtrip", "bijectivity"}),
                                       ("_path_stats_raw", {"statistics"})])
def test_a_leaf_exception_ends_only_the_checks_that_meet_it(monkeypatch, name, met):
    # the coverage filing and the statistics comparison at one leaf raise
    original = getattr(verify, name)

    def raises_once(steps):
        if steps == "UDUUDDUUUDDDUD":
            raise ValueError(f"{name} refused")
        return original(steps)

    monkeypatch.setattr(verify, name, raises_once)
    alone, shared = standalone_and_shared(7)
    for k in FUSED:
        if k in met:
            assert isinstance(alone[k], ValueError) and str(shared[k]) == str(alone[k]), k
        else:
            assert shared[k] == alone[k] and not caught(shared[k]), k


class Runaway(Exception):
    pass


def unwinding_outcomes(unwind):
    """How ``unwind`` ends on the image of every member of size <= N:
    "ok", "wrong" or the exception raised."""
    outcomes = set()
    for k in range(1, N + 1):
        for s in sequences._iter_021_entries(k):
            try:
                got = unwind(DyckPath(bijection._forward_entries(s)[0]))
            except Exception as exc:  # any exception is an outcome
                outcomes.add(type(exc).__name__)
            else:
                outcomes.add("ok" if got.entries == s else "wrong")
    return outcomes


def install_spine_mutant(monkeypatch, target=None, make=None):
    # a guard stops any step that does not take the word down by one size
    # ("Runaway") before it can grow without bound
    if target:
        monkeypatch.setattr(bijection, target, make(getattr(bijection, target)))
    core = bijection._inverse_step_core

    def guarded(steps, *carried):
        stepped = core(steps, *carried)
        if len(stepped[0]) != len(steps) - 2:
            raise Runaway(steps)
        return stepped

    monkeypatch.setattr(bijection, "_inverse_step_core", guarded)


def test_unmutated_spine_unwinds_every_member(monkeypatch):
    install_spine_mutant(monkeypatch)
    assert unwinding_outcomes(inverse) == {"ok"}
    assert unwinding_outcomes(lambda p: inverse_trace(p).sequence) == {"ok"}


# Single-rule mutants of the right spine, the saved spines and the valley
# count that only ``inverse`` and ``inverse_trace`` carry (see the
# ``bijection`` module docstring): of ``_carried_spine``, which builds
# them, of each update and each read ``_inverse_step_core`` makes of them,
# and of the ``_match_down`` walk that finds case 4's exposed matches.
# The verify sweeps scan instead, so only the unwindings can catch these,
# and a drift must end them as ``InternalInvariant``, never as a wrong
# sequence, over the images of every member of size <= 8.  A drifted spine
# can read a word as elevated that is not; case 2 then leaves a word that
# is no Dyck path, which case 1 refuses once it has no UD factor.  No row
# reads elevation as a bottom entry of at most 1 in place of 0: a ground
# component starts at an even offset, so that mutant is equivalent.
II = "InternalInvariant"
ELEVATED = "right.ups[0] + right.shift == 0"
LEVEL_POP = "right.ups[0] + right.shift and right.saved.pop()"
INVERSE_RIGHT_SPINE_MUTANTS = {
    "ispine-build-stays-on-a-level": ("_carried_spine", rewrite("if h == floor:", "if True:")),
    "ispine-build-height-from-ground": ("_carried_spine",
                                       rewrite("(peak, top - h, h)", "(peak, top, h)")),
    "ispine-build-bases-not-summed": ("_carried_spine",
                                      rewrite("(peak, top - h, h)", "(peak, top - h, 0)")),
    "ispine-build-saves-the-last": ("_carried_spine",
                                    rewrite("closed[k][:-1] if k", "closed[k] if k")),
    "ispine-build-one-level": ("_carried_spine", rewrite("b = low", "b = None")),
    "ispine-build-return-recorded-late": ("_carried_spine",
                                          rewrite("if h < floor:", "if h <= floor:")),
    "ispine-build-highest-valley": ("_carried_spine", rewrite("h < lowest", "h > lowest")),
    "ispine-elevated-off-the-top": ("_inverse_step_core",
                                    rewrite(ELEVATED, "right.ups[-1] + right.shift == 0")),
    "ispine-elevated-always": ("_inverse_step_core", rewrite(ELEVATED, "True")),
    "ispine-elevated-never": ("_inverse_step_core", rewrite(ELEVATED, "False")),
    "ispine-case1-no-pop": ("_inverse_step_core", rewrite(
        "right.ups.pop() + right.shift != i", "right.ups[-1] + right.shift != i")),
    "ispine-case2-no-restore": ("_inverse_step_core",
                                rewrite("right.saved.pop()", "right.saved[-1]")),
    "ispine-case2-no-drop": ("_inverse_step_core", rewrite("right.ups.popleft()", "pass")),
    "ispine-case2-drops-the-top": ("_inverse_step_core",
                                   rewrite("right.ups.popleft()", "right.ups.pop()")),
    "ispine-case2-no-shift": ("_inverse_step_core", rewrite("right.shift -= 1", "pass")),
    "ispine-case2-pops-every-level": ("_inverse_step_core",
                                      rewrite(LEVEL_POP, "right.saved.pop()")),
    "ispine-case2-pops-no-level": ("_inverse_step_core", rewrite(LEVEL_POP, "False")),
    "ispine-case2-pops-while-elevated": ("_inverse_step_core",
                                         rewrite(LEVEL_POP, "not " + LEVEL_POP)),
    "ispine-case3-no-pop": ("_inverse_step_core", rewrite(
        "right.expose(right.saved[-1].pop())", "right.expose(right.saved[-1][-1])")),
    "ispine-case4-pops-one-short": ("_inverse_step_core",
                                    rewrite("range(moved + 2)", "range(moved + 1)")),
    "ispine-case4-no-shift": ("_inverse_step_core",
                              rewrite("right.shift = shift = shift + moved", "pass")),
    "ispine-case4-no-front": ("_inverse_step_core", rewrite("ups.extendleft(", "(")),
    "ispine-case4-no-frame": ("_inverse_step_core", rewrite("right.saved.append([])", "pass")),
    "ispine-case4-no-u0": ("_inverse_step_core", rewrite("ups.append(u0 - shift)", "pass")),
    "ispine-case4-exposed-one-low": ("_inverse_step_core",
                                     rewrite("x - shift for", "x - 1 - shift for")),
    "ispine-case4-exposed-top-first": ("_inverse_step_core",
                                       rewrite("reversed(exposed)", "exposed")),
    "ispine-walk-drops-the-bottom-match": ("_match_down", rewrite(
        "exposed.append(k)", "bal < -1 and exposed.append(k)")),
    "ispine-walk-shifts-the-bottom-match": ("_match_down", rewrite(
        "exposed.append(k)", "exposed.append(k - (bal == -1))")),
    "valleys-build-one-high": ("_carried_spine",
                               rewrite('steps.count("DU")', 'steps.count("DU") + 1')),
    "valleys-case1-lowers": ("_inverse_step_core", rewrite(
        "return steps[:i] + steps[i + 2 :], 1,",
        "right.valleys -= 1; return steps[:i] + steps[i + 2 :], 1,")),
    "valleys-case2-lowers": ("_inverse_step_core", rewrite(
        "right.shift -= 1", "right.shift -= 1; right.valleys -= 1")),
    "valleys-case3-keeps": ("_inverse_step_core", rewrite(
        "right.valleys -= 1\n        return steps[:-2], 3,", "pass\n        return steps[:-2], 3,")),
    "valleys-case4-keeps": ("_inverse_step_core", rewrite(
        "right.valleys -= 1\n        exposed", "pass\n        exposed")),
}


@pytest.mark.parametrize("mutant_id", INVERSE_RIGHT_SPINE_MUTANTS)
def test_inverse_right_spine_mutant_is_caught_by_inverse_and_inverse_trace(monkeypatch, mutant_id):
    install_spine_mutant(monkeypatch, *INVERSE_RIGHT_SPINE_MUTANTS[mutant_id])
    assert II in unwinding_outcomes(inverse) <= {II, "ok"}
    assert II in unwinding_outcomes(lambda p: inverse_trace(p).sequence) <= {II, "ok"}


# Single-rule mutants of the right spine, which only ``forward`` and
# ``forward_step`` carry (see the ``bijection`` module docstring): one of
# each update ``_forward_step_core`` makes to it.  The verify sweeps and
# the trace records scan instead, so only the maps can catch these.  The
# test collects how ``forward`` ends on every member of size <= 8, and how
# ``forward_step`` ends on the last entry of each from the image of the
# rest: "ok", "wrong" or the exception raised.  A drift must end as
# ``InternalInvariant``, never as a wrong word or as an ``InputError``
# that blames the caller.  A wrong read of a spine that has not drifted
# (keys bottom first, say) leaves nothing to catch at run time;
# ``tests/test_fuzz.py`` compares every carried step with the scanning
# core's for that.
RIGHT_SPINE_MUTANTS = {
    "rspine-case1-no-push": rewrite("spine.ups.append(i + 1 - spine.shift)", "pass"),
    "rspine-case2-no-shift": rewrite("spine.shift += 1", "pass"),
    "rspine-case2-no-new-bottom": rewrite("spine.ups.appendleft(-spine.shift)", "pass"),
    "rspine-case3-keeps-the-spine": rewrite("spine.ups.clear()", "pass"),
    "rspine-case3-keeps-the-shift": rewrite("spine.shift = 0\n", "pass\n"),
    "rspine-case4-pops-one-short": rewrite("range(d0 - spine.top - 1)", "range(d0 - spine.top - 2)"),
    "rspine-case4-no-push": rewrite("ups.append(d0 - spine.shift)", "pass"),
    "rspine-case4-keeps-the-front": rewrite("ups.popleft()", "pass"),
    "rspine-case4-no-lowering": rewrite("spine.shift -= e", "pass"),
    "rspine-case4-inserts-one-short": rewrite("range(u0 - e - spine.shift",
                                              "range(u0 - e + 1 - spine.shift"),
}

# On this member, and on none of size <= 10, a case 4 that does not lower
# the entries below u0 leaves a drift that no later step brings to the
# end check; only the probe that the word from u0 to d0 balances sees it.
# Found by shrinking a seeded member of 93 entries.
DRIFT_HIDDEN_FROM_THE_END = (0, 1, 0, 1, 2, 4, 4, 0, 4, 4, 4, 0, 4, 5, 5, 6, 0, 6, 9, 11)


def member_images():
    """The image of every member of size <= N and of every prefix of
    ``DRIFT_HIDDEN_FROM_THE_END``, taken before a mutant is installed."""
    images = {tuple(buf): path for k in range(1, N + 1)
              for buf, path in sequences._walk_021(k, bijection._forward_step_core)}
    for k in range(N + 1, len(DRIFT_HIDDEN_FROM_THE_END) + 1):
        prefix = DRIFT_HIDDEN_FROM_THE_END[:k]
        images[prefix] = bijection._forward_entries(prefix)[0]
    return images


def mapping_outcomes(images):
    """How ``forward`` ends on each member, and ``forward_step`` on its
    last entry from the image of the rest."""

    def ending(call, image):
        try:
            got = call()
        except Exception as exc:  # any exception is an outcome
            return type(exc).__name__
        return "ok" if got.steps == image else "wrong"

    by_forward, by_step = set(), set()
    for s, image in images.items():
        by_forward.add(ending(lambda: forward(AscentSequence(s)), image))
        if len(s) > 1:
            parent = DyckPath(images[s[:-1]])
            by_step.add(ending(
                lambda: forward_step(parent, AscentSequence(s[:-1]), s[-1])[0], image))
    return by_forward, by_step


@pytest.mark.parametrize("mutant_id", RIGHT_SPINE_MUTANTS)
def test_right_spine_mutant_is_caught_by_forward_and_forward_step(monkeypatch, mutant_id):
    images = member_images()
    make = RIGHT_SPINE_MUTANTS[mutant_id]
    monkeypatch.setattr(bijection, "_forward_step_core", make(bijection._forward_step_core))
    assert mapping_outcomes(images) == ({II, "ok"}, {II, "ok"})


def test_unmutated_right_spine_maps_every_member():
    assert mapping_outcomes(member_images()) == ({"ok"}, {"ok"})
