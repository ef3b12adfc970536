"""Seeded random members of the family past the exhaustive frontier, and
the carried states of both directions against their measured oracles.

The members are drawn straight from the definitions (an entry is at most
one more than the ascents so far, and nonzero entries never decrease),
not from the library's own menus, so the draw stays an independent
oracle for the construction at sizes no sweep reaches.  The paths are
drawn uniformly by the cycle lemma, whose shapes the sequence-side draw
does not reach.
"""

import functools
import random
from collections import Counter
from itertools import combinations

import pytest

from ascentdyck import (
    AscentSequence,
    DyckPath,
    classify_inverse_case,
    forward,
    forward_step,
    forward_trace,
    inverse,
    inverse_step,
    inverse_trace,
    path_statistics,
    sequence_statistics,
)
from ascentdyck import bijection, paths
from ascentdyck.bijection import _RightSpine, _forward_step_core, _inverse_entries
from ascentdyck.paths import (
    _degree_of_elevation,
    _is_elevated_steps,
    _iter_dyck_steps,
    _terminal_matches,
)
from ascentdyck.sequences import _ROOT, _grow, _iter_021_entries
from conftest import stack_matching

SEED = 20140
MEMBERS = 80


def draw_member(rng: random.Random, n: int) -> tuple[int, ...]:
    entries = [0]
    ascents = top = 0
    while len(entries) < n:
        v = rng.randint(0, ascents + 1)
        if v and v < top:
            continue  # a nonzero entry below an earlier one makes a 021
        ascents += entries[-1] < v
        top = max(top, v)
        entries.append(v)
    return tuple(entries)


def cycle_lemma_word(steps) -> str:
    """Of the 2n + 1 rotations of a word with n upsteps and n + 1
    downsteps, exactly one, the one starting just past the first lowest
    point, is a Dyck word followed by a downstep: that Dyck word."""
    bal = low = cut = 0
    for i, c in enumerate(steps):
        bal += 1 if c == "U" else -1
        if bal < low:
            low, cut = bal, i + 1
    return "".join([*steps[cut:], *steps[: cut - 1]])


def draw_path(rng: random.Random, n: int) -> str:
    """A uniform Dyck word of size n: every Dyck word comes from exactly
    2n + 1 of the equally likely shuffles."""
    steps = ["U"] * n + ["D"] * (n + 1)
    rng.shuffle(steps)
    return cycle_lemma_word(steps)


def members():
    rng = random.Random(SEED)
    return [draw_member(rng, rng.randint(15, 300)) for _ in range(MEMBERS)]


def measured_forward(entries: tuple[int, ...]) -> str:
    """The forward loop with the degree of elevation measured on the word
    at every case-4 step instead of carried: the oracle for the carry."""
    path = "UD"
    a = m = last = 0
    for u in entries[1:]:
        menu_entry = u not in (0, last, a + 1)
        e = _degree_of_elevation(path) if menu_entry else None
        path = _forward_step_core(path, u, (a, m, last, e))[0]
        a += last < u
        m = max(m, u)
        last = u
    return path


def scanned_degree_of_elevation(steps: str) -> int | None:
    """The height of the lowest valley by a walk over every step: the
    oracle for the valley-to-valley hops of ``_degree_of_elevation``."""
    best = None
    bal = 0
    for i in range(len(steps) - 1):
        bal += 1 if steps[i] == "U" else -1
        if steps[i] == "D" and steps[i + 1] == "U" and (best is None or bal < best):
            best = bal
    return best


def stepped_trace(p: DyckPath) -> tuple:
    """The inverse records one scanning ``inverse_step`` at a time: the
    oracle for the spine ``inverse_trace`` carries."""
    records = []
    while p.size > 1:
        records.append(inverse_step(p))
        p = records[-1].path_after
    return tuple(records)


def measured_inverse_entries(steps: str) -> list[int]:
    """The unwinding with the word scanned at every step instead of read
    off a carried right spine: the oracle for the spine."""
    emissions = []
    while len(steps) > 2:
        steps, _, emitted, _, _ = bijection._inverse_step_core(steps)
        emissions.append(emitted)
    entries = [0]
    for emitted in reversed(emissions):
        entries.append(entries[-1] if emitted is None else emitted)
    return entries


def levels_by_definition(steps: str) -> list[tuple]:
    """The levels of a word read off their definition, top level first:
    the end and lowest inner valley of the word's first ground component,
    then the same for that component lowered by its lowest valley, until
    a pyramid, each in its own level word's offsets."""
    levels = []
    while True:
        bal = 0
        for end, c in enumerate(steps, start=1):
            bal += 1 if c == "U" else -1
            if not bal:
                break
        low = _degree_of_elevation(steps[:end])
        levels.append((end, low))
        if low is None:
            return levels
        steps = steps[low : end - low]


def bases_by_definition(steps: str) -> list[int]:
    """Where each level's word starts, top level first: the cumulative
    lows of the levels above it."""
    bases = [0]
    for _, low in levels_by_definition(steps)[:-1]:
        bases.append(bases[-1] + low)
    return bases


def built_bases(right) -> list[int]:
    """The level bases a built spine holds, top level first, read off each
    level's first saved spine.  Only the top level can have none saved: a
    lower one has a valley at its ground, so two or more components."""
    return [level[0][2] if level else 0 for level in reversed(right.saved)]


@pytest.mark.parametrize("entries", members(), ids=lambda e: f"n{len(e)}")
def test_random_member(entries):
    s = AscentSequence(entries)
    p = forward(s)
    assert p.steps == measured_forward(entries)
    assert _inverse_entries(p.steps) == measured_inverse_entries(p.steps)
    assert inverse(p) == s

    seq, path = sequence_statistics(s), path_statistics(p)
    assert seq.initial_zeros == path.first_descent_length
    assert seq.terminal_zeros == path.last_ascent_length - 1
    assert seq.ascents == path.valleys
    assert seq.descents == path.duu_count
    assert seq.eq_run_before_last_nonzero == path.degree_of_elevation

    trace = forward_trace(s)
    assert trace.final_path == p
    path = trace.initial
    for record in trace.records:
        assert classify_inverse_case(record.path_after) == record.case_id, record.position
        # forward_step from the bare prefix, deriving its own state
        k = record.position - 1
        path, stepped = forward_step(path, AscentSequence(entries[:k]), entries[k])
        assert stepped == record
    trace = inverse_trace(p)
    assert trace.sequence == s
    assert trace.records == stepped_trace(p)
    assert _degree_of_elevation(p.steps) == scanned_degree_of_elevation(p.steps)


@pytest.mark.parametrize("seed", range(3))
def test_carried_degree_matches_the_measured_one_at_2000_entries(seed):
    entries = draw_member(random.Random(SEED + seed), 2000)
    steps = forward(AscentSequence(entries)).steps
    assert steps == measured_forward(entries)
    assert _degree_of_elevation(steps) == scanned_degree_of_elevation(steps)


@pytest.mark.parametrize("seed", range(3))
def test_carried_spine_matches_the_measured_unwinding_at_2000_entries(seed):
    entries = draw_member(random.Random(SEED + seed), 2000)
    steps = forward(AscentSequence(entries)).steps
    assert _inverse_entries(steps) == measured_inverse_entries(steps) == list(entries)


@pytest.mark.parametrize("n", range(1, 11))
def test_carried_spine_matches_the_measured_unwinding_on_every_path(n):
    for steps in _iter_dyck_steps(n):
        assert _inverse_entries(steps) == measured_inverse_entries(steps), steps


@pytest.mark.parametrize("n", range(1, 11))
def test_carried_spine_reads_elevation_off_its_bottom_after_every_step(n):
    for steps in _iter_dyck_steps(n):
        right = bijection._carried_spine(steps)
        assert built_bases(right) == bases_by_definition(steps), steps
        while True:
            assert (right.ups[0] + right.shift == 0) == _is_elevated_steps(steps), steps
            if len(steps) <= 2:
                break
            steps = bijection._inverse_step_core(steps, right)[0]


@pytest.mark.parametrize("n", range(1, 11))
def test_valley_hops_match_the_step_scan_on_every_path(n):
    for steps in _iter_dyck_steps(n):
        assert _degree_of_elevation(steps) == scanned_degree_of_elevation(steps), steps


@pytest.mark.parametrize("n", range(1, 10))
def test_trace_carries_the_spine_to_the_scanning_records_on_every_path(n):
    for steps in _iter_dyck_steps(n):
        p = DyckPath(steps)
        assert inverse_trace(p).records == stepped_trace(p), steps


@pytest.mark.parametrize("n", range(1, 6))
def test_cycle_lemma_hits_every_path_equally_often(n):
    counts = Counter(
        cycle_lemma_word(["D" if k in downs else "U" for k in range(2 * n + 1)])
        for downs in map(set, combinations(range(2 * n + 1), n + 1))
    )
    assert sorted(counts) == sorted(_iter_dyck_steps(n))
    assert set(counts.values()) == {2 * n + 1}


def uniform_paths():
    rng = random.Random(SEED)
    return [draw_path(rng, rng.randint(500, 2000)) for _ in range(4)]


@pytest.mark.parametrize("steps", uniform_paths(), ids=lambda s: f"n{len(s) // 2}")
def test_uniform_path(steps):
    p = DyckPath(steps)
    s = inverse(p)
    assert list(s.entries) == measured_inverse_entries(steps)
    assert forward(s) == p

    seq, path = sequence_statistics(s), path_statistics(p)
    assert seq.initial_zeros == path.first_descent_length
    assert seq.terminal_zeros == path.last_ascent_length - 1
    assert seq.ascents == path.valleys
    assert seq.descents == path.duu_count
    assert seq.eq_run_before_last_nonzero == path.degree_of_elevation
    for lift in range(4):
        # lifted, the lowest valley is above ground and every valley is read
        lifted = "U" * lift + steps + "D" * lift
        assert _degree_of_elevation(lifted) == scanned_degree_of_elevation(lifted)


def right_spine_by_definition(steps: str) -> list[int]:
    """The offsets of the upsteps still open at the last peak, bottom
    first, by a stack walk up to it."""
    opened = []
    for k in range(steps.rfind("U") + 1):
        if steps[k] == "U":
            opened.append(k)
        else:
            opened.pop()
    return opened


def grow_on_a_carried_right_spine(entries) -> str:
    """The forward loop with a right spine carried, checked after every
    step against the matches scanned on the word, and the word against the
    scanning core's."""
    path, state, spine = "UD", _ROOT, _RightSpine([0])
    for u in entries[1:]:
        scanned = _forward_step_core(path, u, state)[0]
        path = _forward_step_core(path, u, state, spine)[0]
        state = _grow(state, u)
        assert path == scanned, entries
        assert list(spine) == _terminal_matches(path)[1][::-1], entries
    return path


def test_right_spine_by_definition_is_the_terminal_matches_on_every_path():
    for n in range(1, 11):
        for steps in _iter_dyck_steps(n):
            assert right_spine_by_definition(steps) == _terminal_matches(steps)[1][::-1], steps


def test_carried_right_spine_after_every_step_of_every_member():
    # every shorter member is a prefix of one of size 10, as 0 always extends
    for entries in _iter_021_entries(10):
        grow_on_a_carried_right_spine(entries)


@pytest.mark.parametrize("seed", range(3))
def test_carried_right_spine_after_every_step_at_2000_entries(seed):
    entries = draw_member(random.Random(SEED + seed), 2000)
    assert grow_on_a_carried_right_spine(entries) == forward(AscentSequence(entries)).steps


@pytest.mark.parametrize("steps", uniform_paths(), ids=lambda s: f"n{len(s) // 2}")
def test_carried_right_spine_after_every_step_to_a_uniform_path(steps):
    # the preimages of uniform paths reach shapes the member draw does not
    entries = inverse(DyckPath(steps)).entries
    assert grow_on_a_carried_right_spine(entries) == steps


@functools.cache
def member_16k() -> tuple[int, ...]:
    """The seeded 16k-entry member, drawn once: the draw alone takes seconds."""
    return draw_member(random.Random(7), 16_000)


@pytest.mark.parametrize("shape", ["staircase", "all-zero", "member"])
def test_forward_scans_the_terminal_matches_once_at_16k_entries(monkeypatch, shape):
    # the carried spine replaces every case-4 scan; the one left is the
    # drift check on the final word
    entries = {
        "staircase": lambda: (0,) + (1,) * 15_999,
        "all-zero": lambda: (0,) * 16_000,
        "member": member_16k,
    }[shape]()
    calls = []
    scan = paths._terminal_matches

    def counted(steps):
        calls.append(len(steps))
        return scan(steps)

    monkeypatch.setattr(paths, "_terminal_matches", counted)
    monkeypatch.setattr(bijection, "_terminal_matches", counted)
    assert forward(AscentSequence(entries)).size == 16_000
    assert calls == [32_000]


def kept_spine(kept) -> list[int]:
    """A saved spine as a plain list, bottom first, in its level's offsets."""
    cell, height, base = kept
    offsets = []
    for _ in range(height):
        offset, cell = cell
        offsets.append(offset - base)
    offsets.reverse()
    return offsets


def saved_by_definition(steps: str) -> list[list[list[int]]]:
    """Per level, bottom level first, the right spines of that level's
    ground components left of its last one, by a stack walk over each
    component, in the level word's own offsets."""
    saved = []
    for end, low in levels_by_definition(steps):
        spines, start, bal = [], 0, 0
        for k, c in enumerate(steps):
            bal += 1 if c == "U" else -1
            if not bal:
                spines.append([start + u for u in right_spine_by_definition(steps[start : k + 1])])
                start = k + 1
        saved.append(spines[:-1])
        if low is None:
            break
        steps = steps[low : end - low]
    return saved[::-1]


def saved_as_lists(right) -> list[list[list[int]]]:
    return [list(map(kept_spine, level)) for level in right.saved]


def rebuilt_saved(steps: str) -> list[list[list[int]]]:
    """The saved spines built afresh on the word: the oracle where the
    stack walk of every level, O(levels x steps) a word, is too slow."""
    return saved_as_lists(bijection._carried_spine(steps))


def unwind_on_carried_right_spines(steps: str, rebuild: bool = False) -> list[int]:
    """The carried unwinding, with its right spine checked after every
    step against the matches scanned on the word, its valley count against
    the word's, and its saved spines against their definition, or with
    ``rebuild`` against the rebuilt ones, and the entries against the
    scanning unwinding's."""
    word = steps
    right = bijection._carried_spine(steps)
    emissions = []
    while True:
        assert list(right) == _terminal_matches(steps)[1][::-1], (word, steps)
        assert right.valleys == steps.count("DU"), (word, steps)
        saved = rebuilt_saved(steps) if rebuild else saved_by_definition(steps)
        assert saved_as_lists(right) == saved, (word, steps)
        if len(steps) <= 2:
            break
        steps, _, emitted, _, _ = bijection._inverse_step_core(steps, right)
        emissions.append(emitted)
    entries = [0]
    for emitted in reversed(emissions):
        entries.append(entries[-1] if emitted is None else emitted)
    assert entries == measured_inverse_entries(word), word
    return entries


def test_saved_spines_by_definition_on_small_words():
    # UDUUDDUD: the ground components UD and UUDD are left of the last;
    # UUDUDDUD: inside the first component, the word UDUD has UD left of it
    assert saved_by_definition("UDUUDDUD") == [[[0], [2, 3]]]
    assert saved_by_definition("UUDUDDUD") == [[[0]], [[0, 3]]]


def test_case4_walk_finds_u0_and_the_exposed_matches_on_every_path():
    # the carried case 4 reads u0 and the matches exposed under it off one
    # walk: the mark's match by stack pairing, and the subtree's terminal
    # matches in the word's offsets
    for n in range(2, 11):
        for steps in _iter_dyck_steps(n):
            if bijection._classify(steps) != 4:
                continue
            r = steps.rfind("U")
            shorter = steps[:r] + steps[r + 2 :]
            exposed = []
            u0 = paths._match_down(shorter, r, exposed)
            assert u0 == stack_matching(shorter)[r + 1] - 1, steps
            subtree = _terminal_matches(shorter[u0 + 1 : r])[1]
            assert exposed == [x + u0 + 1 for x in subtree], steps


@pytest.mark.parametrize("n", range(1, 11))
def test_carried_right_spines_after_every_inverse_step_on_every_path(n):
    for steps in _iter_dyck_steps(n):
        unwind_on_carried_right_spines(steps)


@pytest.mark.parametrize("seed", range(3))
def test_carried_right_spines_after_every_inverse_step_at_2000_entries(seed):
    # the images nest about 200 levels deep: the stack-walk definition
    # checks the saved spines at the start, the rebuilt ones after that
    entries = draw_member(random.Random(SEED + seed), 2000)
    steps = forward(AscentSequence(entries)).steps
    assert rebuilt_saved(steps) == saved_by_definition(steps)
    assert unwind_on_carried_right_spines(steps, rebuild=True) == list(entries)


@pytest.mark.parametrize("steps", uniform_paths(), ids=lambda s: f"n{len(s) // 2}")
def test_carried_right_spines_after_every_inverse_step_on_a_uniform_path(steps):
    assert unwind_on_carried_right_spines(steps) == list(inverse(DyckPath(steps)).entries)


@pytest.mark.parametrize("shape", ["pyramid", "member", "uniform"])
def test_inverse_reads_every_key_downstep_off_a_spine_at_16k_entries(monkeypatch, shape):
    # every case-4 step reads its rank off the carried right spine, and u0
    # and the matches exposed under it off one ``_match_down`` walk; a call
    # without a spine would rescan the word from the terminal descent
    # leftward, and a terminal-match scan would walk the subtree again
    steps = {
        "pyramid": lambda: "U" * 16_000 + "D" * 16_000,
        "member": lambda: forward(AscentSequence(member_16k())).steps,
        "uniform": lambda: draw_path(random.Random(5), 16_000),
    }[shape]()
    spines = []
    keys = paths._key_downsteps

    def counted(steps, spine=None, count=None):
        spines.append(spine)
        return keys(steps, spine, count)

    monkeypatch.setattr(bijection, "_key_downsteps", counted)
    calls = Counter()
    for name in ("_terminal_matches", "_match_down"):
        def tallied(*args, _fn=getattr(paths, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(paths, name, tallied)
        monkeypatch.setattr(bijection, name, tallied)
    cases = Counter()
    core = bijection._inverse_step_core

    def case_counted(steps, *carried):
        stepped = core(steps, *carried)
        cases[stepped[1]] += 1
        return stepped

    monkeypatch.setattr(bijection, "_inverse_step_core", case_counted)
    assert len(inverse(DyckPath(steps))) == 16_000
    assert None not in spines
    assert len(spines) == cases[4] and (cases[4] > 0) == (shape != "pyramid")
    assert calls["_terminal_matches"] == 0
    assert calls["_match_down"] == cases[4]
