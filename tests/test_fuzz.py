"""Seeded random members of the family past the exhaustive frontier.

The members are drawn straight from the definitions (an entry is at most
one more than the ascents so far, and nonzero entries never decrease),
not from the library's own menus, so the draw stays an independent
oracle for the construction at sizes no sweep reaches.
"""

import random

import pytest

from ascentdyck import (
    AscentSequence,
    classify_inverse_case,
    forward,
    forward_step,
    forward_trace,
    inverse,
    inverse_trace,
    path_statistics,
    sequence_statistics,
)
from ascentdyck.bijection import _forward_step_core
from ascentdyck.paths import _degree_of_elevation

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


@pytest.mark.parametrize("entries", members(), ids=lambda e: f"n{len(e)}")
def test_random_member(entries):
    s = AscentSequence(entries)
    p = forward(s)
    assert p.steps == measured_forward(entries)
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
    assert inverse_trace(p).sequence == s


@pytest.mark.parametrize("seed", range(3))
def test_carried_degree_matches_the_measured_one_at_2000_entries(seed):
    entries = draw_member(random.Random(SEED + seed), 2000)
    assert forward(AscentSequence(entries)).steps == measured_forward(entries)
