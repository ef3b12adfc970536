"""Acceptance suite: every criterion as one test, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The extended sweep (criterion 4b) runs the README's ``verify 14
--extended --checks roundtrip,bijectivity --json``, which folds all
2,674,440 sequences once for both checks, and took about 21 s on a 2-vCPU
machine under Python 3.11; everything else finishes in seconds.
"""

import json
import time
from pathlib import Path

from ascentdyck import (
    DyckPath,
    REPEAT_PREVIOUS,
    catalan,
    check_bijectivity,
    check_characterization,
    check_invariants,
    check_roundtrip,
    check_statistics,
    enumerate_021_avoiding,
    enumerate_dyck_paths,
    forward_trace,
    inverse_step,
    validate_ascent_sequence,
)
from ascentdyck.cli import main

GOLDEN = Path(__file__).parent / "golden"

CATALAN_1_TO_12 = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def _report(criterion: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_catalan_counts():
    """Both enumerators produce exactly the Catalan counts for n = 1..12."""
    started = time.perf_counter()
    ok = True
    for n, expected in enumerate(CATALAN_1_TO_12, start=1):
        # the recurrence must agree with the frozen list before counting
        ok = ok and catalan(n) == expected
        ok = ok and sum(1 for _ in enumerate_021_avoiding(n)) == expected
        ok = ok and sum(1 for _ in enumerate_dyck_paths(n)) == expected
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(f"1 (catalan counts, {elapsed:.1f}s)", ok)


def test_criterion_2_worked_example_trace():
    """The eight intermediate paths with their cases, menus, positions and
    elevation degrees, exactly as in the construction's worked figures."""
    trace = forward_trace(validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0, 3]))
    paths = [str(trace.initial)] + [str(r.path_after) for r in trace.records]
    ok = paths == [
        "UD",
        "UDUD",
        "UDUUDD",
        "UDUUDUDD",
        "UDUUDUDUDD",
        "UUDUUDUDUDDD",
        "UUDUUDUDUUDDDD",
        "UDUUUDUDUUDDUDDD",
    ]
    ok = ok and [r.case_id for r in trace.records] == [3, 1, 4, 4, 2, 1, 4]
    menus = [r.allowable.values if r.allowable else None for r in trace.records]
    ok = ok and menus == [None, None, (1,), (2,), None, None, (2, 3)]
    ok = ok and [r.allowable_index for r in trace.records] == [
        None, None, 1, 1, None, None, 2,
    ]
    ok = ok and [r.elevation_degree for r in trace.records] == [
        None, None, 0, 0, None, None, 1,
    ]
    _report("2 (worked-example trace)", ok)


def test_criterion_3_inverse_fixtures():
    """One exact fixture per inverse case."""
    r1 = inverse_step(DyckPath("UUDUUDDD"))
    ok = (r1.case_id, r1.emitted, str(r1.path_after)) == (1, 0, "UUDUDD")

    r2 = inverse_step(DyckPath("UUDUDD"))
    ok = ok and r2.case_id == 2 and r2.emitted is REPEAT_PREVIOUS
    ok = ok and str(r2.path_after) == "UDUD"

    r3 = inverse_step(DyckPath("UUDUDDUD"))
    ok = ok and (r3.case_id, r3.emitted, str(r3.path_after)) == (3, 2, "UUDUDD")

    r4 = inverse_step(DyckPath("UDUUDUUUDUDDDD"))
    ok = ok and (r4.case_id, r4.emitted, str(r4.path_after)) == (
        4, 1, "UUDUUDUUDDDD",
    )
    _report("3 (inverse case fixtures)", ok)


def test_criterion_4_roundtrip_and_bijectivity():
    """Zero failures in both directions and full coverage, n = 1..12."""
    ok = True
    for n in range(1, 13):
        r = check_roundtrip(n)
        b = check_bijectivity(n)
        ok = ok and r.passed and b.passed
        ok = ok and r.sequences_checked == r.paths_checked == catalan(n)
    _report("4 (roundtrip and bijectivity, n <= 12)", ok)


def test_criterion_4_extended_sweep(capsys):
    """The size-14 sweep, as the README runs it, finishes clean in under
    five minutes."""
    started = time.perf_counter()
    code = main(["verify", "14", "--extended", "--checks", "roundtrip,bijectivity", "--json"])
    elapsed = time.perf_counter() - started
    r, b = json.loads(capsys.readouterr().out)
    ok = code == 0 and (r["check"], b["check"]) == ("roundtrip", "bijectivity")
    ok = ok and r["passed"] and b["passed"]
    ok = ok and r["sequences_checked"] == 2674440 and b["paths_checked"] == 2674440
    ok = ok and elapsed < 300.0
    _report(f"4b (extended sweep n=14, {elapsed:.0f}s)", ok)


def test_criterion_5_equidistribution():
    """All five statistic equalities hold pairwise for every n <= 10,
    including the all-zero and absent/absent special cases."""
    ok = True
    for n in range(1, 11):
        report = check_statistics(n)
        ok = ok and report.passed and all(report.equidistribution.values())
    _report("5 (equidistribution, n <= 10)", ok)


def test_criterion_6_structural_invariants():
    """Menu size equals key-downstep count at every menu step; the step
    shape rules hold at every step; the case split is total, n <= 10."""
    ok = True
    for n in range(1, 11):
        ok = ok and check_invariants(n).passed
    _report("6 (structural invariants, n <= 10)", ok)


def test_criterion_7_characterization():
    """Membership test vs brute-force pattern search over every valid
    ascent sequence of length <= 10, entries bounded only by the
    ascent condition."""
    report = check_characterization(10, None)
    _report("7 (characterization equivalence)", report.passed)


def test_criterion_8_cli_golden_files(capsys):
    """map --trace, render x3 and stats match the stored bytes."""
    ok = True

    main(["map", "0,1,0,1,2,2,0,3", "--trace"])
    ok = ok and capsys.readouterr().out == (
        GOLDEN / "map_trace_01012203.txt"
    ).read_text()

    for path, name in [
        ("UD", "render_ud.txt"),
        ("UUDD", "render_uudd.txt"),
        ("UDUUDD", "render_uduudd.txt"),
    ]:
        main(["render", path])
        ok = ok and capsys.readouterr().out == (GOLDEN / name).read_text()

    main(["stats", "--seq", "0,0,0,0"])
    ok = ok and capsys.readouterr().out == (GOLDEN / "stats_0000.txt").read_text()

    _report("8 (CLI golden files)", ok)
