import hashlib
import io
import json
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from ascentdyck import bijection, cli, verify
from ascentdyck.cli import main
from ascentdyck.errors import CapExceeded, InputError, InternalInvariant

from test_mutants import install
from test_verify import no_sweep  # noqa: F401  (a fixture)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMap:
    def test_worked_example(self, capsys):
        code, out, err = run_cli(capsys, "map", "0,1,0,1,2,2,0,3")
        assert (code, out, err) == (0, "UDUUUDUDUUDDUDDD\n", "")

    def test_minimal(self, capsys):
        code, out, _ = run_cli(capsys, "map", "0")
        assert (code, out) == (0, "UD\n")

    def test_compact_input(self, capsys):
        code, out, _ = run_cli(capsys, "map", "01012203")
        assert (code, out) == (0, "UDUUUDUDUUDDUDDD\n")

    def test_paren_format(self, capsys):
        code, out, _ = run_cli(capsys, "map", "0,1", "--format", "paren")
        assert (code, out) == (0, "()()\n")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "map", "0,1,0", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"sequence": [0, 1, 0], "path": "UDUUDD"}

    def test_not_avoiding_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "map", "0,1,2,1")
        assert code == 1
        assert out == ""
        assert "not 021-avoiding" in err
        assert "4" in err  # names the offending position

    @pytest.mark.parametrize("argv", [["map", "0\u00b2"], ["stats", "--seq", "0\u00b9"]])
    def test_superscript_digit_is_input_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_sequence(self, capsys):
        code, _, err = run_cli(capsys, "map", "0,2")
        assert code == 1
        assert "position 2" in err

    def test_stdin_operand(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("0,1,0,1,2,2,0,3\n"))
        code, out, _ = run_cli(capsys, "map", "-")
        assert (code, out) == (0, "UDUUUDUDUUDDUDDD\n")

    def test_trace_golden(self, capsys):
        code, out, _ = run_cli(capsys, "map", "0,1,0,1,2,2,0,3", "--trace")
        assert code == 0
        assert out == (GOLDEN / "map_trace_01012203.txt").read_text()

    def test_trace_json(self, capsys):
        code, out, _ = run_cli(capsys, "map", "0,1,0,1,2,2,0,3", "--trace",
                               "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert [r["case"] for r in records] == [3, 1, 4, 4, 2, 1, 4]
        assert records[-1] == {
            "position": 8,
            "entry": 3,
            "case": 4,
            "allowable": [2, 3],
            "allowable_index": 2,
            "elevation_degree": 1,
            "key_downsteps": [12, 13],
            "path": "UDUUUDUDUUDDUDDD",
        }
        assert records[0]["allowable"] is None
        for record in records:
            assert set(record) == {
                "position", "entry", "case", "allowable", "allowable_index",
                "elevation_degree", "key_downsteps", "path",
            }


class TestUnmap:
    def test_worked_example(self, capsys):
        code, out, err = run_cli(capsys, "unmap", "UDUUUDUDUUDDUDDD")
        assert (code, out, err) == (0, "0,1,0,1,2,2,0,3\n", "")

    def test_minimal(self, capsys):
        code, out, _ = run_cli(capsys, "unmap", "UD")
        assert (code, out) == (0, "0\n")

    def test_malformed_path(self, capsys):
        code, _, err = run_cli(capsys, "unmap", "UUDDDU")
        assert code == 1
        assert "step 5" in err

    def test_paren_input(self, capsys):
        code, out, _ = run_cli(capsys, "unmap", "(())")
        assert (code, out) == (0, "0,0\n")

    def test_trace(self, capsys):
        code, out, _ = run_cli(capsys, "unmap", "UDUUDUUUDUDDDD", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "start UDUUDUUUDUDDDD"
        assert lines[1] == "size 7: case 4, emit 1, mark 10, rank 2, path UUDUUDUUDDDD"
        assert lines[-1].startswith("sequence ")

    def test_roundtrip_at_the_command_line(self, capsys):
        for n in range(1, 7):
            from ascentdyck import enumerate_021_avoiding

            for seq in enumerate_021_avoiding(n):
                text = str(seq)
                code, out, _ = run_cli(capsys, "map", text)
                assert code == 0
                code, out, _ = run_cli(capsys, "unmap", out.strip())
                assert code == 0
                assert out.strip() == text


class TestEnumerate:
    def test_pairs_default(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[0] == "0,0,0\tUUUDDD"
        assert all("\t" in line for line in lines)

    def test_seq_side(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "3", "--side", "seq")
        assert out.splitlines() == ["0,0,0", "0,0,1", "0,1,0", "0,1,1", "0,1,2"]

    def test_path_side(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "2", "--side", "path")
        assert out.splitlines() == ["UUDD", "UDUD"]

    def test_pairs_agree_with_map(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "4")
        for line in out.splitlines():
            seq_text, path_text = line.split("\t")
            code2, out2, _ = run_cli(capsys, "map", seq_text)
            assert out2.strip() == path_text

    def test_stats_column(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "4", "--side", "seq", "--stats")
        line = out.splitlines()[0]  # the all-zero sequence
        assert line == "0,0,0,0\t4,3,0,0,-"

    def test_bad_size(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "0")
        assert code == 1

    @pytest.mark.parametrize("values", [
        (4, 3, 0, 0, None), (1, 0, 2, 1, 0), (12, 11, 10, 9, 8), (0, 0, 0, 0, None),
    ])
    def test_stat_cell_is_the_generic_join(self, values):
        assert cli._stat_cell(values) == ",".join("-" if v is None else str(v) for v in values)


class TestStats:
    def test_all_zero_golden(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--seq", "0,0,0,0")
        assert code == 0
        assert out == (GOLDEN / "stats_0000.txt").read_text()

    def test_path_rows(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--path", "UUUUDDDD")
        assert out.splitlines() == [
            "first_descent_length\t4",
            "last_ascent_length\t4",
            "valleys\t0",
            "duu_count\t0",
            "degree_of_elevation\t-",
        ]

    def test_requires_exactly_one(self, capsys):
        code, _, err = run_cli(capsys, "stats")
        assert code == 1
        code, _, err = run_cli(capsys, "stats", "--seq", "0", "--path", "UD")
        assert code == 1


class TestTraceLimit:
    # past 2,000 entries a trace is refused before its first line
    def test_map_trace_past_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "map", ",".join(["0"] * 2001), "--trace")
        assert (code, out) == (1, "")
        assert err == "error: a trace of 2001 entries is past the limit of 2000\n"

    def test_unmap_trace_past_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "unmap", "U" * 2001 + "D" * 2001, "--trace")
        assert (code, out) == (1, "")
        assert err == "error: a trace of size 2001 is past the limit of 2000\n"

    def test_unmap_trace_at_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "unmap", "U" * 2000 + "D" * 2000, "--trace")
        assert code == 0
        assert out.endswith("sequence " + ",".join(["0"] * 2000) + "\n")


class TestVerify:
    def test_small_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "5")
        assert code == 0
        assert "verify: PASS" in out
        for name in ("counts", "roundtrip", "bijectivity", "invariants",
                     "statistics", "characterization"):
            assert name in out

    def test_check_subset(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "6", "--checks", "counts,roundtrip")
        assert code == 0
        assert "bijectivity" not in out

    def test_json_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "4", "--checks",
                               "counts,statistics", "--json")
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == ["counts", "statistics"]
        assert all(r["passed"] for r in reports)

    def test_json_report_keys_for_every_check(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "4", "--json")
        assert code == 0
        reports = json.loads(out)
        assert [r["check"] for r in reports] == [
            "counts", "roundtrip", "bijectivity", "invariants", "statistics",
            "characterization",
        ]
        for report in reports:
            assert set(report) == {
                "check", "n", "sequences_checked", "paths_checked", "passed",
                "failures", "equidistribution", "elapsed_seconds",
            }

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "verify", "13")
        assert code == 1
        assert "--extended" in err

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "3", "--checks", "nonsense")
        assert code == 1
        # a later unknown name is rejected before the first check runs
        code, out, err = run_cli(capsys, "verify", "9", "--checks", "roundtrip,bogus")
        assert (code, out) == (1, "")
        assert err.startswith("error: unknown check 'bogus'")

    def test_repeated_check(self, capsys, no_sweep):
        # a repeat would print its report twice and count its failures
        # twice; it is refused before the first check runs
        for checks in ("counts,counts", "roundtrip,counts,roundtrip"):
            code, out, err = run_cli(capsys, "verify", "3", "--checks", checks)
            assert (code, out) == (1, "")
            assert err == f"error: check '{checks.split(',')[0]}' is named more than once\n"


SIX = ("counts", "roundtrip", "bijectivity", "invariants", "statistics", "characterization")
FUSED = SIX[1:5]
SELECTIONS = [
    ",".join(SIX),
    *(",".join(c) for k in range(1, 5) for c in combinations(FUSED, k)),
    ",".join(reversed(SIX)),
]


def standalone_reports(n, names):
    # each check called alone, with the bounds the command line uses
    return [verify.check_characterization(min(n, 10), 6) if name == "characterization"
            else getattr(verify, "check_" + name)(n) for name in names]


def timeless(blobs):
    return [{k: v for k, v in blob.items() if k != "elapsed_seconds"} for blob in blobs]


def verify_alone_and_shared(capsys, monkeypatch, *argv):
    # the command line as it runs, and with every check run alone instead
    shared = run_cli(capsys, "verify", *argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_Sweep", lambda names: verify._Sweep(()))
        m.setattr(cli, "_PathWalk", lambda: None)
        alone = run_cli(capsys, "verify", *argv)
    return alone, shared


def without_times(text):
    return re.sub(r"elapsed=\d+\.\d+s", "elapsed=", text)


class TestVerifySharedWalk:
    # roundtrip, bijectivity, invariants and statistics share one walk on
    # the command line; every output must read as if each ran alone

    @pytest.mark.parametrize("n, checks", [(9, SELECTIONS[0]), (1, SELECTIONS[0]),
                                           *((6, s) for s in SELECTIONS[1:])])
    def test_json_matches_the_standalone_reports(self, capsys, n, checks):
        code, out, _ = run_cli(capsys, "verify", str(n), "--checks", checks, "--json")
        expected = standalone_reports(n, checks.split(","))
        assert code == 0
        assert timeless(json.loads(out)) == timeless(r.to_json() for r in expected)

    @pytest.mark.parametrize("checks", [SELECTIONS[0], SELECTIONS[-2], SELECTIONS[-1],
                                        "statistics,invariants"])
    def test_text_matches_the_standalone_run(self, capsys, monkeypatch, checks):
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, "7", "--checks", checks)
        assert shared[0] == alone[0] == 0
        assert without_times(shared[1]) == without_times(alone[1])
        assert shared[1].count("elapsed=") == len(checks.split(",")) > 0

    @pytest.mark.parametrize("mutant", ["inv-case3-emits-one-more", "fwd-case3-refused",
                                        "fwd-case4-moves-e-minus-1-upsteps"])
    @pytest.mark.parametrize("argv", [(), ("--json",)])
    def test_failures_and_exceptions_read_the_same(self, capsys, monkeypatch, mutant, argv):
        # a failing check, and a check that raises part way through the run
        install(monkeypatch, mutant)
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, "6", *argv)
        assert shared[0] == alone[0] == 2
        if argv and alone[1]:
            assert timeless(json.loads(shared[1])) == timeless(json.loads(alone[1]))
        else:
            assert without_times(shared[1]) == without_times(alone[1])
        assert shared[2] == alone[2]

    @pytest.mark.parametrize("checks", SELECTIONS)
    def test_each_requested_check_is_called_once_in_order(self, capsys, monkeypatch, checks):
        calls = []

        def spy(name, check):
            def called(*args, **kwargs):
                calls.append((name, kwargs.get("_sweep"), kwargs.get("_paths")))
                return check(*args, **kwargs)

            return called

        for name, check in list(cli._CHECKS.items()):
            monkeypatch.setitem(cli._CHECKS, name, spy(name, check))
        assert run_cli(capsys, "verify", "4", "--checks", checks)[0] == 0
        assert [name for name, _, _ in calls] == checks.split(",")
        # the four share one sweep; counts and characterization get none
        shared = [sweep for name, sweep, _ in calls if name in FUSED]
        assert all(sweep is not None and sweep is shared[0] for sweep in shared)
        assert all(sweep is None for name, sweep, _ in calls if name not in FUSED)
        # counts and invariants share one path walk when both run
        walks = [paths for name, _, paths in calls if name in ("counts", "invariants")]
        both = len(walks) == 2
        assert all((paths is not None) == both and paths is walks[0] for paths in walks)
        assert all(paths is None for name, _, paths in calls
                   if name not in ("counts", "invariants"))

    @pytest.mark.parametrize("mutant, code", [(None, 0), ("fwd-case4-moves-e-minus-1-upsteps", 2)])
    def test_a_clean_run_walks_once(self, capsys, monkeypatch, mutant, code):
        # one forward edge per node of sizes 2..6 when all four pass; a
        # failing check sends each of them back to its own walk
        if mutant:
            install(monkeypatch, mutant)
        core, calls = verify._forward_step_core, []
        monkeypatch.setattr(verify, "_forward_step_core",
                            lambda path, v, state: calls.append(v) or core(path, v, state))
        assert run_cli(capsys, "verify", "6", "--checks", ",".join(FUSED))[0] == code
        once = 195  # Catalan(2) + ... + Catalan(6)
        assert len(calls) == once if mutant is None else len(calls) > once

    @pytest.mark.parametrize("checks", ["invariants", "roundtrip,invariants", ",".join(FUSED)])
    def test_each_child_word_is_classified_once(self, capsys, monkeypatch, checks):
        # invariants alone classifies every child word itself; with
        # roundtrip it reads the case off the inverse step instead
        classify, calls = bijection._classify, []
        monkeypatch.setattr(bijection, "_classify",
                            lambda *args: calls.append(args) or classify(*args))
        assert run_cli(capsys, "verify", "6", "--checks", checks)[0] == 0
        assert len(calls) == 195

    def test_the_sweep_starts_after_the_entry_gate(self, no_sweep):
        sweep = verify._Sweep(FUSED)
        for name in FUSED:
            check = getattr(verify, "check_" + name)
            with pytest.raises(InputError, match="size must be an int"):
                check(3.0, _sweep=sweep)
            with pytest.raises(CapExceeded):
                check(20, cap=20, _sweep=sweep)
        assert sweep.failed is None  # the sweep never ran

    @pytest.mark.parametrize("names", [FUSED, ("roundtrip",), ("bijectivity",),
                                       ("invariants",), ("statistics",)])
    def test_the_sweep_walks_through_the_verify_names(self, no_sweep, names):
        # so that no_sweep refuses the shared walk as it refuses each alone
        with pytest.raises(AssertionError, match="a sweep started"):
            getattr(verify, "check_" + names[0])(3, _sweep=verify._Sweep(names))


PATH_WALKERS = ("counts,invariants", "invariants,counts", "invariants,roundtrip,counts")


class TestVerifySharedPathWalk:
    # counts and invariants share one walk over the paths on the command
    # line; every output must read as if each ran alone

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("checks", PATH_WALKERS)
    def test_json_matches_the_standalone_reports(self, capsys, n, checks):
        code, out, _ = run_cli(capsys, "verify", str(n), "--checks", checks, "--json")
        expected = standalone_reports(n, checks.split(","))
        assert code == 0
        assert timeless(json.loads(out)) == timeless(r.to_json() for r in expected)

    @pytest.mark.parametrize("mutant", ["classify-peak-read-as-case-1",
                                        "classify-long-ascent-from-3-steps",
                                        "fwd-case2-appends-a-peak"])
    @pytest.mark.parametrize("checks", PATH_WALKERS[:2])
    def test_failures_read_the_same(self, capsys, monkeypatch, mutant, checks):
        install(monkeypatch, mutant)
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, "7", "--checks", checks,
                                                "--json")
        assert shared[0] == alone[0] == 2
        assert timeless(json.loads(shared[1])) == timeless(json.loads(alone[1]))

    def test_witnesses_past_the_cap_read_the_same(self, capsys, monkeypatch):
        # family-walk and case-split witnesses together overflow the kept
        # 100: the shared walk's are appended as the check's own walk adds them
        install(monkeypatch, "classify-peak-read-as-case-1")
        argv = ("8", "--checks", "counts,invariants")
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, *argv, "--json")
        report = json.loads(shared[1])[1]
        kinds = [f["kind"] for f in report["failures"]]
        assert len(kinds) == 100
        assert kinds[0] != "case-split" and kinds[-1] == "case-split"
        assert timeless(json.loads(shared[1])) == timeless(json.loads(alone[1]))
        # the text form prints failures_total, which the JSON form leaves out
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, *argv)
        assert "(first 100 kept)" in shared[1]
        assert without_times(shared[1]) == without_times(alone[1])

    @pytest.mark.parametrize("checks", PATH_WALKERS[:2])
    def test_a_raising_path_walk_reads_the_same(self, capsys, monkeypatch, checks):
        # counts does not meet the exception alone, so it counts on its own;
        # invariants walks again and raises it
        def refused(steps):
            raise InternalInvariant("elevation refused")

        monkeypatch.setattr(verify, "_is_elevated_steps", refused)
        alone, shared = verify_alone_and_shared(capsys, monkeypatch, "5", "--checks", checks)
        assert shared[0] == alone[0] == 2
        assert without_times(shared[1]) == without_times(alone[1])
        assert shared[2] == alone[2] == "internal invariant violation: elevation refused\n"

    @pytest.mark.parametrize("checks, n, walks", [
        ("counts,invariants", 6, 1), ("invariants,counts", 6, 1), (",".join(SIX), 6, 1),
        # the case split walks no path at size 1, so counts walks its own
        ("counts,invariants", 1, 1),
        ("counts", 6, 1), ("invariants", 6, 1), ("counts,roundtrip", 6, 1),
    ])
    def test_the_paths_are_walked_once(self, capsys, monkeypatch, checks, n, walks):
        walk, calls = verify._iter_dyck_steps, []
        monkeypatch.setattr(verify, "_iter_dyck_steps",
                            lambda size: calls.append(size) or walk(size))
        assert run_cli(capsys, "verify", str(n), "--checks", checks)[0] == 0
        assert calls == [n] * walks

    def test_alone_each_check_walks_the_paths(self, monkeypatch):
        walk, calls = verify._iter_dyck_steps, []
        monkeypatch.setattr(verify, "_iter_dyck_steps",
                            lambda size: calls.append(size) or walk(size))
        verify.check_counts(6)
        verify.check_invariants(6)
        assert calls == [6, 6]

    def test_the_path_walk_starts_after_the_entry_gate(self, no_sweep):
        paths = verify._PathWalk()
        for check in (verify.check_counts, verify.check_invariants):
            with pytest.raises(InputError, match="size must be an int"):
                check(3.0, _paths=paths)
            with pytest.raises(CapExceeded):
                check(20, cap=20, _paths=paths)
        assert paths.failed is None  # the walk never ran


class TestByteIdentity:
    # SHA-256 of outputs that a refactor must leave byte for byte as they
    # are; verify's reports are hashed without their elapsed_seconds
    @pytest.mark.parametrize("argv,digest", [
        (["verify", "10", "--json"],
         "34a2e742e4efb421cd9214c5200334a006c17517cbe2758192978249dc27a32a"),
        (["enumerate", "10", "--stats", "--side", "seq"],
         "5cd79f4e4a521fafaa39b987a1e80989420f4ec7918aa1b517912f5ae73a3c7e"),
        (["enumerate", "10", "--stats", "--side", "path"],
         "6f8696f379edc05e1bef4aa56bb1bdea34d482d5c3745f66ed169f4dbbd243ea"),
        (["enumerate", "10", "--stats", "--side", "pairs"],
         "3e5e2725069d2bbcefd73d17f3b73f88baf2fe64d56c6e4975917cd341200404"),
        (["map", "0,1,0,1,2,2,0,3", "--trace", "--format", "json"],
         "64402423b0c12d4d727bedc680f273b56a5ddda29d81fbfd01271ff1f4901ff2"),
        (["map", "0,1,0,1,2,2,0,3", "--trace", "--format", "paren"],
         "f6065f95e49a1e55aed56b67d06a3490af73b38be3fea48c304e07067e4f78a9"),
        (["unmap", "UDUUUDUDUUDDUDDD", "--trace"],
         "663cbdf67c463e2f30a2a79c422ea46d0fc775d59d8ecadbfc0be4da1eccaed4"),
    ], ids=["verify", "enumerate-seq", "enumerate-path", "enumerate-pairs", "map-trace",
            "map-trace-paren", "unmap-trace"])
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if argv[0] == "verify":
            reports = json.loads(out)
            for report in reports:
                del report["elapsed_seconds"]
            out = json.dumps(reports)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRender:
    @pytest.mark.parametrize(
        "path,golden",
        [("UD", "render_ud.txt"), ("UUDD", "render_uudd.txt"),
         ("UDUUDD", "render_uduudd.txt")],
    )
    def test_golden(self, capsys, path, golden):
        code, out, _ = run_cli(capsys, "render", path)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_bad_path(self, capsys):
        code, _, err = run_cli(capsys, "render", "UDD")
        assert code == 1

    def test_past_the_limit(self, capsys):
        code, out, err = run_cli(capsys, "render", "U" * 2000 + "D" * 2000 + "UD")
        assert (code, out) == (1, "")
        assert err == ("error: a drawing of 4002 steps by 2000 rows is past the limit "
                       "of 8,000,000 cells\n")


@pytest.fixture
def fresh_parser():
    # the first main() call after this builds the parser again
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


class TestSharedParser:
    # main() builds its parser on the first call and reuses it after

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import ascentdyck.cli\n"
            "print(len(built))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_many_calls_build_one_parser(self, capsys, monkeypatch, fresh_parser):
        init, built = cli._Parser.__init__, []
        monkeypatch.setattr(cli._Parser, "__init__",
                            lambda self, *a, **k: built.append(k.get("prog")) or
                            init(self, *a, **k))
        for _ in range(50):
            assert run_cli(capsys, "map", "0,1,0") == (0, "UDUUDD\n", "")
        # the top-level parser and one per subcommand
        assert len(built) == 7 and built.count("ascentdyck") == 1
        assert cli._build_parser.cache_info().misses == 1

    def test_calls_read_as_on_a_fresh_parser(self, capsys, fresh_parser):
        argvs = [
            ("map", "0,1", "--format", "xml"),
            ("map", "0,1,0,1,2,2,0,3"),
            ("--help",),
            ("--help",),
            ("stats", "--seq", "0,1", "--path", "UD"),
            ("stats", "--path", "UUDUUDUDUUDDDD"),
        ]
        shared = [run_cli(capsys, *argv) for argv in argvs]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0, 0, 1, 0]
        assert shared[2][1].startswith("usage: ascentdyck")

    def test_a_check_patched_after_the_first_call_runs(self, capsys, monkeypatch):
        assert run_cli(capsys, "verify", "2", "--checks", "counts")[0] == 0

        def patched(n, cap):
            raise InputError(f"patched counts at {n}")

        monkeypatch.setitem(cli._CHECKS, "counts", patched)
        assert run_cli(capsys, "verify", "2", "--checks", "counts") == (
            1, "", "error: patched counts at 2\n")


class TestHarness:
    def test_no_command(self, capsys):
        code, out, err = run_cli(capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_module_entry_point(self):
        # the installed interface: python -m ascentdyck
        proc = subprocess.run(
            [sys.executable, "-m", "ascentdyck", "map", "0,1,0,1,2,2,0,3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "UDUUUDUDUUDDUDDD\n"

    @pytest.mark.parametrize("side", ["seq", "path", "pairs"])
    @pytest.mark.parametrize("n", [11, 2000])
    def test_pipe_friendly_stream(self, n, side):
        # enumerate keeps streaming well past the pipe buffer, at depths
        # beyond the recursion limit too; closing the pipe early must end
        # the process cleanly
        proc = subprocess.Popen(
            [sys.executable, "-m", "ascentdyck", "enumerate", str(n), "--side", side],
            stdout=subprocess.PIPE,
            text=True,
        )
        first = proc.stdout.readline().rstrip("\n")
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        zeros, pyramid = ",".join("0" * n), "U" * n + "D" * n
        assert first == {"seq": zeros, "path": pyramid,
                         "pairs": f"{zeros}\t{pyramid}"}[side]
