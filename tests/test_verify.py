import json
from itertools import pairwise

import pytest

from ascentdyck import (
    REPEAT_PREVIOUS,
    CapExceeded,
    DyckPath,
    catalan,
    check_bijectivity,
    check_characterization,
    check_counts,
    check_invariants,
    check_roundtrip,
    check_statistics,
    contains_pattern_021_bruteforce,
    enumerate_021_avoiding,
    forward,
    forward_step,
    inverse_step,
    validate_ascent_sequence,
)
from ascentdyck.cli import main
from ascentdyck.errors import InputError, InternalInvariant
from ascentdyck.verify import Failure

from conftest import all_ascent_sequences, catalan_binomial, nonzero_weakly_increasing

KNOWN_CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]


def without_elapsed(report):
    """Every field of a report except its wall-clock time."""
    return (report.check, report.n, report.sequences_checked, report.paths_checked,
            report.failures, report.failures_total, report.equidistribution)


def leaf_by_leaf_roundtrip(n):
    """Oracle for ``check_roundtrip``: the same report, proved by
    unwinding every leaf's image in full instead of one inverse step per
    forward edge."""
    from ascentdyck import bijection, verify

    verify._require_size(n, verify.DEFAULT_CAP)
    bad = verify._Witnesses()
    file, close = verify._coverage(n, bad)

    def visit(buf, path):
        back = bijection._inverse_entries(path)
        if back != buf:
            bad.add("sequence-roundtrip", ",".join(map(str, buf)),
                    f"via {path} came back as {','.join(map(str, back))}")
        file(buf, path)

    nseq = verify._fold_family(n, visit)
    return bad.report("roundtrip", n, nseq, close())


def leaf_by_leaf_characterization(max_len, max_val):
    """Oracle for ``check_characterization``: the same report, with the
    cubic triple scan rerun over the whole prefix at every node instead of
    a verdict derived from the parent's.  The membership test is read
    through ``verify``, so a patched one reaches both."""
    from ascentdyck import verify

    bad = verify._Witnesses()
    buf = [0] * max_len
    checked = 0

    def probe(i):
        nonlocal checked
        checked += 1
        entries = buf[:i]
        fast = verify._first_021_violation(entries) is None
        brute = contains_pattern_021_bruteforce(entries)
        if fast != (not brute):
            bad.add("characterization", ",".join(map(str, entries)),
                    f"membership test {fast}, brute-force pattern find {brute}")

    def rec(i, a):
        probe(i)
        if i == max_len:
            return
        top = a + 1 if max_val is None else min(a + 1, max_val)
        for v in range(top + 1):
            buf[i] = v
            rec(i + 1, a + (buf[i - 1] < v))

    rec(1, 0)
    return bad.report("characterization", max_len, checked, 0)


def ignores_the_last_entry(first_violation):
    # misses every violation made by the newest entry
    return lambda entries: first_violation(entries[:-1])


def rejects_a_repeat(first_violation):
    # reads a repeated nonzero entry as a violation
    def broken(entries):
        if any(a == b for a, b in pairwise(u for u in entries if u)):
            return len(entries)
        return first_violation(entries)

    return broken


@pytest.fixture
def no_sweep(monkeypatch):
    # every way a check walks a family or allocates its bitmap fails the
    # test, so an error raised under this fixture came from the entry gate
    from ascentdyck import verify

    def refused(*args, **kwargs):
        raise AssertionError("a sweep started before the arguments were checked")

    for name in ("_walk_021", "_coverage", "_iter_dyck_steps", "enumerate_021_avoiding"):
        monkeypatch.setattr(verify, name, refused)


def failing_edges(n):
    # every prefix of length 2..n, in walk order, whose last forward edge
    # one public inverse step does not undo
    out = []
    for s in sorted(seq.entries for k in range(2, n + 1)
                    for seq in enumerate_021_avoiding(k)):
        rec = inverse_step(forward(validate_ascent_sequence(s)))
        emitted = s[-2] if rec.emitted is REPEAT_PREVIOUS else rec.emitted
        if rec.path_after != forward(validate_ascent_sequence(s[:-1])) or emitted != s[-1]:
            out.append(",".join(map(str, s)))
    return out


def case3_emits_one_more(core):
    def broken(steps, *carried):
        stepped = core(steps, *carried)
        if stepped[1] == 3:
            return (stepped[0], 3, stepped[2] + 1, None, None)
        return stepped

    return broken


def case1_drops_the_first_peak(core):
    def broken(steps, *carried):
        stepped = core(steps, *carried)
        if stepped[1] == 1:
            i = steps.find("UD")
            return (steps[:i] + steps[i + 2 :], *stepped[1:])
        return stepped

    return broken


def case2_appends_a_peak(core):
    # a forward core that appends a peak for a repeated entry but still
    # labels the step case 2
    def mislabelled(path, v, state, *carried):
        stepped = core(path, v, state, *carried)
        return (path + "UD", 2, None) if stepped[1] == 2 else stepped

    return mislabelled


class TestCatalan:
    def test_listed_values(self):
        assert [catalan(n) for n in range(1, 13)] == KNOWN_CATALAN

    def test_base(self):
        assert catalan(0) == 1

    @pytest.mark.parametrize("n", [*range(0, 20), 400])
    def test_against_closed_form(self, n):
        assert catalan(n) == catalan_binomial(n)

    def test_negative(self):
        with pytest.raises(InputError):
            catalan(-1)

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_size_must_be_an_int(self, n):
        with pytest.raises(InputError, match="must be an int"):
            catalan(n)


class TestChecks:
    def test_counts_small(self):
        report = check_counts(3)
        assert report.passed
        assert report.sequences_checked == 5
        assert report.paths_checked == 5

    def test_roundtrip_mid(self):
        report = check_roundtrip(8)
        assert report.passed
        assert report.sequences_checked == 1430
        assert report.paths_checked == 1430

    def test_bijectivity_trivial(self):
        report = check_bijectivity(1)
        assert report.passed
        assert report.paths_checked == 1

    def test_statistics_with_hiccup_sizes(self):
        for n in (1, 4, 7):
            report = check_statistics(n)
            assert report.passed, report.failures[:3]
            assert report.equidistribution is not None
            assert all(report.equidistribution.values())

    def test_invariants(self):
        assert check_invariants(7).passed

    @pytest.mark.parametrize("idx, total, witness, detail", [
        (0, 5, "0,0,0", "initial_zeros/first_descent_length: 3 != 4 on UUUDDD"),
        (1, 5, "0,0,0", "terminal_zeros/last_ascent_length-1: 2 != 3 on UUUDDD"),
        (2, 5, "0,0,0", "ascents/valleys: 0 != 1 on UUUDDD"),
        (3, 5, "0,0,0", "descents/duu_count: 0 != 1 on UUUDDD"),
        (4, 4, "0,0,1", "eq_run/degree_of_elevation: 0 != 1 on UUDDUD"),
    ])
    def test_statistics_witness_the_mismatched_pair(self, monkeypatch, idx, total,
                                                    witness, detail):
        # one path statistic read one too high: every sequence where it is
        # defined witnesses that pair alone, and only its flag drops
        from ascentdyck import verify

        raw = verify._path_stats_raw

        def off_by_one(steps):
            stats = list(raw(steps))
            if stats[idx] is not None:
                stats[idx] += 1
            return tuple(stats)

        monkeypatch.setattr(verify, "_path_stats_raw", off_by_one)
        report = check_statistics(3)
        assert report.failures_total == total
        assert report.failures[0] == Failure("statistic", witness, detail)
        assert list(report.equidistribution.values()) == [k != idx for k in range(5)]

    def test_invariants_witness_the_failing_prefix(self, monkeypatch):
        # a core that breaks every case-3 edge: each failure names the
        # prefix ending in the offending entry and prunes its subtree
        from ascentdyck import verify

        core = verify._forward_step_core

        def broken(path, v, state):
            stepped = core(path, v, state)
            if stepped[1] == 3:
                raise InternalInvariant("case 3 refused")
            return stepped

        monkeypatch.setattr(verify, "_forward_step_core", broken)
        report = check_invariants(3)
        assert [f.witness for f in report.failures] == ["0,0,1", "0,1"]
        assert {f.detail for f in report.failures} == {"case 3 refused"}
        assert report.sequences_checked == 1

    def test_invariants_read_every_step_back_through_the_inverse(self, monkeypatch):
        # a core that appends a peak for a repeated entry but labels it
        # case 2: the result has a valid size and a short last ascent, so
        # only reading the shape back as a case catches it
        from ascentdyck import bijection, verify

        mislabelled = case2_appends_a_peak(verify._forward_step_core)
        monkeypatch.setattr(verify, "_forward_step_core", mislabelled)
        report = check_invariants(4)
        assert [f.witness for f in report.failures] == ["0,0,1,1", "0,1,1", "0,1,2,2"]
        assert [f.detail for f in report.failures] == [
            "case 2 step left a case-3 shape: UUDDUDUD",
            "case 2 step left a case-3 shape: UDUDUD",
            "case 2 step left a case-3 shape: UDUDUDUD",
        ]

        monkeypatch.setattr(bijection, "_forward_step_core", mislabelled)
        with pytest.raises(InternalInvariant, match="case 2 step left a case-3 shape"):
            forward_step(DyckPath("UDUD"), validate_ascent_sequence([0, 1]), 1)

    def test_invariants_check_the_carried_degree(self, monkeypatch):
        # a walker that hands every step one more than the carried degree
        # of elevation: only case 4 reads it, so exactly the first menu
        # entry of each branch is witnessed, and its subtree pruned
        from ascentdyck import sequences, verify

        def drifted(n, step):
            def off_by_one(path, v, state):
                *head, e = state
                return step(path, v, (*head, None if e is None else e + 1))

            return sequences._walk_021(n, off_by_one)

        def menu_positions(s):
            # 0-based positions whose entry is neither 0, a repeat, nor a
            # new maximum one above the ascents before it
            return [i for i in range(1, len(s)) if s[i] not in
                    (0, s[i - 1], 1 + sum(s[j] < s[j + 1] for j in range(i - 1)))]

        n = 6
        first_menu = sorted(
            seq.entries for k in range(2, n + 1) for seq in enumerate_021_avoiding(k)
            if menu_positions(seq.entries) == [k - 1]
        )
        monkeypatch.setattr(verify, "_walk_021", drifted)
        report = check_invariants(n)
        assert [f.witness for f in report.failures] == [
            ",".join(map(str, s)) for s in first_menu
        ]
        assert all(f.detail.startswith("carried degree of elevation ")
                   for f in report.failures)
        assert report.sequences_checked == sum(
            1 for seq in enumerate_021_avoiding(n) if not menu_positions(seq.entries)
        )

    def test_bijectivity_files_foreign_characters_as_invalid_images(self, monkeypatch):
        # a core whose last step writes x for D: the word still has n
        # upsteps in 2n steps, so only its alphabet shows it is no path
        from ascentdyck import verify

        core = verify._forward_step_core

        def foreign(path, v, state):
            stepped = core(path, v, state)
            if len(path) == 6:
                return (stepped[0].replace("D", "x"), *stepped[1:])
            return stepped

        monkeypatch.setattr(verify, "_forward_step_core", foreign)
        report = check_bijectivity(4)
        assert [f.kind for f in report.failures] == ["invalid-image"] * 14 + ["coverage"]
        assert report.failures[0] == Failure("invalid-image", "0,0,0,0", "image UUUUxxxx")
        assert report.paths_checked == 0

    def test_failures_beyond_the_witness_cap_are_counted(self, monkeypatch, capsys):
        # a core that refuses every zero after the first ascent fails far
        # more edges than the 100 witnesses a report keeps
        from ascentdyck import verify

        core = verify._forward_step_core
        raised = 0

        def broken(path, v, state):
            nonlocal raised
            if v == 0 and state[0]:
                raised += 1
                raise InternalInvariant("zero after an ascent")
            return core(path, v, state)

        monkeypatch.setattr(verify, "_forward_step_core", broken)
        report = check_invariants(9)
        assert len(report.failures) == 100
        assert report.failures_total == raised > 100
        assert f"failures={raised} (first 100 kept) " in report.summary()

        raised = 0
        assert main(["verify", "9", "--checks", "invariants"]) == 2
        out = capsys.readouterr().out
        assert f"failures={raised} (first 100 kept) " in out
        assert out.endswith(f"verify: FAIL ({raised} failures)\n")

    def test_roundtrip_catches_a_wrong_inverse(self, monkeypatch):
        # inverse case 3 emits one too many: only the sequence side sees it
        from ascentdyck import bijection

        monkeypatch.setattr(bijection, "_inverse_step_core",
                            case3_emits_one_more(bijection._inverse_step_core))
        report = check_roundtrip(5)
        assert not report.passed
        assert {f.kind for f in report.failures} == {"sequence-roundtrip"}
        assert report.failures[0].witness == "0,0,0,0,1"
        assert report.failures[0].detail == "via UUUUDDDDUD came back as 0,0,0,0,2"

    @pytest.mark.parametrize("n", range(1, 11))
    def test_roundtrip_agrees_with_the_leaf_by_leaf_oracle(self, n):
        edge_local, oracle = check_roundtrip(n), leaf_by_leaf_roundtrip(n)
        assert edge_local.passed
        assert without_elapsed(edge_local) == without_elapsed(oracle)

    @pytest.mark.parametrize("mutant, first, detail", [
        (case3_emits_one_more, "0,0,0,0,1", "via UUUUDDDDUD came back as 0,0,0,0,2"),
        (case1_drops_the_first_peak, "0,0,0,1,0",
         "via UUUDDDUUDD came back as 0,0,0,0,0"),
    ])
    def test_roundtrip_and_oracle_catch_a_broken_inverse(self, monkeypatch, mutant,
                                                         first, detail):
        # both proofs fail, and the edge-local one witnesses exactly the
        # edges that one inverse step does not undo, each by its prefix
        from ascentdyck import bijection

        monkeypatch.setattr(bijection, "_inverse_step_core",
                            mutant(bijection._inverse_step_core))
        n = 5
        report, oracle = check_roundtrip(n), leaf_by_leaf_roundtrip(n)
        assert not report.passed and not oracle.passed
        assert report.failures[0] == Failure("sequence-roundtrip", first, detail)
        failing = failing_edges(n)
        assert [f.witness for f in report.failures] == failing[:100]
        assert report.failures_total == len(failing)
        # a prefix shorter than n is named by its edge, not by a leaf
        assert any(len(f.witness.split(",")) < n for f in report.failures)
        assert report.paths_checked == oracle.paths_checked == catalan(n)

    def test_roundtrip_takes_one_inverse_step_per_edge(self, monkeypatch):
        # one step per node of size 2..n, not n - 1 per leaf
        from ascentdyck import bijection

        core = bijection._inverse_step_core
        calls = 0

        def counted(steps, *carried):
            nonlocal calls
            calls += 1
            return core(steps, *carried)

        monkeypatch.setattr(bijection, "_inverse_step_core", counted)
        assert check_roundtrip(9).passed
        assert calls == sum(catalan(k) for k in range(2, 10)) == 6916

    def test_roundtrip_and_bijectivity_catch_a_non_injective_forward(self, monkeypatch):
        # case 3 grows the case-1 word, so 0,0 and 0,1 share an image and
        # the path side loses coverage
        from ascentdyck import verify

        core = verify._forward_step_core

        def broken(path, v, state):
            stepped = core(path, v, state)
            return core(path, 0, state) if stepped[1] == 3 else stepped

        monkeypatch.setattr(verify, "_forward_step_core", broken)
        roundtrip, bijectivity = check_roundtrip(3), check_bijectivity(3)
        kinds = {f.kind for f in roundtrip.failures}
        assert {"duplicate-image", "coverage"} <= kinds
        assert {f.kind for f in bijectivity.failures} == {"duplicate-image", "coverage"}
        # the image witnesses read the same in both reports
        assert [f for f in roundtrip.failures if f.kind != "sequence-roundtrip"] == list(
            bijectivity.failures
        )
        assert roundtrip.paths_checked == bijectivity.paths_checked == 1

    def test_characterization_tiny(self):
        assert check_characterization(3, 2).passed
        # a value bound of 0 admits only the all-zero prefixes
        assert check_characterization(5, 0).sequences_checked == 5

    def test_characterization_default_bounds(self):
        report = check_characterization(6, 5)
        assert report.passed
        assert report.sequences_checked > 0

    def test_characterization_uncapped_values(self):
        assert check_characterization(7, None).passed

    @pytest.mark.parametrize("bounds", [(10, 6), (8, None), (1, 0), (2, None)])
    def test_characterization_agrees_with_the_leaf_by_leaf_oracle(self, bounds):
        inductive, oracle = check_characterization(*bounds), leaf_by_leaf_characterization(*bounds)
        assert inductive.passed
        assert without_elapsed(inductive) == without_elapsed(oracle)

    @pytest.mark.parametrize("mutant, fails, total", [
        # every sequence that the newest entry takes out of the family
        (ignores_the_last_entry,
         lambda xs: not nonzero_weakly_increasing(xs) and nonzero_weakly_increasing(xs[:-1]),
         924),
        # every member with a repeated nonzero entry
        (rejects_a_repeat,
         lambda xs: nonzero_weakly_increasing(xs)
         and any(a == b for a, b in pairwise([u for u in xs if u])),
         1800),
    ])
    def test_characterization_and_oracle_catch_a_broken_membership_test(
            self, monkeypatch, mutant, fails, total):
        from ascentdyck import verify

        monkeypatch.setattr(verify, "_first_021_violation",
                            mutant(verify._first_021_violation))
        report, oracle = check_characterization(8, None), leaf_by_leaf_characterization(8, None)
        # the witnesses come in walk order, which is tuple order here
        failing = sorted(xs for k in range(1, 9) for xs in all_ascent_sequences(k)
                         if fails(xs))
        assert report.failures_total == oracle.failures_total == len(failing) == total
        assert report.failures == oracle.failures
        assert [f.witness for f in report.failures] == [
            ",".join(map(str, xs)) for xs in failing[:100]
        ]

    def test_characterization_scans_pairs_only_under_avoiding_parents(self, monkeypatch):
        # one pair scan per node whose parent avoids 0,2,1 (the root has no
        # parent), none under a parent that contains it
        from ascentdyck import verify

        scan = verify._closes_021_bruteforce
        calls = 0

        def counted(entries):
            nonlocal calls
            calls += 1
            return scan(entries)

        monkeypatch.setattr(verify, "_closes_021_bruteforce", counted)
        assert check_characterization(10, 6).passed
        expected = sum(
            1 for k in range(1, 11) for xs in all_ascent_sequences(k, 6)
            if not contains_pattern_021_bruteforce(xs[:-1])
        )
        assert calls == expected == 39350

    @pytest.mark.parametrize("check", [check_counts, check_roundtrip, check_bijectivity,
                                       check_invariants, check_statistics])
    @pytest.mark.parametrize("size", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_sizes_must_be_ints(self, no_sweep, check, size):
        with pytest.raises(InputError, match="size must be an int"):
            check(size)
        with pytest.raises(InputError, match="cap must be an int"):
            check(3, cap=size)

    @pytest.mark.parametrize("bounds", [(10.0, 6), (True, 6), ("10", 6), (10, 6.0),
                                        (10, False), (10, "6")])
    def test_characterization_bounds_must_be_ints(self, monkeypatch, bounds):
        from ascentdyck import verify

        def refused(entries):
            raise AssertionError("probed before the bounds were checked")

        monkeypatch.setattr(verify, "_first_021_violation", refused)
        with pytest.raises(InputError, match="bound must be an int"):
            check_characterization(*bounds)

    @pytest.mark.parametrize("check", [check_roundtrip, check_bijectivity])
    @pytest.mark.parametrize("n, cap", [(20, 20), (15, 15), (1, 0), (3, -1)])
    def test_cap_bounded_by_the_extended_cap(self, no_sweep, check, n, cap):
        # a cap past 14 would size the coverage bitmap at 2^(2n-3) bytes;
        # the gate refuses it before the bitmap exists
        with pytest.raises(CapExceeded, match="cap"):
            check(n, cap=cap)

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            check_roundtrip(13)
        with pytest.raises(CapExceeded):
            check_counts(0)
        with pytest.raises(CapExceeded):
            check_characterization(13)
        with pytest.raises(CapExceeded):
            check_characterization(5, -1)

    def test_cap_can_be_raised(self):
        assert check_counts(13, cap=14).passed


class TestReports:
    def test_passed_iff_no_failures(self):
        report = check_counts(4)
        assert report.passed == (len(report.failures) == 0)

    def test_json_shape(self):
        report = check_statistics(3)
        blob = json.loads(json.dumps(report.to_json()))
        assert set(blob) == {
            "check", "n", "sequences_checked", "paths_checked", "passed",
            "failures", "equidistribution", "elapsed_seconds",
        }
        assert blob["check"] == "statistics"
        assert blob["n"] == 3
        assert blob["passed"] is True
        assert blob["failures"] == []
        assert len(blob["equidistribution"]) == 5
        assert blob["elapsed_seconds"] >= 0

    def test_summary_text(self):
        report = check_roundtrip(4)
        text = report.summary()
        assert "roundtrip" in text
        assert "PASS" in text

    def test_deterministic(self):
        a = check_bijectivity(6)
        b = check_bijectivity(6)
        assert (a.sequences_checked, a.paths_checked, a.failures) == (
            b.sequences_checked,
            b.paths_checked,
            b.failures,
        )
