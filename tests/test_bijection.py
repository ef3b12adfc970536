import random
from itertools import islice

import pytest

from ascentdyck import (
    CapExceeded,
    DyckPath,
    EntryNotAllowed,
    InputError,
    Not021Avoiding,
    REPEAT_PREVIOUS,
    StepRef,
    TooSmall,
    classify_inverse_case,
    duu_count,
    enumerate_021_avoiding,
    enumerate_dyck_paths,
    forward,
    forward_step,
    forward_trace,
    inverse,
    inverse_step,
    inverse_trace,
    is_elevated,
    iter_pairs,
    key_downsteps,
    last_ascent_length,
    valley_count,
    validate_ascent_sequence,
)
from ascentdyck.bijection import _forward_step_core
from ascentdyck.errors import InternalInvariant
from ascentdyck.paths import DOWN, _degree_of_elevation
from ascentdyck.sequences import _prefix_state, _sequence_stats_raw, _walk_021

from conftest import catalan_binomial
from test_fuzz import draw_member

WORKED_SEQUENCE = [0, 1, 0, 1, 2, 2, 0, 3]
WORKED_PATH = "UDUUUDUDUUDDUDDD"
WORKED_INTERMEDIATES = [
    "UD",
    "UDUD",
    "UDUUDD",
    "UDUUDUDD",
    "UDUUDUDUDD",
    "UUDUUDUDUDDD",
    "UUDUUDUDUUDDDD",
    "UDUUUDUDUUDDUDDD",
]


class TestForward:
    def test_smallest(self):
        assert forward(validate_ascent_sequence([0])) == DyckPath("UD")

    def test_worked_example(self):
        assert forward(validate_ascent_sequence(WORKED_SEQUENCE)) == DyckPath(WORKED_PATH)

    def test_all_zero_builds_pyramid(self):
        assert forward(validate_ascent_sequence([0] * 5)) == DyckPath("UUUUUDDDDD")

    def test_rejects_non_avoiding(self):
        with pytest.raises(Not021Avoiding) as info:
            forward(validate_ascent_sequence([0, 1, 2, 1]))
        assert info.value.position == 4

    def test_drifted_carried_degree_raises(self, monkeypatch):
        # a core whose case 2 appends a ground peak instead of elevating:
        # the carried degree counts the repeat, the final word does not
        from ascentdyck import bijection

        def flat(path, u, state, *carried):
            stepped = _forward_step_core(path, u, state, *carried)
            return (path + "UD", 2, None) if stepped[1] == 2 else stepped

        monkeypatch.setattr(bijection, "_forward_step_core", flat)
        with pytest.raises(
            InternalInvariant,
            match="carried degree of elevation 1 != 0 measured on UDUDUD",
        ):
            forward(validate_ascent_sequence([0, 1, 1]))


class TestForwardStep:
    def test_menu_step_small(self):
        p, rec = forward_step(DyckPath("UDUUDD"), validate_ascent_sequence([0, 1, 0]), 1)
        assert p == DyckPath("UDUUDUDD")
        assert (rec.case_id, rec.allowable_index, rec.elevation_degree) == (4, 1, 0)

    def test_elevation_step(self):
        p, rec = forward_step(
            DyckPath("UDUUDUDUDD"), validate_ascent_sequence([0, 1, 0, 1, 2]), 2
        )
        assert p == DyckPath("UUDUUDUDUDDD")
        assert rec.case_id == 2

    def test_menu_step_with_transfer(self):
        p, rec = forward_step(
            DyckPath("UUDUUDUDUUDDDD"),
            validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0]),
            3,
        )
        assert p == DyckPath(WORKED_PATH)
        assert (rec.case_id, rec.allowable_index, rec.elevation_degree) == (4, 2, 1)
        assert rec.allowable.values == (2, 3)
        assert [r.index for r in rec.key_downsteps_before] == [12, 13]

    def test_prefix_outside_the_family(self):
        # no extension of 0,1,2,1 lies in the family
        with pytest.raises(Not021Avoiding) as info:
            forward_step(DyckPath("UD"), validate_ascent_sequence([0, 1, 2, 1]), 0)
        assert info.value.position == 4

    @pytest.mark.parametrize(
        "path,prefix,u", [("UDUD", [0, 1, 0], 0), ("UUDD", [0, 1], 1)]
    )
    def test_path_not_the_image_of_the_prefix(self, path, prefix, u):
        # a path one size short, and a path of the right size that is the
        # image of 0,0: the caller is at fault, not the construction
        with pytest.raises(InputError, match="is not the image"):
            forward_step(DyckPath(path), validate_ascent_sequence(prefix), u)

    def test_entry_not_allowed(self):
        with pytest.raises(EntryNotAllowed):
            forward_step(DyckPath("UD"), validate_ascent_sequence([0]), 5)
        with pytest.raises(EntryNotAllowed):
            # 1.0 == 1, but no float is an entry
            forward_step(DyckPath("UD"), validate_ascent_sequence([0]), 1.0)
        with pytest.raises(EntryNotAllowed):
            # 1 is below the menu of this prefix: nonzeros must not drop
            forward_step(
                DyckPath("UDUUDUDUDD"), validate_ascent_sequence([0, 1, 0, 1, 2]), 1
            )


class TestForwardTrace:
    def test_worked_example_full(self):
        trace = forward_trace(validate_ascent_sequence(WORKED_SEQUENCE))
        paths = [str(trace.initial)] + [str(r.path_after) for r in trace.records]
        assert paths == WORKED_INTERMEDIATES
        assert [r.case_id for r in trace.records] == [3, 1, 4, 4, 2, 1, 4]
        menus = [r.allowable.values if r.allowable else None for r in trace.records]
        assert menus == [None, None, (1,), (2,), None, None, (2, 3)]
        assert [r.allowable_index for r in trace.records] == [
            None, None, 1, 1, None, None, 2,
        ]
        assert [r.elevation_degree for r in trace.records] == [
            None, None, 0, 0, None, None, 1,
        ]
        assert trace.final_path == DyckPath(WORKED_PATH)

    def test_trivial_trace(self):
        trace = forward_trace(validate_ascent_sequence([0]))
        assert trace.initial == DyckPath("UD")
        assert trace.records == ()
        assert trace.final_path == DyckPath("UD")

    def test_single_appended_peak(self):
        trace = forward_trace(validate_ascent_sequence([0, 1]))
        assert [r.case_id for r in trace.records] == [3]
        assert trace.final_path == DyckPath("UDUD")

    def test_keys_recorded_en_route(self):
        trace = forward_trace(validate_ascent_sequence(WORKED_SEQUENCE))
        keys = [[r.index for r in rec.key_downsteps_before] for rec in trace.records]
        assert keys == [[], [], [6], [8], [10], [11], [12, 13]]


class TestClassify:
    @pytest.mark.parametrize(
        "steps,case_id",
        [
            ("UUDUUDDD", 1),
            ("UUDUDD", 2),
            ("UUDUDDUD", 3),
            ("UDUUDUUUDUDDDD", 4),
            ("UUDD", 1),  # long last ascent wins over elevation
            ("UDUD", 3),
        ],
    )
    def test_cases(self, steps, case_id):
        assert classify_inverse_case(DyckPath(steps)) == case_id

    def test_too_small(self):
        with pytest.raises(TooSmall):
            classify_inverse_case(DyckPath("UD"))


class TestInverseStep:
    def test_long_last_ascent(self):
        rec = inverse_step(DyckPath("UUDUUDDD"))
        assert (rec.case_id, rec.emitted) == (1, 0)
        assert rec.path_after == DyckPath("UUDUDD")

    def test_elevated(self):
        rec = inverse_step(DyckPath("UUDUDD"))
        assert rec.case_id == 2
        assert rec.emitted is REPEAT_PREVIOUS
        assert rec.path_after == DyckPath("UDUD")

    def test_ends_with_peak(self):
        rec = inverse_step(DyckPath("UUDUDDUD"))
        assert (rec.case_id, rec.emitted) == (3, 2)
        assert rec.path_after == DyckPath("UUDUDD")

    def test_marked_downstep(self):
        rec = inverse_step(DyckPath("UDUUDUUUDUDDDD"))
        assert (rec.case_id, rec.emitted) == (4, 1)
        assert rec.path_after == DyckPath("UUDUUDUUDDDD")
        assert rec.marked_step == StepRef(10, DOWN)
        assert rec.rank_right_to_left == 2
        # the mark really is a key downstep of the shrunken path
        assert rec.marked_step in key_downsteps(rec.path_after)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            inverse_step(DyckPath("UD"))


class TestInverse:
    def test_worked_example(self):
        assert inverse(DyckPath(WORKED_PATH)) == validate_ascent_sequence(WORKED_SEQUENCE)

    def test_smallest(self):
        assert inverse(DyckPath("UD")) == validate_ascent_sequence([0])

    def test_pyramid_unwinds_to_zeros(self):
        assert inverse(DyckPath("U" * 6 + "D" * 6)) == validate_ascent_sequence([0] * 6)


class TestInverseTrace:
    def test_long_ascent_unwinding(self):
        trace = inverse_trace(DyckPath("UUDUUDDD"))
        assert [r.case_id for r in trace.records] == [1, 2, 3]
        first = trace.records[0]
        assert (first.case_id, first.emitted) == (1, 0)
        assert first.path_after == DyckPath("UUDUDD")
        assert trace.sequence == validate_ascent_sequence([0, 1, 1, 0])

    def test_smallest_pyramid(self):
        # UU DD has a long last ascent, so its one record is the zero case
        trace = inverse_trace(DyckPath("UUDD"))
        assert [r.case_id for r in trace.records] == [1]
        assert trace.records[0].path_after == DyckPath("UD")
        assert trace.sequence == validate_ascent_sequence([0, 0])

    def test_unwinding_small_menu_path(self):
        trace = inverse_trace(DyckPath("UDUUDUDD"))
        assert [r.case_id for r in trace.records] == [4, 1, 3]
        emitted = [r.emitted for r in trace.records]
        assert emitted[0] == 1 and emitted[1] == 0 and emitted[2] == 1
        assert trace.sequence == validate_ascent_sequence([0, 1, 0, 1])

    def test_repeat_markers_resolve(self):
        # 0,1,1,1 unwinds through two elevation steps
        path = forward(validate_ascent_sequence([0, 1, 1, 1]))
        trace = inverse_trace(path)
        assert [r.case_id for r in trace.records] == [2, 2, 3]
        assert trace.sequence == validate_ascent_sequence([0, 1, 1, 1])


class TestTraceLimit:
    # every record holds its whole path, so traces stop at 2,000 entries
    LIMIT = 2000

    def test_at_the_limit(self):
        s = validate_ascent_sequence(draw_member(random.Random(7), self.LIMIT))
        trace = forward_trace(s)
        assert len(trace.records) == self.LIMIT - 1
        assert trace.final_path == forward(s)
        assert inverse_trace(trace.final_path).sequence == s

    def test_just_past_the_limit(self, monkeypatch):
        from ascentdyck import bijection

        def refused(*args):
            raise AssertionError("a trace step ran past the limit")

        monkeypatch.setattr(bijection, "_forward_record", refused)
        monkeypatch.setattr(bijection, "_inverse_record", refused)
        s = validate_ascent_sequence(draw_member(random.Random(7), self.LIMIT + 1))
        with pytest.raises(CapExceeded, match="trace of 2001 entries is past the limit of 2000"):
            forward_trace(s)
        with pytest.raises(CapExceeded, match="trace of size 2001 is past the limit of 2000"):
            inverse_trace(forward(s))


class TestRoundTrip:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_both_directions(self, n):
        seen = set()
        for seq in enumerate_021_avoiding(n):
            p = forward(seq)
            assert inverse(p) == seq
            seen.add(p.steps)
        paths = list(enumerate_dyck_paths(n))
        assert len(seen) == len(paths)
        assert seen == {p.steps for p in paths}
        for p in paths:
            assert forward(inverse(p)) == p

    @pytest.mark.parametrize(
        "stream", [enumerate_021_avoiding, enumerate_dyck_paths, iter_pairs]
    )
    def test_streams_start_past_the_recursion_limit(self, stream):
        head = list(islice(stream(2000), 3))
        assert len(head) == len(set(head)) == 3

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_iter_pairs_size_must_be_an_int(self, n):
        # raised at the call, before a stream exists
        with pytest.raises(InputError, match="size must be an int"):
            iter_pairs(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_iter_pairs_consistent(self, n):
        listed = list(iter_pairs(n))
        assert [s for s, _ in listed] == list(enumerate_021_avoiding(n))
        for seq, p in listed:
            assert forward(seq) == p


class TestStructuralInvariants:
    def test_walker_carries_the_degree_of_elevation(self):
        # on every edge the walker hands the step the parent prefix's state,
        # as the fold of _grow gives it and as the definitions give it, and
        # its e is the degree of elevation of the parent word, not only at
        # case 4
        buf = [0] * 9
        edges = 0

        def step(path, v, state):
            nonlocal edges
            edges += 1
            i = len(path) // 2
            prefix = buf[:i]
            buf[i] = v
            ascents = sum(x < y for x, y in zip(prefix, prefix[1:]))
            assert state == _prefix_state(prefix) == (
                ascents, max(prefix), prefix[-1], _sequence_stats_raw(prefix)[4]
            ), (prefix, v)
            assert state[3] == _degree_of_elevation(path), (path, v)
            return _forward_step_core(path, v, state)

        assert sum(1 for _ in _walk_021(9, step)) == 4862
        assert edges == sum(catalan_binomial(k) for k in range(2, 10))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_step_shapes(self, n):
        # only a zero entry leaves a long last ascent; the menu case also
        # leaves the path non-elevated and not ending in a peak.  Every
        # record is undone by inverse_step: same parent, case and entry,
        # and for case 4 the chosen key downstep comes back as the mark,
        # ranked from the right
        for seq in enumerate_021_avoiding(n):
            trace = forward_trace(seq)
            parent = trace.initial
            for rec in trace.records:
                long_last = last_ascent_length(rec.path_after) >= 2
                assert long_last == (rec.case_id == 1), rec
                back = inverse_step(rec.path_after)
                assert (back.path_after, back.case_id) == (parent, rec.case_id), rec
                if rec.case_id == 2:
                    assert back.emitted is REPEAT_PREVIOUS, rec
                else:
                    assert back.emitted == rec.entry, rec
                if rec.case_id == 4:
                    assert not is_elevated(rec.path_after), rec
                    assert not rec.path_after.steps.endswith("UD"), rec
                    index = rec.allowable_index
                    assert back.marked_step == rec.key_downsteps_before[index - 1], rec
                    assert back.rank_right_to_left == len(rec.allowable) - index + 1, rec
                parent = rec.path_after

    @pytest.mark.parametrize("n", range(2, 9))
    def test_menu_matches_key_downsteps(self, n):
        for seq in enumerate_021_avoiding(n):
            for rec in forward_trace(seq).records:
                if rec.case_id == 4:
                    assert len(rec.allowable) == len(rec.key_downsteps_before)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ascents_map_to_valleys(self, n):
        for seq, p in iter_pairs(n):
            a = sum(
                1
                for i in range(len(seq.entries) - 1)
                if seq.entries[i] < seq.entries[i + 1]
            )
            assert a == valley_count(p)

    def test_ascents_map_to_valleys_full_depth(self):
        # the fast sweep covers the large sizes the parametrized loop skips
        from ascentdyck.verify import _fold_family

        mismatches = 0

        def visit(buf, path):
            nonlocal mismatches
            a = sum(1 for i in range(len(buf) - 1) if buf[i] < buf[i + 1])
            mismatches += a != path.count("DU")

        total = _fold_family(12, visit)
        assert total == 208012
        assert mismatches == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_descents_map_to_duu(self, n):
        for seq, p in iter_pairs(n):
            d = sum(
                1
                for i in range(len(seq.entries) - 1)
                if seq.entries[i] > seq.entries[i + 1]
            )
            assert d == duu_count(p)


class TestTypedArguments:
    # a plain str or list passes no DyckPath or AscentSequence check
    @pytest.mark.parametrize("call", [
        lambda: inverse("UD"),
        lambda: inverse_step("UUDD"),
        lambda: inverse_trace("UD"),
        lambda: classify_inverse_case("UUDD"),
        lambda: forward([0, 1]),
        lambda: forward_trace([0, 1]),
        lambda: forward_step("UD", validate_ascent_sequence([0]), 1),
        lambda: forward_step(DyckPath("UD"), [0], 1),
    ], ids=["inverse", "inverse_step", "inverse_trace", "classify_inverse_case",
            "forward", "forward_trace", "forward_step_path", "forward_step_prefix"])
    def test_plain_values_raise_input_error(self, call):
        with pytest.raises(InputError, match=r"must be an? (DyckPath|AscentSequence)"):
            call()


class TestCarriedSpine:
    def test_drifted_spine_is_caught_at_ud(self, monkeypatch):
        # an extra pair makes UDUD read as elevated, and no step pops it
        from ascentdyck import bijection

        built = bijection._left_spine
        monkeypatch.setattr(bijection, "_left_spine",
                            lambda steps: [*built(steps), [len(steps), 1]])
        with pytest.raises(InternalInvariant,
                           match=r"carried left spine \[\[2, None\], \[4, 1\]\] at UD"):
            inverse(DyckPath("UDUD"))

    @pytest.mark.parametrize("steps, spine", [
        ("UD", [[2, None]]),
        ("UUDD", [[4, None]]),
        ("UDUUDD", [[2, None]]),
        ("UUDUDDUD", [[2, None], [6, 1]]),
        ("UUUDUDDD", [[2, None], [8, 2]]),
        ("UUUDDUDDUD", [[4, None], [8, 1]]),
        (WORKED_PATH, [[2, None]]),
    ])
    def test_built_spines(self, steps, spine):
        from ascentdyck.bijection import _left_spine

        assert _left_spine(steps) == spine

    def test_unwinding_reads_every_case_from_the_spine(self, monkeypatch):
        # classify sees the carried elevation on every step of unmap, and
        # the step cores see the spine; inverse_step still scans
        from ascentdyck import bijection

        seen = []
        classify = bijection._classify
        monkeypatch.setattr(bijection, "_classify",
                            lambda steps, elevated=None: seen.append(elevated)
                            or classify(steps, elevated))
        inverse(DyckPath(WORKED_PATH))
        assert len(seen) == 7 and None not in seen
        seen.clear()
        inverse_step(DyckPath(WORKED_PATH))
        assert seen == [None]

    def test_trace_reads_every_case_from_the_spine(self, monkeypatch):
        from ascentdyck import bijection

        seen = []
        classify = bijection._classify
        monkeypatch.setattr(bijection, "_classify",
                            lambda steps, elevated=None: seen.append(elevated)
                            or classify(steps, elevated))
        trace = inverse_trace(DyckPath(WORKED_PATH))
        assert len(seen) == len(trace.records) == 7 and None not in seen
        assert list(trace.sequence.entries) == WORKED_SEQUENCE

    def test_drifted_spine_is_caught_at_ud_in_the_trace(self, monkeypatch):
        from ascentdyck import bijection

        built = bijection._left_spine
        monkeypatch.setattr(bijection, "_left_spine",
                            lambda steps: [*built(steps), [len(steps), 1]])
        with pytest.raises(InternalInvariant,
                           match=r"carried left spine \[\[2, None\], \[4, 1\]\] at UD"):
            inverse_trace(DyckPath("UDUD"))
