import random
from itertools import product

import pytest

from ascentdyck import (
    BadCharacter,
    DipsBelowGround,
    DyckPath,
    EmptyInput,
    IndexOutOfRange,
    InputError,
    NotElevated,
    NotEnoughUpsteps,
    ResultInvalid,
    SizeZero,
    StepRef,
    TooSmall,
    Unbalanced,
    WrongKind,
    degree_of_elevation,
    delete_last_peak,
    duu_count,
    elevate,
    enumerate_dyck_paths,
    first_descent_length,
    insert_ud_at_vertex,
    is_elevated,
    is_pyramid,
    key_downsteps,
    last_ascent_length,
    lower,
    match_of_downstep,
    match_of_upstep,
    parse_path,
    path_statistics,
    peak_positions,
    render_ascii,
    terminal_descent,
    transfer_upsteps_from_front,
    transfer_upsteps_to_front,
    valley_count,
    vertex_height,
)
from ascentdyck.paths import DOWN, UP, _is_valid_steps, _validate_steps

from conftest import all_dyck_words, catalan_binomial, stack_matching
from test_fuzz import draw_path


class TestParse:
    def test_ud_alphabet(self):
        assert parse_path("UDUUDD").size == 3

    def test_paren_alias(self):
        assert parse_path("(())") == DyckPath("UUDD")

    def test_dips_below_ground(self):
        with pytest.raises(DipsBelowGround) as info:
            parse_path("UUDDDU")
        assert info.value.position == 5

    def test_bad_character(self):
        with pytest.raises(BadCharacter) as info:
            parse_path("UDxD")
        assert info.value.position == 3

    def test_unbalanced(self):
        with pytest.raises(Unbalanced):
            parse_path("UUD")

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_path("")

    @pytest.mark.parametrize("text", [123, b"UD", None], ids=["int", "bytes", "none"])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(InputError, match="path text must be a str"):
            parse_path(text)

    @pytest.mark.parametrize("steps", [["U", "D"], None], ids=["list", "none"])
    def test_steps_must_be_a_string(self, steps):
        # a word that is not a str could be neither printed nor hashed,
        # and None is not the empty word
        with pytest.raises(InputError, match="step word") as info:
            DyckPath(steps)
        assert not isinstance(info.value, EmptyInput)

    @pytest.mark.parametrize(
        "steps, valid",
        [("UD", True), ("UUDUDD", True), ("", False), ("UDU", False),
         ("DU", False), ("UUDDDU", False), ("UUxx", False), ("UxUD", False)],
    )
    def test_fast_validity_test(self, steps, valid):
        # half the steps U is not enough: the other half must be D
        assert _is_valid_steps(steps) is valid

    def test_fast_validity_test_agrees_with_the_validator(self):
        def validates(steps):
            try:
                _validate_steps(steps)
            except InputError:
                return False
            return True

        words = ["".join(w) for k in range(11) for w in product("UDx", repeat=k)]
        rng = random.Random(11)
        for size in (11, 14, 4000):
            for _ in range(40):
                valid = draw_path(rng, size)
                k = rng.randrange(2 * size)
                words += [
                    valid,
                    "".join(rng.choice("UD") for _ in range(2 * size)),
                    valid[:k] + ("D" if valid[k] == "U" else "U") + valid[k + 1:],
                    valid[:k] + valid[k + 1:] + "D",
                    # characters int() would take in a step word's bits
                    valid[:k] + rng.choice("_ +-01") + valid[k + 1:],
                ]
        assert len(words) > 88_000
        for steps in words:
            assert _is_valid_steps(steps) is validates(steps), steps

    @pytest.mark.parametrize("n", range(1, 9))
    def test_text_roundtrip(self, n):
        for p in enumerate_dyck_paths(n):
            assert parse_path(str(p)) == p
            assert parse_path(p.as_parens()) == p


class TestHeights:
    def test_prefix_height(self):
        assert vertex_height(DyckPath("UDUUDD"), 4) == 2

    def test_ends_at_ground(self):
        p = DyckPath("UDUUDD")
        assert vertex_height(p, 0) == 0
        assert vertex_height(p, 6) == 0

    def test_out_of_range(self):
        p = DyckPath("UD")
        for v in (-1, 3):
            with pytest.raises(IndexOutOfRange):
                vertex_height(p, v)

    @pytest.mark.parametrize("v", [1.0, 1.5, True, "1"])
    def test_vertex_must_be_an_int(self, v):
        with pytest.raises(InputError, match="vertex must be an int"):
            vertex_height(DyckPath("UD"), v)


class TestFactorCounts:
    def test_anatomy_of_final_example_path(self):
        p = DyckPath("UDUUUDUDUUDDUDDD")
        assert valley_count(p) == 4
        assert duu_count(p) == 2
        assert first_descent_length(p) == 1
        assert last_ascent_length(p) == 1

    def test_pyramid(self):
        p = DyckPath("UUUUDDDD")
        assert valley_count(p) == 0
        assert duu_count(p) == 0
        assert first_descent_length(p) == 4
        assert last_ascent_length(p) == 4

    def test_three_valleys(self):
        assert valley_count(DyckPath("UUDUUDUDUUDDDD")) == 3

    def test_peak_positions(self):
        assert peak_positions(DyckPath("UDUD")) == [1, 3]
        assert peak_positions(DyckPath("UUDD")) == [2]
        assert peak_positions(DyckPath("UDUUDD")) == [1, 4]

    def test_valley_decomposition(self):
        # every DU factor is followed by U (making a DUU) or by D
        for n in range(1, 8):
            for p in enumerate_dyck_paths(n):
                s = p.steps
                dud = sum(
                    1
                    for i in range(len(s) - 2)
                    if s[i : i + 3] == "DUD"
                )
                trailing = 0  # a path never ends with U, so no DU at the end
                assert valley_count(p) == duu_count(p) + dud + trailing


class TestElevation:
    def test_elevated(self):
        assert is_elevated(DyckPath("UUDUDD"))

    def test_two_returns(self):
        assert not is_elevated(DyckPath("UDUD"))

    def test_pyramid_is_elevated(self):
        p = DyckPath("UUDD")
        assert is_elevated(p) and is_pyramid(p)

    @pytest.mark.parametrize(
        "steps,degree",
        [("UUDUUDUDUDDD", 1), ("UDUUDD", 0), ("UUUUUDDDDD", None)],
    )
    def test_degree(self, steps, degree):
        assert degree_of_elevation(DyckPath(steps)) == degree

    @pytest.mark.parametrize("n", range(1, 11))
    def test_degree_zero_iff_not_elevated(self, n):
        for p in enumerate_dyck_paths(n):
            d = degree_of_elevation(p)
            if is_pyramid(p):
                assert d is None
            else:
                assert (d == 0) == (not is_elevated(p))


class TestMatching:
    @pytest.mark.parametrize(
        "steps,down,up",
        [("UDUUDD", 6, 3), ("UUDD", 3, 2), ("UDUUDUDD", 8, 3)],
    )
    def test_examples(self, steps, down, up):
        p = DyckPath(steps)
        assert match_of_downstep(p, StepRef(down, DOWN)) == StepRef(up, UP)
        assert match_of_upstep(p, StepRef(up, UP)) == StepRef(down, DOWN)

    def test_wrong_kind(self):
        p = DyckPath("UDUD")
        with pytest.raises(WrongKind):
            match_of_downstep(p, StepRef(1, DOWN))  # step 1 is U
        with pytest.raises(WrongKind):
            match_of_downstep(p, StepRef(1, UP))  # right step, wrong operation
        with pytest.raises(IndexOutOfRange):
            match_of_downstep(p, StepRef(9, DOWN))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_stack_pairing(self, n):
        # independent oracle: one-pass stack pairing of the whole word
        for p in enumerate_dyck_paths(n):
            pairs = stack_matching(p.steps)
            for d, u in pairs.items():
                assert match_of_downstep(p, StepRef(d, DOWN)).index == u
                assert match_of_upstep(p, StepRef(u, UP)).index == d

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nesting(self, n):
        # no two matched intervals cross
        for p in enumerate_dyck_paths(n):
            spans = sorted(
                (u, d) for d, u in stack_matching(p.steps).items()
            )
            for i, (a1, b1) in enumerate(spans):
                for a2, b2 in spans[i + 1 :]:
                    assert a2 > b1 or b2 < b1, (p.steps, (a1, b1), (a2, b2))


class TestStepRef:
    @pytest.mark.parametrize("index", ["1", True, 1.0])
    def test_index_must_be_an_int(self, index):
        # a digit string used to fail on its comparison with 1, and a bool
        # or a whole float used to construct
        with pytest.raises(InputError, match="step index must be an int"):
            StepRef(index, UP)


class TestTerminalDescentAndKeys:
    @pytest.mark.parametrize(
        "steps,first,last",
        [("UUDUUDUDUUDDDD", 11, 14), ("UDUD", 4, 4), ("UUUDDD", 4, 6)],
    )
    def test_terminal_descent(self, steps, first, last):
        assert terminal_descent(DyckPath(steps)) == range(first, last + 1)

    @pytest.mark.parametrize(
        "steps,keys",
        [
            ("UUDUUDUDUUDDDD", [12, 13]),
            ("UDUUDD", [6]),
            ("UUUUUDDDDD", []),
            ("UDUUDUDD", [8]),
            ("UDUUDUDUDD", [10]),
            ("UUDUUDUDUDDD", [11]),
        ],
    )
    def test_key_downsteps(self, steps, keys):
        assert [r.index for r in key_downsteps(DyckPath(steps))] == keys

    @pytest.mark.parametrize("n", range(1, 9))
    def test_keys_live_on_terminal_descent(self, n):
        for p in enumerate_dyck_paths(n):
            rng = terminal_descent(p)
            pairs = stack_matching(p.steps)
            claimed = {r.index for r in key_downsteps(p)}
            for d in rng:
                u = pairs[d]
                is_key = (
                    u >= 2
                    and p.steps[u - 2] == "D"
                    and u < len(p.steps)
                    and p.steps[u] == "U"
                )
                assert (d in claimed) == is_key, (p.steps, d)
            for d in claimed:
                assert d in rng

    @pytest.mark.parametrize("n", range(1, 11))
    def test_pyramids_have_no_keys(self, n):
        assert key_downsteps(DyckPath("U" * n + "D" * n)) == []


class TestEdits:
    def test_insert_at_last_peak_vertex(self):
        assert insert_ud_at_vertex(DyckPath("UDUD"), 3) == DyckPath("UDUUDD")

    def test_insert_at_one(self):
        assert insert_ud_at_vertex(DyckPath("UD"), 1) == DyckPath("UUDD")

    def test_insert_mid_descent(self):
        assert insert_ud_at_vertex(DyckPath("UDUUDUDD"), 7) == DyckPath("UDUUDUDUDD")

    def test_insert_bad_vertex(self):
        with pytest.raises(IndexOutOfRange):
            insert_ud_at_vertex(DyckPath("UD"), 5)

    @pytest.mark.parametrize("v", [1.0, True])
    def test_insert_vertex_must_be_an_int(self, v):
        with pytest.raises(InputError, match="vertex must be an int"):
            insert_ud_at_vertex(DyckPath("UD"), v)

    def test_elevate_examples(self):
        assert elevate(DyckPath("UDUUDUDUDD")) == DyckPath("UUDUUDUDUDDD")
        assert elevate(DyckPath("UD")) == DyckPath("UUDD")

    def test_lower_example(self):
        assert lower(DyckPath("UUDUDD")) == DyckPath("UDUD")

    def test_lower_requires_elevated(self):
        with pytest.raises(NotElevated):
            lower(DyckPath("UDUD"))

    def test_lower_requires_size(self):
        with pytest.raises(TooSmall):
            lower(DyckPath("UD"))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lower_elevate_inverse(self, n):
        for p in enumerate_dyck_paths(n):
            assert lower(elevate(p)) == p
            if p.size >= 2 and is_elevated(p):
                assert elevate(lower(p)) == p

    @pytest.mark.parametrize(
        "steps,expected",
        [("UUDUUDDD", "UUDUDD"), ("UUDUDDUD", "UUDUDD"), ("UUDD", "UD")],
    )
    def test_delete_last_peak(self, steps, expected):
        assert delete_last_peak(DyckPath(steps)) == DyckPath(expected)

    def test_delete_last_peak_too_small(self):
        with pytest.raises(TooSmall):
            delete_last_peak(DyckPath("UD"))


class TestTransfers:
    def test_from_front_final_step_of_worked_example(self):
        p = DyckPath("UUDUUDUDUUDDUDDD")
        got = transfer_upsteps_from_front(p, 1, StepRef(4, UP))
        assert got == DyckPath("UDUUUDUDUUDDUDDD")

    def test_zero_count_is_identity(self):
        p = DyckPath("UUDUDD")
        assert transfer_upsteps_from_front(p, 0, StepRef(4, UP)) == p
        assert transfer_upsteps_to_front(p, 0, StepRef(4, UP)) == p

    def test_to_front_inverse_case_example(self):
        p = DyckPath("UDUUDUUUDDDD")
        got = transfer_upsteps_to_front(p, 1, StepRef(7, UP))
        assert got == DyckPath("UUDUUDUUDDDD")

    def test_not_enough_upsteps_at_front(self):
        with pytest.raises(NotEnoughUpsteps):
            transfer_upsteps_from_front(DyckPath("UDUUDD"), 2, StepRef(4, UP))

    def test_not_enough_upsteps_before_target(self):
        with pytest.raises(NotEnoughUpsteps):
            transfer_upsteps_to_front(DyckPath("UDUUDD"), 2, StepRef(4, UP))

    def test_target_inside_moved_prefix(self):
        with pytest.raises(IndexOutOfRange):
            transfer_upsteps_from_front(DyckPath("UUDD"), 2, StepRef(2, UP))

    def test_result_invalid(self):
        # moving both leading upsteps past the DD would dip below ground
        with pytest.raises(ResultInvalid):
            transfer_upsteps_from_front(DyckPath("UUDDUUDD"), 2, StepRef(5, UP))

    def test_wrong_kind(self):
        with pytest.raises(WrongKind):
            transfer_upsteps_from_front(DyckPath("UUDD"), 1, StepRef(3, DOWN))

    @pytest.mark.parametrize("count", [1.0, 0.0, True])
    def test_from_front_count_must_be_an_int(self, count):
        # a zero float used to return the path unchanged
        with pytest.raises(InputError, match="transfer count must be an int"):
            transfer_upsteps_from_front(DyckPath("UUDD"), count, StepRef(2, UP))

    @pytest.mark.parametrize("count", [1.0, 0.0, True])
    def test_to_front_count_must_be_an_int(self, count):
        with pytest.raises(InputError, match="transfer count must be an int"):
            transfer_upsteps_to_front(DyckPath("UUDD"), count, StepRef(2, UP))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_transfer_pair_is_inverse(self, n):
        # wherever from_front succeeds, to_front with the same reference
        # undoes it, and the referenced upstep keeps its index
        for p in enumerate_dyck_paths(n):
            lead = len(p.steps) - len(p.steps.lstrip("U"))
            for k in range(1, lead + 1):
                for i0, c in enumerate(p.steps):
                    if c != "U" or i0 < k:
                        continue
                    ref = StepRef(i0 + 1, UP)
                    try:
                        moved = transfer_upsteps_from_front(p, k, ref)
                    except ResultInvalid:
                        continue
                    assert moved.steps[i0] == "U"
                    assert transfer_upsteps_to_front(moved, k, ref) == p


class TestEnumeration:
    def test_size_two(self):
        assert [p.steps for p in enumerate_dyck_paths(2)] == ["UUDD", "UDUD"]

    def test_size_three_matches_bruteforce(self):
        got = [p.steps for p in enumerate_dyck_paths(3)]
        assert sorted(got) == sorted(all_dyck_words(3))
        assert len(got) == 5

    def test_zero_rejected(self):
        with pytest.raises(SizeZero):
            list(enumerate_dyck_paths(0))

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_size_must_be_an_int(self, n):
        # raised at the call, before a stream exists
        with pytest.raises(InputError, match="path size must be an int"):
            enumerate_dyck_paths(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_dyck_paths(n)) == catalan_binomial(n)

    def test_lexicographic(self):
        # lexicographic under the step alphabet order U < D
        as_bits = str.maketrans("UD", "01")
        previous = None
        for p in enumerate_dyck_paths(5):
            key = p.steps.translate(as_bits)
            if previous is not None:
                assert previous < key
            previous = key


class TestStatistics:
    def test_final_example_path(self):
        s = path_statistics(DyckPath("UDUUUDUDUUDDUDDD"))
        assert (
            s.first_descent_length,
            s.last_ascent_length,
            s.valleys,
            s.duu_count,
            s.degree_of_elevation,
        ) == (1, 1, 4, 2, 0)

    def test_pyramid(self):
        s = path_statistics(DyckPath("UUUUDDDD"))
        assert (
            s.first_descent_length,
            s.last_ascent_length,
            s.valleys,
            s.duu_count,
            s.degree_of_elevation,
        ) == (4, 4, 0, 0, None)

    def test_elevated_with_keys(self):
        s = path_statistics(DyckPath("UUDUUDUDUUDDDD"))
        assert (
            s.first_descent_length,
            s.last_ascent_length,
            s.valleys,
            s.duu_count,
            s.degree_of_elevation,
        ) == (1, 2, 3, 2, 1)


class TestRender:
    def test_single_peak(self):
        assert render_ascii(DyckPath("UD")) == "/\\\n"

    def test_two_level_pyramid(self):
        assert render_ascii(DyckPath("UUDD")) == " /\\\n/  \\\n"

    def test_peak_then_hill(self):
        assert render_ascii(DyckPath("UDUUDD")) == "   /\\\n/\\/  \\\n"

    def test_three_level_pyramid(self):
        assert render_ascii(DyckPath("UUUDDD")) == "  /\\\n /  \\\n/    \\\n"

    def test_grid_shape(self):
        # one column per step, one row per height level, trailing blanks cut
        for p in enumerate_dyck_paths(4):
            art = render_ascii(p)
            assert art.endswith("\n")
            rows = art[:-1].split("\n")
            top = max(
                vertex_height(p, v) for v in range(len(p.steps) + 1)
            )
            assert len(rows) == top
            assert all(len(r) <= len(p.steps) for r in rows)
            assert sum(r.count("/") + r.count("\\") for r in rows) == len(p.steps)


class TestTypedArguments:
    # a plain str passes no DyckPath check and an int no StepRef check
    @pytest.mark.parametrize("call", [
        lambda: key_downsteps("UUDD"),
        lambda: match_of_downstep(DyckPath("UUDD"), 3),
        lambda: match_of_upstep(DyckPath("UUDD"), 1),
        lambda: transfer_upsteps_from_front(DyckPath("UUDUDD"), 1, 4),
        lambda: transfer_upsteps_to_front(DyckPath("UDUUDD"), 1, 4),
        lambda: path_statistics("UD"),
        lambda: render_ascii("UD"),
        lambda: degree_of_elevation("UD"),
        lambda: is_elevated("UD"),
        lambda: is_pyramid("UD"),
        lambda: vertex_height("UD", 0),
        lambda: first_descent_length("UD"),
        lambda: last_ascent_length("UD"),
        lambda: valley_count("UD"),
        lambda: duu_count("UD"),
        lambda: peak_positions("UD"),
        lambda: terminal_descent("UD"),
        lambda: match_of_downstep("UUDD", StepRef(3, DOWN)),
        lambda: match_of_upstep("UUDD", StepRef(1, UP)),
        lambda: insert_ud_at_vertex("UD", 0),
        lambda: elevate("UD"),
        lambda: lower("UUDD"),
        lambda: delete_last_peak("UDUD"),
        lambda: transfer_upsteps_from_front("UUDUDD", 1, StepRef(4, UP)),
        lambda: transfer_upsteps_to_front("UDUUDD", 1, StepRef(4, UP)),
    ], ids=["key_downsteps", "match_of_downstep_ref", "match_of_upstep_ref",
            "transfer_from_front_ref", "transfer_to_front_ref", "path_statistics",
            "render_ascii", "degree_of_elevation", "is_elevated", "is_pyramid",
            "vertex_height", "first_descent_length", "last_ascent_length",
            "valley_count", "duu_count", "peak_positions", "terminal_descent",
            "match_of_downstep", "match_of_upstep", "insert_ud_at_vertex",
            "elevate", "lower", "delete_last_peak", "transfer_from_front",
            "transfer_to_front"])
    def test_plain_values_raise_input_error(self, call):
        with pytest.raises(InputError, match=r"must be a (DyckPath|StepRef), got (str|int)"):
            call()
