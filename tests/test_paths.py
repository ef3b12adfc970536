import random
import time
from itertools import accumulate, product

import pytest

from ascentdyck import (
    BadCharacter,
    CapExceeded,
    DipsBelowGround,
    DyckPath,
    EmptyInput,
    InputError,
    InternalInvariant,
    SizeZero,
    StepRef,
    Unbalanced,
    degree_of_elevation,
    duu_count,
    enumerate_dyck_paths,
    first_descent_length,
    is_elevated,
    key_downsteps,
    last_ascent_length,
    parse_path,
    path_statistics,
    render_ascii,
    valley_count,
)
from ascentdyck import paths
from ascentdyck.paths import UP, _is_valid_steps, _match_down, _validate_steps

from conftest import all_dyck_words, catalan_binomial, raised, stack_matching
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


class Word(str):
    pass


def broken_variants(valid):
    # words of the same length: one step flipped, one swapped for x, the
    # first step moved to the end, and the word run backwards
    k = len(valid) // 3
    flipped = valid[:k] + ("D" if valid[k] == "U" else "U") + valid[k + 1:]
    return [flipped, valid[:k] + "x" + valid[k + 1:], valid[1:] + valid[0], valid[::-1]]


class TestFastVerdict:
    """``DyckPath`` takes its verdict from ``_is_valid_steps``, which deletes
    UD factors on words of up to 32 steps and scans 8-step chunks past
    that, and asks ``_validate_steps`` only to name the fault."""

    def test_short_words_over_three_letters(self):
        words = ["".join(w) for k in range(9) for w in product("UDx", repeat=k)]
        assert len(words) == 9841
        for steps in words:
            assert raised(DyckPath, steps) == raised(_validate_steps, steps), steps

    @pytest.mark.parametrize("length", [30, 31, 32, 33, 34, 62, 63, 64, 65, 66, 128])
    def test_words_either_side_of_the_deletion_bound(self, length):
        rng = random.Random(length)
        size = length // 2
        valid = ["U" * size + "D" * size, "UD" * size] + [draw_path(rng, size) for _ in range(20)]
        if length % 2:
            words = [w + c for w in valid for c in "UDx"]
        else:
            words = valid + [bad for w in valid for bad in broken_variants(w)]
        assert {len(w) for w in words} == {length}
        for steps in words:
            assert raised(DyckPath, steps) == raised(_validate_steps, steps), steps
            assert raised(DyckPath, Word(steps)) == raised(_validate_steps, steps), steps

    @pytest.mark.parametrize("steps", [None, ["U", "D"], b"UD", 12],
                             ids=["none", "list", "bytes", "int"])
    def test_non_strings(self, steps):
        assert raised(DyckPath, steps) == raised(_validate_steps, steps)
        assert raised(DyckPath, steps)[0] is InputError

    def test_a_refused_valid_word_is_an_internal_fault(self, monkeypatch):
        monkeypatch.setattr(paths, "_is_valid_steps", lambda steps: False)
        with pytest.raises(InternalInvariant, match="fast test refused 'UUDD'"):
            DyckPath("UUDD")
        with pytest.raises(Unbalanced):
            DyckPath("UUD")

    def test_a_str_subclass_is_a_step_word(self):
        p = DyckPath(Word("UUDD"))
        assert p == DyckPath("UUDD") and hash(p) == hash(DyckPath("UUDD"))

    def test_fast_test_equals_the_validator_on_every_short_word(self):
        for k in range(15):
            for w in product("UD", repeat=k):
                steps = "".join(w)
                assert _is_valid_steps(steps) is (raised(_validate_steps, steps) is None), steps

    @pytest.mark.parametrize("length, reaches", [
        (2, True), (31, True), (32, True), (33, False), (34, False), (64, False), (200_000, False),
    ])
    def test_only_words_of_up_to_32_steps_reach_the_deletion_loop(self, length, reaches):
        # the loop's first pass is the word's own replace; later passes run
        # on the plain str it returns
        class Counted(str):
            def replace(self, *args):
                calls.append(args)
                return str.replace(self, *args)

        calls = []
        steps = UP * (length // 2) + "D" * (length // 2) + UP * (length % 2)
        assert _is_valid_steps(Counted(steps)) is (length % 2 == 0)
        assert calls == ([("UD", "")] if reaches else [])

    def test_a_long_pyramid_validates(self):
        # a loose guard on top of the bound test: the deletion loop would take
        # 100,000 passes, about 40 s, on this word, against milliseconds by chunks
        t0 = time.perf_counter()
        DyckPath(UP * 100_000 + "D" * 100_000)
        assert time.perf_counter() - t0 < 10.0


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
        assert is_elevated(p) and degree_of_elevation(p) is None

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
            if p.steps == "U" * n + "D" * n:
                assert d is None
            else:
                assert d is not None and (d == 0) == (not is_elevated(p))


class TestMatching:
    @pytest.mark.parametrize(
        "steps,down,up",
        [("UDUUDD", 6, 3), ("UUDD", 3, 2), ("UDUUDUDD", 8, 3)],
    )
    def test_examples(self, steps, down, up):
        # 1-based in the table, 0-based offsets in and out
        assert _match_down(steps, down - 1) == up - 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_stack_pairing(self, n):
        # independent oracle: one-pass stack pairing of the whole word
        for p in enumerate_dyck_paths(n):
            for d, u in stack_matching(p.steps).items():
                assert _match_down(p.steps, d - 1) == u - 1

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
            # the maximal downstep run ending the path, 1-based
            rng = range(p.steps.rfind("U") + 2, len(p.steps) + 1)
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


def render_by_cells(p):
    # the drawing one (row, step) cell at a time, as the grid's definition
    # reads: an oracle for render_ascii
    s = p.steps
    heights = list(accumulate((1 if c == UP else -1 for c in s), initial=0))
    rows = []
    for h in range(max(heights), 0, -1):
        chars = []
        for i, c in enumerate(s):
            if c == UP and heights[i + 1] == h:
                chars.append("/")
            elif c != UP and heights[i] == h:
                chars.append("\\")
            else:
                chars.append(" ")
        rows.append("".join(chars).rstrip())
    return "\n".join(rows) + "\n"


class TestRender:
    def test_matches_the_cell_by_cell_drawing(self):
        for n in range(1, 9):
            for p in enumerate_dyck_paths(n):
                assert render_ascii(p) == render_by_cells(p), p.steps

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
            top = max(accumulate(1 if c == "U" else -1 for c in p.steps))
            assert len(rows) == top
            assert all(len(r) <= len(p.steps) for r in rows)
            assert sum(r.count("/") + r.count("\\") for r in rows) == len(p.steps)

    def test_at_the_limit(self):
        # the size-2,000 pyramid: 4,000 steps by 2,000 rows, 8,000,000 cells
        pyramid = DyckPath("U" * 2000 + "D" * 2000)
        art = render_ascii(pyramid)
        assert art == render_by_cells(pyramid)
        rows = art.split("\n")[:-1]
        assert len(rows) == 2000
        assert rows[0] == " " * 1999 + "/\\"
        assert rows[-1] == "/" + " " * 3998 + "\\"

    def test_just_past_the_limit(self):
        # one more peak at ground: 4,002 steps by 2,000 rows
        with pytest.raises(CapExceeded, match="4002 steps by 2000 rows is past the limit of 8,000,000 cells"):
            render_ascii(DyckPath("U" * 2000 + "D" * 2000 + "UD"))


class TestTypedArguments:
    # a plain str passes no DyckPath check
    @pytest.mark.parametrize("call", [
        lambda: key_downsteps("UUDD"),
        lambda: path_statistics("UD"),
        lambda: render_ascii("UD"),
        lambda: degree_of_elevation("UD"),
        lambda: is_elevated("UD"),
        lambda: first_descent_length("UD"),
        lambda: last_ascent_length("UD"),
        lambda: valley_count("UD"),
        lambda: duu_count("UD"),
    ], ids=["key_downsteps", "path_statistics", "render_ascii", "degree_of_elevation",
            "is_elevated", "first_descent_length", "last_ascent_length", "valley_count",
            "duu_count"])
    def test_plain_values_raise_input_error(self, call):
        with pytest.raises(InputError, match=r"must be a DyckPath, got str"):
            call()
