import random
from itertools import combinations, product

import pytest

from ascentdyck import (
    AllowableList,
    AscentSequence,
    AscentBoundViolated,
    EmptyInput,
    FirstEntryNonzero,
    InputError,
    NegativeEntry,
    NonIntegerEntry,
    Not021Avoiding,
    SizeZero,
    allowable_next_values,
    allowable_nonzero_values,
    ascent_count,
    contains_pattern_021_bruteforce,
    enumerate_021_avoiding,
    is_021_avoiding,
    parse_sequence,
    sequence_statistics,
    validate_ascent_sequence,
)

from ascentdyck.sequences import _closes_021_bruteforce

from conftest import all_ascent_sequences, catalan_binomial, nonzero_weakly_increasing, raised
from test_fuzz import draw_member


class TestValidation:
    def test_worked_example_is_valid(self):
        seq = validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0, 3])
        assert seq.entries == (0, 1, 0, 1, 2, 2, 0, 3)

    def test_minimal_sequence(self):
        assert validate_ascent_sequence([0]).entries == (0,)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            validate_ascent_sequence([])

    def test_first_entry_must_be_zero(self):
        with pytest.raises(FirstEntryNonzero):
            validate_ascent_sequence([1, 0])

    def test_ascent_bound(self):
        with pytest.raises(AscentBoundViolated) as info:
            validate_ascent_sequence([0, 2])
        assert info.value.position == 2

    def test_ascent_bound_deeper(self):
        # after 0,1 there is one ascent, so 3 > 2 is out at position 3
        with pytest.raises(AscentBoundViolated) as info:
            validate_ascent_sequence([0, 1, 3])
        assert info.value.position == 3

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry) as info:
            validate_ascent_sequence([0, -1])
        assert info.value.position == 2

    @pytest.mark.parametrize("raw, position", [
        ([0, 0.5], 2),
        ([0, "1"], 2),
        (["0"], 1),
        ([0, True], 2),
    ], ids=["float", "digit-string", "first-entry-string", "bool"])
    def test_non_integer_entry(self, raw, position):
        # only exact ints are entries, even where a float or a bool
        # compares equal to one; the error names the first offender
        with pytest.raises(NonIntegerEntry) as info:
            validate_ascent_sequence(raw)
        assert info.value.position == position

    @pytest.mark.parametrize("raw", [5, None], ids=["int", "none"])
    def test_entries_must_be_iterable(self, raw):
        with pytest.raises(InputError, match="must be iterable"):
            validate_ascent_sequence(raw)
        with pytest.raises(InputError, match="must be iterable"):
            AscentSequence(raw)

    def test_oracle_agreement(self):
        # everything the definitional generator produces must validate,
        # and nothing else of length <= 5 may
        valid = set(all_ascent_sequences(5, max_val=5))

        for xs in product(range(6), repeat=5):
            ok = True
            try:
                validate_ascent_sequence(xs)
            except InputError:
                ok = False
            assert ok == (xs in valid), xs


def parent_entry_checks(raw):
    """The entry checks as the two-test loop made them before the one-pass
    check: the oracle whose exception class and message it must repeat."""
    entries = tuple(raw)
    if not entries:
        raise EmptyInput("an ascent sequence has at least one entry")
    for i, u in enumerate(entries):
        if type(u) is not int:
            raise NonIntegerEntry(position=i + 1, entry=u)
    if entries[0] != 0:
        raise FirstEntryNonzero(f"first entry must be 0, got {entries[0]} at position 1")
    ascents = 0
    for i in range(1, len(entries)):
        u = entries[i]
        if u < 0:
            raise NegativeEntry(position=i + 1, entry=u)
        if u > ascents + 1:
            raise AscentBoundViolated(position=i + 1, entry=u, bound=ascents + 1)
        if entries[i - 1] < u:
            ascents += 1


class TestOnePassCheck:
    def test_every_short_tuple_over_minus_one_to_four(self):
        tuples = [xs for k in range(1, 7) for xs in product(range(-1, 5), repeat=k)]
        assert len(tuples) == 55_986
        faults = set()
        for xs in tuples:
            got = raised(AscentSequence, xs)
            assert got == raised(parent_entry_checks, xs), xs
            faults.add(got and got[0])
        assert {NegativeEntry, AscentBoundViolated, FirstEntryNonzero, None} <= faults

    @pytest.mark.parametrize("xs", [
        (0, True), (0, False, 1), (False,), (0, 1, 1.0), (0, 0.0), (0.0,), (0, 2.5),
        (0, -1.0), (0, 1, True, 3), (0, 5, 1.5),
    ])
    def test_bools_and_floats(self, xs):
        assert raised(AscentSequence, xs) == raised(parent_entry_checks, xs)
        assert raised(AscentSequence, xs)[0] is NonIntegerEntry


class TestText:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_the_family(self, n):
        for seq in enumerate_021_avoiding(n):
            assert str(seq) == ",".join(map(str, seq.entries))

    @pytest.mark.parametrize("entries", [
        (0,), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 0, 11),
        (0, *range(1, 300)),
    ], ids=["one", "to-11", "repeat-10", "to-299"])
    def test_single_and_multi_digit_entries(self, entries):
        assert str(AscentSequence(entries)) == ",".join(map(str, entries))

    def test_a_long_member(self):
        entries = draw_member(random.Random(3), 2048)
        assert max(entries) >= 100
        assert str(AscentSequence(entries)) == ",".join(map(str, entries))


class TestParsing:
    def test_comma_form(self):
        assert parse_sequence("0,1,0,1,2,2,0,3").entries == (0, 1, 0, 1, 2, 2, 0, 3)

    def test_compact_form(self):
        assert parse_sequence("01012203") == parse_sequence("0,1,0,1,2,2,0,3")
        # any decimal digit reads as int() reads it, as in the comma form
        assert parse_sequence("0\u0661") == parse_sequence("0,\u0661")

    def test_whitespace_tolerated(self):
        assert parse_sequence(" 0, 1 ,2 ").entries == (0, 1, 2)

    def test_str_roundtrip(self):
        seq = parse_sequence("0,1,0,1,2,2,0,3")
        assert parse_sequence(str(seq)) == seq

    # superscripts pass str.isdigit() but not int()
    @pytest.mark.parametrize("text", ["", "  ", "0,x", "abc", "0.5", "0\u00b2", "0\u00b9"])
    def test_garbage_rejected(self, text):
        with pytest.raises(InputError):
            parse_sequence(text)

    @pytest.mark.parametrize("text", [123, b"0,1", None], ids=["int", "bytes", "none"])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(InputError, match="sequence text must be a str"):
            parse_sequence(text)


class TestAvoidance:
    def test_worked_example_avoids(self):
        assert is_021_avoiding(validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0, 3]))

    def test_all_zero_avoids(self):
        assert is_021_avoiding(validate_ascent_sequence([0, 0, 0, 0]))

    def test_dropback_detected(self):
        assert not is_021_avoiding(validate_ascent_sequence([0, 1, 2, 1]))

    def test_bruteforce_pattern_itself(self):
        assert contains_pattern_021_bruteforce([0, 2, 1])

    def test_bruteforce_worked_example(self):
        assert not contains_pattern_021_bruteforce([0, 1, 0, 1, 2, 2, 0, 3])

    def test_bruteforce_too_short(self):
        assert not contains_pattern_021_bruteforce([0, 1])
        assert not contains_pattern_021_bruteforce([])

    def test_bruteforce_accepts_arbitrary_integers(self):
        assert contains_pattern_021_bruteforce([-5, 7, 1])
        assert not contains_pattern_021_bruteforce([5, 4, 3, 2])

    def test_pair_scan_closes_exactly_the_patterns_ending_last(self):
        # every integer sequence of length <= 6 over -1..2: the pair scan
        # finds a 0,2,1 ending at the last entry exactly when one of the
        # triples ending there is one, and with the parent's verdict it
        # gives the cubic scan's verdict
        for length in range(7):
            for xs in product(range(-1, 3), repeat=length):
                ending_last = any(
                    contains_pattern_021_bruteforce((x, y, xs[-1]))
                    for x, y in combinations(xs[:-1], 2)
                )
                assert _closes_021_bruteforce(xs) == ending_last, xs
                assert contains_pattern_021_bruteforce(xs) == (
                    contains_pattern_021_bruteforce(xs[:-1]) or _closes_021_bruteforce(xs)
                ), xs

    def test_pair_scan_on_lists(self):
        assert _closes_021_bruteforce([-5, 7, 1])
        assert not _closes_021_bruteforce([0, 2, 1, 3])
        assert not _closes_021_bruteforce([])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_characterization_exhaustive(self, n):
        # the two detectors must agree on every valid ascent sequence
        for xs in all_ascent_sequences(n):
            seq = validate_ascent_sequence(xs)
            assert is_021_avoiding(seq) == (not contains_pattern_021_bruteforce(xs)), xs
            assert is_021_avoiding(seq) == nonzero_weakly_increasing(xs), xs


class TestAscentCount:
    @pytest.mark.parametrize(
        "entries,count",
        [([0, 1, 0, 1, 2, 2, 0, 3], 4), ([0], 0), ([0, 1, 0, 1], 2)],
    )
    def test_examples(self, entries, count):
        assert ascent_count(validate_ascent_sequence(entries)) == count

    def test_bound_property(self):
        # the ascent count can never fall below the maximum entry
        for n in range(1, 8):
            for xs in all_ascent_sequences(n):
                assert ascent_count(validate_ascent_sequence(xs)) >= max(xs), xs


class TestAllowable:
    @pytest.mark.parametrize(
        "prefix,values",
        [
            ([0, 1, 0], (1,)),
            ([0, 1, 0, 1, 2, 2, 0], (2, 3)),
            ([0, 0], ()),
            ([0], ()),
            ([0, 1], ()),
        ],
    )
    def test_nonzero_menu(self, prefix, values):
        assert allowable_nonzero_values(validate_ascent_sequence(prefix)).values == values

    def test_menu_carries_context(self):
        menu = allowable_nonzero_values(validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0]))
        assert menu.max_entry == 2
        assert menu.ascent_count == 3
        assert menu.position_of(3) == 2
        assert len(menu) == 2

    @pytest.mark.parametrize(
        "prefix,expected",
        [
            ([0], [0, 1]),
            ([0, 1, 0, 1, 2, 2, 0], [0, 2, 3, 4]),
            ([0, 0], [0, 1]),
            ([0, 1], [0, 1, 2]),  # repeating the last nonzero entry is legal
        ],
    )
    def test_next_values(self, prefix, expected):
        assert allowable_next_values(validate_ascent_sequence(prefix)) == expected

    def test_prefix_outside_the_family_has_no_menu(self):
        # no extension of 0,1,2,1 lies in the family
        prefix = validate_ascent_sequence([0, 1, 2, 1])
        for menu in (allowable_next_values, allowable_nonzero_values):
            with pytest.raises(Not021Avoiding) as info:
                menu(prefix)
            assert info.value.position == 4

    @pytest.mark.parametrize("n", range(1, 9))
    def test_next_values_match_bruteforce(self, n):
        # the fast menu must equal the set found by trying every extension
        for seq in enumerate_021_avoiding(n):
            a = ascent_count(seq)
            truth = []
            for v in range(a + 2):
                candidate = seq.entries + (v,)
                try:
                    extended = validate_ascent_sequence(candidate)
                except InputError:
                    continue
                if is_021_avoiding(extended):
                    truth.append(v)
            assert allowable_next_values(seq) == truth, seq


class TestEnumeration:
    def test_single(self):
        assert [s.entries for s in enumerate_021_avoiding(1)] == [(0,)]

    def test_size_three_listing(self):
        got = [s.entries for s in enumerate_021_avoiding(3)]
        assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]

    def test_zero_rejected(self):
        with pytest.raises(SizeZero):
            list(enumerate_021_avoiding(0))

    @pytest.mark.parametrize("n", [3.0, True, "3"], ids=["float", "bool", "str"])
    def test_length_must_be_an_int(self, n):
        # raised at the call, before a stream exists
        with pytest.raises(InputError, match="sequence length must be an int"):
            enumerate_021_avoiding(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts(self, n):
        assert sum(1 for _ in enumerate_021_avoiding(n)) == catalan_binomial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_bruteforce_filter(self, n):
        expected = sorted(
            xs for xs in all_ascent_sequences(n) if nonzero_weakly_increasing(xs)
        )
        assert [s.entries for s in enumerate_021_avoiding(n)] == expected

    def test_lexicographic_and_valid(self):
        previous = None
        for seq in enumerate_021_avoiding(6):
            assert is_021_avoiding(seq)
            if previous is not None:
                assert previous < seq.entries
            previous = seq.entries


class TestStatistics:
    def test_worked_example(self):
        stats = sequence_statistics(validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0, 3]))
        assert (
            stats.initial_zeros,
            stats.terminal_zeros,
            stats.ascents,
            stats.descents,
            stats.eq_run_before_last_nonzero,
        ) == (1, 0, 4, 2, 0)

    def test_all_zero_reads_terminal_zeros_short(self):
        stats = sequence_statistics(validate_ascent_sequence([0, 0, 0, 0]))
        assert (
            stats.initial_zeros,
            stats.terminal_zeros,
            stats.ascents,
            stats.descents,
            stats.eq_run_before_last_nonzero,
        ) == (4, 3, 0, 0, None)

    def test_equal_run_before_last_nonzero(self):
        stats = sequence_statistics(validate_ascent_sequence([0, 1, 0, 1, 2, 2, 0]))
        assert (
            stats.initial_zeros,
            stats.terminal_zeros,
            stats.ascents,
            stats.descents,
            stats.eq_run_before_last_nonzero,
        ) == (1, 1, 3, 2, 1)

    def test_eq_run_absent_only_for_all_zero(self):
        for n in range(1, 7):
            for seq in enumerate_021_avoiding(n):
                stats = sequence_statistics(seq)
                assert (stats.eq_run_before_last_nonzero is None) == (
                    max(seq.entries) == 0
                )


def test_sequences_are_hashable_values():
    a = AscentSequence((0, 1, 1))
    b = validate_ascent_sequence([0, 1, 1])
    assert a == b and hash(a) == hash(b)
    assert len(a) == 3


class TestTypedArguments:
    # a plain list passes no AscentSequence check
    @pytest.mark.parametrize("call", [
        lambda: sequence_statistics([0, 1]),
        lambda: allowable_next_values([0, 1]),
        lambda: allowable_nonzero_values([0, 1]),
        lambda: is_021_avoiding([0, 1]),
        lambda: ascent_count([0, 1]),
    ], ids=["sequence_statistics", "allowable_next_values",
            "allowable_nonzero_values", "is_021_avoiding", "ascent_count"])
    def test_plain_lists_raise_input_error(self, call):
        with pytest.raises(InputError, match="sequence must be an AscentSequence, got list"):
            call()

    @pytest.mark.parametrize("args, what", [
        ((("1",), 1, 1), "allowable value"),
        (((1.0,), 1, 1), "allowable value"),
        (((True,), 1, 1), "allowable value"),
        (([1], 1, 1), "allowable values"),
        (((1,), "1", 1), "max entry"),
        (((1,), 1, 1.0), "ascent count"),
    ])
    def test_menu_fields_must_be_exact(self, args, what):
        with pytest.raises(InputError, match=f"{what} must be an? "):
            AllowableList(*args)
