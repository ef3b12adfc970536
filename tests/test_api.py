"""The package's public names, pinned: adding or removing one is an API
change and has to be made here too, on purpose."""

import types

import ascentdyck

PUBLIC = {
    # values and records
    "AllowableList", "AscentSequence", "DyckPath", "Failure", "ForwardStepRecord",
    "ForwardTrace", "InverseStepRecord", "InverseTrace", "PathStats", "REPEAT_PREVIOUS",
    "RepeatPrevious", "SequenceStats", "StepRef", "VerifyReport",
    "DEFAULT_CAP", "DOWN", "EXTENDED_CAP", "UP",
    # errors
    "AscentBoundViolated", "BadCharacter", "CapExceeded", "DipsBelowGround", "EmptyInput",
    "EntryNotAllowed", "FirstEntryNonzero", "IndexOutOfRange", "InputError",
    "InternalInvariant", "NegativeEntry", "NonIntegerEntry", "Not021Avoiding", "SizeZero",
    "TooSmall", "Unbalanced", "WrongKind",
    # sequences
    "allowable_next_values", "allowable_nonzero_values", "ascent_count",
    "contains_pattern_021_bruteforce", "enumerate_021_avoiding", "is_021_avoiding",
    "parse_sequence", "sequence_statistics", "validate_ascent_sequence",
    # paths
    "degree_of_elevation", "duu_count", "enumerate_dyck_paths", "first_descent_length",
    "is_elevated", "key_downsteps", "last_ascent_length", "parse_path", "path_statistics",
    "render_ascii", "valley_count",
    # bijection
    "classify_inverse_case", "forward", "forward_step", "forward_trace", "inverse",
    "inverse_step", "inverse_trace", "iter_pairs",
    # verify
    "catalan", "check_bijectivity", "check_characterization", "check_counts",
    "check_invariants", "check_roundtrip", "check_statistics",
}


def test_public_names_are_exactly_the_pinned_set():
    names = {
        name for name in dir(ascentdyck)
        if not name.startswith("__")
        and not isinstance(getattr(ascentdyck, name), types.ModuleType)
    }
    assert names == PUBLIC
