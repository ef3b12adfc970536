"""The package's public names, pinned: adding or removing one is an API
change and has to be made here too, on purpose.  And the private names
the source's comments and docstrings point to, which must still exist."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

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


# every module of the package but the command-line entry point, which
# runs on import
MODULES = [
    importlib.import_module(f"ascentdyck.{info.name}")
    for info in pkgutil.iter_modules(ascentdyck.__path__)
    if info.name != "__main__"
]
# a double-backticked private name, bare (``_match_down``) or behind a
# module or class (``sequences._grow``); dunders are Python's own
PRIVATE_REF = re.compile(r"``((?:\w+\.)*_(?!_)\w*)``")


def resolves(ref: str) -> bool:
    for obj in (ascentdyck, *MODULES):
        for part in ref.split("."):
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_every_private_name_the_source_points_to_exists():
    refs = {
        (path.name, ref)
        for path in Path(ascentdyck.__file__).parent.glob("*.py")
        for ref in PRIVATE_REF.findall(path.read_text())
    }
    assert ("bijection.py", "sequences._grow") in refs
    assert [ref for ref in sorted(refs) if not resolves(ref[1])] == []
