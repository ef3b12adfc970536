"""The contract of the package's value types: frozen records that compare,
hash, print, pickle and match by their fields, and an import of the CLI
light enough not to pull in the standard library's code-generation and
introspection modules."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ascentdyck
from ascentdyck import (
    AllowableList,
    AscentSequence,
    DyckPath,
    ForwardStepRecord,
    ForwardTrace,
    InverseStepRecord,
    InverseTrace,
    PathStats,
    SequenceStats,
    StepRef,
    VerifyReport,
    forward_trace,
    inverse_step,
)
from ascentdyck.verify import Failure

UD, UUDD = DyckPath("UD"), DyckPath("UUDD")
ELEVATING = ForwardStepRecord(2, 0, 1, None, None, None, (), UUDD)
UNWINDING = InverseStepRecord(2, 1, 0, None, None, UD)

# class, field values, other field values, repr of the first
RECORDS = [
    (DyckPath, ("UUDD",), ("UDUD",), "DyckPath(steps='UUDD')"),
    (StepRef, (2, "U"), (2, "D"), "StepRef(index=2, kind='U')"),
    (PathStats, (1, 2, 0, 0, None), (1, 2, 0, 0, 0),
     "PathStats(first_descent_length=1, last_ascent_length=2, valleys=0, "
     "duu_count=0, degree_of_elevation=None)"),
    (AscentSequence, ((0, 1, 0),), ((0, 1, 1),), "AscentSequence(entries=(0, 1, 0))"),
    (AllowableList, ((1, 2), 2, 2), ((1, 2), 2, 3),
     "AllowableList(values=(1, 2), max_entry=2, ascent_count=2)"),
    (SequenceStats, (1, 2, 0, 0, None), (1, 2, 0, 0, 0),
     "SequenceStats(initial_zeros=1, terminal_zeros=2, ascents=0, descents=0, "
     "eq_run_before_last_nonzero=None)"),
    (ForwardStepRecord, (2, 0, 1, None, None, None, (), UUDD),
     (2, 0, 1, None, None, None, (), DyckPath("UDUD")),
     "ForwardStepRecord(position=2, entry=0, case_id=1, allowable=None, "
     "allowable_index=None, elevation_degree=None, key_downsteps_before=(), "
     "path_after=DyckPath(steps='UUDD'))"),
    (InverseStepRecord, (2, 1, 0, None, None, UD), (2, 3, 0, None, None, UD),
     "InverseStepRecord(size=2, case_id=1, emitted=0, marked_step=None, "
     "rank_right_to_left=None, path_after=DyckPath(steps='UD'))"),
    (ForwardTrace, (UD, (ELEVATING,)), (UD, ()),
     "ForwardTrace(initial=DyckPath(steps='UD'), records=(ForwardStepRecord("
     "position=2, entry=0, case_id=1, allowable=None, allowable_index=None, "
     "elevation_degree=None, key_downsteps_before=(), "
     "path_after=DyckPath(steps='UUDD')),))"),
    (InverseTrace, (UUDD, (UNWINDING,)), (UD, ()),
     "InverseTrace(initial=DyckPath(steps='UUDD'), records=(InverseStepRecord("
     "size=2, case_id=1, emitted=0, marked_step=None, rank_right_to_left=None, "
     "path_after=DyckPath(steps='UD')),))"),
    (Failure, ("coverage", "UD", "x"), ("coverage", "UD", "y"),
     "Failure(kind='coverage', witness='UD', detail='x')"),
    (VerifyReport, ("counts", 1, 1, 1, (), 0, None, 0.5),
     ("counts", 1, 1, 1, (), 0, None, 0.25),
     "VerifyReport(check='counts', n=1, sequences_checked=1, paths_checked=1, "
     "failures=(), failures_total=0, equidistribution=None, elapsed=0.5)"),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.mark.parametrize("cls, values, other, text", RECORDS, ids=IDS)
class TestValueType:
    def test_equal_and_hash_by_value(self, cls, values, other, text):
        a, b = cls(*values), cls(*values)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != cls(*other)
        assert len({a, b, cls(*other)}) == 2

    def test_exact_repr(self, cls, values, other, text):
        assert repr(cls(*values)) == text

    def test_fields_refuse_assignment_and_deletion(self, cls, values, other, text):
        record = cls(*values)
        name = cls.__match_args__[0]
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == values[0]

    def test_keyword_construction(self, cls, values, other, text):
        assert len(cls.__match_args__) == len(values)
        assert cls(**dict(zip(cls.__match_args__, values))) == cls(*values)

    def test_pickle_and_copy_round_trip(self, cls, values, other, text):
        record = cls(*values)
        for clone in (pickle.loads(pickle.dumps(record)),
                      copy.copy(record), copy.deepcopy(record)):
            assert type(clone) is cls
            assert clone == record and hash(clone) == hash(record)
            assert repr(clone) == text

    def test_positional_match(self, cls, values, other, text):
        match cls(*values):
            case cls(first):
                assert first == values[0]
            case _:
                pytest.fail(f"{cls.__name__} did not match positionally")


def test_records_of_two_classes_with_equal_fields_differ():
    values = (1, 2, 0, 0, None)
    path, seq = PathStats(*values), SequenceStats(*values)
    assert path != seq and seq != path
    assert path.__eq__(seq) is NotImplemented
    assert path != values


def test_failure_detail_defaults_to_empty():
    assert Failure("coverage", "UD").detail == ""
    assert Failure(kind="coverage", witness="UD") == Failure("coverage", "UD", "")


def test_full_positional_match():
    match Failure("coverage", "UD"):
        case Failure(kind, witness, detail):
            assert (kind, witness, detail) == ("coverage", "UD", "")


def test_built_records_match_the_hand_written_ones():
    assert forward_trace(AscentSequence((0, 0))) == ForwardTrace(UD, (ELEVATING,))
    assert inverse_step(UUDD) == UNWINDING


@pytest.mark.parametrize("build", [
    lambda: Failure("a", "b", "c", "d"),
    lambda: Failure("a", kind="b", witness="c"),
    lambda: Failure("a"),
    lambda: Failure("a", "b", extra=1),
    lambda: DyckPath(),
    lambda: DyckPath("UD", "UD"),
    lambda: DyckPath(path="UD"),
    lambda: AscentSequence((0,), entries=(0,)),
], ids=["too-many", "repeated", "missing", "unexpected", "path-missing",
        "path-too-many", "path-unexpected", "sequence-repeated"])
def test_bad_construction_arguments(build):
    with pytest.raises(TypeError):
        build()


def test_importing_the_cli_skips_the_heavy_standard_modules():
    # the value types are built without generated code or typing helpers,
    # so none of these is loaded by the package; -S keeps site hooks out
    heavy = ["dataclasses", "inspect", "typing", "ast", "dis"]
    src = Path(ascentdyck.__file__).resolve().parents[1]
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import ascentdyck.cli; "
             f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
