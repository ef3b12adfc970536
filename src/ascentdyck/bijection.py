"""The size-preserving bijection between 021-avoiding ascent sequences
and Dyck paths, with full per-step traces in both directions.

The forward map starts from the one-peak path UD and grows it by one per
entry, choosing among four moves:

  case 1  entry 0: splice a peak into the last peak's vertex, leaving a
          long last ascent (only this move does);
  case 2  entry repeats the previous nonzero entry: elevate the path;
  case 3  entry is one more than the ascents so far: append a peak at
          ground level;
  case 4  any other entry: it sits in the menu of allowable nonzero
          values, whose length always equals the number of key downsteps
          of the current path.  Open a peak on top of the key downstep in
          the entry's menu position and move as many upsteps as the
          path's degree of elevation from the front of the path into the
          ascent holding that downstep's matching upstep.

The degree of elevation e (the height of the lowest valley, None for the
pyramid UD, which has none) is carried from step to step rather than
measured, so that a step costs no scan of the word:

  case 1  splices a peak into a peak, adding no valley: e stays;
  case 2  lifts every valley by one: e + 1;
  case 3  appends a peak at ground, whose valley is at 0: e becomes 0;
  case 4  e becomes 0.  Every valley right of u0, the upstep matching the
          chosen key downstep d0, is at least h0, the height of vertex
          d0, and the valley at u0 is at h0 - 1; so the lowest valley lies
          at or left of u0, and moving e upsteps from the front to u0
          lowers it to ground.

On the sequence side e is the run of entries equal to, and just left
of, the last nonzero entry, which is how ``sequences._grow`` updates it
as part of the prefix state.  ``forward`` checks the carried e against the
final word once, and ``check_invariants`` against the parent word on
every case-4 edge of its sweep.

The inverse reads the same four shapes off the end of a path.  Its case 2
only reveals that an entry repeats its left neighbour; those placeholders
are resolved once the unwinding reaches UD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import (
    EntryNotAllowed,
    InputError,
    InternalInvariant,
    SizeZero,
    TooSmall,
    _require_int,
)
from .paths import (
    DOWN,
    UP,
    DyckPath,
    StepRef,
    _degree_of_elevation,
    _is_elevated_steps,
    _key_downsteps,
    _match_down,
    key_downsteps,
)
from .sequences import (
    _ROOT,
    AllowableList,
    AscentSequence,
    _allowable,
    _grow,
    _menu_low,
    _next_values,
    _require_021,
    _walk_021,
)


class RepeatPrevious:
    """Marker emitted by inverse case 2: the entry equals its left
    neighbour, whose value becomes known only later in the unwinding.
    Compare with ``is REPEAT_PREVIOUS``."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "RepeatPrevious"


REPEAT_PREVIOUS = RepeatPrevious()


# -- step records and traces -------------------------------------------------


@dataclass(frozen=True)
class ForwardStepRecord:
    """What one forward step did: which entry, which case, and for case 4
    the menu, the 1-based menu position picked, and the degree of
    elevation consumed by the upstep transfer.  ``key_downsteps_before``
    always refers to the path the step started from."""

    position: int
    entry: int
    case_id: int
    allowable: AllowableList | None
    allowable_index: int | None
    elevation_degree: int | None
    key_downsteps_before: tuple[StepRef, ...]
    path_after: DyckPath

    def __post_init__(self):
        if self.case_id == 4:
            ok = (
                self.allowable is not None
                and len(self.allowable) > 0
                and self.allowable_index is not None
                and 1 <= self.allowable_index <= len(self.allowable)
                and self.elevation_degree is not None
                and len(self.allowable) == len(self.key_downsteps_before)
            )
        else:
            ok = (
                self.allowable is None
                and self.allowable_index is None
                and self.elevation_degree is None
            )
        if not ok:
            raise InternalInvariant(f"malformed forward step record: {self}")


@dataclass(frozen=True)
class InverseStepRecord:
    """What one inverse step did at path size ``size``.  For case 4,
    ``marked_step`` locates the carried-over marked downstep inside
    ``path_after``, where it must be a key downstep, and
    ``rank_right_to_left`` is its rank among those key downsteps counted
    from the right."""

    size: int
    case_id: int
    emitted: Union[int, RepeatPrevious]
    marked_step: StepRef | None
    rank_right_to_left: int | None
    path_after: DyckPath

    def __post_init__(self):
        if (self.case_id == 2) != isinstance(self.emitted, RepeatPrevious):
            raise InternalInvariant(f"malformed inverse step record: {self}")
        if (self.case_id == 4) != (self.marked_step is not None):
            raise InternalInvariant(f"malformed inverse step record: {self}")


@dataclass(frozen=True)
class ForwardTrace:
    initial: DyckPath
    records: tuple[ForwardStepRecord, ...]

    def __post_init__(self):
        for k, rec in enumerate(self.records):
            if rec.path_after.size != self.initial.size + k + 1:
                raise InternalInvariant("trace sizes must grow by one per step")

    @property
    def final_path(self) -> DyckPath:
        return self.records[-1].path_after if self.records else self.initial


@dataclass(frozen=True)
class InverseTrace:
    initial: DyckPath
    records: tuple[InverseStepRecord, ...]

    def __post_init__(self):
        for k, rec in enumerate(self.records):
            if rec.path_after.size != self.initial.size - k - 1:
                raise InternalInvariant("trace sizes must shrink by one per step")

    @property
    def sequence(self) -> AscentSequence:
        """The preimage, with repeat markers resolved left to right."""
        entries = [0]
        for rec in reversed(self.records):
            entries.append(entries[-1] if rec.case_id == 2 else rec.emitted)
        return AscentSequence(tuple(entries))


# -- forward map --------------------------------------------------------------


def _forward_step_core(path: str, u: int, state):
    """Apply one growth step to a raw step word.

    ``state`` is the prefix state (see ``sequences._ROOT``) of the prefix
    already folded in, whose image is ``path``; its degree of elevation
    e is carried, not measured (see the module docstring), and only case
    4 reads it, as the number of upsteps to transfer.  Returns
    (new_path, case_id, extras) with extras = (menu_position,
    elevation_degree) for case 4 and None otherwise.  The caller
    guarantees u extends the prefix legally.
    """
    a, m, last, e = state
    if u == 0:
        i = path.rfind("UD")
        return path[: i + 1] + "UD" + path[i + 1 :], 1, None
    if u == last:
        return UP + path + DOWN, 2, None
    if u == a + 1:
        return path + "UD", 3, None
    lo = _menu_low(m, last)
    keys = _key_downsteps(path)
    if len(keys) != a - lo + 1 or not keys:
        raise InternalInvariant(
            f"menu size {max(a - lo + 1, 0)} != key downstep count {len(keys)} "
            f"on {path}"
        )
    if e is None:
        raise InternalInvariant(f"menu entry {u} reached a pyramid path {path}")
    d0 = keys[u - lo]
    u0 = _match_down(path, d0)
    new = path[:d0] + "UD" + path[d0:]
    # kept as a branch: one splice for every e ran the n=11 fold 2.4 % slower
    if e:
        # the front segment is all upsteps: the first ascent always
        # rises strictly above the lowest valley
        new = new[e:u0] + UP * e + new[u0:]
    return new, 4, (u - lo + 1, e)


def _forward_entries(entries):
    # the image word of a family member and its prefix state
    _require_021(entries)
    path, state = "UD", _ROOT
    for u in entries[1:]:
        path = _forward_step_core(path, u, state)[0]
        state = _grow(state, u)
    return path, state


def _assert_classified_as(steps: str, case_id: int) -> None:
    # the inverse reads the case back off the shape a step leaves, so a
    # step that leaves another case's shape is a construction bug
    got = _classify(steps)
    if got != case_id:
        raise InternalInvariant(f"case {case_id} step left a case-{got} shape: {steps}")


def _assert_carried_degree(steps: str, e: int | None) -> None:
    # a carried degree of elevation that drifted from the word's own
    # would move the wrong number of upsteps in a later case 4
    measured = _degree_of_elevation(steps)
    if e != measured:
        raise InternalInvariant(
            f"carried degree of elevation {e} != {measured} measured on {steps}"
        )


def _forward_record(P: DyckPath, u: int, state, position: int) -> ForwardStepRecord:
    # one checked step from P, the image of a prefix in ``state``, by the
    # legal entry u at 1-based ``position``
    keys_before = tuple(key_downsteps(P))
    new_steps, case_id, extras = _forward_step_core(P.steps, u, state)
    _assert_classified_as(new_steps, case_id)
    menu_position, lift = extras or (None, None)
    return ForwardStepRecord(
        position=position,
        entry=u,
        case_id=case_id,
        allowable=_allowable(state) if case_id == 4 else None,
        allowable_index=menu_position,
        elevation_degree=lift,
        key_downsteps_before=keys_before,
        path_after=DyckPath(new_steps),
    )


def forward_step(P: DyckPath, prefix: AscentSequence, u: int) -> tuple[DyckPath, ForwardStepRecord]:
    """Grow the image path of ``prefix`` by the entry ``u``.

    Rejects a ``prefix`` outside the family, a ``P`` that is not its
    image, and a ``u`` that does not extend it inside the family, each
    with an :class:`InputError`; any shape violation afterwards raises
    :class:`InternalInvariant` rather than returning garbage.  Checking
    ``P`` maps the prefix afresh; :func:`forward_trace` avoids that cost.
    """
    image, state = _forward_entries(prefix.entries)
    if P.steps != image:
        raise InputError(f"{P} is not the image {image} of the prefix {prefix}")
    allowed = _next_values(state)
    if type(u) is not int or u not in allowed:
        raise EntryNotAllowed(entry=u, allowed=allowed)
    record = _forward_record(P, u, state, len(prefix) + 1)
    return record.path_after, record


def forward(seq: AscentSequence) -> DyckPath:
    """Map a 021-avoiding ascent sequence to its Dyck path."""
    path, state = _forward_entries(seq.entries)
    _assert_carried_degree(path, state[3])
    return DyckPath(path)


def forward_trace(seq: AscentSequence) -> ForwardTrace:
    """Like :func:`forward` but keeping every step record."""
    entries = seq.entries
    _require_021(entries)
    initial = path = DyckPath("UD")
    records = []
    state = _ROOT
    for i in range(1, len(entries)):
        u = entries[i]
        record = _forward_record(path, u, state, i + 1)
        records.append(record)
        path = record.path_after
        state = _grow(state, u)
    return ForwardTrace(initial=initial, records=tuple(records))


# -- inverse map --------------------------------------------------------------


def _classify(steps: str) -> int:
    # order of tests: the long-last-ascent and ends-with-peak probes are
    # constant time; elevation needs a scan and is mutually exclusive
    # with ending in UD once the size is at least 2
    r = steps.rfind(UP)
    if r >= 1 and steps[r - 1] == UP:
        return 1
    if steps.endswith("UD"):
        return 3
    return 2 if _is_elevated_steps(steps) else 4


def classify_inverse_case(P: DyckPath) -> int:
    """Which of the four inverse moves applies: 1 long last ascent,
    2 elevated, 3 ends with a peak at ground, 4 the rest."""
    if P.size < 2:
        raise TooSmall("inverse cases are defined for size >= 2")
    return _classify(P.steps)


def _inverse_step_core(steps: str):
    """One unwinding step on a raw step word.

    Returns (new_path, case_id, emitted, mark_offset, rank) where emitted
    is None for case 2, and mark_offset (0-based, in the new path) and
    rank are set only for case 4.
    """
    case_id = _classify(steps)
    if case_id == 1:
        i = steps.rfind("UD")
        return steps[:i] + steps[i + 2 :], 1, 0, None, None
    if case_id == 3:
        return steps[:-2], 3, steps.count("DU"), None, None
    if case_id == 2:
        return steps[1:-1], 2, None, None, None
    # case 4: mark the second downstep of the terminal descent, delete the
    # last peak (the mark slides two places left), then move every upstep
    # preceding the mark's matching upstep in its ascent to the front,
    # making the mark a key downstep of the result
    valleys = steps.count("DU")
    r = steps.rfind(UP)
    shorter = steps[:r] + steps[r + 2 :]
    mark0 = r
    u0 = _match_down(shorter, mark0)
    c0 = u0
    while c0 and shorter[c0 - 1] == UP:
        c0 -= 1
    moved = u0 - c0
    # kept as a branch: one splice for every count unwound n=11 4.7 % slower
    if moved:
        new = UP * moved + shorter[:c0] + shorter[u0:]
    else:
        new = shorter
    keys = _key_downsteps(new)
    try:
        rank = len(keys) - keys.index(mark0)
    except ValueError:
        raise InternalInvariant(
            f"marked downstep at offset {mark0} is not key in {new}"
        ) from None
    return new, 4, valleys - rank, mark0, rank


def inverse_step(P: DyckPath) -> InverseStepRecord:
    """Shrink the path by one, reporting the emitted entry (or the repeat
    marker) and, for case 4, the mark and its right-to-left rank."""
    if P.size < 2:
        raise TooSmall("cannot unwind a path of size 1")
    new_steps, case_id, emitted, mark0, rank = _inverse_step_core(P.steps)
    return InverseStepRecord(
        size=P.size,
        case_id=case_id,
        emitted=REPEAT_PREVIOUS if emitted is None else emitted,
        marked_step=None if mark0 is None else StepRef(mark0 + 1, DOWN),
        rank_right_to_left=rank,
        path_after=DyckPath(new_steps),
    )


def _inverse_entries(steps: str) -> list[int]:
    emissions: list[int | None] = []
    while len(steps) > 2:
        steps, _, emitted, _, _ = _inverse_step_core(steps)
        emissions.append(emitted)
    entries = [0]
    for e in reversed(emissions):
        entries.append(entries[-1] if e is None else e)
    return entries


def inverse(P: DyckPath) -> AscentSequence:
    """Map a Dyck path back to its 021-avoiding ascent sequence."""
    return AscentSequence(tuple(_inverse_entries(P.steps)))


def inverse_trace(P: DyckPath) -> InverseTrace:
    """Like :func:`inverse` but keeping every step record; the resolved
    sequence is available as ``trace.sequence``."""
    records = []
    current = P
    while current.size > 1:
        record = inverse_step(current)
        records.append(record)
        current = record.path_after
    return InverseTrace(initial=P, records=tuple(records))


def iter_pairs(n: int) -> Iterator[tuple[AscentSequence, DyckPath]]:
    """Stream (sequence, image path) pairs over the whole size-n family in
    lexicographic sequence order, sharing work across common prefixes."""
    _require_int(n, "size")
    if n < 1:
        raise SizeZero("size must be at least 1")
    return (
        (AscentSequence(tuple(buf)), DyckPath(path))
        for buf, path in _walk_021(n, _forward_step_core)
    )
