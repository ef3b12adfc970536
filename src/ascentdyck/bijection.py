"""The size-preserving bijection between 021-avoiding ascent sequences
and Dyck paths, with full per-step traces in both directions.

The forward map starts from the one-peak path UD and grows it by one per
entry, choosing among four moves:

  case 1  entry 0: splice a peak into the last peak's vertex, leaving a
          long last ascent (only this move does);
  case 2  entry repeats the previous nonzero entry: raise the path by one;
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

Case 4 also needs the matches of the terminal downsteps: its key
downsteps are read off them, and the transfer ends at u0.  So ``forward``
carries the word's right spine instead of scanning for them: the offsets
of the upsteps still open at the last peak, bottom first, which are the
right spine of the path's plane tree.  Its top i is the last peak's
upstep, the offset ``rfind("UD")`` finds, and with t0 = i + 1 the
terminal downstep t0 + j matches the entry j places below the top.  Each
step keeps it exact:

  case 1  splices a peak after i: push i + 1;
  case 2  raises the word: every offset gains 1, and 0 goes in at the
          bottom.  The offsets are stored less a running shift, in a
          deque, so this costs O(1);
  case 3  appends a ground peak: the spine becomes [len(path)];
  case 4  opens a peak on the key downstep d0.  The terminal downsteps
          t0 .. d0 - 1 come before the new peak and close the d0 - t0
          entries above u0, so these are popped and u0 is the new top;
          then d0, the new peak's upstep, is pushed.  For e > 0 the
          bottom e entries are the front upsteps 0 .. e - 1, which move
          to just below u0: they are dropped, the entries between them
          and u0 fall by e, and u0 - e .. u0 - 1 go in just below u0.

Case 4 reads the spine from the top down to u0 and pops every entry it
read above u0, so it costs O(popped + e); every entry is pushed once, and
e only grows through case-2 steps, so a map costs amortized O(1) spine
work per entry.  Only the scanning cores count every key against the
menu; with a spine, case 4 checks that the chosen key exists.
``_forward_entries`` checks the carried spine against the final word's
terminal matches once per map, beside e.  A drift that a later case 3
resets would escape that check and leave a wrong word, so two cheap
probes run on the way: before case 3 resets the spine and before case 4
reads it, a step checks that the spine's top and height account for the
terminal descent (top + 1 + height = len(path)), and case 4 checks, with
one ``str.count``, that the word from u0 to d0 balances.  So a drifted spine ends ``forward`` and ``forward_step`` in
``InternalInvariant``.  The verify sweeps and the trace records pass no
spine: they scan.

The inverse reads the same four shapes off the end of a path.  Its case 2
only reveals that an entry repeats its left neighbour; those placeholders
are resolved once the unwinding reaches UD.

Only the test for elevation, which tells case 2 from case 4, needs more
than the end of the word, so ``inverse`` carries the word's left spine
instead of scanning the word at every step.  The spine is a stack of
[end, low] pairs.  The top pair holds the end offset of the word's first
ground component and the height of that component's lowest inner valley
(None for a pyramid).  Each pair below holds the same for the word inside
the component above it, lowered by that component's low, in that word's
own offsets; a component is U^low W D^low with W not elevated, since no
vertex inside it lies below its lowest valley.  The word is elevated
exactly when the top end equals its length.  One left-to-right scan
builds the spine, and each step keeps it exact in constant time:

  case 1  deletes the peak at the top of the last ascent; that ascent and
          the terminal descent both keep a step, so no valley appears or
          goes.  The peak lies in the first component only when that is
          the whole word (case 1 keeps the elevation), whose end then
          falls by 2.  The words below lose the peak from their last
          components, which are not their first, so every other pair
          stays.
  case 2  lowers the word, its only component: the end falls by 2 and the
          low by 1, unless the low was 1, when the lowered word is the one
          the pair below describes and the top pair is popped.
  case 3  deletes a ground peak UD after the first component: no change.
  case 4  returns the word P that forward case 4 grew, and the count
          ``moved`` of upsteps it moves back to the front is P's degree of
          elevation, since forward case 4 moved exactly e upsteps into an
          ascent starting at u0 (checked over all 82,498 inverse steps of
          the paths of size 2 to 11).  P lowered by e has a valley at
          ground, so it has two or more ground components, and the key
          downstep, its matching upstep u0 and the new peak all lie in its
          last one.  For moved > 0 the old word is that lowered word with
          these edits, so its stack stays below a pushed pair [len(P),
          moved]; for moved = 0 P is the old word with these edits undone,
          and nothing changes.

Inverse case 4 also needs u0, the match of the mark, and the key
downsteps of the word it leaves, which it ranks the mark among.  So the
inverse carries the word's right spine too, in the deque and shift that
``forward`` uses, and beside it one saved list per left-spine level,
bottom level first: the right spines of that level's ground components
left of its last one.  One left-to-right scan builds them all.  It conses
a cell (offset, cell below) for every upstep, so the cell of a
component's last peak heads the upsteps open there, and a saved spine is
that cell with the component's height and its level's base.  A level's
word starts at offset ``base`` of the whole word, and no step moves a
component left of a level's last within that level's word, so a saved
spine stays exact in the level word's offsets, its cells' offsets less
the base.  Each step keeps the spine and the lists exact:

  case 1  deletes the peak whose upstep i is the spine's top: pop it.  The
          last ascent was long, so the new last peak's upstep i - 1 was
          the entry below.  No ground component but the last changes.
  case 2  lowers the word: drop the bottom entry 0 and lower the rest by
          one, through the shift, in O(1).  When the left spine pops its
          top pair, the lowered word is the level below, whose saved list
          becomes the top one; the list popped was empty, since an
          elevated word is one component.
  case 3  deletes the ground peak that is the last component, so the
          spine was that peak's upstep alone; the component before it is
          now the last, and its saved spine, popped from the top list,
          becomes the spine in O(its height).
  case 4  the spine ends ..., u0, r: the deleted peak's upstep r on top,
          and below it u0, which matched the terminal downstep after the
          peak's own, the mark.  Pop r, u0 and the ``moved`` upsteps
          c0 .. u0 - 1 below u0 in its ascent.  These come back at the
          front as 0 .. moved - 1, the bottom of the new spine, and the
          entries left of c0 rise by moved, through the shift.  u0 keeps
          its offset and goes back on top, and above it the matches that
          deleting the peak exposes: those of the downsteps between the
          new last peak and the mark, which lie inside the subtree from
          u0 to the mark, so one scan of that subtree finds them.  For
          moved > 0 the left spine pushes a pair for the elevated result,
          and a new empty saved list, its frame, goes on top: the old top
          list is the lowered word's.

Case 4 reads the mark's rank off the new spine, through
``_key_downsteps``, so no step walks the word for matches beyond the
subtree under u0.  Every offset that leaves the spine is checked against
the word: the top popped by case 1 must be the deleted peak's upstep, the
bottom dropped by case 2 must be 0 and the list it pops empty, case 3
must find the spine of a ground peak, and the entries case 4 pops must be
r and the ascent c0 .. u0 that ``_match_down`` and a walk left from u0
find.

``inverse`` and ``inverse_trace`` carry the spines and check once per
unwinding that they reached UD: the left spine as [[2, None]], as
``forward`` checks its carried e, and the right spine as [0] with no saved
spine left.  A drifted left spine can lower a word that is not elevated
into one that is no Dyck path; the step cores do not validate their
words, but case 1 raises ``InternalInvariant`` on a word with no UD
factor rather than splicing it longer, and every step record raises it
for a word that is no Dyck path.  A ``TypeError``, ``IndexError`` or
``ValueError`` met while building or carrying the spines is raised again
as ``InternalInvariant``.  ``inverse_step``, ``classify_inverse_case`` and
the sweeps in ``verify`` scan instead, so they stay independent of the
carried state.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from ._record import _Record
from .errors import (
    CapExceeded,
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
    _steps_of,
    _terminal_matches,
    key_downsteps,
)
from .sequences import (
    _ROOT,
    AllowableList,
    AscentSequence,
    _allowable,
    _entries_of,
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
_TRACE_LIMIT = 2000  # a trace holds Θ(n²) characters: every record, its path


# -- step records and traces -------------------------------------------------


class ForwardStepRecord(_Record):
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


class InverseStepRecord(_Record):
    """What one inverse step did at path size ``size``.  For case 4,
    ``marked_step`` locates the carried-over marked downstep inside
    ``path_after``, where it must be a key downstep, and
    ``rank_right_to_left`` is its rank among those key downsteps counted
    from the right."""

    size: int
    case_id: int
    emitted: int | RepeatPrevious
    marked_step: StepRef | None
    rank_right_to_left: int | None
    path_after: DyckPath

    def __post_init__(self):
        if (self.case_id == 2) != isinstance(self.emitted, RepeatPrevious):
            raise InternalInvariant(f"malformed inverse step record: {self}")
        if (self.case_id == 4) != (self.marked_step is not None):
            raise InternalInvariant(f"malformed inverse step record: {self}")


class ForwardTrace(_Record):
    initial: DyckPath
    records: tuple[ForwardStepRecord, ...]

    def __post_init__(self):
        for k, rec in enumerate(self.records):
            if rec.path_after.size != self.initial.size + k + 1:
                raise InternalInvariant("trace sizes must grow by one per step")

    @property
    def final_path(self) -> DyckPath:
        return self.records[-1].path_after if self.records else self.initial


class InverseTrace(_Record):
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


class _RightSpine:
    """The right spine of a word (see the module docstring), bottom first.
    The deque ``ups`` holds each offset less ``shift``.  The inverse also
    keeps in ``saved`` one list per left-spine level, bottom level first,
    of the spines of that level's ground components left of its last one,
    each as (cell of its last peak, height, base) until case 3 exposes it."""

    __slots__ = ("ups", "shift", "saved")

    def __init__(self, offsets):
        self.ups = deque(offsets)
        self.shift = 0
        self.saved = None

    def expose(self, kept) -> None:
        # become a kept component's spine: its top ``height`` cells, each
        # an (offset, cell below) pair, in the offsets of a word starting
        # at ``base``
        cell, height, base = kept
        ups = self.ups
        ups.clear()
        for _ in range(height):
            offset, cell = cell
            ups.appendleft(offset)
        self.shift = -base

    @property
    def top(self) -> int:
        return self.ups[-1] + self.shift

    def __iter__(self):
        return map(self.shift.__add__, self.ups)

    def __reversed__(self):
        return map(self.shift.__add__, reversed(self.ups))


_CARRIED_FAULTS = (IndexError, TypeError, ValueError)


def _forward_step_core(path: str, u: int, state, spine=None):
    """Apply one growth step to a raw step word.

    ``state`` is the prefix state (see ``sequences._ROOT``) of the prefix
    already folded in, whose image is ``path``; its degree of elevation
    e is carried, not measured (see the module docstring), and only case
    4 reads it, as the number of upsteps to transfer.  A ``spine``, the
    right spine of ``path``, gives case 4 its key downsteps and u0
    without a scan and is updated in place to the spine of new_path.
    Returns (new_path, case_id, extras) with extras = (menu_position,
    elevation_degree) for case 4 and None otherwise.  The caller
    guarantees u extends the prefix legally.
    """
    a, m, last, e = state
    if u == 0:
        i = path.rfind("UD")
        if spine is not None:
            spine.ups.append(i + 1 - spine.shift)
        return path[: i + 1] + "UD" + path[i + 1 :], 1, None
    if u == last:
        if spine is not None:
            spine.shift += 1
            spine.ups.appendleft(-spine.shift)
        return UP + path + DOWN, 2, None
    if spine is not None and spine.top + 1 + len(spine.ups) != len(path):
        # probed before case 3 resets the spine and case 4 reads it
        raise InternalInvariant(
            f"carried right spine of height {len(spine.ups)} and top {spine.top} "
            f"does not fit the terminal descent of {path}"
        )
    if u == a + 1:
        if spine is not None:
            spine.ups.clear()
            spine.shift = 0
            spine.ups.append(len(path))
        return path + "UD", 3, None
    lo = _menu_low(m, last)
    if spine is None:
        keys = _key_downsteps(path)
        if len(keys) != a - lo + 1 or not keys:
            raise InternalInvariant(
                f"menu size {max(a - lo + 1, 0)} != key downstep count {len(keys)} "
                f"on {path}"
            )
    else:
        keys = _key_downsteps(path, spine, u - lo + 1)
        if len(keys) != u - lo + 1:
            raise InternalInvariant(
                f"menu position {u - lo + 1} past the {len(keys)} key downsteps "
                f"of the carried spine on {path}"
            )
    if e is None:
        raise InternalInvariant(f"menu entry {u} reached a pyramid path {path}")
    d0 = keys[u - lo]
    if spine is None:
        u0 = _match_down(path, d0)
    else:
        ups = spine.ups
        for _ in range(d0 - spine.top - 1):
            ups.pop()
        u0 = spine.top
        if 2 * path.count(UP, u0, d0) != d0 - u0 + 1:
            raise InternalInvariant(
                f"carried right spine matched {u0} to {d0}, which do not balance, "
                f"on {path}"
            )
        if e:
            ups.pop()
            for _ in range(e):
                ups.popleft()
            spine.shift -= e
            ups.extend(range(u0 - e - spine.shift, u0 + 1 - spine.shift))
        ups.append(d0 - spine.shift)
    new = path[:d0] + "UD" + path[d0:]
    # kept as a branch: one splice for every e ran the n=11 fold 2.4 % slower
    if e:
        # the front segment is all upsteps: the first ascent always
        # rises strictly above the lowest valley
        new = new[e:u0] + UP * e + new[u0:]
    return new, 4, (u - lo + 1, e)


def _forward_entries(entries):
    # the image word of a family member and its prefix state, with the
    # word's right spine carried and checked once, beside the degree of
    # elevation, against the final word
    _require_021(entries)
    path, state, spine = "UD", _ROOT, _RightSpine([0])
    try:
        for u in entries[1:]:
            path = _forward_step_core(path, u, state, spine)[0]
            state = _grow(state, u)
    except _CARRIED_FAULTS as exc:
        raise InternalInvariant(
            f"growing {path} on its carried right spine raised {exc!r}"
        ) from exc
    _assert_carried_degree(path, state[3])
    measured = _terminal_matches(path)[1][::-1]
    if list(spine) != measured:
        raise InternalInvariant(
            f"carried right spine {list(spine)} != {measured} measured on {path}"
        )
    return path, state


def _assert_classified_as(steps: str, case_id: int, got: int | None = None) -> None:
    # the inverse reads the case back off the shape a step leaves, so a
    # step that leaves another case's shape is a construction bug; ``got``
    # is the inverse's case when the caller has classified the word already
    if got is None:
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
    steps = _steps_of(P)
    image, state = _forward_entries(_entries_of(prefix))
    if steps != image:
        raise InputError(f"{P} is not the image {image} of the prefix {prefix}")
    allowed = _next_values(state)
    if type(u) is not int or u not in allowed:
        raise EntryNotAllowed(entry=u, allowed=allowed)
    record = _forward_record(P, u, state, len(prefix) + 1)
    return record.path_after, record


def forward(seq: AscentSequence) -> DyckPath:
    """Map a 021-avoiding ascent sequence to its Dyck path."""
    return DyckPath(_forward_entries(_entries_of(seq))[0])


def forward_trace(seq: AscentSequence) -> ForwardTrace:
    """Like :func:`forward` but keeping every step record, for at most 2,000 entries."""
    entries = _entries_of(seq)
    if len(entries) > _TRACE_LIMIT:
        raise CapExceeded(f"a trace of {len(entries)} entries is past the limit of {_TRACE_LIMIT}")
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


def _classify(steps: str, elevated: bool | None = None) -> int:
    # order of tests: the long-last-ascent and ends-with-peak probes are
    # constant time; elevation, mutually exclusive with ending in UD once
    # the size is at least 2, is read off a carried spine when the caller
    # has one and scanned otherwise
    r = steps.rfind(UP)
    if r >= 1 and steps[r - 1] == UP:
        return 1
    if steps.endswith("UD"):
        return 3
    if elevated is None:
        elevated = _is_elevated_steps(steps)
    return 2 if elevated else 4


def classify_inverse_case(P: DyckPath) -> int:
    """Which of the four inverse moves applies: 1 long last ascent,
    2 elevated, 3 ends with a peak at ground, 4 the rest."""
    steps = _steps_of(P)
    if len(steps) < 4:
        raise TooSmall("inverse cases are defined for size >= 2")
    return _classify(steps)


def _left_spine(steps: str) -> list[list]:
    # the left spine of a word (see the module docstring) in one scan.
    # Past the first peak, at height h, the path first comes back down to
    # each height b < h where the first ground component of the word
    # lowered by b ends, and the lowest valley seen by then is that
    # component's lowest inner valley; all of them are seen by the first
    # return to ground.
    h = steps.find(DOWN)
    returns: list = [None] * h
    bal = floor = h
    lowest = None
    for k in range(h, len(steps)):
        if steps[k] == UP:
            if steps[k - 1] == DOWN and (lowest is None or bal < lowest):
                lowest = bal
            bal += 1
        else:
            bal -= 1
            if bal < floor:
                floor = bal
                returns[bal] = (k + 1, lowest)
                if not bal:
                    break
    spine = []
    b = 0
    while b is not None:
        end, low = returns[b]
        spine.append([end - b, None if low is None else low - b])
        b = low
    spine.reverse()
    return spine


def _right_spines(steps: str, left: list[list]) -> _RightSpine:
    # the right spine of a word and its saved spines (see the module
    # docstring) in one left-to-right scan.  Level j of the left spine is
    # the word starting at height ``bases[j]``; the scan leaves it when it
    # first goes below that height, and each return to it closes one of
    # its ground components, whose spine is kept as its last peak's cell
    bases = []
    b = 0
    for _, low in reversed(left):
        bases.append(b)
        b += low or 0
    closed: list[list] = [[] for _ in bases]
    level = len(bases) - 1
    base = bases[level]
    cell = peak = None
    h = top = 0
    prev = DOWN
    for k, c in enumerate(steps):
        if c == UP:
            cell = (k, cell)
            h += 1
        else:
            if prev == UP:
                peak, top = cell, h
            cell = cell[1]
            h -= 1
            if h < base:
                level -= 1
                base = bases[level]
            if h == base:
                closed[level].append((peak, top - h, h))
        prev = c
    # each level's last component is carried, not saved: the whole word's
    # in the spine itself, a lower level's inside the level above it
    right = _RightSpine(())
    right.expose(closed[0].pop())
    for components in closed[1:]:
        del components[-1:]
    closed.reverse()
    right.saved = closed
    return right


def _inverse_step_core(steps: str, spine=None, right=None):
    """One unwinding step on a raw step word.

    Returns (new_path, case_id, emitted, mark_offset, rank) where emitted
    is None for case 2, and mark_offset (0-based, in the new path) and
    rank are set only for case 4.  A ``spine``, the left spine of
    ``steps`` (see the module docstring), gives the elevation without a
    scan and is updated in place to the spine of new_path.  Beside it, a
    ``right`` spine with its saved spines gives case 4 u0 and its key
    downsteps without a scan of the word, and is updated in place too;
    every offset leaving it is checked against the word.
    """
    elevated = None if spine is None else spine[-1][0] == len(steps)
    case_id = _classify(steps, elevated)
    if case_id == 1:
        i = steps.rfind("UD")
        if i < 0:
            raise InternalInvariant(f"case 1 on {steps}, which has no UD factor")
        if elevated is not None:
            if elevated:
                spine[-1][0] -= 2
            if right is not None and right.ups.pop() + right.shift != i:
                raise InternalInvariant(f"carried right spine did not end at {i} on {steps}")
        return steps[:i] + steps[i + 2 :], 1, 0, None, None
    if case_id == 3:
        if right is not None:
            if len(right.ups) != 1 or right.top != len(steps) - 2:
                raise InternalInvariant(
                    f"carried right spine {list(right)} is not a ground peak's on {steps}"
                )
            right.expose(right.saved[-1].pop())
        return steps[:-2], 3, steps.count("DU"), None, None
    if case_id == 2:
        if spine is not None:
            top = spine[-1]
            if top[1] == 1:
                spine.pop()
                if right is not None and right.saved.pop():
                    raise InternalInvariant(f"saved spines left in the elevated word {steps}")
            else:
                top[0] -= 2
                top[1] -= 1
            if right is not None:
                if right.ups.popleft() + right.shift:
                    raise InternalInvariant(f"carried right spine did not start at 0 on {steps}")
                right.shift -= 1
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
    if right is not None:
        # pop the deleted peak's upstep, u0 and the moved upsteps under
        # it; the moved ones come back as the front, and the matches that
        # deleting the peak exposes go on top of u0
        ups = right.ups
        shift = right.shift
        popped = [ups.pop() + shift for _ in range(moved + 2)]
        if popped != [r, *range(u0, c0 - 1, -1)]:
            raise InternalInvariant(
                f"carried right spine ended {popped[::-1]}, not at {c0}..{u0}, {r}, on {steps}"
            )
        if moved:
            right.shift = shift = shift + moved
            ups.extendleft(range(moved - 1 - shift, -1 - shift, -1))
            right.saved.append([])
        ups.append(u0 - shift)
        exposed = _terminal_matches(shorter[u0 + 1 : mark0])[1]
        ups.extend([x + u0 + 1 - shift for x in reversed(exposed)])
    # kept as a branch: one splice for every count unwound n=11 4.7 % slower
    if moved:
        new = UP * moved + shorter[:c0] + shorter[u0:]
        if spine is not None:
            spine.append([len(new), moved])
    else:
        new = shorter
    keys = _key_downsteps(new, right)
    try:
        rank = len(keys) - keys.index(mark0)
    except ValueError:
        raise InternalInvariant(
            f"marked downstep at offset {mark0} is not key in {new}"
        ) from None
    return new, 4, valleys - rank, mark0, rank


def _inverse_record(steps: str, *carried) -> InverseStepRecord:
    # one unwinding step from the word ``steps`` of size >= 2, on the
    # spines the caller carries, if any
    new_steps, case_id, emitted, mark0, rank = _inverse_step_core(steps, *carried)
    try:
        after = DyckPath(new_steps)
    except InputError as exc:
        raise InternalInvariant(f"case {case_id} on {steps} left no Dyck path: {exc}") from None
    return InverseStepRecord(
        size=len(steps) // 2,
        case_id=case_id,
        emitted=REPEAT_PREVIOUS if emitted is None else emitted,
        marked_step=None if mark0 is None else StepRef(mark0 + 1, DOWN),
        rank_right_to_left=rank,
        path_after=after,
    )


def inverse_step(P: DyckPath) -> InverseStepRecord:
    """Shrink the path by one, reporting the emitted entry (or the repeat
    marker) and, for case 4, the mark and its right-to-left rank."""
    steps = _steps_of(P)
    if len(steps) < 4:
        raise TooSmall("cannot unwind a path of size 1")
    return _inverse_record(steps)


def _carried_spines(steps: str) -> tuple[list[list], _RightSpine]:
    # the left spine and the right spine with its saved spines, which
    # ``inverse`` and ``inverse_trace`` carry
    left = _left_spine(steps)
    return left, _right_spines(steps, left)


def _assert_carried_spines(left, right) -> None:
    # a left spine that drifted from the word's own would read a later
    # case 2 as case 4 or the other way round; a right spine or a saved
    # one, a later key downstep's rank
    if left != [[2, None]]:
        raise InternalInvariant(f"carried left spine {left} at UD, not [[2, None]]")
    if list(right) != [0] or right.saved != [[]]:
        raise InternalInvariant(
            f"carried right spine {list(right)} with {sum(map(len, right.saved))} saved "
            f"spines on {len(right.saved)} levels at UD, not [0] with none on 1"
        )


def _carried_fault(steps: str, exc: Exception) -> InternalInvariant:
    # a drifted spine can index past a word, meet a None low or pop an
    # empty deque
    return InternalInvariant(f"unwinding {steps} on its carried spines raised {exc!r}")


def _inverse_entries(steps: str, carried: bool = True) -> list[int]:
    # the preimage's entries, unwound on both spines, which are checked at
    # UD; without ``carried`` every step scans, as the verify sweeps do
    word = steps
    emissions: list[int | None] = []
    try:
        spines = _carried_spines(steps) if carried else ()
        while len(steps) > 2:
            steps, _, emitted, _, _ = _inverse_step_core(steps, *spines)
            emissions.append(emitted)
    except _CARRIED_FAULTS as exc:
        raise _carried_fault(word, exc) from exc
    if carried:
        _assert_carried_spines(*spines)
    entries = [0]
    for e in reversed(emissions):
        entries.append(entries[-1] if e is None else e)
    return entries


def inverse(P: DyckPath) -> AscentSequence:
    """Map a Dyck path back to its 021-avoiding ascent sequence."""
    steps = _steps_of(P)
    entries = _inverse_entries(steps)
    try:
        return AscentSequence(tuple(entries))
    except InputError as exc:
        raise InternalInvariant(f"unwinding {steps} left no ascent sequence: {exc}") from None


def inverse_trace(P: DyckPath) -> InverseTrace:
    """Like :func:`inverse` but keeping every step record, for sizes up to
    2,000; the resolved sequence is available as ``trace.sequence``."""
    steps = _steps_of(P)
    if len(steps) > 2 * _TRACE_LIMIT:
        raise CapExceeded(f"a trace of size {len(steps) // 2} is past the limit of {_TRACE_LIMIT}")
    records = []
    try:
        spines = _carried_spines(steps)
        while len(steps) > 2:
            record = _inverse_record(steps, *spines)
            records.append(record)
            steps = record.path_after.steps
    except _CARRIED_FAULTS as exc:
        raise _carried_fault(P.steps, exc) from exc
    _assert_carried_spines(*spines)
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
