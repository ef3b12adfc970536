"""Ascent sequences whose nonzero entries are weakly increasing.

An ascent sequence starts with 0 and never exceeds one more than the
number of ascents (consecutive strictly rising pairs) seen so far.  The
sequences handled here additionally keep their nonzero entries weakly
increasing, which is the same as containing no three entries ordered
like 0,2,1.  That family is counted by the Catalan numbers and is the
left-hand side of the bijection in :mod:`ascentdyck.bijection`.

Positions are 1-based everywhere in reports and error messages.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import reduce

from ._record import _Record
from .errors import (
    AscentBoundViolated,
    EmptyInput,
    FirstEntryNonzero,
    InputError,
    NegativeEntry,
    NonIntegerEntry,
    Not021Avoiding,
    SizeZero,
    _require_int,
    _require_type,
)


class AscentSequence(_Record):
    """A validated ascent sequence.  Construction rejects invalid input."""

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]):
        # spelled out: the generic record __init__ is slower on hot paths
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        try:
            entries = tuple(self.entries)
        except TypeError:
            raise InputError(
                f"ascent sequence entries must be iterable, got "
                f"{type(self.entries).__name__}"
            ) from None
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise EmptyInput("an ascent sequence has at least one entry")
        if not {int}.issuperset(map(type, entries)):
            # exactly int: a bool, float or digit string is no entry
            i = next(i for i, u in enumerate(entries) if type(u) is not int)
            raise NonIntegerEntry(position=i + 1, entry=entries[i])
        if entries[0] != 0:
            raise FirstEntryNonzero(
                f"first entry must be 0, got {entries[0]} at position 1"
            )
        # every entry lies in 0..bound, one more than the ascents before it;
        # the first is 0, so the walk may start there
        bound = 1
        prev = 0
        for i, u in enumerate(entries):
            if not 0 <= u <= bound:
                if u < 0:
                    raise NegativeEntry(position=i + 1, entry=u)
                raise AscentBoundViolated(position=i + 1, entry=u, bound=bound)
            if prev < u:
                bound += 1
            prev = u

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return _sequence_text(self.entries)


def _sequence_text(entries: tuple[int, ...]) -> str:
    # the text of a sequence, "0,1,1": the entries are exact ints, so the
    # tuple's repr spells each one as str() does; a 1-tuple's repr has a
    # trailing comma
    if len(entries) == 1:
        return str(entries[0])
    return repr(entries)[1:-1].replace(", ", ",")


def _entries_of(seq: AscentSequence) -> tuple[int, ...]:
    # the entries of a sequence handed to a public function
    _require_type(seq, AscentSequence, "sequence")
    return seq.entries


def validate_ascent_sequence(raw: Iterable[int]) -> AscentSequence:
    """Check the two defining conditions and wrap the entries."""
    return AscentSequence(raw)


def parse_sequence(text: str) -> AscentSequence:
    """Parse ``0,1,0,2`` style text; a bare digit string like ``0102`` is
    also accepted (single-digit entries only)."""
    if not isinstance(text, str):
        raise InputError(f"sequence text must be a str, got {type(text).__name__}")
    t = text.strip()
    if not t:
        raise EmptyInput("empty sequence text")
    if "," in t:
        entries = []
        for field in t.split(","):
            field = field.strip()
            try:
                entries.append(int(field))
            except ValueError:
                raise InputError(
                    f"cannot read {field!r} as an integer entry"
                ) from None
        return AscentSequence(tuple(entries))
    if not t.isdecimal():
        raise InputError(
            f"cannot read {t!r}: use comma-separated entries or a digit string"
        )
    return AscentSequence(tuple(int(c) for c in t))


def ascent_count(seq: AscentSequence) -> int:
    """Number of positions i with entries[i] < entries[i+1]."""
    return _sequence_stats_raw(_entries_of(seq))[2]


def is_021_avoiding(seq: AscentSequence) -> bool:
    """True when the nonzero entries are weakly increasing."""
    return _first_021_violation(_entries_of(seq)) is None


def _first_021_violation(entries: Sequence[int]) -> int | None:
    # 1-based position of the first nonzero entry below an earlier nonzero one
    prev = 0
    for i, u in enumerate(entries):
        if u:
            if u < prev:
                return i + 1
            prev = u
    return None


def _require_021(entries: Sequence[int]) -> None:
    bad = _first_021_violation(entries)
    if bad is not None:
        raise Not021Avoiding(position=bad)


def contains_pattern_021_bruteforce(entries: Sequence[int]) -> bool:
    """Exhaustive search for positions i<j<k with entries[i] < entries[k] < entries[j].

    Deliberately the naive cubic scan, written straight from the pattern
    definition and sharing nothing with the streamlined membership test.
    Accepts any integer sequence.
    """
    xs = list(entries)
    n = len(xs)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            if xs[j] <= xs[i]:
                continue
            for k in range(j + 1, n):
                if xs[i] < xs[k] < xs[j]:
                    return True
    return False


def _closes_021_bruteforce(entries: Sequence[int]) -> bool:
    # whether the last entry v ends a 0,2,1: a naive search for positions
    # i < j before it with entries[i] < v < entries[j].  A sequence
    # contains the pattern iff its prefix without v does or this holds.
    # Like the cubic scan, it shares nothing with the membership test.
    k = len(entries) - 1
    if k < 2:
        return False
    v = entries[k]
    for i in range(k - 1):
        if entries[i] < v:
            for j in range(i + 1, k):
                if v < entries[j]:
                    return True
    return False


class AllowableList(_Record):
    """The ordered menu of nonzero values the marked-peak construction step
    can consume, together with the prefix data it was derived from.

    ``values`` is a contiguous run of positive integers (possibly empty),
    bounded above by ``ascent_count``.
    """

    values: tuple[int, ...]
    max_entry: int
    ascent_count: int

    def __post_init__(self):
        _require_type(self.values, tuple, "allowable values")
        _require_int(self.max_entry, "max entry")
        _require_int(self.ascent_count, "ascent count")
        for idx, v in enumerate(self.values):
            _require_int(v, "allowable value")
            if v <= 0 or v > self.ascent_count:
                raise InputError(f"allowable value {v} out of range")
            if idx and v != self.values[idx - 1] + 1:
                raise InputError("allowable values must be contiguous")

    def __len__(self) -> int:
        return len(self.values)

    def position_of(self, value: int) -> int:
        """1-based position of ``value`` in the menu."""
        return self.values.index(value) + 1


# The prefix state: ascent count a, maximum m, last entry, and e, the run
# of entries equal to and just left of the last nonzero entry (None while
# all are 0; on the path side, the degree of elevation).  _ROOT is the
# state of the prefix 0, and _grow is the only rule that updates it.
_ROOT = (0, 0, 0, None)


def _grow(state, v):
    # the state after appending the legal entry v
    a, m, last, e = state
    if v:
        # a repeated nonzero entry lengthens the run; any other
        # nonzero entry differs from its left neighbour
        e = e + 1 if v == last else 0
        if last < v:
            a += 1
        if m < v:
            m = v
    return a, m, v, e


def _prefix_state(entries: Sequence[int]):
    # the state of a valid ascent sequence; Not021Avoiding outside the family
    _require_021(entries)
    return reduce(_grow, entries[1:], _ROOT)


def _menu_low(m: int, last: int) -> int:
    # lowest menu value after a prefix with maximum m and last entry last
    return max(m, 1) if last == 0 else m + 1


def _next_values(state) -> list[int]:
    # every legal next entry after a prefix in this state, ascending: a
    # nonzero last entry equals m, so the nonzero values are max(m, 1)..a+1
    # whatever the last entry
    a, m = state[:2]
    return [0, *range(max(m, 1), a + 2)]


def _allowable(state) -> AllowableList:
    # the menu after a prefix in this state
    a, m, last, _ = state
    return AllowableList(
        tuple(range(_menu_low(m, last), a + 1)), max_entry=m, ascent_count=a
    )


def allowable_nonzero_values(prefix: AscentSequence) -> AllowableList:
    """Values strictly between "repeat the last nonzero entry" and "top out
    at one more than the ascent count", i.e. the menu consumed by the
    key-downstep case of the construction.

    With a = ascents and m = max entry of the prefix, the menu is
    [max(m,1), a] after a zero entry and [m+1, a] after a nonzero one
    (a nonzero last entry always equals m here).  Empty when the least
    value exceeds a.  A prefix outside the family raises Not021Avoiding.
    """
    return _allowable(_prefix_state(_entries_of(prefix)))


def allowable_next_values(prefix: AscentSequence) -> list[int]:
    """Exactly the values v for which prefix + (v,) is again a valid
    sequence of this family, in ascending order.

    Besides 0, the nonzero menu and the new-maximum value a+1, this always
    includes a repeat of the last entry when that entry is nonzero.  A
    prefix outside the family, which nothing extends, raises Not021Avoiding.
    """
    return _next_values(_prefix_state(_entries_of(prefix)))


def _walk_021(n: int, step=None):
    """Depth-first walk, in lexicographic order, over the family of length n.

    Yields (buf, path) at every leaf, reusing buf for the entries in
    place.  ``step(path, v, state)``, when given, runs on every edge in
    walk order with the parent's path and prefix state (see ``_ROOT``)
    and the new entry v.  The step's None prunes the subtree, and
    otherwise its ``[0]`` is the child's path, "UD" at the root.  Without
    ``step``, path is None.  The stack is explicit, so the depth is not
    bounded by the recursion limit.
    """
    buf = [0] * n
    stack = []
    push = stack.append
    pop = stack.pop
    i, path, state = 1, ("UD" if step is not None else None), _ROOT
    while True:
        if i == n:
            yield buf, path
        else:
            # pushed in reverse so that they pop in ascending order
            for v in reversed(_next_values(state)):
                push((i, v, path, state))
        # descend along the next edge the step keeps; none left ends the walk
        while stack:
            i, v, path, state = pop()
            buf[i] = v
            if step is None:
                break
            stepped = step(path, v, state)
            if stepped is not None:
                path = stepped[0]
                break
        else:
            return
        state = _grow(state, v)
        i += 1


def _iter_021_entries(n: int) -> Iterator[tuple[int, ...]]:
    return (tuple(buf) for buf, _ in _walk_021(n))


def _require_length(n: int) -> None:
    # the length gate of enumerate_021_avoiding and of the CLI's seq rows
    _require_int(n, "sequence length")
    if n < 1:
        raise SizeZero("sequence length must be at least 1")


def enumerate_021_avoiding(n: int) -> Iterator[AscentSequence]:
    """Stream every 021-avoiding ascent sequence of length n exactly once,
    in lexicographic order.  There are Catalan(n) of them.  A bad length
    raises at the call, before the first sequence."""
    _require_length(n)
    return (AscentSequence(entries) for entries in _iter_021_entries(n))


class SequenceStats(_Record):
    """The five sequence-side statistics mirrored by the path side.

    ``terminal_zeros`` of the all-zero sequence of length n is defined as
    n - 1, and ``eq_run_before_last_nonzero`` is None exactly when there
    is no nonzero entry.
    """

    initial_zeros: int
    terminal_zeros: int
    ascents: int
    descents: int
    eq_run_before_last_nonzero: int | None


def _sequence_stats_raw(entries: Sequence[int]) -> tuple[int, int, int, int, int | None]:
    n = len(entries)
    initial = 0
    while initial < n and entries[initial] == 0:
        initial += 1
    ascents = descents = 0
    for i in range(n - 1):
        if entries[i] < entries[i + 1]:
            ascents += 1
        elif entries[i] > entries[i + 1]:
            descents += 1
    if initial == n:
        # all-zero sequence: terminal zeros read as n-1, no nonzero entry
        return n, n - 1, ascents, descents, None
    terminal = 0
    while entries[n - 1 - terminal] == 0:
        terminal += 1
    k = n - 1 - terminal  # the last nonzero entry
    run = 0
    while k - 1 - run >= 0 and entries[k - 1 - run] == entries[k]:
        run += 1
    return initial, terminal, ascents, descents, run


def sequence_statistics(seq: AscentSequence) -> SequenceStats:
    """Count initial and terminal zeros, ascents, descents, and the run of
    entries equal to (and immediately left of) the last nonzero entry."""
    return SequenceStats(*_sequence_stats_raw(_entries_of(seq)))
