"""Dyck paths: structural probes, surgical edits, enumeration, rendering.

A path is stored as its step word over ``U``/``D``.  Steps are 1-based in
every public index; vertices (lattice points) run 0..2n, vertex k being
the point reached after k steps.  The probes (matching, returns, degree
of elevation, key downsteps) and the edits (peak insertion/deletion,
elevation, upstep transfer) are exactly the moves the bijection is built
from; they are useful on their own and tested independently.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import _Record
from .errors import (
    BadCharacter,
    DipsBelowGround,
    EmptyInput,
    IndexOutOfRange,
    InputError,
    InternalInvariant,
    NotElevated,
    NotEnoughUpsteps,
    ResultInvalid,
    SizeZero,
    TooSmall,
    Unbalanced,
    WrongKind,
    _require_int,
    _require_type,
)

UP = "U"
DOWN = "D"

_PAREN_TO_STEP = str.maketrans("()", "UD")
_STEP_TO_PAREN = str.maketrans("UD", "()")
_STEP_TO_BIT = str.maketrans("UD", "01")
# per 8-step chunk (U as bit 0): the lowest start height it needs, and its rise
_CHUNK_NEED = [max(0, *(2 * (c >> k).bit_count() + k - 8 for k in range(8))) for c in range(256)]
_CHUNK_NET = [8 - 2 * c.bit_count() for c in range(256)]


def _validate_steps(steps: str) -> None:
    if not isinstance(steps, str):
        raise InputError(f"a Dyck path is a step word, got {type(steps).__name__}")
    if not steps:
        raise EmptyInput("a Dyck path has at least one step")
    bal = 0
    for i, c in enumerate(steps):
        if c == UP:
            bal += 1
        elif c == DOWN:
            bal -= 1
            if bal < 0:
                raise DipsBelowGround(position=i + 1)
        else:
            raise BadCharacter(position=i + 1, char=c)
    if bal != 0:
        raise Unbalanced(f"{bal} unmatched upstep(s)")


def _is_valid_steps(steps: str) -> bool:
    # fast validity test for hot sweeps: as many U as D and nothing else (int()
    # takes _, signs, spaces), then no dip below 0, 8 steps at a time padded with U
    n2 = len(steps)
    if n2 == 0 or n2 % 2 or steps.count(UP) * 2 != n2 or steps.count(DOWN) * 2 != n2:
        return False
    height = 0
    for c in (int(steps.translate(_STEP_TO_BIT), 2) << -n2 % 8).to_bytes((n2 + 7) // 8, "big"):
        if height < _CHUNK_NEED[c]:
            return False
        height += _CHUNK_NET[c]
    return True


class DyckPath(_Record):
    """Immutable validated step word; equal paths compare and hash equal."""

    steps: str

    def __init__(self, steps: str):
        # spelled out: the generic record __init__ is slower on hot paths
        object.__setattr__(self, "steps", steps)
        self.__post_init__()

    def __post_init__(self):
        _validate_steps(self.steps)

    @property
    def size(self) -> int:
        return len(self.steps) // 2

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return self.steps

    def as_parens(self) -> str:
        return self.steps.translate(_STEP_TO_PAREN)


def _steps_of(p: DyckPath) -> str:
    # the step word of a path handed to a public function
    _require_type(p, DyckPath, "path")
    return p.steps


class StepRef(_Record):
    """1-based handle onto one step of a particular path."""

    index: int
    kind: str

    def __post_init__(self):
        if self.kind not in (UP, DOWN):
            raise WrongKind(f"step kind must be {UP!r} or {DOWN!r}")
        _require_int(self.index, "step index")
        if self.index < 1:
            raise IndexOutOfRange(f"step index {self.index} < 1")


class PathStats(_Record):
    """The five path-side statistics; ``last_ascent_length`` is reported
    raw, the comparison against terminal zeros subtracts one.

    ``degree_of_elevation`` is None exactly for pyramids U^n D^n.
    """

    first_descent_length: int
    last_ascent_length: int
    valleys: int
    duu_count: int
    degree_of_elevation: int | None


def parse_path(text: str) -> DyckPath:
    """Read a step word over U/D; parentheses are accepted as aliases."""
    if not isinstance(text, str):
        raise InputError(f"path text must be a str, got {type(text).__name__}")
    return DyckPath(text.translate(_PAREN_TO_STEP))


def _check_ref(steps: str, ref: StepRef, want: str) -> int:
    # shared StepRef screening; returns the 0-based offset
    _require_type(ref, StepRef, "step reference")
    if not 1 <= ref.index <= len(steps):
        raise IndexOutOfRange(
            f"step index {ref.index} out of range 1..{len(steps)}"
        )
    actual = steps[ref.index - 1]
    if ref.kind != actual:
        raise WrongKind(
            f"step {ref.index} is {actual!r}, reference says {ref.kind!r}"
        )
    if actual != want:
        raise WrongKind(f"step {ref.index} is {actual!r}, need {want!r}")
    return ref.index - 1


def vertex_height(p: DyckPath, v: int) -> int:
    """Height above ground of vertex v, 0 <= v <= 2n."""
    s = _steps_of(p)
    _require_int(v, "vertex")
    if not 0 <= v <= len(s):
        raise IndexOutOfRange(f"vertex {v} out of range 0..{len(s)}")
    return 2 * s.count(UP, 0, v) - v


def first_descent_length(p: DyckPath) -> int:
    s = _steps_of(p)
    i = s.find(DOWN)
    j = s.find(UP, i)
    return (len(s) if j == -1 else j) - i


def last_ascent_length(p: DyckPath) -> int:
    s = _steps_of(p)
    r = s.rfind(UP)
    return r - s.rfind(DOWN, 0, r)


def valley_count(p: DyckPath) -> int:
    """Number of DU factors."""
    return _steps_of(p).count("DU")


def duu_count(p: DyckPath) -> int:
    """Number of DUU factors."""
    return _steps_of(p).count("DUU")


def peak_positions(p: DyckPath) -> list[int]:
    """Vertex indices of the peaks (the point between each UD factor)."""
    s = _steps_of(p)
    return [i + 1 for i in range(len(s) - 1) if s[i] == UP and s[i + 1] == DOWN]


def is_pyramid(p: DyckPath) -> bool:
    # a Dyck path with no valley is all upsteps then all downsteps
    return "DU" not in _steps_of(p)


def _is_elevated_steps(steps: str) -> bool:
    # the height can only come back to ground on a downstep
    bal = 0
    for c in steps[:-1]:
        if c == UP:
            bal += 1
        else:
            bal -= 1
            if bal == 0:
                return False
    return True


def is_elevated(p: DyckPath) -> bool:
    """True when the only return to ground level is the final step."""
    return _is_elevated_steps(_steps_of(p))


def _degree_of_elevation(steps: str) -> int | None:
    # hop from valley to valley: the valley after the D of a DU at offset
    # i has height 2 * (upsteps before i) - (i + 1), and none is below 0
    i = steps.find("DU")
    if i < 0:
        return None
    best = len(steps)
    ups = lo = 0
    while i >= 0 and best:
        ups += steps.count(UP, lo, i)
        h = 2 * ups - i - 1
        if h < best:
            best = h
        lo = i
        i = steps.find("DU", i + 2)
    return best


def degree_of_elevation(p: DyckPath) -> int | None:
    """Height of the lowest valley vertex; None for pyramids, which have
    none.  It is 0 exactly for non-elevated (non-pyramid) paths."""
    return _degree_of_elevation(_steps_of(p))


def _match_down(steps: str, d0: int) -> int:
    # 0-based offset of the upstep matching the downstep at 0-based d0:
    # the nearest point to the left where the enclosed word balances
    bal = -1
    for k in range(d0 - 1, -1, -1):
        bal += 1 if steps[k] == UP else -1
        if bal == 0:
            return k
    raise InternalInvariant("downstep without a matching upstep")


def _match_up(steps: str, u0: int) -> int:
    bal = 1
    for k in range(u0 + 1, len(steps)):
        bal += 1 if steps[k] == UP else -1
        if bal == 0:
            return k
    raise InternalInvariant("upstep without a matching downstep")


def match_of_downstep(p: DyckPath, d: StepRef) -> StepRef:
    """The upstep opening the shortest balanced subword this downstep
    closes.  Inverse of :func:`match_of_upstep`."""
    s = _steps_of(p)
    return StepRef(_match_down(s, _check_ref(s, d, DOWN)) + 1, UP)


def match_of_upstep(p: DyckPath, u: StepRef) -> StepRef:
    s = _steps_of(p)
    return StepRef(_match_up(s, _check_ref(s, u, UP)) + 1, DOWN)


def terminal_descent(p: DyckPath) -> range:
    """1-based step indices of the maximal downstep run ending the path."""
    s = _steps_of(p)
    return range(s.rfind(UP) + 2, len(s) + 1)


def _terminal_matches(steps: str) -> tuple[int, list[int]]:
    # matches of every terminal-descent downstep in one leftward pass:
    # the j-th terminal downstep (j = 1, 2, ...) matches the first point,
    # walking left from the descent, where the running balance reaches j
    t0 = steps.rfind(UP) + 1
    total = len(steps) - t0
    matches: list[int] = []
    want = 1
    bal = 0
    for k in range(t0 - 1, -1, -1):
        bal += 1 if steps[k] == UP else -1
        if bal == want:
            matches.append(k)
            want += 1
            if want > total:
                break
    return t0, matches


def _key_downsteps(steps: str) -> list[int]:
    # 0-based offsets, left to right
    t0, matches = _terminal_matches(steps)
    out = []
    for j, u0 in enumerate(matches):
        if u0 and steps[u0 - 1] == DOWN and steps[u0 + 1] == UP:
            out.append(t0 + j)
    return out


def key_downsteps(p: DyckPath) -> list[StepRef]:
    """Downsteps on the terminal descent whose matching upstep is the
    middle U of a DUU factor, in left-to-right order."""
    return [StepRef(d0 + 1, DOWN) for d0 in _key_downsteps(_steps_of(p))]


# -- edits -----------------------------------------------------------------


def insert_ud_at_vertex(p: DyckPath, v: int) -> DyckPath:
    """Splice a new peak into the path at vertex v."""
    s = _steps_of(p)
    _require_int(v, "vertex")
    if not 0 <= v <= len(s):
        raise IndexOutOfRange(f"vertex {v} out of range 0..{len(s)}")
    return DyckPath(s[:v] + "UD" + s[v:])


def elevate(p: DyckPath) -> DyckPath:
    """Raise the whole path by one: prepend an upstep, append a downstep."""
    return DyckPath(UP + _steps_of(p) + DOWN)


def lower(p: DyckPath) -> DyckPath:
    """Drop the first and last steps; requires an elevated path of size >= 2
    so that the result is again a Dyck path."""
    s = _steps_of(p)
    if len(s) < 4:
        raise TooSmall("cannot lower a path of size 1")
    if not _is_elevated_steps(s):
        raise NotElevated("only elevated paths can be lowered")
    return DyckPath(s[1:-1])


def delete_last_peak(p: DyckPath) -> DyckPath:
    """Remove the rightmost adjacent UD pair."""
    s = _steps_of(p)
    if len(s) < 4:
        raise TooSmall("cannot delete the only peak")
    i = s.rfind("UD")
    return DyckPath(s[:i] + s[i + 2 :])


def transfer_upsteps_from_front(p: DyckPath, count: int, to_ascent_of: StepRef) -> DyckPath:
    """Move ``count`` upsteps from the very front of the path to just
    before the referenced upstep.

    The reference uses the indexing of ``p``; the referenced upstep sits
    at the same index afterwards (count removed before it, count put
    back).  Fails atomically with :class:`ResultInvalid` if the edited
    word dips below ground, which the construction never lets happen.
    """
    s = _steps_of(p)
    i0 = _check_ref(s, to_ascent_of, UP)
    _require_int(count, "transfer count")
    if count < 0:
        raise InputError("transfer count must be nonnegative")
    if count == 0:
        return p
    if i0 < count:
        raise IndexOutOfRange(
            "target upstep lies inside the transferred front segment"
        )
    if s[:count] != UP * count:
        raise NotEnoughUpsteps(
            f"path does not start with {count} upsteps"
        )
    edited = s[count:i0] + UP * count + s[i0:]
    try:
        return DyckPath(edited)
    except InputError as exc:
        raise ResultInvalid(f"transfer would produce an invalid path: {exc}") from exc


def transfer_upsteps_to_front(p: DyckPath, count: int, before_up: StepRef) -> DyckPath:
    """Exact inverse of :func:`transfer_upsteps_from_front`: move the
    ``count`` upsteps immediately preceding the referenced upstep (within
    its ascent) to the front of the path."""
    s = _steps_of(p)
    i0 = _check_ref(s, before_up, UP)
    _require_int(count, "transfer count")
    if count < 0:
        raise InputError("transfer count must be nonnegative")
    if count == 0:
        return p
    if i0 - count < 0 or s[i0 - count : i0] != UP * count:
        raise NotEnoughUpsteps(
            f"fewer than {count} upsteps precede step {before_up.index} in its ascent"
        )
    # moving upsteps to the front only raises the vertices they pass
    return DyckPath(UP * count + s[: i0 - count] + s[i0:])


# -- enumeration, statistics, rendering -------------------------------------


def _iter_dyck_steps(n: int) -> Iterator[str]:
    # lexicographic DFS with U < D on an explicit stack; n >= 1.  Each
    # frame writes one step and carries the counts including it.
    buf = [UP] * (2 * n)
    stack = [(0, UP, 1, 0)]
    push = stack.append
    pop = stack.pop
    while stack:
        k, c, ups, downs = pop()
        buf[k] = c
        if downs == n:
            yield "".join(buf)
            continue
        k += 1
        if downs < ups:
            push((k, DOWN, ups, downs + 1))
        if ups < n:
            push((k, UP, ups + 1, downs))


def enumerate_dyck_paths(n: int) -> Iterator[DyckPath]:
    """Stream all Catalan(n) Dyck paths of size n, lexicographic with U < D.
    A bad size raises at the call, before the first path."""
    _require_int(n, "path size")
    if n < 1:
        raise SizeZero("path size must be at least 1")
    return (DyckPath(steps) for steps in _iter_dyck_steps(n))


def _path_stats_raw(steps: str) -> tuple[int, int, int, int, int | None]:
    i = steps.find(DOWN)
    j = steps.find(UP, i)
    first_descent = (len(steps) if j == -1 else j) - i
    r = steps.rfind(UP)
    last_ascent = r - steps.rfind(DOWN, 0, r)
    return (
        first_descent,
        last_ascent,
        steps.count("DU"),
        steps.count("DUU"),
        _degree_of_elevation(steps),
    )


def path_statistics(p: DyckPath) -> PathStats:
    return PathStats(*_path_stats_raw(_steps_of(p)))


def render_ascii(p: DyckPath) -> str:
    """Draw the path on a character grid, one column per step: ``/`` for an
    upstep on the row of the height it rises to, ``\\`` for a downstep on
    the row of the height it falls from.  Rows are emitted top-down with
    trailing spaces trimmed; the result ends with a newline."""
    s = _steps_of(p)
    heights = [0]
    for c in s:
        heights.append(heights[-1] + (1 if c == UP else -1))
    top = max(heights)
    rows = []
    for h in range(top, 0, -1):
        chars = []
        for i, c in enumerate(s):
            if c == UP and heights[i + 1] == h:
                chars.append("/")
            elif c == DOWN and heights[i] == h:
                chars.append("\\")
            else:
                chars.append(" ")
        rows.append("".join(chars).rstrip())
    return "\n".join(rows) + "\n"
