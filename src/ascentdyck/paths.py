"""Dyck paths: validation, structural probes, enumeration, rendering.

A path is stored as its step word over ``U``/``D``.  Steps are 1-based in
every public index.  The probes (elevation, degree of elevation, key
downsteps, the statistics) are what the bijection reads off a word; the
moves it makes are slices of the word inside its step cores, in
:mod:`ascentdyck.bijection`.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import _Record
from .errors import (
    BadCharacter,
    CapExceeded,
    DipsBelowGround,
    EmptyInput,
    IndexOutOfRange,
    InputError,
    InternalInvariant,
    SizeZero,
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
_RENDER_LIMIT = 8_000_000  # grid cells, steps × height: the size-2,000 pyramid
_GLYPH = {UP: ord("/"), DOWN: ord("\\")}


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
    # fast validity test for hot sweeps.  A word is a Dyck word exactly when
    # deleting UD factors empties it; each pass deletes every peak, so the
    # height falls by at least one per pass, and a word of up to 32 steps
    # takes at most 16 passes.  Past 32 steps the passes cost more than the
    # chunk scan on high words, so a longer word is tested in one pass: as
    # many U as D and nothing else (int() takes _, signs, spaces), then no
    # dip below 0, 8 steps at a time padded with U.
    n2 = len(steps)
    if n2 <= 32:
        shorter = steps.replace("UD", "")
        while shorter != steps:
            steps = shorter
            shorter = steps.replace("UD", "")
        return n2 > 0 and not steps
    if n2 % 2 or steps.count(UP) * 2 != n2 or steps.count(DOWN) * 2 != n2:
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
        # the fast verdict; the step-by-step scan only names the fault
        steps = self.steps
        if not (isinstance(steps, str) and _is_valid_steps(steps)):
            _validate_steps(steps)
            raise InternalInvariant(f"the fast test refused {steps!r}, which is a Dyck path")

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


def _key_downsteps(steps: str, spine=None, count: int | None = None) -> list[int]:
    # 0-based offsets, left to right, only the first ``count`` when given.
    # The matches are read off a carried right spine (see the bijection
    # module docstring), top first, when the caller has one, and scanned
    # otherwise
    if spine is None:
        t0, matches = _terminal_matches(steps)
    else:
        t0, matches = spine.top + 1, reversed(spine)
    out = []
    for j, u0 in enumerate(matches):
        if u0 and steps[u0 - 1] == DOWN and steps[u0 + 1] == UP:
            out.append(t0 + j)
            if len(out) == count:
                break
    return out


def key_downsteps(p: DyckPath) -> list[StepRef]:
    """Downsteps on the terminal descent whose matching upstep is the
    middle U of a DUU factor, in left-to-right order."""
    return [StepRef(d0 + 1, DOWN) for d0 in _key_downsteps(_steps_of(p))]


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
    trailing spaces trimmed; the result ends with a newline.  A grid of
    more than 8,000,000 cells (steps × height) raises
    :class:`CapExceeded` before anything is drawn."""
    s = _steps_of(p)
    heights = [0]
    for c in s:
        heights.append(heights[-1] + (1 if c == UP else -1))
    top = max(heights)
    if len(s) * top > _RENDER_LIMIT:
        raise CapExceeded(
            f"a drawing of {len(s)} steps by {top} rows is past the limit of "
            f"{_RENDER_LIMIT:,} cells"
        )
    rows = [bytearray(b" " * len(s)) for _ in range(top)]
    for i, c in enumerate(s):
        # the higher end of a step is the row it is drawn on
        rows[top - max(heights[i], heights[i + 1])][i] = _GLYPH[c]
    return b"\n".join(row.rstrip() for row in rows).decode() + "\n"
