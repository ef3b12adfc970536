"""Exhaustive desk-scale verification of the whole construction.

Both families are finite at every size, so nothing here is sampled: the
checks sweep every object up to a size cap (12 by default, 14 in
extended mode) and report every witness of a violation.  All checks are
deterministic and idempotent; each one owns an independent sweep so they
can be run, repeated, or split in any order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import bijection
from .bijection import (
    _assert_carried_degree,
    _assert_classified_as,
    _classify,
    _forward_step_core,
    _inverse_entries,
)
from .errors import CapExceeded, InputError, InternalInvariant, _require_int
from .paths import (
    UP,
    _STEP_TO_BIT,
    _is_elevated_steps,
    _is_valid_steps,
    _iter_dyck_steps,
    _path_stats_raw,
    enumerate_dyck_paths,
)
from .sequences import (
    _closes_021_bruteforce,
    _first_021_violation,
    _sequence_stats_raw,
    _walk_021,
    enumerate_021_avoiding,
)

DEFAULT_CAP = 12
EXTENDED_CAP = 14

_MAX_WITNESSES = 100


def catalan(n: int) -> int:
    """Exact Catalan number, by the convolution recurrence."""
    _require_int(n, "n")
    if n < 0:
        raise InputError("catalan is defined for n >= 0")
    c = [1]
    for k in range(n):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c[n]


@dataclass(frozen=True)
class Failure:
    kind: str
    witness: str
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of one check at one size.  ``failures`` keeps at most the
    first 100 witnesses; it is empty exactly when everything passed.
    ``failures_total`` counts every failure, kept or not."""

    check: str
    n: int
    sequences_checked: int
    paths_checked: int
    failures: tuple[Failure, ...]
    failures_total: int
    equidistribution: dict[str, bool] | None
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "n": self.n,
            "sequences_checked": self.sequences_checked,
            "paths_checked": self.paths_checked,
            "passed": self.passed,
            "failures": [
                {"kind": f.kind, "witness": f.witness, "detail": f.detail}
                for f in self.failures
            ],
            "equidistribution": self.equidistribution,
            "elapsed_seconds": round(self.elapsed, 6),
        }

    def summary(self) -> str:
        capped = (f" (first {len(self.failures)} kept)"
                  if self.failures_total > len(self.failures) else "")
        lines = [
            f"{self.check}: n={self.n} sequences={self.sequences_checked} "
            f"paths={self.paths_checked} failures={self.failures_total}{capped} "
            f"elapsed={self.elapsed:.2f}s [{'PASS' if self.passed else 'FAIL'}]"
        ]
        if self.equidistribution is not None:
            for name, ok in self.equidistribution.items():
                lines.append(f"  statistic {name}: {'ok' if ok else 'MISMATCH'}")
        for f in self.failures[:10]:
            lines.append(f"  {f.kind}: {f.witness}  {f.detail}")
        return "\n".join(lines)


def _require_size(n: int, cap: int) -> None:
    # every check's entry gate: nothing is swept or allocated before it
    _require_int(n, "size")
    _require_int(cap, "cap")
    if not 1 <= cap <= EXTENDED_CAP:
        raise CapExceeded(f"cap {cap} outside 1..{EXTENDED_CAP}")
    if not 1 <= n <= cap:
        raise CapExceeded(f"size {n} outside 1..{cap}")


class _Witnesses:
    # bounded failure collector; created as a check starts, so that
    # report() can time the check
    def __init__(self):
        self.t0 = time.perf_counter()
        self.items: list[Failure] = []
        self.total = 0

    def add(self, kind: str, witness: str, detail: str = "") -> None:
        self.total += 1
        if len(self.items) < _MAX_WITNESSES:
            self.items.append(Failure(kind, witness, detail))

    def report(self, check: str, n: int, sequences_checked: int,
               paths_checked: int, equidistribution=None) -> VerifyReport:
        return VerifyReport(
            check=check, n=n, sequences_checked=sequences_checked,
            paths_checked=paths_checked, failures=tuple(self.items),
            failures_total=self.total, equidistribution=equidistribution,
            elapsed=time.perf_counter() - self.t0,
        )


def _fold_family(n: int, visit) -> int:
    """Depth-first over every 021-avoiding entry tuple of length n with the
    image path folded alongside; calls visit(entries_buffer, path) at every
    leaf and returns the leaf count.  The buffer is reused in place."""
    leaves = 0
    for buf, path in _walk_021(n, _forward_step_core):
        leaves += 1
        visit(buf, path)
    return leaves


def _coverage(n: int, bad: _Witnesses):
    """Bookkeeping for "the fold images are valid, distinct and Catalan(n)
    in number": returns (file, close).  ``file(buf, path)`` files one
    image in a bitmap over all 2n-step words; ``close()`` witnesses a
    shortfall and returns the count of distinct valid images, kept as a
    running counter so that the bitmap is never scanned."""
    seen = bytearray(1 if n < 2 else 1 << (2 * n - 3))
    distinct = 0

    def file(buf, path):
        nonlocal distinct
        if len(path) != 2 * n or not _is_valid_steps(path):
            bad.add("invalid-image", ",".join(map(str, buf)), f"image {path}")
            return
        code = int(path.translate(_STEP_TO_BIT), 2)
        byte, bit = code >> 3, 1 << (code & 7)
        if seen[byte] & bit:
            bad.add("duplicate-image", ",".join(map(str, buf)), f"image {path}")
        else:
            seen[byte] |= bit
            distinct += 1

    def close() -> int:
        expected = catalan(n)
        if distinct != expected:
            bad.add("coverage", str(n),
                    f"{distinct} distinct images, expected {expected}")
        return distinct

    return file, close


def check_counts(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Both enumerators against the Catalan recurrence."""
    _require_size(n, cap)
    bad = _Witnesses()
    expected = catalan(n)
    nseq = sum(1 for _ in enumerate_021_avoiding(n))
    npath = sum(1 for _ in enumerate_dyck_paths(n))
    if nseq != expected:
        bad.add("sequence-count", str(n), f"got {nseq}, expected {expected}")
    if npath != expected:
        bad.add("path-count", str(n), f"got {npath}, expected {expected}")
    return bad.report("counts", n, nseq, npath)


def check_roundtrip(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """inverse(forward(s)) = s over all sequences and
    forward(inverse(p)) = p over all paths.

    The sequence side is checked once per forward edge of the walk.  An
    edge maps the parent word P by the entry v to the child word C, and
    one inverse step on C must return P and emit v, a repeat marker
    standing for the left neighbour of v as in ``_inverse_entries``.  By
    induction on the length, if every edge on the way to s passes, then
    unwinding forward(s) in full gives s back: the first inverse step
    from forward(s) lands on the parent word with the last entry emitted,
    and the rest of the unwinding is that of the parent's prefix, which
    gives the parent's entries and so resolves a repeat marker to the
    left neighbour.  So a leaf that the full unwinding fails has a
    failing edge on its way, and a clean report proves what unwinding
    every leaf proved, over the same objects, with one inverse step per
    edge instead of n - 1 per leaf.  A failing edge names the prefix
    that ends in it, and ``failures_total`` counts failing edges; the
    subtree is still walked, so coverage does not change.

    The walk files each image in the coverage bitmap.  If the images are
    valid, distinct and Catalan(n) in number, every path p is forward(s)
    for some s, so forward(inverse(p)) = forward(s) = p by the sequence
    side.  Hence ``paths_checked`` counts the distinct valid images.
    """
    _require_size(n, cap)
    bad = _Witnesses()
    file, close = _coverage(n, bad)
    # read through the module as the check starts, as _inverse_entries
    # reads it, so that the step checked and the detail text share a core
    inverse_core = bijection._inverse_step_core
    buf = [0] * n

    def checked_step(path, v, state):
        # edges arrive in walk order, so buf[:i] still holds the parent
        # prefix, and state[2] its last entry, when the edge from size i
        # is checked
        i = len(path) // 2
        buf[i] = v
        stepped = _forward_step_core(path, v, state)
        child = stepped[0]
        back, _, emitted, _, _ = inverse_core(child)
        if back != path or (state[2] if emitted is None else emitted) != v:
            came_back = ",".join(map(str, _inverse_entries(child)))
            bad.add("sequence-roundtrip", ",".join(map(str, buf[: i + 1])),
                    f"via {child} came back as {came_back}")
        return stepped

    nseq = 0
    for leaf, path in _walk_021(n, checked_step):
        nseq += 1
        file(leaf, path)
    return bad.report("roundtrip", n, nseq, close())


def check_bijectivity(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """The forward image is valid, duplicate-free, and by counting must
    therefore cover every path of the size."""
    _require_size(n, cap)
    bad = _Witnesses()
    file, close = _coverage(n, bad)
    nseq = _fold_family(n, file)
    return bad.report("bijectivity", n, nseq, close())


def check_invariants(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Per-step structural guarantees of the forward construction (every
    edge leaves the shape the inverse classifies as the case it took, and
    every case-4 edge was handed the degree of elevation its parent word
    has), plus totality and mutual exclusivity of the inverse case split."""
    _require_size(n, cap)
    bad = _Witnesses()
    buf = [0] * n

    def checked_step(path, v, state):
        # edges arrive in walk order, so buf[:i] still holds the parent
        # prefix when the edge from size i is checked
        i = len(path) // 2
        buf[i] = v
        try:
            # the core itself asserts the menu/key-downstep length match
            # and that the menu case never reaches a pyramid
            stepped = _forward_step_core(path, v, state)
            if stepped[1] == 4:
                _assert_carried_degree(path, state[3])
            _assert_classified_as(stepped[0], stepped[1])
        except InternalInvariant as exc:
            bad.add("step-invariant", ",".join(map(str, buf[: i + 1])), str(exc))
            return None
        return stepped

    leaves = sum(1 for _ in _walk_021(n, checked_step))

    npath = 0
    if n >= 2:
        for steps in _iter_dyck_steps(n):
            npath += 1
            r = steps.rfind(UP)
            long_last = r >= 1 and steps[r - 1] == UP
            elevated = _is_elevated_steps(steps)
            ends_peak = steps.endswith("UD")
            truth = [
                long_last,
                not long_last and elevated,
                not long_last and ends_peak,
                not long_last and not elevated and not ends_peak,
            ]
            if sum(truth) != 1:
                bad.add("case-split", steps, f"conditions {truth}")
            elif _classify(steps) != truth.index(True) + 1:
                bad.add("case-split", steps,
                        f"classified {_classify(steps)}, conditions say "
                        f"{truth.index(True) + 1}")
    return bad.report("invariants", n, leaves, npath)


_STAT_NAMES = (
    "initial_zeros/first_descent_length",
    "terminal_zeros/last_ascent_length-1",
    "ascents/valleys",
    "descents/duu_count",
    "eq_run/degree_of_elevation",
)


def check_statistics(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """The five statistic equalities between each sequence and its image,
    including the all-zero/pyramid special cases."""
    _require_size(n, cap)
    bad = _Witnesses()
    ok = [True] * 5

    def visit(buf, path):
        p = list(_path_stats_raw(path))
        p[1] -= 1  # terminal zeros mirror the last ascent less one
        for idx, (left, right) in enumerate(zip(_sequence_stats_raw(buf), p)):
            if left != right:
                ok[idx] = False
                bad.add("statistic", ",".join(map(str, buf)),
                        f"{_STAT_NAMES[idx]}: {left} != {right} on {path}")

    nseq = _fold_family(n, visit)
    return bad.report("statistics", n, nseq, nseq, dict(zip(_STAT_NAMES, ok)))


def check_characterization(max_len: int = 10, max_val: int | None = 6) -> VerifyReport:
    """Over every valid ascent sequence within the bounds, the streamlined
    membership test must agree with the negated brute-force pattern find.
    ``max_val`` of None bounds entries by the ascent condition alone.

    The sweep walks the prefix tree, whose nodes are exactly these
    sequences, and probes each node once.  The brute-force verdict is
    derived from the parent's: a node contains 0,2,1 if its parent does,
    and otherwise only if a naive pair scan finds positions i < j before
    the new last entry v with entries[i] < v < entries[j], since every
    other triple already lies in the parent.  So the verdict of every node
    equals that of the cubic triple scan over its whole prefix, and the
    pair scan is skipped under a parent known to contain the pattern.  The
    membership test still runs on every node, so a clean report proves
    what the cubic scan at every node proved, over the same objects.
    """
    _require_int(max_len, "length bound")
    if max_val is not None:
        _require_int(max_val, "value bound")
    if not 1 <= max_len <= 12:
        raise CapExceeded(f"length bound {max_len} outside 1..12")
    if max_val is not None and max_val < 0:
        raise CapExceeded(f"value bound {max_val} is negative")
    bad = _Witnesses()
    buf = [0] * max_len
    checked = 0

    def probe(i: int, a: int, brute: bool) -> None:
        # the node buf[:i], with a ascents; brute is the parent's verdict
        nonlocal checked
        checked += 1
        entries = buf[:i]
        brute = brute or _closes_021_bruteforce(entries)
        fast = _first_021_violation(entries) is None
        if fast != (not brute):
            bad.add("characterization", ",".join(map(str, entries)),
                    f"membership test {fast}, brute-force pattern find {brute}")
        if i == max_len:
            return
        top = a + 1 if max_val is None else min(a + 1, max_val)
        for v in range(top + 1):
            buf[i] = v
            probe(i + 1, a + (buf[i - 1] < v), brute)

    # every prefix of the search tree is itself a valid sequence, so each
    # node is probed exactly once
    buf[0] = 0
    probe(1, 0, False)
    return bad.report("characterization", max_len, checked, 0)
