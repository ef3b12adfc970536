"""Exhaustive desk-scale verification of the whole construction.

Both families are finite at every size, so nothing here is sampled: the
checks sweep every object up to a size cap (12 by default, 14 in
extended mode) and report every witness of a violation.  All checks are
deterministic and idempotent.  Called alone, each one owns an independent
sweep, so they can be run, repeated, or split in any order; the command
line's ``verify`` runs four of them over one shared walk (``_Sweep``).
"""

from __future__ import annotations

import time

from . import bijection
from ._record import _Record
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


class Failure(_Record):
    kind: str
    witness: str
    detail: str = ""


class VerifyReport(_Record):
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


def _fold_family(n: int, visit, step=None) -> int:
    """Depth-first over every 021-avoiding entry tuple of length n with the
    image path folded alongside; calls visit(entries_buffer, path) at every
    leaf and returns the leaf count.  The buffer is reused in place."""
    leaves = 0
    for buf, path in _walk_021(n, step or _forward_step_core):
        leaves += 1
        visit(buf, path)
    return leaves


def _coverage(n: int, *bads: _Witnesses):
    """Bookkeeping for "the fold images are valid, distinct and Catalan(n)
    in number": returns (file, close).  ``file(buf, path)`` files one
    image in a bitmap over all 2n-step words; ``close()`` witnesses a
    shortfall and returns the count of distinct valid images, kept as a
    running counter so that the bitmap is never scanned."""
    seen = bytearray(1 if n < 2 else 1 << (2 * n - 3))
    distinct = 0

    def witness(kind, text, detail):
        for bad in bads:
            bad.add(kind, text, detail)

    def file(buf, path):
        nonlocal distinct
        if len(path) != 2 * n or not _is_valid_steps(path):
            witness("invalid-image", ",".join(map(str, buf)), f"image {path}")
            return
        code = int(path.translate(_STEP_TO_BIT), 2)
        byte, bit = code >> 3, 1 << (code & 7)
        if seen[byte] & bit:
            witness("duplicate-image", ",".join(map(str, buf)), f"image {path}")
        else:
            seen[byte] |= bit
            distinct += 1

    def close() -> int:
        expected = catalan(n)
        if distinct != expected:
            witness("coverage", str(n), f"{distinct} distinct images, expected {expected}")
        return distinct

    return file, close


class _Sweep:
    """One family walk, run by the first ``_fused`` call, doing the per-edge
    and per-leaf work of the requested ones of roundtrip, bijectivity,
    invariants and statistics.  A walk of one check is that check's own
    walk: invariants keeps an ``InternalInvariant`` as a witness and skips
    the subtree under the failing edge, and any other exception propagates.
    Invariants checks each child word's case against the one the inverse
    classifies; when roundtrip shares the walk, that is the case its
    inverse step returns, so the word is classified once per edge.
    A walk of several checks ends at the first exception, an invariants
    witness included, and is marked failed; each check then runs its own
    walk, so that every report and every exception is the standalone one."""

    def __init__(self, names):
        self.names = set(names) & {"roundtrip", "bijectivity", "invariants", "statistics"}
        self.failed = None  # None until run

    def run(self, n: int) -> None:
        want = self.names
        bad = self.bad = {name: _Witnesses() for name in want}
        inv = "invariants" in want
        filers = [bad[k] for k in ("roundtrip", "bijectivity") if k in want]
        file, close = _coverage(n, *filers) if filers else (None, None)
        ok = self.ok = "statistics" in want and dict.fromkeys(_STAT_NAMES, True)
        buf = [0] * n
        # read as the walk starts, as _inverse_entries reads it: one core
        inverse_core = "roundtrip" in want and bijection._inverse_step_core

        def step(path, v, state):
            # edges come in walk order: buf[:i] and state[2] are the parent's
            i = len(path) // 2
            buf[i] = v
            try:
                stepped = _forward_step_core(path, v, state)
                if inv:
                    if stepped[1] == 4:
                        _assert_carried_degree(path, state[3])
                    if not inverse_core:
                        _assert_classified_as(stepped[0], stepped[1])
            except InternalInvariant as exc:
                if want != {"invariants"}:
                    raise  # a witness only on invariants' own walk
                bad["invariants"].add("step-invariant", ",".join(map(str, buf[: i + 1])),
                                      str(exc))
                return None  # the subtree under a failing edge is skipped
            if inverse_core:
                child = stepped[0]
                back, case_id, emitted, _, _ = inverse_core(child)
                if inv and case_id != stepped[1]:
                    # roundtrip and invariants share this walk, which any exception ends
                    _assert_classified_as(child, stepped[1], case_id)
                if back != path or (state[2] if emitted is None else emitted) != v:
                    came_back = ",".join(map(str, _inverse_entries(child, carried=False)))
                    bad["roundtrip"].add("sequence-roundtrip", ",".join(map(str, buf[: i + 1])),
                                         f"via {child} came back as {came_back}")
            return stepped

        def visit(leaf, path):
            if file:
                file(leaf, path)
            if ok:
                s = _sequence_stats_raw(leaf)
                a, b, c, d, e = _path_stats_raw(path)
                p = (a, b - 1, c, d, e)  # terminal zeros mirror the last ascent less one
                for idx in [k for k in range(5) if s[k] != p[k]] if s != p else ():
                    ok[_STAT_NAMES[idx]] = False
                    bad["statistics"].add("statistic", ",".join(map(str, leaf)),
                                          f"{_STAT_NAMES[idx]}: {s[idx]} != {p[idx]} on {path}")

        try:
            self.leaves = _fold_family(n, visit, step)
            self.distinct = close() if file else 0
            self.failed = False
        except Exception:
            if len(want) == 1:
                raise
            self.failed = True


def _fused(name: str, n: int, cap: int, sweep: _Sweep | None):
    # the gate, then this check's witnesses (timed from here) and the sweep;
    # a shared sweep that failed gives way to this check's own
    t0 = time.perf_counter()
    _require_size(n, cap)
    sweep = sweep or _Sweep((name,))
    if sweep.failed is None:
        sweep.run(n)
    if sweep.failed:
        sweep = _Sweep((name,))
        sweep.run(n)
    bad = _Witnesses()
    bad.t0, bad.items, bad.total = t0, list(sweep.bad[name].items), sweep.bad[name].total
    return bad, sweep


def check_counts(n: int, cap: int = DEFAULT_CAP) -> VerifyReport:
    """Both enumerators against the Catalan recurrence."""
    _require_size(n, cap)
    bad = _Witnesses()
    expected = catalan(n)
    # the sequences stay objects: this is verify's only run of the sequence
    # DFS and of AscentSequence validation, the two layers the benchmark's
    # verify-sweep predictions expect busy.  The paths are counted as the
    # DFS's step words, without a DyckPath each
    nseq = sum(1 for _ in enumerate_021_avoiding(n))
    npath = sum(1 for _ in _iter_dyck_steps(n))
    if nseq != expected:
        bad.add("sequence-count", str(n), f"got {nseq}, expected {expected}")
    if npath != expected:
        bad.add("path-count", str(n), f"got {npath}, expected {expected}")
    return bad.report("counts", n, nseq, npath)


def check_roundtrip(n: int, cap: int = DEFAULT_CAP, *, _sweep=None) -> VerifyReport:
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
    bad, sweep = _fused("roundtrip", n, cap, _sweep)
    return bad.report("roundtrip", n, sweep.leaves, sweep.distinct)


def check_bijectivity(n: int, cap: int = DEFAULT_CAP, *, _sweep=None) -> VerifyReport:
    """The forward image is valid, duplicate-free, and by counting must
    therefore cover every path of the size."""
    bad, sweep = _fused("bijectivity", n, cap, _sweep)
    return bad.report("bijectivity", n, sweep.leaves, sweep.distinct)


def check_invariants(n: int, cap: int = DEFAULT_CAP, *, _sweep=None) -> VerifyReport:
    """Per-step structural guarantees of the forward construction (every
    edge leaves the shape the inverse classifies as the case it took, and
    every case-4 edge was handed the degree of elevation its parent word
    has), plus totality and mutual exclusivity of the inverse case split."""
    bad, sweep = _fused("invariants", n, cap, _sweep)
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
            elif _classify(steps, elevated) != truth.index(True) + 1:
                bad.add("case-split", steps,
                        f"classified {_classify(steps, elevated)}, conditions say "
                        f"{truth.index(True) + 1}")
    return bad.report("invariants", n, sweep.leaves, npath)


_STAT_NAMES = (
    "initial_zeros/first_descent_length",
    "terminal_zeros/last_ascent_length-1",
    "ascents/valleys",
    "descents/duu_count",
    "eq_run/degree_of_elevation",
)


def check_statistics(n: int, cap: int = DEFAULT_CAP, *, _sweep=None) -> VerifyReport:
    """The five statistic equalities between each sequence and its image,
    including the all-zero/pyramid special cases."""
    bad, sweep = _fused("statistics", n, cap, _sweep)
    return bad.report("statistics", n, sweep.leaves, sweep.leaves, dict(sweep.ok))


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
