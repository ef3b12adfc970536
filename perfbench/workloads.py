"""Workload inputs made from a seed, and the checks on the program's output.

Three workloads, each a list of ``ascentdyck.cli.main(argv)`` calls.  Sizes
are chosen so that one pass takes a few seconds and a run holds several
passes to take the median of:

- ``verify-sweep``: ``verify 11 --json`` over all six checks, the
  exhaustive sweep the package exists for (58,786 objects per side, and
  234,218 for the characterization check, whose length is capped at 10).
  The inverse core, the family fold, the path DFS and the per-check visits
  dominate it.
- ``long-map``: 100 family members, lengths log-uniform in 128..2048, each
  sent to ``map`` and its image then to ``unmap``.  It exposes the word
  rescans of case 4 (``_key_downsteps``, ``_match_down``,
  ``_degree_of_elevation``) and leaves both DFS layers and verify idle.
  Lengths are stratified (one per percentile band) so that the size mix,
  and with it the cost of a pass, barely moves between seeds; the seed
  picks the offset in each band, the order and every entry.
- ``enumerate-stream``: ``enumerate 11 --stats`` for the pairs, seq and
  path sides, each streamed to the sink.  Same family DFS and forward core
  as the sweep, but objects are built, validated and printed instead of
  folded; the inverse core does nothing here.

The sweep and the enumeration are exhaustive, so only long-map's inputs
depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

WORKLOADS = ("verify-sweep", "long-map", "enumerate-stream")
CHECKS = ("counts", "roundtrip", "bijectivity", "invariants", "statistics",
          "characterization")
SIDES = ("pairs", "seq", "path")

SWEEP_N = 11
ENUMERATE_N = 11
LONG_COUNT, LONG_MIN, LONG_MAX = 100, 128, 2048
# verify caps the brute-force characterization sweep at this length and value
CHARACTERIZATION_LEN, CHARACTERIZATION_VAL = 10, 6

_DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def ascent_prefix_count(max_len: int, max_val: int) -> int:
    """Ascent sequences of every length 1..max_len with entries capped at
    max_val: the objects the characterization check probes."""
    states = {(0, 0): 1}  # (ascents, last entry) -> count
    total = 1
    for _ in range(max_len - 1):
        grown: dict[tuple[int, int], int] = {}
        for (a, last), count in states.items():
            for v in range(min(a + 1, max_val) + 1):
                key = (a + (last < v), v)
                grown[key] = grown.get(key, 0) + count
        states = grown
        total += sum(states.values())
    return total


def random_member(rng: random.Random, n: int) -> list[int]:
    """A family member of length n, each entry uniform among the values
    that keep the prefix in the family (0, the last nonzero entry again,
    the menu, or one more than the ascents)."""
    entries = [0]
    a = m = last = 0
    for _ in range(n - 1):
        lo = max(m, 1) if last == 0 else m
        v = rng.choice((0, *range(lo, a + 2)))
        entries.append(v)
        a += last < v
        m = max(m, v)
        last = v
    return entries


def make_spec(workload: str, seed: int, *, n: int | None = None,
              long_sizes: tuple[int, int, int] | None = None) -> dict:
    """The inputs of one pass.  ``n`` and ``long_sizes`` (count, shortest,
    longest) shrink a workload for the benchmark's own tests."""
    if workload == "verify-sweep":
        return {"workload": workload, "n": n or SWEEP_N}
    if workload == "enumerate-stream":
        return {"workload": workload, "n": n or ENUMERATE_N}
    if workload == "long-map":
        rng = random.Random(seed)
        count, lo, hi = long_sizes or (LONG_COUNT, LONG_MIN, LONG_MAX)
        lengths = [round(lo * (hi / lo) ** ((i + rng.random()) / count))
                   for i in range(count)]
        rng.shuffle(lengths)
        sequences = [",".join(map(str, random_member(rng, k))) for k in lengths]
        digest_key = str(seed) if long_sizes is None else None
        return {"workload": workload, "sequences": sequences,
                "digest_key": digest_key}
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks -------------------------------------------------------------


def _recorded() -> dict:
    with open(_DIGESTS) as f:
        return json.load(f)


def report_digest(report: dict) -> str:
    """SHA-256 of one verify report without its timing."""
    stripped = {k: v for k, v in report.items() if k != "elapsed_seconds"}
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def _sequence_stats(entries: list[int]) -> tuple:
    n = len(entries)
    initial = 0
    while initial < n and entries[initial] == 0:
        initial += 1
    ascents = sum(x < y for x, y in zip(entries, entries[1:]))
    descents = sum(x > y for x, y in zip(entries, entries[1:]))
    if initial == n:
        return n, n - 1, ascents, descents, None
    last = max(i for i, x in enumerate(entries) if x)
    terminal = n - 1 - last
    run = 0
    while last - 1 - run >= 0 and entries[last - 1 - run] == entries[last]:
        run += 1
    return initial, terminal, ascents, descents, run


def _path_stats(steps: str) -> tuple:
    # mirrored as (first descent, last ascent - 1, valleys, DUU, lowest valley)
    d = steps.index("D")
    u = steps.find("U", d)
    first_descent = (len(steps) if u < 0 else u) - d
    r = steps.rindex("U")
    last_ascent = r - steps.rfind("D", 0, r)
    height, lowest = 0, None
    for k in range(len(steps) - 1):
        height += 1 if steps[k] == "U" else -1
        if steps[k] == "D" and steps[k + 1] == "U":
            lowest = height if lowest is None else min(lowest, height)
    return (first_descent, last_ascent - 1, steps.count("DU"),
            steps.count("DUU"), lowest)


def _is_dyck(steps: str, size: int) -> bool:
    if len(steps) != 2 * size or set(steps) - {"U", "D"}:
        return False
    height = 0
    for c in steps:
        height += 1 if c == "U" else -1
        if height < 0:
            return False
    return height == 0


def check_pass(spec: dict, result: dict) -> tuple[int, int, int]:
    """(attempted, failed, objects) for one pass.  Every main() call is
    one attempted operation; it fails on a nonzero exit, an exception, a
    wrong count or a digest that differs from the recorded one."""
    calls = result["calls"]
    failed = [c["exit"] != 0 for c in calls]
    recorded = _recorded()[spec["workload"]]
    workload = spec["workload"]
    objects = 0
    if workload == "verify-sweep":
        n = spec["n"]
        want = recorded.get(str(n), {})
        try:
            reports = json.loads(calls[0]["out"])
        except ValueError:
            return 1, 1, 0
        by_name = {r["check"]: r for r in reports}
        if sorted(by_name) != sorted(CHECKS):
            return 1, 1, 0
        for name, r in by_name.items():
            objects += r["sequences_checked"] + r["paths_checked"]
            if name == "characterization":
                expected = (ascent_prefix_count(min(n, CHARACTERIZATION_LEN),
                                                CHARACTERIZATION_VAL), 0)
            else:
                expected = (catalan(n), catalan(n))
            ok = (r["passed"] and not r["failures"]
                  and (r["sequences_checked"], r["paths_checked"]) == expected
                  and (name not in want or want[name] == report_digest(r)))
            failed[0] = failed[0] or not ok
    elif workload == "enumerate-stream":
        want = recorded.get(str(spec["n"]), {})
        for i, side in enumerate(SIDES):
            out = calls[i]["out"]
            objects += out["lines"]
            ok = (out["lines"] == catalan(spec["n"])
                  and (side not in want or want[side] == out["sha256"]))
            failed[i] = failed[i] or not ok
    else:
        for i, text in enumerate(spec["sequences"]):
            fwd, back = calls[2 * i], calls[2 * i + 1]
            entries = [int(x) for x in text.split(",")]
            image = fwd["out"].strip()
            if not (_is_dyck(image, len(entries))
                    and _sequence_stats(entries) == _path_stats(image)):
                failed[2 * i] = True
            if back["out"].strip() != text:
                failed[2 * i + 1] = True
        objects = len(calls)
        key = spec.get("digest_key")
        if key in recorded and recorded[key] != images_digest(result):
            # a wrong image that still roundtrips: every map call is suspect
            for i in range(0, len(calls), 2):
                failed[i] = True
    return len(calls), sum(failed), objects


def images_digest(result: dict) -> str:
    """Digest of the long-map images, as recorded in digests.json."""
    images = [c["out"].strip() for c in result["calls"][0::2]]
    return hashlib.sha256("\n".join(images).encode()).hexdigest()
