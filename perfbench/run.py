"""The ascentdyck benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/ascentdyck`` must be there;
nothing is installed or built).  Workloads are described in workloads.py.

Every pass runs in its own child interpreter (child.py), single-threaded.
With ``--trace 0`` the run repeats, while the next round is expected to
end within ``--seconds`` (at least once): time ``SETUP_PROBES`` children
that only start and import the package, then one pass.  It reports:

- ``wall_ref``: median pass time in reference units.  A shared 2-vCPU
  virtual machine was seen to change speed by up to 1.5x within a minute,
  and raw pass times follow it.  So each child also times a fixed kernel of
  interpreter work on a timer signal throughout its pass (child.py's
  ReferenceSampler); pass time divided by the mean kernel time is the
  pass length in kernels.  That ratio is what ``wall_ref`` reports; the
  raw seconds are in the detail record.
- ``objects_per_ref``: objects per reference unit, with the objects the
  workload counts (checked objects, lines, or map/unmap calls).
- ``setup_s``: median over every child of the time from spawn to
  ``ascentdyck.cli`` imported, in plain seconds.
- ``peak_rss_mb``: median ``ru_maxrss`` of the pass children.

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of the traced one (see tracer.py), plus
``trace.overhead_s``, the traced pass time minus the untraced one.

Every pass is checked (workloads.check_pass); the run exits 1 without a
result if a child cannot run at all.  The last stdout line is the result
object; the line before it is a detail record with the environment
(Python, nproc, load average before and after, seed, git commit), sample
counts, raw seconds, the failure rate and, for long-map, the map and
unmap latency percentiles and entries per second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)

import workloads  # noqa: E402

SETUP_PROBES = 3  # per pass
# a run must end well inside the 180 s a run is allowed
CHILD_DEADLINE_S = 170.0


def _spawn(spec: dict, trace: bool, deadline: float) -> dict:
    """Run one child to completion and return its result with the set-up
    time (spawn to package imported) filled in."""
    # -S: no site hooks, so set-up time is the interpreter plus the package
    argv = [sys.executable, "-S", os.path.join(_HERE, "child.py")]
    if trace:
        argv.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.run(
        argv, input=json.dumps(spec), capture_output=True, text=True,
        cwd=ROOT, env=env, timeout=max(deadline - start, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"benchmark child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup"] = result["ready"] - start
    return result


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def _end_to_end(spec: dict, passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    walls = [p["wall"] for p in passes]
    wall = statistics.median(walls)
    wall_ref = statistics.median(p["wall"] / p["reference"] for p in passes)
    objects = statistics.median(p["objects"] for p in passes)
    metrics = {
        "wall_ref": (wall_ref, "ref"),
        "objects_per_ref": (objects / wall_ref, "1/ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    detail = {"passes": len(passes), "wall_s": wall, "objects_per_s": objects / wall,
              "wall_s_samples": walls,
              "reference_s_samples": [p["reference"] for p in passes],
              "setup_s_samples": setups}
    if spec["workload"] == "long-map":
        for kind in ("map", "unmap"):
            times = [c["seconds"] * 1000 for p in passes for c in p["calls"]
                     if c["argv0"] == kind]
            detail[f"{kind}_p50_ms"] = statistics.median(times)
            detail[f"{kind}_p90_ms"] = statistics.quantiles(times, n=10)[8]
            detail[f"{kind}_samples"] = len(times)
        entries = 2 * sum(s.count(",") + 1 for s in spec["sequences"])
        detail["entries_per_s"] = entries / wall
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    t_begin = time.perf_counter()
    deadline = t_begin + CHILD_DEADLINE_S
    load_before = os.getloadavg()
    spec = workloads.make_spec(workload, seed)

    passes: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0

    def measured(result: dict) -> dict:
        nonlocal attempted, failed
        tried, bad, objects = workloads.check_pass(spec, result)
        attempted += tried
        failed += bad
        result["objects"] = objects
        setups.append(result["setup"])
        return result

    if trace:
        plain = measured(_spawn(spec, False, deadline))
        traced = measured(_spawn(spec, True, deadline))
        layers = traced["layers"]
        layers["trace.overhead_s"] = traced["wall"] - plain["wall"]
        metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
        detail = {"untraced_wall_s": plain["wall"], "traced_wall_s": traced["wall"],
                  "layer_totals": traced["layer_totals"],
                  "spans": _spans(traced["spans"])}
    else:
        t_start = time.perf_counter()
        spent = []
        while True:
            t_pass = time.perf_counter()
            # probes spread over the run see the same host phases as passes
            for _ in range(SETUP_PROBES):
                setups.append(_spawn({}, False, deadline)["setup"])
            passes.append(measured(_spawn(spec, False, deadline)))
            now = time.perf_counter()
            spent.append(now - t_pass)
            if now - t_start + statistics.median(spent) > seconds:
                break
        metrics, detail = _end_to_end(spec, passes, setups)

    detail.update({
        "workload": workload, "seed": seed, "trace": trace,
        "failure_rate": failed / attempted,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "git_commit": _git_commit(),
        "run_s": time.perf_counter() - t_begin,
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_object"):
        return "steps/object"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def _spans(spans: list) -> list:
    # full spans relative to the first one, to keep the record short
    if not spans:
        return []
    t0 = spans[0][1]
    return [[name, round(start - t0, 6), round(end - t0, 6), parent]
            for name, start, end, parent in spans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "ascentdyck")):
        print("error: no src/ascentdyck next to the benchmark; run from a "
              "source checkout", file=sys.stderr)
        return 1
    try:
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
