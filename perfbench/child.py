"""One measured pass in a fresh interpreter.

Reads a pass spec (see workloads.make_spec) as JSON on stdin, runs it
single-threaded through ``ascentdyck.cli.main(argv)`` with stdout replaced
by a sink that counts and hashes the bytes, and writes one JSON result
line to the real stdout.  A spec without a workload only measures set-up.

Run by run.py as ``python3 -S perfbench/child.py [--trace]``.
"""

import sys
import time
from os.path import abspath, dirname, join

_HERE = dirname(abspath(__file__))
sys.path[:0] = [join(dirname(_HERE), "src"), _HERE]

from ascentdyck import cli  # noqa: E402

READY = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from workloads import SIDES  # noqa: E402

_FLUSH_EVERY = 4096
_REFERENCE_SIZE = 7
_SAMPLE_INTERVAL_S = 0.02


def _reference_kernel(n: int) -> int:
    # lexicographic Dyck-word DFS with a balance scan per word: the same
    # kind of interpreter work as the package's hot loops, frozen here so
    # that no change to the package can change its cost
    buf: list[str] = []
    words: list[str] = []

    def rec(ups: int, downs: int) -> None:
        if downs == n:
            words.append("".join(buf))
            return
        for step, ok in (("U", ups < n), ("D", downs < ups)):
            if ok:
                buf.append(step)
                rec(ups + (step == "U"), downs + (step == "D"))
                buf.pop()

    rec(0, 0)
    total = 0
    for w in words:
        height, lowest = 0, n
        for i, c in enumerate(w[:-1]):
            height += 1 if c == "U" else -1
            if c == "D" and w[i + 1] == "U" and height < lowest:
                lowest = height
        total += lowest + w.count("DU") + w.rfind("UD")
    return total


class ReferenceSampler:
    """Times the reference kernel on a timer signal throughout a pass.

    The host's speed drifts by tens of percent within seconds, and a
    fixed piece of interpreter work slows down with it.  A pass time
    divided by the mean kernel time sampled during that pass stays put.
    The time spent in the handler is tallied in ``spent`` so that callers
    can take it out of their own timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_kernel(_REFERENCE_SIZE)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "ReferenceSampler":
        _reference_kernel(_REFERENCE_SIZE)  # warm the heap and the interpreter
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, _SAMPLE_INTERVAL_S, _SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a pass shorter than one interval
            self._sample(None, None)

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


class Sink:
    """Text stdout stand-in: counts and hashes what the program prints,
    keeping the text too when ``capture`` is set."""

    def __init__(self, capture: bool):
        self.capture = capture
        self._parts: list[str] = []
        self._kept: list[str] = []
        self._sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def write(self, s: str) -> int:
        self._parts.append(s)
        if len(self._parts) >= _FLUSH_EVERY:
            self._drain()
        return len(s)

    def _drain(self) -> None:
        text = "".join(self._parts)
        self._parts.clear()
        data = text.encode()
        self._sha.update(data)
        self.bytes += len(data)
        self.lines += text.count("\n")
        if self.capture:
            self._kept.append(text)

    def flush(self) -> None:
        pass

    def result(self):
        self._drain()
        if self.capture:
            return "".join(self._kept)
        return {"sha256": self._sha.hexdigest(), "lines": self.lines,
                "bytes": self.bytes}


def _call(argv: list[str], capture: bool, tracer, sampler) -> dict:
    sink = Sink(capture)
    if tracer is not None:
        sink.write = tracer.output_write(sink.write)
    real = sys.stdout
    sys.stdout = sink
    sampled = sampler.spent if sampler is not None else 0.0
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.span("cli.main", cli.main, argv)
        error = None
    except Exception as exc:  # the program crashed: a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        if sampler is not None:
            seconds -= sampler.spent - sampled
        sys.stdout = real
    out = sink.result()
    if tracer is not None:
        tracer.output_bytes += sink.bytes
    return {"argv0": argv[0], "seconds": seconds, "exit": code,
            "error": error, "out": out}


def run_pass(spec: dict, tracer=None, sampler=None) -> dict:
    """Run one pass; returns per-call timings and outputs.  Call times
    exclude the time the sampler's handler took."""
    calls = []
    if spec["workload"] == "long-map":
        for text in spec["sequences"]:
            mapped = _call(["map", text], True, tracer, sampler)
            calls.append(mapped)
            calls.append(_call(["unmap", mapped["out"].strip()], True, tracer,
                               sampler))
    elif spec["workload"] == "verify-sweep":
        calls.append(_call(["verify", str(spec["n"]), "--json"], True, tracer,
                           sampler))
    else:
        for side in SIDES:
            calls.append(_call(["enumerate", str(spec["n"]), "--stats", "--side",
                                side], False, tracer, sampler))
    return {"calls": calls, "wall": sum(c["seconds"] for c in calls)}


def main() -> None:
    spec = json.load(sys.stdin)
    result = {"ready": READY}
    if spec.get("workload"):
        if "--trace" in sys.argv[1:]:
            from tracer import Tracer

            with Tracer() as tracer:
                result.update(run_pass(spec, tracer))
            result["layers"] = tracer.metrics()
            result["layer_totals"] = tracer.totals()
            result["spans"] = tracer.spans
        else:
            with ReferenceSampler() as sampler:
                result.update(run_pass(spec, sampler=sampler))
            result["reference"] = sampler.mean()
            result["reference_samples"] = len(sampler.samples)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
