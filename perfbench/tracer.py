"""Per-layer tracing of ascentdyck from outside the package.

The tracer rebinds the package's layer functions to timing wrappers in
every ``ascentdyck`` module namespace that holds them (and in module-level
dicts such as ``cli._CHECKS``), because ``verify``, ``cli`` and
``bijection`` import those functions by name.  ``src/`` is never edited.

Memory stays bounded however many calls a pass makes.  Inner layers only
aggregate ``[calls, total_s, self_s]`` on a span stack: each wrapper pushes
a child-time accumulator, and on return adds its duration to the parent's
accumulator, so self time is duration minus the time covered by traced
callees.  A generator layer counts one span per ``next()``.  Full spans
(name, start, end, parent) are kept only at the coarse boundaries: each
``check_*`` call and each ``main()`` call.

Which end-to-end figure each layer should move, per workload:

- inverse_core, classify, key_downsteps, match_down and
  roundtrip inverse steps per object: verify-sweep and long-map (unmap);
  no change on enumerate-stream;
- forward_core and degree_of_elevation: long-map (map) and the pairs side
  of enumerate-stream; verify-sweep only modestly;
- verify.fold, *.dfs and iter_pairs: verify-sweep and enumerate-stream;
  no change on long-map;
- verify.visit: verify-sweep only;
- *.validate, *.stats and cli.output: enumerate-stream mostly; validation
  and output move long-map slightly; verify-sweep barely.

Caching or a larger coverage bitmap shows in peak_rss_mb, and work moved
into import time in setup_s.
"""

from __future__ import annotations

import functools
import sys
import time

from workloads import CHECKS

# layer name -> (module, attribute) of each function the layer covers.
# A (module, class, attribute) triple names a method.  A target the
# package no longer has is skipped and its layer reads zero calls.
LAYERS = {
    "sequences.dfs": [("ascentdyck.sequences", "_iter_021_entries")],
    "paths.dfs": [("ascentdyck.paths", "_iter_dyck_steps")],
    "verify.fold": [("ascentdyck.verify", "_fold_family")],
    "bijection.iter_pairs": [("ascentdyck.bijection", "iter_pairs")],
    "bijection.forward_core": [("ascentdyck.bijection", "_forward_step_core")],
    "bijection.inverse_core": [("ascentdyck.bijection", "_inverse_step_core")],
    "bijection.classify": [("ascentdyck.bijection", "_classify")],
    "paths.key_downsteps": [("ascentdyck.paths", "_key_downsteps")],
    "paths.match_down": [("ascentdyck.paths", "_match_down")],
    "paths.degree_of_elevation": [("ascentdyck.paths", "_degree_of_elevation")],
    # the visit callbacks are wrapped by the verify.fold wrapper
    "verify.visit": [],
    "sequences.validate": [("ascentdyck.sequences", "AscentSequence", "__post_init__")],
    "paths.validate": [
        ("ascentdyck.paths", "DyckPath", "__post_init__"),
        ("ascentdyck.paths", "_is_valid_steps"),
    ],
    "sequences.stats": [("ascentdyck.sequences", "_sequence_stats_raw")],
    "paths.stats": [("ascentdyck.paths", "_path_stats_raw")],
    # timed by the benchmark's stdout sink, see Tracer.output_write
    "cli.output": [],
}

GENERATOR_LAYERS = {"sequences.dfs", "paths.dfs", "bijection.iter_pairs"}
CASE_LAYERS = ("bijection.forward_core", "bijection.inverse_core")



class _TracedIter:
    """Iterator proxy that records one span per ``next()``."""

    __slots__ = ("_it", "_agg", "_stack")

    def __init__(self, it, agg, stack):
        self._it = it
        self._agg = agg
        self._stack = stack

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return next(self._it)
        finally:
            dt = time.perf_counter() - t0
            agg = self._agg
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - stack.pop()
            stack[-1] += dt


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.metrics()`` after."""

    def __init__(self):
        # stack[0] is the root accumulator; it absorbs untraced time
        self._stack = [0.0]
        self.layers = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.cases = {name: [0] * 5 for name in CASE_LAYERS}
        self.check_total = {name: 0.0 for name in CHECKS}
        self.roundtrip_steps = {"objects": 0, "inverse": 0, "forward": 0}
        self.output_bytes = 0
        self.spans: list[tuple[str, float, float, int]] = []
        self._open_spans: list[int] = []
        self._undo: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, agg, on_result=None):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - stack.pop()
                stack[-1] += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _generator(self, fn, agg):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedIter(fn(*args, **kwargs), agg, stack)

        return traced

    def _fold(self, fn, agg):
        visit_agg = self.layers["verify.visit"]
        inner = self._timed(fn, agg)

        @functools.wraps(fn)
        def traced(n, visit, *args, **kwargs):
            return inner(n, self._timed(visit, visit_agg), *args, **kwargs)

        return traced

    def _case_counter(self, layer):
        counts = self.cases[layer]

        def on_result(result):
            try:
                case_id = result[1]
            except (TypeError, IndexError):
                return
            if case_id in (1, 2, 3, 4):
                counts[case_id] += 1

        return on_result

    def _check(self, name, fn):
        fwd = self.layers["bijection.forward_core"]
        inv = self.layers["bijection.inverse_core"]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = (fwd[0], inv[0])
            start = len(self.spans)
            report = self.span("verify.check." + name, fn, *args, **kwargs)
            self.check_total[name] += self.spans[start][2] - self.spans[start][1]
            if name == "roundtrip":
                steps = self.roundtrip_steps
                steps["objects"] += report.sequences_checked + report.paths_checked
                steps["forward"] += fwd[0] - before[0]
                steps["inverse"] += inv[0] - before[1]
            return report

        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a full span; spans nest by call order."""
        index = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._open_spans.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._open_spans.pop()
            name, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def output_write(self, write):
        """Wrap a sink's ``write`` as the cli.output layer."""
        return self._timed(write, self.layers["cli.output"])

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        # every package namespace and module-level dict that holds the
        # function must see the wrapper, or calls through it go untraced
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "ascentdyck" or modname.startswith("ascentdyck.")
            ):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    namespace[key] = wrapper
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._undo.append((value, dkey, original))
                            value[dkey] = wrapper

    def install(self) -> "Tracer":
        import ascentdyck.cli  # noqa: F401  loads every layer module

        for layer, targets in LAYERS.items():
            agg = self.layers[layer]
            for target in targets:
                module = sys.modules[target[0]]
                if len(target) == 3:
                    cls = getattr(module, target[1], None)
                    method = cls and cls.__dict__.get(target[2])
                    if method is None:
                        continue
                    setattr(cls, target[2], self._timed(method, agg))
                    self._undo.append((cls, target[2], method))
                    continue
                fn = getattr(module, target[1], None)
                if fn is None:
                    continue
                if layer in GENERATOR_LAYERS:
                    wrapper = self._generator(fn, agg)
                elif layer == "verify.fold":
                    wrapper = self._fold(fn, agg)
                elif layer in CASE_LAYERS:
                    wrapper = self._timed(fn, agg, self._case_counter(layer))
                else:
                    wrapper = self._timed(fn, agg)
                self._rebind(fn, wrapper)
        verify = sys.modules["ascentdyck.verify"]
        for name in CHECKS:
            fn = getattr(verify, "check_" + name, None)
            if fn is not None:
                self._rebind(fn, self._check(name, fn))
        return self

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat per-layer figures, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for layer, (calls, _, self_s) in self.layers.items():
            out[layer + ".calls"] = calls
            out[layer + ".self_s"] = self_s
        for layer, counts in self.cases.items():
            for case_id in (1, 2, 3, 4):
                out[f"{layer}.case{case_id}"] = counts[case_id]
        for name, total in self.check_total.items():
            out[f"verify.check.{name}.total_s"] = total
        steps = self.roundtrip_steps
        objects = steps["objects"]
        for kind in ("inverse", "forward"):
            out[f"verify.roundtrip.{kind}_steps_per_object"] = (
                steps[kind] / objects if objects else 0.0
            )
        out["cli.output.bytes"] = self.output_bytes
        return out

    def totals(self) -> dict[str, float]:
        """Total (inclusive) time per layer, for the detail record."""
        return {layer + ".total_s": agg[1] for layer, agg in self.layers.items()}
