"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench
"""

import copy
import json
import sys
from os.path import abspath, dirname, join

sys.path.insert(0, dirname(abspath(__file__)))

import pytest  # noqa: E402

import child  # noqa: E402  (puts src/ on sys.path)
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import CHECKS  # noqa: E402

import ascentdyck  # noqa: E402

SMALL = {
    "verify-sweep": {"n": 6},
    "enumerate-stream": {"n": 6},
    "long-map": {"long_sizes": (12, 8, 96)},
}

# layers each workload must drive, and layers it must leave idle
BUSY = {
    "verify-sweep": set(LAYERS) - {"bijection.iter_pairs"},
    "long-map": {
        "bijection.forward_core", "bijection.inverse_core", "bijection.classify",
        "paths.key_downsteps", "paths.match_down", "paths.degree_of_elevation",
        "sequences.validate", "paths.validate", "cli.output",
    },
    "enumerate-stream": {
        "sequences.dfs", "paths.dfs", "bijection.iter_pairs",
        "bijection.forward_core", "paths.key_downsteps", "paths.match_down",
        "paths.degree_of_elevation", "sequences.validate", "paths.validate",
        "sequences.stats", "paths.stats", "cli.output",
    },
}
IDLE = {
    "verify-sweep": {"bijection.iter_pairs"},
    "long-map": {"sequences.dfs", "paths.dfs", "verify.fold", "verify.visit",
                 "bijection.iter_pairs"},
    "enumerate-stream": {"bijection.inverse_core", "bijection.classify",
                         "verify.fold", "verify.visit"},
}


def traced_pass(workload, seed=5):
    spec = workloads.make_spec(workload, seed, **SMALL[workload])
    with Tracer() as tracer:
        result = child.run_pass(spec, tracer)
    return spec, result, tracer


def _package_namespaces():
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "ascentdyck" or name.startswith("ascentdyck.")):
            yield name, vars(module)


def _originals():
    found = []
    for targets in LAYERS.values():
        for target in targets:
            holder = sys.modules[target[0]]
            if len(target) == 3:
                found.append(vars(getattr(holder, target[1]))[target[2]])
            else:
                found.append(getattr(holder, target[1]))
    verify = sys.modules["ascentdyck.verify"]
    found.extend(getattr(verify, "check_" + name) for name in CHECKS)
    return found


def test_every_layer_target_exists():
    assert len(_originals()) == sum(len(t) for t in LAYERS.values()) + len(CHECKS)


def test_tracer_rebinds_every_namespace_that_holds_a_layer():
    originals = _originals()
    ids = {id(fn) for fn in originals}
    from ascentdyck import bijection, cli, paths, verify

    with Tracer():
        for modname, namespace in _package_namespaces():
            for key, value in namespace.items():
                assert id(value) not in ids, f"{modname}.{key} left untraced"
                if type(value) is dict:
                    for dkey, dvalue in value.items():
                        assert id(dvalue) not in ids, f"{modname}.{key}[{dkey!r}]"
        for module, name in [
            (verify, "_forward_step_core"), (verify, "_iter_dyck_steps"),
            (verify, "_classify"), (bijection, "_key_downsteps"),
            (bijection, "_match_down"), (bijection, "_degree_of_elevation"),
            (paths, "_degree_of_elevation"), (cli, "iter_pairs"),
            (cli, "check_characterization"),
        ]:
            assert hasattr(getattr(module, name), "__wrapped__"), name
        assert all(hasattr(fn, "__wrapped__") for fn in cli._CHECKS.values()
                   if fn is not None)
    # uninstall restores the originals everywhere
    assert verify._forward_step_core is bijection._forward_step_core
    assert not hasattr(cli._CHECKS["roundtrip"], "__wrapped__")
    assert "__post_init__" not in vars(ascentdyck.DyckPath) or not hasattr(
        vars(ascentdyck.DyckPath)["__post_init__"], "__wrapped__")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_predictions_hold(workload):
    spec, result, tracer = traced_pass(workload)
    attempted, failed, _ = workloads.check_pass(spec, result)
    assert attempted > 0 and failed == 0
    metrics = tracer.metrics()
    for layer in BUSY[workload]:
        assert metrics[layer + ".calls"] > 0, layer
    for layer in IDLE[workload]:
        assert metrics[layer + ".calls"] == 0, layer
    cases = [metrics[f"bijection.forward_core.case{k}"] for k in (1, 2, 3, 4)]
    assert sum(cases) == metrics["bijection.forward_core.calls"]
    if workload == "verify-sweep":
        assert all(metrics[f"verify.check.{name}.total_s"] > 0 for name in CHECKS)
        assert metrics["verify.roundtrip.inverse_steps_per_object"] > 0
        assert metrics["verify.roundtrip.forward_steps_per_object"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_keeps_full_spans_only_at_coarse_boundaries(workload):
    _, result, tracer = traced_pass(workload)
    checks = len(CHECKS) if workload == "verify-sweep" else 0
    assert len(tracer.spans) == len(result["calls"]) + checks
    assert all(end >= start for _, start, end, _ in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload):
    def counts():
        metrics = traced_pass(workload)[2].metrics()
        return {k: v for k, v in metrics.items()
                if k.endswith((".calls", "_per_object")) or ".case" in k}

    assert counts() == counts()


def test_characterization_count_matches_the_recorded_sweep():
    assert workloads.ascent_prefix_count(10, 6) == 234218


def test_inputs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_spec(workload, 11, **SMALL[workload])
        assert a == workloads.make_spec(workload, 11, **SMALL[workload])
    long_a = workloads.make_spec("long-map", 1)
    long_b = workloads.make_spec("long-map", 2)
    assert long_a["sequences"] != long_b["sequences"]
    lengths = sorted(s.count(",") + 1 for s in long_a["sequences"])
    assert len(lengths) == 100 and lengths[0] >= 128 and lengths[-1] <= 2048


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_output_counts_as_failed(workload):
    spec = workloads.make_spec(workload, 2, **SMALL[workload])
    result = child.run_pass(spec)
    assert workloads.check_pass(spec, result)[1] == 0
    bad = copy.deepcopy(result)
    last = bad["calls"][-1]
    if workload == "verify-sweep":
        last["out"] = last["out"].replace('"paths_checked": 132', '"paths_checked": 131', 1)
    elif workload == "enumerate-stream":
        last["out"]["sha256"] = "0" * 64
    else:
        last["out"] = "0,1\n"
    assert workloads.check_pass(spec, bad)[1] >= 1
    crashed = copy.deepcopy(result)
    crashed["calls"][0]["exit"] = None
    assert workloads.check_pass(spec, crashed)[1] >= 1


def test_benchmark_json_names_exactly_the_reported_metrics():
    with open(join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) == set(Tracer().metrics()) | {"trace.overhead_s"}
    assert all(run._layer_unit(name) == unit for name, unit in per_layer.items())
    spec = workloads.make_spec("verify-sweep", 0)
    fake = {"wall": 2.0, "reference": 0.02, "objects": 10, "rss_kb": 2048,
            "calls": []}
    metrics, _ = run._end_to_end(spec, [fake], [0.05])
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
