"""Tests of the benchmark's own code: aggregation, self time, the samplers
and the speed gauge, and the tracing hooks (install, restore, and
byte-identical data products when traced).

    python3 -m pytest perfbench/tests
"""

import statistics
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from aggregate import median, quartiles, spread  # noqa: E402
from tracing import Hook, Span, Tracer, self_time  # noqa: E402

# The headline rates cut to 3 photons (dimension 8), so every op is cheap.
SMALL = {**workloads.HEADLINE, "n_trunc": 3}


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert median(values) == statistics.median(values)


def test_spread_is_quartile_distance_over_median():
    assert quartiles(range(1, 10)) == (2.5, 5.0, 7.5)
    assert spread(range(1, 10)) == pytest.approx(1.0)
    assert spread([2.0, 2.0, 2.0]) == 0.0


def test_single_value_is_its_own_quartiles():
    assert quartiles([0.7]) == (0.7, 0.7, 0.7)
    assert spread([0.7]) == 0.0
    with pytest.raises(ValueError):
        quartiles([])


def test_self_time_subtracts_merged_clipped_children():
    parent = Span("p", start=0.0, end=10.0)
    children = [
        Span("a", start=1.0, end=3.0),
        Span("b", start=2.0, end=4.0),    # overlaps a: [1, 4] counts once
        Span("c", start=8.0, end=12.0),   # clipped to the parent's end
        Span("d", start=5.0, end=5.0),    # empty
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_sampler_discards_warm_up_and_spreads_calls_over_the_run():
    calls = []
    sampler = run.Sampler(lambda: calls.append(None) or len(calls), samples=5)
    assert len(calls) == 1 and sampler.times == [] and sampler.results == []
    sampler(0.0)
    assert len(sampler.times) == 1
    sampler(0.39)                    # the second call is due at 0.2
    assert len(sampler.times) == 2
    sampler(1.0)
    sampler(1.0)
    assert len(sampler.times) == 5 and sampler.results == [2, 3, 4, 5, 6]


def test_gauge_times_each_named_part():
    task, reference_s = speed.gauge(("scalar", "matvec"))
    times = task()
    assert list(times) == ["scalar", "matvec"] and all(t > 0 for t in times.values())
    assert reference_s == pytest.approx(speed.PARTS["scalar"][1] + speed.PARTS["matvec"][1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_name_known_gauge_parts(name):
    parts = workloads.WORKLOADS[name].speed_parts
    assert parts and set(parts) <= set(speed.PARTS)


@pytest.fixture
def fake_module():
    module = types.ModuleType("perfbench_fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return module.leaf(x) * 2

    def boom():
        raise KeyError("boom")

    module.leaf, module.outer, module.boom = leaf, outer, boom
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_tracer_records_nested_spans_and_restores(fake_module):
    originals = {name: getattr(fake_module, name) for name in ("leaf", "outer", "boom")}
    tracer = Tracer([
        Hook("perfbench_fake", "outer", "fake.outer", lambda a, k, r: {"result": r}),
        Hook("perfbench_fake", "leaf", "fake.leaf"),
        Hook("perfbench_fake", "boom", "fake.boom"),
    ])
    with tracer:
        assert fake_module.outer is not originals["outer"]
        assert fake_module.outer(3) == 8
        with pytest.raises(KeyError):
            fake_module.boom()
        with pytest.raises(RuntimeError):
            tracer.install()
    for name, original in originals.items():
        assert getattr(fake_module, name) is original
    outer, leaf, boom = tracer.spans
    assert (outer.name, outer.parent, outer.attrs) == ("fake.outer", None, {"result": 8})
    assert (leaf.name, leaf.parent) == ("fake.leaf", 0)
    assert outer.start <= leaf.start <= leaf.end <= outer.end
    assert boom.attrs == {"error": "KeyError"} and boom.end >= boom.start
    assert fake_module.outer(3) == 8 and len(tracer.spans) == 3


def test_restore_rejects_a_name_hooked_twice(fake_module):
    original = fake_module.leaf
    tracer = Tracer([Hook("perfbench_fake", "leaf", "a"), Hook("perfbench_fake", "leaf", "b")])
    tracer.install()
    with pytest.raises(RuntimeError, match="not restored"):
        tracer.restore()
    fake_module.leaf = original


def _originals():
    import importlib

    return {(h.module, h.attr): getattr(importlib.import_module(h.module), h.attr)
            for h in workloads.HOOKS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_ops_reproduce_products_and_restore_hooks(name, tmp_path):
    before = _originals()
    workload = workloads.WORKLOADS[name](11, tmp_path, params=SMALL)
    tracer = Tracer(workloads.HOOKS)
    plain, traced = run.run_loop(workload, seconds=0.0, tracer=tracer)
    assert _originals() == before
    assert len(plain) == len(traced) == len(workload.round(0))
    for p, t in zip(plain, traced):
        assert p.problem is None and t.problem is None, (p.problem, t.problem)
        assert p.outcome.products == t.outcome.products
    problems, _ = workload.finish([p.outcome for p in plain])
    assert problems == []
    layers = workloads.layer_metrics(tracer.spans, len(traced))
    assert set(layers) | {"trace.op_s_mean_delta", "trace.work_per_s_delta"} == {
        m["name"] for m in run_spec()["per_layer"]
    }
    assert all(v >= 0 for v in layers.values())


def test_estimate_layers_count_one_preparation_per_candidate(tmp_path):
    workload = workloads.EstimateDefaultGrid(5, tmp_path, params=SMALL)
    tracer = Tracer(workloads.HOOKS)
    _, traced = run.run_loop(workload, seconds=0.0, tracer=tracer)
    layers = workloads.layer_metrics(tracer.spans, len(traced))
    n_cand = int(round(SMALL["g0_mhz"] / 0.5)) + 1
    assert layers["dynamics.prepare_propagator_calls"] == n_cand
    assert layers["io.parse_config_s"] > 0 and layers["io.read_record_s"] > 0
    assert layers["inference.likelihood_surface_self_s"] > 0
    assert layers["mastereq.steady_state_s"] == 0


def test_a_traced_product_that_differs_fails_the_op(tmp_path):
    module = sys.modules["qsysid.io"]

    class Fake:
        name = "fake"

        def round(self, k):
            def run_op():
                # the wrapper differs from the original only while traced
                return module.parse_config is original

            def check(plain):
                return workloads.Outcome(work=1, products={"out": repr(plain).encode()})

            return [workloads.Op("fake", run_op, check)]

    original = module.parse_config
    plain, traced = run.run_loop(Fake(), seconds=0.0, tracer=Tracer(workloads.HOOKS))
    assert plain[0].problem is None
    assert traced[0].problem == "traced products differ: out"
    assert module.parse_config is original


def run_spec():
    import json

    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())
