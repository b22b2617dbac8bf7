"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from diffpath import ModelParams  # noqa: E402


def _seeded(workload, seed, n=4):
    """The seeded requests of a deck (the fixed reference requests skipped)."""
    n_fixed = len(workloads.deck(workload, seed, 0))
    return workloads.deck(workload, seed, n)[n_fixed:]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        return [workloads.describe(r) for r in _seeded(workload, seed)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)
    assert len(inputs(7)) == 16


@pytest.mark.parametrize("n", [4, 12, 16, 40])
def test_points_are_stratified(n):
    points = workloads._points(workloads.random.Random(3), n, 5)
    assert points.shape == (n, 5)
    # every coordinate puts n/4 points in each quarter of [0, 1) ...
    for column in points.T:
        assert sorted(int(4 * x) for x in column) == sorted(list(range(4)) * (n // 4))
    # ... and, for n = 16, one in each sixteenth and one in each cell of a 4 x 4 grid
    if n == 16:
        assert sorted(int(16 * x) for x in points[:, 0]) == list(range(16))
        assert sorted(int(4 * x) * 4 + int(4 * y) for x, y in points[:, :2]) == list(range(16))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_send_the_same_mix(workload):
    def kinds(seed):
        keys = ("model", "n_terms", "regulator")
        return sorted(repr((r.kind, [r.args.get(k) for k in keys])) for r in _seeded(workload, seed))

    assert kinds(1) == kinds(2)


def test_fixed_requests_cover_pinned_references():
    refs = workloads.load_references()
    fixed = [r for w in ("v2-scan", "spectrum") for r in workloads.deck(w, 0, 0, refs)]
    eps = sorted(e for r in fixed if r.kind == "v2" for e in r.args["eps"])
    assert eps == sorted(c["eps"] for c in refs["v2_diff"])
    assert {c["route"] for c in refs["v2_diff"]} == {"direct", "via_feynman"}
    assert max(c["T"] for c in refs["log_pi"]) == 5.0


def test_perturbed_v2_result_fails():
    p = ModelParams(A=10.0, alpha=2.1)
    req = workloads.v2_request(p, [0.01, 0.1])
    out = req.call()
    assert all(r.ok for r in req.check(out))
    row = out["feynman"][0]
    pref = workloads.v2_prefactor(row.eps, p)
    allowed = pref * (row.tail_bound + workloads.series_rounding(row.v2 / pref))
    out["feynman"][0] = dataclasses.replace(row, v2=row.v2 + 10.0 * allowed)
    first = req.check(out)[0]
    assert not first.ok and first.wrong
    # a result just inside its bound still passes
    out["feynman"][0] = dataclasses.replace(row, v2=pref * workloads.s_feynman_exact(row.eps) + 0.5 * allowed)
    assert req.check(out)[0].ok


def test_perturbed_estimate_fails():
    p = ModelParams(A=2.0, alpha=2.5)
    req = workloads.oracle_request(p, 0.05, 100, 2000, 3)
    est, analytic = req.call()
    assert all(r.ok for r in req.check((est, analytic)))
    width = 5.0 * est.stderr + est.truncation_bias_bound
    bad = dataclasses.replace(est, mean=analytic + 2.0 * width)
    assert [r.ok for r in req.check((bad, analytic))] == [True, False]


def test_perturbed_casimir_and_log_pi_fail():
    req = workloads.casimir_request("tanh", "gauss", 1000, 100.0, [1.0])
    out = req.call()
    assert req.check(out)[0].ok
    bad = [dataclasses.replace(out[0], delta=out[0].delta + 1e-6)]
    assert req.check(bad)[0].wrong

    refs = workloads.load_references()
    case = refs["log_pi"][0]
    p = ModelParams(epsilon_D=0.1, alpha=2.1, omega=case["omega"])
    req = workloads.log_pi_request(p, [case["T"]], 1e-6, None, refs={case["T"]: (case["log_pi"], case["log_pi_err"])})
    out = req.call()
    assert req.check(out)[0].ok
    bad = [dataclasses.replace(out[0], log_pi=out[0].log_pi + 10.0 * out[0].tail_bound + 1e-9)]
    assert req.check(bad)[0].wrong


def test_tanh_reference_series():
    x = 0.03
    assert workloads.tanh_casimir_delta(x) == pytest.approx(-1.0 / 12.0 - x**2 / 360.0 - x**4 / 1890.0, rel=1e-11)
    assert workloads.tanh_casimir_delta(1e-9) == -1.0 / 12.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_values_identical(workload):
    import importlib

    batch = _seeded(workload, 11)[:16]
    if workload == "casimir":  # keep the test short: only the smaller half of n_c
        batch = [r for r in batch if r.args["n_c"] < 3200]
    plain = run.closed_loop(batch, workloads, speed.Speedometer(0.5))
    tracer = tracing.Tracer()
    modules = [importlib.import_module("diffpath." + layer) for layer in tracing.LAYERS]
    with tracer:
        tracer.install(modules)
        traced = run.closed_loop(batch, workloads, speed.Speedometer(0.5), tracer=tracer)
    assert len(plain) == len(traced) == len(batch)
    for a, b in zip(plain, traced):
        assert repr([r.value for r in a.results]) == repr([r.value for r in b.results])
    table = tracer.layer_table()
    assert tracer.spans and all(v >= 0 for k, v in table.items() if k.endswith(".self_s"))
    # uninstall restores the originals
    assert all(not hasattr(getattr(m, name), "__wrapped__") for m in modules for name in dir(m))


def test_counting_rng_leaves_stream_unchanged():
    import numpy as np

    a = np.random.default_rng(5)
    b = tracing.CountingRng(np.random.default_rng(5))
    assert np.array_equal(a.normal(size=7), b.normal(size=7))
    assert np.array_equal(a.uniform(size=3), b.uniform(size=3))
    assert b.draws == 10


def test_self_time_excludes_children():
    t = tracing.Tracer()
    t.spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 2.0, 5.0, 0, 0], ["inner", 6.0, 7.0, 0, 0]]
    assert t.self_times() == {"outer": 6.0, "inner": 4.0}


def test_import_times_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |       2000 |     scipy.special",
        "import time:        50 |       3000 |   diffpath.special",
        "import time:        10 |       4000 | diffpath",
        "import time:        20 |        500 |   scipy.integrate",
        "import time:        30 |       1000 | diffpath.cli",
    ])
    assert run.import_times(stderr) == pytest.approx(
        {"diffpath": 0.005, "scipy.special": 0.002, "scipy.integrate": 0.0005})


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_summary_percentiles_and_digits():
    R = workloads.Result
    recs = [run.Record(None, 0.001 * (i + 1), [R("x", 1.0, True, True, digits=5.0 + i)]) for i in range(100)]
    s = run.summarize(recs, 2.0)
    assert s["requests"] == 100 and s["samples_beyond_p90"] == 10
    assert s["digits_min"] == 5.0 and s["pass_ratio"] == 1.0
    assert math.isclose(s["points_per_s"], 100 / (2.0 * sum(0.001 * (i + 1) for i in range(100))))
    assert math.isclose(s["raw_busy_s"], s["busy_s"] / 2.0)


def test_speed_factor_scales_to_reference():
    meter = speed.Speedometer(0.5)
    meter.sample(5)
    assert len(meter.vector) == len(meter.interp) == 5
    meter.vector = [speed.REFERENCE_VECTOR_S / 2.0] * 3 + [1.0]  # the median ignores one outlier
    meter.interp = [speed.REFERENCE_INTERP_S / 8.0] * 3
    assert math.isclose(meter.factor(), 4.0)  # sqrt(2 * 8)
    meter.interp_weight = 0.0
    assert math.isclose(meter.factor(), 2.0)
    assert set(speed.INTERP_WEIGHT) == set(workloads.WORKLOADS)
