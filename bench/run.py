"""diffpath benchmark: certified-result throughput on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload v2-scan --seed 1 --seconds 25 --trace 0

Workloads: v2-scan, spectrum, casimir, sampling (see README.md).  One
client in this process sends requests in a closed loop (the next request
goes out when the previous one has returned and been checked).  A run
sends a fixed amount of work for its seed: the workload's fixed reference
requests and ``4n`` seeded requests, with n set from ``--seconds`` by
``N_PER_S``.  Fixed work makes the attempted and failed counts repeat
exactly for a seed.  Every result is checked against its reference; every
failed result is listed with its reason.  Reported wall times are scaled
to a reference machine speed (speed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends a
smaller deck (``TRACE_N``) twice, untraced and then traced, checks
that both give bit-identical values, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; a run record with
versions, sample counts and failures also goes to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH, "out")

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3

# n (the deck has 4n seeded requests) per second of --seconds.  At 25 s the
# decks take about 18-24 s at the recorded baseline, except casimir's, about
# 33 s: its requests are the slowest, and its 90th latency percentile needs
# about 100 requests to have 10 samples beyond it (README.md).  The median
# latency sits between clusters of request kinds, so n is not free: with
# n = 36 instead of 40, v2-scan's median latency spread 15% over ten seeds
# instead of 2-4%, and spectrum's figures spread 11-17% at n = 48 against
# 5-7% at n = 64.
N_PER_S = {"v2-scan": 1.6, "spectrum": 2.56, "casimir": 0.96, "sampling": 1.6}

# The traced run sends a deck of this n twice: untraced, then traced.  Each
# pass takes about 8-10 s at the recorded baseline.
TRACE_N = {"v2-scan": 16, "spectrum": 16, "casimir": 4, "sampling": 20}

# The smallest request of each workload, sent by a fresh interpreter after
# ``import diffpath.cli`` to measure set-up time.
SETUP_CODE = {
    "v2-scan": "from diffpath import ModelParams, velocity\n"
    "velocity.scan_v2([0.1], ModelParams(A=10.0), 'differentiable')",
    "spectrum": "from diffpath import ModelParams, oscillator\n"
    "oscillator.log_pi(1.0, ModelParams(epsilon_D=0.1, omega=1.0), 1e-6, 100000)",
    "casimir": "from diffpath import casimir\n"
    "casimir.casimir_energy(casimir.CasimirConfig(L=1.0, omega_D=100.0, n_c=1000, regulator='gauss'))",
    "sampling": "from diffpath import ModelParams, mc\n"
    "mc.estimate_v2(ModelParams(A=10.0), 0.05, 0.0, 100, 2000, 0)",
}

END_TO_END = {
    "points_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "pass_ratio": "ratio",
    "digits_min": "digits",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> unit; names follow <module>.<function>.<counter> as the tracer records them.
PER_LAYER = {
    "special.one_minus_zed.elems": "count",
    "special.one_minus_zed.self_s": "s",
    "special.log_erf.elems": "count",
    "special.log_erf.self_s": "s",
    "special.chunked_sum.elems": "count",
    "special.chunked_sum.self_s": "s",
    "velocity.s_feynman.calls": "count",
    "velocity.s_feynman.terms": "count",
    "velocity.s_feynman.self_s": "s",
    "velocity.s_diff.calls": "count",
    "velocity.s_diff.terms": "count",
    "velocity.s_diff.self_s": "s",
    "velocity.s_diff.unconverged": "count",
    "velocity.scan_v2.self_s": "s",
    "commutator.commutator_expectation.calls": "count",
    "commutator.commutator_expectation.self_s": "s",
    "commutator.commutator_expectation.errors": "count",
    "oscillator.log_pi.calls": "count",
    "oscillator.log_pi.terms": "count",
    "oscillator.log_pi.self_s": "s",
    "oscillator.log_pi.unconverged": "count",
    "oscillator.unitarity_diagnostic.self_s": "s",
    "oscillator.scan_E0_vs_omega.self_s": "s",
    "casimir.sum_minus_integral.calls": "count",
    "casimir.sum_minus_integral.terms": "count",
    "casimir.sum_minus_integral.self_s": "s",
    "casimir.extrapolated_delta.self_s": "s",
    "mc.sample_truncated_gaussian.calls": "count",
    "mc.sample_truncated_gaussian.samples": "count",
    "mc.sample_truncated_gaussian.draws_per_sample": "ratio",
    "mc.sample_truncated_gaussian.self_s": "s",
    "mc.estimate_v2.self_s": "s",
    "mc.estimate_pi_factor.self_s": "s",
    "paths.sample_brownian.self_s": "s",
    "paths.eval_path.elems": "count",
    "paths.eval_path.self_s": "s",
    "setup.import.diffpath_s": "s",
    "setup.import.scipy_special_s": "s",
    "setup.import.scipy_integrate_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_points_per_s": "1/s",
}


try:
    _LIBC = ctypes.CDLL("libc.so.6")
except OSError:  # not glibc
    _LIBC = None


def release_free_memory() -> None:
    """Return freed heap pages to the OS between requests (glibc malloc_trim).

    glibc keeps freed arrays below its adaptive mmap threshold (up to 32 MB)
    on the heap, so without this the peak RSS depends on the order in which
    earlier requests allocated; with it, peak_rss_mb is the largest live set
    of any single request.
    """
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


class Record:
    __slots__ = ("request", "latency", "results")

    def __init__(self, request, latency, results):
        self.request, self.latency, self.results = request, latency, results


def closed_loop(requests, workloads, meter, tracer=None) -> list:
    """Send the requests one at a time, each after the previous one has returned and been checked.

    The speed kernel (``meter``) runs after every request, outside the timed span.
    """
    records = []
    for req in requests:
        if tracer is not None:
            tracer.request = len(records)
        t0 = time.perf_counter()
        try:
            out, exc = req.call(), None
        except Exception as e:  # a failing request is still timed and counted
            out, exc = None, e
        latency = time.perf_counter() - t0
        if exc is None:
            results = req.check(out)
        else:
            labels = [f"{req.kind} point {i}" for i in range(req.n_points)]
            results = workloads.failed_all(labels, f"raised {type(exc).__name__}: {exc}")
        records.append(Record(req, latency, results))
        release_free_memory()
        meter.sample()
    return records


def deck_n(workload: str, seconds: float) -> int:
    """n for a run of about ``seconds`` (see N_PER_S); a multiple of 4."""
    return 4 * max(1, round(seconds * N_PER_S[workload] / 4))


def hd_quantile(sorted_x, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    Request latencies come in clusters (request kinds, grid sizes); the
    plain sample quantile jumps when it falls between two clusters, the
    Harrell-Davis estimate moves smoothly.
    """
    import numpy as np  # imported here: main() fixes the BLAS threads before numpy loads
    from scipy import special

    n = len(sorted_x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    edges = special.betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_x))


def summarize(records, factor: float) -> dict:
    """End-to-end figures; wall times are multiplied by ``factor`` (speed.py)."""
    results = [r for rec in records for r in rec.results]
    ok = sum(r.ok for r in results)
    raw_busy = sum(rec.latency for rec in records)
    busy = raw_busy * factor
    lat_ms = sorted(rec.latency * factor * 1e3 for rec in records)
    p50, p90 = hd_quantile(lat_ms, 0.5), hd_quantile(lat_ms, 0.9)
    digits = [r.digits for r in results if r.digits is not None and math.isfinite(r.value)]
    return {
        "attempted": len(results),
        "failed": len(results) - ok,
        "wrong": sum(r.wrong for r in results),
        "requests": len(records),
        "busy_s": busy,
        "raw_busy_s": raw_busy,
        "points_per_s": ok / busy if busy > 0 else 0.0,
        "request_p50_ms": p50,
        "request_p90_ms": p90,
        "samples_beyond_p50": sum(x > p50 for x in lat_ms),
        "samples_beyond_p90": sum(x > p90 for x in lat_ms),
        "pass_ratio": ok / len(results) if results else 0.0,
        "digits_min": min(digits) if digits else 0.0,
        "digits_samples": len(digits),
    }


def failures(records, workloads) -> list:
    out = []
    for i, rec in enumerate(records):
        for r in rec.results:
            if not r.ok:
                out.append(f"request {i} {workloads.describe(rec.request)} :: {r.label}: {r.reason}")
    return out


def setup_once(workload: str, meter, importtime: bool = False):
    """Wall time and stderr of a fresh interpreter that imports diffpath.cli and sends the smallest request.

    The speed kernel (``meter``) runs 10 times before and 10 times after.
    """
    code = "import diffpath.cli\n" + SETUP_CODE[workload]
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    env = dict(os.environ, PYTHONPATH=SRC)
    meter.sample(10)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    meter.sample(10)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up request failed:\n{proc.stderr[-2000:]}")
    return elapsed, proc.stderr


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of diffpath (top-level entries), scipy.special, scipy.integrate."""
    out = {"diffpath": 0.0, "scipy.special": 0.0, "scipy.integrate": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) * 1e-6
        raw = parts[2].rstrip()
        name = raw.strip()
        top_level = len(raw) - len(raw.lstrip()) <= 1
        if top_level and (name == "diffpath" or name.startswith("diffpath.")):
            out["diffpath"] += cumulative
        elif name in ("scipy.special", "scipy.integrate"):
            out[name] += cumulative
    return out


def run_record(args) -> dict:
    import mpmath
    import numpy
    import scipy

    sha = "unavailable (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "client": "closed loop, one client, one process",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("v2-scan", "spectrum", "casimir", "sampling"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diffpath", "__init__.py")):
        print(f"error: no diffpath package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    # single-threaded BLAS, in this process and in the set-up interpreters
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import diffpath

    if not os.path.abspath(diffpath.__file__).startswith(SRC + os.sep):
        print(f"error: imported diffpath from {diffpath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    record = run_record(args)
    meter = speed.Speedometer(speed.INTERP_WEIGHT[args.workload])
    record["reference_kernel_s"] = {"vector": speed.REFERENCE_VECTOR_S, "interp": speed.REFERENCE_INTERP_S,
                                    "interp_weight": meter.interp_weight}
    refs = workloads.load_references()
    record["references"] = {k: refs[k] for k in ("mpmath_version", "mpmath_dps")}
    modules = [importlib.import_module("diffpath." + layer) for layer in tracing.LAYERS]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace == 0:
        setups = [setup_once(args.workload, meter)[0] for _ in range(SETUP_REPEATS)]
        record["deck_n"] = deck_n(args.workload, args.seconds)
        records = closed_loop(workloads.deck(args.workload, args.seed, record["deck_n"], refs), workloads, meter)
        factor = meter.factor()
        summary = summarize(records, factor)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary["setup_s"] = statistics.median(setups) * factor
        record["setup_runs_s"] = setups
        correct = summary["wrong"] == 0
        metrics = {name: summary[name] for name in END_TO_END}
        units = END_TO_END
    else:
        imports = [import_times(setup_once(args.workload, meter, importtime=True)[1])
                   for _ in range(IMPORTTIME_REPEATS)]
        record["deck_n"] = TRACE_N[args.workload]
        plain = closed_loop(workloads.deck(args.workload, args.seed, record["deck_n"], refs), workloads, meter)
        tracer = tracing.Tracer()
        with tracer:
            tracer.install(modules)
            records = closed_loop(workloads.deck(args.workload, args.seed, record["deck_n"], refs),
                                  workloads, meter, tracer=tracer)
        identical = [repr([r.value for r in a.results]) == repr([r.value for r in b.results])
                     for a, b in zip(plain, records)]
        factor = meter.factor()
        summary = summarize(records, factor)
        base = summarize(plain, factor)
        table = tracer.layer_table()
        for key, label in (("diffpath", "diffpath"), ("scipy.special", "scipy_special"),
                           ("scipy.integrate", "scipy_integrate")):
            table[f"setup.import.{label}_s"] = statistics.median(t[key] for t in imports)
        table["trace.untraced_points_per_s"] = base["points_per_s"]
        table["trace.overhead_ratio"] = summary["points_per_s"] / base["points_per_s"] if base["points_per_s"] else 0.0
        record["untraced_summary"] = base
        record["identical_values"] = all(identical) and len(identical) == len(plain)
        record["layer_table"] = dict(sorted(table.items()))
        tracer.write_spans(stem + ".spans.csv")
        correct = summary["wrong"] == 0 and base["wrong"] == 0 and record["identical_values"]
        metrics = {name: table.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER

    record["speed_factor"] = factor
    record["speed_kernel_median_s"] = {"vector": statistics.median(meter.vector),
                                       "interp": statistics.median(meter.interp), "samples": len(meter.vector)}
    record["summary"] = summary
    record["latencies_ms"] = [round(rec.latency * 1e3, 3) for rec in records]
    record["failures"] = failures(records, workloads)
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    for line in record["failures"]:
        print("FAIL", line)
    print(json.dumps({k: v for k, v in record.items() if k not in ("failures", "layer_table", "latencies_ms")}, default=str))
    if args.trace:
        for name, value in record["layer_table"].items():
            print(f"layer {name} = {value:.6g}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
