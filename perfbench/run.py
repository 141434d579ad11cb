"""ffcert benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify-m1e4 --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout and nowhere else.  The
process pins BLAS to one thread before NumPy loads.  With ``--trace 0`` it runs
whole cycles of ops until ``--seconds`` of op time have passed, and sets the
workload up several times, spread between cycles (``setup_s`` is the median).
With ``--trace 1`` it runs a fixed number of cycles untraced, then sets up and
runs the same number of cycles with every ffcert layer wrapped in spans.  Every
op and set-up is timed between two runs of the speed probe (``speed.py``), and
the reported times are scaled to the probe's reference speed; the raw times
are printed beside them.  After timing, every op is checked against a reference.  Human-readable lines come first; the last
line of standard output is the JSON result.  Spans and the full result go to
``.perfbench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
TAIL_MIN_OPS = 2 * TAIL_BEYOND  # below this the "tail" would sit under the median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_run"


def measure(w, first_op: int, cycles: int, probe, tracer=None):
    """Run ``cycles`` whole cycles of ops, each between two probe runs;
    returns the results and the summed raw op time."""
    from speed import scaled
    from workloads import OpResult

    results = []
    busy = 0.0
    i = first_op
    after = probe()
    for _ in range(cycles):
        for _ in range(w.cycle_len):
            if tracer is not None:
                tracer.op = i
            before = after
            t0 = time.perf_counter()
            try:
                value, error = w.op(i, tracer), None
            except Exception:  # a failed op is counted, and the run goes on
                value, error = None, traceback.format_exc()
            latency = time.perf_counter() - t0
            after = probe()
            outcome = None
            if error is None:
                try:
                    outcome = w.observe(i, value)
                except Exception:
                    error = traceback.format_exc()
            results.append(OpResult(i, latency, scaled(latency, before, after), outcome, error))
            busy += latency
            i += 1
    return results, busy


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND ops above it."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def run_untraced(w, seconds: float, probe):
    """Whole cycles until ``seconds`` of raw op time.  The set-ups are spread
    between cycles, so that ``setup_s`` samples the same stretch of machine time
    as the ops."""
    from speed import REF_S, scaled

    setups, raw_setups = [], []

    def timed_setup():
        before = probe()
        t0 = time.perf_counter()
        w.setup()
        raw_setups.append(time.perf_counter() - t0)
        setups.append(scaled(raw_setups[-1], before, probe()))

    timed_setup()
    results, busy = [], 0.0
    while busy < seconds or not results:
        more, more_busy = measure(w, len(results), 1, probe)
        results += more
        busy += more_busy
        while busy < seconds and len(setups) < w.setup_repeats * busy / seconds:
            timed_setup()
    while len(setups) < w.setup_repeats:
        timed_setup()
    # read before the checks, whose dense references are not the workload's memory
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = w.check(results)
    latencies = [r.scaled for r in results]
    raw = [r.latency for r in results]
    n = len(results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_s_p50": (statistics.median(latencies), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.6g} s (median of {len(setups)} set-ups; "
        f"raw {statistics.median(raw_setups):.6g} s)",
        f"ops_per_s {metrics['ops_per_s'][0]:.6g} 1/s ({n} ops; raw {n / busy:.6g} 1/s, "
        f"{busy:.3f} s)",
        f"op_s_p50 {metrics['op_s_p50'][0]:.6g} s (n={n}; raw {statistics.median(raw):.6g} s)",
    ]
    t = tail(latencies)
    lines.append(f"op_s_tail {t[0]:.6g} s (p{t[1]:.1f}, n={n})" if t else
                 f"op_s_tail omitted (n={n} < {TAIL_MIN_OPS})")
    lines += [f"fail_frac {len(failed) / n:.6g} ({len(failed)}/{n})",
              f"peak_rss_mb {metrics['peak_rss_mb'][0]:.6g} MB",
              f"probe_s {statistics.median(probe.times):.6g} s "
              f"(median of {len(probe.times)}; reference {REF_S} s)"]
    extra = {"setups_s": setups, "raw_setups_s": raw_setups, "latencies_s": latencies,
             "raw_latencies_s": raw, "probe_s": probe.times,
             "op_s_tail": t, "fail_frac": len(failed) / n}
    return results, failed, metrics, lines, extra


def run_traced(w, out_stem: Path, probe):
    import spans

    w.setup()
    untraced, _ = measure(w, 0, w.trace_cycles, probe)
    tracer, stats = spans.Tracer(), spans.LayerStats()
    restore = spans.install(tracer, stats)
    try:
        w.setup()
        traced, busy_t = measure(w, len(untraced), w.trace_cycles, probe, tracer)
    finally:
        restore()
    tracer.write(str(out_stem) + ".spans.jsonl")
    results = untraced + traced
    failed = w.check(results)
    scaled_u = sum(r.scaled for r in untraced)
    scaled_t = sum(r.scaled for r in traced)
    overhead = 1.0 - (len(traced) / scaled_t) / (len(untraced) / scaled_u)
    values = spans.layer_metrics(tracer.spans, stats, overhead)
    units = dict(spans.LAYER_METRICS)
    metrics = {k: (v, units[k]) for k, v in values.items()}
    lines = [f"{k} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"traced batch: {len(traced)} ops in {scaled_t:.3f} s scaled "
                 f"({busy_t:.3f} s raw); untraced: {len(untraced)} ops in {scaled_u:.3f} s scaled")
    return results, failed, metrics, lines, {"spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    for var in BLAS_ENV:  # before NumPy is imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "ffcert" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ffcert package under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    import ffcert

    if Path(ffcert.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"perfbench: ffcert imported from {ffcert.__file__}, not {src}\n")
        return 2
    import speed
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    w = workloads.make(args.workload, args.seed, OUT / "work")
    probe = speed.SpeedProbe()
    if args.trace:
        results, failed, metrics, lines, extra = run_traced(w, stem, probe)
    else:
        results, failed, metrics, lines, extra = run_untraced(w, args.seconds, probe)

    for r in results:
        if r.error is not None:
            sys.stderr.write(f"op {r.index} failed:\n{r.error}\n")
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "ops": len(results), **w.info(), **environment()}
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result, **extra}, fh, indent=1)
    print(f"info {json.dumps(info)}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
