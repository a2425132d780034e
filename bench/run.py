"""Benchmark of spectradag's recovery pipeline, end to end and per layer.

    python3 bench/run.py --workload {exact-recovery,sweep-p10,recon-p20} \
        --seed N --seconds S --trace {0,1}

Runs one workload in this process against the package sources in ``src/``
next to this directory (nothing needs installing). Set-up (input
generation and warm-up) is repeated three times and its median kept. The
timed phase then attempts whole rounds of operations until ``--seconds``
have passed, and the outputs are checked afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` every operation
runs twice, once plain and once under the span tracer, and the metrics
are the per-layer ones plus the tracer's own overhead. Per-run results
and span dumps are written to ``bench/results/``.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when
the package sources are missing.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "models.build_ms": "ms",
    "cpsd.gamma_ms": "ms",
    "simulate.blocks_ms": "ms",
    "simulate.values_per_s": "1/s",
    "cpsd.estimate_ms": "ms",
    "reconstruct.order_ms": "ms",
    "reconstruct.parents_ms": "ms",
    "reconstruct.f_calls": "count",
    "cpsd.f_us": "us",
    "cpsd.ridge_rescues": "count",
    "cpsd.clamps": "count",
    "experiments.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("exact-recovery", "sweep-p10", "recon-p20")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _cap_blas_threads() -> None:
    """At most one BLAS thread per core this process may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result object, details for the result file)."""
    import numpy as np

    import tracing
    import workloads
    from spectradag.errors import ConfigError, NumericalError

    import_s = time.perf_counter() - PROCESS_START
    workload = workloads.WORKLOADS[name]
    tracer = tracing.Tracer() if trace else None

    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.patched() if tracer else nullcontext():
            state = workload.prepare(seed)
        setup.append(time.perf_counter() - t0)

    outputs, latencies, traced_s, errors = [], [], 0.0, []

    def attempt(i):
        """(output, or None when the operation raised; seconds taken)."""
        t0 = time.perf_counter()
        try:
            out = workload.run(state, i)
        except (ConfigError, NumericalError) as exc:
            errors.append(f"operation {i}: {type(exc).__name__}: {exc}")
            out = None
        return out, time.perf_counter() - t0

    i = 0
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_size):
            out, dt = attempt(i)
            outputs.append(out)
            latencies.append(dt)
            if tracer:
                with tracer.patched(), tracer.span("bench", name):
                    out, dt = attempt(i)
                outputs.append(out)
                traced_s += dt
            i += 1
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start

    done = [out for out in outputs if out is not None]
    problems = workload.check(state, done) if done else ["no operation succeeded"]
    metrics, units = {}, {}
    if done and trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_pct"] = 100.0 * (traced_s / sum(latencies) - 1.0)
        units = PER_LAYER_UNITS
        tracer.dump(RESULTS / f"{name}-seed{seed}-spans.json")
    elif done:
        ok_latencies = [dt for dt, out in zip(latencies, outputs) if out is not None]
        metrics = {
            "setup_s": import_s + float(np.median(setup)),
            "ops_per_s": len(ok_latencies) / elapsed,
            "op_p50_ms": 1e3 * float(np.percentile(ok_latencies, 50)),
            "op_p90_ms": 1e3 * float(np.percentile(ok_latencies, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(outputs),
        "failed": len(outputs) - len(done),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "elapsed_s": elapsed,
        "setup_s": setup,
        "import_s": import_s,
        "latencies_ms": [1e3 * dt for dt in latencies],
        "problems": problems,
        "errors": errors,
        "result": result,
    }
    return result, details


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spectradag" / "__init__.py").is_file():
        print(f"spectradag sources not found under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    RESULTS.mkdir(exist_ok=True)

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n"
    )
    status = "passed" if result["correct"] else "FAILED"
    print(
        f"{args.workload} seed {args.seed}: attempted {result['attempted']}, "
        f"failed {result['failed']}, output checks {status}"
    )
    for line in details["problems"][:10] + details["errors"][:10]:
        print(f"  {line}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<24} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
