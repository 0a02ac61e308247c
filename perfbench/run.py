"""gridtrade benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
alternates untraced passes with passes that record spans around every
layer's entry points, and reports the per-layer metrics, the span coverage
and the tracing overhead. Human-readable lines come first; the last line of
stdout is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. Run from the root of a gridtrade checkout; outputs go to
perfbench/out/<workload>/.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads, here and in every set-up child:
# on a small host, default thread pools measure the scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/gridtrade/__init__.py", "configs/reference.yaml", "configs/deficit_biased.yaml")
SETUP_SAMPLES = {"full": 5, "tiny": 2}  # this process's own set-up plus fresh child processes

# (metric, unit) reported with --trace 0; the JSON line carries exactly these.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
)
ENV_WORKLOADS = ("train-desk", "compare-deficit", "simulate-fleet64")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="pass size; 'tiny' is for the self-test")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one cold set-up, print it and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_setup(args, out: Path):
    """Time from before `import gridtrade` until the workload can run."""
    start = perf_counter()
    wl = workloads.make(args.workload, ROOT, args.seed, args.size, out)
    wl.setup()
    return wl, perf_counter() - start


def child_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
         "--size", args.size, "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_passes(wl, seconds: float, traced_pass=None):
    """Closed-loop passes until `seconds` of wall time have gone by, at least
    one; a pass is not started when less than half a pass of time is left.
    With `traced_pass`, untraced and traced passes alternate, so both see the
    same drift in host speed. A pass that raises ends the run without a result."""
    passes, traced, walls = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(walls) / 2 < seconds:
        t0 = perf_counter()
        passes.append(wl.run_pass())
        if traced_pass is not None:
            traced.append(traced_pass())
        walls.append(perf_counter() - t0)
    return passes, traced


def deciles_ms(latencies):
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return 1e3 * q[4], 1e3 * q[8]


def rate(passes, attr):
    return statistics.median(getattr(r, attr) / r.seconds for r in passes)


def host_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }
    info.update({var: os.environ[var] for var in THREAD_VARS})
    return info


def end_to_end(args, wl, setup_s):
    setups = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES[args.size] - 1)]
    passes, _ = run_passes(wl, args.seconds)
    latencies = [x for r in passes for x in r.latencies]
    p50, p90 = deciles_ms(latencies)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate(passes, "ops"),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "peak_rss_mib": peak,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    ops = "hours" if args.workload in ENV_WORKLOADS else "clears"
    lines = [("setup_s", values["setup_s"], "s", f"median of {len(setups)} cold set-ups")]
    if args.workload in ENV_WORKLOADS:
        lines.append(("agent_steps_per_s", rate(passes, "agent_steps"), "1/s",
                      f"median of {len(passes)} passes"))
    if args.workload == "train-desk":
        lines.append(("train_episodes_per_s", rate(passes, "episodes"), "1/s",
                      f"median of {len(passes)} passes, updates and checkpoint included"))
    if args.workload == "clear-books":
        lines.append(("quotes_per_s", rate(passes, "quotes"), "1/s",
                      f"median of {len(passes)} passes"))
    lines.append(("ops_per_s", values["ops_per_s"], "1/s", f"{ops} per second, median of {len(passes)} passes"))
    for q, value in (("p50", p50), ("p90", p90)):
        name = f"step_ms_{q}" if args.workload in ENV_WORKLOADS else f"op_ms_{q}"
        lines.append((name, value, "ms", f"{len(latencies)} {ops}; JSON op_ms_{q}"))
    lines.append(("peak_rss_mib", peak, "MiB", "this process, set-up children excluded"))
    report = {"setups_s": setups, "passes": len(passes), "samples": len(latencies),
              "named": {name: {"value": v, "unit": u, "note": n} for name, v, u, n in lines}}
    return metrics, passes, lines, report


def traced(args, wl, out: Path):
    import tracing

    tracer = tracing.Tracer()
    root = tracer.label_id(tracing.ROOT)

    def traced_pass():
        patches = tracing.install(tracer)
        idx = tracer.open(root)
        try:
            return wl.run_pass()
        finally:
            tracer.close(idx)
            patches.undo()

    ref, passes = run_passes(wl, args.seconds, traced_pass)
    summary = tracer.summary()
    extra = {
        "trace.overhead": statistics.median(r.seconds for r in passes)
        / statistics.median(r.seconds for r in ref),
        "trace.coverage": 100.0 * summary["covered_s"] / sum(r.seconds for r in passes),
        "reporting.bytes_written": statistics.median(r.bytes_written for r in passes),
    }
    metrics = tracing.layer_metrics(summary, tracer.counters, len(passes), extra)
    tracer.save(out / "spans.npz")
    lines = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    report = {"untraced_passes": len(ref), "traced_passes": len(passes),
              "labels": summary["labels"], "counters": dict(tracer.counters)}
    return metrics, ref + passes, lines, report


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a gridtrade checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = HERE / "out" / args.workload
    if args.setup_probe:
        out.mkdir(parents=True, exist_ok=True)
        print(timed_setup(args, out)[1])
        return 0
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl, setup_s = timed_setup(args, out)
    import gridtrade

    if Path(gridtrade.__file__).resolve().parent != (ROOT / "src" / "gridtrade").resolve():
        print(f"perfbench: imported gridtrade from {gridtrade.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    measure = traced(args, wl, out) if args.trace else end_to_end(args, wl, setup_s)
    metrics, passes, lines, report = measure
    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    digests = sorted({r.digest for r in passes})
    problems = [p for r in passes for p in r.problems][:20]
    correct = failed == 0 and len(digests) == 1

    info = host_info()
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"seconds={args.seconds:g} passes={len(passes)}")
    print("host " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, value, unit, note in lines:
        print(f"  {name:34s} {value:>14.6g} {unit:9s} {note}")
    print(f"  {'error_rate':34s} {failed / attempted:>14.6g} {'ratio':9s} "
          f"{failed} of {attempted} steps, clears, episodes and pass outputs")
    for d in digests:
        print(f"digest {args.workload} sha256:{d}")
    if len(digests) > 1:
        print("perfbench: passes with identical inputs produced different outputs")
    for p in problems:
        print(f"problem: {p}")

    (out / f"report-trace{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": args.size, "host": info,
         "digests": digests, "error_rate": failed / attempted, "problems": problems,
         "metrics": metrics, **report}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
