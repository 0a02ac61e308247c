"""Smoke test of the benchmark: all four workloads at tiny size, untraced and traced.

    python3 perfbench/selftest.py

For every run it checks the exit code, that the last stdout line is the
result object with exactly its four keys, that every metric named in
BENCHMARK.json is emitted with its unit, that each workload's readable
metrics appear with units, that error_rate is 0, that span coverage is at least
95% and that the untraced and traced runs print the same output digest.
Last, it checks that the benchmark refuses to run outside a checkout.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
NAMED = {
    "train-desk": ("setup_s", "agent_steps_per_s", "train_episodes_per_s",
                   "step_ms_p50", "step_ms_p90", "peak_rss_mib", "error_rate"),
    "compare-deficit": ("setup_s", "agent_steps_per_s", "step_ms_p50", "step_ms_p90",
                        "peak_rss_mib", "error_rate"),
    "simulate-fleet64": ("setup_s", "agent_steps_per_s", "step_ms_p50", "step_ms_p90",
                         "peak_rss_mib", "error_rate"),
    "clear-books": ("setup_s", "quotes_per_s", "op_ms_p50", "op_ms_p90",
                    "peak_rss_mib", "error_rate"),
}
MIN_COVERAGE = 95.0


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # traced runs get several passes: one tiny pass is too short for a steady coverage share
    seconds = "4" if trace else "1"
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(workload: str, trace: int, spec: dict) -> tuple[list[str], list[str]]:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"], []
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} = {m}, expected a finite value in {unit}")
    readable = {line.split()[0]: line.split() for line in lines if line.startswith("  ")}
    for name in (NAMED[workload] if not trace else ("error_rate",)):
        if name not in readable or len(readable[name]) < 3:
            errors.append(f"{where}: readable line for {name} missing or without unit")
    if readable.get("error_rate", [None, "1"])[1] != "0":
        errors.append(f"{where}: error_rate is not 0")
    if trace and got.get("trace.coverage", {}).get("value", 0) < MIN_COVERAGE:
        errors.append(f"{where}: span coverage {got['trace.coverage']['value']:.1f}% < {MIN_COVERAGE}%")
    digests = [line.split()[-1] for line in lines if line.startswith("digest ")]
    return errors, digests


def check_outside_checkout() -> list[str]:
    """In a directory holding only BENCHMARK.json and perfbench/, the benchmark
    must fail without printing a result."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = run("clear-books", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        before = len(errors)
        seen = []
        for trace in (0, 1):
            errs, digests = check_run(workload, trace, spec)
            errors += errs
            seen.append(digests)
        if len(errors) == before and (len(seen[0]) != 1 or seen[0] != seen[1]):
            errors.append(f"{workload}: digests differ between runs: {seen}")
        print(f"{workload}: {'ok' if len(errors) == before else 'FAILED'}", flush=True)
    errors += check_outside_checkout()
    for e in errors:
        print(e, file=sys.stderr)
    print("selftest: " + ("ok" if not errors else f"{len(errors)} problems"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
