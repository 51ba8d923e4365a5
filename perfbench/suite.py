"""Run every workload in both modes and print one table of all metrics.

    python3 perfbench/suite.py [--seed N] [--seconds S]

Run from the repository root.  ``--seconds`` defaults to BENCHMARK.json's
run_seconds; ``--seconds 1`` is the smoke test.  Each run must exit 0, fail
no timed op and end with a line holding exactly the keys
correct/attempted/failed/metrics, with every metric BENCHMARK.json names for its mode (end_to_end with
--trace 0, per_layer with --trace 1) at the declared unit and a finite
value.  The benchmark must also refuse to run, without a result line, in a
directory holding only BENCHMARK.json and the benchmark's own files.  The
combined results go to ``perfbench/out/suite-seed<N>.json``; the exit code
is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def problems_in(proc, declared: dict):
    if proc.returncode != 0:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0:
        problems.append(f"{result.get('failed')} timed ops failed")
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append(f"metrics missing {sorted(set(declared) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        if not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{name}: value {got.get('value')!r}")
    return result, problems


def bare_directory_problems() -> list:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, "moments", 1, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"exit {proc.returncode}, last line {lines[-1:]}"]
    return []


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    args = parser.parse_args(argv)
    modes = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    results, failures = {}, 0
    for workload in names:
        for trace, declared in modes.items():
            result, problems = problems_in(
                bench(ROOT, workload, args.seed, args.seconds, trace), declared)
            results[f"{workload}/trace{trace}"] = result
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else '; '.join(problems)}",
                  flush=True)
    problems = bare_directory_problems()
    failures += bool(problems)
    print(f"bare directory: {'ok' if not problems else '; '.join(problems)}")

    print(f"\n{'metric':32s} {'unit':9s} " + " ".join(f"{w:>12s}" for w in names))
    for trace, declared in modes.items():
        for name, unit in declared.items():
            cells = []
            for w in names:
                r = results.get(f"{w}/trace{trace}")
                v = r["metrics"].get(name, {}).get("value") if r else None
                cells.append(f"{v:12.5g}" if isinstance(v, (int, float)) else f"{'-':>12s}")
            print(f"{name:32s} {unit:9s} " + " ".join(cells))
        row = [results.get(f"{w}/trace{trace}") for w in names]
        print(f"{'ops attempted/failed':32s} {'count':9s} " + " ".join(
            f"{(str(r['attempted']) + '/' + str(r['failed'])) if r else '-':>12s}"
            for r in row))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"suite-seed{args.seed}.json").write_text(json.dumps(results, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
