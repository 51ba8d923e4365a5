"""bgstates benchmark: drives ``bgstates.cli.main`` in process, one client in
a closed loop, and checks every op it times.

    python3 perfbench/run.py --workload moments|scan --seed N \
        --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs the ops untraced for half the time, replays the
same argvs with every layer wrapped (see ``tracing.py``) and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.  A full record
(environment, every op, failures, spans) is written under ``perfbench/out``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 15     # fresh imports, spread through the timed loop
TAIL_BEYOND = 10

# module-level caches a fresh CLI process starts without
CACHES = (("measure", "_PSI_CACHE"), ("measure", "_QNUM_CACHE"),
          ("qspecial", "_CONT_VALIDATED"))


class BenchError(Exception):
    pass


def import_library():
    """Import bgstates from this checkout's ``src`` and nowhere else."""
    if not (SRC / "bgstates" / "cli.py").is_file():
        raise BenchError(f"no bgstates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bgstates.cli as cli
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"bgstates imported from {cli.__file__}, not from {SRC}")
    return sys.modules["bgstates"]


def clear_caches(pkg):
    for mod, attr in CACHES:
        cache = getattr(getattr(pkg, mod, None), attr, None)
        if cache is not None:
            cache.clear()


def run_op(pkg, argv, path: Path):
    """One CLI invocation in process; returns (exit code, wall seconds)."""
    clear_caches(pkg)
    t0 = time.perf_counter()
    try:
        code = pkg.cli.main(argv + [f"out={path}"])
    except Exception:
        # an uncaught exception is a traceback and exit 1 for a real CLI call
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - t0


# --------------------------------------------------------------------------
# environment and set-up
# --------------------------------------------------------------------------

def _blas_threads():
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": blas_version,
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "seed": seed}


def import_seconds() -> float:
    """Wall time of ``import bgstates.cli`` in one fresh interpreter.

    The child runs with one OpenBLAS thread.  With more, numpy starts a
    worker that spins through the import; on a 2-vCPU VM single imports were
    then bimodal (about 0.11 s when the spin had a core of its own, 0.22 s
    when it shared the importing thread's), flipping for minutes at a time.
    The import does no BLAS work, so one thread leaves bgstates' own import
    cost in the figure and only takes that flip out.
    """
    code = ("import time; t = time.perf_counter(); import bgstates.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"fresh import of bgstates failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# --------------------------------------------------------------------------
# timed loop and the gate
# --------------------------------------------------------------------------

def closed_loop(pkg, ops, seconds: float, workdir: Path, tag: str, pauses: int = 0,
                pause=None):
    """Run ops back to back until ``seconds`` have passed (at least one op).

    ``pause()`` is called ``pauses`` times between ops, at evenly spread
    moments of the loop (any still due when it ends are called after it), so
    that what it measures samples the same stretch of the machine's load as
    the ops.  Time spent in it does not count as loop time.
    """
    done, results, paused = [], [], 0.0
    due = [seconds * (j + 0.5) / pauses for j in range(pauses)]
    start = time.perf_counter()
    for i, argv in enumerate(ops):
        elapsed = time.perf_counter() - start - paused
        while due and elapsed >= due[0]:
            due.pop(0)
            t0 = time.perf_counter()
            results.append(pause())
            paused += time.perf_counter() - t0
        if done and elapsed >= seconds:
            break
        path = workdir / f"{tag}{i:05d}.json"
        code, dt = run_op(pkg, argv, path)
        done.append({"argv": argv, "exit": code, "latency_s": dt, "path": path})
    wall = time.perf_counter() - start - paused
    results.extend(pause() for _ in due)
    return done, wall, results


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE}; run perfbench/record_reference.py")
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def judge_ops(done, reference: dict):
    """Apply the gate to each op; returns (failures, regressions).

    ``failures`` lists every op that fails the gate now.  ``regressions``
    lists ops whose outcome differs from the reference: a digest mismatch,
    a failure where the reference passed, a failure for another reason than
    the one the reference recorded, or an argv the reference lacks.
    """
    failures, regressions = [], []
    for op in done:
        path = op["path"]
        text = path.read_text() if path.is_file() else ""
        reason, digest = gate.judge(op["argv"][0], op["exit"], text)
        key = gate.argv_key(op["argv"])
        ref = reference.get(key)
        if reason is None and ref is not None and ref["fail"] is None \
                and not gate.digests_match(digest, ref["digest"]):
            reason = "digest differs from reference"
        op["fail"] = reason
        known = ref is not None and reason is not None and reason == ref["fail"]
        if reason is not None:
            failures.append({"argv": key, "reason": reason, "known": known})
        if ref is None:
            regressions.append({"argv": key, "reason": "argv not in reference"})
        elif reason is not None and not known:
            was = "passed" if ref["fail"] is None else f"failed with: {ref['fail']}"
            regressions.append({"argv": key, "reason": f"{reason} (reference {was})"})
    return failures, regressions


def run_probes(pkg, args, workdir, reference):
    """Run the workload's known-defect probes after the measurement, untimed.

    They do not count in ``attempted`` or ``failed``; a probe whose outcome
    differs from the reference's is a regression like any timed op.
    """
    done = []
    for i, argv in enumerate(workloads.probes(args.workload, args.seed)):
        path = workdir / f"probe{i:02d}.json"
        code, dt = run_op(pkg, argv, path)
        done.append({"argv": argv, "exit": code, "latency_s": dt, "path": path})
    _, regressions = judge_ops(done, reference)
    return done, regressions


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""


def latency_tail(latencies):
    """(value, percentile, samples beyond): the highest percentile that keeps
    TAIL_BEYOND samples beyond it, but never below the 75th.  With fewer than
    4 * TAIL_BEYOND samples a quarter of them stay beyond, so a run of a few
    slow ops reports an order statistic rather than its single maximum."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(TAIL_BEYOND, n // 4)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


# --------------------------------------------------------------------------
# the two modes
# --------------------------------------------------------------------------

def end_to_end(pkg, args, workdir, reference, record):
    import_seconds()    # untimed: loads the interpreter's and numpy's files
    ops = workloads.sequence(args.workload, args.seed)
    done, wall, setup = closed_loop(pkg, ops, args.seconds, workdir, "op",
                                    SETUP_REPEATS, import_seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, regressions = judge_ops(done, reference)
    lat = [op["latency_s"] for op in done]
    tail, pct, beyond = latency_tail(lat)
    metrics = {
        "throughput_ops_s": (len(done) / wall, "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record.update(setup_samples_s=setup, loop_wall_s=wall,
                  latency_tail={"percentile": pct, "samples": len(lat),
                                "samples_beyond": beyond})
    notes = {"latency_tail_s": f"p{pct:.1f} of {len(lat)} samples, {beyond} beyond",
             "setup_s": f"median of {len(setup)} fresh imports spread through the loop",
             "throughput_ops_s": f"{len(done)} ops in {wall:.2f} s"}
    return done, failures, regressions, metrics, notes


def per_layer(pkg, args, workdir, reference, record):
    ops = workloads.sequence(args.workload, args.seed)
    done, _, _ = closed_loop(pkg, ops, args.seconds / 2.0, workdir, "op")
    failures, regressions = judge_ops(done, reference)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = []
        for i, op in enumerate(done):
            tracer.op = i
            path = workdir / f"traced{i:05d}.json"
            code, dt = run_op(pkg, op["argv"], path)
            traced.append({"exit": code, "latency_s": dt, "path": path})
    finally:
        tracer.uninstall()
    for op, twin in zip(done, traced):
        if twin["exit"] != op["exit"] or _sha(twin["path"]) != _sha(op["path"]):
            regressions.append({"argv": gate.argv_key(op["argv"]),
                                "reason": "traced artifact differs from untraced"})
    n = len(done)
    untraced_s = sum(op["latency_s"] for op in done)
    overhead_s = sum(op["latency_s"] for op in traced) - untraced_s
    selfs = tracer.self_times()
    counts = tracer.counts
    kernel = tracing.dd_kernel_probe(pkg._dd)
    metrics = {f"{name}_s": (t / n, "s/op") for name, t in selfs.items()}
    # node_count only feeds the ratio: the report's node count must not move
    # (the moments digest holds it), so it is no metric of its own
    metrics.update((name, (count / n, "count/op")) for name, count in counts.items()
                   if name != "measure.node_count")
    metrics["cli.artifact_bytes"] = (sum(op["path"].stat().st_size if op["path"].is_file()
                                         else 0 for op in done) / n, "B/op")
    metrics["measure.nodes_useful_ratio"] = (
        counts["measure.node_count"] / counts["measure.nodes_evaluated"]
        if counts["measure.nodes_evaluated"] else 0.0, "ratio")
    metrics["dd.mean_width"] = (
        counts["dd.elements"] / counts["dd.calls"] if counts["dd.calls"] else 0.0, "elem")
    for width, us in kernel.items():
        metrics[f"dd.kernel_us_w{width}"] = (us, "us/elem")
    metrics["trace.overhead_s"] = (overhead_s / n, "s/op")
    metrics["trace.overhead_share"] = (overhead_s / untraced_s, "ratio")
    record.update(traced_ops=n, node_count_per_op=counts["measure.node_count"] / n,
                  untraced_wall_s=untraced_s,
                  traced_wall_s=untraced_s + overhead_s,
                  missing_entry_points=tracer.missing, spans=tracer.dump_spans())
    notes = {"trace.overhead_s": f"{n} ops: untraced {untraced_s:.3f} s, "
                                 f"traced {untraced_s + overhead_s:.3f} s",
             "measure.nodes_useful_ratio": f"{counts['measure.node_count'] / n:.6g} "
                                           f"nodes integrated per op"}
    if tracer.missing:
        notes["cli.run_self_s"] = "entry points not found: " + ", ".join(tracer.missing)
    return done, failures, regressions, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        pkg = import_library()
        reference = load_reference(args.workload)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed)}
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-artifacts"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for warm in workloads.WARMUP[args.workload]:
            code, _ = run_op(pkg, warm, workdir / "warmup.json")
            if code != 0:
                raise BenchError(f"warm-up op failed with exit {code}: {' '.join(warm)}")
        mode = per_layer if args.trace else end_to_end
        done, failures, regressions, metrics, notes = mode(pkg, args, workdir, reference,
                                                           record)
        probed, probe_regressions = run_probes(pkg, args, workdir, reference)
        regressions += probe_regressions
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = record["environment"]
    print(f"bgstates benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    print(f"ops: {len(done)} attempted, {len(failures)} failed "
          f"(fail_share {len(failures) / len(done):.4f}), "
          f"{len(regressions)} differ from reference")
    for f in failures:
        print(f"  FAILED{' (known at reference)' if f['known'] else ''}: "
              f"{f['argv']}: {f['reason']}")
    for op in probed:
        ref = reference.get(gate.argv_key(op["argv"]), {}).get("fail")
        print(f"known-defect probe (untimed, not in attempted/failed): "
              f"{gate.argv_key(op['argv'])}: "
              + (f"FAILED: {op['fail']}" if op["fail"] else "passed")
              + (f" (reference failed with: {ref})" if ref else ""))
    for r in regressions:
        print(f"  REGRESSION: {r['argv']}: {r['reason']}")

    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  fail_share=len(failures) / len(done), failures=failures,
                  regressions=regressions,
                  probes=[{"argv": gate.argv_key(op["argv"]), "exit": op["exit"],
                           "fail": op["fail"]} for op in probed],
                  ops=[{"argv": gate.argv_key(op["argv"]), "exit": op["exit"],
                        "latency_s": op["latency_s"], "fail": op["fail"]} for op in done])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": not regressions, "attempted": len(done),
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
