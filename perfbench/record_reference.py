"""Record the reference outcome of every catalogue argv into reference.json.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose results are the
reference.  Every workload is recorded, so the whole file belongs to that
commit.  For each argv the file keeps the gate's verdict there (``fail``:
null, or the failure reason) and, for passing ops, the digest later runs
must match.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import gate
import run
import workloads


def library_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    pkg = run.import_library()
    data = {"library_commit": library_commit(),
            "digest_tolerance": {"rel": gate.DIGEST_REL, "abs": gate.DIGEST_ABS},
            "workloads": {}}
    run.OUT.mkdir(parents=True, exist_ok=True)
    path = run.OUT / "reference-op.json"
    for name in sorted(workloads.WORKLOADS):
        entries = {}
        t0 = time.perf_counter()
        for kind, argvs in sorted(workloads.catalogue(name).items()):
            for argv in argvs:
                code, _ = run.run_op(pkg, argv, path)
                text = path.read_text() if path.is_file() else ""
                path.unlink(missing_ok=True)
                reason, digest = gate.judge(argv[0], code, text)
                entries[gate.argv_key(argv)] = {"fail": reason, "digest": digest}
        data["workloads"][name] = entries
        failed = sum(e["fail"] is not None for e in entries.values())
        print(f"{name}: {len(entries)} argvs, {failed} fail the gate, "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
