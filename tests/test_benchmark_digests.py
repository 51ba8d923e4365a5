"""Replays a fixed sample of the benchmark's catalogue argvs through the CLI
and checks each against the digest recorded in perfbench/reference.json, with
the benchmark's own gate: a speed-up that moves a result past the digest
tolerance fails here, not only in the benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

from bgstates import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load("gate")
workloads = _load("workloads")
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


def _sample():
    moments = workloads.catalogue("moments")
    scan = workloads.catalogue("scan")
    # classical: every k, nmax 3, 5 and 8; q: the first eight (each k twice);
    # scan: one argv of each small-op kind
    picked = [("moments", a) for a in moments["classical"][::3]]
    picked += [("moments", a) for a in moments["q"][:8]]
    picked += [("scan", scan[kind][0]) for kind in ("sweep_int", "oracle", "single", "pair")]
    # and the first q argv of each upper cutoff the reference records (16 to
    # 22; only 22 reaches the second batch of outer panels)
    first_at = {}
    for argv in moments["q"]:
        first_at.setdefault(REFERENCE["moments"][gate.argv_key(argv)]["digest"][-2], argv)
    picked += [("moments", a) for a in first_at.values() if ("moments", a) not in picked]
    return picked


SAMPLE = _sample()


@pytest.mark.parametrize("workload,argv", SAMPLE,
                         ids=[gate.argv_key(argv) for _, argv in SAMPLE])
def test_digest_matches_reference(workload, argv, tmp_path):
    ref = REFERENCE[workload][gate.argv_key(argv)]
    out = tmp_path / "artifact"
    code = cli.main(argv + [f"out={out}"])
    reason, digest = gate.judge(argv[0], code, out.read_text() if code == 0 else "")
    assert ref["fail"] is None
    assert reason is None
    assert gate.digests_match(digest, ref["digest"]), (digest, ref["digest"])

