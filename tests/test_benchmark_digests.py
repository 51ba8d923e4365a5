"""Replays a fixed sample of the benchmark's catalogue argvs through the CLI
and checks each against the digest recorded in perfbench/reference.json, with
the benchmark's own gate: a speed-up that moves a result past the digest
tolerance fails here, not only in the benchmark run."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from bgstates import cli, qspecial

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
    # every coproduct route of the residual: a q > 1 (crossing) and a
    # classical pair, and a sweep with a non-integer k1
    picked += [("scan", scan["pair"][1]), ("scan", scan["pair"][2]),
               ("scan", scan["sweep_nonint"][0])]
    # the first sweep of each delta form (1, q^1, q^2, a number), and a q < 1
    # pair with a half-integer k, whose two factors of a level share q-numbers
    forms = {}
    for argv in scan["sweep_int"] + scan["sweep_nonint"]:
        delta = dict(tok.split("=") for tok in argv[1:])["delta"]
        forms.setdefault(delta if delta in ("1", "q^1", "q^2") else "number", argv)
    half = next(a for a in scan["pair"] if a[1] != "q=classical" and float(a[1][2:]) < 1
                and {"k1=0.5", "k2=0.5", "k1=1.5", "k2=1.5"} & set(a))
    picked += [("scan", a) for a in [*forms.values(), half] if ("scan", a) not in picked]
    # and the first q argv of each upper cutoff the reference records (16 to
    # 22; only 22 reaches the second batch of outer panels)
    first_at = {}
    for argv in moments["q"]:
        first_at.setdefault(REFERENCE["moments"][gate.argv_key(argv)]["digest"][-2], argv)
    picked += [("moments", a) for a in first_at.values() if ("moments", a) not in picked]
    # the q argv whose lhs moved most when each node came to stop its own
    # log series
    picked.append(("moments", ["verify-moments", "mode=q", "q=0.95666", "k=2", "nmax=3"]))
    # the sweeps that start nearest q = 1, whose first-row entropy is the
    # most sensitive to rounding, and those that end lowest, whose blocks
    # hold the most subnormal entries
    sweeps = scan["sweep_int"] + scan["sweep_nonint"]
    for key, sign in (("from", -1), ("to", 1)):
        ranked = sorted(sweeps, key=lambda a: sign * float(dict(t.split("=") for t in a[1:])[key]))
        picked += [("scan", a) for a in ranked[:5] if ("scan", a) not in picked]
    # the Schmidt SVD's floor and support: five more classical pairs, and the
    # five more deformed pairs farthest from q = 1, which drop the most entries
    classical = [a for a in scan["pair"] if a[1] == "q=classical"]
    deformed = sorted((a for a in scan["pair"] if a[1] != "q=classical"),
                      key=lambda a: min(float(a[1][2:]), 1 / float(a[1][2:])))
    for group in (classical, deformed):
        picked += [("scan", a) for a in group if ("scan", a) not in picked][:5]
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


def _bench_caches():
    """perfbench/run.py's CACHES, read from its source without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "CACHES" for t in node.targets))


@pytest.mark.parametrize("module,attr", _bench_caches(), ids=lambda v: v)
def test_benchmark_clears_a_live_cache(module, attr, tmp_path):
    # the benchmark empties each (module, attr) by name before every op and
    # skips a missing one silently: a cache that moved would skew the
    # measured work instead of failing
    cli.main(["verify-moments", "mode=q", "q=0.9", "k=1", "nmax=0", f"out={tmp_path / 'a'}"])
    qspecial.q_factorial_cont(1.5, 0.9)
    cache = getattr(importlib.import_module(f"bgstates.{module}"), attr)
    assert len(cache) > 0
    cache.clear()
    assert len(cache) == 0
