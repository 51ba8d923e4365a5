"""Workload catalogues and the seeded op sequences drawn from them.

Every workload is a fixed cycle of op kinds.  Each kind owns a catalogue of
CLI argvs generated from a fixed per-kind string seed, so the catalogue (and
therefore ``reference.json``, which holds one recorded digest per catalogue
argv) is the same on every machine and every run.  The ``--seed`` of a run
picks a permutation of each catalogue; the run walks the cycle and takes the
next argv of the kind in turn.  Within a run an argv repeats only after its
whole catalogue is used up.  At current speeds that happens only for the
twelve classical moment argvs, which have no continuous parameter; the run
empties the library's caches before every op, so a repeat costs what the
first call did.
"""

from __future__ import annotations

import itertools
import random

K_VALUES = ("0.5", "1", "1.5", "2")          # integer Bessel orders 2k - 1
K_NONINTEGER = ("0.75", "1.25", "1.75")      # force the q_gamma continuation
PAIR_N = 50
DEFECT_N = 800
SWEEP_N = 50
ORACLE_NMAX = 14


def _f(x: float, digits: int = 5) -> str:
    return f"{x:.{digits}f}"


def _distinct(make, count: int, kind: str) -> list:
    rng = random.Random(kind)
    out, seen = [], set()
    while len(out) < count:
        argv = make(rng, len(out))
        key = " ".join(argv)
        if key not in seen:
            seen.add(key)
            out.append(argv)
    return out


def _ordered_pair(rng: random.Random, lead_first: bool):
    """(a1, a2) with the propagating node at least as large as the other.

    xi = a1/(a1+a2) q^-k2 (or its mirror for q > 1) is raised to the power
    -N during assembly; keeping the propagating node dominant keeps
    xi^-N inside double range at N = 800, where the CLI would otherwise
    reject the configuration as overflowing (exit 2).
    """
    big = rng.uniform(0.6, 2.0)
    small = big * rng.uniform(0.2, 0.9)
    return (big, small) if lead_first else (small, big)


# --------------------------------------------------------------------------
# moments: verify-moments, classical share fixed at one op in four
# --------------------------------------------------------------------------

def _moments_classical(rng, i):
    # the whole classical grid: twelve argvs, no continuous parameter
    return ["verify-moments", "mode=classical", f"k={K_VALUES[i % 4]}",
            f"nmax={(3, 5, 8)[i // 4]}"]


def _moments_q(rng, i):
    k = K_VALUES[i % len(K_VALUES)]
    # where the q-measure meets the pinned 1e-3 moment tolerance: the README
    # puts its accuracy at ~2e-3 by q = 0.8, and k = 1 reaches 3.1e-3 at
    # q = 0.808, so k <= 1 starts at 0.82; k up to 2 needs q >= 0.85
    lo = 0.82 if float(k) <= 1.0 else 0.85
    return ["verify-moments", "mode=q", f"q={_f(rng.uniform(lo, 0.97))}",
            f"k={k}", "nmax=3"]


# --------------------------------------------------------------------------
# state-bipartite: small timed ops, and the N = 800 known-defect probe
# --------------------------------------------------------------------------

def _bipartite(q_text: str, a1: float, a2: float, rng, n: int) -> list:
    return ["state-bipartite", f"q={q_text}", f"a1={_f(a1, 4)}", f"a2={_f(a2, 4)}",
            f"k1={rng.choice(K_VALUES)}", f"k2={rng.choice(K_VALUES)}",
            f"delta={_f(rng.uniform(0.5, 1.1), 4)}", f"N={n}", "format=json"]


def _bipartite_small(rng, i):
    # cycles q < 1, q > 1 (the mirror range, through the crossing route) and
    # classical
    if i % 3 == 2:
        return _bipartite("classical", rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0),
                          rng, PAIR_N)
    q = rng.uniform(0.5, 0.97)
    below = i % 3 == 0
    return _bipartite(_f(q if below else 1.0 / q), *_ordered_pair(rng, below), rng, PAIR_N)


def _bipartite_defect(rng, i):
    # Below about q = 0.64 (or above its mirror) the N = 800 coproduct
    # residual overflows and the CLI writes residual_interior: NaN, a known
    # defect.  It would fail every such timed op, so these argvs form a probe
    # catalogue instead: every scan run executes one, untimed, and reports it.
    q = rng.uniform(0.5, 0.62)
    below = i % 2 == 0
    return _bipartite(_f(q if below else 1.0 / q), *_ordered_pair(rng, below), rng,
                      DEFECT_N)


# --------------------------------------------------------------------------
# scan: sweep-q, g-oracle and state-single as many small calls
# --------------------------------------------------------------------------

def _sweep(rng, k1: str, k2: str) -> list:
    a1, a2 = _ordered_pair(rng, True)
    delta = rng.choice(("1", "q^1", "q^2", _f(rng.uniform(0.6, 1.1), 4)))
    return ["sweep-q", f"from={_f(rng.uniform(0.99, 0.9999))}",
            f"to={_f(rng.uniform(0.5, 0.8))}", f"steps={rng.randint(36, 44)}",
            f"a1={_f(a1, 4)}", f"a2={_f(a2, 4)}", f"k1={k1}", f"k2={k2}",
            f"delta={delta}", f"N={SWEEP_N}"]


def _sweep_integer_k(rng, i):
    return _sweep(rng, rng.choice(K_VALUES), rng.choice(K_VALUES))


def _sweep_noninteger_k(rng, i):
    return _sweep(rng, rng.choice(K_NONINTEGER), rng.choice(K_VALUES))


def _g_oracle(rng, i):
    a1, a2 = _ordered_pair(rng, True)
    return ["g-oracle", f"q={_f(rng.uniform(0.5, 0.9))}", f"a1={_f(a1, 4)}",
            f"a2={_f(a2, 4)}", f"k1={rng.choice(K_VALUES)}", f"k2={rng.choice(K_VALUES)}",
            f"delta={_f(rng.uniform(0.8, 1.2), 4)}", f"nmax={ORACLE_NMAX}"]


def _state_single(rng, i):
    q = "classical" if i % 4 == 3 else _f(rng.uniform(0.5, 0.97))
    alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * 1.5 / 2 ** 0.5
    return ["state-single", f"q={q}", f"alpha={alpha.real:.4f}{alpha.imag:+.4f}j",
            f"k={rng.choice(K_VALUES[:3])}", "N=50"]


# workload -> (cycle of kinds, {kind: (generator, catalogue size)})
WORKLOADS = {
    "moments": (("q", "q", "q", "classical"),
                {"q": (_moments_q, 600), "classical": (_moments_classical, 12)}),
    "scan": (("sweep_int", "oracle", "single", "pair", "sweep_nonint", "oracle", "single",
              "pair"),
             {"sweep_int": (_sweep_integer_k, 100), "sweep_nonint": (_sweep_noninteger_k, 100),
              "oracle": (_g_oracle, 200), "single": (_state_single, 200),
              "pair": (_bipartite_small, 200)}),
}

# workload -> {kind: (generator, catalogue size)} of untimed known-defect probes
PROBES = {"scan": {"defect": (_bipartite_defect, 8)}}

# small untimed ops that load each command's code paths before timing
WARMUP = {
    "moments": [["verify-moments", "mode=classical", "k=1", "nmax=3"],
                ["verify-moments", "mode=q", "q=0.95", "k=1", "nmax=3"]],
    "scan": [["sweep-q", "from=0.99", "to=0.6", "steps=3", "a1=0.5", "a2=0.3", "k1=1",
              "k2=1", "delta=1", "N=20"],
             ["g-oracle", "q=0.7", "a1=0.5", "a2=0.3", "k1=1", "k2=1", "delta=0.9",
              "nmax=4"],
             ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=20"],
             ["state-bipartite", "q=0.9", "a1=0.5", "a2=0.3", "k1=1", "k2=1",
              "delta=1", "N=40"],
             ["state-bipartite", "q=classical", "a1=0.5", "a2=0.3", "k1=1", "k2=1",
              "N=40"]],
}


def _catalogue(workload: str, kinds: dict) -> dict:
    return {kind: _distinct(make, size, f"{workload}/{kind}")
            for kind, (make, size) in kinds.items()}


def catalogue(workload: str) -> dict:
    """{kind: [argv, ...]} for one workload, probes included, identical on
    every call."""
    return _catalogue(workload, {**WORKLOADS[workload][1], **PROBES.get(workload, {})})


def probes(workload: str, seed: int) -> list:
    """The untimed known-defect argvs of one run: one per probe kind."""
    rng = random.Random(f"probe/{seed}")
    return [rng.choice(argvs)
            for argvs in _catalogue(workload, PROBES.get(workload, {})).values()]


def sequence(workload: str, seed: int):
    """Endless op sequence for one run: the seed permutes each catalogue."""
    cycle, kinds = WORKLOADS[workload]
    cat = _catalogue(workload, kinds)
    rng = random.Random(seed)
    orders = {}
    for kind in sorted(cat):
        order = list(range(len(cat[kind])))
        rng.shuffle(order)
        orders[kind] = order
    taken = dict.fromkeys(cat, 0)
    for i in itertools.count():
        kind = cycle[i % len(cycle)]
        order = orders[kind]
        yield list(cat[kind][order[taken[kind] % len(order)]])
        taken[kind] += 1
