"""Batch command-line front end.

    bgstates SUBCOMMAND key=value [key=value ...]

Subcommands:
    state-single     q=0.9|classical alpha=0.8 k=1 N=50
    state-bipartite  q=0.9 a1=0.3 a2=0.5 k1=1 k2=1 delta=1 N=50
                     [N2=...] [perturb=0.01 seed=7]
    verify-moments   mode=classical|q [q=0.95] k=1 nmax=3
    sweep-q          from=0.999 to=0.5 steps=12 a1=0.3 a2=0.5 k1=1 k2=1
                     delta=1 N=50
    g-oracle         q=0.7 a1=0.3 a2=0.5 k1=1 k2=1 delta=0.9 nmax=12

Common keys: out=FILE (default stdout), format=json|csv (default json).  JSON
is strict, floats as their shortest round-trip repr; CSV floats have 17
significant digits, lowercase scientific; complex numbers are [re, im] pairs
in JSON and re+imj or re-imj cells in CSV.  seed= is a nonnegative integer.
Exit codes: 0 success, 2 invalid configuration (the diagnostic names the
violated precondition), 3 numerical failure (it names the failing series, or
the field of a NaN or infinite result).  A key the subcommand does not use, a
key given twice, a state or g block of more than MAX_COEFFICIENTS
coefficients, and a sweep of more than MAX_COEFFICIENTS steps are invalid
configurations, rejected before any work.
"""

from __future__ import annotations

import cmath
import dataclasses
import io
import itertools
import json
import math
import sys
from typing import Optional

import numpy as np

from . import bipartite as bp
from . import costate as cs
from . import measure as me
from .errors import DomainError, SeriesConvergenceError, TruncationError
from .qspecial import CLASSICAL, QParam, q_factorial
from .repalg import apply_ladder

__all__ = ["main", "RunConfig", "run", "load_state_json"]

# most coefficients one state or g-oracle block may hold (a state of that size
# is about 40 MB of JSON): a larger N or nmax is rejected before any work
MAX_COEFFICIENTS = 1 << 20


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def _jc(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _jc_array(a: np.ndarray) -> list:
    """A complex array as nested lists of [re, im] pairs, as :func:`_jc` gives them."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


@dataclasses.dataclass
class RunConfig:
    command: str
    params: dict
    out: Optional[str] = None
    fmt: str = "json"


def _parse_argv(argv) -> RunConfig:
    if not argv:
        raise DomainError("missing subcommand; expected one of " + ", ".join(_RUNNERS))
    command = argv[0]
    if command in ("-h", "--help", "help"):
        print(__doc__)
        raise SystemExit(0)
    if command not in _RUNNERS:
        raise DomainError(f"unknown subcommand {command!r}; expected one of "
                          + ", ".join(_RUNNERS))
    params = {}
    for tok in argv[1:]:
        if "=" not in tok:
            raise DomainError(f"arguments must be key=value pairs, got {tok!r}")
        key, _, val = tok.partition("=")
        key = key.strip()
        if key in params:
            raise DomainError(f"the key {key}= is given more than once")
        params[key] = val.strip()
    out = params.pop("out", None)
    fmt = params.pop("format", "json")
    if fmt not in ("json", "csv"):
        raise DomainError(f"format must be json or csv, got {fmt!r}")
    return RunConfig(command=command, params=params, out=out, fmt=fmt)


def _need(params: dict, key: str) -> str:
    if key not in params:
        raise DomainError(f"missing required parameter {key}=")
    return params.pop(key)


def _parse(key: str, text, kind=float):
    """``text`` as a finite number of type ``kind`` (float, complex or int);
    anything else is an invalid configuration that names ``key``."""
    try:
        value = kind(text)
    except ValueError:
        raise DomainError(f"{key}= must be a {kind.__name__} number, got {text!r}") from None
    if kind is not int and not cmath.isfinite(value):
        raise DomainError(f"{key}= must be finite, got {text!r}")
    return value


def _num(params: dict, key: str, kind=float, default=None):
    """Take out the value of a numeric key; required unless ``default`` is given."""
    return _parse(key, _need(params, key) if default is None else params.pop(key, default),
                  kind)


def _as_q(params: dict) -> QParam:
    if params.get("q") == "classical":
        del params["q"]
        return CLASSICAL
    q = _num(params, "q")
    if q == 1.0:
        raise DomainError("q=1 is the undeformed algebra; pass q=classical")
    if not q > 0.0:
        raise DomainError(f"q= must be positive, got {q!r}")
    return QParam(q)


def _check_budget(n1: int, n2: int, keys: str):
    """Reject an (n1+1) x (n2+1) block past MAX_COEFFICIENTS, naming the
    truncation ``keys``; a truncation below 1 is left to the library to name."""
    entries = (max(n1, 0) + 1) * (max(n2, 0) + 1)
    if entries > MAX_COEFFICIENTS:
        raise DomainError(f"{keys}: a block of {entries} coefficients exceeds the "
                          f"budget of {MAX_COEFFICIENTS}")


def _series_q(params: dict, key: str, hint: str = "") -> QParam:
    """The deformed q of ``key``, which must satisfy 0 < q < 1; anything else
    is an invalid configuration that names ``key``."""
    q = _num(params, key)
    if not 0.0 < q < 1.0:
        raise DomainError(f"{key}= must satisfy 0 < q < 1, got {q!r}{hint}")
    return QParam(q)


def _reject_unread(params: dict, command: str):
    """Called by each runner once it has taken out its keys, before any work:
    a key left in ``params`` is one the command does not use."""
    if params:
        raise DomainError(f"{command} does not use the key(s) "
                          + ", ".join(f"{key}=" for key in sorted(params)))


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _run_state_single(cfg: RunConfig) -> dict:
    p = cfg.params
    q = _as_q(p)
    if not q.is_classical and q.value > 1.0:
        raise DomainError(f"q= must satisfy 0 < q < 1, got {q.value!r}; the symmetric "
                          "q-number makes the state at q the state at 1/q")
    alpha = _num(p, "alpha", complex)
    k = _num(p, "k")
    n = _num(p, "N", int)
    _reject_unread(p, cfg.command)
    _check_budget(n, 0, f"N={n}")
    state = cs.build_q_coherent(alpha, k, q, n)
    lowered = apply_ladder("K-", state).coeffs
    if alpha == 0:
        residual = float(np.linalg.norm(lowered))
    else:
        residual = float(np.linalg.norm(lowered - alpha * state.coeffs)) / abs(alpha)
    return {
        "command": "state-single",
        "params": {"q": None if q.is_classical else q.value,
                   "alpha": _jc(alpha), "k": k, "N": n},
        "coefficients": _jc_array(state.coeffs),
        "residual": float(residual),
        "norm_before_truncation": float(state.norm_before_truncation),
    }


def _nodes(p: dict):
    """The node keys a1, a2, k1, k2 of a bipartite command, read in that order."""
    return _num(p, "a1", complex), _num(p, "a2", complex), _num(p, "k1"), _num(p, "k2")


def _run_state_bipartite(cfg: RunConfig) -> dict:
    p = cfg.params
    q = _as_q(p)
    a1, a2, k1, k2 = _nodes(p)
    n1 = _num(p, "N", int)
    n2 = _num(p, "N2", int, n1)
    delta = _num(p, "delta", float, "1")
    eps = _num(p, "perturb") if "perturb" in p else None
    seed = None if eps is None else _num(p, "seed", int, "0")
    if seed is not None and seed < 0:
        raise DomainError(f"seed= must be a nonnegative integer, got {seed}")
    _reject_unread(p, cfg.command)
    _check_budget(n1, n2, f"N={n1}, N2={n2}")
    if q.is_classical:
        M = bp.classical_bipartite(a1, a2, k1, k2, n1, n2)
    else:
        params = bp.BipartiteParams(a1, a2, k1, k2, q)
        M = bp.build_q_bipartite(params, delta, n1, n2)
    spec = bp.schmidt_entropy(M)
    interior, edge = bp.eigen_residual_parts(M)
    payload = {
        "command": "state-bipartite",
        "params": {"q": None if q.is_classical else q.value,
                   "a1": _jc(a1), "a2": _jc(a2), "k1": k1, "k2": k2,
                   "delta": delta, "N1": n1, "N2": n2},
        "coefficients": _jc_array(np.asarray(M.coeffs)),
        "schmidt": {
            "singular_values": [float(s) for s in spec.singular_values],
            "entropy": float(spec.entropy),
            "rank_eps": spec.rank_eps,
        },
        "residual_interior": float(interior),
        "residual_edge": float(edge),
    }
    if not q.is_classical:
        sp = M.params if q.value < 1 else bp.crossing_transform(M.params)
        ns = bp.norm_series(sp, delta)
        # the c_0 = 1 block sum, rescaled to the ansatz scale of norm_series
        raw = M.norm_before_truncation / (q_factorial(2 * sp.k1 - 1, sp.q)
                                          * q_factorial(2 * sp.k2 - 1, sp.q))
        payload["norm_series_value"] = float(ns)
        payload["norm_double_sum"] = float(raw)
        payload["norm_rel_err"] = float(abs(ns - raw) / abs(raw))
    if eps is not None:
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(M.coeffs.shape) + 1j * rng.standard_normal(M.coeffs.shape)
        # scaled by 1/|eps| past |eps| = 1, so eps * noise never leaves double range
        s = max(1.0, abs(eps))
        noisy = M.coeffs / s + (eps / s) * noise / np.linalg.norm(noise)
        noisy /= np.linalg.norm(noisy)
        with np.errstate(over="ignore", invalid="ignore"):    # _emit names a non-finite residual
            M2 = dataclasses.replace(M, coeffs=noisy)
            payload["perturbed_residual"] = float(bp.eigen_residual(M2))
        payload["perturb"] = eps
        payload["seed"] = seed
    return payload


def _run_verify_moments(cfg: RunConfig) -> dict:
    p = cfg.params
    mode = _need(p, "mode")
    k = _num(p, "k")
    nmax = _num(p, "nmax", int)
    if mode == "q":
        mode = _series_q(p, "q", "; for q = 1 use mode=classical")
    elif mode != "classical":
        raise DomainError(f"mode must be classical or q, got {mode!r}")
    _reject_unread(p, cfg.command)
    report = me.moment_check(nmax, k, mode)
    return {
        "command": "verify-moments",
        "params": {"mode": report.mode, "k": report.k, "q": report.q, "nmax": nmax},
        "records": [{"n": r.n, "lhs": float(r.lhs), "rhs": float(r.rhs),
                     "rel_err": float(r.rel_err)} for r in report.records],
        "lower_cutoff": float(report.lower_cutoff),
        "upper_cutoff": float(report.upper_cutoff),
        "node_count": report.node_count,
        "tail_estimate": float(report.tail_estimate),
        "tail_bound_residual": float(report.tail_bound_residual),
        "max_rel_err": float(report.max_rel_err),
    }


def _run_sweep_q(cfg: RunConfig) -> dict:
    p = cfg.params
    q_from = _series_q(p, "from").value
    q_to = _series_q(p, "to").value
    steps = _num(p, "steps", int, "12")
    if steps < 1:
        raise DomainError(f"steps= must be >= 1, got {steps}")
    a1, a2, k1, k2 = _nodes(p)
    n = _num(p, "N", int)
    delta_spec = p.pop("delta", "1")
    delta_power = delta_spec.startswith("q^")
    delta_num = _parse("delta", delta_spec[2:] if delta_power else delta_spec)
    _reject_unread(p, cfg.command)
    _check_budget(n, n, f"N={n}")
    if steps > MAX_COEFFICIENTS:
        raise DomainError(f"steps={steps} exceeds the budget of {MAX_COEFFICIENTS} steps")
    qs = [float(q) for q in np.linspace(q_from, q_to, steps)]
    rows = bp.sweep_q(a1, a2, k1, k2, qs, (lambda q: q ** delta_num) if delta_power
                      else (lambda q: delta_num), n)
    return {
        "command": "sweep-q",
        "params": {"from": q_from, "to": q_to, "steps": steps, "a1": _jc(a1),
                   "a2": _jc(a2), "k1": k1, "k2": k2, "delta": delta_spec, "N": n},
        "rows": [row._asdict() for row in rows],
    }


def _run_g_oracle(cfg: RunConfig) -> dict:
    p = cfg.params
    q = _series_q(p, "q")
    a1, a2, k1, k2 = _nodes(p)
    delta = _num(p, "delta", float, "1")
    nmax = _num(p, "nmax", int, "12")
    if nmax < 0:
        raise DomainError(f"g-oracle requires nmax >= 0, got {nmax}")
    _reject_unread(p, cfg.command)
    _check_budget(nmax, nmax, f"nmax={nmax}")
    params = bp.BipartiteParams(a1, a2, k1, k2, q)
    # an overflow here is caught and named by the check below
    with np.errstate(over="ignore", invalid="ignore"):
        g = bp.solve_g_recurrence(delta, params, nmax, nmax)
    # the relative errors divide by |g|; delta = 0 or a large nmax makes them 0/0
    bad = np.argwhere(~(np.isfinite(g) & (np.abs(g) >= np.finfo(float).tiny)))
    if bad.size:
        nn, mm = bad[0]
        raise DomainError(f"g-oracle at delta={delta}, nmax={nmax}: |g[{nn},{mm}]| = "
                          f"{abs(g[nn, mm]):.3g} is zero, subnormal or not finite, so its "
                          "relative errors are undefined")
    # |z| as np.hypot: numpy's vectorized complex abs may differ from it by an ulp
    ref = np.hypot(g.real, g.imag)
    rel_ansatz, rel_closed = (np.hypot(d.real, d.imag) / ref for d in (
        bp.g_ansatz_block(delta, params, nmax, nmax) - g,
        bp.g_closed_block(delta, params, nmax, nmax) - g))
    rows = [{"n": n, "m": m, "g": _jc(g[n, m]), "rel_ansatz": float(rel_ansatz[n, m]),
             "rel_closed": float(rel_closed[n, m])} for n, m in np.ndindex(g.shape)]
    return {
        "command": "g-oracle",
        "params": {"q": q.value, "a1": _jc(a1), "a2": _jc(a2), "k1": k1,
                   "k2": k2, "delta": delta, "nmax": nmax},
        "max_rel_recurrence_vs_ansatz": float(np.max(rel_ansatz)),
        "max_rel_recurrence_vs_closed": float(np.max(rel_closed)),
        "rows": rows,
    }


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    rows = payload.get("rows") or payload.get("records")
    if rows:
        cols = list(rows[0].keys())
        buf.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for col in cols:
                v = row[col]
                if isinstance(v, float):
                    cells.append(_fmt(v))
                elif isinstance(v, list):
                    cells.append(f"{_fmt(v[0])}{float(v[1]):+.16e}j")
                else:
                    cells.append(str(v))
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()
    # state payloads: the coefficient table is the data; JSON carries the
    # full metadata
    coeffs = payload["coefficients"]
    if isinstance(coeffs[0][0], list):     # bipartite matrix
        buf.write("n1,n2,re,im\n")
        for n1, row in enumerate(coeffs):
            for n2, (re, im) in enumerate(row):
                buf.write(f"{n1},{n2},{_fmt(re)},{_fmt(im)}\n")
    else:
        buf.write("n,re,im\n")
        for n, (re, im) in enumerate(coeffs):
            buf.write(f"{n},{_fmt(re)},{_fmt(im)}\n")
    return buf.getvalue()


def _layout(value, pad: str, depth: int = -1) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at indentation
    ``pad``, with ``%s`` for each scalar and for each value ``depth`` levels
    down.  A list repeats its first item's layout, so every item must be
    shaped like the first."""
    if not depth or not isinstance(value, (dict, list)):
        return "%s"
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, dict):
        return "{" + inner + ("," + inner).join([json.dumps(key).replace("%", "%%") + ": "
                                                 + _layout(v, inner, depth - 1)
                                                 for key, v in value.items()]) + pad + "}"
    return ("[" + inner + ("," + inner).join([_layout(value[0], inner, depth - 1)] * len(value))
            + pad + "]")


def _scalars(items: list) -> list:
    """The scalars of ``items``, each shaped like the first, in document order."""
    if items and isinstance(items[0], list):
        return _scalars(list(itertools.chain.from_iterable(items)))
    if items and isinstance(items[0], dict):
        return [s for item in items for v in item.values()
                for s in (_scalars([v]) if isinstance(v, (dict, list)) else (v,))]
    return items


def _to_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, but a NaN or infinity
    raises ValueError.  A dict or a list of lists of lists (a 2-D coefficient
    block) fills its one-level :func:`_layout` with its items' texts; any other
    value fills its layout with all its scalars, formatted by one call of
    json's C encoder and split at "\\x00", which encoded JSON never holds."""
    first = value[0] if isinstance(value, list) and value else None
    if isinstance(value, dict) or isinstance(first, list) and first and isinstance(first[0], list):
        items = value.values() if isinstance(value, dict) else value
        return _layout(value, pad, 1) % tuple([_to_json(v, pad + "  ") for v in items])
    scalars = _scalars([value])
    texts = json.dumps(scalars, allow_nan=False, separators=("\x00", ":"))[1:-1].split("\x00")
    return _layout(value, pad) % tuple(texts if scalars else ())


def _non_finite(value, path: str = ""):
    """Yield ``path = value`` for each NaN or infinity in ``value``, in document order."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _non_finite(v, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _non_finite(v, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield f"{path} = {value}"


def _emit(payload: dict, cfg: RunConfig) -> None:
    """Write the artifact; both formats refuse what strict JSON cannot hold."""
    try:
        if cfg.fmt == "csv":
            json.dumps(payload, allow_nan=False)
        text = _to_json(payload) if cfg.fmt == "json" else _to_csv(payload)
    except ValueError:
        raise ArithmeticError(f"{next(_non_finite(payload))} is not finite; "
                              "artifacts are strict JSON") from None
    if not text.endswith("\n"):
        text += "\n"
    if cfg.out:
        try:
            fh = open(cfg.out, "w")
        except OSError as exc:
            raise DomainError(f"cannot write out={cfg.out}: {exc.strerror}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def load_state_json(path: str):
    """Rebuild a BipartiteMatrix from a state-bipartite JSON artifact."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("command") != "state-bipartite":
        raise DomainError(f"{path} is not a state-bipartite artifact")
    p = data["params"]
    coeffs = np.array([[complex(re, im) for re, im in row]
                       for row in data["coefficients"]])
    qv = p["q"]
    q = CLASSICAL if qv is None else QParam(qv)
    params = bp.BipartiteParams(complex(*p["a1"]), complex(*p["a2"]),
                                p["k1"], p["k2"], q)
    return bp.BipartiteMatrix(coeffs=coeffs, params=params, normalized=True), data


_RUNNERS = {
    "state-single": _run_state_single,
    "state-bipartite": _run_state_bipartite,
    "verify-moments": _run_verify_moments,
    "sweep-q": _run_sweep_q,
    "g-oracle": _run_g_oracle,
}


def run(cfg: RunConfig) -> dict:
    """Execute a parsed configuration and return the payload dict.  A key the
    subcommand does not read is an invalid configuration, rejected before
    any work."""
    return _RUNNERS[cfg.command](dataclasses.replace(cfg, params=dict(cfg.params)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _parse_argv(argv)
        _emit(run(cfg), cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, TruncationError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (SeriesConvergenceError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
