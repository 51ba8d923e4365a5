"""Per-op correctness gate and result digests.

An op passes when the CLI exits 0, its artifact parses as strict JSON (no
NaN or Infinity), the artifact's own accuracy fields meet the tolerances
pinned in ``tests/test_acceptance.py``, and its digest matches the one
recorded in ``reference.json``.

A digest is a short vector of result values per op.  Two digests match when
every entry agrees to DIGEST_REL relative (plus DIGEST_ABS absolute, for
entries that are roundoff-level by construction such as the entropy of a
product state).  A faster implementation that moves a digest past this
tolerance changed behaviour.
"""

from __future__ import annotations

import json
import math

import numpy as np

SINGLE_RESIDUAL = 1e-9       # criterion 1: single-node eigenvector law
BIPARTITE_RESIDUAL = 1e-8    # criterion 5: bipartite interior residual
NORM_REL_ERR = 1e-10         # norm series against the direct double sum
G_ORACLE = 1e-11             # criterion 3: recurrence / ansatz / closed form
CLASSICAL_MOMENTS = 1e-5     # criterion 8
Q_MOMENTS = 1e-3             # criterion 9

DIGEST_REL = 1e-9
DIGEST_ABS = 1e-13


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def load_strict(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _over(label: str, value: float, tol: float):
    if not value <= tol:
        return f"{label} {value:.3e} exceeds {tol:.0e}"
    return None


def _check_single(d):
    return _over("residual", d["residual"], SINGLE_RESIDUAL)


def _check_bipartite(d):
    reason = _over("residual_interior", d["residual_interior"], BIPARTITE_RESIDUAL)
    if reason is None and "norm_rel_err" in d:
        reason = _over("norm_rel_err", d["norm_rel_err"], NORM_REL_ERR)
    return reason


def _check_moments(d):
    tol = CLASSICAL_MOMENTS if d["params"]["mode"] == "classical" else Q_MOMENTS
    return _over("max_rel_err", d["max_rel_err"], tol)


def _check_sweep(d):
    return _over("residual_interior", max(r["residual_interior"] for r in d["rows"]),
                 BIPARTITE_RESIDUAL)


def _check_oracle(d):
    return (_over("max_rel_recurrence_vs_ansatz", d["max_rel_recurrence_vs_ansatz"], G_ORACLE)
            or _over("max_rel_recurrence_vs_closed", d["max_rel_recurrence_vs_closed"],
                     G_ORACLE))


def _digest_single(d):
    c = np.asarray(d["coefficients"], dtype=float)
    w = c[:, 0] ** 2 + c[:, 1] ** 2
    return [d["norm_before_truncation"], *c[1], *c[2],
            float(np.dot(np.arange(len(w)), w))]


def _digest_bipartite(d):
    c = np.asarray(d["coefficients"], dtype=float)
    w = c[..., 0] ** 2 + c[..., 1] ** 2
    sv = d["schmidt"]["singular_values"]
    out = [d["schmidt"]["entropy"], *sv[:3], *c[0, 0], *c[1, 0], *c[0, 1],
           float(np.dot(np.arange(w.shape[0]), w.sum(axis=1))),
           float(np.dot(np.arange(w.shape[1]), w.sum(axis=0)))]
    if "norm_series_value" in d:
        out.append(d["norm_series_value"])
    return out


def _digest_moments(d):
    return [r["lhs"] for r in d["records"]] + [d["upper_cutoff"], d["node_count"]]


def _digest_sweep(d):
    rows = d["rows"]
    return [sum(r["entropy"] for r in rows), sum(r["sigma2"] for r in rows),
            sum(r["fidelity_classical"] for r in rows), rows[0]["entropy"],
            rows[-1]["entropy"], rows[len(rows) // 2]["sigma2"]]


def _digest_oracle(d):
    g = {(r["n"], r["m"]): r["g"] for r in d["rows"]}
    return [*g[(0, 0)], *g[(1, 0)], *g[(0, 1)], *g[(1, 1)],
            sum(math.hypot(*v) for v in g.values())]


CHECKS = {
    "state-single": (_check_single, _digest_single),
    "state-bipartite": (_check_bipartite, _digest_bipartite),
    "verify-moments": (_check_moments, _digest_moments),
    "sweep-q": (_check_sweep, _digest_sweep),
    "g-oracle": (_check_oracle, _digest_oracle),
}


def judge(command: str, exit_code: int, text: str):
    """(failure reason or None, digest or None) for one op's outcome."""
    if exit_code != 0:
        return f"exit code {exit_code}", None
    try:
        data = load_strict(text)
    except ValueError as exc:
        return f"artifact is not strict JSON ({exc})", None
    check, digest = CHECKS[command]
    reason = check(data)
    if reason:
        return reason, None
    return None, [float(x) for x in digest(data)]


def digests_match(got, want) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= DIGEST_REL * max(abs(a), abs(b)) + DIGEST_ABS
        for a, b in zip(got, want))


def argv_key(argv) -> str:
    return " ".join(a for a in argv if not a.startswith("out="))
