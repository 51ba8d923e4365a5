"""Run-time spans and counters around each bgstates layer's entry points.

The library carries no instrumentation, so the traced run replaces each
entry point, in every ``bgstates`` module that binds it by name, with a
wrapper that records a span (metric, parent span, start, end, op id).  A
layer's self time is its spans' durations minus the time covered by their
child spans.  Counters ride on the same wrappers.

``_dd`` is measured by counts only: a span per double-double call would
double the cost of a moment check.  The modules that use ``_dd`` see a
proxy module whose functions count the call and its element width, so only
outermost calls are counted (``_dd``'s internal calls go through its own
globals, not the proxy).  Kernel costs come from a separate probe.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types

import numpy as np

# span metric -> (module, attribute) entry points that open such a span
SPANS = {
    "cli.emit": [("cli", "main")],
    "cli.run_self": [("cli", "run")],
    "bipartite.build": [("bipartite", "build_q_bipartite"),
                        ("bipartite", "classical_bipartite"),
                        ("bipartite", "_single_node_prefactors")],
    "bipartite.schmidt": [("bipartite", "schmidt_entropy")],
    "bipartite.residual": [("bipartite", "eigen_residual_parts"),
                           ("bipartite", "eigen_residual")],
    "bipartite.norm_series": [("bipartite", "norm_series")],
    "bipartite.g_recurrence": [("bipartite", "solve_g_recurrence")],
    "bipartite.g_oracle": [("bipartite", "g_ansatz_eval"),
                           ("bipartite", "g_closed_geometric")],
    "repalg.coproduct": [("repalg", "apply_coproduct")],
    "repalg.ladder": [("repalg", "apply_ladder"), ("repalg", "lowering_elements")],
    "costate.build": [("costate", "build_f_coherent"), ("costate", "build_q_coherent"),
                      ("costate", "build_by_operator_series")],
    "costate.normalization_series": [("costate", "normalization_series")],
    "measure.moment_check": [("measure", "moment_check")],
    "qspecial.bessel_k": [("qspecial", "_bessel_k_dd"), ("qspecial", "bessel_k")],
    "qspecial.bessel_i": [("qspecial", "_bessel_i_series"), ("qspecial", "bessel_i_q")],
    "qspecial.q_gamma": [("qspecial", "q_gamma")],
    "qspecial.q_factorial_cont": [("qspecial", "q_factorial_cont")],
}

# counters that need no span: (module, attribute) -> counter update
COUNT_ONLY = [("measure", "_base_integrand_classical"), ("measure", "_base_integrand_q"),
              ("measure", "_k_asymptotic")]

PACKAGE = "bgstates"
KERNEL_WIDTHS = (1, 16, 1024)
KERNEL_REPEATS = 9


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs.get(name)


class Tracer:
    """Installs the wrappers, records spans and counters, and restores."""

    def __init__(self):
        self.spans = []          # [op, metric, parent index, t0, t1]
        self.stack = []
        self.counts = dict.fromkeys(
            ("bipartite.coeff_entries", "costate.normalization_points",
             "measure.integrand_calls", "measure.nodes_evaluated", "measure.node_count",
             "qspecial.q_gamma_calls", "dd.calls", "dd.elements"), 0)
        self.op = -1
        self.missing = []
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _span(self, metric, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [self.op, metric, parent, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out, parent)
            return out
        return wrapper

    def _counter(self, fn, update):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            update(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _count_build(self, args, kwargs, out, parent):
        # the q > 1 route builds its mirror through a nested call: count once
        if parent < 0 or self.spans[parent][1] != "bipartite.build":
            self.counts["bipartite.coeff_entries"] += int(np.size(out.coeffs))

    def _count_norm_points(self, args, kwargs, out, parent):
        self.counts["costate.normalization_points"] += int(
            np.size(_first_arg(args, kwargs, "rho")))

    def _count_moment_nodes(self, args, kwargs, out, parent):
        self.counts["measure.node_count"] += int(out.node_count)

    def _count_q_gamma(self, args, kwargs, out, parent):
        self.counts["qspecial.q_gamma_calls"] += 1

    def _count_integrand(self, args, kwargs):
        self.counts["measure.integrand_calls"] += 1
        self.counts["measure.nodes_evaluated"] += int(
            np.size(_first_arg(args, kwargs, "rho")))

    def _count_tail_nodes(self, args, kwargs):
        # the classical tail past the cutoff is evaluated without the integrand
        self.counts["measure.nodes_evaluated"] += int(np.size(args[1]))

    def _count_dd(self, args, kwargs):
        self.counts["dd.calls"] += 1
        x = args[0] if args else None
        if isinstance(x, tuple):
            x = x[0]
        self.counts["dd.elements"] += int(np.size(x)) if x is not None else 0

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _replace_everywhere(self, original, replacement, skip=None):
        for module in self._modules():
            if module is skip:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        after = {"build_q_bipartite": self._count_build,
                 "classical_bipartite": self._count_build,
                 "normalization_series": self._count_norm_points,
                 "moment_check": self._count_moment_nodes,
                 "q_gamma": self._count_q_gamma}
        for metric, entries in SPANS.items():
            for mod_name, attr in entries:
                fn = getattr(mods.get(mod_name), attr, None)
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._replace_everywhere(fn, self._span(metric, fn, after.get(attr)))
        for mod_name, attr in COUNT_ONLY:
            fn = getattr(mods.get(mod_name), attr, None)
            if not callable(fn):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            update = self._count_tail_nodes if attr == "_k_asymptotic" else self._count_integrand
            self._replace_everywhere(fn, self._counter(fn, update))
        dd = mods.get("_dd")
        if dd is None:
            self.missing.append("_dd")
            return
        proxy = types.ModuleType(dd.__name__)
        for attr, value in vars(dd).items():
            if isinstance(value, types.FunctionType):
                value = self._counter(value, self._count_dd)
            setattr(proxy, attr, value)
        self._replace_everywhere(dd, proxy, skip=dd)
        for attr, value in vars(dd).items():
            if isinstance(value, types.FunctionType):
                self._replace_everywhere(value, getattr(proxy, attr), skip=dd)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict:
        """Summed self time per span metric over all recorded spans."""
        child = [0.0] * len(self.spans)
        for op, metric, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = dict.fromkeys(SPANS, 0.0)
        for i, (op, metric, parent, t0, t1) in enumerate(self.spans):
            out[metric] += (t1 - t0) - child[i]
        return out

    def dump_spans(self):
        base = self.spans[0][3] if self.spans else 0.0
        return [[op, metric, parent, round(t0 - base, 9), round(t1 - base, 9)]
                for op, metric, parent, t0, t1 in self.spans]


def dd_kernel_probe(dd) -> dict:
    """Microseconds per element for add + mul + div + exp + log at each width.

    Each figure is the sum over the five operations of the median (over
    KERNEL_REPEATS batches) per-call time, divided by the width.
    """
    rng = np.random.default_rng(0)
    out = {}
    for width in KERNEL_WIDTHS:
        x = rng.uniform(1.0, 2.0, width)
        a = (x, x * 1e-17)
        b = (x[::-1].copy(), x * -3e-17)
        small = (x - 1.5, x * 1e-18)
        calls = {"add": lambda: dd.add(a, b), "mul": lambda: dd.mul(a, b),
                 "div": lambda: dd.div(a, b), "exp": lambda: dd.exp(small),
                 "log": lambda: dd.log(a)}
        total = 0.0
        for fn in calls.values():
            t0 = time.perf_counter()
            fn()
            # batches of about 10 ms each
            per_batch = min(1000, max(3, int(0.01 / (time.perf_counter() - t0))))
            batches = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                for _ in range(per_batch):
                    fn()
                batches.append((time.perf_counter() - t0) / per_batch)
            total += statistics.median(batches)
        out[width] = total * 1e6 / width
    return out
