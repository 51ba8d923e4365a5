"""CLI surface tests: subcommands, formats, exit codes, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bgstates import bipartite as bp
from bgstates import cli
from bgstates import qspecial as qs
from bgstates import repalg as ra
from bgstates.errors import SeriesConvergenceError


def run_cli(args, capsys=None):
    code = cli.main(args)
    return code


class TestStateBipartite:
    ARGS = ["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
            "delta=1", "N=50"]

    def test_json_payload(self, tmp_path):
        out = tmp_path / "state.json"
        assert run_cli(self.ARGS + [f"out={out}"]) == 0
        data = json.loads(out.read_text())
        assert data["schmidt"]["entropy"] > 0
        assert data["residual_interior"] <= 1e-8
        assert data["norm_rel_err"] <= 1e-8
        assert len(data["coefficients"]) == 51

    def test_round_trip(self, tmp_path):
        out = tmp_path / "state.json"
        run_cli(self.ARGS + [f"out={out}"])
        M, data = cli.load_state_json(str(out))
        assert bp.eigen_residual(M) == pytest.approx(data["residual_interior"],
                                                     abs=1e-12)
        assert bp.schmidt_entropy(M).entropy == pytest.approx(
            data["schmidt"]["entropy"], abs=1e-12)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(self.ARGS + [f"out={a}"])
        run_cli(self.ARGS + [f"out={b}"])
        assert a.read_bytes() == b.read_bytes()

    def test_perturbation_is_seeded_and_sensitive(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        extra = ["perturb=0.01", "seed=7"]
        run_cli(self.ARGS + extra + [f"out={a}"])
        run_cli(self.ARGS + extra + [f"out={b}"])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["perturbed_residual"] == db["perturbed_residual"]
        assert da["perturbed_residual"] > 1e-3

    def test_huge_perturbation_is_the_noise_direction(self, tmp_path):
        # eps * noise and its norm leave double range past |eps| ~ 1e154;
        # the state is then all noise, whatever the size or sign of eps
        residuals = []
        for eps in ("1e160", "1e308", "-1e308"):
            out = tmp_path / f"p{eps}.json"
            assert run_cli(self.ARGS + [f"perturb={eps}", "seed=7", f"out={out}"]) == 0
            residuals.append(json.loads(out.read_text())["perturbed_residual"])
        assert all(np.isfinite(r) and r > 1e-3 for r in residuals)
        assert residuals[1] == pytest.approx(residuals[0], rel=1e-12)
        assert residuals[2] == pytest.approx(residuals[0], rel=1e-12)

    def test_classical_mode(self, tmp_path):
        out = tmp_path / "c.json"
        args = ["state-bipartite", "q=classical", "a1=0.3", "a2=0.5", "k1=1",
                "k2=1", "N=40", f"out={out}"]
        assert run_cli(args) == 0
        data = json.loads(out.read_text())
        assert data["schmidt"]["entropy"] == pytest.approx(0.0, abs=1e-10)

    def test_crossing_mode(self, tmp_path):
        out = tmp_path / "x.json"
        args = ["state-bipartite", "q=1.25", "a1=0.3", "a2=0.5", "k1=1",
                "k2=1", "delta=1", "N=45", f"out={out}"]
        assert run_cli(args) == 0
        data = json.loads(out.read_text())
        assert data["residual_interior"] <= 1e-8
        # q > 1 artifacts round-trip too
        M, stored = cli.load_state_json(str(out))
        assert bp.eigen_residual(M) == pytest.approx(stored["residual_interior"],
                                                     abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=0.75"],
        ["q=1.1", "a1=0.3", "a2=0.5", "k1=0.75", "k2=1"]])
    def test_non_integer_k_checks_its_norm(self, argv, tmp_path):
        # the norm series takes real q-Bessel orders: a non-integer k2 (or,
        # through the q > 1 mirror, k1) is checked like any other
        out = tmp_path / "n.json"
        assert run_cli(["state-bipartite", *argv, "N=30", f"out={out}"]) == 0
        data = json.loads(out.read_text())
        assert data["norm_rel_err"] <= 1e-10

    def test_csv_state_is_coefficient_table(self, tmp_path):
        out = tmp_path / "s.csv"
        args = ["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                "delta=1", "N=20", "format=csv", f"out={out}"]
        assert run_cli(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n1,n2,re,im"
        assert len(lines) == 1 + 21 * 21


class TestStateSingle:
    def test_payload(self, tmp_path):
        out = tmp_path / "s.json"
        args = ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=50", f"out={out}"]
        assert run_cli(args) == 0
        data = json.loads(out.read_text())
        assert data["residual"] <= 1e-10
        coeffs = np.array([complex(re, im) for re, im in data["coefficients"]])
        assert abs(np.linalg.norm(coeffs) - 1) < 1e-10

    def test_classical_large_k(self, tmp_path):
        # the norm cross-check's closed form no longer forms nu! past double range
        out = tmp_path / "s.json"
        args = ["state-single", "q=classical", "alpha=0.8", "k=86", "N=50", f"out={out}"]
        assert run_cli(args) == 0
        assert json.loads(out.read_text())["residual"] <= 1e-10

    @pytest.mark.filterwarnings("error")      # a RuntimeWarning fails the test
    @pytest.mark.parametrize("argv", [
        "q=0.00105 alpha=0.3 k=1 N=101", "q=0.001 alpha=3 k=0.75 N=101",
        "q=0.01 alpha=0.3 k=1 N=101", "q=0.01 alpha=3 k=0.75 N=101",
        "q=0.2 alpha=0.3 k=1 N=400", "q=0.2 alpha=3 k=0.75 N=400"])
    def test_small_q_residual_is_finite(self, argv, capsys):
        # the lowering table overflows past the coefficients' underflowed tail
        def no_constant(name):
            raise AssertionError(f"non-finite {name} in output")

        assert run_cli(["state-single", *argv.split()]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out, parse_constant=no_constant)["residual"] <= 1e-9
        assert "Warning" not in err


class TestVerifyMoments:
    def test_classical(self, tmp_path):
        out = tmp_path / "m.json"
        args = ["verify-moments", "mode=classical", "k=1", "nmax=3", f"out={out}"]
        assert run_cli(args) == 0
        data = json.loads(out.read_text())
        assert all(rec["rel_err"] <= 1e-5 for rec in data["records"])

    def test_q_csv(self, tmp_path):
        out = tmp_path / "m.csv"
        args = ["verify-moments", "mode=q", "q=0.95", "k=1", "nmax=2",
                "format=csv", f"out={out}"]
        assert run_cli(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,lhs,rhs,rel_err"
        assert len(lines) == 4


class TestSweepQ:
    def test_entropy_endpoints(self, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep-q", "from=0.999", "to=0.5", "steps=4", "a1=0.3", "a2=0.5",
                "k1=1", "k2=1", "delta=1", "N=40", "format=csv", f"out={out}"]
        assert run_cli(args) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        ientropy = header.index("entropy")
        first = float(lines[1].split(",")[ientropy])
        last = float(lines[-1].split(",")[ientropy])
        assert first <= 1e-6
        assert last > 1e-6

    def test_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-q", "from=0.99", "to=0.7", "steps=3", "a1=0.3", "a2=0.5",
                "k1=1", "k2=1", "delta=1", "N=40", "format=csv"]
        run_cli(args + [f"out={a}"])
        run_cli(args + [f"out={b}"])
        assert a.read_bytes() == b.read_bytes()


class TestGOracle:
    def test_triangle(self, tmp_path):
        out = tmp_path / "g.json"
        args = ["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                "delta=0.9", "nmax=12", f"out={out}"]
        assert run_cli(args) == 0
        data = json.loads(out.read_text())
        assert data["max_rel_recurrence_vs_ansatz"] <= 1e-11
        assert data["max_rel_recurrence_vs_closed"] <= 1e-11


_SINGLE = ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=20"]
_PAIR = ["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=20"]

# (argv, one more key=value that must be rejected naming its key)
NON_FINITE = [
    (["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "nmax=3"], "delta=nan"),
    (_PAIR, "perturb=nan"),
    (_PAIR, "perturb=inf"),
    (_PAIR[:2] + _PAIR[3:], "a1=nan"),
    (_SINGLE[:2] + _SINGLE[3:], "alpha=0.8+infj"),
    (_SINGLE[:3] + _SINGLE[4:], "k=inf"),
    (_SINGLE[:1] + _SINGLE[2:], "q=-inf"),
    (_SINGLE[:-1], "N=2.5"),
    (_PAIR + ["perturb=0.01"], "seed=nan"),
    (["verify-moments", "mode=q", "k=1", "nmax=1"], "q=nan"),
    (["sweep-q", "from=0.99", "to=0.7", "steps=3", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
      "N=20"], "delta=q^nan"),
]


class TestTableBuilds:
    """Each q-table is formed once per call: one lowering table per node and
    state, one q-binomial triangle per g-oracle; and the closed-form g block
    once per scalar-delta state or g-oracle."""

    PAIR = ["a1=0.5", "a2=0.3", "k1=1", "k2=1", "N=30"]

    # (argv, the level count of each table built, in order)
    @pytest.mark.parametrize("argv, counts", [
        (["sweep-q", "from=0.9", "to=0.8", "steps=1", *PAIR], [31] * 2),
        (["sweep-q", "from=0.9", "to=0.8", "steps=3", "delta=q^2", *PAIR[:3], "k2=1.5",
          "N=30"], [31] * 6),
        (["state-bipartite", "q=0.9", *PAIR], [31] * 2),
        (["state-bipartite", "q=0.9", *PAIR, "perturb=0.01"], [31] * 2),
        (["state-bipartite", "q=classical", *PAIR], []),
        (["state-bipartite", "q=1.25", *PAIR], [31] * 2),
        (["state-single", "q=0.9", "alpha=0.8", "k=1", "N=30"], [32]),
        (["g-oracle", "q=0.7", *PAIR[:4], "delta=0.9", "nmax=14"], []),
    ], ids=["sweep-step", "sweep-3-steps", "pair", "pair-perturbed", "pair-classical",
            "pair-crossing", "single", "g-oracle"])
    def test_one_lowering_table_per_node(self, argv, counts, monkeypatch, tmp_path):
        builds = []
        build = ra._q_lowering_elements
        monkeypatch.setattr(ra, "_q_lowering_elements",
                            lambda q, k, count: builds.append(count) or build(q, k, count))
        assert run_cli(argv + [f"out={tmp_path / 'a.json'}"]) == 0
        assert builds == counts

    def test_one_binomial_triangle_per_g_oracle(self, monkeypatch, tmp_path):
        calls = []
        binomial = bp.q_binomial
        monkeypatch.setattr(bp, "q_binomial", lambda *a: calls.append(a) or binomial(*a))
        assert run_cli(["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "delta=0.9",
                        "nmax=14", f"out={tmp_path / 'g.json'}"]) == 0
        assert len(calls) == 120 == len(set(calls))

    @pytest.mark.parametrize("argv, blocks", [
        (["g-oracle", "q=0.7", *PAIR[:4], "delta=0.9", "nmax=14"], 1),
        (["state-bipartite", "q=0.9", *PAIR], 1),
        (["state-bipartite", "q=1.25", *PAIR], 1),
        (["sweep-q", "from=0.9", "to=0.8", "steps=3", *PAIR], 3),
    ], ids=["g-oracle", "pair", "pair-crossing", "sweep-3-steps"])
    def test_one_closed_form_block_per_g(self, argv, blocks, monkeypatch, tmp_path):
        calls = []
        block, pochhammer = bp.g_closed_block, qs.q_pochhammer
        monkeypatch.setattr(bp, "g_closed_block",
                            lambda *a: calls.append("block") or block(*a))

        def counted(*a):
            calls.append("pochhammer")
            return pochhammer(*a)

        monkeypatch.setattr(qs, "q_pochhammer", counted)
        monkeypatch.setattr(bp, "q_pochhammer", counted, raising=False)
        assert run_cli(argv + [f"out={tmp_path / 'a.json'}"]) == 0
        assert calls == ["block"] * blocks


class TestExitCodes:
    def test_invalid_config_is_2(self, capsys):
        assert run_cli(["state-bipartite", "q=0.9", "a1=0.3", "k1=1"]) == 2
        assert "a2" in capsys.readouterr().err

    def test_bad_subcommand_is_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_precondition_named(self, capsys):
        code = run_cli(["state-bipartite", "q=0.9", "a1=0.5", "a2=-0.5",
                        "k1=1", "k2=1", "N=30"])
        assert code == 2
        assert "alpha1 + alpha2" in capsys.readouterr().err

    def test_truncation_is_2(self, capsys):
        code = run_cli(["state-single", "q=classical", "alpha=2.5", "k=1", "N=4"])
        assert code == 2
        assert "truncation" in capsys.readouterr().err

    def test_numerical_failure_is_3(self, monkeypatch, capsys):
        def boom(cfg):
            raise SeriesConvergenceError("test series", "synthetic")
        monkeypatch.setitem(cli._RUNNERS, "state-single", boom)
        code = run_cli(["state-single", "q=0.9", "alpha=0.5", "k=1", "N=20"])
        assert code == 3
        assert "test series" in capsys.readouterr().err

    def test_help_is_0(self):
        assert run_cli(["--help"]) == 0

    def test_g_oracle_negative_nmax_is_2(self, capsys):
        code = run_cli(["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        "delta=0.9", "nmax=-1"])
        assert code == 2
        assert "nmax >= 0" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")      # a RuntimeWarning fails the test
    def test_g_oracle_zero_delta_is_2_without_nan(self, capsys):
        def no_constant(name):
            raise AssertionError(f"non-finite {name} in output")

        code = run_cli(["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        "delta=0", "nmax=3"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("invalid configuration:") and "delta" in err
        assert "Warning" not in err
        assert out == ""
        # a nonzero delta still emits strict JSON
        assert run_cli(["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        "delta=0.5", "nmax=3"]) == 0
        out, err = capsys.readouterr()
        json.loads(out, parse_constant=no_constant)
        assert "Warning" not in err

    @pytest.mark.filterwarnings("error")      # a RuntimeWarning fails the test
    def test_g_oracle_overflow_is_2_without_warnings(self, capsys):
        code = run_cli(["g-oracle", "q=0.99", "a1=0.05", "a2=1", "k1=1", "k2=1", "delta=1",
                        "nmax=240"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ("invalid configuration: g-oracle at delta=1.0, nmax=240: "
                       "|g[235,0]| = inf is zero, subnormal or not finite, so its "
                       "relative errors are undefined\n")
        assert out == ""

    @pytest.mark.filterwarnings("error")      # a RuntimeWarning fails the test
    @pytest.mark.parametrize("argv, bad", NON_FINITE, ids=[bad for _, bad in NON_FINITE])
    def test_unparsable_or_non_finite_value_is_2(self, argv, bad, capsys):
        code = run_cli(argv + [bad])
        out, err = capsys.readouterr()
        assert code == 2
        key = bad.partition("=")[0]
        assert err.startswith(f"invalid configuration: {key}= must be")
        assert out == ""

    def test_q_number_overflow_is_2(self, capsys):
        code = run_cli(["state-single", "q=0.9", "alpha=0.8", "k=1", "N=10000"])
        assert code == 2
        assert "]_q overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["q=1.25", "a1=0.5", "a2=0", "N=20"], "alpha2 = 0 makes xi = 0"),
        (["q=1.1", "a1=0.9", "a2=0.05", "N=800"],
         "coefficient assembly overflowed; |alpha/alpha2| is too large"),
    ], ids=["zero-alpha2", "overflow"])
    def test_crossing_names_the_propagating_node(self, argv, message, capsys):
        # g of a q > 1 state propagates from node 2, its crossing mirror's node 1
        code = run_cli(["state-bipartite", *argv, "k1=1", "k2=1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("invalid configuration: " + message)
        assert out == ""

    def test_crossing_overflow_names_the_q_given(self, capsys):
        # only g is solved at 1/q = 1e-300; the profiles are formed at q, so
        # the message names the q of the argv without any rewriting
        code = run_cli(["state-bipartite", "q=1e300", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        "N=50"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == ("invalid configuration: q-number [2]_q overflows double range "
                       "at q=1e+300\n")
        assert out == ""

    @pytest.mark.filterwarnings("error")
    def test_assembly_overflow_is_2_without_warnings(self, capsys):
        code = run_cli(["state-bipartite", "q=0.9", "a1=0.05", "a2=0.9", "k1=1", "k2=1",
                        "N=800"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "coefficient assembly overflowed" in err
        assert out == ""

    @pytest.mark.parametrize("q", ["0.9", "1.25"])
    @pytest.mark.parametrize("truncation", [["N=0"], ["N=5", "N2=0"]])
    def test_zero_truncation_is_2(self, q, truncation, capsys):
        code = run_cli(["state-bipartite", f"q={q}", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        *truncation])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("invalid configuration: truncation N must be >= 1")
        assert out == ""

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_sweep_steps_below_one_is_2(self, steps, capsys):
        code = run_cli(["sweep-q", "from=0.99", "to=0.7", f"steps={steps}", "a1=0.3",
                        "a2=0.5", "k1=1", "k2=1", "N=20"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith(f"invalid configuration: steps= must be >= 1, got {steps}")
        assert out == ""

    @pytest.mark.filterwarnings("error")      # a RuntimeWarning fails the test
    def test_g_oracle_underflow_is_2_without_nan(self, capsys):
        # at nmax = 50 entries of g reach subnormals and zero, and the
        # relative errors against them would be 0/0
        code = run_cli(["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                        "delta=0.9", "nmax=50"])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("invalid configuration: g-oracle at delta=0.9, nmax=50: |g[")
        assert "subnormal" in err
        assert out == ""

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "m.json"
        code = run_cli(["verify-moments", "mode=classical", "k=1", "nmax=1",
                        f"out={target}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration:")
        assert str(target) in err
        assert not target.parent.exists()

    # one small valid argv per subcommand, each given a key it does not use;
    # seed= is read only next to perturb=
    UNUSED = {
        "state-single": ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=20", "aplha=0.5"],
        "state-bipartite": ["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
                            "N=20", "detla=0.6"],
        "verify-moments": ["verify-moments", "mode=classical", "k=1", "nmax=1", "q=0.9"],
        "sweep-q": ["sweep-q", "from=0.99", "to=0.7", "steps=2", "a1=0.3", "a2=0.5", "k1=1",
                    "k2=1", "N=20", "stesp=40"],
        "g-oracle": ["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "nmax=3",
                     "nmx=5"],
        "state-single-seed": ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=10", "seed=7"],
        "state-bipartite-seed": _PAIR + ["seed=7"],
    }

    @pytest.mark.parametrize("argv", UNUSED.values(), ids=UNUSED.keys())
    def test_unused_key_is_2(self, argv, capsys):
        code = run_cli(argv)
        out, err = capsys.readouterr()
        assert code == 2
        assert err == (f"invalid configuration: {argv[0]} does not use the key(s) "
                       f"{argv[-1].partition('=')[0]}=\n")
        assert out == ""
        # without it the same argv runs, and run() leaves the caller's params as given
        cfg = cli._parse_argv(argv[:-1])
        params = dict(cfg.params)
        cli.run(cfg)
        assert cfg.params == params and type(cfg.params) is dict

    @pytest.mark.parametrize("argv", [*UNUSED.values(), _PAIR[:6] + ["N=400", "detla=0.6"]],
                             ids=[*UNUSED.keys(), "state-bipartite-N400"])
    def test_unused_key_is_2_before_any_work(self, argv, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the keys were checked")

        for name in ("classical_bipartite", "build_q_bipartite", "solve_g_recurrence"):
            monkeypatch.setattr(bp, name, no_work)
        monkeypatch.setattr(cli.me, "moment_check", no_work)
        monkeypatch.setattr(cli.cs, "build_q_coherent", no_work)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == (f"invalid configuration: {argv[0]} does not use "
                                           f"the key(s) {argv[-1].partition('=')[0]}=\n")

    @pytest.mark.parametrize("argv", [["state-single", "q=1", "alpha=0.8", "k=1", "N=20"],
                                      ["state-bipartite", "q=1", "a1=0.3", "a2=0.5", "k1=1",
                                       "k2=1", "N=20"]])
    def test_q_one_points_to_classical(self, argv, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == ("invalid configuration: q=1 is the undeformed "
                                           "algebra; pass q=classical\n")

    @pytest.mark.parametrize("argv, message", [
        (["verify-moments", "mode=q", "q=1", "k=1", "nmax=1"],
         "q= must satisfy 0 < q < 1, got 1.0; for q = 1 use mode=classical"),
        (["g-oracle", "q=1", "a1=0.3", "a2=0.5", "k1=1", "k2=1"],
         "q= must satisfy 0 < q < 1, got 1.0"),
        (["g-oracle", "q=1.2", "a1=0.3", "a2=0.5", "k1=1", "k2=1"],
         "q= must satisfy 0 < q < 1, got 1.2"),
        (["sweep-q", "from=1", "to=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=20"],
         "from= must satisfy 0 < q < 1, got 1.0"),
        (["sweep-q", "from=0.99", "to=1.5", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=20"],
         "to= must satisfy 0 < q < 1, got 1.5"),
        (["state-single", "q=0", "alpha=0.8", "k=1", "N=20"], "q= must be positive, got 0.0"),
        (["state-single", "q=1.5", "alpha=0.8", "k=1", "N=20"],
         "q= must satisfy 0 < q < 1, got 1.5; the symmetric q-number makes the state at q "
         "the state at 1/q"),
        (_PAIR[:1] + ["q=-0.5"] + _PAIR[2:], "q= must be positive, got -0.5"),
    ], ids=["verify-moments", "g-oracle-1", "g-oracle-1.2", "sweep-q-from", "sweep-q-to",
            "state-single", "state-single-1.5", "state-bipartite"])
    def test_q_outside_unit_interval_names_its_key(self, argv, message, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before q was checked")

        for name in ("classical_bipartite", "build_q_bipartite", "solve_g_recurrence"):
            monkeypatch.setattr(bp, name, no_work)
        monkeypatch.setattr(cli.me, "moment_check", no_work)
        monkeypatch.setattr(cli.cs, "build_q_coherent", no_work)
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"invalid configuration: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["state-single", "q=0.9", "alpha=0.8", "k=1", "N=100"],
         "N=100: a block of 101 coefficients exceeds the budget of 100"),
        (["state-single", "q=classical", "alpha=0.8", "k=1", "N=100"],
         "N=100: a block of 101 coefficients exceeds the budget of 100"),
        (["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=9", "N2=10"],
         "N=9, N2=10: a block of 110 coefficients exceeds the budget of 100"),
        (["state-bipartite", "q=1.25", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=100", "N2=0"],
         "N=100, N2=0: a block of 101 coefficients exceeds the budget of 100"),
        (["state-bipartite", "q=classical", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=10"],
         "N=10, N2=10: a block of 121 coefficients exceeds the budget of 100"),
        (["sweep-q", "from=0.99", "to=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=10"],
         "N=10: a block of 121 coefficients exceeds the budget of 100"),
        (["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "nmax=10"],
         "nmax=10: a block of 121 coefficients exceeds the budget of 100"),
    ], ids=["single", "single-classical", "pair", "pair-crossing", "pair-classical", "sweep",
            "g-oracle"])
    def test_oversized_truncation_is_2_before_any_work(self, argv, message, monkeypatch,
                                                       capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the truncation was checked")

        monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 100)
        for name in ("classical_bipartite", "build_q_bipartite", "solve_g_recurrence"):
            monkeypatch.setattr(bp, name, no_work)
        monkeypatch.setattr(cli.cs, "build_q_coherent", no_work)
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"invalid configuration: {message}\n"
        assert out == ""

    def test_oversized_sweep_is_2_before_any_work(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before steps= was checked")

        for name in ("classical_bipartite", "build_q_bipartite"):
            monkeypatch.setattr(bp, name, no_work)
        budget = cli.MAX_COEFFICIENTS
        argv = ["sweep-q", "from=0.99", "to=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "N=10"]
        assert run_cli(argv + [f"steps={budget + 1}"]) == 2
        out, err = capsys.readouterr()
        assert err == (f"invalid configuration: steps={budget + 1} exceeds the budget of "
                       f"{budget} steps\n")
        assert out == ""
        # a sweep of exactly the budget passes the check and starts work
        with pytest.raises(AssertionError, match="work started"):
            run_cli(argv + [f"steps={budget}"])

    def test_truncation_at_the_budget_runs(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_COEFFICIENTS", 21 * 21)
        assert run_cli(_PAIR) == 0
        assert run_cli(["state-single", "q=0.9", "alpha=0.8", "k=1", "N=440"]) == 0

    def test_below_bargmann_bound_is_2(self, capsys):
        # k = 0 gives nu = -1, which has no measure; unchecked, this argv never ends
        assert run_cli(["verify-moments", "mode=q", "q=0.9", "k=0", "nmax=1"]) == 2
        out, err = capsys.readouterr()
        assert err == ("invalid configuration: Bargmann index must satisfy k >= 1/2, "
                       "got 0.0\n")
        assert out == ""


class TestJsonEmitter:
    """The coefficient blocks and the rows and records lists are written
    without json's pure-Python encoder; the bytes must be those of
    json.dumps(payload, indent=2)."""

    SPECIAL = [-0.0, 5e-324, -5e-324, 1e308, -1e308, np.nan, np.inf, -np.inf]

    @staticmethod
    def payload(coeffs):
        return {"command": "state-bipartite",
                "params": {"q": None, "a1": [0.3, -0.0], "N1": 3, "delta": "q^2"},
                "coefficients": coeffs,
                "schmidt": {"singular_values": [1.0, np.nan, 1e-300], "rank_eps": 2},
                "residual": np.inf}

    @pytest.mark.parametrize("shape", [(1,), (2,), (51,), (1, 1), (7, 1), (1, 7), (6, 9)],
                             ids=str)
    def test_random_blocks_match_json_dumps(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            block = (rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
                     + 1j * rng.standard_normal(shape))
            flat = block.reshape(-1)
            for z in rng.choice(self.SPECIAL, size=(flat.size, 2)):
                if rng.random() < 0.5:
                    flat[rng.integers(flat.size)] = complex(*z)
            coeffs = cli._jc_array(block)
            # the same nested [re, im] lists as one _jc per entry
            per_entry = ([cli._jc(z) for z in block] if block.ndim == 1
                         else [[cli._jc(z) for z in row] for row in block])
            assert json.dumps(coeffs) == json.dumps(per_entry)
            payload = self.payload(coeffs)
            assert cli._to_json(payload) == json.dumps(payload, indent=2)

    def test_payload_without_coefficients_is_json_dumps(self):
        payload = {"command": "sweep-q", "rows": [{"q": 0.9, "entropy": -0.0}]}
        assert cli._to_json(payload) == json.dumps(payload, indent=2)
        assert cli._json_pairs([], 1) == "[]"
        assert cli._json_rows([], 1) == "[]"

    @pytest.mark.parametrize("key", ["rows", "records"])
    @pytest.mark.parametrize("count", [1, 2, 225])
    def test_random_rows_match_json_dumps(self, key, count):
        rng = np.random.default_rng(count)
        for _ in range(10):
            values = rng.standard_normal((count, 5)) * 10.0 ** rng.integers(-300, 300, (count, 5))
            flat = values.reshape(-1)
            for x in rng.choice(self.SPECIAL, size=flat.size // 3 + 1):
                flat[rng.integers(flat.size)] = x
            rows = [{"n": int(i), "m": -int(i) * 7 ** 30, "g": [float(v[0]), float(v[1])],
                     "rel_ansatz": float(v[2]), "sigma %s": float(v[3]), "q": [float(v[4])]}
                    for i, v in enumerate(values)]
            payload = {"command": "g-oracle", "max_rel": np.nan, key: rows,
                       "params": {"delta": "q^2"}}
            assert cli._to_json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize("argv", [
        ["g-oracle", "q=0.7", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "delta=0.9", "nmax=14"],
        ["g-oracle", "q=0.6", "a1=0.3+0.2j", "a2=0.5", "k1=0.5", "k2=1.5", "nmax=0"],
        ["sweep-q", "from=0.999", "to=0.5", "steps=12", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
         "delta=q^2", "N=30"],
        ["verify-moments", "mode=classical", "k=1", "nmax=3"],
    ], ids=["readme-g-oracle", "g-oracle-1x1", "sweep", "moments"])
    def test_row_artifacts_match_json_dumps(self, argv, tmp_path):
        payload = cli.run(cli._parse_argv(argv))
        out = tmp_path / "a.json"
        assert run_cli(argv + [f"out={out}"]) == 0
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["state-single", "q=0.9", "alpha=0.8", "k=1", "N=50"],
        ["state-bipartite", "q=0.9", "a1=0.3", "a2=0.5", "k1=1", "k2=1", "delta=1", "N=50"],
        ["state-bipartite", "q=0.9", "a1=0.3+0.1j", "a2=0.0001", "k1=1", "k2=1.5", "N=30",
         "N2=1"],
        ["state-bipartite", "q=1.25", "a1=0.0001", "a2=0.3+0.1j", "k1=1", "k2=1.5", "N=1",
         "N2=30"],
    ], ids=["readme-single", "readme-pair", "complex-31x2", "crossing-2x31"])
    def test_state_artifacts_match_json_dumps(self, argv, tmp_path):
        payload = cli.run(cli._parse_argv(argv))
        out = tmp_path / "a.json"
        assert run_cli(argv + [f"out={out}"]) == 0
        assert out.read_text() == json.dumps(payload, indent=2) + "\n"
        # format=csv writes the same coefficients as a table
        csv = tmp_path / "a.csv"
        assert run_cli(argv + ["format=csv", f"out={csv}"]) == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        flat = np.array(payload["coefficients"]).reshape(-1, 2)
        assert len(rows) == len(flat)
        assert np.array_equal([[float(r[-2]), float(r[-1])] for r in rows], flat)


def _run_script(script):
    """Run a Python script in a fresh interpreter that imports this bgstates;
    returns its stdout."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: a CLI process must never load it
    script = (
        "import sys\n"
        "from bgstates import cli\n"
        f"out = {str(tmp_path / 'a.json')!r}\n"
        "assert cli.main(['verify-moments', 'mode=q', 'q=0.9', 'k=1', 'nmax=2',\n"
        "                 'out=' + out]) == 0\n"
        "assert cli.main(['sweep-q', 'from=0.99', 'to=0.7', 'steps=3', 'a1=0.3',\n"
        "                 'a2=0.5', 'k1=0.75', 'k2=1', 'N=20', 'out=' + out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    assert _run_script(script) == "[]"


def test_state_commands_do_not_load_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rule of the moment quadratures is built on first use,
    # so the other commands never import numpy.polynomial
    script = (
        "import sys\n"
        "import numpy\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "from bgstates import cli\n"
        f"out = {str(tmp_path / 'a.json')!r}\n"
        "assert cli.main(['state-single', 'q=0.9', 'alpha=0.8', 'k=1', 'N=50',\n"
        "                 'out=' + out]) == 0\n"
        "assert cli.main(['state-bipartite', 'q=0.9', 'a1=0.3', 'a2=0.5', 'k1=1',\n"
        "                 'k2=1', 'N=50', 'out=' + out]) == 0\n"
        "print(before, 'numpy.polynomial' in sys.modules)\n")
    before, after = _run_script(script).split()
    if before == "True":
        pytest.skip("import numpy alone loads numpy.polynomial")
    assert after == "False"


def test_float_formatting_17_sig_digits():
    assert cli._fmt(1.0) == "1.0000000000000000e+00"
    assert cli._fmt(1 / 3) == "3.3333333333333331e-01"
