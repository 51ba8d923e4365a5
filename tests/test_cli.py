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
    (_SINGLE, "seed=nan"),
    (["verify-moments", "mode=q", "k=1", "nmax=1"], "q=nan"),
    (["sweep-q", "from=0.99", "to=0.7", "steps=3", "a1=0.3", "a2=0.5", "k1=1", "k2=1",
      "N=20"], "delta=q^nan"),
]


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
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_float_formatting_17_sig_digits():
    assert cli._fmt(1.0) == "1.0000000000000000e+00"
    assert cli._fmt(1 / 3) == "3.3333333333333331e-01"
