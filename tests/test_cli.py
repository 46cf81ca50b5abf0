"""CLI behavior: outputs, determinism, exit codes, config handling."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optomech
from optomech.cli import main


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def only(dirpath, pattern):
    hits = sorted(dirpath.glob(pattern))
    assert len(hits) == 1, f"expected one {pattern}, found {hits}"
    return hits[0]


def run_python(args, cwd):
    # a fresh interpreter with a timeout, so a hang fails the test instead of the suite
    src = str(Path(optomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def run_subprocess(argv, cwd):
    return run_python(["-m", "optomech.cli", *argv], cwd)


class TestCoeffs:
    def test_csv_contents(self, tmp_path):
        assert run(["coeffs", "--kmax", "2", "--out-dir", str(tmp_path)]) == 0
        path = only(tmp_path, "coeffs-*.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "k,j,g,h,d,r_k"
        assert len(lines) == 5
        row12 = lines[2].split(",")
        assert row12[:2] == ["1", "2"]
        assert float(row12[2]) == -4.0 / 3.0
        assert float(row12[3]) == -64.0 / 9.0

    def test_shortest_roundtrip_floats(self, tmp_path):
        run(["coeffs", "--kmax", "2", "--out-dir", str(tmp_path)])
        path = only(tmp_path, "coeffs-*.csv")
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(",")[2:]:
                assert repr(float(cell)) == cell


class TestVerify:
    def test_report_passes(self, tmp_path):
        code = run(["verify", "--kmax", "8", "--ltrunc", "10000",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        doc = read_json(only(tmp_path, "verify-*.json"))
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "gram_identity_max" in names
        assert any(n.startswith("mode_sum_rule_k") for n in names)
        assert all("tolerance" in c for c in doc["checks"])


class TestRates:
    def test_zero_drive_zeroes_linearized(self, tmp_path, monkeypatch):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"a_amp": 0.0, "b_amp": 0.0}))
        assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        doc = read_json(only(tmp_path, "rates-*.json"))
        for key in ("g3", "g4_plus", "g4_minus", "G4_plus", "G4_minus", "J", "lam"):
            assert doc[key] == 0.0
        assert doc["notes"]["r_convention"] == "exact"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"kmax": 1, "r_convention": "exact"}))
        assert run(["rates", "--config", str(cfg), "--kmax", "3",
                    "--r-convention", "prose", "--out-dir", str(tmp_path)]) == 0
        doc = read_json(only(tmp_path, "rates-*.json"))
        assert len(doc["w"]) == 3
        assert doc["R"] == 0.95


class TestEvolve:
    def test_trajectory_csv(self, tmp_path):
        assert run(["evolve", "--kmax", "2", "--t-end", "2.0",
                    "--rel-tol", "1e-8", "--abs-tol", "1e-10",
                    "--out-dir", str(tmp_path)]) == 0
        path = only(tmp_path, "evolve-*.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q,qdot,Q_1,Q_2,Qdot_1,Qdot_2,energy"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(2.0)


class TestHamiltonianAndSpectrum:
    def test_matrix_csv(self, tmp_path):
        assert run(["hamiltonian", "--variant", "H012", "--n-mech", "3",
                    "--n-opt", "3", "--out-dir", str(tmp_path)]) == 0
        path = only(tmp_path, "hamiltonian-*.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,real,imag"
        assert len(lines) == 1 + 81

    def test_matrix_json(self, tmp_path):
        assert run(["hamiltonian", "--variant", "H3", "--n-mech", "3",
                    "--n-opt", "3", "--out-format", "json",
                    "--out-dir", str(tmp_path)]) == 0
        doc = read_json(only(tmp_path, "hamiltonian-*.json"))
        assert doc["dim"] == 9
        assert len(doc["real"]) == 9

    def test_spectrum_pair_with_diff_summary(self, tmp_path):
        code = run(["spectrum", "--variant", "new_full", "--variant", "law_full",
                    "--n-mech", "8", "--n-opt", "8", "--out-dir", str(tmp_path)])
        assert code == 0
        assert only(tmp_path, "spectrum-new_full-*.csv").exists()
        assert only(tmp_path, "spectrum-law_full-*.csv").exists()
        doc = read_json(only(tmp_path, "spectrum-diff-*.json"))
        assert doc["matches_perturbation_within_10pct"] is True
        assert doc["new_minus_law_shift"] < 0

    def test_prose_r_convention_reaches_bogoliubov_form(self, tmp_path):
        cfg = tmp_path / "drive.json"
        cfg.write_text(json.dumps({"a_amp": 1.0, "b_amp": 1.0, "b_phase": 0.7}))
        data = {}
        for conv in ("exact", "prose"):
            out = tmp_path / conv
            assert run(["hamiltonian", "--variant", "H4_bogoliubov_form", "--n-mech", "3",
                        "--n-opt", "3", "--r-convention", conv, "--config", str(cfg),
                        "--out-dir", str(out)]) == 0
            data[conv] = only(out, "hamiltonian-*.csv").read_text()
        assert data["exact"] != data["prose"]

    def test_spectrum_csv_shape(self, tmp_path):
        assert run(["spectrum", "--variant", "H012", "--n-mech", "4", "--n-opt", "4",
                    "--k-eigen", "5", "--out-dir", str(tmp_path)]) == 0
        lines = only(tmp_path, "spectrum-H012-*.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 6

    def test_spectrum_reruns_byte_identical(self, tmp_path):
        # dim 576 is large enough for multithreaded BLAS inside the eigensolver
        argv = ["spectrum", "--variant", "new_full", "--variant", "law_full",
                "--n-mech", "24", "--n-opt", "24"]
        outputs = []
        for name in ("a", "b"):
            proc = run_subprocess([*argv, "--out-dir", str(tmp_path / name)], tmp_path)
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert len(outputs[0]) == 3
        assert outputs[0] == outputs[1]


class TestChecks:
    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["checks", "--out-dir", str(d1)]) == 0
        assert run(["checks", "--out-dir", str(d2)]) == 0
        b1 = only(d1, "checks-*.json").read_bytes()
        b2 = only(d2, "checks-*.json").read_bytes()
        assert b1 == b2

    def test_report_structure(self, tmp_path):
        run(["checks", "--out-dir", str(tmp_path)])
        doc = read_json(only(tmp_path, "checks-*.json"))
        assert doc["passed"] is True
        assert {"r_convention", "beta_convention"} <= set(doc["notes"])
        for entry in doc["checks"]:
            assert set(entry) == {"name", "value", "tolerance", "passed"}


class TestSweep:
    def test_grid_rows(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"grid": {"omega_c": [1.0, 2.0, 3.0],
                                            "mass": [1.0, 2.0]}}))
        assert run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        lines = only(tmp_path, "sweep-*.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        header = lines[0].split(",")
        assert header[:2] == ["mass", "omega_c"]

    def test_sweep_deterministic(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({"grid": {"omega_c": [1.0, 2.0, 4.0, 8.0]}}))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["sweep", "--config", str(cfg), "--out-dir", str(d1)])
        run(["sweep", "--config", str(cfg), "--out-dir", str(d2)])
        assert only(d1, "sweep-*.csv").read_bytes() == only(d2, "sweep-*.csv").read_bytes()

    def test_missing_grid_is_usage_error(self, tmp_path):
        assert run(["sweep", "--out-dir", str(tmp_path)]) == 2


class TestErrors:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"coupling_constant": 7}))
        assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"mass": 1,\n "oops\n')
        assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_bad_subcommand_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_invalid_value_is_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        for text in ('{"mass": -1.0}', '{"mass": NaN}', '{"mass": 1e400}'):
            cfg.write_text(text)
            assert run(["rates", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1, text
            assert "mass" in capsys.readouterr().err
        assert not list(tmp_path.glob("rates-*.json"))

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert run(["rates", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2
        assert "absent.json" in capsys.readouterr().err

    @pytest.mark.parametrize("k_eigen", ["-3", "0"])
    def test_k_eigen_below_one_is_config_error(self, tmp_path, k_eigen, capsys):
        code = run(["spectrum", "--variant", "H012", "--n-mech", "3", "--n-opt", "3",
                    "--k-eigen", k_eigen, "--out-dir", str(tmp_path)])
        assert code == 2
        assert "k_eigen" in capsys.readouterr().err
        assert not list(tmp_path.glob("spectrum-*"))

    def test_negative_t_end_is_numerical_failure(self, tmp_path, capsys):
        assert run(["evolve", "--kmax", "1", "--t-end", "-1", "--out-dir", str(tmp_path)]) == 1
        assert "t_end" in capsys.readouterr().err
        assert not list(tmp_path.glob("evolve-*"))

    def test_non_finite_t_end_exits_instead_of_hanging(self, tmp_path):
        for t_end in ("nan", "inf"):
            proc = run_subprocess(["evolve", "--t-end", t_end, "--out-dir", str(tmp_path)],
                                  tmp_path)
            assert proc.returncode == 1, t_end
            assert "t_end" in proc.stderr

    def test_fractional_kmax_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kmax": 2.5}))
        proc = run_subprocess(["coeffs", "--config", str(cfg), "--out-dir", str(tmp_path)],
                              tmp_path)
        assert proc.returncode == 2
        assert "kmax" in proc.stderr and "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("coeffs-*"))

    def test_non_finite_eta_is_config_error(self, tmp_path, capsys):
        code = run(["hamiltonian", "--variant", "H4_special_eta", "--eta", "nan",
                    "--n-mech", "4", "--n-opt", "4", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "eta" in capsys.readouterr().err
        assert not list(tmp_path.glob("hamiltonian-*"))

    def test_k_eigen_above_dimension_is_config_error(self, tmp_path, capsys):
        code = run(["spectrum", "--n-mech", "4", "--n-opt", "4", "--k-eigen", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "k_eigen" in err and "16" in err
        assert not list(tmp_path.glob("spectrum-*"))

    @pytest.mark.parametrize("argv, key", [
        (["verify", "--jmax", "3"], "jmax"),
        (["checks", "--jmax", "3"], "jmax"),
        (["verify", "--ltrunc", "3"], "ltrunc"),
    ])
    def test_truncation_below_checked_modes_is_config_error(self, tmp_path, capsys, argv, key):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("*.json"))

    @pytest.mark.parametrize("argv, key", [
        (["coeffs", "--kmax", "513"], "kmax"),
        (["verify", "--jmax", "10000001"], "jmax"),
        (["verify", "--ltrunc", "10000001"], "ltrunc"),
        (["verify", "--kmax", "8", "--ltrunc", "2097153"], "ltrunc * max(kmax, 2)"),
        (["checks", "--kmax", "1", "--ltrunc", "8388609"], "ltrunc * max(kmax, 2)"),
    ])
    def test_oversized_runs_are_config_errors(self, tmp_path, capsys, argv, key):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command, doc, key", [
        ("verify", {"tail_correct": "no"}, "tail_correct"),
        ("evolve", {"variant": "x"}, "variant"),
        ("evolve", {"mirror_model": "x"}, "mirror_model"),
        ("evolve", {"kmax": 2, "Q0": [0.1]}, "Q0"),
        ("evolve", {"kmax": 2, "Qdot0": [0.1, "x"]}, "Qdot0"),
        ("evolve", {"kmax": 1, "Q0": 0.1}, "Q0"),
    ])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, command, doc, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob(f"{command}-*"))

    def test_dimension_above_cap_is_config_error(self, tmp_path, capsys):
        code = run(["hamiltonian", "--n-mech", "100", "--n-opt", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "dim_cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("hamiltonian-*"))

    @pytest.mark.parametrize("text, field", [
        ('{"q0": NaN}', "q"), ('{"q0": Infinity}', "q"), ('{"kmax": 2, "Q0": [NaN, 0.0]}', "Q"),
    ])
    def test_non_finite_initial_state_is_numerical_failure(self, tmp_path, capsys, text, field):
        # rejected by ClassicalState, before the solver sees the state
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        assert run(["evolve", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert f"invalid state: {field} must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("evolve-*"))

    def test_wrong_type_grid_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": {"omega_c": [1.0, "x"]}}))
        assert run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "grid.omega_c" in capsys.readouterr().err
        assert not list(tmp_path.glob("sweep-*"))


# Runs in a fresh interpreter: other tests import scipy into this one.
_IMPORT_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {}
import optomech
loaded["import optomech"] = scipy_modules()
from optomech.cli import main
loaded["import optomech.cli"] = scipy_modules()
codes = {}
for argv in json.loads(sys.argv[1]):
    codes[argv[0]] = main(argv + ["--out-dir", sys.argv[2]])
    loaded[argv[0]] = scipy_modules()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_only_evolve_loads_scipy(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"omega_c": [1.0, 2.0]}}))
    small = ["--n-mech", "4", "--n-opt", "4"]
    calls = [["coeffs"], ["rates"], ["verify"], ["sweep", "--config", str(grid)], ["checks"],
             ["hamiltonian", *small], ["spectrum", *small, "--k-eigen", "3"],
             ["evolve", "--kmax", "1", "--t-end", "1"]]
    proc = run_python(["-c", _IMPORT_PROBE, json.dumps(calls), str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == {argv[0]: 0 for argv in calls}
    loaded = report["loaded"]
    assert "scipy.integrate" in loaded.pop("evolve")
    assert loaded == {step: [] for step in loaded}


class TestDeterministicNaming:
    def test_same_config_same_name(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["coeffs", "--kmax", "2", "--out-dir", str(d1)])
        run(["coeffs", "--kmax", "2", "--out-dir", str(d2)])
        assert only(d1, "coeffs-*.csv").name == only(d2, "coeffs-*.csv").name

    def test_different_config_different_name(self, tmp_path):
        run(["coeffs", "--kmax", "2", "--out-dir", str(tmp_path)])
        run(["coeffs", "--kmax", "3", "--out-dir", str(tmp_path)])
        assert len(list(tmp_path.glob("coeffs-*.csv"))) == 2
