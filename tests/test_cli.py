"""CLI behavior: outputs, determinism, exit codes, config handling."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import optomech
from optomech import checks as checks_mod
from optomech import fock
from optomech import hamiltonians as ham
from optomech.cli import main
from optomech.config import resolve_config
from optomech.rates import CavityParams


def run(argv):
    return main(argv)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def only(dirpath, pattern):
    hits = sorted(dirpath.glob(pattern))
    assert len(hits) == 1, f"expected one {pattern}, found {hits}"
    return hits[0]


def run_python(args, cwd, launcher=()):
    # a fresh interpreter with a timeout, so a hang fails the test instead of the suite
    src = str(Path(optomech.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([*launcher, sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def run_subprocess(argv, cwd):
    return run_python(["-m", "optomech.cli", *argv], cwd)


# The CLI in a child that caps its own address space at 4 GiB (ulimit -v), so an
# oversized allocation fails at once instead of taking the machine's memory, and
# that prints its exit code and its own peak resident size (ru_maxrss).
_MEASURED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 * 2**30, 4 * 2**30))
from optomech.cli import main
code = main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def run_measured_cli(argv, cwd):
    # ru_maxrss survives exec, so a child started straight from this process
    # would report at least this process's resident size; a shell forks it from
    # a small process instead
    return run_python(["-c", _MEASURED_CLI, *argv], cwd,
                      launcher=("sh", "-c", '"$@"; exit $?', "sh"))


# SI units at omega_c/omega_m = 1e9, where every build has max|H| below 1e-18
_SI_DOC = {"units": "SI", "mass": 1e-9, "length": 1e-3, "omega_m": 1e6, "omega_c": 1e15,
           "a_amp": 10, "b_amp": 1, "b_phase": 0.7}
# 4 m c l^2 underflows to 0, so the relativistic rate divides by zero
_UNDERFLOW_DOC = {"mass": 1e-200, "length": 1e-100}


def _poison_second_call(func, poison):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(func(*args, **kwargs))
        return poison(calls[-1]) if len(calls) == 2 else calls[-1]
    return wrapped


# checks entry -> (owner, attribute, poison of its second result): each puts a
# NaN into one residual of the entry's fold
_NAN_INJECTIONS = {
    "hermiticity_relative_max": (fock.OperatorMatrix, "hermiticity_defect", lambda d: math.nan),
    "squeeze_cross_check_max": (checks_mod, "squeeze_parameters",
                                lambda sq: dataclasses.replace(sq, rho_arctanh=math.nan)),
    "bogoliubov_commutator_interior": (
        fock, "bogoliubov_pair",
        lambda pair: (fock.OperatorMatrix(pair[0].space, pair[0].data * math.nan), pair[1])),
}


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

    def test_large_truncation_runs_in_bounded_memory(self, tmp_path):
        # the child sums the Gram rule over 8 x 10^6 products; one dense block
        # of g peaked at 172 MB
        proc = run_measured_cli(["verify", "--kmax", "8", "--ltrunc", "1000000",
                                 "--out-dir", str(tmp_path)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        maxrss = int(proc.stdout.split()[-1])
        peak_mb = maxrss * (1 if sys.platform == "darwin" else 1024) / 1e6
        assert peak_mb < 100.0
        assert read_json(only(tmp_path, "verify-*.json"))["passed"] is True


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

    @pytest.mark.parametrize("doc, field", [
        ({"mass": 1e-300}, "gamma"),
        ({"mass": 1e-200, "length": 1.0, "chi0": 1e200, "thickness": 1.0}, "w"),
    ])
    def test_overflowing_rate_is_numerical_failure(self, tmp_path, capsys, doc, field):
        # the overflowed rate was written as Infinity, which is not JSON
        cfg = tmp_path / "heavy.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"{field} is inf" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_relativistic_rate_names_its_keys(self, tmp_path, capsys):
        # 4 m c l^2 underflows to 0; the error read only "float division by zero"
        cfg = tmp_path / "underflow.json"
        cfg.write_text(json.dumps(_UNDERFLOW_DOC))
        out = tmp_path / "out"
        assert run(["rates", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "w: division by zero" in err
        assert "mass = 1e-200, c = 1.0, length = 1e-100" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["rates"],
                                      ["hamiltonian", "--variant", "delta_relativistic"]],
                             ids=["rates", "hamiltonian"])
    def test_overflowing_relativistic_denominator_names_its_keys(self, tmp_path, capsys, argv):
        # length**2 raised OverflowError, and the error read only
        # "(34, 'Numerical result out of range')"
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"length": 1e200}))
        out = tmp_path / "out"
        assert run([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "w: 4 * mass * c * length**2 overflows" in err
        assert "mass = 1.0, c = 1.0, length = 1e+200" in err
        assert not out.exists()


class TestEvolve:
    def test_trajectory_csv(self, tmp_path, capsys):
        assert run(["evolve", "--kmax", "2", "--t-end", "2.0",
                    "--rel-tol", "1e-8", "--abs-tol", "1e-10",
                    "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""  # the run reached t_end
        path = only(tmp_path, "evolve-*.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q,qdot,Q_1,Q_2,Qdot_1,Qdot_2,energy"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(2.0)

    @pytest.mark.parametrize("q_floor", [100.5, None])
    def test_floor_stop_is_reported(self, tmp_path, capsys, q_floor):
        # a run cut short at q_floor used to exit 0 with a truncated CSV and no word
        doc = {"kmax": 2, "qdot0": -0.5, "t_end": 50.0}
        if q_floor is not None:
            doc["q_floor"] = q_floor
        config = tmp_path / "evolve.json"
        config.write_text(json.dumps(doc))
        assert run(["evolve", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        t_last, q_last = map(float, only(tmp_path / "out", "evolve-*.csv").read_text()
                             .splitlines()[-1].split(",")[:2])
        if q_floor is None:  # the default floor, length/100, is not reached
            assert err == "" and t_last == 50.0
            return
        assert t_last < 1.0 and q_last <= q_floor
        assert err == (f"evolve: the mirror reached q_floor (q = {q_last:.6g}) at "
                       f"t = {t_last:.6g}, before t_end = 50; the trajectory stops there\n")

    def test_floor_crossing_ends_the_record_at_the_floor(self, tmp_path):
        # the floor was tested at accepted steps only: this run stepped from
        # q = 0.8505 straight to q = -0.615 and wrote that row
        cfg = tmp_path / "floor.json"
        cfg.write_text(json.dumps({"t_end": 2000.0, "qdot0": -5.0, "length": 1.0, "q0": 1.0}))
        assert run(["evolve", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        q = [float(line.split(",")[1]) for line in
             only(tmp_path / "out", "evolve-*.csv").read_text().splitlines()[1:]]
        q_floor = 1.0 / 100
        assert min(q[:-1]) > q_floor
        assert q_floor - 1e-12 <= q[-1] <= q_floor

    @pytest.mark.parametrize("q_floor", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_q_floor_is_numerical_failure(self, tmp_path, capsys, q_floor):
        # at q_floor = -1 the mirror crossed q = 0, where every field equation
        # divides by q, and at NaN the stop never fired; both runs exited 0
        cfg = tmp_path / "floor.json"
        cfg.write_text(json.dumps({"q_floor": q_floor, "t_end": 2000.0, "qdot0": -5.0,
                                   "length": 1.0, "q0": 1.0}))
        out = tmp_path / "out"
        assert run(["evolve", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"q_floor must be finite and > 0, got {q_floor!r}" in capsys.readouterr().err
        assert not out.exists()


class TestHamiltonianAndSpectrum:
    def test_matrix_csv(self, tmp_path):
        assert run(["hamiltonian", "--variant", "H012", "--n-mech", "3",
                    "--n-opt", "3", "--out-dir", str(tmp_path)]) == 0
        path = only(tmp_path, "hamiltonian-*.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,real,imag"
        assert len(lines) == 1 + 81

    def test_matrix_csv_holds_every_entry_in_row_major_order(self, tmp_path):
        # drive phases make the imaginary parts nonzero; unequal cutoffs pin i, j
        doc = {"a_amp": 1.0, "b_amp": 1.0, "a_phase": 0.3, "b_phase": 0.785}
        cfg = tmp_path / "drive.json"
        cfg.write_text(json.dumps(doc))
        assert run(["hamiltonian", "--variant", "H4_linear_optical", "--n-mech", "4",
                    "--n-opt", "3", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rc = resolve_config(doc, {"n_mech": 4, "n_opt": 3})
        params = CavityParams(**{f.name: getattr(rc, f.name) for f in dataclasses.fields(CavityParams)})
        H = ham.build_hamiltonian("H4_linear_optical", params, fock.FockSpace(4, 3)).data
        assert H.imag.any()
        want = ["i,j,real,imag"] + [f"{i},{j},{float(H[i, j].real)!r},{float(H[i, j].imag)!r}"
                                    for i in range(12) for j in range(12)]
        assert only(tmp_path, "hamiltonian-*.csv").read_text() == "\n".join(want) + "\n"

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

    def test_each_variant_writes_its_own_files(self, tmp_path):
        # the variant never reached the config hash, so these runs overwrote
        # one hamiltonian-<hash>.csv and one spectrum-diff-<hash>.json
        small = ["--n-mech", "3", "--n-opt", "3", "--out-dir", str(tmp_path)]
        for variant in ("H3", "H4"):
            assert run(["hamiltonian", "--variant", variant, *small]) == 0
            assert run(["spectrum", "--variant", "H012", "--variant", variant, *small]) == 0
        h3, h4 = (only(tmp_path, f"hamiltonian-{v}-*.csv").read_text() for v in ("H3", "H4"))
        assert h3 != h4
        assert read_json(only(tmp_path, "spectrum-diff-H012-H4-*.json"))["variants"] == ["H012", "H4"]
        assert len(list(tmp_path.glob("spectrum-diff-*.json"))) == 2

    def test_spectrum_diffs_each_later_variant_against_the_first(self, tmp_path):
        # only the first pair got a diff; the momentum-term fields belong to
        # the new_full/law_full pair alone
        small = ["--n-mech", "3", "--n-opt", "3"]
        out = tmp_path / "orders"
        assert run(["spectrum", "--variant", "H012", "--variant", "H3", "--variant", "H4",
                    *small, "--out-dir", str(out)]) == 0
        diffs = sorted(p.name.rsplit("-", 1)[0] for p in out.glob("spectrum-diff-*.json"))
        assert diffs == ["spectrum-diff-H012-H3", "spectrum-diff-H012-H4"]
        out = tmp_path / "full"
        assert run(["spectrum", "--variant", "new_full", "--variant", "H012",
                    "--variant", "law_full", *small, "--out-dir", str(out)]) == 0
        pair = read_json(only(out, "spectrum-diff-new_full-law_full-*.json"))
        other = read_json(only(out, "spectrum-diff-new_full-H012-*.json"))
        assert "new_minus_law_shift" in pair and "new_minus_law_shift" not in other

    def test_spectrum_csv_shape(self, tmp_path):
        assert run(["spectrum", "--variant", "H012", "--n-mech", "4", "--n-opt", "4",
                    "--k-eigen", "5", "--out-dir", str(tmp_path)]) == 0
        lines = only(tmp_path, "spectrum-H012-*.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 6

    def test_spectrum_past_the_lanczos_cap_writes_levels(self, tmp_path, monkeypatch):
        # a cap of half a sector once made this call exit 1 where the dense
        # path solved it; the sector is now solved densely on the factors
        monkeypatch.setattr(fock, "KRYLOV_MIN_DIM", 1)
        monkeypatch.setattr(fock, "KRYLOV_MAX_BASIS", 100)
        argv = ["spectrum", "--variant", "new_full", "--n-mech", "20", "--n-opt", "20"]
        assert run([*argv, "--out-dir", str(tmp_path / "krylov")]) == 0
        monkeypatch.setattr(fock, "KRYLOV_MIN_DIM", 10**9)
        assert run([*argv, "--out-dir", str(tmp_path / "dense")]) == 0
        got, want = (np.loadtxt(only(tmp_path / d, "spectrum-new_full-*.csv"), delimiter=",",
                                skiprows=1) for d in ("krylov", "dense"))
        assert got.shape == want.shape == (8, 2)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_spectrum_reruns_byte_identical(self, tmp_path):
        # dim 576 is large enough for multithreaded BLAS inside the dense
        # eigensolver; dim 1024 is solved on the factors from a seeded start
        for n in ("24", "32"):
            argv = ["spectrum", "--variant", "new_full", "--variant", "law_full",
                    "--n-mech", n, "--n-opt", n]
            outputs = []
            for name in ("a", "b"):
                out = tmp_path / n / name
                proc = run_subprocess([*argv, "--out-dir", str(out)], tmp_path)
                assert proc.returncode == 0, proc.stderr
                outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
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

    @pytest.mark.parametrize("phase", [0.3, 2.0])
    def test_drive_phase_passes(self, tmp_path, phase):
        # the eta = 1/2 two-phonon comparison was built with the drive phase,
        # where the reduction does not hold, and failed at 8.76e-3
        cfg = tmp_path / "phase.json"
        cfg.write_text(json.dumps({"a_phase": phase}))
        assert run(["checks", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        doc = read_json(only(tmp_path, "checks-*.json"))
        assert doc["passed"] is True
        assert all(entry["passed"] for entry in doc["checks"])


    def test_si_config_passes(self, tmp_path):
        # H4_bogoliubov_form could not be built here, so the run exited 1
        cfg = tmp_path / "si.json"
        cfg.write_text(json.dumps(_SI_DOC))
        assert run(["checks", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        doc = read_json(only(tmp_path, "checks-*.json"))
        assert doc["passed"] is True
        assert "failed_builds" not in doc["notes"]

    def test_si_hermiticity_entry_fails_a_skewed_build(self, tmp_path, monkeypatch):
        # divided by max(1, max|H|), the entry was absolute in SI units, where
        # max|H| is below 1e-18, and passed this defect of 7e-20
        def skewed(params, ops):
            H = ham.new_full(params, ops)
            data = H.data.copy()
            data[0, 1] += 0.1 * np.abs(data).max()
            return fock.OperatorMatrix(H.space, data)

        cfg = tmp_path / "si.json"
        cfg.write_text(json.dumps(_SI_DOC))
        monkeypatch.setitem(ham.BUILDERS, "new_full", skewed)
        run(["checks", "--config", str(cfg), "--out-dir", str(tmp_path)])
        doc = read_json(only(tmp_path, "checks-*.json"))
        entry, = (c for c in doc["checks"] if c["name"] == "hermiticity_relative_max")
        assert entry["value"] == pytest.approx(0.1, rel=1e-12)
        assert entry["passed"] is False

    @pytest.mark.parametrize("entry", sorted(_NAN_INJECTIONS))
    def test_nan_residual_fails_its_entry(self, tmp_path, monkeypatch, entry):
        # max(worst, x) dropped a NaN x, so the entry and the report passed
        owner, name, poison = _NAN_INJECTIONS[entry]
        monkeypatch.setattr(owner, name, _poison_second_call(getattr(owner, name), poison))
        assert run(["checks", "--out-dir", str(tmp_path)]) == 1
        doc = read_json(only(tmp_path, "checks-*.json"))
        assert doc["passed"] is False
        assert [c["name"] for c in doc["checks"] if not c["passed"]] == [entry]


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

    def test_non_finite_rate_is_numerical_failure(self, tmp_path, capsys):
        # the row held inf for beta and six rates after it and nan for G4_minus
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({**_UNDERFLOW_DOC, "grid": {"omega_c": [2.0, 1.0]}}))
        out = tmp_path / "out"
        assert run(["sweep", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "beta is inf at grid point {'omega_c': 2.0}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("command, flag, value", [
        *((c, "--out-format", "json")
          for c in ("coeffs", "verify", "evolve", "rates", "spectrum", "checks", "sweep")),
        *((c, "--r-convention", "prose") for c in ("coeffs", "verify", "evolve", "checks")),
        *((c, "--kmax", "2") for c in ("hamiltonian", "spectrum", "sweep")),
    ])
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, command, flag, value):
        # each subcommand offers only the flags it reads; these were accepted,
        # ignored, and exited 0 with the config file below
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": {"omega_c": [1.0]}}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--config", str(cfg), "--out-dir", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, variants", [
        ("hamiltonian", ["H3", "H4"]), ("spectrum", ["H3", "H012", "H3"]),
    ])
    def test_extra_fock_variant_is_usage_error(self, tmp_path, capsys, command, variants):
        # hamiltonian dropped every variant after the first; spectrum wrote a
        # repeated variant's file twice
        argv = [command, "--n-mech", "3", "--n-opt", "3", "--out-dir", str(tmp_path)]
        for variant in variants:
            argv += ["--variant", variant]
        assert run(argv) == 2
        assert "--variant" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        (["hamiltonian", "--variant", "H3", "--order", "2"], "--order"),
        (["hamiltonian", "--variant", "H3", "--eta", "3"], "--eta"),
        (["hamiltonian", "--variant", "H3", "--r-convention", "prose"], "--r-convention"),
        (["hamiltonian", "--variant", "law_full", "--r-convention", "prose"], "--r-convention"),
        (["hamiltonian", "--eta", "3"], "--eta"),
        (["spectrum", "--variant", "H012", "--variant", "H3", "--order", "2"], "--order"),
    ])
    def test_fock_flag_read_by_no_variant_is_usage_error(self, tmp_path, capsys, argv, flag):
        # these exited 0 and wrote the default bytes under a new hash
        out = tmp_path / "out"
        assert run([*argv, "--n-mech", "3", "--n-opt", "3", "--out-dir", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_failed_computation_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the first variant's CSV was written before the second eigensolve ran
        solve = optomech.fock.spectrum
        calls = []

        def fail_second(H, k=None):
            calls.append(H)
            if len(calls) == 2:
                raise ArithmeticError("eigensolver failed")
            return solve(H, k)

        monkeypatch.setattr(optomech.fock, "spectrum", fail_second)
        out = tmp_path / "out"
        assert run(["spectrum", "--variant", "H012", "--variant", "H3", "--n-mech", "3",
                    "--n-opt", "3", "--out-dir", str(out)]) == 1
        assert "eigensolver failed" in capsys.readouterr().err
        assert not out.exists()

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

    def test_rel_tol_below_solver_floor_is_numerical_failure(self, tmp_path, capsys):
        # it used to run at rel_tol = 2.2e-14 under an artifact name hashing 1e-16
        argv = ["evolve", "--kmax", "1", "--t-end", "1", "--rel-tol", "1e-16"]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 1
        assert "rel_tol" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [
        ["hamiltonian", "--variant", "H4_bogoliubov_form", "--n-mech", "3", "--n-opt", "3"],
        ["checks"],
    ])
    def test_non_finite_hamiltonian_is_numerical_failure(self, tmp_path, capsys, monkeypatch,
                                                         nan_bogoliubov_builder, argv):
        # hamiltonian exited 0 with 81 nan entries; checks exited 0 with passed: true.
        # Neither may warn: hamiltonian writes nothing, checks writes its report
        monkeypatch.setitem(ham.BUILDERS, "H4_bogoliubov_form", nan_bogoliubov_builder)
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", str(out)]) == 1
        assert "H4_bogoliubov_form" in capsys.readouterr().err
        assert out.exists() == (argv[0] == "checks")

    def test_failed_build_still_reports_every_check(self, tmp_path, monkeypatch,
                                                    nan_bogoliubov_builder):
        # checks stopped at the first variant it could not build and wrote no report
        assert run(["checks", "--out-dir", str(tmp_path / "plain")]) == 0
        monkeypatch.setitem(ham.BUILDERS, "H4_bogoliubov_form", nan_bogoliubov_builder)
        assert run(["checks", "--out-dir", str(tmp_path / "si")]) == 1
        doc = read_json(only(tmp_path / "si", "checks-*.json"))
        plain = read_json(only(tmp_path / "plain", "checks-*.json"))
        assert [c["name"] for c in doc["checks"]] == [c["name"] for c in plain["checks"]]
        failing = {c["name"]: c["value"] for c in doc["checks"] if not c["passed"]}
        assert failing == {"hermiticity_relative_max": math.inf}
        assert doc["passed"] is False
        assert "H4_bogoliubov_form" in doc["notes"]["failed_builds"]
        assert "failed_builds" not in plain["notes"]

    def test_builder_arithmetic_error_still_writes_the_report(self, tmp_path, capsys):
        # the relativistic orders were built outside the failed-build guard, so
        # checks printed "float division by zero", exited 1 and wrote no report
        cfg = tmp_path / "underflow.json"
        cfg.write_text(json.dumps(_UNDERFLOW_DOC))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["checks", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert caught == []
        doc = read_json(only(tmp_path / "out", "checks-*.json"))
        assert "delta_relativistic" in doc["notes"]["failed_builds"]
        failing = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert {"relativistic_half_rule", "relativistic_sum_rule"} <= failing
        assert "delta_relativistic" in capsys.readouterr().err

    def test_builder_arithmetic_error_names_the_variant(self, tmp_path, capsys):
        cfg = tmp_path / "underflow.json"
        cfg.write_text(json.dumps(_UNDERFLOW_DOC))
        assert run(["spectrum", "--variant", "delta_relativistic", "--config", str(cfg),
                    "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "delta_relativistic" in err and "division by zero" in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_build_fails_without_warnings(self, tmp_path, capsys):
        # five numpy RuntimeWarnings were printed before the clean error
        cfg = tmp_path / "heavy.json"
        cfg.write_text(json.dumps({"mass": 1e-300}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["hamiltonian", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert caught == []
        assert "new_full" in capsys.readouterr().err

    def test_dimension_above_cap_is_config_error(self, tmp_path, capsys):
        code = run(["hamiltonian", "--n-mech", "100", "--n-opt", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "dim_cap" in capsys.readouterr().err
        assert not list(tmp_path.glob("hamiltonian-*"))

    def test_dim_cap_above_its_bound_is_config_error(self, tmp_path):
        # a dim_cap without upper bound let this run reach a 14.6 TiB np.kron and
        # exit 1 with a traceback
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"dim_cap": 1000000, "n_mech": 1000, "n_opt": 1000}))
        proc = run_measured_cli(["hamiltonian", "--config", str(cfg), "--out-dir", str(tmp_path)],
                                tmp_path)
        assert proc.returncode == 2
        assert "dim_cap" in proc.stderr and "Traceback" not in proc.stderr
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

    @pytest.mark.parametrize("key, values", [
        ("units", ["natural", "SI"]), ("kmax", [1, 7]), ("t_end", [1.0, 2.0]),
    ])
    def test_unread_grid_key_is_config_error(self, tmp_path, capsys, key, values):
        # sweep reads only the cavity parameters and r_convention; these keys
        # relabelled rows of identical (or natural-unit) rates and exited 0
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"grid": {"omega_c": [1.0, 2.0], key: values}}))
        assert run(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert f"grid.{key}" in capsys.readouterr().err
        assert not list(tmp_path.glob("sweep-*"))


# Probes run in a fresh interpreter that refuses every scipy import: numpy is
# the only runtime dependency, while other tests import scipy into this one.
_REFUSE_SCIPY = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"import of {name} refused", name=name)

sys.meta_path.insert(0, RefuseScipy())
"""

_SUBCOMMAND_PROBE = _REFUSE_SCIPY + """
from optomech.cli import main
codes = {argv[0]: main(argv + ["--out-dir", sys.argv[2]]) for argv in json.loads(sys.argv[1])}
print(json.dumps(codes))
"""


def test_no_subcommand_loads_scipy(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": {"omega_c": [1.0, 2.0]}}))
    small = ["--n-mech", "4", "--n-opt", "4"]
    calls = [["coeffs"], ["rates"], ["verify"], ["sweep", "--config", str(grid)], ["checks"],
             ["hamiltonian", *small], ["spectrum", *small, "--k-eigen", "3"],
             ["evolve", "--kmax", "1", "--t-end", "1"]]
    proc = run_python(["-c", _SUBCOMMAND_PROBE, json.dumps(calls), str(tmp_path)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {argv[0]: 0 for argv in calls}


_DYNAMICS_PROBE = _REFUSE_SCIPY + """
import numpy as np
from optomech import fock
from optomech.coefficients import build_table
from optomech.dynamics import (ClassicalState, MirrorParams, harmonic_mirror_motion, integrate,
                               integrate_prescribed)
params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
state = ClassicalState(t=0.0, q=1.01, qdot=0.0, Q=np.array([0.1, 0.0]), Qdot=np.zeros(2))
table = build_table(2)
integrate("law", state, params, table, 1.0, mirror_model="lagrangian",
          sample_times=np.linspace(0.0, 1.0, 5))
integrate_prescribed("new", harmonic_mirror_motion(1.0, 0.01, 1.0), state, params, table, 1.0)
fock.displacement(fock.make_space(2, 8)[1], 0.6 - 0.3j)
print("ok")
"""


def test_integrating_loads_no_scipy(tmp_path):
    # the DOP853 solver and the displacement operator are numpy-only
    proc = run_python(["-c", _DYNAMICS_PROBE], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


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
        # a builder option and read keys that have no flag rename the file too
        cfg = tmp_path / "read.json"
        for argv, changed, doc in (
            (["hamiltonian", "--n-mech", "3", "--n-opt", "3"], ["--order", "2"], {}),
            (["rates"], [], {"mass": 2.0}),
            (["evolve", "--kmax", "1", "--t-end", "1"], [], {"q0": 120.0}),
        ):
            cfg.write_text(json.dumps(doc))
            out = ["--out-dir", str(tmp_path / argv[0])]
            assert run([*argv, *out]) == 0
            assert run([*argv, *changed, "--config", str(cfg), *out]) == 0
            assert len(list((tmp_path / argv[0]).iterdir())) == 2, argv

    @pytest.mark.parametrize("argv, doc", [
        (["coeffs", "--kmax", "2"], {"out_format": "json"}),
        (["verify", "--kmax", "2", "--ltrunc", "1000"], {"mass": 2.0}),
        (["evolve", "--kmax", "1", "--t-end", "1"], {"omega_c": 3.0}),
        (["rates"], {"n_mech": 5}),
        (["rates"], {"units": "SI", "c": 1.0, "hbar": 1.0}),
        (["hamiltonian", "--variant", "H3", "--n-mech", "3", "--n-opt", "3"], {"order": 2}),
        (["hamiltonian", "--n-mech", "3", "--n-opt", "3"], {"dim_cap": 16}),
        (["spectrum", "--variant", "H012", "--n-mech", "3", "--n-opt", "3", "--k-eigen", "3"],
         {"r_convention": "prose"}),
        (["checks"], {"t_end": 5.0}),
        (["sweep"], {"kmax": 2}),
    ])
    def test_unread_config_key_keeps_names_and_bytes(self, tmp_path, argv, doc):
        # the hash covered every config key, so each of these wrote the plain
        # run's bytes a second time under another name
        base = {"grid": {"omega_c": [1.0, 2.0]}} if argv[0] == "sweep" else {}
        outputs = []
        for name, extra in (("plain", {}), ("unread", doc)):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**base, **extra}))
            run([*argv, "--config", str(cfg), "--out-dir", str(tmp_path / name)])
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        assert outputs[0] and outputs[0] == outputs[1]
