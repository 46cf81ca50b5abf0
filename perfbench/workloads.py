"""The three benchmark workloads: ``trajectory``, ``spectrum`` and ``cli``.

Each workload draws its inputs from ``--seed`` alone and hands optomech only
the generated arrays and config files. A pass runs the workload's operations
once and returns one ``Op`` per operation; an op fails if it raises, exits
non-zero or misses one of its output checks. Spans wrap only the calls this
file makes into optomech's public functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import optomech
from optomech import coefficients as coef
from optomech import fock
from optomech import hamiltonians as ham
from optomech.checks import run_checks
from optomech.config import load_config_file, resolve_config
from optomech.dynamics import (
    ClassicalState,
    MirrorParams,
    harmonic_mirror_motion,
    integrate,
    integrate_prescribed,
)
from optomech.rates import CavityParams, all_rates, base_rates

TWO_PI = 2.0 * math.pi

# Tolerances of the repo's own acceptance criteria 05 and 12.
DRIFT_TOL = 1e-8
SHIFT_REL_TOL = 0.1

PRESCRIBED_LADDER = (4, 8, 16, 32)
SPECTRUM_CUTOFFS = (16, 24, 32)  # n_mech = n_opt; dims 256, 576, 1024
VARIANT_CUTOFF = 16


@dataclass
class Op:
    """Outcome of one operation. ``key`` holds values that must repeat
    exactly in every pass of a run (integrator counts, artifact digests)."""

    name: str
    wall: float
    ok: bool
    detail: str = ""
    key: tuple = ()


def _timed(name: str, body) -> Op:
    """Run ``body() -> (ok, detail, key)`` and time it; an exception fails the op."""
    start = time.perf_counter()
    try:
        ok, detail, key = body()
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return Op(name, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - start, bool(ok), detail, key)


def _record_stats(counts: dict, group: str, rec) -> tuple:
    stats = rec.stats
    counts[f"{group}.steps"] = stats.steps
    counts[f"{group}.rejected"] = stats.rejected_steps
    counts[f"{group}.nfev"] = stats.nfev
    return stats.steps, stats.rejected_steps, stats.nfev


def _gram_bytes(kmax: int, inner: int) -> int:
    # computed, not measured: the float64 g block of kmax x inner entries
    return 8 * kmax * inner


def _relative_drift(energy: np.ndarray) -> float:
    return float(np.abs(energy - energy[0]).max() / abs(energy[0]))


def _build_table(tracer, kmax: int):
    with tracer.span("coefficients.build_table") as c:
        c["coefficients.build_table.calls"] = 1
        return coef.build_table(kmax)


def _lagrangian_run(tracer, state, params, table, t_end, rel_tol, abs_tol) -> tuple:
    """``integrate('new', mirror_model='lagrangian')``: returns (drift, key)."""
    group = "dynamics.integrate.lagrangian_new"
    with tracer.span(group) as c:
        rec = integrate("new", state, params, table, t_end, rel_tol=rel_tol,
                        abs_tol=abs_tol, mirror_model="lagrangian")
        key = _record_stats(c, group, rec)
    drift = _relative_drift(rec.energy)
    c["dynamics.energy_drift_rel"] = drift
    return drift, key


class Trajectory:
    """Criterion-05 energy run, one Newton-mirror law run at kmax 8, and the
    criterion-04 prescribed-mirror ladder K = 4..32."""

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, size=4)
        self.drift_q0 = 1.005 * (1.0 + 1e-4 * u[0])
        self.drift_Q0 = np.array([0.02 * (1.0 + 1e-2 * u[1]), 0.0, 0.0, 0.0])
        self.law_Q0 = np.zeros(8)
        self.law_Q0[0] = 0.02 * (1.0 + 1e-2 * u[2])
        self.rel_amp = 0.01 * (1.0 + 0.05 * u[3])

    def run_pass(self, tracer) -> list[Op]:
        ops = [_timed("drift_run", lambda: self._drift(tracer)),
               _timed("newton_law", lambda: self._newton_law(tracer))]
        gaps: list[float] = []
        for K in PRESCRIBED_LADDER:
            ops.append(_timed(f"prescribed.K{K}", lambda K=K: self._prescribed(tracer, K, gaps)))
        return ops

    def _drift(self, tracer):
        table = _build_table(tracer, 4)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
        state = ClassicalState(t=0.0, q=self.drift_q0, qdot=0.0, Q=self.drift_Q0,
                               Qdot=np.zeros(4))
        drift, key = _lagrangian_run(tracer, state, params, table, 100 * TWO_PI, 1e-10, 1e-13)
        return drift < DRIFT_TOL, f"relative drift {drift:.3e}", key

    def _newton_law(self, tracer):
        kmax = 8
        table = _build_table(tracer, kmax)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=kmax)
        state = ClassicalState(t=0.0, q=1.01, qdot=0.0, Q=self.law_Q0, Qdot=np.zeros(kmax))
        group = "dynamics.integrate.newton_law"
        with tracer.span(group) as c:
            rec = integrate("law", state, params, table, 10 * TWO_PI, rel_tol=1e-10, abs_tol=1e-13)
            key = _record_stats(c, group, rec)
            c["coefficients.gram_matrix.bytes_computed"] = _gram_bytes(kmax, 16 * kmax)
        ok = not rec.floor_hit and bool(np.isfinite(rec.y).all() and np.isfinite(rec.energy).all())
        return ok, f"floor_hit={rec.floor_hit}", key

    def _prescribed(self, tracer, K: int, gaps: list[float]):
        """One rung of the ladder; its new/law gap must be below the previous rung's."""
        motion = harmonic_mirror_motion(1.0, self.rel_amp, 1.0)
        t_eval = np.linspace(0.0, 3 * TWO_PI, 601)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=K)
        table = _build_table(tracer, K)
        Q0 = np.zeros(K)
        Q0[0] = 1.0
        state = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=Q0, Qdot=np.zeros(K))
        kwargs = dict(rel_tol=1e-10, abs_tol=1e-12, sample_times=t_eval)
        with tracer.span("dynamics.integrate_prescribed.new") as c:
            rec_new = integrate_prescribed("new", motion, state, params, table, t_eval[-1], **kwargs)
            key_new = _record_stats(c, "dynamics.integrate_prescribed.new", rec_new)
        with tracer.span("dynamics.integrate_prescribed.law") as c:
            rec_law = integrate_prescribed("law", motion, state, params, table, t_eval[-1],
                                           inner_cutoff=K, **kwargs)
            key_law = _record_stats(c, "dynamics.integrate_prescribed.law", rec_law)
            c["coefficients.gram_matrix.bytes_computed"] = _gram_bytes(K, K)
        gap = float(np.abs(rec_new.y[:, 2:] - rec_law.y[:, 2:]).max())
        ok = math.isfinite(gap) and (not gaps or gap < gaps[-1])
        gaps.append(gap)
        return ok, f"gap {gap:.3e}", key_new + key_law

    @staticmethod
    def headline(passes: list[list[Op]]) -> float:
        return statistics.median(op.wall for ops in passes for op in ops if op.name == "drift_run")


def _perturbative_shift(tracer, p: CavityParams) -> float:
    """First-order estimate of the new-minus-law ground-state shift, as in
    acceptance criterion 12."""
    with tracer.span("rates.base_rates"):
        rs = base_rates(p)
    return -(p.hbar * rs.beta / 2.0) * rs.R * (p.omega_m / p.omega_c) ** 2 * 0.25


def _spectrum(tracer, H, k: int):
    with tracer.span("fock.spectrum") as c:
        c["fock.spectrum.calls"] = 1
        c["fock.spectrum.bytes_computed"] = 16 * H.space.dim**2
        return fock.spectrum(H, k)


def _build(tracer, variant: str, p: CavityParams, space, **options):
    with tracer.span(f"hamiltonians.build_hamiltonian.{variant}.d{space.dim}"):
        return ham.build_hamiltonian(variant, p, space, **options)


def _make_space(tracer, n: int):
    with tracer.span("fock.make_space"):
        space, _ = fock.make_space(n, n)
    return space


class Spectrum:
    """Order-2 new_full and law_full builds with their eigensolves at dims
    256, 576 and 1024, and every other variant built once at dim 256."""

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, size=4)
        # theta = x_zp / length stays near the 1e-2 of acceptance criterion 12
        self.params = CavityParams(
            mass=1.0 + 0.05 * u[0], length=100.0 * (1.0 + 0.05 * u[1]), omega_m=1.0,
            omega_c=2.0 * (1.0 + 0.05 * u[2]), a_amp=1.0, b_amp=1.0, chi0=1.0,
            thickness=0.002 * (1.0 + 0.05 * u[3]),
        )

    def run_pass(self, tracer) -> list[Op]:
        ops = []
        spaces = {}
        for n in SPECTRUM_CUTOFFS:
            ops.append(_timed(f"make_space.d{n * n}",
                              lambda n=n: self._space(tracer, n, spaces)))
            ops.append(_timed(f"ground_shift.d{n * n}",
                              lambda n=n: self._ground_shift(tracer, spaces[n])))
        for variant in ham.VARIANTS:
            if variant in ("new_full", "law_full"):  # built at dim 256 above
                continue
            ops.append(_timed(f"variant.{variant}",
                              lambda v=variant: self._variant(tracer, v, spaces[VARIANT_CUTOFF])))
        return ops

    @staticmethod
    def _space(tracer, n: int, spaces: dict):
        spaces[n] = space = _make_space(tracer, n)
        return space.dim == n * n, f"dim {space.dim}", ()

    def _ground_shift(self, tracer, space):
        """Two builds and two eigensolves; the shift must be negative and
        within 10% of the first-order estimate."""
        p = self.params
        e_new = _spectrum(tracer, _build(tracer, "new_full", p, space, order=2), 8)
        e_law = _spectrum(tracer, _build(tracer, "law_full", p, space, order=2), 8)
        shift = float(e_new[0] - e_law[0])
        pert = _perturbative_shift(tracer, p)
        rel = abs(shift / pert - 1.0)
        return shift < 0.0 and rel <= SHIFT_REL_TOL, f"shift {shift:.4e}, rel gap {rel:.2e}", ()

    def _variant(self, tracer, variant: str, space):
        options = {"eta": 0.5} if variant == "H4_special_eta" else {}
        H = _build(tracer, variant, self.params, space, **options)
        defect = H.hermiticity_defect()
        scale = max(1.0, float(np.abs(H.data).max()))
        ok = bool(np.isfinite(H.data).all()) and defect <= fock.HERMITICITY_RTOL * scale
        return ok, f"hermiticity defect {defect:.2e}", ()

    @staticmethod
    def headline(passes: list[list[Op]]) -> float:
        last = f"ground_shift.d{SPECTRUM_CUTOFFS[-1] ** 2}"
        return statistics.median(op.wall for ops in passes for op in ops if op.name == last)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return path


def cli_env(src: Path) -> dict:
    """The caller's environment with ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@dataclass
class _Call:
    subcommand: str
    args: list[str]
    check: Callable[[list[Path]], tuple[bool, str]] | None = None  # on top of exit code 0


def _json_flag(key: str, prefix: str):
    def check(paths: list[Path]):
        docs = [json.loads(p.read_text()) for p in paths if p.name.startswith(prefix)]
        ok = len(docs) == 1 and docs[0].get(key) is True
        return ok, f"{key}={docs[0].get(key) if docs else 'missing'}"
    return check


class Cli:
    """One ``python -m optomech.cli`` subprocess at a time over eight
    subcommands, on seeded config files."""

    def __init__(self, seed: int, tmp: Path):
        rng = np.random.default_rng(seed)
        u = rng.uniform(-1.0, 1.0, size=8)
        self.tmp = tmp
        self.env = cli_env(Path(optomech.__file__).resolve().parents[1])
        base = {"mass": 1.0 + 0.05 * u[0], "length": 100.0 * (1.0 + 0.05 * u[1]),
                "omega_m": 1.0 + 0.05 * u[2], "omega_c": 2.0 * (1.0 + 0.05 * u[3])}
        grid = {
            "omega_c": sorted(float(v) for v in rng.uniform(0.5, 4.0, size=100)),
            "omega_m": sorted(float(v) for v in rng.uniform(0.5, 2.0, size=100)),
        }
        evolve = {"length": 1.0, "mass": 1.0, "omega_m": 1.0, "kmax": 4,
                  "mirror_model": "lagrangian", "t_end": 10 * TWO_PI,
                  "q0": 1.005 * (1.0 + 1e-4 * u[4]),
                  "Q0": [0.02 * (1.0 + 1e-2 * u[5]), 0.0, 0.0, 0.0]}
        self.base = _write_json(tmp / "base.json", base)
        self.sweep = _write_json(tmp / "sweep.json", {**base, "grid": grid})
        self.evolve = _write_json(tmp / "evolve.json", evolve)
        self.pass_index = 0

    def calls(self) -> list[_Call]:
        base = ["--config", str(self.base)]
        small = ["--n-mech", "8", "--n-opt", "8"]
        return [
            _Call("coeffs", ["coeffs", "--kmax", "8", *base]),
            _Call("verify", ["verify", "--kmax", "8", "--ltrunc", "1000000", *base]),
            _Call("rates", ["rates", *base]),
            _Call("sweep", ["sweep", "--config", str(self.sweep)]),
            _Call("checks", ["checks", *base], _json_flag("passed", "checks-")),
            _Call("hamiltonian", ["hamiltonian", *base, *small]),
            _Call("evolve", ["evolve", "--config", str(self.evolve)]),
            _Call("spectrum", ["spectrum", "--variant", "new_full", "--variant", "law_full",
                               *base, *small],
                  _json_flag("matches_perturbation_within_10pct", "spectrum-diff-")),
        ]

    def run_pass(self, tracer) -> list[Op]:
        out_dir = self.tmp / f"out-{self.pass_index}"
        self.pass_index += 1
        ops = []
        for call in self.calls():
            with tracer.span(f"cli.{call.subcommand}"):
                ops.append(_timed(call.subcommand, lambda c=call: self._run(c, out_dir)))
        return ops

    def _run(self, call: _Call, out_dir: Path):
        proc = subprocess.run(
            [sys.executable, "-m", "optomech.cli", *call.args, "--out-dir", str(out_dir)],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            return False, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", ()
        paths = [Path(line) for line in proc.stdout.split()]
        digests = tuple(sorted((p.name, _sha256(p)) for p in paths))
        ok, detail = call.check(paths) if call.check else (bool(paths), f"{len(paths)} files")
        return ok, detail, digests

    def replica(self, tracer) -> list[Op]:
        """In-process run of the library work behind each CLI call, so that
        coefficients, rates, checks, dynamics, hamiltonians and fock get
        per-layer rows; ``rates.all_rates`` covers the sweep's grid."""
        return [_timed("replica", lambda: self._replica(tracer))]

    def _replica(self, tracer):
        with tracer.span("config.resolve_config"):
            cfg = resolve_config(load_config_file(str(self.base)))
            sweep_cfg = resolve_config(load_config_file(str(self.sweep)))
            evolve_cfg = resolve_config(load_config_file(str(self.evolve)))
        p = CavityParams(mass=cfg.mass, length=cfg.length, omega_m=cfg.omega_m,
                         omega_c=cfg.omega_c, a_amp=cfg.a_amp, b_amp=cfg.b_amp)
        checks = []
        _build_table(tracer, 8)
        with tracer.span("coefficients.verify_g_squared_sum"):
            sums = [coef.verify_g_squared_sum(k, cfg.jmax, cfg.tail_correct) for k in range(1, 9)]
        with tracer.span("coefficients.verify_gram_identity") as c:
            gram = coef.verify_gram_identity(8, 10**6, cfg.tail_correct)
            c["coefficients.gram_matrix.bytes_computed"] = _gram_bytes(8, 10**6)
        checks.append(max(sums) < 1e-4 and gram < 1e-3)

        grid = sweep_cfg.grid
        grid_params = [CavityParams(mass=sweep_cfg.mass, length=sweep_cfg.length,
                                    omega_m=om, omega_c=oc,
                                    a_amp=sweep_cfg.a_amp, b_amp=sweep_cfg.b_amp)
                       for oc in grid["omega_c"] for om in grid["omega_m"]]
        with tracer.span("rates.all_rates") as c:
            rate_sets = [all_rates(p, kmax=cfg.kmax)]
            rate_sets += [all_rates(gp, kmax=sweep_cfg.kmax) for gp in grid_params]
            c["rates.all_rates.calls"] = len(rate_sets)
        checks.append(all(math.isfinite(rs.beta) for rs in rate_sets))

        with tracer.span("checks.run_checks"):
            report = run_checks(jmax=cfg.jmax, ltrunc=cfg.ltrunc, kmax=cfg.kmax, params=p)
        checks.append(report.passed)

        kmax = evolve_cfg.kmax
        table = _build_table(tracer, kmax)
        params = MirrorParams(mass=evolve_cfg.mass, length=evolve_cfg.length,
                              omega_m=evolve_cfg.omega_m, kmax=kmax)
        state = ClassicalState(t=0.0, q=evolve_cfg.q0, qdot=0.0, Q=np.asarray(evolve_cfg.Q0),
                               Qdot=np.zeros(kmax))
        drift, _ = _lagrangian_run(tracer, state, params, table, evolve_cfg.t_end,
                                   evolve_cfg.rel_tol, evolve_cfg.abs_tol)
        checks.append(drift < DRIFT_TOL)

        space = _make_space(tracer, 8)
        _build(tracer, "new_full", p, space)  # the `hamiltonian` call
        e_new = _spectrum(tracer, _build(tracer, "new_full", p, space), 8)
        e_law = _spectrum(tracer, _build(tracer, "law_full", p, space), 8)
        shift = float(e_new[0] - e_law[0])
        checks.append(shift < 0 and abs(shift / _perturbative_shift(tracer, p) - 1) <= SHIFT_REL_TOL)
        return all(checks), f"checks {checks}", ()

    @staticmethod
    def headline(passes: list[list[Op]]) -> float:
        return statistics.median(op.wall for ops in passes for op in ops)


WORKLOADS = {"trajectory": Trajectory, "spectrum": Spectrum, "cli": Cli}
