"""Classical dynamics of the coupled mirror-field system.

Two equivalent-in-the-limit formulations of the field equations are
implemented.  Both read

    Qddot_k = -omega_k^2 Q_k + u^2 ((M - g) Q)_k + 2u (g Qdot)_k + (qddot/q) (g Q)_k,

with u = qdot/q, and differ only in the coupling matrix M:

* ``new``: M = d, which carries the explicit self-rate term
  r_k (qdot/q)^2 Q_k plus the (h - 3g) cross coupling,
* ``law``: M is the Gram sum sum_l g_{kl} g_{jl}, which reproduces the
  ``new`` form only when the inner sum runs over infinitely many modes.
  Truncations of the two therefore differ, and the difference is a
  measurable 1/L effect.

The inner cutoff L of the ``law`` Gram sum has one default per entry point,
each set by what that entry point is for (an explicit ``inner_cutoff``
overrides all three):

* ``field_accel_law``: the table extent, a strict truncation, so a single
  call shows the truncated formulation as it is (at kmax = 1 the Gram term
  is empty and the self-rate is lost entirely);
* ``integrate``: 16 * kmax, so the mirror dynamics runs close to the
  untruncated limit;
* ``integrate_prescribed``: kmax, the matched truncation whose new/law gap
  shrinks as kmax grows (acceptance criterion 04).

The mirror can be driven three ways: by the radiation-pressure Newton
equation (default; it contains no accelerations, so evaluating it first and
feeding the result to the field equations resolves the mutual dependence
exactly), by the Euler-Lagrange equation of the truncated Lagrangian
(``mirror_model="lagrangian"``, which makes the Legendre energy of the
truncated system an exact invariant of the flow), or by a prescribed motion
(``integrate_prescribed``).

The Legendre energy reported along trajectories is

    E = m qdot^2/2 + V(q) + sum_k (Qdot_k^2 + omega_k^2 Q_k^2)/2
        + qdot^2/(2 q^2) * Q.M.Q - (qdot/q) * Qdot.g.Q

with M the coupling matrix of the active variant (d for ``new``, the Gram
matrix for ``law``).  The value of the Hamiltonian obtained from the
symmetric canonical-momentum split (same expression with -1/4 instead of
+1/2 on the quadratic-velocity term and no velocity cross term) is recorded
alongside as ``h_canonical``; it is generally *not* conserved under the
truncated flow, and both diagnostics are reported rather than deciding which
one "should" be constant.

Integration uses an adaptive 8(5,3) Runge-Kutta scheme with local
interpolation; no symplectic structure is claimed (the system is
non-separable), so energy drift is monitored, not enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coefficients import CoefficientTable, gram_matrix

__all__ = [
    "MirrorParams",
    "ClassicalState",
    "MirrorMotion",
    "IntegratorStats",
    "TrajectoryRecord",
    "StiffnessError",
    "field_accel_new",
    "field_accel_law",
    "mirror_accel",
    "energy",
    "h_canonical",
    "integrate",
    "integrate_prescribed",
    "harmonic_mirror_motion",
]

# DOP853 cost model used for step bookkeeping: two start-up evaluations,
# twelve per attempted step, three extra per dense interpolant.
_STARTUP_EVALS = 2
_EVALS_PER_ATTEMPT = 12
_EVALS_PER_DENSE = 3


@dataclass(frozen=True)
class MirrorParams:
    """Mirror and cavity constants: mass, rest length, mechanical frequency,
    light speed (1 in natural units) and the number of retained field modes."""

    mass: float
    length: float
    omega_m: float
    c: float = 1.0
    kmax: int = 1

    def __post_init__(self):
        for name in ("mass", "length", "omega_m", "c"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.kmax < 1:
            raise ValueError("kmax must be >= 1")


@dataclass
class ClassicalState:
    """Mirror position/velocity plus field amplitudes and their velocities."""

    t: float
    q: float
    qdot: float
    Q: np.ndarray
    Qdot: np.ndarray

    def __post_init__(self):
        self.Q = np.asarray(self.Q, dtype=float)
        self.Qdot = np.asarray(self.Qdot, dtype=float)
        if self.q <= 0:
            raise ValueError("invalid state: mirror position q must be > 0")
        if self.Q.shape != self.Qdot.shape or self.Q.ndim != 1:
            raise ValueError("Q and Qdot must be 1-d arrays of equal length")


class StiffnessError(RuntimeError):
    """Step-size underflow; carries the last valid state."""

    def __init__(self, message: str, last_state: ClassicalState):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class MirrorMotion:
    """Prescribed mirror trajectory: position, velocity, acceleration callables."""

    q: Callable[[float], float]
    qdot: Callable[[float], float]
    qddot: Callable[[float], float]


def harmonic_mirror_motion(length: float, rel_amp: float, omega: float) -> MirrorMotion:
    """Prescribed q(t) = l (1 + rel_amp sin(omega t))."""
    return MirrorMotion(
        q=lambda t: length * (1.0 + rel_amp * np.sin(omega * t)),
        qdot=lambda t: length * rel_amp * omega * np.cos(omega * t),
        qddot=lambda t: -length * rel_amp * omega * omega * np.sin(omega * t),
    )


def _check_state(state: ClassicalState, params: MirrorParams) -> None:
    if state.q <= 0:
        raise ValueError("invalid state: mirror position q must be > 0")
    if len(state.Q) != params.kmax:
        raise ValueError(f"state holds {len(state.Q)} modes, params.kmax = {params.kmax}")


def _coupling(
    variant: str,
    table: CoefficientTable,
    kmax: int,
    inner_cutoff: int | None,
    default_cutoff: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, M, d) of a variant: M = d for 'new', the Gram matrix summed to
    ``inner_cutoff`` modes (``default_cutoff`` when None) for 'law'."""
    if table.kmax < kmax:
        raise ValueError("coefficient table smaller than requested mode count")
    g, d = table.g[:kmax, :kmax], table.d[:kmax, :kmax]
    if variant == "new":
        return g, d, d
    if variant == "law":
        L = default_cutoff if inner_cutoff is None else inner_cutoff
        return g, gram_matrix(kmax, L), d
    raise ValueError(f"unknown variant {variant!r}; use 'new' or 'law'")


def _free_field_accel(q, qdot, Q, Qdot, g, M, params):
    """Field acceleration at qddot = 0, F = -omega_k^2 Q + u^2 (M - g) Q + 2u g Qdot
    with u = qdot/q; returned with omega_k^2, g Q and M Q for reuse.

    The full field equation is Qddot = F + (qddot/q) g Q.
    """
    u = qdot / q
    k = np.arange(1, params.kmax + 1, dtype=float)
    om2 = (params.c * np.pi * k / q) ** 2
    gQ = g @ Q
    MQ = M @ Q
    F = -om2 * Q + u * u * (MQ - gQ) + 2.0 * u * (g @ Qdot)
    return F, om2, gQ, MQ


def _field_accel(q, qdot, Q, Qdot, qddot, g, M, params):
    F, _, gQ, _ = _free_field_accel(q, qdot, Q, Qdot, g, M, params)
    return F + (qddot / q) * gQ


def field_accel_new(
    state: ClassicalState,
    table: CoefficientTable,
    params: MirrorParams,
    qddot: float,
) -> np.ndarray:
    """Field accelerations with the explicit self-rate and (h - 3g) couplings."""
    _check_state(state, params)
    g, M, _ = _coupling("new", table, params.kmax, None, None)
    return _field_accel(state.q, state.qdot, state.Q, state.Qdot, qddot, g, M, params)


def field_accel_law(
    state: ClassicalState,
    table: CoefficientTable,
    params: MirrorParams,
    qddot: float,
    inner_cutoff: int | None = None,
) -> np.ndarray:
    """Field accelerations in the Gram-sum form.

    The inner sum over the coupling products runs to ``inner_cutoff`` modes
    (default: the table extent, i.e. a strict truncation: at kmax = 1 the
    Gram term is empty and the self-rate is lost entirely).
    """
    _check_state(state, params)
    g, M, _ = _coupling("law", table, params.kmax, inner_cutoff, table.kmax)
    return _field_accel(state.q, state.qdot, state.Q, state.Qdot, qddot, g, M, params)


def _newton_accel(q, Q, signs, params):
    """Newton mirror acceleration; ``signs`` holds (-1)^k k."""
    s = signs @ Q
    pressure = (params.c * np.pi / q) ** 2 * s * s / q
    return (-params.mass * params.omega_m**2 * (q - params.length) + pressure) / params.mass


def mirror_accel(state: ClassicalState, params: MirrorParams) -> float:
    """Newton mirror equation: spring restoring force plus radiation pressure.

    qddot = [-m Omega^2 (q - l) + (c pi / q)^2 (sum_k (-1)^k k Q_k)^2 / q] / m.
    Contains no accelerations, so it can be evaluated before the field
    equations; that ordering is exact, not iterative.
    """
    _check_state(state, params)
    k = np.arange(1, params.kmax + 1, dtype=float)
    return float(_newton_accel(state.q, state.Q, (-1.0) ** k * k, params))


def _variational_mirror_accel(q, qdot, Q, Qdot, F, om2, gQ, MQ, params):
    """Euler-Lagrange mirror equation of the truncated Lagrangian.

    The mutual dependence on the field accelerations is linear and is solved
    in closed form from the pieces of the field equation (see
    ``_free_field_accel``); gamma = g Q collects the velocity-coupling weights.
    """
    D = Q @ MQ
    Ddot = 2.0 * (Qdot @ MQ)
    W = float(om2 @ (Q * Q))
    num = (
        -params.mass * params.omega_m**2 * (q - params.length)
        + W / q
        + qdot * qdot / q**3 * D
        - qdot / q**2 * Ddot
        + (gQ @ F) / q
    )
    den = params.mass + (D - gQ @ gQ) / q**2
    return num / den


def _energies(q, qdot, Q, Qdot, g, M, d, params):
    """(Legendre energy with coupling M, canonical-split value) of one state."""
    k = np.arange(1, params.kmax + 1, dtype=float)
    om2 = (params.c * np.pi * k / q) ** 2
    base = (
        0.5 * params.mass * qdot * qdot
        + 0.5 * params.mass * params.omega_m**2 * (q - params.length) ** 2
        + 0.5 * float(Qdot @ Qdot + om2 @ (Q * Q))
    )
    legendre = base + qdot * qdot / (2.0 * q * q) * (Q @ (M @ Q)) - qdot / q * ((g @ Q) @ Qdot)
    canonical = base - qdot * qdot / (4.0 * q * q) * (Q @ (d @ Q))
    return legendre, canonical


def _state_energies(state, params, table):
    _check_state(state, params)
    g, M, d = _coupling("new", table, params.kmax, None, None)
    return _energies(state.q, state.qdot, state.Q, state.Qdot, g, M, d, params)


def energy(state: ClassicalState, params: MirrorParams, table: CoefficientTable) -> float:
    """Legendre energy of the truncated system (the conserved quantity of the
    variational flow): kinetic + spring + field + quadratic-velocity coupling
    + velocity cross coupling."""
    return _state_energies(state, params, table)[0]


def h_canonical(state: ClassicalState, params: MirrorParams, table: CoefficientTable) -> float:
    """Value of the Hamiltonian from the symmetric canonical-momentum split.

    Differs from the Legendre energy in the sign and weight of the
    quadratic-velocity term (-1/4 instead of +1/2) and drops the velocity
    cross term; reported as a diagnostic, not a conservation claim.
    """
    return _state_energies(state, params, table)[1]


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected_steps: int
    nfev: int
    rel_tol: float
    abs_tol: float


@dataclass
class TrajectoryRecord:
    """Sampled trajectory with per-sample energies and integrator statistics.

    ``y`` rows are [q, qdot, Q_1..Q_k, Qdot_1..Qdot_k] (prescribed-mirror
    runs store the prescribed q, qdot in the same layout).  ``energy`` is the
    Legendre energy of the active variant; ``h_canonical`` the canonical-split
    diagnostic.
    """

    t: np.ndarray
    y: np.ndarray
    energy: np.ndarray
    h_canonical: np.ndarray
    stats: IntegratorStats
    variant: str
    mirror_model: str
    floor_hit: bool = False
    kmax: int = 1

    def state(self, i: int) -> ClassicalState:
        k = self.kmax
        row = self.y[i]
        return ClassicalState(
            t=float(self.t[i]), q=row[0], qdot=row[1], Q=row[2 : 2 + k], Qdot=row[2 + k :]
        )


def _validate_run(t_end: float, rel_tol: float, abs_tol: float) -> None:
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < v <= 1e-2):
            raise ValueError(f"{name} must lie in (0, 1e-2], got {v}")


def _drive_solver(rhs, y0, t_end, rel_tol, abs_tol, sample_times, stop):
    """Run the adaptive solver, returning (t, y, stats, stopped).

    With ``sample_times`` the output is interpolated onto that grid via the
    solver's dense output; otherwise the natural accepted steps are returned.
    """
    # imported here so that only integrating callers pay for scipy.integrate
    from scipy.integrate import DOP853

    solver = DOP853(rhs, 0.0, np.asarray(y0, dtype=float), t_bound=float(t_end),
                    rtol=rel_tol, atol=abs_tol)
    ts = [0.0]
    ys = [np.array(y0, dtype=float)]
    accepted = 0
    n_dense = 0
    stopped = False
    grid = None if sample_times is None else np.asarray(sample_times, dtype=float)
    gi = 0
    if grid is not None:
        if grid.ndim != 1 or np.any(np.diff(grid) <= 0) or grid[0] < 0 or grid[-1] > t_end:
            raise ValueError("sample_times must be strictly increasing within [0, t_end]")
        ts, ys = [], []
        if grid[0] == 0.0:
            ts.append(0.0)
            ys.append(np.array(y0, dtype=float))
            gi = 1
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise _make_stiffness_error(ts, ys, y0)
        accepted += 1
        if grid is None:
            ts.append(solver.t)
            ys.append(solver.y.copy())
        elif gi < len(grid) and grid[gi] <= solver.t:
            dense = solver.dense_output()
            n_dense += 1
            while gi < len(grid) and grid[gi] <= solver.t:
                ts.append(float(grid[gi]))
                ys.append(np.asarray(dense(grid[gi]), dtype=float))
                gi += 1
        if stop is not None and stop(solver.y):
            stopped = True
            break
    attempts = (solver.nfev - _STARTUP_EVALS - _EVALS_PER_DENSE * n_dense) // _EVALS_PER_ATTEMPT
    rejected = max(0, attempts - accepted)
    stats = IntegratorStats(accepted, rejected, solver.nfev, rel_tol, abs_tol)
    return np.array(ts), np.array(ys), stats, stopped


def _make_stiffness_error(ts, ys, y0):
    if ts:
        t_last, y_last = ts[-1], ys[-1]
    else:
        t_last, y_last = 0.0, np.asarray(y0, dtype=float)
    k = (len(y_last) - 2) // 2
    state = ClassicalState(t=float(t_last), q=y_last[0], qdot=y_last[1],
                           Q=y_last[2 : 2 + k], Qdot=y_last[2 + k :])
    return StiffnessError(f"step size underflow at t = {t_last}", state)


def _record(t, y, stats, g, M, d, params, variant, mirror_model, floor_hit=False):
    """Trajectory record with the per-sample energy diagnostics of ``y``."""
    k = params.kmax
    diag = [_energies(r[0], r[1], r[2 : 2 + k], r[2 + k :], g, M, d, params) for r in y]
    return TrajectoryRecord(
        t=t,
        y=y,
        energy=np.array([e for e, _ in diag]),
        h_canonical=np.array([h for _, h in diag]),
        stats=stats,
        variant=variant,
        mirror_model=mirror_model,
        floor_hit=floor_hit,
        kmax=k,
    )


def integrate(
    variant: str,
    state0: ClassicalState,
    params: MirrorParams,
    table: CoefficientTable,
    t_end: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    mirror_model: str = "newton",
    inner_cutoff: int | None = None,
    q_floor: float | None = None,
    sample_times: np.ndarray | None = None,
) -> TrajectoryRecord:
    """Integrate the coupled mirror-field system to t_end.

    ``variant`` selects the field formulation ('new' or 'law'; for 'law' the
    Gram inner sum defaults to 16x the retained mode count).  ``mirror_model``
    selects the Newton radiation-pressure equation ('newton', default) or the
    Euler-Lagrange equation of the truncated Lagrangian ('lagrangian'), under
    which the recorded Legendre energy is an exact invariant.  Integration
    stops early if the mirror reaches ``q_floor`` (default length/100).
    """
    _check_state(state0, params)
    _validate_run(t_end, rel_tol, abs_tol)
    if mirror_model not in ("newton", "lagrangian"):
        raise ValueError(f"unknown mirror_model {mirror_model!r}")
    kmax = params.kmax
    g, M, d = _coupling(variant, table, kmax, inner_cutoff, 16 * kmax)
    floor = params.length / 100.0 if q_floor is None else q_floor
    kk = np.arange(1, kmax + 1, dtype=float)
    signs_k = (-1.0) ** kk * kk

    def rhs(t, y):
        q, qdot = y[0], y[1]
        Q = y[2 : 2 + kmax]
        Qdot = y[2 + kmax :]
        F, om2, gQ, MQ = _free_field_accel(q, qdot, Q, Qdot, g, M, params)
        if mirror_model == "newton":
            qddot = _newton_accel(q, Q, signs_k, params)
        else:
            qddot = _variational_mirror_accel(q, qdot, Q, Qdot, F, om2, gQ, MQ, params)
        out = np.empty_like(y)
        out[0] = qdot
        out[1] = qddot
        out[2 : 2 + kmax] = Qdot
        out[2 + kmax :] = F + (qddot / q) * gQ
        return out

    y0 = np.concatenate([[state0.q, state0.qdot], state0.Q, state0.Qdot])
    t, y, stats, stopped = _drive_solver(
        rhs, y0, t_end, rel_tol, abs_tol, sample_times, stop=lambda yv: yv[0] <= floor
    )
    return _record(t, y, stats, g, M, d, params, variant, mirror_model, stopped)


def integrate_prescribed(
    variant: str,
    motion: MirrorMotion,
    state0: ClassicalState,
    params: MirrorParams,
    table: CoefficientTable,
    t_end: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    inner_cutoff: int | None = None,
    sample_times: np.ndarray | None = None,
) -> TrajectoryRecord:
    """Integrate the field equations under a prescribed mirror trajectory.

    The state rows store the prescribed q, qdot alongside the fields so the
    record layout matches ``integrate``.  For 'law' the inner Gram cutoff
    defaults to the retained mode count (strict matched truncation).
    """
    _validate_run(t_end, rel_tol, abs_tol)
    kmax = params.kmax
    g, M, d = _coupling(variant, table, kmax, inner_cutoff, kmax)

    def rhs(t, y):
        Q = y[:kmax]
        Qdot = y[kmax:]
        Qddot = _field_accel(motion.q(t), motion.qdot(t), Q, Qdot, motion.qddot(t), g, M, params)
        return np.concatenate([Qdot, Qddot])

    y0 = np.concatenate([state0.Q, state0.Qdot])
    t, yf, stats, _ = _drive_solver(rhs, y0, t_end, rel_tol, abs_tol, sample_times, stop=None)
    q = np.array([motion.q(tv) for tv in t])
    qdot = np.array([motion.qdot(tv) for tv in t])
    y = np.column_stack([q, qdot, yf])
    return _record(t, y, stats, g, M, d, params, variant, "prescribed")
