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

The inner cutoff L of the ``law`` Gram sum defaults to 16 * kmax at every
entry point, close to the untruncated limit; an explicit ``inner_cutoff``
overrides it (acceptance criterion 04 passes L = kmax, the matched truncation
whose new/law gap shrinks as kmax grows).

The mirror can be driven three ways: by the radiation-pressure Newton
equation (default; it contains no accelerations, so evaluating it first and
feeding the result to the field equations resolves the mutual dependence
exactly), by the Euler-Lagrange equation of the truncated Lagrangian
(``mirror_model="lagrangian"``, which makes the Legendre energy of the
truncated system an exact invariant of the flow), or by a prescribed motion
(``integrate_prescribed``).

Every right-hand side starts from one block matvec R = B @ [Q; Qdot], whose
six rows are Q, Qdot, gQ, MQ, g Qdot and (c pi k)^2 Q.  The field
accelerations are [0, 0, qddot/q - u^2, u^2, 2u, -1/q^2] @ R, the Newton
force reads sum_k (-1)^k k Q_k from row Q, and R[:3] @ R[2:].T holds every
dot product of the Euler-Lagrange mirror equation, solved on Python floats.
R, the coefficient row and the dot products live in buffers of the run's
coupling, so an evaluation allocates only its fresh result.

The Legendre energy reported along trajectories is

    E = m qdot^2/2 + V(q) + sum_k (Qdot_k^2 + omega_k^2 Q_k^2)/2
        + qdot^2/(2 q^2) * Q.M.Q - (qdot/q) * Qdot.g.Q

with M the coupling matrix of the active variant (d for ``new``, the Gram
matrix for ``law``).  The value of the Hamiltonian obtained from the
symmetric canonical-momentum split (same expression with -1/4 instead of
+1/2 on the quadratic-velocity term and no velocity cross term) is recorded
alongside as ``h_canonical``; it is generally *not* conserved under the
truncated flow, and both diagnostics are reported rather than deciding which
one "should" be constant.  Both columns are evaluated in one batch over all
samples, summed column by column so that a row's value does not depend on
the batch: ``energy()`` with the record's variant and inner cutoff, and
``h_canonical()``, equal them exactly.  The canonical split reads d only, so
``h_canonical`` does not depend on the variant.

Both integrators run one DOP853 path, the adaptive 8(5,3) Runge-Kutta pair of
Hairer, Norsett & Wanner (Sec. II.10) in ``_dop853``, which matches scipy's
``DOP853`` bit for bit and counts its work exactly.  No symplectic structure is
claimed (the system is non-separable), so energy drift is monitored, not
enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _dop853
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
        for name in ("q", "qdot", "Q", "Qdot"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"invalid state: {name} must be finite")
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (N, k) arrays, summed column by column (N-independent)."""
    acc = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        acc += a[:, j] * b[:, j]
    return acc


def _rowmatvec(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ x for every row x of X, accumulated column by column (see _rowdot)."""
    acc = X[:, :1] * A[:, 0]
    for j in range(1, X.shape[1]):
        acc += X[:, j : j + 1] * A[:, j]
    return acc


class _Mirror:
    """Mirror and cavity constants at kmax modes, with the Newton mirror force."""

    def __init__(self, params: MirrorParams):
        kk = np.arange(1, params.kmax + 1, dtype=float)
        self.kmax, self.mass, self.length = params.kmax, params.mass, params.length
        self.spring = params.mass * params.omega_m**2
        self.c2pi2 = (params.c * np.pi) ** 2
        self.c2k2 = (params.c * np.pi * kk) ** 2
        self.signs = (-1.0) ** kk * kk

    def newton_accel(self, q: float, qdot: float, R: np.ndarray) -> float:
        """The Newton mirror equation of ``mirror_accel``, with Q the first row of R."""
        s = float(self.signs.dot(R[0]))
        return (-self.spring * (q - self.length) + self.c2pi2 * s * s / (q * q * q)) / self.mass


class _Coupling(_Mirror):
    """Couplings g, M, d of one variant at kmax modes and the mirror constants,
    with the block matrix B whose one matvec feeds the right-hand side."""

    def __init__(self, params: MirrorParams, g: np.ndarray, M: np.ndarray, d: np.ndarray):
        super().__init__(params)
        k = self.kmax
        self.g, self.M, self.d = g, M, d
        eye, zero = np.eye(k), np.zeros((k, k))
        self.B = np.block([[eye, zero], [zero, eye], [g, zero], [M, zero], [zero, g],
                           [np.diag(self.c2k2), zero]])
        # the buffers of one right-hand side evaluation, overwritten by the next
        self._flat = np.empty(6 * k)
        self._R = self._flat.reshape(6, k)
        self._coef = np.zeros(6)
        self._dots = np.empty((3, 4))

    def rows(self, z: np.ndarray) -> np.ndarray:
        """R = B @ z for z = [Q; Qdot]: rows Q, Qdot, gQ, MQ, g Qdot, (c pi k)^2 Q,
        in the coupling's buffer (valid until the next call)."""
        self.B.dot(z, self._flat)
        return self._R

    def field_accel(self, q: float, qdot: float, qddot: float, R: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Field equation of the module docstring, as one combination of R,
        written into ``out`` when given and into a fresh array otherwise."""
        u = qdot / q
        coef = self._coef  # [0, 0, qddot/q - u^2, u^2, 2u, -1/q^2]
        coef[2] = qddot / q - u * u
        coef[3] = u * u
        coef[4] = 2.0 * u
        coef[5] = -1.0 / (q * q)
        return coef.dot(R, out)

    def lagrangian_accel(self, q: float, qdot: float, R: np.ndarray) -> float:
        """Euler-Lagrange mirror equation of the truncated Lagrangian, linear in the
        field accelerations and so solved in closed form (F: field acceleration at
        qddot = 0, D = Q.M.Q, omega_k = c pi k / q):

            (m + (D - gQ.gQ)/q^2) qddot = -m Omega^2 (q - l) + omega^2.Q^2/q
                + qdot^2 D/q^3 - 2 qdot Qdot.MQ/q^2 + gQ.F/q
        """
        dots = R[:3].dot(R[2:].T, self._dots).tolist()
        (_, D, _, W), (_, half_Ddot, _, _), (gg, gM, ggd, gW) = dots
        u = qdot / q
        q2 = q * q
        gF = u * u * (gM - gg) + 2.0 * u * ggd - gW / q2
        num = (-self.spring * (q - self.length) + W / (q2 * q) + qdot * qdot / (q2 * q) * D
               - 2.0 * qdot / q2 * half_Ddot + gF / q)
        return num / (self.mass + (D - gg) / q2)

    def energies(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Legendre energy with coupling M, canonical-split value) of every row
        [q, qdot, Q, Qdot] of ``y``; temporaries are N x kmax."""
        k = self.kmax
        q, qdot, Q, Qdot = y[:, 0], y[:, 1], y[:, 2 : 2 + k], y[:, 2 + k :]
        u = qdot / q
        base = (0.5 * self.mass * qdot * qdot + 0.5 * self.spring * (q - self.length) ** 2
                + 0.5 * (_rowdot(Qdot, Qdot) + _rowdot(Q, Q * self.c2k2) / (q * q)))
        legendre = (base + 0.5 * u * u * _rowdot(Q, _rowmatvec(self.M, Q))
                    - u * _rowdot(Qdot, _rowmatvec(self.g, Q)))
        return legendre, base - 0.25 * u * u * _rowdot(Q, _rowmatvec(self.d, Q))


def _coupling(variant: str, table: CoefficientTable, params: MirrorParams,
              inner_cutoff: int | None) -> _Coupling:
    """Coupling of a variant: M = d for 'new', the Gram matrix summed to
    ``inner_cutoff`` modes (16 * kmax when None; an integer >= 1) for 'law'."""
    kmax = params.kmax
    if table.kmax < kmax:
        raise ValueError("coefficient table smaller than requested mode count")
    g, d = table.g[:kmax, :kmax], table.d[:kmax, :kmax]
    if variant == "new":
        return _Coupling(params, g, d, d)
    if variant == "law":
        L = 16 * kmax if inner_cutoff is None else inner_cutoff
        # gram_matrix sums nothing below 1, which would drop the whole Gram term
        if isinstance(L, bool) or not isinstance(L, (int, np.integer)) or L < 1:
            raise ValueError(f"inner_cutoff must be an integer >= 1, got {inner_cutoff!r}")
        return _Coupling(params, g, gram_matrix(kmax, L), d)
    raise ValueError(f"unknown variant {variant!r}; use 'new' or 'law'")


def _state_vector(state: ClassicalState) -> np.ndarray:
    return np.concatenate([[state.q, state.qdot], state.Q, state.Qdot])


def field_accel_new(state: ClassicalState, table: CoefficientTable, params: MirrorParams,
                    qddot: float) -> np.ndarray:
    """Field accelerations with the explicit self-rate and (h - 3g) couplings."""
    _check_state(state, params)
    cp = _coupling("new", table, params, None)
    return cp.field_accel(state.q, state.qdot, qddot, cp.rows(_state_vector(state)[2:]))


def field_accel_law(state: ClassicalState, table: CoefficientTable, params: MirrorParams,
                    qddot: float, inner_cutoff: int | None = None) -> np.ndarray:
    """Field accelerations in the Gram-sum form.

    The inner sum over the coupling products runs to ``inner_cutoff`` modes
    (default 16 * kmax).  A strict truncation loses the self-rate: at
    ``inner_cutoff=1`` the Gram term is empty.
    """
    _check_state(state, params)
    cp = _coupling("law", table, params, inner_cutoff)
    return cp.field_accel(state.q, state.qdot, qddot, cp.rows(_state_vector(state)[2:]))


def mirror_accel(state: ClassicalState, params: MirrorParams) -> float:
    """Newton mirror equation: spring restoring force plus radiation pressure.

    qddot = [-m Omega^2 (q - l) + (c pi / q)^2 (sum_k (-1)^k k Q_k)^2 / q] / m.
    Contains no accelerations, so it can be evaluated before the field
    equations; that ordering is exact, not iterative.
    """
    _check_state(state, params)
    return float(_Mirror(params).newton_accel(state.q, state.qdot, state.Q[None]))


def energy(state: ClassicalState, params: MirrorParams, table: CoefficientTable,
           variant: str = "new", inner_cutoff: int | None = None) -> float:
    """Legendre energy of the truncated system (the conserved quantity of the
    variational flow): kinetic + spring + field + quadratic-velocity coupling
    + velocity cross coupling, with the coupling M of ``variant`` ('law':
    Gram sum to ``inner_cutoff`` modes, default 16 * kmax as in ``integrate``)."""
    _check_state(state, params)
    cp = _coupling(variant, table, params, inner_cutoff)
    return float(cp.energies(_state_vector(state)[None])[0][0])


def h_canonical(state: ClassicalState, params: MirrorParams, table: CoefficientTable) -> float:
    """Value of the Hamiltonian from the symmetric canonical-momentum split.

    Differs from the Legendre energy in the sign and weight of the
    quadratic-velocity term (-1/4 instead of +1/2) and drops the velocity
    cross term; reported as a diagnostic, not a conservation claim.  It reads
    the coupling d only, so it is the same for 'new' and 'law'.
    """
    _check_state(state, params)
    cp = _coupling("new", table, params, None)
    return float(cp.energies(_state_vector(state)[None])[1][0])


@dataclass(frozen=True)
class IntegratorStats:
    """Exact counts of one DOP853 run (see ``_dop853``): accepted steps, rejected
    step attempts and right-hand-side evaluations, with the tolerances it ran at."""

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
        return _row_state(self.t[i], self.y[i], self.kmax)


def _row_state(t: float, row: np.ndarray, k: int) -> ClassicalState:
    """The state of one record row [q, qdot, Q, Qdot] at time t."""
    return ClassicalState(t=float(t), q=row[0], qdot=row[1], Q=row[2 : 2 + k], Qdot=row[2 + k :])


def _rhs(cp: _Coupling, mirror_model: str):
    """Right-hand side f(t, y) of the mirror-field system, y = [q, qdot, Q, Qdot]."""
    mirror = {"newton": cp.newton_accel, "lagrangian": cp.lagrangian_accel}.get(mirror_model)
    if mirror is None:
        raise ValueError(f"unknown mirror_model {mirror_model!r}")
    rows, field, k = cp.rows, cp.field_accel, cp.kmax

    def rhs(t, y):
        q, qdot = y[:2].tolist()
        R = rows(y[2:])
        qddot = mirror(q, qdot, R)
        out = np.empty(2 + 2 * k)
        out[0] = qdot
        out[1] = qddot
        out[2 : 2 + k] = R[1]
        field(q, qdot, qddot, R, out[2 + k :])
        return out

    return rhs


def _prescribed_rhs(cp: _Coupling, motion: MirrorMotion):
    """Right-hand side f(t, y) of the field equations, y = [Q, Qdot], with the
    mirror on the prescribed ``motion``."""
    rows, field, k = cp.rows, cp.field_accel, cp.kmax

    def rhs(t, y):
        R = rows(y)
        out = np.empty(2 * k)
        out[:k] = R[1]
        field(float(motion.q(t)), float(motion.qdot(t)), float(motion.qddot(t)), R, out[k:])
        return out

    return rhs


def _run(variant, mirror_model, state0, params, table, inner_cutoff, t_end, rel_tol, abs_tol,
         sample_times, rhs_of, y0, event, to_record=lambda t, y: y) -> TrajectoryRecord:
    """One DOP853 run of ``rhs_of(coupling)`` from ``y0`` until ``event(t, y)``
    reaches <= 0; ``to_record(t, y)`` maps solver rows to record rows, also for
    an underflow."""
    _check_state(state0, params)
    if state0.t != 0:
        raise ValueError(f"invalid state: runs start at t = 0, got state0.t = {state0.t!r}")
    cp = _coupling(variant, table, params, inner_cutoff)
    try:
        t, y, steps, rejected, nfev, stopped = _dop853.solve(rhs_of(cp), y0, t_end, rel_tol,
                                                             abs_tol, sample_times, event)
    except _dop853.StepSizeUnderflow as exc:
        last = _row_state(exc.t, to_record(np.array([exc.t]), exc.y[None])[0], cp.kmax)
        raise StiffnessError(str(exc), last) from None
    y = to_record(t, y)
    legendre, canonical = cp.energies(y)
    return TrajectoryRecord(t, y, legendre, canonical,
                            IntegratorStats(steps, rejected, nfev, rel_tol, abs_tol), variant,
                            mirror_model, floor_hit=stopped, kmax=cp.kmax)


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
    stops early if the mirror reaches ``q_floor`` (default length/100), which
    must be finite and > 0.
    """
    if q_floor is None:
        q_floor = params.length / 100.0
    elif not (math.isfinite(q_floor) and q_floor > 0):
        raise ValueError(f"q_floor must be finite and > 0, got {q_floor!r}")
    return _run(variant, mirror_model, state0, params, table, inner_cutoff, t_end, rel_tol,
                abs_tol, sample_times, lambda cp: _rhs(cp, mirror_model), _state_vector(state0),
                lambda tv, yv: yv[0] - q_floor)


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
    record layout matches ``integrate``, and 'law' takes the same inner Gram
    cutoff.  As in ``integrate``, the run stops with ``floor_hit`` once the
    prescribed q reaches length/100.
    """
    floor = params.length / 100.0

    def with_mirror(t, yf):  # record rows, and the state of an underflow, take q, qdot of motion
        return np.column_stack([[motion.q(tv) for tv in t], [motion.qdot(tv) for tv in t], yf])

    return _run(variant, "prescribed", state0, params, table, inner_cutoff, t_end, rel_tol,
                abs_tol, sample_times, lambda cp: _prescribed_rhs(cp, motion),
                np.concatenate([state0.Q, state0.Qdot]), lambda tv, yv: motion.q(tv) - floor,
                with_mirror)
