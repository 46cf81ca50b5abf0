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
R, the coefficient row and the dot products go into buffers that the coupling
of one run owns and overwrites on every evaluation, so an evaluation allocates
only its result: each right-hand side returns a fresh array and keeps no
reference to its input.

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

Integration runs DOP853, the adaptive 8(5,3) Runge-Kutta pair of Hairer,
Norsett & Wanner (Sec. II.10) with its 7th-order dense output, in this module
on numpy alone (tableau in ``_dop853``).  Its float operations are those of
scipy's ``DOP853``, so trajectories match that solver bit for bit, and it
counts accepted steps, rejected attempts and right-hand-side evaluations
exactly.  The loop forms its stage points and error estimates in reused
buffers and runs step control on Python floats.  No symplectic structure is
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

# DOP853 (see _drive_solver): the tableau as arrays, the nodes as Python floats
_A = [np.array(row) for row in _dop853.A]
_C = _dop853.C
_B, _E3, _E5, _D = (np.array(v) for v in (_dop853.B, _dop853.E3, _dop853.E5, _dop853.D))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimate + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps  # below it the error estimate is roundoff


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


class _Coupling:
    """Couplings g, M, d of one variant at kmax modes and the mirror constants,
    with the block matrix B whose one matvec feeds the right-hand side."""

    def __init__(self, params: MirrorParams, g: np.ndarray, M: np.ndarray, d: np.ndarray):
        k = params.kmax
        kk = np.arange(1, k + 1, dtype=float)
        self.kmax, self.g, self.M, self.d = k, g, M, d
        self.mass, self.length = params.mass, params.length
        self.spring = params.mass * params.omega_m**2
        self.c2pi2 = (params.c * np.pi) ** 2
        self.c2k2 = (params.c * np.pi * kk) ** 2
        self.signs = (-1.0) ** kk * kk
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

    def newton_accel(self, q: float, qdot: float, R: np.ndarray) -> float:
        """qddot = [-m Omega^2 (q - l) + (c pi / q)^2 (sum_k (-1)^k k Q_k)^2 / q] / m."""
        s = float(self.signs.dot(R[0]))
        return (-self.spring * (q - self.length) + self.c2pi2 * s * s / (q * q * q)) / self.mass

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
    zero = np.zeros((params.kmax, params.kmax))  # the Newton force reads no coupling
    cp = _Coupling(params, zero, zero, zero)
    return float(cp.newton_accel(state.q, state.qdot, cp.rows(_state_vector(state)[2:])))


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
    """Exact counts of one DOP853 run: accepted steps, rejected step attempts
    and right-hand-side evaluations (2 to start, 12 per attempt, 3 per step
    that feeds ``sample_times``), with the tolerances it ran at."""

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
    if rel_tol < _RTOL_FLOOR:
        raise ValueError(f"rel_tol must be >= 100 * machine epsilon = {_RTOL_FLOOR:.6g}, "
                         f"got {rel_tol}")


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5


def _initial_step(rhs, y0, f0, t_end, rel_tol, abs_tol):
    """Starting step of Hairer, Norsett & Wanner, Sec. II.4, for an error
    estimate of order 7, as a Python float; costs one evaluation."""
    scale = abs_tol + np.abs(y0) * rel_tol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = _rms((rhs(h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, t_end))


def _squared_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) ** 2 bit for bit: the rounded norm, squared by pow
    (which is not always x * x), with numpy's inf where the square overflows."""
    return float(np.sqrt(x.dot(x)) ** 2)


def _error_norm(KT: np.ndarray, h: float, scale: np.ndarray, buf: np.ndarray) -> float:
    """RMS norm of the 5th-order error estimate, damped by the 3rd-order one;
    ``buf`` takes each estimate in turn."""
    KT.dot(_E5, buf)
    buf /= scale
    err5 = _squared_norm(buf)
    KT.dot(_E3, buf)
    buf /= scale
    err3 = _squared_norm(buf)
    if err5 == 0 and err3 == 0:
        return 0.0
    denom = math.sqrt((err5 + 0.01 * err3) * len(scale))
    # denom is 0 only if err5 is 0 and 0.01 * err3 underflows: numpy's 0 / 0 is nan
    return abs(h) * err5 / denom if denom else math.nan


def _dense_rows(rhs, K, t_old, y_old, h, y, f, x):
    """The 7th-order interpolant of the step of size h from (t_old, y_old) to
    (y, f) at step fractions ``x``, one row each; runs stages 13..15 into K."""
    for s in range(_dop853.N_STAGES + 1, len(_C)):
        K[s] = rhs(t_old + _C[s] * h, y_old + np.dot(K[:s].T, _A[s]) * h)
    dy = y - y_old
    F = (dy, h * K[0] - dy, 2 * dy - h * (f + K[0]), *(h * np.dot(_D, K)))
    x = x[:, None]
    out = np.zeros((len(x), len(y)))
    for i, row in enumerate(reversed(F)):  # Horner in x and 1 - x alternately
        out += row
        out *= x if i % 2 == 0 else 1 - x
    out += y_old
    return out


def _drive_solver(rhs, y0, t_end, rel_tol, abs_tol, sample_times, stop, motion=None):
    """Run DOP853 from t = 0 to ``t_end``, returning (t, y, stats, stopped).

    The steps are those of Hairer, Norsett & Wanner, Sec. II.10, in the float
    operations of scipy's ``DOP853`` (so a run matches it bit for bit): RMS
    error norm, safety factor 0.9, step factor within [0.2, 10] and no growth
    right after a rejection, last step clipped to ``t_end``.  With
    ``sample_times`` the output is the dense interpolant on that grid,
    otherwise the accepted steps.  ``stop(t, y)`` is asked after every
    accepted step; a step below 10 ulp of t raises ``StiffnessError`` with the
    last accepted state, whose q, qdot come from ``motion`` when y = [Q, Qdot].
    """
    grid = None if sample_times is None else np.asarray(sample_times, dtype=float)
    if grid is not None and (grid.ndim != 1 or np.any(np.diff(grid) <= 0) or grid[0] < 0
                             or grid[-1] > t_end):
        raise ValueError("sample_times must be strictly increasing within [0, t_end]")
    t, y = 0.0, np.array(y0, dtype=float)
    gi = 0 if grid is None else int(grid[0] == 0.0)  # a grid point at t = 0 takes y0 itself
    ts, ys = ([t], [y]) if grid is None or gi else ([], [])
    n = len(y)
    K = np.empty((len(_C), n))  # stage derivatives; the last 3 rows feed dense output
    stages = [(s, _C[s], _A[s], K[:s].T.dot) for s in range(1, _dop853.N_STAGES)]
    KT_B, KT_E = K[:_dop853.N_STAGES].T, K[:_dop853.N_STAGES + 1].T
    y_stage, scale, y_abs, err_buf = (np.empty(n) for _ in range(4))
    h_arr = np.empty(())  # h as a 0-d array: an array operand is cheaper than a float
    f = rhs(t, y)
    h_abs = _initial_step(rhs, y, f, t_end, rel_tol, abs_tol)
    accepted = rejected = 0
    nfev = 2
    stopped = False
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise _stiffness_error(t, y, motion)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            h_arr[()] = h
            K[0] = f
            for s, c, a, kt_dot in stages:  # y_stage = y + (K[:s].T @ a) * h
                kt_dot(a, y_stage)
                y_stage *= h_arr
                y_stage += y
                K[s] = rhs(t + c * h, y_stage)
            y_new = KT_B.dot(_B)  # y + h * (K.T @ B)
            y_new *= h_arr
            y_new += y
            f_new = rhs(t + h, y_new)
            K[_dop853.N_STAGES] = f_new
            nfev += _dop853.N_STAGES
            # scale = abs_tol + max(|y|, |y_new|) * rel_tol
            np.abs(y, out=scale)
            np.abs(y_new, out=y_abs)
            np.maximum(scale, y_abs, out=scale)
            scale *= rel_tol
            scale += abs_tol
            err = _error_norm(KT_E, h, scale, err_buf)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR,
                                                          _SAFETY * err**_ERROR_EXPONENT)
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            step_rejected = True
            rejected += 1
        accepted += 1
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        if grid is None:
            ts.append(t)
            ys.append(y)
        elif gi < len(grid) and grid[gi] <= t:
            end = int(np.searchsorted(grid, t, side="right"))
            ys.extend(_dense_rows(rhs, K, t_old, y_old, h, y, f, (grid[gi:end] - t_old) / h))
            ts.extend(grid[gi:end].tolist())
            nfev += 3
            gi = end
        if stop is not None and stop(t, y):
            stopped = True
            break
        if t == t_end:
            break
    stats = IntegratorStats(accepted, rejected, nfev, rel_tol, abs_tol)
    # (0, n) when the run stops before the first grid point
    return np.array(ts), np.array(ys).reshape(len(ts), n), stats, stopped


def _stiffness_error(t, y, motion):
    if motion is not None:
        y = np.concatenate(([motion.q(t), motion.qdot(t)], y))
    k = (len(y) - 2) // 2
    state = ClassicalState(t=float(t), q=y[0], qdot=y[1], Q=y[2 : 2 + k], Qdot=y[2 + k :])
    return StiffnessError(f"step size underflow at t = {t}", state)


def _record(t, y, stats, cp, variant, mirror_model, floor_hit=False):
    """Trajectory record with the energy diagnostics of every row of ``y``."""
    legendre, canonical = cp.energies(y)
    return TrajectoryRecord(t=t, y=y, energy=legendre, h_canonical=canonical, stats=stats,
                            variant=variant, mirror_model=mirror_model, floor_hit=floor_hit,
                            kmax=cp.kmax)


def _rhs(cp: _Coupling, mirror_model: str):
    """Right-hand side f(t, y) of the mirror-field system, y = [q, qdot, Q, Qdot]."""
    if mirror_model == "newton":
        mirror = cp.newton_accel
    elif mirror_model == "lagrangian":
        mirror = cp.lagrangian_accel
    else:
        raise ValueError(f"unknown mirror_model {mirror_model!r}")
    rows, field = cp.rows, cp.field_accel
    k = cp.kmax

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

    rows, field = cp.rows, cp.field_accel
    k = cp.kmax

    def rhs(t, y):
        R = rows(y)
        out = np.empty(2 * k)
        out[:k] = R[1]
        field(float(motion.q(t)), float(motion.qdot(t)), float(motion.qddot(t)), R, out[k:])
        return out

    return rhs


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
    cp = _coupling(variant, table, params, inner_cutoff)
    rhs = _rhs(cp, mirror_model)
    floor = params.length / 100.0 if q_floor is None else q_floor
    t, y, stats, stopped = _drive_solver(rhs, _state_vector(state0), t_end, rel_tol, abs_tol,
                                         sample_times, stop=lambda tv, yv: yv[0] <= floor)
    return _record(t, y, stats, cp, variant, mirror_model, stopped)


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
    _check_state(state0, params)
    _validate_run(t_end, rel_tol, abs_tol)
    cp = _coupling(variant, table, params, inner_cutoff)
    y0 = np.concatenate([state0.Q, state0.Qdot])
    floor = params.length / 100.0
    t, yf, stats, stopped = _drive_solver(_prescribed_rhs(cp, motion), y0, t_end, rel_tol,
                                          abs_tol, sample_times,
                                          stop=lambda tv, yv: motion.q(tv) <= floor,
                                          motion=motion)
    q = np.array([motion.q(tv) for tv in t])
    qdot = np.array([motion.qdot(tv) for tv in t])
    y = np.column_stack([q, qdot, yf])
    return _record(t, y, stats, cp, variant, "prescribed", stopped)
