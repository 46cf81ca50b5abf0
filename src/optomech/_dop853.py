"""DOP853, the explicit Runge-Kutta 8(5,3) pair of Dormand and Prince with its
7th-order dense output, on numpy alone.

Source: E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I: Nonstiff Problems*, 2nd ed. (Springer, 1993), Sec. II.10, and the
authors' Fortran code DOP853.  The float64 tableau is scipy's
``scipy.integrate._ivp.dop853_coefficients`` (scipy, BSD 3-Clause licence,
Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers) in shortest
round-trip form, and ``solve`` does the float operations of scipy's ``DOP853``
in its order, so a run matches that solver bit for bit.

Stage s (s = 1..11) evaluates f at t + C[s] h and y + h sum_j A[s][j] K_j;
A[12] = B are the 8th-order weights of the step.  Stages 13..15 run only for
dense output, whose polynomial takes its last four coefficient rows from D.
E5 and E3 weight the 12 stages and f at the new point into the 5th- and
3rd-order error estimates.

Step control: RMS norm of the 5th-order error estimate damped by the 3rd-order
one, safety factor 0.9, step factor within [0.2, 10] and no growth right after
a rejection, last step clipped to ``t_end``, starting step of Sec. II.4, and
``rel_tol`` >= 100 eps, below which the estimate is roundoff.  Stage points and
error estimates go into reused buffers; step control runs on Python floats.
Evaluations are counted exactly: 2 to start, 12 per attempt and 3 per step
that feeds ``sample_times``, where the output is the dense interpolant.
"""

import math

import numpy as np

N_STAGES = 12

# the nodes of stages 0..15; C[12] = 1 is the new point
C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
     0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
     0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)

# row s holds the s coefficients A[s][0..s-1] of stage s
A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)

B = A[N_STAGES]

E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
      0.02265179219836082, 0.0)

E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
      1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
      -0.022355307863886294, 0.0)

# dense-output rows 3..6 over the 16 stages
D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)

# the tableau as arrays, the nodes as Python floats
_A = [np.array(row) for row in A]
_B, _E3, _E5, _D = (np.array(v) for v in (B, E3, E5, D))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 8  # -1 / (order of the error estimate + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps  # below it the error estimate is roundoff


class StepSizeUnderflow(ArithmeticError):
    """The step fell below 10 ulp of t; carries the last accepted (t, y)."""

    def __init__(self, t: float, y: np.ndarray):
        super().__init__(f"step size underflow at t = {t}")
        self.t, self.y = t, y


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
    for s in range(N_STAGES + 1, len(C)):
        K[s] = rhs(t_old + C[s] * h, y_old + np.dot(K[:s].T, _A[s]) * h)
    dy = y - y_old
    F = (dy, h * K[0] - dy, 2 * dy - h * (f + K[0]), *(h * np.dot(_D, K)))
    x = x[:, None]
    out = np.zeros((len(x), len(y)))
    for i, row in enumerate(reversed(F)):  # Horner in x and 1 - x alternately
        out += row
        out *= x if i % 2 == 0 else 1 - x
    out += y_old
    return out


def solve(rhs, y0, t_end, rel_tol, abs_tol, sample_times=None, stop=None):
    """Run DOP853 on y' = rhs(t, y) from t = 0 to ``t_end`` (or until ``stop(t, y)``
    after an accepted step), returning (t, y, steps, rejected, nfev, stopped);
    y holds the accepted steps, or the rows at ``sample_times`` when given."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be finite and > 0, got {t_end}")
    for name, v in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (0.0 < v <= 1e-2):
            raise ValueError(f"{name} must lie in (0, 1e-2], got {v}")
    if rel_tol < _RTOL_FLOOR:
        raise ValueError(f"rel_tol must be >= 100 * machine epsilon = {_RTOL_FLOOR:.6g}, "
                         f"got {rel_tol}")
    grid = None if sample_times is None else np.asarray(sample_times, dtype=float)
    # phrased so that a NaN point fails a comparison
    if grid is not None and (grid.ndim != 1 or not grid.size or not np.all(np.diff(grid) > 0)
                             or not 0 <= grid[0] <= grid[-1] <= t_end):
        raise ValueError("sample_times must be a non-empty, finite, strictly increasing "
                         "grid within [0, t_end]")
    t, y = 0.0, np.array(y0, dtype=float)
    gi = 0 if grid is None else int(grid[0] == 0.0)  # a grid point at t = 0 takes y0 itself
    ts, ys = ([t], [y]) if grid is None or gi else ([], [])
    n = len(y)
    K = np.empty((len(C), n))  # stage derivatives; the last 3 rows feed dense output
    stages = [(s, C[s], _A[s], K[:s].T.dot) for s in range(1, N_STAGES)]
    KT_B, KT_E = K[:N_STAGES].T, K[:N_STAGES + 1].T
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
                raise StepSizeUnderflow(t, y)
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
            K[N_STAGES] = f_new
            nfev += N_STAGES
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
    # (0, n) when the run stops before the first grid point
    return np.array(ts), np.array(ys).reshape(len(ts), n), accepted, rejected, nfev, stopped
