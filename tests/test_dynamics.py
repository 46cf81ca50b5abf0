"""Classical mirror-field dynamics: accelerations, energies, integration."""

import contextlib
import math
import signal

import numpy as np
import pytest

from optomech import _dop853, dynamics
from optomech import coefficients as coef
from optomech.dynamics import (
    ClassicalState,
    MirrorMotion,
    MirrorParams,
    StiffnessError,
    energy,
    field_accel_law,
    field_accel_new,
    h_canonical,
    harmonic_mirror_motion,
    integrate,
    integrate_prescribed,
    mirror_accel,
)
from optomech.dynamics import _coupling, _prescribed_rhs, _rhs


@pytest.fixture(scope="module")
def table8():
    return coef.build_table(8)


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` inside the block after ``seconds``, so that a run
    that does not stop fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _blow_up(t, y):
    """q'' = qdot^3 from q = qdot = 1: qdot = 1/sqrt(1 - 2t) blows up at t = 1/2."""
    return np.array([y[1], y[1] ** 3, 0.0, 0.0])


def make_state(q=1.0, qdot=0.0, Q=(0.0,), Qdot=None):
    Q = np.atleast_1d(np.asarray(Q, dtype=float))
    if Qdot is None:
        Qdot = np.zeros_like(Q)
    return ClassicalState(t=0.0, q=q, qdot=qdot, Q=Q, Qdot=np.asarray(Qdot, dtype=float))


class TestFieldAccel:
    def test_static_mirror_harmonic_limit(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
        rng = np.random.default_rng(7)
        st = make_state(q=1.3, qdot=0.0, Q=rng.normal(size=4), Qdot=rng.normal(size=4))
        k = np.arange(1, 5)
        expected = -(np.pi * k / st.q) ** 2 * st.Q
        for fn in (field_accel_new, lambda *a: field_accel_law(*a)):
            np.testing.assert_allclose(fn(st, table8, params, 0.0), expected, rtol=1e-14)

    def test_single_mode_self_rate(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.2, qdot=0.5, Q=[0.8], Qdot=[0.1])
        got = field_accel_new(st, table8, params, qddot=0.3)
        u = st.qdot / st.q
        expected = -(np.pi / st.q) ** 2 * st.Q + table8.r[0] * u * u * st.Q
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_two_mode_hand_value(self, table8):
        # q = qdot = 1, qddot = 0, Q = (1, 0): Qddot_2 = h_21 - 3 g_21 = -52/9
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.0, qdot=1.0, Q=[1.0, 0.0])
        got = field_accel_new(st, table8, params, qddot=0.0)
        assert got[1] == pytest.approx(-52.0 / 9.0, rel=1e-14)

    def test_law_truncated_single_mode_drops_self_rate(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.2, qdot=0.5, Q=[0.8], Qdot=[0.1])
        got = field_accel_law(st, table8, params, qddot=0.0, inner_cutoff=1)
        np.testing.assert_allclose(got, -(np.pi / st.q) ** 2 * st.Q, rtol=1e-14)
        gap = field_accel_new(st, table8, params, 0.0) - got
        u = st.qdot / st.q
        np.testing.assert_allclose(gap, table8.r[0] * u * u * st.Q, atol=1e-10)

    def test_law_converges_to_new_with_inner_cutoff(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.0, qdot=1.0, Q=[1.0, 0.0])
        a_new = field_accel_new(st, table8, params, 0.0)
        L = 10**3
        a_law = field_accel_law(st, table8, params, 0.0, inner_cutoff=L)
        assert np.abs(a_law - a_new).max() < 10.0 / L

    def test_law_default_cutoff_is_16_kmax(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.1, qdot=0.7, Q=[1.0, 0.3], Qdot=[0.2, -0.1])
        assert np.array_equal(field_accel_law(st, table8, params, 0.2),
                              field_accel_law(st, table8, params, 0.2, inner_cutoff=32))

    @pytest.mark.parametrize("cutoff", [0, -5, 2.5, True])
    @pytest.mark.parametrize("entry", ["field_accel_law", "energy", "integrate"])
    def test_law_inner_cutoff_must_be_a_positive_integer(self, table8, entry, cutoff):
        # a cutoff below 1 used to sum an empty Gram term without a word
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.1, qdot=0.7, Q=[1.0, 0.3], Qdot=[0.2, -0.1])
        calls = {
            "field_accel_law": lambda: field_accel_law(st, table8, params, 0.2, inner_cutoff=cutoff),
            "energy": lambda: energy(st, params, table8, variant="law", inner_cutoff=cutoff),
            "integrate": lambda: integrate("law", st, params, table8, 0.1, inner_cutoff=cutoff),
        }
        with pytest.raises(ValueError, match="inner_cutoff"):
            calls[entry]()

    def test_rejects_mismatched_state(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=3)
        with pytest.raises(ValueError):
            field_accel_new(make_state(Q=[1.0]), table8, params, 0.0)

    def test_rejects_nonpositive_position(self):
        with pytest.raises(ValueError):
            make_state(q=-1.0)

    @pytest.mark.parametrize("name", ["q", "qdot", "Q", "Qdot"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_state(self, name, value):
        fields = dict(t=0.0, q=1.0, qdot=0.0, Q=np.zeros(2), Qdot=np.zeros(2))
        fields[name] = value if name in ("q", "qdot") else np.array([0.0, value])
        with pytest.raises(ValueError, match=f"invalid state: {name} must be finite"):
            ClassicalState(**fields)

    @pytest.mark.parametrize("name", ["mass", "length", "omega_m", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_params(self, name, value):
        kwargs = dict(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            MirrorParams(**kwargs)


class TestMirrorAccel:
    def test_equilibrium(self):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=2.0, kmax=1)
        assert mirror_accel(make_state(q=1.0), params) == 0.0

    def test_free_oscillator(self):
        params = MirrorParams(mass=2.0, length=1.0, omega_m=3.0, kmax=2)
        st = make_state(q=1.4, Q=[0.0, 0.0])
        assert mirror_accel(st, params) == pytest.approx(-9.0 * 0.4, rel=1e-12)

    def test_radiation_pressure_pushes_outward(self):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.0, Q=[1.0])
        assert mirror_accel(st, params) == pytest.approx(np.pi**2, rel=1e-14)


class TestEnergy:
    def test_mechanical_only(self, table8):
        params = MirrorParams(mass=2.0, length=1.0, omega_m=3.0, kmax=2)
        st = make_state(q=1.5, qdot=0.4, Q=[0.0, 0.0])
        expected = 0.5 * 2 * 0.4**2 + 0.5 * 2 * 9 * 0.25
        assert energy(st, params, table8) == pytest.approx(expected, rel=1e-14)

    def test_static_mirror_drops_velocity_couplings(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.2, qdot=0.0, Q=[0.3, -0.2], Qdot=[0.1, 0.4])
        k = np.arange(1, 3)
        om2 = (np.pi * k / st.q) ** 2
        expected = 0.5 * (st.q - 1.0) ** 2 + 0.5 * (st.Qdot @ st.Qdot + om2 @ (st.Q**2))
        assert energy(st, params, table8) == pytest.approx(expected, rel=1e-14)

    def test_single_mode_pinned_value(self, table8):
        # 1/2 + pi^2/2 + r_1/2 = 7.204736...
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.0, qdot=1.0, Q=[1.0], Qdot=[0.0])
        assert energy(st, params, table8) == pytest.approx(7.2047, abs=5e-5)
        assert energy(st, params, table8) == pytest.approx(
            0.5 + np.pi**2 / 2 + coef.r_coeff(1) / 2, rel=1e-14
        )

    def test_canonical_split_value_differs(self, table8):
        # same state: canonical-split value carries -r/4 u^2 Q^2 instead of +r/2
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.0, qdot=1.0, Q=[1.0], Qdot=[0.0])
        gap = energy(st, params, table8) - h_canonical(st, params, table8)
        assert gap == pytest.approx(0.75 * coef.r_coeff(1), rel=1e-12)


class TestIntegrate:
    def test_decoupled_simple_harmonic_motion(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        delta = 0.05
        st = make_state(q=1.0 + delta, Q=[0.0, 0.0])
        t_eval = np.linspace(0.0, 4 * np.pi, 201)
        rec = integrate("new", st, params, table8, t_eval[-1], rel_tol=1e-10,
                        abs_tol=1e-12, sample_times=t_eval)
        expected = 1.0 + delta * np.cos(t_eval)
        assert np.abs(rec.y[:, 0] - expected).max() < 1e-8

    def test_energy_conserved_on_variational_flow(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
        st = make_state(q=1.005, Q=[0.02, 0.0, 0.0, 0.0])
        rec = integrate("new", st, params, table8, 10 * 2 * np.pi, rel_tol=1e-10,
                        abs_tol=1e-13, mirror_model="lagrangian")
        drift = np.abs(rec.energy - rec.energy[0]).max() / abs(rec.energy[0])
        assert drift < 1e-9

    def test_canonical_split_diagnostic_drifts_more(self, table8):
        # the non-conserved diagnostic should visibly exceed the energy drift
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.2], Qdot=[0.0])
        rec = integrate("new", st, params, table8, 4 * np.pi, rel_tol=1e-10,
                        abs_tol=1e-13, mirror_model="lagrangian")
        e_drift = np.abs(rec.energy - rec.energy[0]).max()
        h_drift = np.abs(rec.h_canonical - rec.h_canonical[0]).max()
        assert h_drift > 100 * e_drift

    def test_time_reversal(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.01, qdot=0.0, Q=[0.1, 0.05], Qdot=[0.0, 0.0])
        rec = integrate("new", st, params, table8, 6.0, rel_tol=1e-10, abs_tol=1e-12)
        end = rec.state(len(rec.t) - 1)
        back = ClassicalState(t=0.0, q=end.q, qdot=-end.qdot, Q=end.Q, Qdot=-end.Qdot)
        rec2 = integrate("new", back, params, table8, 6.0, rel_tol=1e-10, abs_tol=1e-12)
        final = rec2.state(len(rec2.t) - 1)
        tol = 100 * 1e-10
        assert abs(final.q - st.q) < tol
        assert abs(final.qdot + st.qdot) < tol
        assert np.abs(final.Q - st.Q).max() < tol

    def test_floor_event_stops(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.0, qdot=-0.5, Q=[0.0])
        rec = integrate("new", st, params, table8, 50.0, rel_tol=1e-8, abs_tol=1e-10,
                        q_floor=0.9)
        assert rec.floor_hit
        assert rec.t[-1] < 50.0

    def test_floor_before_the_first_sample_gives_an_empty_record(self, table8):
        # the mirror reaches the floor near t = 0.2, before the first grid point;
        # the record used to be built from a 1-d empty array and raised IndexError
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.0, qdot=-0.5, Q=[0.1, 0.0])
        rec = integrate("law", st, params, table8, 50.0, q_floor=0.9, sample_times=[40.0, 50.0])
        assert rec.floor_hit
        assert rec.t.shape == rec.energy.shape == rec.h_canonical.shape == (0,)
        assert rec.y.shape == (0, 2 + 2 * params.kmax)
        # no dense output ran, so the counts are those of the unsampled run
        assert rec.stats == integrate("law", st, params, table8, 50.0, q_floor=0.9).stats

    def test_adiabatic_invariant_slow_mirror(self):
        # slow mirror, weak field: instantaneous field action stays within 1%
        table = coef.build_table(1)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=0.05, kmax=1)
        st = make_state(q=1.02, Q=[1e-3])
        t_end = 10 * 2 * np.pi / params.omega_m
        rec = integrate("new", st, params, table, t_end, rel_tol=1e-10, abs_tol=1e-13,
                        sample_times=np.linspace(0.0, t_end, 2001))
        q = rec.y[:, 0]
        Q = rec.y[:, 2]
        Qdot = rec.y[:, 3]
        om = np.pi / q
        action = (Qdot**2 + om**2 * Q**2) / (2 * om)
        assert (action.max() - action.min()) / action[0] < 0.01

    def test_tolerance_domain(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        with pytest.raises(ValueError):
            integrate("new", st, params, table8, 1.0, rel_tol=0.5)
        with pytest.raises(ValueError):
            integrate("new", st, params, table8, 1.0, abs_tol=0.0)
        # below 100 eps the error estimate is roundoff; 1e-16 used to run
        # silently at rel_tol = 2.2e-14 while the record said 1e-16
        floor = 100 * np.finfo(float).eps
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        for rel_tol in (1e-16, np.nextafter(floor, 0.0)):
            with pytest.raises(ValueError, match="rel_tol"):
                integrate("new", st, params, table8, 1.0, rel_tol=rel_tol)
            with pytest.raises(ValueError, match="rel_tol"):
                integrate_prescribed("new", motion, st, params, table8, 1.0, rel_tol=rel_tol)
        assert integrate("new", st, params, table8, 0.1, rel_tol=floor).stats.rel_tol == floor

    # non-finite t_end is tested through a CLI subprocess with a timeout: without
    # its validation the solver spins forever, which would hang the suite here
    @pytest.mark.parametrize("t_end", [-1.0, 0.0])
    def test_t_end_domain(self, table8, t_end):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        with pytest.raises(ValueError, match="t_end"):
            integrate("new", st, params, table8, t_end)
        with pytest.raises(ValueError, match="t_end"):
            integrate_prescribed("law", motion, st, params, table8, t_end)

    def test_unknown_variant_and_model(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        with pytest.raises(ValueError):
            integrate("other", st, params, table8, 1.0)
        with pytest.raises(ValueError):
            integrate("new", st, params, table8, 1.0, mirror_model="verlet")

    def test_step_underflow_raises_with_last_state(self):
        # white-box: a finite-time blow-up system forces the step size to zero
        with pytest.raises(_dop853.StepSizeUnderflow, match="step size underflow") as exc:
            _dop853.solve(_blow_up, np.array([1.0, 1.0, 0.0, 0.0]), 1.0, 1e-10, 1e-12)
        assert exc.value.t == pytest.approx(0.5, abs=1e-3)
        assert exc.value.y[0] > 0

    def test_underflow_becomes_stiffness_error_with_the_last_state(self, monkeypatch, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        y0 = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(_dop853.StepSizeUnderflow) as raw:
            _dop853.solve(_blow_up, y0, 1.0, 1e-10, 1e-12)
        monkeypatch.setattr(dynamics, "_rhs", lambda cp, mirror_model: _blow_up)
        with pytest.raises(StiffnessError, match="step size underflow") as exc:
            integrate("new", make_state(q=1.0, qdot=1.0), params, table8, 1.0, rel_tol=1e-10,
                      abs_tol=1e-12)
        last = exc.value.last_state
        assert isinstance(last, ClassicalState)
        assert last.t == raw.value.t
        assert np.array_equal(np.concatenate([[last.q, last.qdot], last.Q, last.Qdot]),
                              raw.value.y)

    @pytest.mark.parametrize("grid", [[], [math.nan], [0.5, math.nan]])
    def test_sample_times_must_be_a_finite_grid(self, table8, grid):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        with pytest.raises(ValueError, match="sample_times"):
            integrate("new", st, params, table8, 1.0, sample_times=grid)
        with pytest.raises(ValueError, match="sample_times"):
            integrate_prescribed("new", motion, st, params, table8, 1.0, sample_times=grid)

    @pytest.mark.parametrize("t0", [5.0, -1.0, math.nan])
    def test_runs_start_at_t_zero(self, table8, t0):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = ClassicalState(t=t0, q=1.01, qdot=0.0, Q=[0.0], Qdot=[0.0])
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        with pytest.raises(ValueError, match=r"state0\.t"):
            integrate("new", st, params, table8, 1.0)
        with pytest.raises(ValueError, match=r"state0\.t"):
            integrate_prescribed("new", motion, st, params, table8, 1.0)

    def test_stats_recorded(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        rec = integrate("new", st, params, table8, 3.0, rel_tol=1e-9, abs_tol=1e-11)
        assert rec.stats.steps == len(rec.t) - 1
        assert rec.stats.rejected_steps >= 0
        assert rec.stats.nfev > rec.stats.steps
        assert rec.stats.rel_tol == 1e-9

    @pytest.mark.parametrize("mirror_model", ["newton", "lagrangian"])
    def test_recorded_diagnostics_equal_state_functions(self, table8, mirror_model):
        # energy() defaults to integrate's law cutoff, 16 * kmax; h_canonical()
        # takes no variant, since the canonical split does not read M
        params = MirrorParams(mass=1.3, length=0.9, omega_m=1.7, c=1.1, kmax=3)
        st = make_state(q=0.93, qdot=0.05, Q=[0.05, -0.02, 0.01], Qdot=[0.0, 0.03, -0.01])
        for variant in ("new", "law"):
            rec = integrate(variant, st, params, table8, 8.0, rel_tol=1e-10, abs_tol=1e-12,
                            mirror_model=mirror_model)
            for i in range(len(rec.t)):
                s = rec.state(i)
                assert rec.h_canonical[i] == h_canonical(s, params, table8)
                assert rec.energy[i] == energy(s, params, table8, variant=variant)


def _reference_rhs(y, g, M, params, mirror_model):
    """The field equation of the dynamics module docstring and the Newton and
    Euler-Lagrange mirror equations, written out term by term."""
    k = params.kmax
    q, qdot, Q, Qdot = y[0], y[1], y[2 : 2 + k], y[2 + k :]
    kk = np.arange(1, k + 1, dtype=float)
    u = qdot / q
    om2 = (params.c * np.pi * kk / q) ** 2
    gQ, MQ = g @ Q, M @ Q
    F = -om2 * Q + u * u * (MQ - gQ) + 2.0 * u * (g @ Qdot)  # field equation at qddot = 0
    spring = -params.mass * params.omega_m**2 * (q - params.length)
    if mirror_model == "newton":
        s = ((-1.0) ** kk * kk) @ Q
        qddot = (spring + (params.c * np.pi / q) ** 2 * s * s / q) / params.mass
    else:
        D = Q @ MQ
        Ddot = 2.0 * (Qdot @ MQ)
        W = om2 @ (Q * Q)
        num = spring + W / q + qdot**2 / q**3 * D - qdot / q**2 * Ddot + (gQ @ F) / q
        qddot = num / (params.mass + (D - gQ @ gQ) / q**2)
    return np.concatenate([[qdot, qddot], Qdot, F + (qddot / q) * gQ])


@pytest.mark.parametrize("variant", ["new", "law"])
@pytest.mark.parametrize("mirror_model", ["newton", "lagrangian"])
def test_rhs_matches_reference_equations(table8, variant, mirror_model):
    kmax = 8
    params = MirrorParams(mass=1.3, length=0.9, omega_m=1.7, c=1.1, kmax=kmax)
    g = table8.g[:kmax, :kmax]
    M = table8.d[:kmax, :kmax] if variant == "new" else coef.gram_matrix(kmax, 16 * kmax)
    rhs = _rhs(_coupling(variant, table8, params, None), mirror_model)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        y = np.concatenate([[rng.uniform(0.5, 1.5), rng.normal(scale=0.3)],
                            rng.normal(scale=0.1, size=kmax), rng.normal(scale=0.3, size=kmax)])
        ref = _reference_rhs(y, g, M, params, mirror_model)
        assert np.abs(rhs(0.0, y) - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("variant", ["new", "law"])
def test_newton_rhs_matches_reference_accelerations(table8, variant):
    # the right-hand side reuses its coupling's buffers: it must equal the public
    # accelerations exactly, and neither its result nor theirs may change later
    kmax = 8
    params = MirrorParams(mass=1.3, length=0.9, omega_m=1.7, c=1.1, kmax=kmax)
    field_accel = field_accel_new if variant == "new" else field_accel_law
    rhs = _rhs(_coupling(variant, table8, params, None), "newton")
    rng = np.random.default_rng(2025)
    results = []
    for _ in range(2):
        y = np.concatenate([[rng.uniform(0.5, 1.5), rng.normal(scale=0.3)],
                            rng.normal(scale=0.1, size=kmax), rng.normal(scale=0.3, size=kmax)])
        state = ClassicalState(t=0.0, q=y[0], qdot=y[1], Q=y[2 : 2 + kmax], Qdot=y[2 + kmax :])
        qddot = mirror_accel(state, params)
        field = field_accel(state, table8, params, qddot)
        f = rhs(0.0, y)
        assert np.array_equal(f, np.concatenate([[state.qdot, qddot], state.Qdot, field]))
        results.append((f, f.copy(), field, field.copy()))
    (f1, f1_kept, field1, field1_kept), (f2, _, _, _) = results
    assert not np.array_equal(f1, f2)
    assert np.array_equal(f1, f1_kept) and np.array_equal(field1, field1_kept)


class TestPrescribed:
    def test_matched_cutoff_gap_shrinks(self):
        params_of = lambda k: MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=k)
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        t_eval = np.linspace(0.0, 2 * 2 * np.pi, 201)
        gaps = []
        for K in (4, 8):
            table = coef.build_table(K)
            Q0 = np.zeros(K)
            Q0[0] = 1.0
            st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=Q0, Qdot=np.zeros(K))
            rec_new = integrate_prescribed("new", motion, st, params_of(K), table,
                                           t_eval[-1], rel_tol=1e-10, abs_tol=1e-12,
                                           sample_times=t_eval)
            rec_law = integrate_prescribed("law", motion, st, params_of(K), table,
                                           t_eval[-1], rel_tol=1e-10, abs_tol=1e-12,
                                           inner_cutoff=K, sample_times=t_eval)
            gaps.append(np.abs(rec_new.y[:, 2:] - rec_law.y[:, 2:]).max())
        assert gaps[1] < gaps[0]

    def test_prescribed_record_layout(self):
        table = coef.build_table(2)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=np.array([1.0, 0.0]),
                            Qdot=np.zeros(2))
        rec = integrate_prescribed("new", motion, st, params, table, 1.0,
                                   rel_tol=1e-9, abs_tol=1e-11)
        assert rec.y.shape[1] == 6
        np.testing.assert_allclose(rec.y[0, 0], motion.q(0.0))
        assert rec.mirror_model == "prescribed"

    def test_law_record_energy_at_matched_cutoff(self):
        table = coef.build_table(2)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        motion = harmonic_mirror_motion(1.0, 0.05, 1.0)
        st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=np.array([1.0, 0.2]), Qdot=np.zeros(2))
        rec = integrate_prescribed("law", motion, st, params, table, 2.0,
                                   rel_tol=1e-9, abs_tol=1e-11, inner_cutoff=params.kmax)
        for i in range(len(rec.t)):
            assert rec.energy[i] == energy(rec.state(i), params, table, variant="law",
                                           inner_cutoff=params.kmax)

    def test_law_default_cutoff_is_16_kmax(self):
        table = coef.build_table(2)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        motion = harmonic_mirror_motion(1.0, 0.05, 1.0)
        st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=np.array([1.0, 0.2]), Qdot=np.zeros(2))
        default, explicit = (
            integrate_prescribed("law", motion, st, params, table, 2.0, rel_tol=1e-9,
                                 abs_tol=1e-11, **cutoff)
            for cutoff in ({}, {"inner_cutoff": 32})
        )
        assert np.array_equal(default.y, explicit.y)

    def test_motion_reaching_the_floor_stops(self):
        # q = 1 + sin t reaches 0 at t = 3 pi / 2, where the field frequencies
        # pi k / q diverge; the run went on without bound instead of stopping
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        motion = harmonic_mirror_motion(1.0, 1.0, 1.0)
        with deadline(10):
            rec = integrate_prescribed("new", motion, make_state(Q=[0.1, 0.0]), params,
                                       coef.build_table(2), 10.0)
        assert rec.floor_hit
        assert rec.y[-1, 0] <= params.length / 100 < rec.y[-2, 0]
        assert rec.t[-1] < 3 * np.pi / 2

    def test_floor_before_the_first_sample_gives_an_empty_record(self):
        # q = 1 + sin t reaches the floor near t = 4.57, before the grid starts
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        args = ("new", harmonic_mirror_motion(1.0, 1.0, 1.0), make_state(Q=[0.1, 0.0]),
                params, coef.build_table(2), 10.0)
        with deadline(10):
            rec = integrate_prescribed(*args, sample_times=[8.0, 10.0])
        assert rec.floor_hit
        assert rec.t.shape == rec.energy.shape == rec.h_canonical.shape == (0,)
        assert rec.y.shape == (0, 2 + 2 * params.kmax)
        assert rec.stats == integrate_prescribed(*args).stats

    def test_step_underflow_reports_the_prescribed_mirror(self):
        # the last state used to read Q_1 as the mirror position, so a negative
        # Q_1 raised "invalid state" instead of StiffnessError
        table = coef.build_table(2)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        motion = MirrorMotion(q=lambda t: 1.0 if t < 0.5 else math.nan,
                              qdot=lambda t: 0.0, qddot=lambda t: 0.0)
        with pytest.raises(StiffnessError) as exc:
            integrate_prescribed("new", motion, make_state(Q=[-0.5, 0.0]), params, table, 1.0)
        last = exc.value.last_state
        assert 0.49 < last.t < 0.5
        assert (last.q, last.qdot, len(last.Q), len(last.Qdot)) == (1.0, 0.0, 2, 2)

    def test_state_mode_count_must_match_kmax(self):
        table = coef.build_table(3)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=3)
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        st = make_state(Q=[1.0, 0.0])
        with pytest.raises(ValueError, match="state holds 2 modes, params.kmax = 3"):
            integrate_prescribed("new", motion, st, params, table, 1.0)


def _scipy_reference(monkeypatch, rhs, y0, t_end, rel_tol, abs_tol, grid=None, event=None):
    """scipy's DOP853 driven on ``rhs`` the way ``_drive_solver`` runs: returns
    (t, y, accepted steps, rejected attempts, nfev), counting every rk_step.
    A step where ``event(y)`` reaches <= 0 ends the run at the crossing,
    located by ``brentq`` on that step's dense output."""
    from scipy.integrate._ivp import rk
    from scipy.optimize import brentq

    attempts = []
    rk_step = rk.rk_step

    def counting_rk_step(*args):
        attempts.append(1)
        return rk_step(*args)

    monkeypatch.setattr(rk, "rk_step", counting_rk_step)
    solver = rk.DOP853(rhs, 0.0, y0, t_bound=t_end, rtol=rel_tol, atol=abs_tol)
    pending = [] if grid is None else list(grid)
    ts, ys = [], []
    if grid is None or pending[0] == 0.0:  # the initial state, not interpolated
        ts, ys, pending = [0.0], [y0], pending[1:]
    steps = 0
    while solver.status == "running":
        solver.step()
        assert solver.status != "failed"
        steps += 1
        dense, end = None, solver.t
        crossed = event is not None and event(solver.y) <= 0
        if crossed:
            dense = solver.dense_output()
            end = brentq(lambda t: event(dense(t)), solver.t_old, solver.t)
        if grid is None:
            ts.append(end)
            ys.append(dense(end) if crossed else solver.y.copy())
        elif pending and pending[0] <= end:
            dense = dense or solver.dense_output()
            while pending and pending[0] <= end:
                ts.append(pending[0])
                ys.append(dense(pending.pop(0)))
        if crossed:
            break
    return np.array(ts), np.array(ys), steps, len(attempts) - steps, solver.nfev


def _assert_matches_reference(rec, ref, fields):
    t, y, steps, rejected, nfev = ref
    assert np.array_equal(rec.t, t)
    assert np.array_equal(rec.y[:, 2:] if fields else rec.y, y)
    assert (rec.stats.steps, rec.stats.rejected_steps, rec.stats.nfev) == (steps, rejected, nfev)


class TestScipyReference:
    """The in-house DOP853 takes scipy's steps bit for bit, with exact counts."""

    def test_tableau_equals_scipy(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        from optomech import _dop853

        A = np.zeros((ref.N_STAGES_EXTENDED, ref.N_STAGES_EXTENDED))
        for s, row in enumerate(_dop853.A):
            A[s, :s] = row
        assert np.array_equal(A, ref.A)
        for name in ("C", "B", "E3", "E5", "D"):
            assert np.array_equal(np.array(getattr(_dop853, name)), getattr(ref, name)), name
        assert _dop853.N_STAGES == ref.N_STAGES

    @pytest.mark.parametrize("sampled", [False, True])
    def test_integrate(self, monkeypatch, sampled):
        table = coef.build_table(4)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
        st = make_state(q=1.005, Q=[0.02, 0.0, 0.0, 0.0])
        t_end = 10 * 2 * np.pi
        grid = np.linspace(0.0, t_end, 201) if sampled else None
        rec = integrate("new", st, params, table, t_end, rel_tol=1e-10, abs_tol=1e-13,
                        mirror_model="lagrangian", sample_times=grid)
        rhs = _rhs(_coupling("new", table, params, None), "lagrangian")
        ref = _scipy_reference(monkeypatch, rhs, rec.y[0], t_end, 1e-10, 1e-13, grid)
        assert rec.stats.rejected_steps > 0
        _assert_matches_reference(rec, ref, fields=False)

    def test_q_floor_stop(self, monkeypatch, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=2)
        st = make_state(q=1.0, qdot=-0.5, Q=[0.1, 0.0])
        grid = np.linspace(0.1, 50.0, 333)
        rec = integrate("law", st, params, table8, 50.0, rel_tol=1e-8, abs_tol=1e-10,
                        q_floor=0.9, sample_times=grid)
        rhs = _rhs(_coupling("law", table8, params, None), "newton")
        y0 = np.concatenate([[st.q, st.qdot], st.Q, st.Qdot])
        ref = _scipy_reference(monkeypatch, rhs, y0, 50.0, 1e-8, 1e-10, grid,
                               event=lambda y: y[0] - 0.9)
        assert rec.floor_hit
        _assert_matches_reference(rec, ref, fields=False)

    @pytest.mark.parametrize("sampled", [False, True])
    def test_integrate_prescribed(self, monkeypatch, sampled):
        K = 8
        table = coef.build_table(K)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=K)
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        Q0 = np.zeros(K)
        Q0[0] = 1.0
        st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=Q0, Qdot=np.zeros(K))
        t_end = 3 * 2 * np.pi
        grid = np.linspace(0.0, t_end, 601) if sampled else None
        rec = integrate_prescribed("law", motion, st, params, table, t_end, rel_tol=1e-10,
                                   abs_tol=1e-12, inner_cutoff=K, sample_times=grid)
        rhs = _prescribed_rhs(_coupling("law", table, params, K), motion)
        ref = _scipy_reference(monkeypatch, rhs, np.concatenate([Q0, np.zeros(K)]), t_end,
                               1e-10, 1e-12, grid)
        assert rec.stats.rejected_steps > 0
        _assert_matches_reference(rec, ref, fields=True)
