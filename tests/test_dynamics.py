"""Classical mirror-field dynamics: accelerations, energies, integration."""

import math

import numpy as np
import pytest
import scipy.integrate._ivp.rk as scipy_rk

from optomech import coefficients as coef
from optomech.dynamics import (
    ClassicalState,
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
from optomech.dynamics import _coupling, _rhs


@pytest.fixture(scope="module")
def table8():
    return coef.build_table(8)


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
        from optomech.dynamics import _drive_solver

        def rhs(t, y):
            return np.array([y[1], y[1] ** 3, 0.0, 0.0])

        with pytest.raises(StiffnessError) as exc:
            _drive_solver(rhs, np.array([1.0, 1.0, 0.0, 0.0]), 1.0, 1e-10, 1e-12,
                          None, None)
        assert exc.value.last_state.t == pytest.approx(0.5, abs=1e-3)
        assert exc.value.last_state.q > 0

    def test_stats_recorded(self, table8):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
        st = make_state(q=1.01, Q=[0.0])
        rec = integrate("new", st, params, table8, 3.0, rel_tol=1e-9, abs_tol=1e-11)
        assert rec.stats.steps == len(rec.t) - 1
        assert rec.stats.rejected_steps >= 0
        assert rec.stats.nfev > rec.stats.steps
        assert rec.stats.rel_tol == 1e-9

    @pytest.mark.parametrize("sampled", [False, True])
    def test_step_counts_match_solver_attempts(self, monkeypatch, sampled):
        # the rejected-step count is inferred from nfev through the DOP853 cost
        # model; count the solver's actual step attempts and compare
        attempts = []
        rk_step = scipy_rk.rk_step

        def counting_rk_step(*args, **kwargs):
            attempts.append(1)
            return rk_step(*args, **kwargs)

        monkeypatch.setattr(scipy_rk, "rk_step", counting_rk_step)
        table = coef.build_table(4)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
        st = make_state(q=1.005, Q=[0.02, 0.0, 0.0, 0.0])
        t_end = 10 * 2 * np.pi
        grid = np.linspace(0.0, t_end, 201) if sampled else None
        rec = integrate("new", st, params, table, t_end, rel_tol=1e-10, abs_tol=1e-13,
                        mirror_model="lagrangian", sample_times=grid)
        assert rec.stats.rejected_steps > 0
        assert rec.stats.steps + rec.stats.rejected_steps == len(attempts)

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

    def test_state_mode_count_must_match_kmax(self):
        table = coef.build_table(3)
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=3)
        motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
        st = make_state(Q=[1.0, 0.0])
        with pytest.raises(ValueError, match="state holds 2 modes, params.kmax = 3"):
            integrate_prescribed("new", motion, st, params, table, 1.0)
