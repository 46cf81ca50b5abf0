"""Scalar rates, squeeze parameters, and their scaling structure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech.rates import (
    CavityParams,
    R_EXACT,
    R_PROSE,
    RateSet,
    all_rates,
    base_rates,
    relativistic_rates,
    special_case_frequency,
    squeeze_parameters,
    theta_low_optical,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestBaseRates:
    def test_unit_example(self):
        p = CavityParams(mass=1, length=1, omega_m=1, omega_c=10)
        rs = base_rates(p)
        assert rs.x_zp == 1.0
        assert rs.theta == 1.0
        assert rs.alpha == 10.0
        assert rs.beta == 10.0
        assert rs.gamma == 10.0
        assert rs.g0 == pytest.approx(10 / math.sqrt(2), rel=1e-15)
        assert rs.R == pytest.approx(0.884967, abs=1e-6)

    def test_frequency_scaling(self):
        p1 = CavityParams(mass=1, length=2, omega_m=1, omega_c=5)
        p4 = CavityParams(mass=1, length=2, omega_m=4, omega_c=5)
        r1, r4 = base_rates(p1), base_rates(p4)
        assert r4.theta == pytest.approx(r1.theta / 2, rel=1e-15)
        assert r4.alpha == pytest.approx(r1.alpha / 2, rel=1e-15)
        assert r4.beta == pytest.approx(r1.beta / 4, rel=1e-15)

    def test_long_cavity_decouples(self):
        rs = base_rates(CavityParams(mass=1, length=1e12, omega_m=1, omega_c=1))
        assert max(rs.alpha, rs.beta, rs.gamma, rs.g0) < 1e-10

    def test_prose_convention_flag(self):
        p = CavityParams()
        assert base_rates(p, "prose").R == R_PROSE
        assert base_rates(p, "exact").R == R_EXACT
        with pytest.raises(ValueError):
            base_rates(p, "rounded")

    @given(positive, positive, positive, positive)
    @settings(max_examples=80, deadline=None)
    def test_chain_within_4ulp(self, mass, length, om_m, om_c):
        rs = base_rates(CavityParams(mass=mass, length=length, omega_m=om_m, omega_c=om_c))
        assert abs(rs.beta - rs.theta * rs.alpha) <= 4 * np.spacing(abs(rs.beta))
        assert abs(rs.gamma - rs.theta**2 * rs.alpha) <= 4 * np.spacing(abs(rs.gamma))

    @given(positive, positive, positive, positive)
    @settings(max_examples=40, deadline=None)
    def test_hbar_homogeneity(self, mass, length, om_m, om_c):
        lo = base_rates(CavityParams(mass=mass, length=length, omega_m=om_m, omega_c=om_c, hbar=1.0))
        hi = base_rates(CavityParams(mass=mass, length=length, omega_m=om_m, omega_c=om_c, hbar=2.0))
        for name, degree in (("x_zp", 0.5), ("theta", 0.5), ("alpha", 0.5),
                             ("beta", 1.0), ("gamma", 1.5), ("g0", 0.5)):
            ratio = getattr(hi, name) / getattr(lo, name)
            assert ratio == pytest.approx(2.0**degree, rel=1e-12)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CavityParams(mass=0.0)
        with pytest.raises(ValueError):
            CavityParams(a_amp=-1.0)
        for name in ("mass", "omega_c", "a_amp", "a_phase", "chi0"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    CavityParams(**{name: value})


class TestLinearizedRates:
    def test_no_drive_no_rates(self):
        p = CavityParams(mass=1, length=1, omega_m=1, omega_c=10, a_amp=0.0, b_amp=3.0)
        rs = base_rates(p)
        assert rs.g3 == 0.0 and rs.g4_plus == 0.0 and rs.g4_minus == 0.0
        assert rs.G4_plus == 0.0 and rs.G4_minus == 0.0 and rs.J == 0.0

    def test_zero_mech_phase_kills_minus_branch(self):
        p = CavityParams(mass=2, length=3, omega_m=0.7, omega_c=5, a_amp=1.2,
                         b_amp=4.0, b_phase=0.0)
        rs = base_rates(p)
        assert rs.G4_minus == 0.0
        assert rs.G4_plus == pytest.approx(2 * 4.0 * rs.g4_plus, rel=1e-15)

    def test_quartic_example(self):
        p = CavityParams(mass=1, length=1, omega_m=1, omega_c=10, a_amp=2.0)
        rs = base_rates(p)
        assert rs.g4_plus == pytest.approx(10.0, rel=1e-15)
        assert rs.g4_minus == pytest.approx(0.0885, abs=5e-5)
        assert rs.J == rs.lam == pytest.approx(2 * rs.beta * 2.0, rel=1e-15)
        assert rs.g3 == pytest.approx(rs.g0 * 2.0, rel=1e-15)


class TestSqueeze:
    def test_zero_at_tuned_frequency(self):
        omega_m = 1.7
        p = CavityParams(omega_m=omega_m, omega_c=math.sqrt(R_EXACT) * omega_m)
        res = squeeze_parameters(p, 1.0, 1.0)
        assert res.rho_closed == 0.0
        assert abs(res.rho_arctanh) < 1e-12

    def test_closed_form_value_and_agreement(self):
        p = CavityParams(omega_m=1.0, omega_c=10.0)
        g4p = 1.0
        g4m = R_EXACT * (1.0 / 10.0) ** 2 * g4p
        res = squeeze_parameters(p, g4p, g4m)
        assert res.rho_closed.real == pytest.approx(2.3637, abs=1e-4)
        assert abs(res.rho_arctanh - res.rho_closed) < 1e-12

    def test_phase_moves_imaginary_part_only(self):
        base = CavityParams(omega_m=1.0, omega_c=10.0)
        quarter = CavityParams(omega_m=1.0, omega_c=10.0, a_phase=math.pi / 2)
        r0 = squeeze_parameters(base, 1.0, 0.3)
        r1 = squeeze_parameters(quarter, 1.0, 0.3)
        assert r1.rho_closed.real == r0.rho_closed.real
        assert r1.rho_closed.imag == pytest.approx(-math.pi / 4, rel=1e-15)

    def test_singular_denominator(self):
        with pytest.raises(ValueError):
            squeeze_parameters(CavityParams(), 0.0, 0.0)

    def test_branch_cut_note(self):
        res = squeeze_parameters(CavityParams(), 1.0, 0.0)
        assert res.note is not None
        assert math.isinf(res.rho_arctanh.real)


class TestSpecialCase:
    def test_half_eta(self):
        p = CavityParams(omega_m=1.0)
        assert special_case_frequency(0.5, p) == pytest.approx(0.6652, abs=1e-4)
        assert special_case_frequency(0.5, p, "prose") == pytest.approx(0.689, abs=1e-3)

    def test_unit_eta_inverse(self):
        p = CavityParams(omega_m=2.5)
        assert special_case_frequency(1.0 / R_EXACT, p) == pytest.approx(2.5, rel=1e-15)

    def test_large_eta_is_fast_optics(self):
        p = CavityParams(omega_m=1.0)
        assert special_case_frequency(1e6, p) == pytest.approx(math.sqrt(1e6 * R_EXACT), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            special_case_frequency(0.0, CavityParams())

    def test_nan_eta_is_refused_by_value(self):
        # the guard eta <= 0 let a NaN through, and the frequency came back NaN
        with pytest.raises(ValueError, match="eta must be > 0, got nan"):
            special_case_frequency(math.nan, CavityParams())
        assert special_case_frequency(math.inf, CavityParams()) == math.inf  # the large-eta limit


class TestRelativisticRates:
    def test_transparent_mirror(self):
        p = CavityParams(chi0=0.0, thickness=0.1)
        w, ratio = relativistic_rates(p, 3), base_rates(p).w_over_beta
        assert np.all(w == 0.0) and ratio == 0.0

    def test_infinite_light_speed(self):
        w = relativistic_rates(
            CavityParams(chi0=1.0, thickness=0.01, c=1e12, omega_m=1.0), 2
        )
        assert np.abs(w).max() < 1e-12

    def test_ratio_to_quadratic_rate(self):
        p = CavityParams(chi0=1.0, thickness=0.01, omega_m=1.0, omega_c=1.0, c=1.0, length=1.0)
        ratio = base_rates(p).w_over_beta
        assert ratio == pytest.approx(math.pi * 0.01 / 4.0, rel=1e-12)
        assert ratio == pytest.approx(0.007854, abs=1e-6)

    def test_sqrt_kj_structure_exact(self):
        p = CavityParams(chi0=0.8, thickness=0.02, omega_m=1.3)
        w = relativistic_rates(p, 6)
        kk = np.arange(1, 7)
        expected = np.sqrt(np.outer(kk, kk).astype(float)) * w[0, 0]
        assert np.array_equal(w, expected)

    def test_kmax_domain(self):
        with pytest.raises(ValueError):
            relativistic_rates(CavityParams(), 0)


def test_all_rates_populates_everything():
    p = CavityParams(mass=1, length=1, omega_m=1, omega_c=2, a_amp=1, b_amp=1,
                     b_phase=0.3, chi0=0.5, thickness=0.01)
    rs = all_rates(p, kmax=3)
    assert rs.w.shape == (3, 3)
    assert rs.w_over_beta > 0
    assert rs.g3 is not None and rs.J is not None


@pytest.mark.parametrize("p", [
    CavityParams(),
    CavityParams(mass=2, length=3, omega_m=0.7, omega_c=5, a_amp=1.2, b_amp=4.0, b_phase=0.3),
    CavityParams(mass=1, length=1, omega_m=1, omega_c=2, a_amp=1, a_phase=0.3, b_amp=1,
                 b_phase=0.3, chi0=0.5, thickness=0.01),
    CavityParams(mass=1e-3, length=1e2, omega_m=3e2, omega_c=1e-1, c=3e8, hbar=1e-2,
                 chi0=2.0, thickness=1e-4),
])
@pytest.mark.parametrize("r_convention", ["exact", "prose"])
def test_base_rates_builds_every_scalar_and_all_rates_adds_only_w(p, r_convention):
    # base_rates is the one constructor: no scalar field waits for a later stage
    base = base_rates(p, r_convention)
    scalars = [f.name for f in dataclasses.fields(RateSet) if f.name != "w"]
    assert all(getattr(base, name) is not None for name in scalars)
    assert base.w is None
    for kmax in (1, 4):
        full = all_rates(p, kmax=kmax, r_convention=r_convention)
        assert {name: getattr(full, name) for name in scalars} == \
            {name: getattr(base, name) for name in scalars}
        assert np.array_equal(full.w, relativistic_rates(p, kmax))


def test_theta_low_optical_flagged_scaling():
    p = CavityParams(mass=1, length=2, omega_m=3, omega_c=0.5)
    base = base_rates(p)
    got = theta_low_optical(p)
    assert got == pytest.approx(base.R * 9 * base.x_zp / (0.25 * 2), rel=1e-14)
