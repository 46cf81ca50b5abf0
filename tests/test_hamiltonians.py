"""Hamiltonian variant builders: structure, decomposition, and cross-identities."""

import cmath
import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from optomech import fock
from optomech import hamiltonians as ham
from optomech.config import SI_C, SI_HBAR
from optomech.rates import CavityParams, base_rates

P_WEAK = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0,
                      a_amp=1.0, b_amp=1.0, b_phase=math.pi / 4,
                      chi0=1.0, thickness=1.0)


@pytest.fixture(scope="module")
def ops8():
    return fock.make_space(8, 8)


def variant_builds(params, space, ops):
    out = {}
    for v in ham.VARIANTS:
        kw = {"eta": 0.5} if v == "H4_special_eta" else {}
        out[v] = ham.build_hamiltonian(v, params, space, **kw)
    return out


class TestStructure:
    def test_all_variants_hermitian(self, ops8):
        space, ops = ops8
        params = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0,
                              a_amp=0.7, a_phase=0.4, b_amp=1.3, b_phase=0.8,
                              chi0=1.0, thickness=1.0)
        for name, H in variant_builds(params, space, ops).items():
            scale = max(1.0, float(np.abs(H.data).max()))
            assert H.hermiticity_defect() <= 1e-12 * scale, name

    def test_unknown_variant(self, ops8):
        space, _ = ops8
        with pytest.raises(ValueError):
            ham.build_hamiltonian("H99", P_WEAK, space)

    def test_unused_options_rejected(self, ops8):
        # H3 took order and law_full r_convention and both ignored them
        space, _ = ops8
        for variant, options in (("H012", {"eta": 2.0}), ("H3", {"order": 2}),
                                 ("law_full", {"r_convention": "prose"})):
            with pytest.raises(TypeError):
                ham.build_hamiltonian(variant, P_WEAK, space, **options)

    def test_non_finite_build_raises(self, monkeypatch, nan_bogoliubov_builder):
        space, _ = fock.make_space(3, 3)
        monkeypatch.setitem(ham.BUILDERS, "H4_bogoliubov_form", nan_bogoliubov_builder)
        with pytest.raises(ArithmeticError, match="H4_bogoliubov_form .* non-finite"):
            ham.build_hamiltonian("H4_bogoliubov_form", P_WEAK, space)

    def test_single_optical_mode_required(self):
        # each term lists one optical factor, which a two-mode space refuses
        space, _ = fock.make_space(4, 4, n_modes_opt=2)
        for variant in ham.VARIANTS:
            if variant == "delta_relativistic":  # one factor per mode
                continue
            options = {"eta": 0.5} if variant == "H4_special_eta" else {}
            with pytest.raises(ValueError, match=f"the {variant} Hamiltonian .* 2 optical mode"):
                ham.build_hamiltonian(variant, P_WEAK, space, **options)


def kron_sum(ops, terms, scale=None):
    """Reference for ``ModeOperators.assemble``: the sum over terms of
    np.kron(mechanical factor, nested np.kron of the optical factors), times
    ``scale`` when given."""
    acc = np.zeros((ops.space.dim,) * 2, dtype=complex)
    for mech, *opt in terms:
        optical = functools.reduce(np.kron, [ops.opt.eye if f is None else f for f in opt])
        acc = acc + np.kron(ops.mech.eye if mech is None else mech, optical)
    return fock.OperatorMatrix(ops.space, acc if scale is None else acc * scale)


class TestAssembly:
    @pytest.mark.parametrize("variant", ham.VARIANTS)
    @pytest.mark.parametrize("omega_c", [2.0, 1.0])  # generic, and degenerate omega_m = omega_c
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.4, 0.8)])
    def test_every_variant_matches_kron_sum(self, monkeypatch, variant, omega_c, phases):
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=omega_c,
                         a_amp=0.7, a_phase=phases[0], b_amp=1.3, b_phase=phases[1],
                         chi0=1.0, thickness=1.0)
        space = fock.FockSpace(6, 7)  # unequal cutoffs catch a swapped reshape
        options = {"new_full": {"order": 2}, "law_full": {"order": 2},
                   "H4_special_eta": {"eta": 0.7}}.get(variant, {})
        H = ham.build_hamiltonian(variant, p, space, **options).data
        monkeypatch.setattr(fock.ModeOperators, "assemble", kron_sum)
        ref = ham.build_hamiltonian(variant, p, space, **options).data
        assert np.abs(H - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_two_optical_modes_equal_nested_kron_exactly(self, monkeypatch):
        _, ops = fock.make_space(6, 5, n_modes_opt=2)
        p = CavityParams(mass=1.0, length=1.0, omega_m=1.0, omega_c=1.0, chi0=1.0, thickness=0.1)
        H = ham.delta_relativistic(p, ops).data
        assert np.abs(H).max() > 0.0
        monkeypatch.setattr(fock.ModeOperators, "assemble", kron_sum)
        assert np.array_equal(H, ham.delta_relativistic(p, ops).data)

    def test_new_full_build_holds_one_dense_matrix(self):
        # summing D x D Kronecker products peaked at 4.0 dense matrices
        space = fock.FockSpace(32, 32)
        tracemalloc.start()
        try:
            ham.build_hamiltonian("new_full", P_WEAK, space, order=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * space.dim**2


class TestFreeAndCubic:
    def test_free_spectrum_is_harmonic_ladder(self, ops8):
        space, ops = ops8
        H = ham.h012(P_WEAK, ops)
        vals = fock.spectrum(H, 6)
        om, Om = P_WEAK.omega_c, P_WEAK.omega_m
        expected = sorted(
            Om * (nb + 0.5) + om * (na + 0.5) for nb in range(4) for na in range(4)
        )[:6]
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    def test_cubic_matrix_elements(self):
        space, ops = fock.make_space(8, 8)
        rs = base_rates(P_WEAK)
        H = ham.h3(P_WEAK, ops)
        for nb in range(5):
            for na in range(5):
                row = (nb + 1) * 8 + na
                col = nb * 8 + na
                expected = -P_WEAK.hbar * rs.alpha * (na + 0.5) * math.sqrt(nb + 1) / math.sqrt(2)
                assert H.data[row, col] == pytest.approx(expected, rel=1e-13)

    def test_cubic_linearization_by_displacement(self):
        # conjugating the cubic term by the optical displacement and removing
        # the classical force renormalization leaves the drive-quadrature form
        space, ops = fock.make_space(8, 40, dim_cap=8192)
        amp = 0.4 * np.exp(1j * 0.7)
        params = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0,
                              a_amp=abs(amp), a_phase=float(np.angle(amp)))
        rs = base_rates(params)
        H3 = ham.h3(params, ops)
        D = fock.displacement(ops, amp)
        conj = D.conj().T @ H3.data @ D
        residual = conj - H3.data - (-params.hbar * rs.alpha * abs(amp) ** 2) * ops.x
        target = ham.h3_linear_optical(params, ops).data
        idx = [b * 40 + a for b in range(8) for a in range(12)]
        diff = (residual - target)[np.ix_(idx, idx)]
        assert np.abs(diff).max() < 1e-10


class TestQuarticAndQuintic:
    def test_quartic_two_pieces(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        H = ham.h4(P_WEAK, ops)
        pos_piece = 0.5 * P_WEAK.hbar * rs.beta * ops.x @ ops.x @ (ops.p @ ops.p + ops.q @ ops.q)
        mom_piece = H.data - pos_piece
        expected = -0.5 * P_WEAK.hbar * rs.beta * rs.R * (P_WEAK.omega_m / P_WEAK.omega_c) ** 2 \
            * (ops.p_mech @ ops.p_mech) @ (ops.q @ ops.q)
        assert np.abs(mom_piece - expected).max() < 1e-15

    def test_quartic_position_piece_counts_photons(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        lhs = fock.interior_block(
            0.5 * P_WEAK.hbar * rs.beta * ops.x @ ops.x @ (ops.p @ ops.p + ops.q @ ops.q), space
        )
        rhs = fock.interior_block(
            P_WEAK.hbar * rs.beta * ops.x @ ops.x @ (ops.n_op + 0.5 * ops.identity), space
        )
        assert np.abs(lhs - rhs).max() < 1e-15

    def test_quintic_matches_momentum_expansion_increment(self, ops8):
        # the order-1 increment of the momentum term is the quintic momentum piece
        space, ops = ops8
        rs = base_rates(P_WEAK)
        inc = ham.momentum_coupling_term(P_WEAK, ops, order=1).data \
            - ham.momentum_coupling_term(P_WEAK, ops, order=0).data
        sym_ppx = fock.symmetrize_matrices([ops.p_mech, ops.p_mech, ops.x],
                                           labels=["p", "p", "x"])
        quintic_mom = P_WEAK.hbar * rs.gamma * rs.R * (P_WEAK.omega_m / P_WEAK.omega_c) ** 2 \
            * sym_ppx @ (ops.q @ ops.q)
        assert np.abs(inc - quintic_mom).max() < 1e-18

    def test_quintic_builder_consistency(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        H5 = ham.h5(P_WEAK, ops)
        sym_ppx = fock.symmetrize_matrices([ops.p_mech, ops.p_mech, ops.x],
                                           labels=["p", "p", "x"])
        want = P_WEAK.hbar * rs.gamma * (
            rs.R * (P_WEAK.omega_m / P_WEAK.omega_c) ** 2 * sym_ppx @ (ops.q @ ops.q)
            - ops.x @ ops.x @ ops.x @ (ops.n_op + 0.5 * ops.identity)
        )
        assert np.abs(H5.data - want).max() == 0.0


class TestFullBuilds:
    def test_difference_is_momentum_term(self, ops8):
        space, ops = ops8
        for order in (0, 1, 2):
            new = ham.new_full(P_WEAK, ops, order=order)
            law = ham.law_full(P_WEAK, ops, order=order)
            mom = ham.momentum_coupling_term(P_WEAK, ops, order=order)
            assert np.abs(new.data - law.data - mom.data).max() < 1e-13

    def test_order_zero_reduces_to_free_plus_quartic_momentum(self, ops8):
        space, ops = ops8
        new = ham.new_full(P_WEAK, ops, order=0)
        free = ham.h012(P_WEAK, ops)
        mom0 = ham.momentum_coupling_term(P_WEAK, ops, order=0)
        assert np.abs(new.data - free.data - mom0.data).max() < 1e-14

    def test_order_one_carries_the_cubic_term(self, ops8):
        # the mech-level-changing element of the order-1 build is the cubic
        # interaction, up to relative theta^2 truncation spillover
        space, ops = ops8
        increment = ham.law_full(P_WEAK, ops, order=1).data - ham.law_full(P_WEAK, ops, order=0).data
        rs = base_rates(P_WEAK)
        h3_quadrature = -0.5 * P_WEAK.hbar * rs.alpha * ops.x @ (ops.p @ ops.p + ops.q @ ops.q)
        got = increment[1 * 8 + 0, 0]  # <b=1, a=0| . |b=0, a=0>
        want = h3_quadrature[1 * 8 + 0, 0]
        assert got == pytest.approx(want, rel=1e-3)
        assert abs(got / want - 1.0) > 0.0  # higher orders present but small

    def test_order_two_builds_match_product_space_formula(self):
        # the full builds written out with product-space operators: dressing
        # series of (1+u)^{-1/2}, (1+u)^{+1/2}, (1+u)^{-2} in u = theta X, and
        # the momentum term over S{P_mech^2}, S{P_mech^2 X}, S{P_mech^2 X^2}
        space, ops = fock.make_space(16, 16)
        p = CavityParams(mass=1.0, length=10.0, omega_m=1.0, omega_c=2.0)
        rs = base_rates(p)
        eye, u = ops.identity, rs.theta * ops.x
        f_p = eye - 0.5 * u + 0.375 * u @ u
        f_q = eye + 0.5 * u - 0.125 * u @ u
        g_w = eye - 2.0 * u + 3.0 * u @ u
        pm, x, q = ops.p_mech, ops.x, ops.q
        law = 0.5 * p.hbar * p.omega_m * (pm @ pm + x @ x) \
            + 0.5 * p.hbar * p.omega_c * (f_p @ f_p @ ops.p @ ops.p + g_w @ f_q @ f_q @ q @ q)
        sym = (
            fock.symmetrize_matrices([pm, pm], labels="pp")
            - 2.0 * rs.theta * fock.symmetrize_matrices([pm, pm, x], labels="ppx")
            + 3.0 * rs.theta**2 * fock.symmetrize_matrices([pm, pm, x, x], labels="ppxx")
        )
        mom = -0.5 * p.hbar * rs.beta * rs.R * (p.omega_m / p.omega_c) ** 2 * sym @ q @ q
        for variant, want in (("law_full", law), ("new_full", law + mom)):
            got = ham.build_hamiltonian(variant, p, space, order=2).data
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), variant

    def test_printed_quadratic_flag_changes_spectrum(self, ops8):
        space, ops = ops8
        taylor = ham.law_full(P_WEAK, ops, order=2)
        printed = ham.law_full(P_WEAK, ops, order=2, printed_quadratic=True)
        dv = np.abs(fock.spectrum(taylor, 4) - fock.spectrum(printed, 4)).max()
        assert dv > 0.0

    def test_ground_state_shift_matches_perturbation(self):
        space, ops = fock.make_space(10, 10)
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0)
        rs = base_rates(p)
        shift = fock.spectrum(ham.new_full(p, ops), 1)[0] - fock.spectrum(ham.law_full(p, ops), 1)[0]
        pert = -(p.hbar * rs.beta / 2) * rs.R * (p.omega_m / p.omega_c) ** 2 * 0.25
        assert shift < 0
        assert abs(shift / pert - 1.0) < 0.1
        assert ham.ground_shift_estimate(p) == pert
        assert ham.ground_shift_estimate(p, "prose") == pytest.approx(pert * 0.95 / rs.R, rel=1e-14)


class TestLinearized:
    def test_no_drive_vanishes(self, ops8):
        space, ops = ops8
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0, a_amp=0.0)
        assert np.abs(ham.h3_linear_optical(p, ops).data).max() == 0.0
        assert np.abs(ham.h4_linear_optical(p, ops).data).max() == 0.0

    def test_printed_plus_branch_formula(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        H = ham.h4_linear_optical(P_WEAK, ops, branch="plus")
        bb = ops.bdag + ops.b
        want = P_WEAK.hbar * rs.g4_plus * bb @ bb @ (ops.adag + ops.a)
        assert np.abs(H.data - want).max() < 1e-16

    def test_printed_minus_branch_formula(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        H = ham.h4_linear_optical(P_WEAK, ops, branch="minus")
        bb = ops.bdag - ops.b
        want = P_WEAK.hbar * rs.g4_minus * bb @ bb @ (ops.adag + ops.a)
        assert np.abs(H.data - want).max() < 1e-16

    def test_mechanical_branches(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        Hp = ham.h4_linear_mechanical(P_WEAK, ops, branch="plus")
        want = P_WEAK.hbar * rs.G4_plus * (ops.bdag + ops.b) @ (ops.adag + ops.a)
        assert np.abs(Hp.data - want).max() < 1e-16
        Hm = ham.h4_linear_mechanical(P_WEAK, ops, branch="minus")
        want = P_WEAK.hbar * rs.G4_minus * (ops.bdag - ops.b) @ (ops.adag + ops.a)
        assert np.abs(Hm.data - want).max() < 1e-16

    @pytest.mark.parametrize("variant, options", [
        ("H4_linear_optical", {"branch": "minus"}),
        ("H4_linear_mechanical", {"branch": "minus"}),
        ("H4_bogoliubov_form", {}),
    ])
    def test_r_convention_reaches_builders_that_use_R(self, ops8, variant, options):
        space, _ = ops8
        exact = ham.build_hamiltonian(variant, P_WEAK, space, r_convention="exact", **options)
        prose = ham.build_hamiltonian(variant, P_WEAK, space, r_convention="prose", **options)
        assert np.abs(exact.data).max() > 0.0
        assert np.abs(prose.data - exact.data).max() > 1e-3 * np.abs(exact.data).max()

    def test_branch_validation(self, ops8):
        _, ops = ops8
        with pytest.raises(ValueError):
            ham.h4_linear_optical(P_WEAK, ops, branch="sideways")
        with pytest.raises(ValueError):
            ham.h4_linear_optical(P_WEAK, ops, branch="minus", convention="special_case")
        with pytest.raises(ValueError):
            ham.h4_linear_optical(P_WEAK, ops, convention="imagined")


class TestSpecialCase:
    def test_phonon_number_block_vanishes_at_half(self, ops8):
        space, ops = ops8
        rs = base_rates(P_WEAK)
        H = ham.h4_special_eta(P_WEAK, ops, eta=0.5)
        J = 2.0 * rs.beta * P_WEAK.a_amp
        b2 = ops.bdag @ ops.bdag + ops.b @ ops.b
        want = 2.0 * P_WEAK.hbar * J * b2 @ (ops.adag + ops.a)
        assert np.abs(H.data - want).max() < 1e-12
        # the phonon-number block itself: project onto m-diagonal difference
        probe = ham.h4_special_eta(P_WEAK, ops, eta=0.49)
        assert np.abs(probe.data - want).max() > 1e-4

    def test_large_eta_reaches_fast_optics_limit(self, ops8):
        space, ops = ops8
        big = ham.h4_special_eta(P_WEAK, ops, eta=1e6)
        limit = ham.h4_linear_optical(P_WEAK, ops, branch="plus", convention="special_case")
        assert np.abs(big.data - limit.data).max() < 1e-4

    def test_eta_domain(self, ops8):
        _, ops = ops8
        with pytest.raises(ValueError):
            ham.h4_special_eta(P_WEAK, ops, eta=0.0)


def arctanh_bogoliubov(params, ops):
    """hbar G4 (a B^dag + a^dag B) built as written: rho = arctanh of the
    squeeze ratio, G4 = sqrt(G4+ G4-) and B = b^dag cosh rho + b sinh rho.
    Defined where G4+ G4- > 0."""
    rs = base_rates(params)
    G4p, G4m = rs.G4_plus, rs.G4_minus
    ph = cmath.exp(1j * params.a_phase)
    rho = np.arctanh((G4p - G4m * ph) / (G4p + G4m * ph))
    B = params.hbar * math.sqrt(G4p * G4m) * (ops.mech.adag * np.cosh(rho)
                                              + ops.mech.a * np.sinh(rho))
    return ops.assemble([(B.conj().T, ops.opt.a), (B, ops.opt.adag)]).data


class TestBogoliubovForm:
    @pytest.mark.parametrize("b_phase", [0.0, 0.3, 2.0, 3.6, 5.5])  # G4+, G4- in each quadrant
    def test_quadrature_identity_real_mixing(self, ops8, b_phase):
        # hbar G4 (a B^dag + a^dag B) equals
        # (hbar/2)[G4+ (b^dag+b)(a^dag+a) + G4- (b^dag-b)(a^dag-a)] at phi = 0
        space, ops = ops8
        p = dataclasses.replace(P_WEAK, b_phase=b_phase)
        rs = base_rates(p)
        H = ham.h4_bogoliubov_form(p, ops)
        want = 0.5 * p.hbar * (
            rs.G4_plus * (ops.bdag + ops.b) @ (ops.adag + ops.a)
            + rs.G4_minus * (ops.bdag - ops.b) @ (ops.adag - ops.a)
        )
        assert np.abs(H.data - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("a_phase", [0.0, 0.4, math.pi, -math.pi, 3 * math.pi, 7.0])
    @pytest.mark.parametrize("b_phase", [0.3, math.pi / 4, 1.2])
    def test_matches_arctanh_construction(self, ops8, a_phase, b_phase):
        _, ops = ops8
        p = dataclasses.replace(P_WEAK, a_phase=a_phase, b_phase=b_phase)
        rs = base_rates(p)
        assert rs.G4_plus > 0.0 and rs.G4_minus > 0.0
        want = arctanh_bogoliubov(p, ops)
        H = ham.h4_bogoliubov_form(p, ops)
        assert np.abs(H.data - want).max() <= 1e-14 * np.abs(want).max()

    def test_vanishing_minus_rate_leaves_the_plus_quadrature(self, ops8):
        # the build was the zero matrix whenever G4+ G4- <= 0
        _, ops = ops8
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0,
                         a_amp=1.0, b_amp=1.0, b_phase=0.0)  # sin(0) kills G4-
        rs = base_rates(p)
        assert rs.G4_minus == 0.0
        H = ham.h4_bogoliubov_form(p, ops)
        want = 0.5 * p.hbar * rs.G4_plus * (ops.bdag + ops.b) @ (ops.adag + ops.a)
        assert np.abs(H.data).max() > 0.0
        assert np.abs(H.data - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.4, 0.8), (2.5, 3.6), (-2.9, 5.5)])
    def test_exactly_hermitian(self, ops8, phases):
        _, ops = ops8
        p = dataclasses.replace(P_WEAK, a_phase=phases[0], b_phase=phases[1])
        H = ham.h4_bogoliubov_form(p, ops)
        assert np.abs(H.data).max() > 0.0
        assert H.hermiticity_defect() == 0.0

    def test_si_config_builds(self):
        # at omega_c/omega_m = 1e9 the squeeze ratio's arctanh argument rounds
        # to exactly 1, so the arctanh construction cannot be evaluated there
        space, _ = fock.make_space(3, 3)
        p = CavityParams(mass=1e-9, length=1e-3, omega_m=1e6, omega_c=1e15, c=SI_C, hbar=SI_HBAR,
                         a_amp=10.0, b_amp=1.0, b_phase=0.7)
        H = ham.build_hamiltonian("H4_bogoliubov_form", p, space)
        assert np.isfinite(H.data).all()
        assert np.abs(H.data).max() > 0.0


class TestRelativistic:
    def test_transparent_mirror_gives_zero(self, ops8):
        space, ops = ops8
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0, chi0=0.0)
        assert np.abs(ham.delta_relativistic(p, ops).data).max() == 0.0

    def test_half_rule_and_sum(self, ops8):
        space, ops = ops8
        d1 = ham.delta_relativistic_first(P_WEAK, ops)
        d2 = ham.delta_relativistic_second(P_WEAK, ops)
        total = ham.delta_relativistic(P_WEAK, ops)
        assert np.abs(d2.data + 0.5 * d1.data).max() == 0.0
        assert np.abs(d1.data + d2.data - total.data).max() < 1e-16

    def test_vanishes_at_infinite_light_speed(self, ops8):
        space, ops = ops8
        p = CavityParams(mass=1.0, length=1.0, omega_m=1.0, omega_c=1.0,
                         chi0=1.0, thickness=0.002, c=1e12)
        assert np.abs(ham.delta_relativistic(p, ops).data).max() < 1e-12

    def test_two_optical_modes_cross_coupling(self):
        space, ops = fock.make_space(4, 4, n_modes_opt=2)
        p = CavityParams(mass=1.0, length=1.0, omega_m=1.0, omega_c=1.0,
                         chi0=1.0, thickness=0.1)
        H = ham.delta_relativistic(p, ops)
        scale = max(1.0, float(np.abs(H.data).max()))
        assert H.hermiticity_defect() <= 1e-12 * scale
        # cross block: one photon moving from mode 2 to mode 1 with b^dag^2
        from optomech.rates import relativistic_rates
        w = relativistic_rates(p, 2)
        assert w[0, 1] == pytest.approx(math.sqrt(2.0) * w[0, 0], rel=1e-15)
        i_from = 0 * 16 + 0 * 4 + 1  # |b=0, a1=0, a2=1>
        i_to = 2 * 16 + 1 * 4 + 0    # |b=2, a1=1, a2=0>
        assert abs(H.data[i_to, i_from]) > 0.0

    def test_three_optical_modes_rejected(self):
        space, ops = fock.make_space(2, 2, n_modes_opt=3)
        with pytest.raises(ValueError):
            ham.delta_relativistic(P_WEAK, ops)
