"""Fock-space construction, symmetrization, and operator identities."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optomech import _krylov, fock
from optomech import hamiltonians as ham
from optomech.config import SI_C, SI_HBAR
from optomech.rates import CavityParams


@pytest.fixture(scope="module")
def space16():
    return fock.make_space(16, 16)


def _si_new_full():
    """``new_full`` at 8 x 8 for a 1 ug mirror in a 1 mm cavity, in SI units."""
    p = CavityParams(mass=1e-9, length=1e-3, omega_m=1e6, omega_c=1e15, c=SI_C, hbar=SI_HBAR,
                     a_amp=10.0, b_amp=1.0, b_phase=0.7)
    return ham.build_hamiltonian("new_full", p, fock.make_space(8, 8)[0])


class TestLadder:
    def test_matrix_elements(self):
        a = fock.destroy(4)
        assert a[0, 1] == 1.0
        assert a[1, 2] == pytest.approx(np.sqrt(2.0), rel=0)
        assert np.all(a[:, 0] == 0.0)

    def test_cutoff_and_cap_validation(self):
        with pytest.raises(ValueError):
            fock.make_space(1, 8)
        with pytest.raises(ValueError):
            fock.make_space(80, 80)  # 6400 > default cap
        space, _ = fock.make_space(80, 8, dim_cap=8192)
        assert space.dim == 640

    def test_quadrature_commutator_interior(self, space16):
        space, ops = space16
        comm = fock.commutator(ops.q, ops.p)
        block = fock.interior_block(comm, space, margin=1)
        eye = np.eye(block.shape[0])
        assert np.abs(block - 1j * eye).max() < 1e-13

    def test_quadrature_sum_is_number_operator(self, space16):
        space, ops = space16
        lhs = fock.interior_block(ops.p @ ops.p + ops.q @ ops.q, space)
        rhs = fock.interior_block(2 * ops.n_op + ops.identity, space)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_mech_optical_commute(self, space16):
        _, ops = space16
        assert np.abs(fock.commutator(ops.x, ops.q)).max() == 0.0

    def test_make_space_holds_only_single_mode_factors(self):
        tracemalloc.start()
        try:
            fock.make_space(32, 32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_lift_places_factors_in_kron_order(self):
        space, ops = fock.make_space(3, 4, n_modes_opt=2)
        m, o = ops.mech, ops.opt
        assert np.array_equal(ops.lift(), np.eye(space.dim))
        assert np.array_equal(ops.lift(m.x), np.kron(np.kron(m.x, o.eye), o.eye))
        assert np.array_equal(ops.lift(None, None, o.a), ops.a_modes[1])
        assert np.array_equal(ops.lift(m.n, o.x), np.kron(np.kron(m.n, o.x), o.eye))
        with pytest.raises(ValueError):
            ops.lift(None, o.a, o.a, o.a)

    def test_assemble_of_no_terms_is_zero(self):
        space, ops = fock.make_space(3, 4, n_modes_opt=2)
        zero = ops.assemble([])
        assert isinstance(zero, fock.OperatorMatrix) and zero.space == space
        assert zero.data.shape == (space.dim, space.dim) and zero.data.dtype == complex
        assert not zero.data.any()

    def test_assemble_equals_sum_of_lifts(self):
        # terms that share optical entries are summed in term order
        _, ops = fock.make_space(3, 4, n_modes_opt=2)
        m, o = ops.mech, ops.opt
        terms = [(m.x, o.a, None), (None, o.n, o.x), (m.n, None, None),
                 (0.3j * m.a, None, o.adag @ o.adag)]
        assert np.array_equal(ops.assemble(terms).data, sum(ops.lift(*t) for t in terms))

    @pytest.mark.parametrize("term", [(None,), (None, None), (None, None, None, None)],
                             ids=["0", "1", "3"])
    def test_assemble_takes_one_factor_per_optical_mode(self, term):
        # lift pads a missing trailing factor with the identity; assemble does not
        _, ops = fock.make_space(3, 4, n_modes_opt=2)
        with pytest.raises(ValueError, match=f"{len(term) - 1} optical factor.* 2 optical mode"):
            ops.assemble([(ops.mech.x, None, None), term])

    # the 5-level cases keep their ids "1" and "2"
    @pytest.mark.parametrize("n_modes_opt, n_opt", [(1, 5), (2, 5), (1, 8), (2, 8), (1, 16),
                                                    (1, 64)],
                             ids=["1", "2", "1-n8", "2-n8", "1-n16", "1-n64"])
    def test_dense_optical_factor_equals_nested_kron(self, n_modes_opt, n_opt):
        from scipy.linalg import expm

        _, ops = fock.make_space(4, n_opt, n_modes_opt=n_modes_opt)
        eye = ops.opt.eye
        first_mode = slice(0, n_opt**n_modes_opt, n_opt ** (n_modes_opt - 1))  # the others at 0
        for amp in (0.6 - 0.3j, 1.5 + 1.6j, 2.2j):
            generator = amp * ops.opt.adag - np.conj(amp) * ops.opt.a
            w, V = np.linalg.eigh(1j * generator)
            dense = (V * np.exp(-1j * w)) @ V.conj().T
            assert np.count_nonzero(dense) == dense.size
            optical = dense if n_modes_opt == 1 else np.kron(dense, eye)
            assert np.array_equal(fock.displacement(ops, amp), np.kron(ops.mech.eye, optical))
            # the single-mode factor against the Pade exponential, and as a unitary
            inverse = fock.displacement(ops, -amp)[first_mode, first_mode]
            assert np.abs(dense - expm(generator)).max() < 1e-13
            assert np.abs(dense @ dense.conj().T - eye).max() < 1e-13
            assert np.abs(dense @ inverse - eye).max() < 1e-13

    def test_two_optical_modes(self):
        space, ops = fock.make_space(4, 4, n_modes_opt=2)
        assert space.dim == 64
        assert len(ops.a_modes) == 2
        assert np.abs(fock.commutator(ops.a_modes[0], ops.a_modes[1])).max() == 0.0
        comm = fock.commutator(ops.a_modes[1], ops.adag_modes[1])
        block = fock.interior_block(comm, space, margin=1)
        assert np.abs(block - np.eye(block.shape[0])).max() < 1e-13


class TestSymmetrize:
    def test_commuting_factors_give_plain_product(self, space16):
        _, ops = space16
        got = fock.symmetrize_matrices([ops.x, ops.q], labels=["x", "q"])
        assert np.abs(got - ops.x @ ops.q).max() < 1e-14

    def test_three_term_expansion_exact(self):
        space, ops = fock.make_space(8, 8)
        got = fock.symmetrize_matrices([ops.p, ops.p, ops.x], labels=["p", "p", "x"])
        want = (ops.p @ ops.p @ ops.x + ops.p @ ops.x @ ops.p + ops.x @ ops.p @ ops.p) / 3.0
        assert np.array_equal(got, want)

    def test_multiset_weighting_matches_naive_average(self):
        _, ops = fock.make_space(6, 6)
        facs = [ops.p_mech, ops.p_mech, ops.x, ops.x]
        labels = ["p", "p", "w", "w"]
        assert len(set(itertools.permutations(labels))) == 6
        multi = fock.symmetrize_matrices(facs, labels=labels)
        naive = np.zeros_like(facs[0])
        for perm in itertools.permutations(range(4)):
            prod = facs[perm[0]]
            for i in perm[1:]:
                prod = prod @ facs[i]
            naive += prod
        naive /= 24.0
        assert np.abs(multi - naive).max() < 1e-13

    def test_recursive_definition_equivalence(self):
        # S{ABC} = (A S{BC} + B S{AC} + C S{AB}) / 3
        _, ops = fock.make_space(6, 6)
        A, B, C = ops.x, ops.p_mech, ops.m_op
        s2 = lambda u, v: 0.5 * (u @ v + v @ u)
        want = (A @ s2(B, C) + B @ s2(A, C) + C @ s2(A, B)) / 3.0
        got = fock.symmetrize_matrices([A, B, C], labels=["a", "b", "c"])
        assert np.abs(got - want).max() < 1e-13

    def test_identity_labels_default_to_object_identity(self):
        # repeated object references collapse to one label; the average agrees
        # with an explicit labeling up to summation order
        _, ops = fock.make_space(4, 4)
        got = fock.symmetrize_matrices([ops.p_mech, ops.p_mech, ops.x])
        want = fock.symmetrize_matrices([ops.p_mech, ops.p_mech, ops.x],
                                        labels=["p", "p", "x"])
        assert np.abs(got - want).max() < 1e-14

    def test_word_length_guard(self):
        _, ops = fock.make_space(4, 4)
        with pytest.raises(ValueError):
            fock.symmetrize_matrices([ops.x] * 9)

    @given(st.permutations(["p", "p", "x", "q"]))
    @settings(max_examples=12, deadline=None)
    def test_permutation_invariance(self, shuffled):
        _, ops = fock.make_space(4, 4)
        mats = {"p": ops.p_mech, "x": ops.x, "q": ops.q}
        base = fock.symmetrize_matrices([mats[l] for l in ["p", "p", "x", "q"]],
                                        labels=["p", "p", "x", "q"])
        other = fock.symmetrize_matrices([mats[l] for l in shuffled], labels=shuffled)
        assert np.array_equal(base, other)


class TestInversePowerSeries:
    def test_integer_orders(self):
        assert fock.expand_inverse_power(1, 0) == (1.0,)
        assert fock.expand_inverse_power(2, 1) == (1.0, -2.0)
        assert fock.expand_inverse_power(2, 2) == (1.0, -2.0, 3.0)

    def test_half_integer_dressings(self):
        assert fock.expand_inverse_power(0.5, 2) == (1.0, -0.5, 0.375)
        assert fock.expand_inverse_power(-0.5, 2) == (1.0, 0.5, -0.125)

    def test_domain(self):
        with pytest.raises(ValueError):
            fock.expand_inverse_power(2, 3)
        with pytest.raises(ValueError):
            fock.expand_inverse_power(0, 1)


class TestInterior:
    @staticmethod
    def _loop_indices(space, margin):
        return np.asarray([idx for idx in range(space.dim)
                           if all(lv < n - margin for lv, n in
                                  zip(np.unravel_index(idx, space.shape), space.shape))],
                          dtype=int)

    @pytest.mark.parametrize("n_modes_opt", [1, 2])
    @pytest.mark.parametrize("margin", [0, 1, 2])
    def test_indices_match_the_basis_loop(self, n_modes_opt, margin):
        space, _ = fock.make_space(5, 4, n_modes_opt=n_modes_opt)
        got = fock.interior_indices(space, margin)
        want = self._loop_indices(space, margin)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestBogoliubov:
    def test_zero_mixing_returns_bare_operators(self, space16):
        _, ops = space16
        A, B = fock.bogoliubov_pair(0.0, ops)
        assert np.array_equal(A.data, ops.a)
        assert np.array_equal(B.data, ops.bdag)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 2.3637])
    def test_real_mixing_preserves_commutator(self, space16, rho):
        space, ops = space16
        A, _ = fock.bogoliubov_pair(rho, ops)
        comm = fock.commutator(A, A.dagger())
        block = fock.interior_block(comm, space)
        assert np.abs(block - np.eye(block.shape[0])).max() < 1e-12


class TestSquaredAnnihilator:
    def test_vacuum_commutator(self):
        _, ops = fock.make_space(8, 4)
        _, comm = fock.squared_annihilator(ops)
        assert comm.data[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_interior_diagonal(self):
        space, ops = fock.make_space(12, 4)
        _, comm = fock.squared_annihilator(ops)
        for m in range(12 - 3 + 1):
            idx = m * 4  # optical ground level
            assert comm.data[idx, idx] == pytest.approx(m + 0.5, rel=1e-13)

    def test_coherent_state_near_eigenvector(self):
        _, ops = fock.make_space(32, 2)
        c, _ = fock.squared_annihilator(ops)
        z = 1.0
        vec = np.kron(fock.coherent_state(32, z), np.array([1.0, 0.0], dtype=complex))
        resid = np.linalg.norm(c.data @ vec - 0.5 * z**2 * vec)
        assert resid < 1e-6

    def test_cutoff_floor(self):
        _, ops = fock.make_space(3, 4)
        with pytest.raises(ValueError):
            fock.squared_annihilator(ops)


class TestSpectrum:
    def test_ladder_commutator_interior(self, space16):
        space, ops = space16
        comm = fock.commutator(ops.a, ops.adag)
        block = fock.interior_block(comm, space, margin=1)
        assert np.abs(block - np.eye(block.shape[0])).max() < 1e-13

    def test_rejects_non_hermitian(self, space16):
        _, ops = space16
        for H in (ops.a, ops.a + 0.5j * ops.x):  # real path, complex path
            with pytest.raises(ValueError):
                fock.spectrum(H)

    # in SI units max|H| is 6.9e-19: checks floored at scale 1 would accept both probes
    def test_si_scale_off_hermitian_entry_rejected(self):
        H = _si_new_full()
        fock.spectrum(H, 8)
        data = H.data.copy()
        off = np.abs(data - np.diag(np.diag(data)))
        i, j = np.unravel_index(off.argmax(), off.shape)
        data[i, j] += 0.1 * np.abs(H.data).max()
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.spectrum(fock.OperatorMatrix(H.space, data), 8)

    def test_si_scale_wrong_eigenvalues_rejected(self, monkeypatch):
        H = _si_new_full()
        eigh = np.linalg.eigh

        def doubled(a):
            vals, vecs = eigh(a)
            return 2 * vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", doubled)
        with pytest.raises(ArithmeticError, match="eigenpair residual"):
            fock.spectrum(H, 8)

    def test_sorted_and_counted(self, space16):
        _, ops = space16
        for H in (ops.n_op + ops.m_op, (ops.n_op + ops.m_op).real):
            vals = fock.spectrum(H, 5)
            assert len(vals) == 5
            assert np.all(np.diff(vals) >= 0)

    def test_k_beyond_dimension_returns_all_and_below_one_raises(self, space16):
        _, ops = space16
        assert len(fock.spectrum(ops.n_op, 10**6)) == 256
        with pytest.raises(ValueError, match="k must be >= 1"):
            fock.spectrum(ops.n_op, 0)

    @pytest.mark.parametrize("dim", [64, 256])
    @pytest.mark.parametrize("omega_c", [2.3, 1.0])  # generic; degenerate omega_m = omega_c
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, 0.785)])
    def test_every_variant_matches_complex_eigh(self, dim, omega_c, phases):
        n = int(np.sqrt(dim))
        space, _ = fock.make_space(n, n)
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=omega_c, a_amp=1.0,
                         b_amp=1.0, a_phase=phases[0], b_phase=phases[1], chi0=1.0,
                         thickness=0.002)
        complex_built = []
        for variant in ham.VARIANTS:
            options = {"eta": 0.5} if variant == "H4_special_eta" else {}
            op = ham.build_hamiltonian(variant, p, space, **options)
            H = op.data
            if H.imag.any():
                complex_built.append(variant)
            # every variant conserves one Z2 parity, so the operator splits
            assert len(fock._parity_sectors(op)) == 2, variant
            want = np.linalg.eigh(0.5 * (H + H.conj().T))[0]
            norm = max(1.0, np.abs(want).max())
            for arg in (H, op):  # one block; parity sectors
                got = fock.spectrum(arg, 8)
                assert np.abs(got - want[:8]).max() <= 1e-13 * norm, variant
        # drive phases decide the path: all real without them, five complex with them
        assert len(complex_built) == (0 if phases == (0.0, 0.0) else 5)

    @pytest.mark.parametrize("imag", [0.0, 0.1])  # real and complex path
    def test_perturbed_eigenvectors_raise(self, space16, monkeypatch, imag):
        _, ops = space16
        eigh = np.linalg.eigh

        def perturbed(a):
            vals, vecs = eigh(a)
            vecs = vecs.copy()
            vecs[0, 2] += 1e-6
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        H = ops.n_op + 0.5 * ops.m_op + imag * ops.p
        assert H.imag.any() == (imag != 0.0)
        with pytest.raises(ArithmeticError, match="residual"):
            fock.spectrum(H, 3)
        assert len(fock.spectrum(H, 2)) == 2  # unreturned pairs are not checked

    def test_repeated_degenerate_eigenvector_raises(self, space16, monkeypatch):
        # n_op has a 16-fold ground level, so a repeated vector passes the
        # residual check; orthonormality catches it
        _, ops = space16
        eigh = np.linalg.eigh

        def repeated(a):
            vals, vecs = eigh(a)
            vecs = vecs.copy()
            vecs[:, 1] = vecs[:, 0]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", repeated)
        with pytest.raises(ArithmeticError, match="orthonormality"):
            fock.spectrum(ops.n_op, 3)

    def test_operator_matrix_input(self, space16):
        _, ops = space16
        vals = fock.spectrum(fock.OperatorMatrix(ops.space, ops.n_op), 3)
        np.testing.assert_allclose(vals, [0.0, 0.0, 0.0], atol=1e-13)


class TestParitySectors:
    """``spectrum`` on an ``OperatorMatrix`` solves each conserved parity
    sector as its own block."""

    @staticmethod
    def _params():
        return CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.3, a_amp=1.0,
                            b_amp=1.0, a_phase=0.3, b_phase=0.785, chi0=1.0, thickness=0.002)

    @staticmethod
    def _full_eigh(H):
        return np.linalg.eigh(0.5 * (H + H.conj().T))[0]

    def test_no_conserved_parity_is_one_block(self, space16):
        # x flips the mechanical parity, q the optical one, and x + q the product
        _, ops = space16
        H = fock.OperatorMatrix(ops.space, ops.x + ops.q + ops.m_op)
        assert len(fock._parity_sectors(H)) == 1
        assert np.array_equal(fock.spectrum(H, 8), fock.spectrum(H.data, 8))
        assert np.array_equal(fock.spectrum(H), fock.spectrum(H.data))

    def test_unequal_sectors_return_every_value(self):
        space, _ = fock.make_space(7, 9)
        H = ham.build_hamiltonian("new_full", self._params(), space, order=2)
        sizes = [len(H.data[idx]) for idx in fock._parity_sectors(H)]
        assert sorted(sizes) == [28, 35]  # optical parity: 7 x 4 odd, 7 x 5 even
        got = fock.spectrum(H)
        want = self._full_eigh(H.data)
        assert len(got) == 63
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_two_optical_modes(self):
        space, _ = fock.make_space(6, 5, n_modes_opt=2)
        H = ham.build_hamiltonian("delta_relativistic", self._params(), space)
        assert len(fock._parity_sectors(H)) == 2
        want = self._full_eigh(H.data)
        for k in (1, 8, None):
            got = fock.spectrum(H, k)
            assert np.abs(got - want[:k]).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_perturbed_eigenvector_in_one_block_raises(self, space16, monkeypatch):
        # mechanical sectors: the even one holds 0, 1, 1, ..., the odd one 0.5, 1.5, ...
        _, ops = space16
        H = fock.OperatorMatrix(ops.space, ops.n_op + 0.5 * ops.m_op)
        eigh = np.linalg.eigh
        calls = []

        def perturb_second_block(a):
            vals, vecs = eigh(a)
            calls.append(len(a))
            if len(calls) % 2 == 0:
                vecs = vecs.copy()
                vecs[1, 0] += 1e-6
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", perturb_second_block)
        with pytest.raises(ArithmeticError, match="residual"):
            fock.spectrum(H, 3)
        assert calls == [128, 128]
        assert len(fock.spectrum(H, 1)) == 1  # the odd block returns no pair

    def test_repeated_vector_in_one_block_raises(self, space16, monkeypatch):
        # n_op's ground level is 8-fold degenerate in each mechanical sector
        _, ops = space16
        eigh = np.linalg.eigh

        def repeated(a):
            vals, vecs = eigh(a)
            vecs = vecs.copy()
            vecs[:, 1] = vecs[:, 0]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", repeated)
        with pytest.raises(ArithmeticError, match="orthonormality"):
            fock.spectrum(fock.OperatorMatrix(ops.space, ops.n_op), 3)

    @pytest.mark.parametrize("imag", [0.0, 0.1])  # real and complex path
    def test_non_hermitian_entry_in_one_off_block_rejected(self, space16, imag):
        # H[odd, even] != 0 with H[even, odd] = 0 for the mechanical parity: a
        # split that tested one off-block would drop the entry unseen
        space, ops = space16
        data = ops.n_op + 0.5 * ops.m_op + 1j * imag * (ops.a @ ops.a - ops.adag @ ops.adag)
        assert data.imag.any() == (imag != 0.0)
        odd, even = 1 * space.n_opt, 0  # |m=1, n=0>, |m=0, n=0>
        data[odd, even] = 1e-3
        H = fock.OperatorMatrix(space, data)
        assert len(fock._parity_sectors(H)) == 2  # a later label keeps both in one block
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.spectrum(H, 3)


def test_coherent_state_normalization():
    vec = fock.coherent_state(40, 0.9)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


_OPTIONS = {"new_full": {"order": 2}, "law_full": {"order": 2}, "H4_special_eta": {"eta": 0.5}}


def _every_variant(space, omega_c, phases):
    p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=omega_c, a_amp=1.0,
                     b_amp=1.0, a_phase=phases[0], b_phase=phases[1], chi0=1.0, thickness=0.002)
    variants = ham.VARIANTS if space.n_modes_opt == 1 else ("delta_relativistic",)
    return {v: ham.build_hamiltonian(v, p, space, **_OPTIONS.get(v, {})) for v in variants}


_POINTS = pytest.mark.parametrize("omega_c, phases", [
    (2.3, (0.0, 0.0)), (1.0, (0.0, 0.0)), (2.3, (0.3, 0.785)), (1.0, (0.3, 0.785))])


class TestTermList:
    """An assembled operator keeps its (mechanical, optical) factors."""

    def test_assembled_data_is_read_only(self, space16):
        H = ham.build_hamiltonian("H012", TestParitySectors._params(), space16[0])
        with pytest.raises(ValueError, match="read-only"):
            H.data[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            H.data[...] *= 2.0
        for name, value in [("data", np.zeros_like(H.data)), ("terms", ()), ("scale", 2.0),
                            ("space", H.space)]:
            with pytest.raises(AttributeError, match=name):
                setattr(H, name, value)
        with pytest.raises(AttributeError, match="data"):
            del H.data
        fresh = fock.OperatorMatrix(H.space, terms=H.terms)
        with pytest.raises(AttributeError, match="_support"):
            fresh._support = None
        assert np.array_equal(fresh.data, H.data)  # the cached fills still land

    def test_build_fills_data_below_the_threshold_only(self, monkeypatch, space16):
        assert "data" in ham.build_hamiltonian("H012", TestParitySectors._params(), space16[0]).__dict__
        monkeypatch.setattr(fock, "KRYLOV_MIN_DIM", space16[0].dim)
        H = ham.build_hamiltonian("H012", TestParitySectors._params(), space16[0])
        assert "data" not in H.__dict__

    @_POINTS
    @pytest.mark.parametrize("shape", [(6, 7, 1), (5, 4, 2)])
    def test_every_variant_matvec_matches_dense(self, omega_c, phases, shape):
        space = fock.FockSpace(*shape[:2], n_modes_opt=shape[2])
        rng = np.random.default_rng(0)
        v = rng.standard_normal((space.dim, 3)) + 1j * rng.standard_normal((space.dim, 3))
        for variant, H in _every_variant(space, omega_c, phases).items():
            for x in (v, v[:, 0], v.real):
                want = H.data @ x
                got = H.matvec(x)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), variant

    @_POINTS
    def test_streamed_entry_stats_equal_the_dense_ones(self, omega_c, phases):
        for variant, H in _every_variant(fock.FockSpace(6, 7), omega_c, phases).items():
            peak, defect, finite = H._term_stats
            data = H.data
            assert peak == np.abs(data).max(), variant
            assert defect == np.abs(data - data.conj().T).max() == H.hermiticity_defect()
            assert finite
            dagger = H.dagger()
            assert "data" not in dagger.__dict__
            assert np.array_equal(dagger.data, data.conj().T), variant

    def test_non_finite_factor_entry_is_seen(self, space16):
        H = ham.build_hamiltonian("new_full", TestParitySectors._params(), space16[0])
        (mech, opt), *rest = H.terms
        mech = mech.copy()
        mech[3, 5] = np.inf
        assert not fock.OperatorMatrix(H.space, terms=[(mech, opt), *rest])._entry_stats[2]


class TestKrylovPath:
    """``spectrum`` on the factors, with its dimension threshold lowered."""

    @pytest.fixture(autouse=True)
    def low_threshold(self, monkeypatch):
        monkeypatch.setattr(fock, "KRYLOV_MIN_DIM", 1)

    @staticmethod
    def _record_lanczos(monkeypatch) -> list:
        """Patch ``_krylov._lanczos`` to log (block, converged) per run."""
        lanczos, runs = _krylov._lanczos, []

        def recorded(apply, dim, k, block, *rest):
            found = lanczos(apply, dim, k, block, *rest)
            runs.append((block, found is not None))
            return found

        monkeypatch.setattr(_krylov, "_lanczos", recorded)
        return runs

    @staticmethod
    def _dense(H):
        return fock.spectrum(fock.OperatorMatrix(H.space, H.data), 8)

    @_POINTS
    @pytest.mark.parametrize("shape", [(28, 28, 1), (12, 8, 2)])
    def test_every_variant_matches_dense_eigh(self, monkeypatch, omega_c, phases, shape):
        # at 28 x 28 Lanczos converges in most sectors; a term list that is
        # one product M (x) O is solved densely per sector without a Lanczos
        # run: every one-term variant, the two-mode relativistic correction,
        # and without a drive phase H4_special_eta, whose optical factors then
        # coincide, and H4_bogoliubov_form, whose G4- term then vanishes
        products = {"delta_relativistic"}
        if phases[0] == 0.0:
            products |= {"H4_special_eta", "H4_bogoliubov_form"}
        runs = self._record_lanczos(monkeypatch)
        space = fock.FockSpace(*shape[:2], n_modes_opt=shape[2])
        for variant, H in _every_variant(space, omega_c, phases).items():
            runs.clear()
            got = fock.spectrum(H, 8)
            assert "data" not in H.__dict__, variant
            assert (runs == []) == (len(H.terms) == 1 or variant in products), variant
            want = self._dense(H)
            norm = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-13 * norm, variant

    def test_sectors_from_the_factors_are_the_dense_ones(self):
        space = fock.FockSpace(6, 7)
        for variant, H in _every_variant(space, 2.3, (0.3, 0.785)).items():
            n_opt = space.dim // space.n_mech
            from_factors = sorted(
                sorted(int(m * n_opt + n) for mi, ni in blocks for m in mi for n in ni)
                for blocks in _krylov._term_sectors(H))
            dense = sorted(sorted(np.unique(idx[0]).tolist()) for idx in fock._parity_sectors(H))
            assert from_factors == dense, variant

    def test_lanczos_converges_to_the_dense_levels(self):
        H = _every_variant(fock.FockSpace(12, 12), 2.3, (0.0, 0.0))["new_full"]
        rng = np.random.default_rng(0)
        for blocks in _krylov._term_sectors(H):
            dim, apply, dtype = _krylov._sector_operator(H, blocks)
            want = np.linalg.eigvalsh(apply(np.eye(dim, dtype=dtype)).T)
            vals, vecs, top = _krylov._lanczos(apply, dim, 8, 2, dtype, rng, dim)
            assert np.abs(vals - want[:8]).max() <= 1e-13 * np.abs(want).max()
            assert top <= np.abs(want).max()

    def test_threefold_level_returns_every_copy(self, monkeypatch):
        # at omega_m = omega_c the levels of H012 are hbar omega (m + n + 1):
        # 1, 2, 2, 3, 3, 3, 4, 4, each sector holding up to two copies of one
        runs = self._record_lanczos(monkeypatch)
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=1.0)
        H = ham.build_hamiltonian("H012", p, fock.FockSpace(28, 28))
        got = fock.spectrum(H, 8)
        np.testing.assert_allclose(got, [1, 2, 2, 3, 3, 3, 4, 4], rtol=0, atol=1e-12)
        assert (4, True) in runs  # a level found twice by a block of two was solved again

    @pytest.mark.parametrize("cap", [40, 100])
    def test_basis_cap_falls_back_to_the_dense_sector_solve(self, monkeypatch, cap):
        # new_full at 20 x 20 needs more than half of each 200-wide sector;
        # a cap of 100 is that half, which once raised ArithmeticError
        monkeypatch.setattr(fock, "KRYLOV_MAX_BASIS", cap)
        runs = self._record_lanczos(monkeypatch)
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        got = fock.spectrum(H, 8)
        assert runs == [(2, False), (2, False)]
        want = self._dense(H)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_large_k_solves_each_sector_densely(self, monkeypatch):
        runs = self._record_lanczos(monkeypatch)
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        got = fock.spectrum(H, 60)  # the first check, 4 (60 + 2) vectors, passes half a sector
        assert runs == [] and "data" not in H.__dict__
        want = fock.spectrum(fock.OperatorMatrix(H.space, H.data), 60)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_unconverged_pairs_fail_verification(self, monkeypatch):
        monkeypatch.setattr(_krylov, "_LANCZOS_RTOL", 1.0)  # accept the first check's pairs
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        with pytest.raises(ArithmeticError, match="eigenpair residual"):
            fock.spectrum(H, 8)

    def test_si_scale_off_hermitian_factor_rejected(self):
        H = _si_new_full()
        assert len(fock.spectrum(H, 8)) == 8
        terms = list(H.terms)
        i = max(range(len(terms)), key=lambda t: np.abs(terms[t][0]).max() * np.abs(terms[t][1]).max())
        mech = terms[i][0].copy()
        mech[0, 1] += 0.1 * np.abs(mech).max()
        terms[i] = (mech, terms[i][1])
        skewed = fock.OperatorMatrix(H.space, terms=terms)
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.spectrum(skewed, 8)
        assert "data" not in skewed.__dict__
