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


def _si_new_full(n: int = 8):
    """``new_full`` at n x n for a 1 ug mirror in a 1 mm cavity, in SI units."""
    p = CavityParams(mass=1e-9, length=1e-3, omega_m=1e6, omega_c=1e15, c=SI_C, hbar=SI_HBAR,
                     a_amp=10.0, b_amp=1.0, b_phase=0.7)
    return ham.build_hamiltonian("new_full", p, fock.make_space(n, n)[0])


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
        assert zero._entry_stats == (0.0, 0.0, True)
        assert zero.data.shape == (space.dim, space.dim) and zero.data.dtype == complex
        assert not zero.data.any()
        assert all(not part.any() for part in zero._entry_pass[3:])

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

    def test_label_count_must_match_the_word(self):
        # two labels for three factors dropped the third and returned S{X P}
        _, ops = fock.make_space(4, 4)
        with pytest.raises(ValueError, match="2 labels for 3 factors"):
            fock.symmetrize_matrices([ops.x, ops.p_mech, ops.m_op], labels=["x", "p"])

    def test_one_label_names_equal_factors_only(self):
        # a label on two different factors kept the last one, so S{X P} came back as P P
        _, ops = fock.make_space(4, 4)
        with pytest.raises(ValueError, match="label 'x' names two different factors"):
            fock.symmetrize_matrices([ops.x, ops.p_mech], labels=["x", "x"])
        got = fock.symmetrize_matrices([ops.x, ops.x.copy()], labels=["x", "x"])
        assert np.array_equal(got, ops.x @ ops.x)
        # a NaN factor equals its own copy: the product is NaN, not a label error
        poisoned = ops.x.copy()
        poisoned[0, 0] = np.nan
        for labels in (None, ["x", "x"]):
            got = fock.symmetrize_matrices([poisoned, poisoned], labels=labels)
            assert np.isnan(got).any()


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

    def test_two_optical_modes_pad_with_the_identity(self):
        # A acts on the first optical mode and B on the mechanical one; both,
        # and c and [c, c^dag], equal the nested kron bit for bit
        _, ops = fock.make_space(6, 4, n_modes_opt=2)
        sh, ch = np.sinh(0.7), np.cosh(0.7)
        A, B = fock.bogoliubov_pair(0.7, ops)
        c, comm = fock.squared_annihilator(ops)
        half_b2 = 0.5 * (ops.mech.a @ ops.mech.a)
        for got, (mech, opt_1) in [
            (A, (ops.mech.eye, ops.opt.adag * sh + ops.opt.a * ch)),
            (B, (ops.mech.adag * ch + ops.mech.a * sh, ops.opt.eye)),
            (c, (half_b2, ops.opt.eye)),
            (comm, (half_b2 @ half_b2.conj().T - half_b2.conj().T @ half_b2, ops.opt.eye)),
        ]:
            assert np.array_equal(got.data, np.kron(mech, np.kron(opt_1, ops.opt.eye)))


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
            fock.spectrum(data, 8)

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
            assert len(fock._term_sectors(op)) == 2, variant
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
        vals = fock.spectrum(ops.assemble([(None, ops.opt.n)]), 3)
        np.testing.assert_allclose(vals, [0.0, 0.0, 0.0], atol=1e-13)


class TestParitySectors:
    """``spectrum`` on a term list solves each conserved parity sector, read
    off its factors, as its own block."""

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
        H = ops.assemble([(ops.mech.x, None), (None, ops.opt.x), (ops.mech.n, None)])
        assert len(fock._term_sectors(H)) == 1
        assert np.array_equal(fock.spectrum(H, 8), fock.spectrum(H.data, 8))
        assert np.array_equal(fock.spectrum(H), fock.spectrum(H.data))

    def test_unequal_sectors_return_every_value(self):
        space, _ = fock.make_space(7, 9)
        H = ham.build_hamiltonian("new_full", self._params(), space, order=2)
        sizes = [sum(len(mi) * len(ni) for mi, ni in blocks) for blocks in fock._term_sectors(H)]
        assert sorted(sizes) == [28, 35]  # optical parity: 7 x 4 odd, 7 x 5 even
        got = fock.spectrum(H)
        want = self._full_eigh(H.data)
        assert len(got) == 63
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_two_optical_modes(self):
        space, _ = fock.make_space(6, 5, n_modes_opt=2)
        H = ham.build_hamiltonian("delta_relativistic", self._params(), space)
        assert len(fock._term_sectors(H)) == 2
        want = self._full_eigh(H.data)
        for k in (1, 8, None):
            got = fock.spectrum(H, k)
            assert np.abs(got - want[:k]).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("shape", [(6, 7, 1), (6, 5, 2)])
    def test_factor_sectors_partition_the_basis_and_hold_every_entry(self, shape):
        # every entry of H between two different sectors read off the factors
        # is exactly zero, so solving the sectors apart drops nothing
        space = fock.FockSpace(*shape[:2], n_modes_opt=shape[2])
        n_opt = space.dim // space.n_mech
        for variant, H in _every_variant(space, 2.3, (0.3, 0.785)).items():
            label = np.full(space.dim, -1)
            for s, blocks in enumerate(fock._term_sectors(H)):
                rows = [m * n_opt + n for mi, ni in blocks for m in mi for n in ni]
                assert (label[rows] == -1).all(), variant
                label[rows] = s
            assert (label >= 0).all(), variant
            assert (H.data[label[:, None] != label[None, :]] == 0).all(), variant

    def test_perturbed_eigenvector_in_one_block_raises(self, space16, monkeypatch):
        # mechanical sectors: the even one holds 0, 1, 1, ..., the odd one 0.5, 1.5, ...
        _, ops = space16
        H = ops.assemble([(None, ops.opt.n), (0.5 * ops.mech.n, None)])
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
        # the mechanical parity splits 1 (x) n into two blocks, and its ground
        # level is 8-fold degenerate in each
        _, ops = space16
        eigh = np.linalg.eigh

        def repeated(a):
            vals, vecs = eigh(a)
            vecs = vecs.copy()
            vecs[:, 1] = vecs[:, 0]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", repeated)
        with pytest.raises(ArithmeticError, match="orthonormality"):
            fock.spectrum(ops.assemble([(None, ops.opt.n)]), 3)

    @pytest.mark.parametrize("imag", [0.0, 0.1])  # real and complex path
    def test_non_hermitian_entry_in_one_off_block_rejected(self, space16, imag):
        # H[odd, even] != 0 with H[even, odd] = 0 for the mechanical parity;
        # a bare array is one block, so the check of the whole matrix sees
        # the entry
        space, ops = space16
        data = ops.n_op + 0.5 * ops.m_op + 1j * imag * (ops.a @ ops.a - ops.adag @ ops.adag)
        assert data.imag.any() == (imag != 0.0)
        odd, even = 1 * space.n_opt, 0  # |m=1, n=0>, |m=0, n=0>
        data[odd, even] = 1e-3
        with pytest.raises(ValueError, match="not Hermitian"):
            fock.spectrum(data, 3)


def test_coherent_state_normalization():
    vec = fock.coherent_state(40, 0.9)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


_OPTIONS = {"new_full": {"order": 2}, "law_full": {"order": 2}, "H4_special_eta": {"eta": 0.5}}


def _every_variant(space, omega_c, phases):
    p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=omega_c, a_amp=1.0,
                     b_amp=1.0, a_phase=phases[0], b_phase=phases[1], chi0=1.0, thickness=0.002)
    variants = ham.VARIANTS if space.n_modes_opt == 1 else ("delta_relativistic",)
    return {v: ham.build_hamiltonian(v, p, space, **_OPTIONS.get(v, {})) for v in variants}


def _runaway(space, variant="new_full"):
    """An order-2 full build at ``length`` 3, ``omega_c`` 2, where the lowest
    ``new_full`` level falls without bound as the cutoff grows: the diagonal
    of either build does not dominate."""
    p = CavityParams(mass=1.0, length=3.0, omega_m=1.0, omega_c=2.0, a_amp=1.0, b_amp=1.0,
                     chi0=1.0, thickness=0.002)
    return ham.build_hamiltonian(variant, p, space, order=2)


_DOMINANT = {"new_full", "law_full", "H012"}  # the variants whose diagonal dominates

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
        for name, value in [("data", np.zeros_like(H.data)), ("terms", ()), ("space", H.space)]:
            with pytest.raises(AttributeError, match=name):
                setattr(H, name, value)
        with pytest.raises(AttributeError, match="data"):
            del H.data
        fresh = fock.OperatorMatrix(H.space, terms=H.terms)
        with pytest.raises(AttributeError, match="_band"):
            fresh._band = None
        assert np.array_equal(fresh.data, H.data)  # the cached fills still land

    def test_array_copy_is_a_writeable_copy(self, space16):
        # np.array(H, copy=True) returned the read-only cache itself
        H = ham.build_hamiltonian("H012", TestParitySectors._params(), space16[0])
        for copied in (np.array(H), np.array(H, copy=True), np.array(H, dtype=complex)):
            assert not np.shares_memory(copied, H.data) and copied.flags.writeable
            copied[0, 0] = 1.0
        assert np.asarray(H) is H.data and np.asarray(H, dtype=complex) is H.data

    @pytest.mark.parametrize("n", [16, 30])  # dims 256 and 900, below and at KRYLOV_MIN_DIM
    def test_build_and_spectrum_never_fill_data(self, n):
        space = fock.FockSpace(n, n)
        for variant in ("H012", "H4"):
            H = ham.build_hamiltonian(variant, TestParitySectors._params(), space)
            for k in (8, None):
                fock.spectrum(H, k)
                assert "data" not in H.__dict__, (variant, k)

    @_POINTS
    def test_streamed_entry_stats_equal_the_dense_ones(self, kron_sum, omega_c, phases):
        # the dense reference is the sum of np.kron(M_i, O_i), formed apart
        # from the slices that fill data and stream the entry pass
        for space in (fock.FockSpace(6, 7), fock.FockSpace(5, 4, n_modes_opt=2), fock.FockSpace(16, 16)):
            ops = fock.mode_operators(space)
            for variant, H in _every_variant(space, omega_c, phases).items():
                ref = kron_sum(ops, H.terms)
                data = ref.data
                assert H.data.tobytes() == data.tobytes(), variant
                peak, defect, finite = H._entry_stats
                assert (peak, defect, finite) == ref._entry_stats and finite, variant
                assert defect == H.hermiticity_defect()
                # row (m, n) of the dense array is row m * N + n, so the
                # (n_mech, N) arrays ravel into the dense row order
                diag, radii = H._entry_pass[3:]
                assert np.array_equal(diag.ravel(), data.diagonal().real), variant
                off = np.abs(data).sum(axis=1) - np.abs(data.diagonal())
                assert np.abs(radii.ravel() - off).max() <= 1e-14 * peak, variant
                dagger = H.dagger()
                assert "data" not in dagger.__dict__
                assert np.array_equal(dagger.data, data.conj().T), variant

    def test_non_finite_factor_entry_is_seen(self, space16):
        H = ham.build_hamiltonian("new_full", TestParitySectors._params(), space16[0])
        (mech, opt), *rest = H.terms
        mech = mech.copy()
        mech[3, 5] = np.inf
        assert not fock.OperatorMatrix(H.space, terms=[(mech, opt), *rest])._entry_stats[2]

    def test_infinite_optical_entry_under_zero_mechanical_factors_is_seen(self, kron_sum):
        # no mechanical entry is nonzero, so no slice has a band position, yet
        # each entry M_i[m, m'] O_i[n, n'] = 0 * inf of the dense matrix is NaN
        space, ops = fock.make_space(4, 5)
        opt = ops.opt.a.copy()
        opt[1, 2] = np.inf
        terms = [(np.zeros((4, 4), complex), opt)]
        with np.errstate(invalid="ignore"):
            assert not kron_sum(ops, terms)._entry_stats[2]
        assert not ops.assemble(terms)._entry_stats[2]


class TestKrylovPath:
    """``spectrum``'s iterative sector solves, with its dimension thresholds lowered."""

    @pytest.fixture(autouse=True)
    def low_threshold(self, monkeypatch):
        monkeypatch.setattr(fock, "DAVIDSON_MIN_DIM", 1)
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
    def _record_davidson(monkeypatch) -> list:
        """Patch ``_krylov._davidson`` to log whether each run converged."""
        davidson, runs = _krylov._davidson, []

        def recorded(*args):
            found = davidson(*args)
            runs.append(found is not None)
            return found

        monkeypatch.setattr(_krylov, "_davidson", recorded)
        return runs

    @staticmethod
    def _dense(H):
        return fock.spectrum(H.data, 8)

    @_POINTS
    @pytest.mark.parametrize("shape", [(28, 28, 1), (12, 8, 2)])
    def test_every_variant_matches_dense_eigh(self, monkeypatch, omega_c, phases, shape):
        # at 28 x 28 the full builds and H012 converge by Davidson in every
        # sector and the other term lists take Lanczos; a term list that is
        # one product M (x) O is solved densely per sector with neither: every
        # one-term variant, the two-mode relativistic correction, and without
        # a drive phase H4_special_eta, whose optical factors then coincide,
        # and H4_bogoliubov_form, whose G4- term then vanishes
        products = {"delta_relativistic"}
        if phases[0] == 0.0:
            products |= {"H4_special_eta", "H4_bogoliubov_form"}
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        space = fock.FockSpace(*shape[:2], n_modes_opt=shape[2])
        for variant, H in _every_variant(space, omega_c, phases).items():
            runs.clear()
            davidson.clear()
            got = fock.spectrum(H, 8)
            assert "data" not in H.__dict__, variant
            assert davidson == [True, True] if variant in _DOMINANT else davidson == [], variant
            product = len(H.terms) == 1 or variant in products
            assert (runs == []) == (product or variant in _DOMINANT), variant
            want = self._dense(H)
            norm = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-13 * norm, variant

    def test_seeded_rows_draw_the_stream_of_one_generator(self):
        # made on the first draw, the generator still yields the stream of
        # default_rng(0) made up front, across Davidson's and Lanczos's draws
        rows, rng = _krylov._SeededRows(0), np.random.default_rng(0)
        for shape in [(1, 7), (2, 7), (3, 5)]:
            assert np.array_equal(rows.standard_normal(shape), rng.standard_normal(shape))

    def test_lanczos_converges_to_the_dense_levels(self):
        H = _every_variant(fock.FockSpace(12, 12), 2.3, (0.0, 0.0))["new_full"]
        rng = np.random.default_rng(0)
        for blocks in fock._term_sectors(H):
            dim, apply, dtype, *_ = fock._sector_operator(H, blocks)
            want = np.linalg.eigvalsh(apply(np.eye(dim, dtype=dtype)).T)
            vals, vecs, top = _krylov._lanczos(apply, dim, 8, 2, dtype, rng, dim)
            assert np.abs(vals - want[:8]).max() <= 1e-13 * np.abs(want).max()
            assert top <= np.abs(want).max()

    def test_diagonal_and_radii_are_read_off_the_factors(self):
        for variant, H in _every_variant(fock.FockSpace(6, 7), 1.0, (0.3, 0.785)).items():
            for blocks in fock._term_sectors(H):
                dim, apply, dtype, diag, radii = fock._sector_operator(H, blocks)
                dense = apply(np.eye(dim, dtype=dtype)).T
                want = dense.diagonal().real
                assert np.abs(diag - want).max() <= 1e-15 * np.abs(want).max(initial=1e-300), variant
                off = np.abs(dense).sum(axis=1) - np.abs(dense.diagonal())
                assert np.abs(radii - off).max() <= 1e-14 * np.abs(dense).max(), variant

    @pytest.mark.parametrize("omega_c, phases", [
        (2.3, (0.0, 0.0)), (1.0, (0.0, 0.0)), (2.3, (0.3, 0.785)), (1.0, (0.3, 0.785)), (None, None)])
    def test_dominance_decision_per_variant(self, omega_c, phases):
        # measured at 32 x 32: max |H e_i - d_i e_i| over the spacing is
        # 0.08-0.18 for the full builds and 0 for H012, 3-5 for the runaway
        # full builds and 8-35 for H4; the other lists have zero spacing
        space = fock.FockSpace(32, 32)
        if omega_c is None:
            variants, dominant = {v: _runaway(space, v) for v in ("new_full", "law_full")}, set()
        else:
            variants, dominant = _every_variant(space, omega_c, phases), _DOMINANT
        for variant, H in variants.items():
            for blocks in fock._term_sectors(H):
                dim, apply, dtype, diag, radii = fock._sector_operator(H, blocks)
                start = _krylov._dominant(apply, diag, radii, 8, dtype)
                assert (start is not None) == (variant in dominant), variant

    @_POINTS
    @pytest.mark.parametrize("n", [28, 32])
    def test_davidson_converges_to_the_dense_levels(self, omega_c, phases, n):
        # the diagonal preconditioner converges in 3-4 iterations: at most 45
        # applied vectors, the start block's 10 included (32-42 measured,
        # 37-49 with the bare residual as the correction)
        builds = _every_variant(fock.FockSpace(n, n), omega_c, phases)
        for variant in sorted(_DOMINANT):
            H = builds[variant]
            for blocks in fock._term_sectors(H):
                dim, apply, dtype, diag, radii = fock._sector_operator(H, blocks)
                want = np.linalg.eigvalsh(apply(np.eye(dim, dtype=dtype)).T)
                applied = []

                def counted(X):
                    applied.append(len(X))
                    return apply(X)

                E, HE, s, bound = _krylov._dominant(counted, diag, radii, 8, dtype)
                vals, vecs, top = _krylov._davidson(counted, diag, s, E, HE,
                                                    np.random.default_rng(0), dim // 2)
                assert np.abs(vals - want[:s]).max() <= 1e-13 * np.abs(want).max(), variant
                assert vals[-1] < bound <= want[s], variant
                assert top <= np.abs(want).max(), variant
                assert sum(applied) <= 45, variant

    def test_bound_refuses_davidson_where_a_level_runs_away(self, monkeypatch):
        # at 48 x 48, length 8 and omega_m = omega_c the order-2 new_full
        # has a level near -5.6 made of high Fock states; in the sector of
        # even m the start rows pass the spacing test, and Davidson from them
        # would return 1.0003 as the lowest level, but the Gershgorin bound
        # of the other rows refuses the sector, so Lanczos runs and finds it
        davidson = self._record_davidson(monkeypatch)
        p = CavityParams(mass=1.0, length=8.0, omega_m=1.0, omega_c=1.0, a_amp=1.0, b_amp=1.0,
                         chi0=1.0, thickness=0.002)
        H = ham.build_hamiltonian("new_full", p, fock.FockSpace(48, 48), order=2)
        got = fock.spectrum(H, 8)
        want, spaced = [], []
        for blocks in fock._term_sectors(H):
            dim, apply, dtype, diag, radii = fock._sector_operator(H, blocks)
            low = np.argsort(diag, kind="stable")
            E = np.zeros((10, dim), dtype)
            E[np.arange(10), low[:10]] = 1.0
            off = np.linalg.norm(apply(E) - diag[low[:10], None] * E, axis=1).max()
            spaced.append(off < (diag[low[10]] - diag[low[0]]) / 10)
            assert _krylov._dominant(apply, diag, radii, 8, dtype) is None
            want.extend(np.linalg.eigvalsh(apply(np.eye(dim, dtype=dtype)).T))
        want = np.sort(want)
        assert spaced == [True, False] and davidson == [] and got[0] < -5.5
        assert np.abs(got - want[:8]).max() <= 1e-13 * np.abs(want).max()

    def test_si_new_full_takes_the_mode_of_natural_units(self, monkeypatch):
        # the same Hamiltonian in units of hbar omega_m: the dominance test
        # compares two magnitudes of H, so no unit scale can change its mode
        davidson = self._record_davidson(monkeypatch)
        H = _si_new_full(20)
        natural = fock.OperatorMatrix(H.space,
                                      tuple((m * (1.0 / (SI_HBAR * 1e6)), o) for m, o in H.terms))
        got, want = fock.spectrum(H, 8), fock.spectrum(natural, 8)
        assert davidson == [True] * 4
        assert np.abs(got / (SI_HBAR * 1e6) - want).max() <= 1e-13 * np.abs(want).max()

    def test_threefold_level_returns_every_copy(self, monkeypatch):
        # A (x) 1 + 1 (x) A with A = n / 2 + x, a displaced oscillator of
        # levels m / 2 - 1: 8 lowest levels -2, -1.5, -1.5, -1, -1, -1, -0.5,
        # -0.5 in one sector; A's diagonal does not dominate, so Lanczos runs
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        space, ops = fock.make_space(28, 28)
        a = 0.5 * ops.mech.n + ops.mech.x
        H = ops.assemble([(a, None), (None, a)])
        got = fock.spectrum(H, 8)
        np.testing.assert_allclose(got, [-2, -1.5, -1.5, -1, -1, -1, -0.5, -0.5], rtol=0, atol=1e-12)
        assert davidson == []
        assert (4, True) in runs  # a level found twice by a block of two was solved again

    def test_h012_degenerate_levels_converge_on_the_start_block(self, monkeypatch):
        # at omega_m = omega_c the levels of H012 are hbar omega (m + n + 1):
        # 1, 2, 2, 3, 3, 3, 4, 4; its diagonal is its spectrum, so Davidson's
        # start block holds every copy and no Lanczos run is needed
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=1.0)
        H = ham.build_hamiltonian("H012", p, fock.FockSpace(32, 32))
        got = fock.spectrum(H, 8)
        np.testing.assert_allclose(got, [1, 2, 2, 3, 3, 3, 4, 4], rtol=0, atol=1e-12)
        assert runs == [] and davidson == [True, True]

    @pytest.mark.parametrize("cap", [40, 100])
    def test_basis_cap_falls_back_to_the_dense_sector_solve(self, monkeypatch, cap):
        # the runaway new_full at 20 x 20 needs more than half of each
        # 200-wide sector; a cap of 100 is that half, which once raised
        # ArithmeticError
        monkeypatch.setattr(fock, "KRYLOV_MAX_BASIS", cap)
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        H = _runaway(fock.FockSpace(20, 20))
        got = fock.spectrum(H, 8)
        assert runs == [(2, False), (2, False)] and davidson == []
        want = self._dense(H)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_davidson_budget_exhausted_takes_the_lanczos_route(self, monkeypatch):
        monkeypatch.setattr(_krylov, "_LANCZOS_RTOL", 0.0)  # no pair converges
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        got = fock.spectrum(H, 8)
        assert davidson == [False, False] and runs == [(2, False), (2, False)]
        want = self._dense(H)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_large_k_solves_each_sector_densely(self, monkeypatch):
        runs = self._record_lanczos(monkeypatch)
        H = _runaway(fock.FockSpace(20, 20))
        got = fock.spectrum(H, 60)  # the first check, 4 (60 + 2) vectors, passes half a sector
        assert runs == [] and "data" not in H.__dict__
        want = fock.spectrum(H.data, 60)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_large_k_skips_davidson(self, monkeypatch):
        runs = self._record_lanczos(monkeypatch)
        davidson = self._record_davidson(monkeypatch)
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        got = fock.spectrum(H, 60)
        assert runs == davidson == [] and "data" not in H.__dict__
        want = fock.spectrum(H.data, 60)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_unconverged_pairs_fail_verification(self, monkeypatch):
        monkeypatch.setattr(_krylov, "_LANCZOS_RTOL", 1.0)  # accept the first check's pairs
        H = _runaway(fock.FockSpace(20, 20))
        with pytest.raises(ArithmeticError, match="eigenpair residual"):
            fock.spectrum(H, 8)

    def test_unconverged_davidson_pairs_fail_verification(self, monkeypatch):
        monkeypatch.setattr(_krylov, "_LANCZOS_RTOL", 1.0)  # accept the start block's pairs
        davidson = self._record_davidson(monkeypatch)
        H = _every_variant(fock.FockSpace(20, 20), 2.3, (0.0, 0.0))["new_full"]
        with pytest.raises(ArithmeticError, match="eigenpair residual"):
            fock.spectrum(H, 8)
        assert davidson == [True, True]

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


class TestDavidsonBelowLanczos:
    """Between ``DAVIDSON_MIN_DIM`` and ``KRYLOV_MIN_DIM`` (24 x 24, dim 576) a
    dominant sector is solved by Davidson and any other densely: Lanczos
    never runs there."""

    @pytest.fixture(autouse=True)
    def between_the_thresholds(self):
        assert fock.DAVIDSON_MIN_DIM <= 24 * 24 < fock.KRYLOV_MIN_DIM

    @staticmethod
    def _dense(monkeypatch, H):
        with monkeypatch.context() as patch:
            patch.setattr(fock, "DAVIDSON_MIN_DIM", 10**9)
            return fock.spectrum(H, 8)

    @_POINTS
    def test_full_builds_take_davidson(self, monkeypatch, omega_c, phases):
        builds = _every_variant(fock.FockSpace(24, 24), omega_c, phases)
        for variant in ("new_full", "law_full"):
            runs = TestKrylovPath._record_lanczos(monkeypatch)
            davidson = TestKrylovPath._record_davidson(monkeypatch)
            got = fock.spectrum(builds[variant], 8)
            assert davidson == [True, True] and runs == [], variant
            want = self._dense(monkeypatch, builds[variant])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), variant

    @pytest.mark.parametrize("variant", ["new_full", "law_full"])
    def test_runaway_config_is_solved_densely(self, monkeypatch, variant):
        runs = TestKrylovPath._record_lanczos(monkeypatch)
        davidson = TestKrylovPath._record_davidson(monkeypatch)
        H = _runaway(fock.FockSpace(24, 24), variant)
        got = fock.spectrum(H, 8)
        assert runs == davidson == []
        assert np.array_equal(got, self._dense(monkeypatch, H))

    def test_davidson_over_budget_is_solved_densely(self, monkeypatch):
        monkeypatch.setattr(_krylov, "_LANCZOS_RTOL", 0.0)  # no pair converges
        runs = TestKrylovPath._record_lanczos(monkeypatch)
        davidson = TestKrylovPath._record_davidson(monkeypatch)
        H = _every_variant(fock.FockSpace(24, 24), 2.3, (0.0, 0.0))["new_full"]
        got = fock.spectrum(H, 8)
        assert davidson == [False, False] and runs == []
        assert np.array_equal(got, self._dense(monkeypatch, H))

    def test_phased_product_stays_dense(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_krylov, "lowest", lambda *args: calls.append(args))
        H = _every_variant(fock.FockSpace(24, 24), 2.3, (0.3, 0.785))["H3_linear_optical"]
        assert len(H.terms) == 1
        assert len(fock.spectrum(H, 8)) == 8 and calls == []
