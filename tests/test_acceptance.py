"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from optomech import coefficients as coef
from optomech import fock
from optomech import hamiltonians as ham
from optomech.cli import main as cli_main
from optomech.dynamics import (
    ClassicalState,
    MirrorParams,
    field_accel_law,
    field_accel_new,
    harmonic_mirror_motion,
    integrate,
    integrate_prescribed,
)
from optomech.rates import CavityParams, R_EXACT, base_rates, squeeze_parameters


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_diagonal_sum_rule():
    t0 = time.perf_counter()
    residuals = [coef.verify_g_squared_sum(k, 10**4, tail_correct=True) for k in range(1, 6)]
    elapsed = time.perf_counter() - t0
    worst = max(residuals)
    report(1, "diagonal sum rule, k=1..5, jmax=1e4 + tail",
           worst < 1e-4 and elapsed < 1.0,
           f"max residual {worst:.3e} (tol 1e-4), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_02_gram_sum_rule_and_scaling():
    with_tail = coef.verify_gram_identity(20, 10**4, tail_correct=True)
    r_lo = coef.verify_gram_identity(20, 10**3, tail_correct=False)
    r_hi = coef.verify_gram_identity(20, 10**4, tail_correct=False)
    ratio = r_lo / r_hi
    report(2, "Gram sum rule, k,j<=20, ltrunc=1e4 + tail",
           with_tail < 1e-3 and 8.0 <= ratio <= 12.0,
           f"residual {with_tail:.3e} (tol 1e-3), no-tail 1/L ratio {ratio:.2f} (in [8,12])")


def test_criterion_03_symmetrized_h_exact():
    bad = 0
    for k in range(1, 65):
        for j in range(1, 65):
            if k != j and coef.d_exact(k, j) != (coef.h_exact(k, j) + coef.h_exact(j, k)) / 2:
                bad += 1
    report(3, "d = sym(h) exact rational, k != j <= 64", bad == 0,
           f"{bad} violations out of 4032 pairs")


def test_criterion_04_truncated_dynamics_equivalence():
    motion = harmonic_mirror_motion(1.0, 0.01, 1.0)
    t_eval = np.linspace(0.0, 3 * 2 * np.pi, 601)
    gaps = []
    for K in (4, 8, 16, 32):
        params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=K)
        table = coef.build_table(K)
        Q0 = np.zeros(K)
        Q0[0] = 1.0
        st = ClassicalState(t=0.0, q=1.0, qdot=0.0, Q=Q0, Qdot=np.zeros(K))
        kwargs = dict(rel_tol=1e-10, abs_tol=1e-12, sample_times=t_eval)
        rec_new = integrate_prescribed("new", motion, st, params, table, t_eval[-1], **kwargs)
        rec_law = integrate_prescribed("law", motion, st, params, table, t_eval[-1],
                                       inner_cutoff=K, **kwargs)
        gaps.append(float(np.abs(rec_new.y[:, 2:] - rec_law.y[:, 2:]).max()))
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))

    table1 = coef.build_table(1)
    params1 = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=1)
    st1 = ClassicalState(t=0.0, q=1.2, qdot=0.4, Q=np.array([0.7]), Qdot=np.array([0.3]))
    gap = field_accel_new(st1, table1, params1, 0.1) - field_accel_law(
        st1, table1, params1, 0.1, inner_cutoff=1
    )
    expected = table1.r[0] * (st1.qdot / st1.q) ** 2 * st1.Q
    single = float(np.abs(gap - expected).max())
    report(4, "matched-cutoff equivalence + single-mode gap",
           monotone and single < 1e-10,
           f"gaps {['%.3e' % g for g in gaps]} monotone={monotone}, "
           f"single-mode residual {single:.3e} (tol 1e-10)")


def test_criterion_05_energy_conservation():
    table = coef.build_table(4)
    params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, kmax=4)
    st = ClassicalState(t=0.0, q=1.005, qdot=0.0, Q=np.array([0.02, 0.0, 0.0, 0.0]),
                        Qdot=np.zeros(4))
    rec = integrate("new", st, params, table, 100 * 2 * np.pi, rel_tol=1e-10,
                    abs_tol=1e-13, mirror_model="lagrangian")
    drift = float(np.abs(rec.energy - rec.energy[0]).max() / abs(rec.energy[0]))
    report(5, "energy drift over 100 periods at rel_tol=1e-10, kmax=4",
           drift < 1e-8, f"relative drift {drift:.3e} (tol 1e-8)")


def test_criterion_06_rate_chain():
    rng = np.random.default_rng(20170402)
    worst = 0.0
    for _ in range(100):
        mass, length, om_m, om_c = np.exp(rng.uniform(-3, 3, size=4))
        rs = base_rates(CavityParams(mass=mass, length=length, omega_m=om_m, omega_c=om_c))
        worst = max(
            worst,
            abs(rs.beta - rs.theta * rs.alpha) / np.spacing(abs(rs.beta)),
            abs(rs.gamma - rs.theta**2 * rs.alpha) / np.spacing(abs(rs.gamma)),
        )
    report(6, "rate chain beta=theta*alpha, gamma=theta^2*alpha on 100-pt grid",
           worst <= 4.0, f"worst deviation {worst:.2f} ulp (tol 4)")


def test_criterion_07_squeeze_cross_check():
    worst = 0.0
    for ratio in np.logspace(-2, 2, 81):
        p = CavityParams(omega_m=1.0, omega_c=float(ratio))
        sq = squeeze_parameters(p, 1.0, R_EXACT / ratio**2)
        worst = max(worst, abs(sq.rho_arctanh - sq.rho_closed))
    p0 = CavityParams(omega_m=1.3, omega_c=math.sqrt(R_EXACT) * 1.3)
    sq0 = squeeze_parameters(p0, 1.0, 1.0)
    zero = max(abs(sq0.rho_arctanh), abs(sq0.rho_closed))
    report(7, "squeeze ratio: arctanh vs closed form, phi=0",
           worst <= 1e-10 and zero <= 1e-12,
           f"max gap {worst:.3e} (tol 1e-10), tuned-frequency |rho| {zero:.3e} (tol 1e-12)")


def test_criterion_08_symmetrization():
    _, ops = fock.make_space(8, 8)
    got = fock.symmetrize_matrices([ops.p, ops.p, ops.x], labels=["p", "p", "x"])
    want = (ops.p @ ops.p @ ops.x + ops.p @ ops.x @ ops.p + ops.x @ ops.p @ ops.p) / 3.0
    exact = np.array_equal(got, want)

    import itertools

    facs = [ops.p_mech, ops.p_mech, ops.x, ops.x]
    labels = ["p", "p", "w", "w"]
    n_orderings = len(set(itertools.permutations(labels)))
    naive = np.zeros_like(facs[0])
    for perm in itertools.permutations(range(4)):
        prod = facs[perm[0]]
        for i in perm[1:]:
            prod = prod @ facs[i]
        naive += prod
    naive /= 24.0
    multi = fock.symmetrize_matrices(facs, labels=labels)
    gap = float(np.abs(multi - naive).max())
    report(8, "symmetrization: 3-term identity exact, multiset vs naive",
           exact and n_orderings == 6 and gap < 1e-13,
           f"three-term exact={exact}, orderings={n_orderings}, multiset gap {gap:.3e} (tol 1e-13)")


def test_criterion_09_interior_commutators():
    space, ops = fock.make_space(16, 16)
    eye = lambda b: np.eye(b.shape[0])
    qp = fock.interior_block(fock.commutator(ops.q, ops.p), space)
    r_qp = float(np.abs(qp - 1j * eye(qp)).max())
    _, comm = fock.squared_annihilator(ops)
    cc = fock.interior_block(comm, space)
    target = fock.interior_block(ops.m_op + 0.5 * ops.identity, space)
    r_cc = float(np.abs(cc - target).max())
    r_bog = 0.0
    for rho in (0.1, 1.0, 2.3637):
        A, _ = fock.bogoliubov_pair(rho, ops)
        blk = fock.interior_block(fock.commutator(A, A.dagger()), space)
        r_bog = max(r_bog, float(np.abs(blk - eye(blk)).max()))
    ok = r_qp < 1e-12 and r_cc < 1e-12 and r_bog < 1e-12
    report(9, "interior commutators at cutoff 16", ok,
           f"[Q,P]-iI {r_qp:.2e}, [c,c+]-(m+1/2) {r_cc:.2e}, [A,A+]-I {r_bog:.2e} (tol 1e-12)")


def test_criterion_10_relativistic_structure():
    space, ops = fock.make_space(8, 8)
    p = CavityParams(mass=1.0, length=1.0, omega_m=1.0, omega_c=1.0,
                     chi0=1.0, thickness=0.002)
    d1 = ham.delta_relativistic_first(p, ops)
    d2 = ham.delta_relativistic_second(p, ops)
    half = float(np.abs(d2.data + 0.5 * d1.data).max())

    from optomech.rates import relativistic_rates

    w = relativistic_rates(p, 6)
    kk = np.arange(1, 7)
    # w_{kj} = sqrt(kj) * w_{11} exactly (bitwise, via the product form)
    ratios_exact = np.array_equal(w, np.sqrt(np.outer(kk, kk).astype(float)) * w[0, 0])

    p_fast = CavityParams(mass=1.0, length=1.0, omega_m=1.0, omega_c=1.0,
                          chi0=1.0, thickness=0.002, c=1e12)
    limit = float(np.abs(ham.delta_relativistic(p_fast, ops).data).max())
    ok = half <= 1e-12 and ratios_exact and limit < 1e-12
    report(10, "relativistic half rule, sqrt(kj) ratios, c->inf limit", ok,
           f"half-rule {half:.2e} (tol 1e-12), ratios exact={ratios_exact}, "
           f"entries at c=1e12 {limit:.2e} (tol 1e-12)")


def test_criterion_11_special_case():
    space, ops = fock.make_space(16, 16)
    p = CavityParams(mass=1.0, length=1.0, omega_m=1.0,
                     omega_c=math.sqrt(0.5 * R_EXACT), a_amp=1.0)
    H_half = ham.h4_special_eta(p, ops, eta=0.5)
    # phonon-number block: mech-diagonal, optical-off-diagonal elements
    worst_m_block = 0.0
    for mb in range(14):
        for na in range(14):
            row = mb * 16 + na + 1
            col = mb * 16 + na
            worst_m_block = max(worst_m_block, abs(H_half.data[row, col]))
    H_big = ham.h4_special_eta(p, ops, eta=1e6)
    H_limit = ham.h4_linear_optical(p, ops, branch="plus", convention="special_case")
    gap = float(np.abs(H_big.data - H_limit.data).max())
    ok = worst_m_block < 1e-12 and gap < 1e-4
    report(11, "special case: eta=1/2 kills the phonon-number block; eta=1e6 limit",
           ok, f"m-block max {worst_m_block:.2e} (tol 1e-12), large-eta gap {gap:.3e} (tol 1e-4)")


def test_criterion_12_spectrum_comparison():
    space, ops = fock.make_space(10, 10)
    p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0)  # theta = 1e-2
    rs = base_rates(p)
    assert rs.theta == pytest.approx(1e-2, rel=1e-15)
    e_new = fock.spectrum(ham.new_full(p, ops), 1)[0]
    e_law = fock.spectrum(ham.law_full(p, ops), 1)[0]
    shift = e_new - e_law
    pert = -(p.hbar * rs.beta / 2.0) * rs.R * (p.omega_m / p.omega_c) ** 2 * 0.25
    rel = abs(shift / pert - 1.0)
    ok = rel <= 0.1 and shift < 0.0
    report(12, "ground-state shift vs first-order perturbation at theta=1e-2",
           ok, f"shift {shift:.4e}, estimate {pert:.4e}, rel gap {rel:.2%} (tol 10%), negative={shift < 0}")


def test_criterion_13_cli_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["checks", "--out-dir", str(d1)]) == 0
    assert cli_main(["checks", "--out-dir", str(d2)]) == 0
    f1 = next(iter(sorted(d1.glob("checks-*.json"))))
    f2 = next(iter(sorted(d2.glob("checks-*.json"))))
    same = f1.read_bytes() == f2.read_bytes()
    report(13, "two identical `checks` runs are byte-identical", same,
           f"{f1.name}: {'identical' if same else 'differs'}")
