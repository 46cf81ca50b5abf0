"""Executable identity checks: every structural identity of the model turned
into a named residual with a tolerance.

``run_checks`` evaluates the full battery at desk scale and returns a
CheckReport; the CLI serializes it deterministically.  Residual values are
computed by the library modules; nothing here does its own physics.  They are
folded with ``np.max``, which keeps a NaN that Python's ``max`` can drop, so a
NaN residual fails its entry.

Every operator identity between two Hamiltonian term lists is one relative
gap (``_gap``), so it can fail at any unit scale; an identity that holds by
construction of the term lists is a tier-1 test of their factor pairs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coefficients as coef
from . import fock
from . import hamiltonians as ham
from .dynamics import ClassicalState, MirrorParams, field_accel_law, field_accel_new
from .rates import CavityParams, R_EXACT, base_rates, squeeze_parameters

__all__ = ["CheckEntry", "CheckReport", "GRAM_RULE_TOL", "SUM_RULE_KMAX", "SUM_RULE_TOL",
           "run_checks"]

# the diagonal sum rule is checked for modes k = 1..SUM_RULE_KMAX
SUM_RULE_KMAX = 5
SUM_RULE_TOL = 1e-4  # residual bound of the diagonal sum rule
GRAM_RULE_TOL = 1e-3  # residual bound of the Gram sum rule


@dataclass(frozen=True)
class CheckEntry:
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


@dataclass
class CheckReport:
    entries: list[CheckEntry] = field(default_factory=list)
    notes: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, value: float, tolerance: float) -> None:
        self.entries.append(CheckEntry(name, float(value), float(tolerance)))

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": e.name, "value": e.value, "tolerance": e.tolerance, "passed": e.passed}
                for e in self.entries
            ],
            "notes": dict(sorted(self.notes.items())),
        }


def _series_checks(report: CheckReport, jmax: int, ltrunc: int, kmax: int) -> None:
    worst = np.max([coef.verify_g_squared_sum(k, jmax, tail_correct=True)
                    for k in range(1, SUM_RULE_KMAX + 1)])
    report.add(f"mode_sum_rule_max_k1to{SUM_RULE_KMAX}", worst, SUM_RULE_TOL)
    resid = coef.gram_residual(kmax, ltrunc)
    report.add("gram_identity_max", float(resid.max()), GRAM_RULE_TOL)
    r_lo = coef.verify_gram_identity(kmax, 10**3, tail_correct=False)
    r_hi = coef.verify_gram_identity(kmax, 10**4, tail_correct=False)
    report.add("gram_residual_scaling_ratio_dev", abs(r_lo / r_hi - 10.0), 2.0)
    # tail-corrected residual against the fitted next-order term -2kj/L^2
    modes = np.arange(1, kmax + 1, dtype=float)
    next_order = 2.0 * np.outer(modes, modes) / ltrunc**2
    report.add("gram_tail_vs_next_order_max", float((resid / next_order).max()), 10.0)
    bad = 0
    for kk in range(1, 65):
        for jj in range(1, 65):
            if kk != jj and coef.d_exact(kk, jj) != (coef.h_exact(kk, jj) + coef.h_exact(jj, kk)) / 2:
                bad += 1
    report.add("d_equals_sym_h_exact_rational_violations", bad, 0)


def _dynamics_checks(report: CheckReport) -> None:
    table = coef.build_table(1)
    params = MirrorParams(mass=1.0, length=1.0, omega_m=1.0, c=1.0, kmax=1)
    state = ClassicalState(t=0.0, q=1.1, qdot=0.3, Q=np.array([0.7]), Qdot=np.array([0.2]))
    a_new = field_accel_new(state, table, params, qddot=0.0)
    a_law = field_accel_law(state, table, params, qddot=0.0, inner_cutoff=1)
    expected = table.r[0] * (state.qdot / state.q) ** 2 * state.Q
    report.add("single_mode_formulation_gap", float(abs(a_new - a_law - expected).max()), 1e-10)


def _rate_checks(report: CheckReport, params: CavityParams) -> None:
    rng = np.random.default_rng(20170402)
    worst = 0.0
    for _ in range(100):
        mass, length, om_m, om_c = np.exp(rng.uniform(-3, 3, size=4))
        p = CavityParams(mass=mass, length=length, omega_m=om_m, omega_c=om_c)
        rs = base_rates(p)
        dev_b = abs(rs.beta - rs.theta * rs.alpha) / np.spacing(max(abs(rs.beta), 5e-324))
        dev_g = abs(rs.gamma - rs.theta**2 * rs.alpha) / np.spacing(max(abs(rs.gamma), 5e-324))
        worst = np.max([worst, dev_b, dev_g])
    report.add("rate_chain_ulp", worst, 4.0)

    squeezes = [squeeze_parameters(CavityParams(omega_m=1.0, omega_c=float(ratio)), 1.0,
                                   R_EXACT / ratio**2) for ratio in np.logspace(-2, 2, 41)]
    report.add("squeeze_cross_check_max",
               np.max([abs(sq.rho_arctanh - sq.rho_closed) for sq in squeezes]), 1e-10)
    p0 = CavityParams(omega_m=1.0, omega_c=math.sqrt(R_EXACT) * 1.0)
    sq0 = squeeze_parameters(p0, 1.0, 1.0)
    report.add("squeeze_zero_at_tuned_frequency", abs(sq0.rho_closed), 1e-12)

    rs = base_rates(params)
    report.add(
        "g4_branch_ratio",
        abs(rs.g4_minus - rs.R * (params.omega_m / params.omega_c) ** 2 * rs.g4_plus),
        0.0,
    )


def _fock_checks(report: CheckReport) -> None:
    space, ops = fock.make_space(16, 16)
    p, x = ops.mech.p, ops.mech.x

    # single-mode identities on the 16-level ladders; the interior block drops the top 2 levels
    comm_qp = fock.commutator(ops.opt.x, ops.opt.p)[:-2, :-2]
    report.add("commutator_qp_interior",
               float(np.abs(comm_qp - 1j * np.eye(len(comm_qp))).max()), 1e-12)

    # the lifted identities: only the lift sees the spectator factor
    _, comm = fock.squared_annihilator(ops)
    target = fock.interior_block(ops.m_op + 0.5 * ops.identity, space)
    report.add("squared_annihilator_commutator_interior",
               float(np.abs(fock.interior_block(comm, space) - target).max()), 1e-12)

    devs = []
    for rho in (0.1, 1.0, 2.3637):
        A, _ = fock.bogoliubov_pair(rho, ops)
        inner = fock.interior_block(fock.commutator(A, A.dagger()), space)
        devs.append(np.abs(inner - np.eye(len(inner))).max())
    report.add("bogoliubov_commutator_interior", np.max(devs), 1e-12)

    # all-orderings average against the explicit three-term form, on the word h5 symmetrizes
    sym = fock.symmetrize_matrices([p, p, x], labels=["p", "p", "x"])
    explicit = (p @ p @ x + p @ x @ p + x @ p @ p) / 3.0
    report.add("symmetrize_three_term", float(np.abs(sym - explicit).max()), 1e-14)
    # the 24-ordering reference needs no product space: single-mode factors
    facs = [p, p, x, x]
    naive = np.zeros_like(ops.mech.eye)
    for perm in itertools.permutations(range(4)):
        prod = facs[perm[0]]
        for i in perm[1:]:
            prod = prod @ facs[i]
        naive = naive + prod
    naive /= 24.0
    multi = fock.symmetrize_matrices(facs, labels=["p", "p", "x", "x"])
    report.add("symmetrize_multiset_vs_naive", float(np.abs(multi - naive).max()), 1e-13)


def _gap(H: fock.OperatorMatrix, G: fock.OperatorMatrix) -> float:
    """max|H - G| over the larger of max|H| and max|G|, each streamed off a term
    list (H - G is one, G's mechanical factors negated); 0 when both are zero,
    and NaN or inf, which fails any tolerance, for a non-finite operand."""
    diff = fock.OperatorMatrix(H.space, H.terms + tuple((-m, o) for m, o in G.terms))
    top = float(np.max([H._entry_stats[0], G._entry_stats[0]]))  # np.max keeps a NaN
    return diff._entry_stats[0] / top if top else 0.0


def _hamiltonian_checks(report: CheckReport, params: CavityParams) -> None:
    """Variant cross-identities at 8 x 8.  A variant that fails to build
    (``ArithmeticError``) is named in the ``failed_builds`` note, and every
    entry that needs it is recorded as inf, so the rest of the battery is
    still reported."""
    space, ops = fock.make_space(8, 8)
    rel_params = dataclasses.replace(
        params, a_amp=params.a_amp or 1.0, b_amp=params.b_amp or 1.0, b_phase=math.pi / 4,
        chi0=1.0, thickness=0.01 * params.length,
    )
    builds, failed = {}, {}
    for variant in ham.VARIANTS:
        eta = {"eta": 0.5} if variant == "H4_special_eta" else {}
        try:
            builds[variant] = ham.build_hamiltonian(variant, rel_params, space, **eta)
        except ArithmeticError as exc:
            failed[variant] = str(exc)
    if failed:
        report.notes["failed_builds"] = "; ".join(failed.values())

    def add(name: str, needs: set[str], residual, tolerance: float) -> None:
        report.add(name, math.inf if failed.keys() & needs else residual(), tolerance)

    def hermiticity() -> float:  # over the streamed max|H| at any scale; a zero matrix reads 0
        return np.max([H.hermiticity_defect() / (H._entry_stats[0] or 1.0) for H in builds.values()])

    add("hermiticity_relative_max", set(ham.VARIANTS), hermiticity, 1e-12)

    # tuned special case: phonon-number block vanishes at eta = 1/2, and the
    # rest reduces to the two-phonon form only at drive phase 0
    def special_eta_half() -> float:
        h_half = ham.h4_special_eta(dataclasses.replace(rel_params, a_phase=0.0), ops, 0.5)
        m, o = ops.mech, ops.opt
        two_j = 2.0 * base_rates(rel_params).J
        target = ops.assemble([(rel_params.hbar * two_j * (m.adag @ m.adag + m.a @ m.a),
                                o.adag + o.a)])
        return _gap(h_half, target)

    add("special_eta_half_matches_two_phonon_form", {"H4_special_eta"}, special_eta_half, 1e-12)

    def special_eta_limit() -> float:
        h_lim = ham.h4_linear_optical(rel_params, ops, branch="plus", convention="special_case")
        return _gap(ham.h4_special_eta(rel_params, ops, 1e6), h_lim)

    add("special_eta_large_limit", {"H4_special_eta", "H4_linear_optical"}, special_eta_limit,
        1e-4)


def _spectrum_check(report: CheckReport) -> None:
    space, ops = fock.make_space(10, 10)
    p = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0)
    e_new = fock.spectrum(ham.new_full(p, ops), 1)[0]
    e_law = fock.spectrum(ham.law_full(p, ops), 1)[0]
    shift = e_new - e_law
    pert = ham.ground_shift_estimate(p)
    report.add("ground_shift_vs_perturbation_rel", abs(shift / pert - 1.0), 0.1)
    report.add("ground_shift_sign", 0.0 if shift < 0 else 1.0, 0.0)


def run_checks(
    jmax: int = 10**4,
    ltrunc: int = 10**4,
    kmax: int = 8,
    params: CavityParams | None = None,
) -> CheckReport:
    """Evaluate the full identity battery and collect provenance notes."""
    if params is None:
        params = CavityParams(mass=1.0, length=100.0, omega_m=1.0, omega_c=2.0, a_amp=1.0, b_amp=1.0)
    report = CheckReport()
    _series_checks(report, jmax, ltrunc, kmax)
    _dynamics_checks(report)
    _rate_checks(report, params)
    _fock_checks(report)
    _hamiltonian_checks(report, params)
    _spectrum_check(report)
    report.notes.update(
        {
            "r_convention": "self-rate r_1 = pi^2/3 + 1/4 = 3.539868... (R = 0.884967...); "
            "the rounded prose value 3.8 (R = 0.95) is available via r_convention='prose'",
            "beta_convention": "beta = hbar*omega/(m*Omega*l^2) = theta*alpha; the "
            "omega-independent printed variant breaks the theta chain and is not used",
            "g4_plus_convention": "g4+ = (beta/2)|a|; the alternative theta*g3 value equals "
            "it up to a factor sqrt(2) and is reported, not adopted",
            "quadratic_dressing": "squared-frequency series uses the exact +3 u^2 "
            "coefficient; printed_quadratic=True switches to the printed +4",
            "linear_optical_conventions": "printed (g4+ (b^dag+b)^2) and special_case "
            "(large-eta limit) forms differ by block-dependent factors; both are exposed",
            "theta_low_optical": "the omega << Omega scaling R*Omega^2*x_zp/(omega^2*l) "
            "is behind an explicit call, never a silent default",
        }
    )
    return report
