"""Hamiltonian variants on the truncated mechanical-optical Fock space.

``new_full`` is the corrected single-mode Hamiltonian: free mirror + spring,
cavity field with its inverse-length frequency dressing expanded about the
rest length, and the symmetrized momentum-field coupling term
-(R/2) beta (Omega/omega)^2 S{P_mech^2 (q/l)^-2} Q^2.  ``law_full`` is the
same construction without that momentum term, so the difference of the two
builds is exactly the momentum coupling.

Expansion bookkeeping: with u = theta X the order-o build uses the truncated
series of (1+u)^{-1/2}, (1+u)^{+1/2} and (1+u)^{-2} for the quadrature
dressing and the squared frequency.  The exact quadratic coefficient of the
squared-frequency series is +3; a printed variant with +4 is exposed behind
``printed_quadratic`` for comparison, deciding nothing.  Inside the momentum
term the inverse square is symmetrized against the squared mechanical
momentum order by order, and the optical quadrature enters undressed; that
choice keeps the builder Hermitian and reproduces the quartic and quintic
interaction coefficients of the order decomposition exactly.

Interaction-order builders (``H012``, ``H3``, ``H4``, ``H5``) follow the
order decomposition; linearized builders implement the drive-amplitude
substitutions a -> abar + a and b -> bbar + b.  For the optically linearized
quadratic term two conventions exist in print that are mutually inconsistent
(they disagree by block-dependent factors); both are exposed:
``convention="printed"`` (the g4+ (b^dag+b)^2 form) and
``convention="special_case"`` (the large-eta limit of the tuned special-case
chain, which is what the special-case builder converges to).

Every term is (mechanical factor) x (optical factor), built on the ladders
``ops.mech`` and ``ops.opt``.  A builder lists its terms as ``(mech, opt)``
factor pairs with its scalars folded into the small mechanical factors, and
its operator is the ``OperatorMatrix`` of one ``ops.assemble`` call, which
keeps the at most four factor pairs; no D x D Kronecker product or sum of
D x D terms is formed, and the dense matrix is written only when something
reads it.  ``assemble`` takes exactly one factor per optical mode, so every
variant but the relativistic correction, whose terms list one factor per
mode, is refused on a space with more than one optical mode.
``build_hamiltonian`` refuses a non-finite entry: it streams the term list's
slices, as exact as a check of the dense matrix and without forming it, at
every dimension.

``BUILDERS`` maps each variant name to its builder and is the one variant
dispatch; ``VARIANTS`` lists its names in table order.  A builder's keyword
parameters are the options its variant takes, so ``build_hamiltonian``
forwards options unchanged and an option the builder does not take raises
Python's own ``TypeError``.
"""

from __future__ import annotations

import cmath

import numpy as np

from .fock import (
    FockSpace,
    ModeOperators,
    OperatorMatrix,
    expand_inverse_power,
    mode_operators,
    symmetrize_matrices,
)
from .rates import CavityParams, base_rates, relativistic_rates

__all__ = [
    "BUILDERS",
    "VARIANTS",
    "build_hamiltonian",
    "h012",
    "h3",
    "h4",
    "h5",
    "new_full",
    "law_full",
    "momentum_coupling_term",
    "h3_linear_optical",
    "h4_linear_optical",
    "h4_linear_mechanical",
    "h4_special_eta",
    "h4_bogoliubov_form",
    "delta_relativistic",
    "delta_relativistic_first",
    "delta_relativistic_second",
    "ground_shift_estimate",
]


def _drive_quadrature(ops: ModeOperators, phase: float) -> np.ndarray:
    """e^{i phi} a^dag + e^{-i phi} a (optical factor)."""
    ph = cmath.exp(1j * phase)
    return ph * ops.opt.adag + np.conj(ph) * ops.opt.a


def _free_mirror(params: CavityParams, ops: ModeOperators) -> tuple:
    """The term hbar Omega (P_mech^2 + X^2)/2."""
    m = ops.mech
    return (0.5 * params.hbar * params.omega_m * (m.p @ m.p + m.x @ m.x), None)


def h012(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Free part: hbar Omega (P_mech^2 + X^2)/2 + hbar omega (P^2 + Q^2)/2."""
    o = ops.opt
    return ops.assemble([
        _free_mirror(params, ops),
        (0.5 * params.hbar * params.omega_c * ops.mech.eye, o.p @ o.p + o.x @ o.x),
    ])


def h3(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Cubic interaction -hbar alpha X (n + 1/2): the standard number-position coupling."""
    rs = base_rates(params)
    return ops.assemble([(-params.hbar * rs.alpha * ops.mech.x, ops.opt.n + 0.5 * ops.opt.eye)])


def h4(params: CavityParams, ops: ModeOperators, r_convention: str = "exact") -> OperatorMatrix:
    """Quartic interaction (hbar beta / 2) [X^2 (P^2 + Q^2) - R (Omega/omega)^2 P_mech^2 Q^2].

    The first piece dominates for omega >> Omega, the momentum-field piece
    for omega << Omega.
    """
    rs = base_rates(params, r_convention)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    m, o = ops.mech, ops.opt
    scale = 0.5 * params.hbar * rs.beta
    return ops.assemble([
        (scale * (m.x @ m.x), o.p @ o.p + o.x @ o.x),
        (-scale * rs.R * ratio2 * (m.p @ m.p), o.x @ o.x),
    ])


def h5(params: CavityParams, ops: ModeOperators, r_convention: str = "exact") -> OperatorMatrix:
    """Quintic interaction hbar gamma [R (Omega/omega)^2 S{P_mech^2 X} Q^2 - X^3 (n + 1/2)]."""
    rs = base_rates(params, r_convention)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    m, o = ops.mech, ops.opt
    sym_ppx = symmetrize_matrices([m.p, m.p, m.x], labels=["p", "p", "x"])
    hg = params.hbar * rs.gamma
    return ops.assemble([
        (hg * (rs.R * ratio2 * sym_ppx), o.x @ o.x),
        (hg * -(m.x @ m.x @ m.x), o.n + 0.5 * o.eye),
    ])


def ground_shift_estimate(params: CavityParams, r_convention: str = "exact") -> float:
    """First-order estimate of the new_full minus law_full ground-state shift:
    -(hbar beta / 2) R (Omega/omega)^2 / 4."""
    rs = base_rates(params, r_convention)
    return -(params.hbar * rs.beta / 2.0) * rs.R * (params.omega_m / params.omega_c) ** 2 * 0.25


def _inverse_square_series(order: int, printed_quadratic: bool) -> list[float]:
    """Truncated series of (1+u)^{-2}: 1, -2, +3, or the printed +4 at second
    order when ``printed_quadratic``."""
    coeffs = list(expand_inverse_power(2, order))
    if printed_quadratic and order >= 2:
        coeffs[2] = 4.0
    return coeffs


def _dressing_polys(theta: float, ops: ModeOperators, order: int, printed_quadratic: bool):
    """Truncated dressing polynomials in u = theta X: momentum-quadrature
    factor (1+u)^{-1/2}, position-quadrature factor (1+u)^{+1/2}, squared
    frequency (1+u)^{-2} (optionally with the printed +4 quadratic term), all
    three as mechanical factors."""
    u_pows = [ops.mech.eye]
    for _ in range(order):
        u_pows.append(u_pows[-1] @ (theta * ops.mech.x))

    def poly(coeffs):
        out = np.zeros_like(ops.mech.eye)
        for i, cv in enumerate(coeffs):
            out = out + cv * u_pows[i]
        return out

    c_p = expand_inverse_power(0.5, order)
    c_q = expand_inverse_power(-0.5, order)
    return poly(c_p), poly(c_q), poly(_inverse_square_series(order, printed_quadratic))


def _momentum_terms(
    params: CavityParams, ops: ModeOperators, order: int, printed_quadratic: bool,
    r_convention: str,
) -> list[tuple]:
    """The momentum-field coupling term of ``momentum_coupling_term``."""
    rs = base_rates(params, r_convention)
    m = ops.mech
    acc = np.zeros_like(m.eye)
    for i, ci in enumerate(_inverse_square_series(order, printed_quadratic)):
        word = [m.p, m.p] + [m.x] * i
        labels = ["p", "p"] + ["x"] * i
        acc = acc + ci * rs.theta**i * symmetrize_matrices(word, labels=labels)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    return [(-0.5 * params.hbar * rs.beta * rs.R * ratio2 * acc, ops.opt.x @ ops.opt.x)]


def momentum_coupling_term(
    params: CavityParams,
    ops: ModeOperators,
    order: int = 1,
    printed_quadratic: bool = False,
    r_convention: str = "exact",
) -> OperatorMatrix:
    """Symmetrized momentum-field coupling
    -(hbar beta / 2) R (Omega/omega)^2 sum_i c_i theta^i S{P_mech^2 X^i} Q^2,
    with c_i the truncated inverse-square series (1, -2, +3)."""
    return ops.assemble(_momentum_terms(params, ops, order, printed_quadratic, r_convention))


def _law_terms(
    params: CavityParams, ops: ModeOperators, order: int, printed_quadratic: bool
) -> list[tuple]:
    """The terms of ``law_full``: free mirror, dressed P^2 and dressed Q^2."""
    rs = base_rates(params)
    f_p, f_q, g_w = _dressing_polys(rs.theta, ops, order, printed_quadratic)
    o = ops.opt
    scale = 0.5 * params.hbar * params.omega_c
    return [
        _free_mirror(params, ops),
        (scale * (f_p @ f_p), o.p @ o.p),
        (scale * (g_w @ f_q @ f_q), o.x @ o.x),
    ]


def law_full(
    params: CavityParams,
    ops: ModeOperators,
    order: int = 1,
    printed_quadratic: bool = False,
) -> OperatorMatrix:
    """Single-mode Hamiltonian without the momentum-field coupling term."""
    return ops.assemble(_law_terms(params, ops, order, printed_quadratic))


def new_full(
    params: CavityParams,
    ops: ModeOperators,
    order: int = 1,
    printed_quadratic: bool = False,
    r_convention: str = "exact",
) -> OperatorMatrix:
    """Corrected single-mode Hamiltonian: the terms of the no-momentum build
    plus the symmetrized momentum-field coupling at the same expansion order."""
    return ops.assemble(_law_terms(params, ops, order, printed_quadratic)
                        + _momentum_terms(params, ops, order, printed_quadratic, r_convention))


def h3_linear_optical(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Optically linearized cubic term -hbar g3 (b^dag + b)(e^{i phi} a^dag + e^{-i phi} a)."""
    rs = base_rates(params)
    return ops.assemble([(-params.hbar * rs.g3 * (ops.mech.adag + ops.mech.a),
                          _drive_quadrature(ops, params.a_phase))])


def h4_linear_optical(
    params: CavityParams,
    ops: ModeOperators,
    branch: str = "plus",
    convention: str = "printed",
    r_convention: str = "exact",
) -> OperatorMatrix:
    """Optically linearized quartic term.

    ``branch="plus"`` is the omega >> Omega form, ``branch="minus"`` the
    omega << Omega momentum form.  ``convention="printed"`` uses the
    g4 coupling with the full squared quadrature; ``convention="special_case"``
    (plus branch only) uses 2 hbar beta |a| [(b^dag^2 + b^2) + m] times the
    drive quadrature, the form the tuned special-case chain converges to as
    eta -> infinity.  The two differ by block-dependent factors; see module
    docstring.
    """
    rs = base_rates(params, r_convention)
    m, o = ops.mech, ops.opt
    if convention == "printed":
        if branch == "plus":
            bb = m.adag + m.a
            term = (params.hbar * rs.g4_plus * bb @ bb, _drive_quadrature(ops, params.a_phase))
        elif branch == "minus":
            bb = m.adag - m.a
            term = (params.hbar * rs.g4_minus * bb @ bb, o.adag + o.a)
        else:
            raise ValueError(f"unknown branch {branch!r}; use 'plus' or 'minus'")
    elif convention == "special_case":
        if branch != "plus":
            raise ValueError("the special-case convention defines only the plus branch")
        b2 = m.adag @ m.adag + m.a @ m.a
        term = (2.0 * params.hbar * rs.beta * params.a_amp * (b2 + m.n),
                _drive_quadrature(ops, params.a_phase))
    else:
        raise ValueError(f"unknown convention {convention!r}; use 'printed' or 'special_case'")
    return ops.assemble([term])


def h4_linear_mechanical(
    params: CavityParams, ops: ModeOperators, branch: str = "plus", r_convention: str = "exact"
) -> OperatorMatrix:
    """Mechanically linearized quartic term: hbar G4+ (b^dag + b)(e^{i phi} a^dag
    + e^{-i phi} a) or hbar G4- (b^dag - b)(a^dag + a)."""
    rs = base_rates(params, r_convention)
    m, o = ops.mech, ops.opt
    if branch == "plus":
        term = (params.hbar * rs.G4_plus * (m.adag + m.a), _drive_quadrature(ops, params.a_phase))
    elif branch == "minus":
        term = (params.hbar * rs.G4_minus * (m.adag - m.a), o.adag + o.a)
    else:
        raise ValueError(f"unknown branch {branch!r}; use 'plus' or 'minus'")
    return ops.assemble([term])


def h4_special_eta(
    params: CavityParams, ops: ModeOperators, eta: float
) -> OperatorMatrix:
    """Interacting quartic Hamiltonian at the tuned frequency omega = sqrt(eta R) Omega.

    2 hbar beta |a| [ (1/2eta)(b^dag^2+b^2) D* + (1+1/2eta) m D + (b^dag^2+b^2) D
    - (1/eta) m D* ] with D = e^{i phi} a^dag + e^{-i phi} a and D* its
    phase-conjugate.  At eta = 1/2 the phonon-number block (1 - 1/2eta)
    vanishes, leaving 2 hbar J (b^dag^2 + b^2)(a^dag + a) with J = 2 beta |a|
    at phi = 0; as eta -> infinity the special-case convention of the
    optically linearized quartic term is recovered.
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    rs = base_rates(params)
    D = _drive_quadrature(ops, params.a_phase)
    Dc = _drive_quadrature(ops, -params.a_phase)
    m = ops.mech
    b2 = m.adag @ m.adag + m.a @ m.a
    inv2 = 0.5 / eta
    scale = 2.0 * params.hbar * rs.beta * params.a_amp
    return ops.assemble([
        (scale * inv2 * b2, Dc),
        (scale * (1.0 + inv2) * m.n, D),
        (scale * b2, D),
        (-scale * (2.0 * inv2) * m.n, Dc),
    ])


def h4_bogoliubov_form(
    params: CavityParams, ops: ModeOperators, r_convention: str = "exact"
) -> OperatorMatrix:
    """Quartic interaction in squeezed-mode form hbar G4 (a B^dag + a^dag B).

    With B = b^dag cosh rho + b sinh rho, tanh rho = (G4+ - G4- e^{i phi}) /
    (G4+ + G4- e^{i phi}) and G4^2 = G4+ G4-, the weights G4 cosh rho and
    G4 sinh rho are linear in the mixing rates, so for every sign of G4+ and G4-
    the build is (hbar/2)[G4+ (b^dag+b)(e^{-i phi/2} a^dag + e^{i phi/2} a)
    + G4- (b^dag-b)(e^{i phi/2} a^dag - e^{-i phi/2} a)] with e^{i phi/2} the
    principal root of e^{i phi}; at phi = 0 the optical factors are a^dag +- a.
    """
    rs = base_rates(params, r_convention)
    half = cmath.sqrt(cmath.exp(1j * params.a_phase))
    m, o = ops.mech, ops.opt
    return ops.assemble([
        (0.5 * params.hbar * rs.G4_plus * (m.adag + m.a), np.conj(half) * o.adag + half * o.a),
        (0.5 * params.hbar * rs.G4_minus * (m.adag - m.a), half * o.adag - np.conj(half) * o.a),
    ])


def _relativistic_terms(params: CavityParams, ops: ModeOperators, scale: float) -> list[tuple]:
    """scale (b^dag - b)^2 sum_{kj} w_{kj} (a_k^dag + a_k)(a_j^dag + a_j), one
    term per mode pair (k, j) with scale w_kj folded into the mechanical factor."""
    n_modes = ops.space.n_modes_opt
    if n_modes > 2:
        raise ValueError("relativistic correction is built for at most two optical modes")
    w = relativistic_rates(params, n_modes)
    bb = (ops.mech.adag - ops.mech.a) @ (ops.mech.adag - ops.mech.a)
    quad = ops.opt.adag + ops.opt.a
    terms = []
    for k in range(n_modes):
        for j in range(n_modes):
            # quad_k on mode k, then quad_j on mode j (quad^2 when k == j)
            slots = [None] * n_modes
            slots[k] = quad
            slots[j] = quad @ quad if j == k else quad
            terms.append((scale * w[k, j] * bb, *slots))
    return terms


def delta_relativistic_first(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """First-order relativistic correction: -2 hbar (b^dag - b)^2 sum w_kj (...)(...)."""
    return ops.assemble(_relativistic_terms(params, ops, -2.0 * params.hbar))


def delta_relativistic_second(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Second-order relativistic correction, identically -1/2 of the first order."""
    return ops.assemble(_relativistic_terms(params, ops, params.hbar))


def delta_relativistic(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Total relativistic correction -hbar (b^dag - b)^2 sum w_kj (...)(...);
    vanishes for chi0 = 0 and as c -> infinity."""
    return ops.assemble(_relativistic_terms(params, ops, -params.hbar))


BUILDERS = {
    "new_full": new_full,
    "law_full": law_full,
    "H012": h012,
    "H3": h3,
    "H4": h4,
    "H5": h5,
    "H3_linear_optical": h3_linear_optical,
    "H4_linear_optical": h4_linear_optical,
    "H4_linear_mechanical": h4_linear_mechanical,
    "H4_special_eta": h4_special_eta,
    "H4_bogoliubov_form": h4_bogoliubov_form,
    "delta_relativistic": delta_relativistic,
}
VARIANTS = tuple(BUILDERS)


def build_hamiltonian(
    variant: str, params: CavityParams, space: FockSpace, **options
) -> OperatorMatrix:
    """Build ``variant`` on ``space`` with its builder in ``BUILDERS``.

    The table is the dispatch: ``options`` go to the builder as keywords, so
    the builder's own parameters name the options a variant takes (``order``
    and ``printed_quadratic`` for the full builds, ``branch``, ``convention``,
    ``eta``, ``r_convention`` where R enters).  An unknown variant raises
    ``ValueError``, an option the builder does not take ``TypeError``, a value
    the builder refuses (such as a space with more optical modes than the
    variant has) ``ValueError`` naming the variant, and an arithmetic error or
    non-finite entry ``ArithmeticError`` naming the variant.
    """
    builder = BUILDERS.get(variant)
    if builder is None:
        raise ValueError(f"unknown Hamiltonian variant {variant!r}")
    try:
        with np.errstate(all="ignore"):
            H = builder(params, mode_operators(space), **options)
            finite = H._entry_stats[2]
    except (ArithmeticError, ValueError) as exc:
        kind = ArithmeticError if isinstance(exc, ArithmeticError) else ValueError
        raise kind(f"the {variant} Hamiltonian cannot be built: {exc}") from exc
    if not finite:
        raise ArithmeticError(f"the {variant} Hamiltonian has a non-finite entry")
    return H
