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
``ops.mech`` and ``ops.opt`` and lifted once with ``ops.lift``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .fock import (
    FockSpace,
    ModeOperators,
    OperatorMatrix,
    expand_inverse_power,
    mode_operators,
    symmetrize_matrices,
)
from .rates import CavityParams, base_rates, linearized_rates, relativistic_rates

__all__ = [
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

VARIANTS = (
    "new_full",
    "law_full",
    "H012",
    "H3",
    "H4",
    "H5",
    "H3_linear_optical",
    "H4_linear_optical",
    "H4_linear_mechanical",
    "H4_special_eta",
    "H4_bogoliubov_form",
    "delta_relativistic",
)


def _require_single_optical(ops: ModeOperators, variant: str) -> None:
    if ops.space.n_modes_opt != 1:
        raise ValueError(f"variant {variant} is defined for a single optical mode")


def _drive_quadrature(ops: ModeOperators, phase: float) -> np.ndarray:
    """e^{i phi} a^dag + e^{-i phi} a (optical factor)."""
    ph = cmath.exp(1j * phase)
    return ph * ops.opt.adag + np.conj(ph) * ops.opt.a


def _free_mirror(params: CavityParams, ops: ModeOperators) -> np.ndarray:
    """hbar Omega (P_mech^2 + X^2)/2."""
    m = ops.mech
    return 0.5 * params.hbar * params.omega_m * ops.lift(m.p @ m.p + m.x @ m.x)


def h012(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Free part: hbar Omega (P_mech^2 + X^2)/2 + hbar omega (P^2 + Q^2)/2."""
    _require_single_optical(ops, "H012")
    o = ops.opt
    data = _free_mirror(params, ops) + \
        0.5 * params.hbar * params.omega_c * ops.lift(None, o.p @ o.p + o.x @ o.x)
    return ops.wrap(data)


def h3(params: CavityParams, ops: ModeOperators, r_convention: str = "exact") -> OperatorMatrix:
    """Cubic interaction -hbar alpha X (n + 1/2): the standard number-position coupling."""
    _require_single_optical(ops, "H3")
    rs = base_rates(params, r_convention)
    data = ops.lift(-params.hbar * rs.alpha * ops.mech.x, ops.opt.n + 0.5 * ops.opt.eye)
    return ops.wrap(data)


def h4(params: CavityParams, ops: ModeOperators, r_convention: str = "exact") -> OperatorMatrix:
    """Quartic interaction (hbar beta / 2) [X^2 (P^2 + Q^2) - R (Omega/omega)^2 P_mech^2 Q^2].

    The first piece dominates for omega >> Omega, the momentum-field piece
    for omega << Omega.
    """
    _require_single_optical(ops, "H4")
    rs = base_rates(params, r_convention)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    m, o = ops.mech, ops.opt
    data = 0.5 * params.hbar * rs.beta * (
        ops.lift(m.x @ m.x, o.p @ o.p + o.x @ o.x)
        - ops.lift(rs.R * ratio2 * (m.p @ m.p), o.x @ o.x)
    )
    return ops.wrap(data)


def h5(params: CavityParams, ops: ModeOperators, r_convention: str = "exact") -> OperatorMatrix:
    """Quintic interaction hbar gamma [R (Omega/omega)^2 S{P_mech^2 X} Q^2 - X^3 (n + 1/2)]."""
    _require_single_optical(ops, "H5")
    rs = base_rates(params, r_convention)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    m, o = ops.mech, ops.opt
    sym_ppx = symmetrize_matrices([m.p, m.p, m.x], labels=["p", "p", "x"])
    data = params.hbar * rs.gamma * (
        ops.lift(rs.R * ratio2 * sym_ppx, o.x @ o.x)
        - ops.lift(m.x @ m.x @ m.x, o.n + 0.5 * o.eye)
    )
    return ops.wrap(data)


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
    for _ in range(2 * order):
        u_pows.append(u_pows[-1] @ (theta * ops.mech.x))

    def poly(coeffs):
        out = np.zeros_like(ops.mech.eye)
        for i, cv in enumerate(coeffs):
            out = out + cv * u_pows[i]
        return out

    c_p = expand_inverse_power(0.5, order)
    c_q = expand_inverse_power(-0.5, order)
    return poly(c_p), poly(c_q), poly(_inverse_square_series(order, printed_quadratic))


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
    _require_single_optical(ops, "momentum_coupling_term")
    rs = base_rates(params, r_convention)
    m = ops.mech
    acc = np.zeros_like(m.eye)
    for i, ci in enumerate(_inverse_square_series(order, printed_quadratic)):
        word = [m.p, m.p] + [m.x] * i
        labels = ["p", "p"] + ["x"] * i
        acc = acc + ci * rs.theta**i * symmetrize_matrices(word, labels=labels)
    ratio2 = (params.omega_m / params.omega_c) ** 2
    data = ops.lift(-0.5 * params.hbar * rs.beta * rs.R * ratio2 * acc, ops.opt.x @ ops.opt.x)
    return ops.wrap(data)


def law_full(
    params: CavityParams,
    ops: ModeOperators,
    order: int = 1,
    printed_quadratic: bool = False,
) -> OperatorMatrix:
    """Single-mode Hamiltonian without the momentum-field coupling term."""
    _require_single_optical(ops, "law_full")
    rs = base_rates(params)
    f_p, f_q, g_w = _dressing_polys(rs.theta, ops, order, printed_quadratic)
    o = ops.opt
    data = _free_mirror(params, ops) + 0.5 * params.hbar * params.omega_c * (
        ops.lift(f_p @ f_p, o.p @ o.p) + ops.lift(g_w @ f_q @ f_q, o.x @ o.x)
    )
    return ops.wrap(data)


def new_full(
    params: CavityParams,
    ops: ModeOperators,
    order: int = 1,
    printed_quadratic: bool = False,
    r_convention: str = "exact",
) -> OperatorMatrix:
    """Corrected single-mode Hamiltonian: the no-momentum build plus the
    symmetrized momentum-field coupling at the same expansion order."""
    base = law_full(params, ops, order, printed_quadratic)
    mom = momentum_coupling_term(params, ops, order, printed_quadratic, r_convention)
    return ops.wrap(base.data + mom.data)


def h3_linear_optical(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Optically linearized cubic term -hbar g3 (b^dag + b)(e^{i phi} a^dag + e^{-i phi} a)."""
    _require_single_optical(ops, "H3_linear_optical")
    rs = linearized_rates(params, base_rates(params))
    data = ops.lift(-params.hbar * rs.g3 * (ops.mech.adag + ops.mech.a),
                    _drive_quadrature(ops, params.a_phase))
    return ops.wrap(data)


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
    _require_single_optical(ops, "H4_linear_optical")
    rs = linearized_rates(params, base_rates(params, r_convention))
    m, o = ops.mech, ops.opt
    if convention == "printed":
        if branch == "plus":
            bb = m.adag + m.a
            data = ops.lift(params.hbar * rs.g4_plus * bb @ bb,
                            _drive_quadrature(ops, params.a_phase))
        elif branch == "minus":
            bb = m.adag - m.a
            data = ops.lift(params.hbar * rs.g4_minus * bb @ bb, o.adag + o.a)
        else:
            raise ValueError(f"unknown branch {branch!r}; use 'plus' or 'minus'")
        return ops.wrap(data)
    if convention == "special_case":
        if branch != "plus":
            raise ValueError("the special-case convention defines only the plus branch")
        b2 = m.adag @ m.adag + m.a @ m.a
        data = ops.lift(2.0 * params.hbar * rs.beta * params.a_amp * (b2 + m.n),
                        _drive_quadrature(ops, params.a_phase))
        return ops.wrap(data)
    raise ValueError(f"unknown convention {convention!r}; use 'printed' or 'special_case'")


def h4_linear_mechanical(
    params: CavityParams, ops: ModeOperators, branch: str = "plus", r_convention: str = "exact"
) -> OperatorMatrix:
    """Mechanically linearized quartic term: hbar G4+ (b^dag + b)(e^{i phi} a^dag
    + e^{-i phi} a) or hbar G4- (b^dag - b)(a^dag + a)."""
    _require_single_optical(ops, "H4_linear_mechanical")
    rs = linearized_rates(params, base_rates(params, r_convention))
    m, o = ops.mech, ops.opt
    if branch == "plus":
        data = ops.lift(params.hbar * rs.G4_plus * (m.adag + m.a),
                        _drive_quadrature(ops, params.a_phase))
    elif branch == "minus":
        data = ops.lift(params.hbar * rs.G4_minus * (m.adag - m.a), o.adag + o.a)
    else:
        raise ValueError(f"unknown branch {branch!r}; use 'plus' or 'minus'")
    return ops.wrap(data)


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
    _require_single_optical(ops, "H4_special_eta")
    if eta <= 0:
        raise ValueError("eta must be > 0")
    rs = base_rates(params)
    D = _drive_quadrature(ops, params.a_phase)
    Dc = _drive_quadrature(ops, -params.a_phase)
    m = ops.mech
    b2 = m.adag @ m.adag + m.a @ m.a
    inv2 = 0.5 / eta
    data = 2.0 * params.hbar * rs.beta * params.a_amp * (
        ops.lift(inv2 * b2, Dc)
        + ops.lift((1.0 + inv2) * m.n, D)
        + ops.lift(b2, D)
        - ops.lift((2.0 * inv2) * m.n, Dc)
    )
    return ops.wrap(data)


def h4_bogoliubov_form(
    params: CavityParams, ops: ModeOperators, r_convention: str = "exact"
) -> OperatorMatrix:
    """Quartic interaction in squeezed-mode form hbar G4 (a B^dag + a^dag B).

    B mixes the mechanical ladder with cosh/sinh weights of the squeeze ratio
    rho = arctanh((G4+ - G4- e^{i phi})/(G4+ + G4- e^{i phi})); G4 is the
    geometric mean of the mixing rates.  For real rho this equals
    (hbar/2)[G4+ (b^dag+b)(a^dag+a) + G4- (b^dag-b)(a^dag-a)].
    """
    _require_single_optical(ops, "H4_bogoliubov_form")
    rs = linearized_rates(params, base_rates(params, r_convention))
    G4p, G4m = rs.G4_plus, rs.G4_minus
    G4 = math.sqrt(max(G4p * G4m, 0.0))
    if G4 == 0.0:
        return ops.wrap(np.zeros((ops.space.dim,) * 2, dtype=complex))
    ph = cmath.exp(1j * params.a_phase)
    rho = np.arctanh((G4p - G4m * ph) / (G4p + G4m * ph))
    B = ops.mech.adag * np.cosh(rho) + ops.mech.a * np.sinh(rho)
    half = ops.lift(B.conj().T, params.hbar * G4 * ops.opt.a)
    data = half + half.conj().T
    return ops.wrap(data)


def _relativistic_common(params: CavityParams, ops: ModeOperators) -> np.ndarray:
    """(b^dag - b)^2 sum_{kj} w_{kj} (a_k^dag + a_k)(a_j^dag + a_j)."""
    n_modes = ops.space.n_modes_opt
    if n_modes > 2:
        raise ValueError("relativistic correction is built for at most two optical modes")
    w, _ = relativistic_rates(params, n_modes)
    bb = (ops.mech.adag - ops.mech.a) @ (ops.mech.adag - ops.mech.a)
    quad = ops.opt.adag + ops.opt.a
    acc = np.zeros((ops.space.dim,) * 2, dtype=complex)
    for k in range(n_modes):
        for j in range(n_modes):
            # w_kj quad_k on mode k, then quad_j on mode j (quad^2 when k == j)
            slots = [None] * n_modes
            slots[k] = w[k, j] * quad
            slots[j] = quad if slots[j] is None else slots[j] @ quad
            acc = acc + ops.lift(bb, *slots)
    return acc


def delta_relativistic_first(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """First-order relativistic correction: -2 hbar (b^dag - b)^2 sum w_kj (...)(...)."""
    return ops.wrap(-2.0 * params.hbar * _relativistic_common(params, ops))


def delta_relativistic_second(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Second-order relativistic correction, identically -1/2 of the first order."""
    return ops.wrap(params.hbar * _relativistic_common(params, ops))


def delta_relativistic(params: CavityParams, ops: ModeOperators) -> OperatorMatrix:
    """Total relativistic correction -hbar (b^dag - b)^2 sum w_kj (...)(...);
    vanishes for chi0 = 0 and as c -> infinity."""
    return ops.wrap(-params.hbar * _relativistic_common(params, ops))


def build_hamiltonian(
    variant: str,
    params: CavityParams,
    space: FockSpace,
    order: int = 1,
    **options,
) -> OperatorMatrix:
    """Dispatch a Hamiltonian variant build on the given space.

    ``order`` applies to the full builds; variant-specific keywords:
    ``branch`` (linearized quartic), ``convention`` (optically linearized
    quartic), ``eta`` (special case), ``printed_quadratic`` (full builds),
    ``r_convention``.
    """
    ops = mode_operators(space)
    r_convention = options.pop("r_convention", "exact")
    printed_quadratic = options.pop("printed_quadratic", False)
    if variant == "new_full":
        out = new_full(params, ops, order, printed_quadratic, r_convention)
    elif variant == "law_full":
        out = law_full(params, ops, order, printed_quadratic)
    elif variant == "H012":
        out = h012(params, ops)
    elif variant == "H3":
        out = h3(params, ops, r_convention)
    elif variant == "H4":
        out = h4(params, ops, r_convention)
    elif variant == "H5":
        out = h5(params, ops, r_convention)
    elif variant == "H3_linear_optical":
        out = h3_linear_optical(params, ops)
    elif variant == "H4_linear_optical":
        out = h4_linear_optical(
            params, ops, options.pop("branch", "plus"), options.pop("convention", "printed"),
            r_convention,
        )
    elif variant == "H4_linear_mechanical":
        out = h4_linear_mechanical(params, ops, options.pop("branch", "plus"), r_convention)
    elif variant == "H4_special_eta":
        eta = options.pop("eta", None)
        if eta is None:
            raise TypeError("H4_special_eta requires an eta=... option")
        out = h4_special_eta(params, ops, eta)
    elif variant == "H4_bogoliubov_form":
        out = h4_bogoliubov_form(params, ops, r_convention)
    elif variant == "delta_relativistic":
        out = delta_relativistic(params, ops)
    else:
        raise ValueError(f"unknown Hamiltonian variant {variant!r}")
    if options:
        raise TypeError(f"unused options for variant {variant}: {sorted(options)}")
    return out
