"""Scalar coupling rates, scaling ratios, and squeeze parameters.

All rates derive from a single parameter set (mirror mass and rest length,
mechanical and optical angular frequencies, drive amplitudes, mirror
susceptibility and thickness).  Conventions used throughout:

* x_zp = sqrt(hbar / (m Omega)) and theta = x_zp / l is the small expansion
  parameter; every interaction order is a factor theta weaker than the last
  (beta = theta * alpha, gamma = theta * beta).
* beta = hbar * omega / (m * Omega * l^2).  An omega-independent variant of
  beta circulates in the literature; it breaks the theta-chain and the
  ratio w/beta of the relativistic correction, so it is not used.  The
  provenance notes emitted by the CLI record this choice.
* R = r_1 / 4 = 0.884967... from the exact self-rate; the rounded
  alternative 0.95 is available through ``r_convention="prose"`` for
  comparison runs, never silently.

Everything here is a pure function of the parameter set.  ``base_rates``
is the one constructor of a ``RateSet``: it builds every scalar rate, and
only the kmax x kmax matrix ``w`` waits for ``all_rates``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import r_coeff

__all__ = [
    "CavityParams",
    "RateSet",
    "SqueezeResult",
    "R_EXACT",
    "R_PROSE",
    "resolve_R",
    "base_rates",
    "all_rates",
    "squeeze_parameters",
    "special_case_frequency",
    "relativistic_rates",
    "theta_low_optical",
]

R_EXACT = r_coeff(1) / 4.0
R_PROSE = 0.95  # rounded literature value, exposed for comparison only


def resolve_R(r_convention: str) -> float:
    if r_convention == "exact":
        return R_EXACT
    if r_convention == "prose":
        return R_PROSE
    raise ValueError(f"unknown r_convention {r_convention!r}; use 'exact' or 'prose'")


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of the driven optomechanical cavity.

    ``a_amp``/``a_phase`` are modulus and phase of the steady-state optical
    amplitude; ``b_amp``/``b_phase`` the mechanical ones.  ``chi0`` and
    ``thickness`` describe the mirror dielectric for the relativistic rates.
    Natural units (c = hbar = 1) by default.
    """

    mass: float = 1.0
    length: float = 1.0
    omega_m: float = 1.0
    omega_c: float = 1.0
    c: float = 1.0
    hbar: float = 1.0
    a_amp: float = 0.0
    a_phase: float = 0.0
    b_amp: float = 0.0
    b_phase: float = 0.0
    chi0: float = 0.0
    thickness: float = 0.0

    def __post_init__(self):
        for name in ("mass", "length", "omega_m", "omega_c", "c", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("a_amp", "b_amp", "chi0", "thickness"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("a_phase", "b_phase"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RateSet:
    """Derived rates of one parameter set, built by ``base_rates``.

    Every scalar field is set there; ``w`` is the only field that depends on
    kmax and stays None until ``all_rates`` fills it.

    Invariants: beta == theta * alpha and gamma == theta * beta exactly as
    built; g4_minus = R (Omega/omega)^2 g4_plus; w_{kj} = sqrt(kj) * w_{11}.
    """

    x_zp: float
    theta: float
    R: float
    alpha: float
    beta: float
    gamma: float
    g0: float
    g3: float
    g4_plus: float
    g4_minus: float
    G4_plus: float
    G4_minus: float
    J: float
    lam: float
    w_over_beta: float
    w: np.ndarray | None = None


def _at(p: CavityParams, *keys: str) -> str:
    return "at " + ", ".join(f"{key} = {getattr(p, key)!r}" for key in keys)


def _divisor(rate: str, expr: str, value: float, p: CavityParams, *keys: str) -> float:
    """``value``, the divisor ``expr`` of ``rate``, unless it underflowed to 0:
    then ZeroDivisionError naming the rate and the keys it is made of."""
    if value == 0.0:
        raise ZeroDivisionError(f"{rate}: division by zero, {expr} underflows to 0 {_at(p, *keys)}")
    return value


def _square(rate: str, expr: str, value: float, p: CavityParams, *keys: str) -> float:
    """value ** 2 by Python's float power, whose rounding the rates artifacts
    depend on, or an OverflowError naming the rate and the keys of ``expr``."""
    try:
        return value**2
    except OverflowError:
        raise OverflowError(f"{rate}: {expr}**2 overflows {_at(p, *keys)}") from None


def base_rates(p: CavityParams, r_convention: str = "exact") -> RateSet:
    """Every scalar rate of the parameter set.

    Single-photon rates: alpha = (omega/l) x_zp, beta = theta*alpha,
    gamma = theta*beta, g0 = alpha/sqrt(2).
    Linearized about the steady-state amplitudes: g3 = g0 |a|;
    g4+ = (beta/2) |a|; g4- = R (Omega/omega)^2 g4+; G4+ = 2 |b| g4+ cos(theta_b);
    G4- = 2 |b| g4- sin(theta_b); J = lambda = 2 beta |a|.
    Relativistic: w/beta = chi0 pi d Omega^2 / (4 c omega), the single-mode
    ratio of the momentum-field rate w_11 to the quadratic rate.
    Raises ZeroDivisionError when m Omega or 4 c omega underflows to 0 and
    OverflowError when (Omega/omega)^2 or Omega^2 overflows, each naming the
    rate and its keys; a rate that overflows to inf is returned as it is.
    """
    x_zp = math.sqrt(p.hbar / _divisor("x_zp", "mass * omega_m", p.mass * p.omega_m,
                                       p, "mass", "omega_m"))
    theta = x_zp / p.length
    R = resolve_R(r_convention)
    alpha = p.omega_c / p.length * x_zp
    beta = theta * alpha
    g0 = alpha / math.sqrt(2.0)
    g4_plus = 0.5 * beta * p.a_amp
    g4_minus = R * _square("g4_minus", "(omega_m / omega_c)", p.omega_m / p.omega_c,
                           p, "omega_m", "omega_c") * g4_plus
    omega_m_sq = _square("w_over_beta", "omega_m", p.omega_m, p, "omega_m")
    w_den = _divisor("w_over_beta", "4 * c * omega_c", 4.0 * p.c * p.omega_c, p, "c", "omega_c")
    return RateSet(
        x_zp=x_zp,
        theta=theta,
        R=R,
        alpha=alpha,
        beta=beta,
        gamma=theta * beta,
        g0=g0,
        g3=g0 * p.a_amp,
        g4_plus=g4_plus,
        g4_minus=g4_minus,
        G4_plus=2.0 * p.b_amp * g4_plus * math.cos(p.b_phase),
        G4_minus=2.0 * p.b_amp * g4_minus * math.sin(p.b_phase),
        J=2.0 * beta * p.a_amp,
        lam=2.0 * beta * p.a_amp,
        w_over_beta=p.chi0 * math.pi * p.thickness * omega_m_sq / w_den,
    )


def relativistic_rates(p: CavityParams, kmax: int) -> np.ndarray:
    """Relativistic momentum-field coupling rate matrix w.

    w_{kj} = sqrt(jk) chi0 pi hbar d Omega / (4 m c l^2).  Vanishes for
    chi0 = 0 and in the c -> infinity limit.  Raises ZeroDivisionError when
    4 m c l^2 underflows to 0 and OverflowError when it overflows.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    keys = ("mass", "c", "length")
    den = _divisor("w", "4 * mass * c * length**2", 4.0 * p.mass * p.c * (p.length * p.length),
                   p, *keys)
    if math.isinf(den):
        raise OverflowError(f"w: 4 * mass * c * length**2 overflows {_at(p, *keys)}")
    w11 = p.chi0 * math.pi * p.hbar * p.thickness * p.omega_m / den
    k = np.arange(1, kmax + 1)
    return np.sqrt(np.outer(k, k).astype(float)) * w11


def all_rates(p: CavityParams, kmax: int = 1, r_convention: str = "exact") -> RateSet:
    """Every scalar rate of ``base_rates`` plus the kmax x kmax matrix w."""
    return replace(base_rates(p, r_convention), w=relativistic_rates(p, kmax))


@dataclass(frozen=True)
class SqueezeResult:
    """Squeeze ratio from both routes, for cross-checking.

    ``rho_arctanh`` inverts the Bogoliubov mixing ratio directly;
    ``rho_closed`` is the closed form ln(omega / (sqrt(R) Omega)) - i phi/2.
    ``note`` flags a branch-cut situation on the real axis (e.g. G4- = 0).
    """

    rho_arctanh: complex
    rho_closed: complex
    note: str | None = None


def squeeze_parameters(
    p: CavityParams, G4p: float, G4m: float, r_convention: str = "exact"
) -> SqueezeResult:
    """Squeeze ratio rho from the mixing rates G4+ and G4-.

    rho_arctanh = arctanh((G4+ - G4- e^{i phi}) / (G4+ + G4- e^{i phi})) with
    phi the optical drive phase; rho_closed is the frequency-ratio closed form.
    Raises on a vanishing denominator.  For arguments on the real branch cut
    (|z| >= 1, e.g. when G4- = 0) the complex principal value is returned and
    a note is attached.
    """
    phase = cmath.exp(1j * p.a_phase)
    den = G4p + G4m * phase
    if den == 0:
        raise ValueError("singular squeeze ratio: G4+ + G4- e^{i phi} = 0")
    z = (G4p - G4m * phase) / den
    note = None
    if z.imag == 0.0 and abs(z.real) >= 1.0:
        note = "argument on the real branch cut (|z| >= 1): principal value returned"
    if z.imag == 0.0 and abs(z.real) == 1.0:
        rho_arctanh = complex(math.copysign(math.inf, z.real), 0.0)
    else:
        rho_arctanh = cmath.atanh(z)
    R = resolve_R(r_convention)
    rho_closed = complex(
        math.log(p.omega_c / (math.sqrt(R) * p.omega_m)), -0.5 * p.a_phase
    )
    return SqueezeResult(rho_arctanh=rho_arctanh, rho_closed=rho_closed, note=note)


def special_case_frequency(eta: float, p: CavityParams, r_convention: str = "exact") -> float:
    """Optical frequency omega = sqrt(eta R) Omega of the tuned special case.

    eta = 1/2 targets the pure two-phonon interaction (omega ~= 0.665 Omega
    with the exact R; the rounded R = 0.95 gives the often-quoted 0.689).
    """
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return math.sqrt(eta * resolve_R(r_convention)) * p.omega_m


def theta_low_optical(p: CavityParams, r_convention: str = "exact") -> float:
    """Enhanced ladder parameter R Omega^2 x_zp / (omega^2 l) for omega << Omega.

    Literal implementation of the low-optical-frequency scaling; kept behind
    an explicit call rather than replacing theta anywhere.
    """
    base = base_rates(p, r_convention)
    return base.R * p.omega_m**2 * base.x_zp / (p.omega_c**2 * p.length)
