"""Mode-coupling coefficients of a cavity with one movable mirror.

Expanding the intracavity field on the instantaneous mode basis of a
variable-length cavity produces four coefficient families: the antisymmetric
velocity coupling g_{kj}, the non-symmetric acceleration-type coupling h_{kj},
its symmetrized combination d_{kj}, and the diagonal self-rate
r_k = k^2 pi^2 / 3 + 1/4.  Closed forms:

    g_{kj} = 2 (-1)^{k+j} k j / (j^2 - k^2)             (k != j, zero diagonal)
    h_{kj} = 8 (-1)^{k+j} k j^3 / (k^2 - j^2)^2         (k != j, zero diagonal)
    d_{kj} = (h_{kj} + h_{jk}) / 2                      (k != j),  d_{kk} = r_k

Each family is one closed form over broadcast integer index arrays (a float
for scalar indices), and d is computed from h and r; the ``*_exact`` rationals
are the independent reference.

Two slowly convergent sum rules tie the families together:

    sum_{j != k} g_{kj}^2      -> r_k        (diagonal sum rule)
    sum_{l}      g_{kl} g_{jl} -> d_{kj}     (Gram sum rule)

Both partial sums converge like 1/L.  The analytic leading tail of the Gram
sum beyond a truncation L is 4 k j (-1)^{k+j} / L (the diagonal rule is the
k = j case); the empirically fitted next-order term is -2 k j / L^2, which is
what limits the accuracy of tail-corrected residuals (``gram_residual``).

Tables are built eagerly and frozen; everything in this module is a pure
function of integer indices, so sharing tables across workers is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "CoefficientTable",
    "build_table",
    "g_coeff",
    "h_coeff",
    "d_coeff",
    "r_coeff",
    "g_exact",
    "h_exact",
    "d_exact",
    "gram_matrix",
    "gram_residual",
    "verify_g_squared_sum",
    "verify_gram_identity",
]


def _lookup(values: np.ndarray) -> float | np.ndarray:
    # a float for scalar indices, the array for index arrays
    return values if values.ndim else float(values)


def _off_diagonal(form, k, j) -> float | np.ndarray:
    # evaluates a closed form that divides by zero at k == j, where it vanishes
    k, j = np.asarray(k, dtype=float), np.asarray(j, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.asarray(form(k, j))
    values[k == j] = 0.0
    return _lookup(values)


def g_coeff(k, j) -> float | np.ndarray:
    """Antisymmetric velocity-coupling coefficient g_{kj}."""
    return _off_diagonal(lambda k, j: 2.0 * (-1.0) ** (k + j) * k * j / (j * j - k * k), k, j)


def h_coeff(k, j) -> float | np.ndarray:
    """Acceleration-type coupling coefficient h_{kj} (not symmetric)."""
    return _off_diagonal(lambda k, j: 8.0 * (-1.0) ** (k + j) * k * j**3 / (k * k - j * j) ** 2,
                         k, j)


def r_coeff(k) -> float | np.ndarray:
    """Diagonal self-rate r_k = k^2 pi^2 / 3 + 1/4.

    Note r_1 = 3.539868..., i.e. r_1 / 4 = 0.884967...; a commonly quoted
    rounded value of 3.8 (giving 0.95) is deliberately not used here.
    """
    k = np.asarray(k, dtype=float)
    return _lookup(k * k * np.pi**2 / 3.0 + 0.25)


def d_coeff(k, j) -> float | np.ndarray:
    """Symmetrized coupling d_{kj} = (h_{kj} + h_{jk}) / 2, r_k on the diagonal."""
    return _lookup(np.where(k == j, r_coeff(k), 0.5 * (h_coeff(k, j) + h_coeff(j, k))))


def g_exact(k: int, j: int) -> Fraction:
    """g_{kj} as an exact rational."""
    if k == j:
        return Fraction(0)
    return Fraction(2 * (-1) ** (k + j) * k * j, j * j - k * k)


def h_exact(k: int, j: int) -> Fraction:
    """h_{kj} as an exact rational."""
    if k == j:
        return Fraction(0)
    return Fraction(8 * (-1) ** (k + j) * k * j**3, (k * k - j * j) ** 2)


def d_exact(k: int, j: int) -> Fraction:
    """d_{kj} as an exact rational, off-diagonal only (the diagonal is irrational)."""
    if k == j:
        raise ValueError("d_exact is defined off-diagonal only; d_kk = r_k contains pi^2")
    return Fraction(4 * (-1) ** (k + j) * k * j * (k * k + j * j), (k * k - j * j) ** 2)


@dataclass(frozen=True)
class CoefficientTable:
    """Frozen table of the four coefficient families up to mode cutoff kmax.

    Matrix entry [k-1, j-1] holds the coefficient for mode pair (k, j).
    d is assembled as (h + h^T)/2 with r on the diagonal, so the symmetry
    invariants hold by construction.
    """

    kmax: int
    g: np.ndarray
    h: np.ndarray
    d: np.ndarray
    r: np.ndarray


def build_table(kmax: int) -> CoefficientTable:
    """Populate all four families up to kmax from the closed forms."""
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    k = np.arange(1, kmax + 1, dtype=float)
    g, h, d, r = (g_coeff(k[:, None], k), h_coeff(k[:, None], k),
                  d_coeff(k[:, None], k), r_coeff(k))
    for arr in (g, h, d, r):
        arr.flags.writeable = False
    return CoefficientTable(kmax=kmax, g=g, h=h, d=d, r=r)


def verify_g_squared_sum(k: int, jmax: int, tail_correct: bool = True) -> float:
    """Residual of the diagonal sum rule sum_{j != k} g_{kj}^2 -> r_k.

    Sums j <= jmax and, if `tail_correct`, adds the analytic tail estimate
    4 k^2 / jmax (the summand behaves as 4 k^2 / j^2 for j >> k).  Returns
    the absolute deviation from r_k.
    """
    if k < 1:
        raise ValueError("mode index k must be >= 1")
    if jmax <= k:
        raise ValueError("truncation jmax must exceed k")
    j = np.arange(1, jmax + 1, dtype=float)
    partial = (g_coeff(k, j[j != k]) ** 2).sum()
    if tail_correct:
        partial += 4.0 * k * k / jmax
    return float(abs(partial - r_coeff(k)))


def gram_matrix(kmax: int, ltrunc: int) -> np.ndarray:
    """Partial Gram matrix G_{kj} = sum_{l <= ltrunc} g_{kl} g_{jl} for k, j <= kmax."""
    block = g_coeff(np.arange(1, kmax + 1, dtype=float)[:, None],
                    np.arange(1, ltrunc + 1, dtype=float))
    return block @ block.T


def gram_residual(kmax: int, ltrunc: int, tail_correct: bool = True) -> np.ndarray:
    """Residual matrix |G_{kj} + tail - d_{kj}| of the Gram sum rule, k, j <= kmax.

    G is summed to ``ltrunc``; the tail 4 k j (-1)^{k+j} / ltrunc is added
    when ``tail_correct``.  The k = j entries reduce to the diagonal sum rule.
    """
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    if ltrunc <= kmax:
        raise ValueError("ltrunc must exceed kmax")
    gram = gram_matrix(kmax, ltrunc)
    if tail_correct:
        k = np.arange(1, kmax + 1, dtype=float)[:, None]
        gram = gram + 4.0 * k * k.T * (-1.0) ** (k + k.T) / ltrunc
    return np.abs(gram - build_table(kmax).d)


def verify_gram_identity(kmax: int, ltrunc: int, tail_correct: bool = True) -> float:
    """Max residual of the Gram sum rule over all mode pairs k, j <= kmax
    (the largest entry of ``gram_residual``)."""
    return float(gram_residual(kmax, ltrunc, tail_correct).max())
