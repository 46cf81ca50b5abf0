"""Truncated Fock-space operators for one mechanical and one or two optical modes.

Operators are built from single-mode factors: ``ModeOperators`` holds the
mechanical ladder and one optical ladder shared by every optical mode, and
``ModeOperators.assemble`` is the one constructor of an operator (a dense
matrix is a plain array, never an ``OperatorMatrix``): it takes a
sum of terms, each one mechanical factor and exactly one factor per optical
mode, and returns an ``OperatorMatrix`` that keeps them as (M_i, O_i) pairs,
the optical factors of a term combined by a small kron (mechanical factor
first; the total dimension is capped).  Its ``dagger``, hermiticity defect
and entry checks work on the factors, and its dense ``data`` is filled on
first read and read-only.  ``data`` and the entry checks form the slice
sum_i M_i O_i[n, n'] of an optical entry only on the band of the mechanical
factors, their nonzero positions closed under transpose (790 of 4,096 for
the order-2 ``new_full`` at 64 x 64), in float64 when every factor is real,
so no D x D Kronecker product or sum of terms is formed.  ``lift`` pads one
term's missing trailing optical factors with the identity and returns the
assembled array, and product-space attributes such as ``ops.x`` are lifted
on first use.  Ladder truncation corrupts the top levels, so operator
identities are asserted on the "interior block" that excludes the top
levels of each subsystem; helpers for that projection live here.

``spectrum`` solves a Hermitian operator one Z2 parity sector at a time.
Every basis state is labelled by its mechanical parity (-1)^m, its optical
parity (-1)^(n_1 + ... + n_modes) and their product.  The sectors of a term
list are read off its factors, never declared by a builder: a factor's
nonzeros keep or flip its mode's parity, and the first label that every
term keeps splits H into two sectors.  A term list that no label splits is
one sector; a dense matrix is a plain array, also one sector.  H is applied
to a sector on the factors restricted to it, and the sector is solved by the
``eigh`` of its matrix formed from them (real when every factor is), so
``data`` of a term list is never filled.  A sector may instead converge its
k lowest levels in ``optomech._krylov``, which the first sector that may go
iterative loads: by block Davidson where its diagonal dominates them, from
dimension ``DAVIDSON_MIN_DIM`` up, and by block Lanczos elsewhere, from
``KRYLOV_MIN_DIM`` up; in between, a sector that Davidson does not solve
takes the dense ``eigh``.  A smaller solve loads neither ``_krylov`` nor
``numpy.random``.  One pass over the term list's band slices streams the
hermiticity defect, the largest entry, and each row's diagonal entry and
Gershgorin radius for Davidson; the eigenpair residuals and orthonormality
are checked on the returned pairs of each sector.  Two sectors of size D/2
cost about a quarter of one D x D solve.  Each threshold is a crossover
measured on 2 cores for the two order-2 full builds; the timings are in
README's *Iterative solves*.

``displacement`` exponentiates the anti-Hermitian generator G of the optical
displacement through the eigendecomposition of the Hermitian iG, so the
module needs numpy alone; it matches a Pade ``expm`` within 4.4e-15 at up to
64 levels and |amp| <= 2.2.

Normalization: the dimensionless quadratures are Q = (a^dag + a)/sqrt(2),
P = i (a^dag - a)/sqrt(2) (same for the mechanical pair X, P_mech), fixed so
that [Q, P] = i and P^2 + Q^2 = 2 n + 1 hold on the interior block.  This is
the normalization under which the cubic interaction comes out as
-hbar alpha X (n + 1/2); a variant identity with coefficients quartered
circulates in print but is inconsistent with those interaction coefficients
and is not used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FockSpace",
    "OperatorMatrix",
    "Ladder",
    "ModeOperators",
    "destroy",
    "make_space",
    "mode_operators",
    "symmetrize_matrices",
    "expand_inverse_power",
    "commutator",
    "spectrum",
    "bogoliubov_pair",
    "squared_annihilator",
    "displacement",
    "coherent_state",
    "interior_indices",
    "interior_block",
]

HERMITICITY_RTOL = 1e-10
EIG_RESIDUAL_RTOL = 1e-9
MAX_WORD_LENGTH = 8
# the smallest dimensions at which spectrum may solve a sector by Davidson and
# by Lanczos, each the measured crossover with the dense sector solve, and the
# most vectors one sector's Davidson or Lanczos run may apply
DAVIDSON_MIN_DIM = 272
KRYLOV_MIN_DIM = 900
KRYLOV_MAX_BASIS = 2048


@dataclass(frozen=True)
class FockSpace:
    """Mechanical (x) optical truncated product space, mechanical factor first."""

    n_mech: int
    n_opt: int
    n_modes_opt: int = 1
    dim_cap: int = 4096

    def __post_init__(self):
        if self.n_mech < 2 or self.n_opt < 2:
            raise ValueError("Fock cutoffs must be >= 2")
        if self.n_modes_opt < 1:
            raise ValueError("need at least one optical mode")
        if self.dim > self.dim_cap:
            raise ValueError(
                f"total dimension {self.dim} exceeds the cap {self.dim_cap}"
            )

    @property
    def dim(self) -> int:
        return self.n_mech * self.n_opt**self.n_modes_opt

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_mech,) + (self.n_opt,) * self.n_modes_opt


def _closed_positions(factors, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, mirror) of the entries that are nonzero in some n x n
    factor or in its transpose, in row-major order: ``mirror[p]`` is the
    index of entry p's transpose."""
    mask = reduce(np.logical_or, (f != 0 for f in factors), np.zeros((n, n), bool))
    rows, cols = np.nonzero(mask | mask.T)
    index = np.zeros((n, n), int)
    index[rows, cols] = np.arange(len(rows))
    return rows, cols, index[cols, rows]


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Complex operator bound to its space: the sum of ``terms`` M_i (x) O_i,
    each an (n_mech x n_mech mechanical, N x N optical) factor pair with
    N = D / n_mech and every coefficient folded into the factors, as built by
    ``ModeOperators.assemble``.  ``dagger`` works on the factors; ``data``
    is filled on first read from the band slices that the entry pass reads,
    and is read-only.  No attribute can be rebound, so ``data`` cannot drift
    from the terms; equality and hashing are by identity.
    """

    space: FockSpace
    terms: tuple[tuple[np.ndarray, np.ndarray], ...]

    @cached_property
    def _band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """(rows, cols, mirror, factors) of the band U, the union of the
        mechanical factors' nonzero positions closed under transpose, in
        row-major order: ``mirror[u]`` is the index in U of position u's
        transpose, and ``factors`` holds each term's mechanical entries on U
        with its optical factor, in float64 when every factor is real."""
        rows, cols, mirror = _closed_positions([m for m, _ in self.terms], self.space.n_mech)
        factors = [(m[rows, cols], o) for m, o in self.terms]
        if not any(m.imag.any() or o.imag.any() for m, o in factors):
            factors = [(m.real, o.real) for m, o in factors]
        return rows, cols, mirror, factors

    def _slices(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The slices sum_i M_i O_i[n, n'] on the band, one row per optical
        entry (rows[p], cols[p]) and one column per band position, each
        summed in term order from zero over the terms with O_i[n, n'] != 0.
        Off the band every such sum is +0, as the dense one is."""
        band_rows, _, _, factors = self._band
        dtype = np.result_type(float, *(f for term in factors for f in term))
        acc = np.zeros((len(rows), len(band_rows)), dtype)
        for mech, o in factors:
            c = o[rows, cols]
            np.add(acc, mech * c[:, None], out=acc, where=(c != 0)[:, None])
        return acc

    @cached_property
    def data(self) -> np.ndarray:
        """The dense matrix of a term list: viewing the D x D output as
        (n_mech, N, n_mech, N), the band of each optical entry where H or
        H^dag has a nonzero slice is written once."""
        n_mech, dim = self.space.n_mech, self.space.dim
        out = np.zeros((dim, dim), dtype=complex)
        blocks = out.reshape(n_mech, dim // n_mech, n_mech, dim // n_mech)
        rows, cols, _ = _closed_positions([o for _, o in self.terms], dim // n_mech)
        band_rows, band_cols, *_ = self._band
        blocks[band_rows, rows[:, None], band_cols, cols[:, None]] = self._slices(rows, cols)
        out.flags.writeable = False
        return out

    @cached_property
    def _entry_pass(self) -> tuple[float, float, bool, np.ndarray, np.ndarray]:
        """(max|H|, max|H - H^dag|, every entry finite, diagonal, radii),
        read off the band slices of every optical entry where H or H^dag is
        nonzero; each entry's mirror is read off the same slices at the
        transposed optical entry and band position, so max|H|, the defect and
        the diagonal equal those of the dense array without forming it.  An
        entry is not finite exactly when max|H| is not or an optical factor
        has a non-finite entry (its product with a zero off the band is
        NaN).  ``diagonal`` holds the real diagonal entry of row (m, n) at
        [m, n], and ``radii`` its sum of off-diagonal |H|, both (n_mech, N)."""
        n_mech, n_opt = self.space.n_mech, self.space.dim // self.space.n_mech
        rows, cols, mirror = _closed_positions([o for _, o in self.terms], n_opt)
        band_rows, band_cols, band_mirror, _ = self._band
        on, band_on = np.flatnonzero(rows == cols)[:, None], np.flatnonzero(band_rows == band_cols)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry is the finding
            a = self._slices(rows, cols)
            defect = float(np.abs(a[mirror[:, None], band_mirror].conj() - a).max(initial=0.0))
            mag = np.abs(a)
        peak = float(mag.max(initial=0.0))  # NaN or inf when some entry on the band is not finite
        diag = np.zeros((n_mech, n_opt))
        diag[band_rows[band_on], rows[on]] = a[on, band_on].real
        mag[on, band_on] = 0.0
        radii = np.bincount((band_rows * n_opt + rows[:, None]).ravel(), mag.ravel(), n_mech * n_opt)
        finite = bool(np.isfinite(peak)) and all(np.isfinite(o).all() for _, o in self.terms)
        return peak, defect, finite, diag, radii.reshape(n_mech, n_opt)

    _entry_stats = property(lambda self: self._entry_pass[:3])  # (max|H|, defect, finite)

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, tuple((m.conj().T, o.conj().T) for m, o in self.terms))

    def hermiticity_defect(self) -> float:
        return self._entry_stats[1]

    def __array__(self, dtype=None, copy=None):
        # NumPy 1.x never passes copy and refuses copy=None, so copy only on request
        return np.array(self.data, dtype=dtype) if copy else np.asarray(self.data, dtype=dtype)


def destroy(n: int) -> np.ndarray:
    """Annihilation operator on an n-level ladder: <m-1|a|m> = sqrt(m)."""
    return np.diag(np.sqrt(np.arange(1.0, n)), 1).astype(complex)


@dataclass(frozen=True)
class Ladder:
    """Single-mode operators on an n-level ladder: ``a``, ``adag``, the number
    operator ``n``, the quadratures ``x`` and ``p`` (normalized as in the
    module docstring) and the identity ``eye``."""

    a: np.ndarray
    adag: np.ndarray
    n: np.ndarray
    x: np.ndarray
    p: np.ndarray
    eye: np.ndarray

    @classmethod
    def of(cls, levels: int) -> "Ladder":
        a = destroy(levels)
        adag = a.conj().T
        s2 = np.sqrt(2.0)
        return cls(a=a, adag=adag, n=adag @ a, x=(adag + a) / s2, p=1j * (adag - a) / s2,
                   eye=np.eye(levels, dtype=complex))


@dataclass(frozen=True)
class ModeOperators:
    """Single-mode ladders of one space and their lift into the product space.

    ``mech`` is the mechanical ladder, ``opt`` the optical ladder shared by
    every optical mode.  The product-space attributes are lifted on first
    use: ``b``/``bdag``/``m_op``/``x``/``p_mech`` are mechanical,
    ``a``/``adag``/``n_op``/``q``/``p`` act on the first optical mode, and
    ``a_modes``/``adag_modes`` list every optical mode.
    """

    space: FockSpace
    mech: Ladder
    opt: Ladder

    def lift(self, mech: np.ndarray | None = None, *opt: np.ndarray | None) -> np.ndarray:
        """Product-space matrix of single-mode factors: the mechanical factor,
        then one factor per optical mode in order; ``None`` or a missing
        trailing factor is the identity.  The data of ``assemble`` of the
        one padded term."""
        return self._padded(mech, *opt).data

    def _padded(self, mech: np.ndarray | None = None, *opt: np.ndarray | None) -> OperatorMatrix:
        """``assemble`` of one term whose missing trailing optical factors
        are the identity."""
        return self.assemble([(mech, *opt, *(None,) * (self.space.n_modes_opt - len(opt)))])

    def assemble(self, terms: Iterable[Sequence[np.ndarray | None]]) -> OperatorMatrix:
        """The operator of a sum of product-space terms, each a
        ``(mech, opt_1, ..., opt_modes)`` factor tuple with exactly one factor
        per optical mode (``None`` is the identity); any other count raises
        ``ValueError``.  Every coefficient is folded into the factors.

        A term's optical factors are combined by a small kron into one N x N
        factor O_i (N = dim / n_mech), and the operator keeps the (M_i, O_i)
        pairs.  Its ``data``, filled on first read, writes the slice
        sum_i M_i O_i[n, n'] of each optical entry (n, n') that is nonzero in
        some term once, on the band of the mechanical factors (their nonzero
        positions; every other entry is zero), summed in term order from
        zero over the terms with a nonzero O_i[n, n'].  Nothing D x D is
        formed but the output.  ``assemble([])`` is the zero operator.
        """
        n_modes = self.space.n_modes_opt
        pairs = []
        for mech, *opt in terms:
            if len(opt) != n_modes:
                raise ValueError(f"{len(opt)} optical factor(s) for {n_modes} optical mode(s)")
            pairs.append((self.mech.eye if mech is None else mech,
                          reduce(np.kron, [self.opt.eye if f is None else f for f in opt])))
        return OperatorMatrix(self.space, tuple(pairs))

    def _each_optical_mode(self, op: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(self.lift(None, *(None,) * i, op) for i in range(self.space.n_modes_opt))

    b = cached_property(lambda self: self.lift(self.mech.a))
    bdag = cached_property(lambda self: self.lift(self.mech.adag))
    m_op = cached_property(lambda self: self.lift(self.mech.n))
    x = cached_property(lambda self: self.lift(self.mech.x))
    p_mech = cached_property(lambda self: self.lift(self.mech.p))
    a = cached_property(lambda self: self.lift(None, self.opt.a))
    adag = cached_property(lambda self: self.lift(None, self.opt.adag))
    n_op = cached_property(lambda self: self.lift(None, self.opt.n))
    q = cached_property(lambda self: self.lift(None, self.opt.x))
    p = cached_property(lambda self: self.lift(None, self.opt.p))
    a_modes = cached_property(lambda self: self._each_optical_mode(self.opt.a))
    adag_modes = cached_property(lambda self: self._each_optical_mode(self.opt.adag))
    identity = cached_property(lambda self: self.lift())


def mode_operators(space: FockSpace) -> ModeOperators:
    """Build the single-mode ladders of a space."""
    return ModeOperators(space=space, mech=Ladder.of(space.n_mech), opt=Ladder.of(space.n_opt))


def make_space(
    n_mech: int, n_opt: int, n_modes_opt: int = 1, dim_cap: int = 4096
) -> tuple[FockSpace, ModeOperators]:
    space = FockSpace(n_mech=n_mech, n_opt=n_opt, n_modes_opt=n_modes_opt, dim_cap=dim_cap)
    return space, mode_operators(space)


def interior_indices(space: FockSpace, margin: int = 2) -> np.ndarray:
    """Basis indices whose every subsystem level is below cutoff - margin."""
    levels = np.indices(space.shape)
    inside = np.all([lv < n - margin for lv, n in zip(levels, space.shape)], axis=0)
    return np.flatnonzero(inside)


def interior_block(mat: np.ndarray | OperatorMatrix, space: FockSpace, margin: int = 2) -> np.ndarray:
    """Restrict a matrix to the interior block where truncation artifacts vanish."""
    data = np.asarray(mat)
    idx = interior_indices(space, margin)
    return data[np.ix_(idx, idx)]


def symmetrize_matrices(
    factors: Sequence[np.ndarray], labels: Sequence[object] | None = None
) -> np.ndarray:
    """Average the products of the factors over all distinct orderings.

    Repeated labels (default: object identity) collapse permutations that
    produce identical products, so a word with repetitions averages over its
    multiset orderings with the correct weighting; the result equals the
    naive average over all n! orderings.  Enumeration is guarded at length 8.
    Labels must be one per factor, and a label may name only equal factors;
    either mismatch raises ``ValueError``.
    """
    n = len(factors)
    if n == 0:
        raise ValueError("word must be nonempty")
    if n > MAX_WORD_LENGTH:
        raise ValueError(f"word length {n} exceeds the n! enumeration guard ({MAX_WORD_LENGTH})")
    if labels is None:
        first_seen: dict[int, int] = {}
        labels = [first_seen.setdefault(id(f), i) for i, f in enumerate(factors)]
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} factors")
    by_label = {}
    for lb, f in zip(labels, factors):
        stored = by_label.setdefault(lb, np.asarray(f, dtype=complex))
        if not np.array_equal(stored, f, equal_nan=True):
            raise ValueError(f"label {lb!r} names two different factors")
    # distinct label sequences in sorted order: the accumulation order depends
    # only on the multiset, so the average is bitwise invariant under any
    # permutation of the input word, with exact weighting of repeated factors
    orderings = sorted(set(itertools.permutations(labels)), key=repr)
    acc = np.zeros_like(next(iter(by_label.values())))
    for ordering in orderings:
        prod = by_label[ordering[0]]
        for lb in ordering[1:]:
            prod = prod @ by_label[lb]
        acc = acc + prod
    return acc / len(orderings)


def expand_inverse_power(n: float, order: int) -> tuple[float, ...]:
    """Taylor coefficients of (1 + u)^(-n) through the requested order.

    Covers the inverse-power replacements (positive integer n) and the
    half-integer square-root dressings of the field quadratures (n = +-1/2).
    Order 1 reproduces the linear replacement 1 - n u.
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1 or 2")
    if n == 0:
        raise ValueError("n must be nonzero")
    coeffs = [1.0]
    cur = 1.0
    for i in range(1, order + 1):
        cur *= (-n - (i - 1)) / i
        coeffs.append(cur)
    return tuple(coeffs)


def _as_data(op: np.ndarray | OperatorMatrix) -> np.ndarray:
    return np.asarray(op, dtype=complex)


def commutator(A: np.ndarray | OperatorMatrix, B: np.ndarray | OperatorMatrix) -> np.ndarray:
    """[A, B] = AB - BA, as an array."""
    da, db = _as_data(A), _as_data(B)
    return da @ db - db @ da


def _parity_moves(factor: np.ndarray, parity: np.ndarray) -> set[int]:
    """The parity changes of a factor's nonzero entries: 0 keeps the parity
    of its mode, 1 flips it."""
    rows, cols = np.nonzero(factor)
    return set((parity[rows] ^ parity[cols]).tolist())


def _term_sectors(H: OperatorMatrix) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The Z2 sectors of a term list, read off its factors: the mechanical,
    the optical, then the product label splits H when every term keeps it.
    Each sector is a list of (mechanical indices, optical indices) blocks,
    the product-label sectors two blocks each; a term list that no label
    splits is one sector."""
    space = H.space
    pm = np.arange(space.n_mech) % 2
    po = np.indices(space.shape[1:]).reshape(space.n_modes_opt, -1).sum(axis=0) % 2
    moves = [(_parity_moves(m, pm), _parity_moves(o, po)) for m, o in H.terms]
    every_m, every_o = np.arange(len(pm)), np.arange(len(po))
    if all(mm <= {0} for mm, _ in moves):
        return [[(np.flatnonzero(pm == s), every_o)] for s in (0, 1)]
    if all(mo <= {0} for _, mo in moves):
        return [[(every_m, np.flatnonzero(po == s))] for s in (0, 1)]
    if all(len(mm | mo) <= 1 or not (mm and mo) for mm, mo in moves):
        return [[(np.flatnonzero(pm == 0), np.flatnonzero(po == s)),
                 (np.flatnonzero(pm == 1), np.flatnonzero(po != s))] for s in (0, 1)]
    return [[(every_m, every_o)]]


def _multiples(factors) -> bool:
    """Whether every factor is a multiple of the largest one, so that the
    term list is one product M (x) O: |<f0, f>|^2 >= (1 - 1e-12) |f0|^2 |f|^2,
    Cauchy-Schwarz with equality.  The levels of one product, the products
    of its two factors' levels, crowd and repeat: at 32 x 32 Lanczos lost to
    the dense sector solve on three of the five one-term variants and on the
    two-mode relativistic correction.  The choice of solver is all this
    decides."""
    norms = [np.vdot(f, f).real for f in factors]
    f0, n0 = max(zip(factors, norms), key=lambda pair: pair[1])
    return all(abs(np.vdot(f0, f)) ** 2 >= (1 - 1e-12) * n0 * n for f, n in zip(factors, norms))


def _sector_operator(H: OperatorMatrix, blocks: list[tuple[np.ndarray, np.ndarray]]):
    """(dimension, apply, dtype, diagonal, radii) of H on one sector.
    ``apply`` maps a (p, d) array whose rows are sector vectors to their
    images: each block pair (b, c) applies the factors restricted to it,
    M[b, c] X_c O[b, c]^T, skipping restrictions that are zero.  The factors
    are real when they all are.  The real diagonal and the radii, each row's
    sum of off-diagonal |H|, are the sector's blocks of those that
    ``OperatorMatrix._entry_pass`` streams with max|H|; H has no entry
    between two sectors, so a row's radius within its sector is its radius
    in H."""
    shapes = [(len(mi), len(ni)) for mi, ni in blocks]
    edges = np.cumsum([0] + [a * b for a, b in shapes])
    parts = []
    for b, (mb, nb) in enumerate(blocks):
        for c, (mc, nc) in enumerate(blocks):
            for m, o in H.terms:
                m_bc, o_bc = m[np.ix_(mb, mc)], o[np.ix_(nb, nc)]
                if m_bc.any() and o_bc.any():
                    parts.append((b, c, m_bc, o_bc.T.copy()))
    dtype = complex if any(ms.imag.any() or ot.imag.any() for *_, ms, ot in parts) else float
    if dtype is float:
        parts = [(b, c, ms.real.copy(), ot.real.copy()) for b, c, ms, ot in parts]

    def apply(X):
        p = len(X)
        ins = [X[:, lo:hi].reshape(p, *shape) for lo, hi, shape in zip(edges, edges[1:], shapes)]
        outs = [np.zeros((p, *shape), dtype) for shape in shapes]
        for b, c, ms, ot in parts:
            outs[b] += ms @ ins[c] @ ot
        return np.concatenate([out.reshape(p, a * b) for out, (a, b) in zip(outs, shapes)], axis=1)

    diag, radii = (np.concatenate([full[np.ix_(mb, nb)].ravel() for mb, nb in blocks])
                   for full in H._entry_pass[3:])
    return int(edges[-1]), apply, dtype, diag, radii


def _sector_lowest(dim: int, apply, dtype, diag, radii, k: int, davidson: bool, lanczos: bool):
    """Lowest k values of one sector, their eigenvectors as rows and the
    sector's scale for the residual check.

    When ``davidson`` or ``lanczos`` is set and the first convergence check,
    4 (k + 2) vectors, fits in half the sector and in ``KRYLOV_MAX_BASIS``,
    ``_krylov.lowest`` tries the solvers so allowed under that cap; past half
    the sector the dense solve is the cheaper one (measured at dims 576 to
    1600).  Otherwise, or when none converges, the sector's matrix is formed
    by ``apply`` on the identity, symmetrized as 0.5 (h + h^dag) and solved by
    ``eigh``; its scale is then its largest eigenvalue magnitude.
    """
    cap = min(KRYLOV_MAX_BASIS, dim // 2)
    if (davidson or lanczos) and 4 * (k + 2) <= cap:
        from . import _krylov  # loaded by the first sector that may go iterative

        found = _krylov.lowest(apply, diag, radii, k, dtype, cap, davidson, lanczos)
        if found is not None:
            return found
    h = apply(np.eye(dim, dtype=dtype)).T
    h = 0.5 * (h + h.conj().T)  # rebound: the unsymmetrized copy is freed before eigh
    vals, vecs = np.linalg.eigh(h)
    return vals[:k], vecs[:, :k].T, float(np.abs(vals).max())


def _merge_lowest(values: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n lowest of the blocks' ascending values, merged stably in block
    order, and how many each block holds among them (a prefix of its values)."""
    merged = np.concatenate(values)
    lowest = np.argsort(merged, kind="stable")[:n]
    owner = np.repeat(np.arange(len(values)), [len(vals) for vals in values])
    return merged[lowest], np.bincount(owner[lowest], minlength=len(values))


def _verify_pairs(images: np.ndarray, vals: np.ndarray, vecs: np.ndarray, norm: float) -> None:
    """Raise ``ArithmeticError`` unless each pair's residual is within
    ``EIG_RESIDUAL_RTOL * norm`` and the vectors (rows) are orthonormal to
    ``EIG_RESIDUAL_RTOL``."""
    resid = np.abs(images - vecs * vals[:, None]).max(initial=0.0)
    if resid > EIG_RESIDUAL_RTOL * norm:
        raise ArithmeticError(f"eigenpair residual {resid:.3e} exceeds {EIG_RESIDUAL_RTOL} * norm")
    ortho = np.abs(vecs.conj() @ vecs.T - np.eye(len(vals))).max(initial=0.0)
    if ortho > EIG_RESIDUAL_RTOL:
        raise ArithmeticError(f"eigenvector orthonormality defect {ortho:.3e} exceeds {EIG_RESIDUAL_RTOL}")


def spectrum(H: np.ndarray | OperatorMatrix, k: int | None = None) -> np.ndarray:
    """Lowest k eigenvalues (ascending) of a Hermitian operator; all of them
    when k is None or exceeds the dimension.

    A term list is solved one Z2 parity sector of ``_term_sectors`` at a
    time on its factors (``_sector_operator``), so its ``data`` is never
    filled; its hermiticity defect, largest entry and finiteness are
    streamed exactly (``OperatorMatrix._entry_stats``).  A dense matrix is a
    bare array, the reference the sector solves are compared against: it is
    one sector, real when its imaginary part is exactly zero.  Input with a
    non-finite entry, or whose hermiticity defect exceeds 1e-10 relative to
    the largest entry (no floor, so the check holds at any unit scale), is
    rejected.  Each sector is solved by ``_sector_lowest``: by the real
    symmetric or complex Hermitian ``eigh`` of the sector formed from its
    factors, or, for a term list that is not one product M (x) O
    (``_multiples``), by block Davidson from dimension ``DAVIDSON_MIN_DIM``
    where the sector's diagonal dominates its low levels and by block
    Lanczos from ``KRYLOV_MIN_DIM`` elsewhere; Lanczos never runs below
    ``KRYLOV_MIN_DIM``.  The returned pairs of each sector are then verified: each residual, from the sector's
    apply, within 1e-9 of the largest sector scale (no floor), which is at
    most max|lambda|, and the eigenvectors orthonormal to 1e-9.  Two sectors
    of size D/2 cost about a quarter of one D x D solve; verifying m pairs
    of a sector of size b costs O(b^2 m) at most.
    """
    if k is not None and int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if isinstance(H, OperatorMatrix) and H.terms:
        peak, defect, finite = H._entry_stats
        mechs, opts = zip(*H.terms)
        product = _multiples(mechs) or _multiples(opts)
        davidson = not product and H.space.dim >= DAVIDSON_MIN_DIM
        lanczos = not product and H.space.dim >= KRYLOV_MIN_DIM
        sectors = [_sector_operator(H, blocks) for blocks in _term_sectors(H)]
    else:
        data = _as_data(H)
        if not data.imag.any():
            data = data.real
        peak, defect = float(np.abs(data).max()), float(np.abs(data - data.conj().T).max())
        finite, davidson, lanczos = bool(np.isfinite(data).all()), False, False
        sectors = [(len(data), lambda X: X @ data.T, data.dtype, None, None)]
    if not finite:
        raise ValueError("matrix has a non-finite entry")
    if defect > HERMITICITY_RTOL * peak:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} at scale {peak:.3e})")
    dim = sum(sector[0] for sector in sectors)
    n = dim if k is None else min(int(k), dim)
    solved = [_sector_lowest(*sector, min(n, sector[0]), davidson, lanczos) for sector in sectors]
    norm = max(top for *_, top in solved)
    lowest, returned = _merge_lowest([vals for vals, _, _ in solved], n)
    for (_, apply, *_), (vals, vecs, _), m in zip(sectors, solved, returned):
        _verify_pairs(apply(vecs[:m]), vals[:m], vecs[:m], norm)
    return lowest


def bogoliubov_pair(rho: complex, ops: ModeOperators) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Squeezing-mixed mode operators A = a^dag sinh(rho) + a cosh(rho) and
    B = b^dag cosh(rho) + b sinh(rho), A on the first optical mode.

    For real rho the interior commutator [A, A^dag] equals the identity; the
    complex-rho case is returned as-is (its commutator is not canonical and
    is treated as a report-only quantity).
    """
    sh, ch = np.sinh(rho), np.cosh(rho)
    return (ops._padded(None, ops.opt.adag * sh + ops.opt.a * ch),
            ops._padded(ops.mech.adag * ch + ops.mech.a * sh))


def squared_annihilator(ops: ModeOperators) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Half the squared mechanical annihilator, c = b^2 / 2, and [c, c^dag].

    On the interior block [c, c^dag] = m + 1/2; coherent states are
    eigenvectors of c with eigenvalue z^2/2.
    """
    if ops.space.n_mech < 4:
        raise ValueError("need n_mech >= 4 to resolve the squared annihilator")
    c = 0.5 * (ops.mech.a @ ops.mech.a)
    cdag = c.conj().T
    return ops._padded(c), ops._padded(c @ cdag - cdag @ c)


def displacement(ops: ModeOperators, amp: complex) -> np.ndarray:
    """Displacement D = exp(G), G = amp a^dag - conj(amp) a, of the first
    optical mode.

    G is anti-Hermitian, so iG = V diag(w) V^dag is Hermitian and
    D = V diag(exp(-iw)) V^dag.  At n = 4 to 64 levels and |amp| <= 2.2 this
    agrees with a Pade ``expm`` of G within 4.4e-15 and is unitary within 3.1e-15.
    """
    w, V = np.linalg.eigh(1j * (amp * ops.opt.adag - np.conj(amp) * ops.opt.a))
    return ops.lift(None, (V * np.exp(-1j * w)) @ V.conj().T)


def coherent_state(n: int, z: complex) -> np.ndarray:
    """Truncated coherent-state vector on an n-level ladder."""
    m = np.arange(n)
    log_fact = np.cumsum(np.log(np.maximum(m, 1)))
    amps = np.exp(-0.5 * abs(z) ** 2) * z**m / np.exp(0.5 * log_fact)
    return amps.astype(complex)
