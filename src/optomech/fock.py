"""Truncated Fock-space operators for one mechanical and one or two optical modes.

Operators are built from single-mode factors: ``ModeOperators`` holds the
mechanical ladder and one optical ladder shared by every optical mode, and
``ModeOperators.assemble`` is the one constructor of an operator: it takes a
sum of terms, each one mechanical factor and exactly one factor per optical
mode, and returns an ``OperatorMatrix`` that keeps them as (M_i, O_i) pairs,
the optical factors of a term combined by a small kron (mechanical factor
first; the total dimension is capped).  Its ``matvec``, ``dagger``,
hermiticity defect and entry checks work on the factors; its dense ``data``
is filled on first read, one slice per nonzero optical entry, read-only, so
no D x D Kronecker product or D x D sum of terms is formed.  ``lift`` pads
one term's missing trailing optical factors with the identity and returns
the assembled array, and product-space attributes such as ``ops.x`` are
lifted on first use.  Ladder truncation corrupts the top levels, so operator
identities are asserted on the "interior block" that excludes the top
levels of each subsystem; helpers for that projection live here.

``spectrum`` has two paths.  The dense path solves an ``OperatorMatrix``
one Z2 parity sector at a time.  Every basis state is labelled by its
mechanical parity (-1)^m, its optical parity (-1)^(n_1 + ... + n_modes) and
their product; the first label for which both off-blocks H[even, odd] and
H[odd, even] are exactly zero splits H into two diagonal blocks.  The split
is detected from the entries, never declared by a builder, and a bare array
or an H that no label splits is solved as one block.  Each block is checked
for hermiticity, then solved with the real symmetric eigensolver when the
imaginary part of H is exactly zero (every variant without drive phases)
and with the complex Hermitian solver otherwise; the eigenpair residuals and
orthonormality are checked on the returned pairs of each block only.  Two
blocks of size D/2 cost about a quarter of one dense D x D solve.

The Krylov path solves a term list of dimension ``KRYLOV_MIN_DIM`` or more
for k levels without ever forming ``data``: the same labels are read off the
factors (a factor's nonzeros keep or flip its mode's parity), each sector is
solved by block Lanczos on the factored product, or densely from its own
factors where that is the cheaper solve (``optomech._krylov``, loaded by the
first solve on this path), and the hermiticity, residual and orthonormality
checks are those of the dense path at the same tolerances.  At 32 x 32
(dim 1024) an order-2 ``new_full`` solves in about 60 ms against about
100 ms dense; at dim 900 both full builds are faster on the factors and at
dim 784 they tie, measured on 2 cores.

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
from dataclasses import FrozenInstanceError, dataclass
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
# spectrum's Krylov path: the smallest dimension it takes, and the most basis
# vectors one sector's Lanczos run may hold before the sector is solved densely
KRYLOV_MIN_DIM = 900
KRYLOV_MAX_BASIS = 2048
_CHUNK = 16  # optical entries whose mechanical slices a term list forms at once


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


def _chunks(entries: np.ndarray):
    """(rows, cols) of the nonzero entries of an N x N mask, _CHUNK at a time,
    so that their n_mech x n_mech slices hold O(n_mech^2) memory."""
    rows, cols = np.nonzero(entries)
    for lo in range(0, len(rows), _CHUNK):
        yield rows[lo:lo + _CHUNK], cols[lo:lo + _CHUNK]


class OperatorMatrix:
    """Complex operator bound to its space.

    Built from a dense D x D ``data`` array, or by ``ModeOperators.assemble``
    as a sum of ``terms`` M_i (x) O_i, each an (n_mech x n_mech mechanical,
    N x N optical) factor pair with N = D / n_mech, times ``scale`` when it is
    given.  A term list keeps its factors: ``matvec`` and ``dagger`` work on
    them, and ``data`` is filled on first read and read-only.  No attribute
    can be rebound, so ``data`` cannot drift from the terms.
    """

    def __init__(self, space: FockSpace, data: np.ndarray | None = None, *,
                 terms: Iterable[tuple[np.ndarray, np.ndarray]] | None = None,
                 scale: complex | None = None):
        if (data is None) == (terms is None):
            raise ValueError("an operator is either a dense array or a term list")
        if data is not None and data.shape != (space.dim, space.dim):
            raise ValueError("matrix dimension does not match the space")
        terms = None if terms is None else tuple(terms)
        self.__dict__.update(space=space, scale=scale, terms=terms)
        if data is not None:
            self.__dict__["data"] = data

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def _support(self) -> np.ndarray:
        """The optical entries (n, n') that are nonzero in some term."""
        n_opt = self.space.dim // self.space.n_mech
        return reduce(np.logical_or, (o != 0 for _, o in self.terms), np.zeros((n_opt, n_opt), bool))

    def _slices(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The n_mech x n_mech slices sum_i M_i O_i[n, n'] of the unscaled sum
        at the optical entries (rows[p], cols[p]), each summed in term order
        from zero over the terms with O_i[n, n'] != 0."""
        acc = np.zeros((len(rows),) + (self.space.n_mech,) * 2, dtype=complex)
        for mech, o in self.terms:
            c = o[rows, cols]
            hit = np.flatnonzero(c)
            acc[hit] += mech * c[hit, None, None]
        return acc

    @cached_property
    def data(self) -> np.ndarray:
        """The dense matrix of a term list: viewing the D x D output as
        (n_mech, N, n_mech, N), the slice of each optical entry in the support
        is written once, then the whole array is multiplied by ``scale``."""
        n_mech, dim = self.space.n_mech, self.space.dim
        out = np.zeros((dim, dim), dtype=complex)
        blocks = out.reshape(n_mech, dim // n_mech, n_mech, dim // n_mech)
        for rows, cols in _chunks(self._support):
            blocks[:, rows, :, cols] = self._slices(rows, cols)
        if self.scale is not None:
            out *= self.scale
        out.flags.writeable = False
        return out

    @property
    def _entry_stats(self) -> tuple[float, float, bool]:
        """(max|H|, max|H - H^dag|, every entry finite), read off ``data`` once
        it is there (a dense-born array may be written to), else streamed."""
        if "data" not in self.__dict__:
            return self._term_stats
        data = self.data
        return (float(np.abs(data).max()), float(np.abs(data - data.conj().T).max()),
                bool(np.isfinite(data).all()))

    @cached_property
    def _term_stats(self) -> tuple[float, float, bool]:
        """``_entry_stats`` of a term list, streamed over the optical pairs
        n <= n' where H or H^dag has a nonzero slice: the slices (n, n') and
        (n', n) are formed and scaled as ``data`` forms them and compared, so
        the three values equal those of the dense array without forming it."""
        scale = 1.0 if self.scale is None else self.scale
        peaks, defects = [0.0], [0.0]
        finite = bool(np.isfinite(scale))
        for rows, cols in _chunks(np.triu(self._support | self._support.T)):
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry is the finding
                a, b = self._slices(rows, cols), self._slices(cols, rows)
                if self.scale is not None:
                    a, b = a * scale, b * scale
            peaks += [np.abs(a).max(), np.abs(b).max()]
            defects.append(np.abs(a - b.conj().transpose(0, 2, 1)).max())
            finite = finite and bool(np.isfinite(a).all() and np.isfinite(b).all())
        return float(np.max(peaks)), float(np.max(defects)), finite

    def dagger(self) -> "OperatorMatrix":
        if self.terms is None:
            return OperatorMatrix(self.space, self.data.conj().T)
        return OperatorMatrix(self.space, terms=[(m.conj().T, o.conj().T) for m, o in self.terms],
                              scale=None if self.scale is None else np.conj(self.scale))

    def hermiticity_defect(self) -> float:
        return self._entry_stats[1]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H @ v for v of shape (D,) or (D, p).  A term list is applied on its
        factors, H v = sum_i M_i V O_i^T with V the (n_mech, N) view of v
        (C. F. Van Loan, J. Comput. Appl. Math. 123, 85 (2000)), without
        forming ``data``."""
        if self.terms is None:
            return self.data @ v
        v = np.asarray(v)
        cols = v.T.reshape(-1, self.space.n_mech, self.space.dim // self.space.n_mech)
        out = sum((m @ cols @ o.T for m, o in self.terms), np.zeros(cols.shape, complex))
        if self.scale is not None:
            out = out * self.scale
        return out.reshape(v.T.shape).T

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.data, dtype=dtype)


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
        return self.assemble([(mech, *opt, *(None,) * (self.space.n_modes_opt - len(opt)))]).data

    def assemble(self, terms: Iterable[Sequence[np.ndarray | None]],
                 scale: complex | None = None) -> OperatorMatrix:
        """The operator of a sum of product-space terms, each a
        ``(mech, opt_1, ..., opt_modes)`` factor tuple with exactly one factor
        per optical mode (``None`` is the identity); any other count raises
        ``ValueError``.  ``scale``, when given, multiplies the summed terms, so
        each entry rounds as scale * (sum of terms).

        A term's optical factors are combined by a small kron into one N x N
        factor O_i (N = dim / n_mech), and the operator keeps the (M_i, O_i)
        pairs.  Its ``data``, filled on first read, writes the n_mech x n_mech
        slice sum_i M_i O_i[n, n'] of each optical entry (n, n') that is
        nonzero in some term once, summed in term order from zero over the
        terms with a nonzero O_i[n, n'].  Ladder factors have at most three
        nonzeros per row, so that is about 3 N slices and nothing D x D but
        the output.  ``assemble([])`` is the zero operator.
        """
        n_modes = self.space.n_modes_opt
        pairs = []
        for mech, *opt in terms:
            if len(opt) != n_modes:
                raise ValueError(f"{len(opt)} optical factor(s) for {n_modes} optical mode(s)")
            pairs.append((self.mech.eye if mech is None else mech,
                          reduce(np.kron, [self.opt.eye if f is None else f for f in opt])))
        return OperatorMatrix(self.space, terms=pairs, scale=scale)

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
    """
    n = len(factors)
    if n == 0:
        raise ValueError("word must be nonempty")
    if n > MAX_WORD_LENGTH:
        raise ValueError(f"word length {n} exceeds the n! enumeration guard ({MAX_WORD_LENGTH})")
    if labels is None:
        first_seen: dict[int, int] = {}
        labels = [first_seen.setdefault(id(f), i) for i, f in enumerate(factors)]
    by_label = {lb: np.asarray(f, dtype=complex) for lb, f in zip(labels, factors)}
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


def commutator(
    A: np.ndarray | OperatorMatrix, B: np.ndarray | OperatorMatrix
) -> np.ndarray | OperatorMatrix:
    """[A, B] = AB - BA; returns an OperatorMatrix when either input carries a space."""
    da, db = _as_data(A), _as_data(B)
    data = da @ db - db @ da
    for op in (A, B):
        if isinstance(op, OperatorMatrix):
            return OperatorMatrix(op.space, data)
    return data


def _parity_sectors(H: np.ndarray | OperatorMatrix) -> list[tuple]:
    """Index tuples of the diagonal blocks of the Z2 parity sectors that H
    does not connect.

    Each basis state is labelled by its mechanical parity (-1)^m, its optical
    parity (-1)^(n_1 + ... + n_modes) and their product; the first label whose
    two off-blocks H[even, odd] and H[odd, even] are both exactly zero gives
    the sectors.  A bare array, or an H that no label splits, is one sector.
    """
    if not isinstance(H, OperatorMatrix):
        return [(slice(None), slice(None))]
    levels = np.indices(H.space.shape).reshape(len(H.space.shape), -1)
    mech, opt = levels[0] % 2, levels[1:].sum(axis=0) % 2
    for label in (mech, opt, mech ^ opt):
        even, odd = np.flatnonzero(label == 0), np.flatnonzero(label == 1)
        if not (H.data[np.ix_(even, odd)].any() or H.data[np.ix_(odd, even)].any()):
            return [np.ix_(even, even), np.ix_(odd, odd)]
    return [(slice(None), slice(None))]


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

    Dense path: an ``OperatorMatrix`` is solved one conserved Z2 parity
    sector at a time (see ``_parity_sectors``); a bare array is one block.
    Input whose hermiticity defect exceeds 1e-10 relative to the largest entry
    (no floor, so the check holds at any unit scale) is rejected; defect and
    scale are maxima over the blocks, equal to those of the full matrix since
    both off-blocks are exactly zero.  Blocks of an H with imaginary part
    exactly zero go to the real symmetric eigensolver, others to the complex
    Hermitian one.  The returned pairs of each block are then verified: each
    eigenpair residual within 1e-9 of the largest eigenvalue magnitude over
    all blocks (again no floor), and the eigenvectors orthonormal to 1e-9.
    Two blocks of size D/2 cost about a quarter of one D x D solve; verifying
    m pairs of a block of size b costs O(b^2 m), two b^3 products when k is
    None.

    Krylov path: a term list of dimension at least ``KRYLOV_MIN_DIM`` with
    k given is solved on its factors and never forms ``data``
    (``optomech._krylov``).  Its hermiticity defect and scale are streamed
    exactly (``OperatorMatrix._entry_stats``) and checked as above; each
    sector read off the factors is solved by block Lanczos (real when every
    factor is) or, where that is the cheaper solve, densely from its factors,
    and the returned pairs pass the same residual and orthonormality checks,
    with residuals from the factored product and the norm taken as the largest
    Ritz value magnitude over the sectors, which is at most max|lambda|.
    """
    if k is not None and int(k) < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if (isinstance(H, OperatorMatrix) and H.terms and k is not None
            and H.space.dim >= KRYLOV_MIN_DIM):
        from . import _krylov  # loaded by the first solve that takes this path

        return _krylov.spectrum(H, int(k))
    data = _as_data(H)
    n = len(data) if k is None else min(int(k), len(data))
    if not data.imag.any():
        data = data.real
    blocks = [np.ascontiguousarray(data[idx]) for idx in _parity_sectors(H)]
    scale = max(float(np.abs(b).max()) for b in blocks)
    defect = max(float(np.abs(b - b.conj().T).max()) for b in blocks)
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} at scale {scale:.3e})")
    herms = [0.5 * (b + b.conj().T) for b in blocks]
    del blocks  # a one-block real H would otherwise hold a second D x D copy through eigh
    solved = [np.linalg.eigh(h) for h in herms]
    norm = max(float(np.abs(vals).max()) for vals, _ in solved)
    lowest, returned = _merge_lowest([vals for vals, _ in solved], n)
    for h, (vals, vecs), m in zip(herms, solved, returned):
        _verify_pairs((h @ vecs[:, :m]).T, vals[:m], vecs[:, :m].T, norm)
    return lowest


def bogoliubov_pair(rho: complex, ops: ModeOperators) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Squeezing-mixed mode operators A = a^dag sinh(rho) + a cosh(rho) and
    B = b^dag cosh(rho) + b sinh(rho).

    For real rho the interior commutator [A, A^dag] equals the identity; the
    complex-rho case is returned as-is (its commutator is not canonical and
    is treated as a report-only quantity).
    """
    sh, ch = np.sinh(rho), np.cosh(rho)
    A = ops.lift(None, ops.opt.adag * sh + ops.opt.a * ch)
    B = ops.lift(ops.mech.adag * ch + ops.mech.a * sh)
    return OperatorMatrix(ops.space, A), OperatorMatrix(ops.space, B)


def squared_annihilator(ops: ModeOperators) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Half the squared mechanical annihilator, c = b^2 / 2, and [c, c^dag].

    On the interior block [c, c^dag] = m + 1/2; coherent states are
    eigenvectors of c with eigenvalue z^2/2.
    """
    if ops.space.n_mech < 4:
        raise ValueError("need n_mech >= 4 to resolve the squared annihilator")
    c = 0.5 * (ops.mech.a @ ops.mech.a)
    cdag = c.conj().T
    return (OperatorMatrix(ops.space, ops.lift(c)),
            OperatorMatrix(ops.space, ops.lift(c @ cdag - cdag @ c)))


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
