"""Davidson and Lanczos on one parity sector of a term list: the iterative
solvers of ``fock.spectrum``.

A sector is given as ``fock._sector_operator`` forms it: a function that
applies H to a block of sector vectors on the factors restricted to the
sector (C. F. Van Loan, J. Comput. Appl. Math. 123, 85 (2000)), and its
diagonal and Gershgorin radii as arrays, which ``fock`` streams off the
term list in the same pass as max|H|, so no D x D array is formed and
nothing of the factors is read here.  ``lowest`` solves a sector whose
diagonal dominates its low levels, with a Gershgorin bound that certifies
them (``_dominant``), as the free part dominates the full builds, by block
Davidson with the diagonal preconditioner (``_davidson``; E. R. Davidson,
J. Comput. Phys. 17, 87 (1975)); any other, or one where Davidson runs out
of budget, by block Lanczos with full reorthogonalization (``_lanczos``;
C. Lanczos, J. Res. Natl. Bur. Stand. 45, 255 (1950); G. H. Golub and
R. Underwood (1977)).  ``fock`` says which of the two a sector may take,
by its dimension.  ``lowest`` returns None when none converges under its
cap, and ``fock._sector_lowest`` then solves the sector densely.  ``fock``
imports this module only when a sector may go iterative, and the seeded
generator of the random rows is made on the first draw, so a process that
never solves a sector iteratively compiles none of this, and one whose
Davidson runs draw nothing never loads ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

from . import fock

_LANCZOS_RTOL = 1e-12  # Ritz residual at convergence, relative to max|theta|
_CHECK_GROWTH = 1.25  # ratio of successive convergence-check basis sizes
_DAVIDSON_BLOCKS = 4  # Davidson's basis, in blocks of k + 2, at which it restarts


class _SeededRows:
    """Standard normal draws from ``numpy.random.default_rng(seed)``, made on
    the first draw, so a solve that draws nothing never loads
    ``numpy.random``; every draw comes from one generator, so the stream is
    that of the generator made up front."""

    def __init__(self, seed: int):
        self._seed, self._rng = seed, None

    def standard_normal(self, shape: tuple[int, int]) -> np.ndarray:
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng.standard_normal(shape)


def _random_rows(rng, shape: tuple[int, int], dtype) -> np.ndarray:
    rows = rng.standard_normal(shape)
    return rows + 1j * rng.standard_normal(shape) if np.dtype(dtype).kind == "c" else rows


def _norm(w: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(w, w).real))


def _extend(V: np.ndarray, m: int, W: np.ndarray, norms: np.ndarray, rng) -> None:
    """Write the rows of W, orthogonal to V[:m], as orthonormal rows
    V[m:m + len(W)], each orthogonalized against the rows written before it.
    A row that loses over half its norm there is orthogonalized twice more
    against all of V (the DGKS criterion), and one that falls below 1e-10 of
    ``norms`` (the norm of its image before any orthogonalization: an
    invariant subspace) is first replaced by a random row."""
    for j, w in enumerate(W):
        before = after = _norm(w)
        if j:
            w = w - (V[m:m + j].conj() @ w) @ V[m:m + j]
            after = _norm(w)
        if not after > 1e-10 * norms[j]:
            w, after = _random_rows(rng, (1, len(w)), V.dtype)[0], 0.0
        if not after > 0.5 * before:
            for _ in range(2):
                w = w - (V[:m + j].conj() @ w) @ V[:m + j]
        V[m + j] = w / _norm(w)


def _lanczos(apply, dim: int, k: int, block: int, dtype, rng, cap: int):
    """Lowest k Ritz pairs of the Hermitian operator ``apply`` on a space of
    dimension ``dim``, by block Lanczos from a seeded random start block, or
    None if the basis reaches ``cap`` vectors first.

    Each image block is orthogonalized twice against the whole basis, and
    its coefficients fill the projected matrix T = V^dag H V column by
    column, so ``eigh`` reads its upper triangle.  The residual of Ritz pair i
    is |S[last block, i]^T W|, W the orthogonalized image of the last block.
    Convergence, the lowest k residuals within ``_LANCZOS_RTOL`` of
    max|theta|, is checked first at 4 (k + block) vectors and then at
    ``_CHECK_GROWTH`` times the previous check, since each check is an
    ``eigh`` of T.  Returns the k values, their Ritz vectors as rows and
    max|theta|.
    """
    V = np.zeros((cap, dim), dtype)
    T = np.zeros((cap, cap), dtype)
    W = _random_rows(rng, (block, dim), dtype)
    norms = np.linalg.norm(W, axis=1)
    m, check = 0, 4 * (k + block)
    while m + block <= cap:
        _extend(V, m, W, norms, rng)
        start, m = m, m + block
        W = apply(V[start:m])
        norms = np.linalg.norm(W, axis=1)
        for _ in range(2):  # V^dag W, conjugating the small product rather than V
            coef = (W.conj() @ V[:m].T).conj().T
            T[:m, start:m] += coef
            W -= coef.T @ V[:m]
        if m >= check or m + block > cap:
            theta, S = np.linalg.eigh(T[:m, :m], UPLO="U")
            top = float(np.abs(theta).max())
            if np.linalg.norm(S[start:m, :k].T @ W, axis=1).max() <= _LANCZOS_RTOL * top:
                return theta[:k], S[:, :k].T @ V[:m], top
            check = int(check * _CHECK_GROWTH)
    return None


def _dominant(apply, diag: np.ndarray, radii: np.ndarray, k: int, dtype):
    """(E, HE, s, g_s) when the diagonal dominates the low levels, else None.

    E holds the p = k + 2 unit vectors at the lowest diagonal entries
    (stable order) and HE their images.  Dominant means max_i
    |H e_i - d_i e_i| below the mean spacing (d_(p) - d_(0)) / p, and some
    s in [k, p] whose s-th Ritz value on E lies below g_s, the least
    d_j - radii_j over the rows outside the s lowest.  By Gershgorin and
    Cauchy interlacing at most s levels lie below g_s, and Ritz values only
    fall as the basis grows, so s converged pairs are the s lowest levels; a
    level made of high rows far below the low diagonal fails the bound.
    """
    p = k + 2
    low = np.argsort(diag, kind="stable")
    E = np.zeros((p, len(diag)), dtype)
    E[np.arange(p), low[:p]] = 1.0
    HE = apply(E)
    off = np.linalg.norm(HE - diag[low[:p], None] * E, axis=1).max()
    if not off < (diag[low[p]] - diag[low[0]]) / p:
        return None
    bound = np.minimum.accumulate((diag - radii)[low][::-1])[::-1]  # g_s at index s
    theta = np.linalg.eigvalsh(E.conj() @ HE.T)
    s = k + np.flatnonzero(theta[k - 1:] < bound[k:p + 1])
    return (E, HE, s[0], bound[s[0]]) if len(s) else None


def _davidson(apply, diag: np.ndarray, k: int, E: np.ndarray, HE: np.ndarray, rng, cap: int):
    """Lowest k Ritz pairs by block Davidson with the diagonal (Jacobi)
    preconditioner from the start block E and its image HE, or None if
    converging would apply more than ``cap`` vectors in all.

    Each iteration is a Rayleigh-Ritz step on the basis V, whose image HV is
    kept, so each new vector costs one apply.  The correction of every
    unconverged Ritz pair i of the block is r_i / (diag - theta_i), the
    denominator floored at 1e-8 of the scale, orthogonalized twice against V
    and then by ``_extend``; V restarts to the Ritz block when it would pass
    ``_DAVIDSON_BLOCKS`` blocks.  Converged when the lowest k residuals are
    within ``_LANCZOS_RTOL`` of the scale max(max|theta|, max|diag|), at most
    max|lambda| since each diagonal entry of a Hermitian H lies within its
    spectrum.  Returns the k values, their Ritz vectors as rows and the scale.
    """
    p = len(E)
    V, HV = np.zeros((2, _DAVIDSON_BLOCKS * p, len(diag)), E.dtype)
    V[:p], HV[:p] = E, HE
    m = applied = p
    peak = float(np.abs(diag).max())
    while True:
        theta, S = np.linalg.eigh(V[:m].conj() @ HV[:m].T)
        top = max(float(np.abs(theta).max()), peak)
        X, HX = S[:, :p].T @ V[:m], S[:, :p].T @ HV[:m]
        R = HX - theta[:p, None] * X
        res = np.linalg.norm(R, axis=1)
        if res[:k].max() <= _LANCZOS_RTOL * top:
            return theta[:k], X[:k], top
        todo = np.flatnonzero(res > _LANCZOS_RTOL * top)
        if applied + len(todo) > cap:
            return None
        if m + len(todo) > len(V):
            V[:p], HV[:p], m = X, HX, p
        den = diag - theta[todo, None]
        W = R[todo] / np.where(np.abs(den) < 1e-8 * top, 1e-8 * top, den)
        norms = np.linalg.norm(W, axis=1)
        for _ in range(2):
            W -= (W @ V[:m].conj().T) @ V[:m]
        _extend(V, m, W, norms, rng)
        HV[m:m + len(W)] = apply(V[m:m + len(W)])
        m, applied = m + len(W), applied + len(W)


def lowest(apply, diag: np.ndarray, radii, k: int, dtype, cap: int, davidson: bool, lanczos: bool):
    """Lowest k values of one sector, their eigenvectors as rows and the
    norm estimate of ``fock.spectrum``, or None when no solver it may take
    converges under ``cap`` applied vectors.

    When ``davidson`` is set and ``_dominant`` finds the diagonal dominant,
    ``_davidson`` converges its s pairs from the block of width k + 2 (a
    level may repeat k times among the lowest k), kept if the s-th value plus
    the residual bound stays below g_s.  Otherwise, or when Davidson would
    pass the cap, and only when ``lanczos`` is set, ``_lanczos`` runs from
    block size 2 and again with twice the block while some level appears
    among the lowest k as often as the block is wide (levels within
    ``EIG_RESIDUAL_RTOL`` of max|theta| count as one), since a block of width
    b finds at most b copies of a level.  None when the Lanczos basis reaches
    the cap or the next block's first check would not fit under it.  The
    random rows of both solvers come from one generator seeded with 0 for
    each sector.
    """
    rng = _SeededRows(0)
    start = _dominant(apply, diag, radii, k, dtype) if davidson else None
    if start is not None:
        E, HE, s, bound = start
        found = _davidson(apply, diag, s, E, HE, rng, cap)
        if found is not None and found[0][-1] + np.sqrt(s) * _LANCZOS_RTOL * found[2] < bound:
            return found[0][:k], found[1][:k], found[2]
    block = 2
    while lanczos and 4 * (k + block) <= cap:
        found = _lanczos(apply, len(diag), k, block, dtype, rng, cap)
        if found is None:
            return None
        vals, vecs, top = found
        gaps = np.flatnonzero(np.diff(vals) > fock.EIG_RESIDUAL_RTOL * top)
        if np.diff(np.concatenate([[-1], gaps, [k - 1]])).max() < block:
            return found
        block *= 2
    return None
