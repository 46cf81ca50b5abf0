"""Davidson and Lanczos on the Kronecker factors: the Krylov path of
``fock.spectrum``.

A term list H = scale * sum_i M_i (x) O_i (``fock.OperatorMatrix``) is never
formed as a D x D array here.  Its Z2 sectors are read off the factors
(``_term_sectors``), H is applied to a block of sector vectors on the
factors restricted to the sector, whose diagonal and Gershgorin radii are
read off them too (``_sector_operator``; C. F. Van Loan, J. Comput. Appl.
Math. 123, 85 (2000)).  A sector whose diagonal dominates its low levels,
with a Gershgorin bound that certifies them (``_dominant``), as the free
part dominates the full builds, is solved by block Davidson with
the diagonal preconditioner (``_davidson``; E. R. Davidson, J. Comput. Phys.
17, 87 (1975)); any other, or one where Davidson runs out of budget, by
block Lanczos with full reorthogonalization (``_lanczos``; C. Lanczos,
J. Res. Natl. Bur. Stand. 45, 255 (1950); G. H. Golub and R. Underwood
(1977)), or by the dense ``eigh`` of the sector formed from its factors
where that is the cheaper solve (``_sector_lowest``).
``spectrum`` then applies the checks of the dense path at its tolerances.
``fock.spectrum`` imports this module on the first solve that takes the
path, so a process that never does compiles none of it.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import fock

_LANCZOS_RTOL = 1e-12  # Ritz residual at convergence, relative to max|theta|
_CHECK_GROWTH = 1.25  # ratio of successive convergence-check basis sizes
_DAVIDSON_BLOCKS = 4  # Davidson's basis, in blocks of k + 2, at which it restarts


def _parity_moves(factor: np.ndarray, parity: np.ndarray) -> set[int]:
    """The parity changes of a factor's nonzero entries: 0 keeps the parity
    of its mode, 1 flips it."""
    rows, cols = np.nonzero(factor)
    return set((parity[rows] ^ parity[cols]).tolist())


def _term_sectors(H: fock.OperatorMatrix) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The Z2 sectors of a term list, read off its factors, in the order of
    ``fock._parity_sectors``: the mechanical, the optical, then the product
    label splits H when every term keeps it.  Each sector is a list of
    (mechanical indices, optical indices) blocks, the product-label sectors
    two blocks each; a term list that no label splits is one sector."""
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


def _sector_operator(H: fock.OperatorMatrix, blocks: list[tuple[np.ndarray, np.ndarray]]):
    """(dimension, apply, dtype, diagonal, radii) of H on one sector.
    ``apply`` maps a (p, d) array whose rows are sector vectors to their
    images: each block pair (b, c) applies the factors restricted to it,
    M[b, c] X_c O[b, c]^T, skipping restrictions that are zero.  The scale is
    folded into the mechanical factors, and the factors are real when they
    all are.  The real diagonal is read off them, sum_i diag(M_i[b, b]) (x)
    diag(O_i[b, b]) on each block b, and ``radii()`` each row's sum of
    off-diagonal |H|, one (mechanical, optical) pair of diagonal offsets at a
    time: H there is the sum of outer products of the factors' stripes."""
    shapes = [(len(mi), len(ni)) for mi, ni in blocks]
    edges = np.cumsum([0] + [a * b for a, b in shapes])
    scale = 1.0 if H.scale is None else H.scale
    parts = []
    for b, (mb, nb) in enumerate(blocks):
        for c, (mc, nc) in enumerate(blocks):
            for m, o in H.terms:
                m_bc, o_bc = scale * m[np.ix_(mb, mc)], o[np.ix_(nb, nc)]
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

    diag = [np.zeros(shape) for shape in shapes]
    for b, c, ms, ot in parts:
        if b == c:
            diag[b] += np.outer(ms.diagonal(), ot.diagonal()).real

    def radii():
        out = [np.zeros(shape) for shape in shapes]
        for (b, c), group in itertools.groupby(parts, key=lambda part: part[:2]):
            pairs = [(ms, ot.T) for *_, ms, ot in group]
            dm, dn = (sorted(set().union(*(_offsets(pair[j]) for pair in pairs))) for j in (0, 1))
            # entries[i, j, m, n]: H at row (m, n) of block b, offsets (dm[i], dn[j]) into block c
            entries = sum(np.einsum("im,jn->ijmn", _stripes(ms, dm), _stripes(o, dn)) for ms, o in pairs)
            if b == c and 0 in dm and 0 in dn:
                entries[dm.index(0), dn.index(0)] = 0
            out[b] += np.abs(entries).sum(axis=(0, 1))
        return np.concatenate([x.ravel() for x in out])

    return int(edges[-1]), apply, dtype, np.concatenate([x.ravel() for x in diag]), radii


def _offsets(f: np.ndarray) -> set[int]:
    rows, cols = np.nonzero(f)
    return set((cols - rows).tolist())


def _stripes(f: np.ndarray, offsets: list[int]) -> np.ndarray:
    """Row i holds the diagonal of f at ``offsets[i]`` (column - row) over
    f's rows, zero where that diagonal has no entry."""
    rows = np.arange(len(f))
    cols = rows + np.array(offsets)[:, None]
    inside = (cols >= 0) & (cols < f.shape[1])
    return np.where(inside, f[rows, np.clip(cols, 0, f.shape[1] - 1)], 0)


def _random_rows(rng: np.random.Generator, shape: tuple[int, int], dtype) -> np.ndarray:
    rows = rng.standard_normal(shape)
    return rows + 1j * rng.standard_normal(shape) if np.dtype(dtype).kind == "c" else rows


def _norm(w: np.ndarray) -> float:
    return float(np.sqrt(np.vdot(w, w).real))


def _extend(V: np.ndarray, m: int, W: np.ndarray, norms: np.ndarray,
            rng: np.random.Generator) -> None:
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


def _lanczos(apply, dim: int, k: int, block: int, dtype, rng: np.random.Generator, cap: int):
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


def _dominant(apply, diag: np.ndarray, radii, k: int, dtype):
    """(E, HE, s, g_s) when the diagonal dominates the low levels, else None.

    E holds the p = k + 2 unit vectors at the lowest diagonal entries
    (stable order) and HE their images.  Dominant means max_i
    |H e_i - d_i e_i| below the mean spacing (d_(p) - d_(0)) / p, and some
    s in [k, p] whose s-th Ritz value on E lies below g_s, the least
    d_j - radii()_j over the rows outside the s lowest.  By Gershgorin and
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
    bound = np.minimum.accumulate((diag - radii())[low][::-1])[::-1]  # g_s at index s
    theta = np.linalg.eigvalsh(E.conj() @ HE.T)
    s = k + np.flatnonzero(theta[k - 1:] < bound[k:p + 1])
    return (E, HE, s[0], bound[s[0]]) if len(s) else None


def _davidson(apply, diag: np.ndarray, k: int, E: np.ndarray, HE: np.ndarray,
              rng: np.random.Generator, cap: int):
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


def _sector_lowest(apply, diag: np.ndarray, radii, k: int, dtype,
                   rng: np.random.Generator, iterative: bool):
    """Lowest k values of one sector, their eigenvectors as rows and the
    norm estimate of ``spectrum``.

    When ``iterative`` is set and ``_dominant`` finds the diagonal dominant,
    ``_davidson`` converges its s pairs from the block of width k + 2 (a
    level may repeat k times among the lowest k), kept if the s-th value plus
    the residual bound stays below g_s.  Otherwise, or when Davidson would
    pass the cap below, ``_lanczos`` runs from block size 2 and again
    with twice the block while some level appears among the lowest k as
    often as the block is wide (levels within ``EIG_RESIDUAL_RTOL`` of
    max|theta| count as one), since a block of width b finds at most b
    copies of a level.  Its basis may take half the sector or
    ``KRYLOV_MAX_BASIS`` vectors, whichever is fewer; past half the sector
    the dense ``eigh`` of the sector, formed by ``apply`` on the identity, is
    the cheaper solve (measured at dims 576 to 1600).  That dense solve runs
    when the basis reaches its cap, when the first convergence check would
    not fit under the cap, and when ``iterative`` is not set.
    """
    dim = len(diag)
    cap = min(fock.KRYLOV_MAX_BASIS, dim // 2)
    start = _dominant(apply, diag, radii, k, dtype) if iterative and 4 * (k + 2) <= cap else None
    if start is not None:
        E, HE, s, bound = start
        found = _davidson(apply, diag, s, E, HE, rng, cap)
        if found is not None and found[0][-1] + np.sqrt(s) * _LANCZOS_RTOL * found[2] < bound:
            return found[0][:k], found[1][:k], found[2]
    block = 2
    while iterative and 4 * (k + block) <= cap:
        found = _lanczos(apply, dim, k, block, dtype, rng, cap)
        if found is None:
            break
        vals, vecs, top = found
        gaps = np.flatnonzero(np.diff(vals) > fock.EIG_RESIDUAL_RTOL * top)
        if np.diff(np.concatenate([[-1], gaps, [k - 1]])).max() < block:
            return found
        block *= 2
    vals, vecs = np.linalg.eigh(apply(np.eye(dim, dtype=dtype)).T)
    return vals[:k], vecs[:, :k].T, float(np.abs(vals).max())


def spectrum(H: fock.OperatorMatrix, k: int) -> np.ndarray:
    """``fock.spectrum`` of a term list on its factors, one sector of
    ``_term_sectors`` at a time; no D x D array is formed."""
    peak, defect, finite = H._entry_stats
    if not finite:
        raise ValueError("matrix has a non-finite entry")
    if defect > fock.HERMITICITY_RTOL * peak:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} at scale {peak:.3e})")
    rng = np.random.default_rng(0)
    mechs, opts = zip(*H.terms)
    iterative = not (_multiples(mechs) or _multiples(opts))
    sectors = []
    for blocks in _term_sectors(H):
        dim, apply, dtype, diag, radii = _sector_operator(H, blocks)
        sectors.append((apply, *_sector_lowest(apply, diag, radii, min(k, dim), dtype, rng,
                                               iterative)))
    norm = max(top for *_, top in sectors)
    lowest, returned = fock._merge_lowest([vals for _, vals, _, _ in sectors], k)
    for (apply, vals, vecs, _), m in zip(sectors, returned):
        fock._verify_pairs(apply(vecs[:m]), vals[:m], vecs[:m], norm)
    return lowest
