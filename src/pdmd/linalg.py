"""Dense matrix kernels: truncated SVD, eigendecomposition, energy-based
rank selection, and the power-of-two scaling that keeps squared norms
of data in extreme units inside the float64 range.

Conventions fixed here and relied on by every model module:

* snapshots are columns, flattening is column-major;
* SVD factors are sign-normalized (largest-magnitude entry of each left
  vector made positive) so repeated factorizations are comparable;
* eigenpairs are sorted by descending eigenvalue magnitude, ties broken
  by descending imaginary part, and each eigenvector is rotated so its
  largest-magnitude entry is real and positive.  This makes spectra
  comparable across nearby operators, which parameter interpolation
  relies on.

SciPy's LAPACK wrappers load on the first tall SVD (``_householder_qr``,
``_blocked_qr``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

DEFAULT_PINV_CUTOFF = 1e-12
# largest |entry| for which data are used unscaled: their Gram matrices
# and squared norms then stay far inside the normal range (and inside
# LAPACK's own rescaling thresholds), so scaling would only cost a copy
SCALE_FREE = (2.0**-128, 2.0**128)
# norms below this have subnormal squares, so their sums lose digits
SUBNORMAL_NORM = float(np.sqrt(np.finfo(float).tiny))
# columns per block of the blocked QR (``dgeqrt``): the fastest of 8-48
# on 10000 x 54 factors at one BLAS thread, and within noise of the best
# on 20000 x 78; fixed, since the last bits of the result depend on it
QR_BLOCK = 16


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-r factors ``m ~= modes_u @ diag(singular_values) @ right_v.T``."""

    modes_u: np.ndarray
    singular_values: np.ndarray
    right_v: np.ndarray

    @property
    def rank(self) -> int:
        return self.singular_values.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.modes_u * self.singular_values) @ self.right_v.T


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a square matrix; columns of ``eigenvectors`` are unit
    2-norm and phase-normalized."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_2d(m, name="matrix"):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DataError(f"{name} must be a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{name} contains non-finite entries")
    return m


def _fix_svd_signs(u, v):
    """Flip paired column signs so each u-column's largest entry is positive."""
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs, v * signs


def truncated_svd(m, rank: int, energy: float | None = None) -> TruncatedSvd:
    """Deterministic rank-``rank`` SVD of a real matrix.

    The returned factors are the Eckart-Young optimal rank-r approximation;
    the discarded tail energy equals ``sqrt(sum(s[rank:] ** 2))``.  With
    ``energy`` the rank kept is the smallest at most ``rank`` that
    captures that fraction of the squared spectrum (``select_rank``).

    A tall matrix (more rows than columns) is first reduced by a
    Householder QR (``dgeqrf``), ``m = Q R``; the SVD of the small R gives
    the singular values and right vectors, and Q is applied to the kept
    left vectors of R only (Chan, ACM TOMS 8 (1982)), so the discarded
    left vectors are never formed.  Other shapes take one thin SVD.
    """
    return _truncated_svd(m, rank, energy, _householder_qr)


def blocked_truncated_svd(m, rank: int, energy: float | None = None) -> TruncatedSvd:
    """``truncated_svd`` of a matrix the caller no longer needs, with a
    level-3 QR for a tall one.

    A tall ``m`` is reduced by LAPACK's recursive-panel blocked QR
    (``dgeqrt``, Elmroth & Gustavson, IBM J. Res. Dev. 44 (2000)) with
    ``QR_BLOCK`` columns per block, and the kept left vectors of R are
    taken back by its compact-WY apply (``dgemqrt``, Schreiber & Van
    Loan, SIAM J. Sci. Stat. Comput. 10 (1989)).  ``dgeqrf`` runs the
    unblocked, level-2 ``dgeqr2`` below about 128 columns, one pass over
    the matrix per column; on a 10000 x 54 matrix the blocked QR is about
    2.5x faster.  The rank selection and the sign convention are
    ``truncated_svd``'s, but the last bits differ from it, so
    ``truncated_svd`` keeps ``dgeqrf`` for the DMD fits, whose stacked
    operators amplify rounding.  A tall F-ordered float64 ``m`` is
    factored in place, so its contents are lost (any other layout is
    copied first).  A matrix that is not tall takes ``truncated_svd``'s
    thin SVD, bit for bit.
    """
    return _truncated_svd(m, rank, energy, _blocked_qr)


def _truncated_svd(m, rank, energy, tall_qr) -> TruncatedSvd:
    """The truncated SVD of both entries: ``tall_qr(m)`` gives the R of a
    tall ``m`` and the function that applies its Q to a block."""
    m = _as_2d(m)
    if np.iscomplexobj(m):
        raise DataError("truncated_svd expects a real matrix")
    max_rank = min(m.shape)
    if not 1 <= rank <= max_rank:
        raise DataError(f"rank {rank} out of range [1, {max_rank}]")
    tall = m.shape[0] > m.shape[1]
    try:
        if tall:
            r, apply_q = tall_qr(m)
            u, s, vt = np.linalg.svd(r)
        else:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if energy is not None:
        rank = select_rank(s, energy, rank)
    u = u[:, :rank]
    if tall:
        u = apply_q(u)
    u, v = _fix_svd_signs(u, vt[:rank].T)
    return TruncatedSvd(np.ascontiguousarray(u), s[:rank].copy(), v)


def _householder_qr(m):
    """LAPACK ``dgeqrf`` of a tall real matrix: its R, and the function
    that returns ``Q @ [block; 0]`` (``dormqr``), one column of Q's span
    per column of ``block``."""
    from scipy.linalg import lapack

    lwork = lapack.dgeqrf_lwork(*m.shape)[0]
    reflectors, tau, _, info = lapack.dgeqrf(m, lwork=int(lwork))
    _check_info(info, "QR factorization")

    def apply_q(block):
        padded = _padded(block, m.shape[0])
        lwork = lapack.dormqr("L", "N", reflectors, tau, padded, -1)[1][0]
        product, _, info = lapack.dormqr(
            "L", "N", reflectors, tau, padded, int(lwork), overwrite_c=1
        )
        _check_info(info, "applying Q")
        return product

    return np.triu(reflectors[: m.shape[1]]), apply_q


def _blocked_qr(m):
    """``_householder_qr`` by the blocked ``dgeqrt`` and ``dgemqrt``,
    overwriting an F-ordered float64 ``m``."""
    from scipy.linalg import lapack

    block_size = min(QR_BLOCK, m.shape[1])
    reflectors, factor_t, info = lapack.dgeqrt(block_size, m, overwrite_a=1)
    _check_info(info, "QR factorization")

    def apply_q(block):
        product, info = lapack.dgemqrt(
            reflectors, factor_t, _padded(block, m.shape[0]), overwrite_c=1
        )
        _check_info(info, "applying Q")
        return product

    return np.triu(reflectors[: m.shape[1]]), apply_q


def _padded(block, n_rows):
    """``[block; 0]`` with ``n_rows`` rows, F-ordered for LAPACK."""
    padded = np.zeros((n_rows, block.shape[1]), order="F")
    padded[: block.shape[0]] = block
    return padded


def _check_info(info, step):
    if info != 0:  # pragma: no cover - only on invalid arguments
        raise NumericalError(f"{step} failed (LAPACK info {info})")


def scale_exponent(*arrays) -> int:
    """The exponent e for which the real ``arrays`` times 2**-e, an exact
    scaling, have their largest |entry| in [0.5, 1), so that squares and
    their sums neither overflow nor go subnormal.  0 (no scaling) when
    that entry lies inside ``SCALE_FREE``, and for empty, all-zero or
    non-finite data."""
    peak = max(float(max(a.max(initial=0), -a.min(initial=0))) for a in arrays)
    return 0 if SCALE_FREE[0] <= peak < SCALE_FREE[1] else int(np.frexp(peak)[1])


def ldexp(values, exponent: int) -> np.ndarray:
    """``values`` times 2**exponent, exact barring overflow and underflow,
    complex values part by part."""
    if np.iscomplexobj(values):
        return np.ldexp(values.real, exponent) + 1j * np.ldexp(values.imag, exponent)
    return np.ldexp(values, exponent)


def eig(m) -> EigenDecomposition:
    """Eigendecomposition with the canonical ordering and phase convention."""
    m = _as_2d(m)
    if m.shape[0] != m.shape[1]:
        raise DataError(f"eig expects a square matrix, got {m.shape}")
    try:
        values, vectors = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    values, vectors = canonical_eig_order(values, vectors)
    return EigenDecomposition(values, vectors)


def canonical_eig_order(values, vectors):
    """Sort eigenpairs by (|lambda| desc, Im lambda desc) and phase-normalize.

    Each eigenvector is scaled to unit 2-norm and rotated so its
    largest-magnitude entry is real and positive.
    """
    values = np.asarray(values, dtype=complex)
    vectors = np.asarray(vectors, dtype=complex)
    order = np.lexsort((-values.imag, -np.abs(values)))
    values = values[order].copy()
    vectors = vectors[:, order].copy()
    norms = np.linalg.norm(vectors, axis=0)
    norms[norms == 0] = 1.0
    vectors /= norms
    lead = np.argmax(np.abs(vectors), axis=0)
    phases = vectors[lead, np.arange(vectors.shape[1])]
    mags = np.abs(phases)
    mags[mags == 0] = 1.0
    vectors *= (mags / phases)
    return values, vectors


def select_rank(singular_values, energy: float, max_rank: int) -> int:
    """Smallest rank capturing ``energy`` of the cumulative squared spectrum,
    clamped to ``max_rank``."""
    s = np.asarray(singular_values, dtype=float)
    if s.ndim != 1 or s.shape[0] == 0:
        raise DataError("singular values must be a non-empty 1-D array")
    if np.any(s < 0):
        raise DataError("singular values must be non-negative")
    if np.any(np.diff(s) > 0):
        raise DataError("singular values must be sorted non-increasing")
    if not 0 < energy <= 1:
        raise DataError(f"energy must lie in (0, 1], got {energy}")
    total = float(np.sum(s**2))
    if total == 0:
        raise NumericalError("all-zero singular spectrum")
    cumulative = np.cumsum(s**2) / total
    rank = int(np.searchsorted(cumulative, energy - 1e-15) + 1)
    return min(rank, max_rank, s.shape[0])
