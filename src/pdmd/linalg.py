"""Dense matrix kernels: truncated SVD, a randomized SVD that reads a
matrix as a list of column blocks, eigendecomposition and energy-based
rank selection.

Conventions fixed here and relied on by every model module:

* snapshots are columns, flattening is column-major;
* SVD factors are sign-normalized (largest-magnitude entry of each left
  vector made positive) so repeated factorizations are comparable;
* eigenpairs are sorted by descending eigenvalue magnitude, ties broken
  by descending imaginary part, and each eigenvector is rotated so its
  largest-magnitude entry is real and positive.  This makes spectra
  comparable across nearby operators, which parameter interpolation
  relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

DEFAULT_PINV_CUTOFF = 1e-12
_OVERSAMPLE = 10
_POWER_ITERS = 2


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
    """
    m = _as_2d(m)
    if np.iscomplexobj(m):
        raise DataError("truncated_svd expects a real matrix")
    max_rank = min(m.shape)
    if not 1 <= rank <= max_rank:
        raise DataError(f"rank {rank} out of range [1, {max_rank}]")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    if energy is not None:
        rank = select_rank(s, energy, rank)
    u, v = _fix_svd_signs(u[:, :rank], vt[:rank].T)
    return TruncatedSvd(u, s[:rank].copy(), v)


def randomized_svd(blocks, rank: int, seed: int = 0) -> TruncatedSvd:
    """Randomized SVD of the column blocks ``[A_1 | ... | A_k]``, read one
    block at a time (Halko, Martinsson & Tropp, SIAM Review 53 (2011),
    Alg. 4.4: Gaussian sketch, subspace iteration).

    The sketch keeps ``_OVERSAMPLE`` columns beyond ``rank``, clamped to
    the data limit, and runs ``_POWER_ITERS`` power steps.  The Gaussian
    test matrix is drawn whole and split by rows, so a fixed ``seed``
    gives the sketch of the side-by-side matrix up to rounding, and the
    same bits on every run.
    """
    blocks = [_as_2d(block, "block") for block in blocks]
    if not blocks:
        raise DataError("randomized_svd needs at least one block")
    if any(np.iscomplexobj(block) for block in blocks):
        raise DataError("randomized_svd expects real blocks")
    n_rows = blocks[0].shape[0]
    if any(block.shape[0] != n_rows for block in blocks):
        raise DataError("blocks must share the row count")
    splits = np.cumsum([block.shape[1] for block in blocks])
    max_rank = min(n_rows, int(splits[-1]))
    if not 1 <= rank <= max_rank:
        raise DataError(f"rank {rank} out of range [1, {max_rank}]")
    n_sketch = min(rank + _OVERSAMPLE, max_rank)
    omega = np.random.default_rng(seed).standard_normal((splits[-1], n_sketch))

    def range_basis(tests):
        y = blocks[0] @ tests[0]
        for block, test in zip(blocks[1:], tests[1:]):
            y += block @ test
        return np.linalg.qr(y)[0]

    q = range_basis(np.split(omega, splits[:-1]))
    for _ in range(_POWER_ITERS):
        z, _ = np.linalg.qr(np.vstack([block.T @ q for block in blocks]))
        q = range_basis(np.split(z, splits[:-1]))
    ub, s, vt = np.linalg.svd(
        np.hstack([q.T @ block for block in blocks]), full_matrices=False
    )
    u, v = _fix_svd_signs((q @ ub)[:, :rank], vt[:rank].T)
    return TruncatedSvd(u, s[:rank].copy(), v)


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
