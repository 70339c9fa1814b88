"""Shared spatial compression for parametric snapshot sets.

One truncated SVD of all trajectories side by side yields a single basis
of dominant spatial structures, and each trajectory is projected onto
it.  The basis is exact and reads the data one trajectory at a time,
never forming the N_h x N_t*N_p stack: a two-level SVD first reduces
each trajectory A to a factor F with F F^T = A A^T to rounding (a tall
A rotated by the eigenvectors of its small Gram matrix A^T A, a wide A
by the QR of A^T), and the SVD of the concatenated factors gives the
stacked matrix's left singular vectors and values to rounding; the
tall trajectories rotate into one reused buffer, and the kept columns
go straight into one F-ordered array.  When the concatenation is tall,
that SVD is a level-3 blocked Householder QR (LAPACK's ``dgeqrt``)
factoring the array in place, then the SVD of the small R, and only the
kept left singular vectors are formed, by the blocked apply of Q
(``dgemqrt``; ``linalg.blocked_truncated_svd``).  Every other SVD in
the package, the DMD fits' included, is one thin SVD
(``linalg.truncated_svd``): the blocked QR moves the last bits, and a
stacked DMD amplifies them.  The rank is either
explicit or the smallest that captures an energy fraction.  Every
parametric surrogate in the package works in these latent coordinates
and lifts back through the same basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ParametricDataset, SnapshotMatrix, TimeGrid
from .errors import DataError, NumericalError
from .linalg import SCALE_FREE, blocked_truncated_svd, scale_exponent

ORTHONORMALITY_TOL = 1e-10
DEFAULT_ENERGY = 0.9999


@dataclass(frozen=True)
class GlobalBasis:
    """Orthonormal spatial modes shared by all parameters.

    ``energy_captured`` is the cumulative squared-singular-value ratio
    at the truncation rank.
    """

    modes_u: np.ndarray
    singular_values: np.ndarray
    energy_captured: float

    def __post_init__(self):
        with np.errstate(over="ignore", invalid="ignore"):
            gram = self.modes_u.T @ self.modes_u
        # written so that an inf or a NaN fails the test
        if not np.max(np.abs(gram - np.eye(self.rank))) <= ORTHONORMALITY_TOL:
            raise DataError("basis columns are not orthonormal")
        if not np.isfinite(self.singular_values).all():
            raise DataError("basis singular values contain non-finite entries")
        if not 0 < self.energy_captured <= 1 + 1e-12:
            raise DataError(f"energy captured {self.energy_captured} out of (0, 1]")

    @property
    def rank(self) -> int:
        return self.modes_u.shape[1]

    @property
    def n_state(self) -> int:
        return self.modes_u.shape[0]


@dataclass(frozen=True)
class LatentDataset:
    """Per-parameter latent trajectories in a shared basis."""

    basis: GlobalBasis
    params: np.ndarray
    latents: tuple
    grid: TimeGrid

    def __post_init__(self):
        rank = self.basis.rank
        for latent in self.latents:
            if latent.shape != (rank, len(self.grid)):
                raise DataError(
                    f"latent block shape {latent.shape} does not match "
                    f"(rank, N_t) = ({rank}, {len(self.grid)})"
                )
        if self.params.shape[0] != len(self.latents):
            raise DataError("one latent block per parameter required")

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.rank

    def trajectory(self, index: int) -> SnapshotMatrix:
        return SnapshotMatrix(self.latents[index], self.grid)


def _gram_factors(states: list, min_columns: int) -> np.ndarray:
    """``[F_1 | ... | F_Np]`` with ``F_i @ F_i.T == A_i @ A_i.T`` to
    rounding for each trajectory ``A_i``, so the concatenation has the
    stacked matrix's left singular vectors and values.

    A wide block gives the transposed R of ``qr(A_i.T)`` (exact, N_h
    columns).  A tall block is rotated by the eigenvectors V of its Gram
    matrix ``A_i.T @ A_i`` (the method of snapshots, Sirovich, Q. Appl.
    Math. 45 (1987)): V is orthogonal to rounding, so ``B = A_i @ V``
    has ``B @ B.T == A_i @ A_i.T`` however inaccurate the small
    eigenvectors are.  The columns of B whose measured norm exceeds the
    largest one times ``max(shape) * eps`` are kept, never fewer than
    ``min_columns`` so that any rank up to the data limit can still be
    served, in descending-norm order.  Only columns below that cutoff are
    dropped, so the error bound is the one of a cutoff on the block's
    singular values.  The Gram squares the spectrum, so eigenvectors of
    singular values below about 1e-8 of the largest come out mixed: on a
    spectrum spanning more than that, more columns may clear the cutoff
    than a QR of the block would keep (still exact, with a wider
    second-level SVD).  Every tall block rotates into one buffer, made
    once per call (and again only for a block of another shape), so a
    basis does not fault in a fresh N_h x N_t array per trajectory.  The
    kept columns are written straight into one F-ordered array, LAPACK's
    layout, which the blocked QR of ``fit_global_basis`` then factors in
    place; it is reserved at the data's own width (no factor has more
    columns than its block), and only the written columns are touched.
    """
    n_state = states[0].shape[0]
    factors = np.empty((n_state, sum(block.shape[1] for block in states)), order="F")
    end = 0
    rotated = None
    for block in states:
        n_instants = block.shape[1]
        if n_state <= n_instants:
            factors[:, end : end + n_state] = np.linalg.qr(block.T, mode="r").T
            end += n_state
            continue
        if rotated is None or rotated.shape != block.shape:
            rotated = np.empty(block.shape)
        np.matmul(block, np.linalg.eigh(block.T @ block)[1], out=rotated)
        norms = np.sqrt(np.einsum("ij,ij->j", rotated, rotated))
        order = np.argsort(-norms, kind="stable")
        cutoff = norms[order[0]] * max(block.shape) * np.finfo(float).eps
        keep = max(int(np.count_nonzero(norms > cutoff)), min_columns)
        kept = rotated[:, order[:keep]]
        factors[:, end : end + kept.shape[1]] = kept
        end += kept.shape[1]
    return factors[:, :end]


def fit_global_basis(
    dataset: ParametricDataset,
    rank: int | None,
    energy: float = DEFAULT_ENERGY,
) -> GlobalBasis:
    """Truncated SVD of the trajectories side by side.

    An explicit ``rank`` wins; with ``rank`` None the basis keeps the
    smallest rank capturing ``energy`` of the squared spectrum.  The
    basis is a two-level SVD: a rounding-level factor of each
    trajectory, then the truncated SVD of ``[F_1 | ... | F_Np]`` (for a
    tall concatenation the blocked QR ``dgeqrt``, the SVD of R, and Q
    applied to the kept left vectors of R only by ``dgemqrt``; see
    ``linalg.blocked_truncated_svd``), whose spectrum also sets the
    energy rank.  The DMD SVDs are one thin SVD each
    (``linalg.truncated_svd``), since the blocked QR moves the last bits
    and a stacked DMD amplifies them.  ``energy_captured`` is relative to the sum of the trajectories'
    squared Frobenius norms.

    Snapshots in extreme units are first scaled by a power of two
    (``linalg.scale_exponent``), which is exact, so that the Gram
    matrices and squared norms neither overflow nor underflow; the rank
    and energy come from the scaled spectrum and the stored singular
    values are scaled back.  The trajectories' norms, which the energy
    needs anyway, are taken first; when they bound every entry inside
    ``linalg.SCALE_FREE`` the exponent is 0 without a scan for the peak.
    """
    states = dataset.states()
    max_rank = min(dataset.n_state, dataset.n_params * len(dataset.grid))
    if rank is not None and rank > max_rank:
        raise DataError(f"rank {rank} exceeds the data limit {max_rank}")
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(state) for state in states]
    # a block's largest |entry| lies between its norm / sqrt(size) and its
    # norm: bounds one power of two inside SCALE_FREE (a margin for the
    # norms' rounding) put the peak there without a pass to find it
    inside = max(norms) < SCALE_FREE[1] / 2 and any(
        norm > 2 * SCALE_FREE[0] * math.sqrt(state.size) for norm, state in zip(norms, states)
    )
    exponent = 0 if inside else scale_exponent(*states)
    if exponent:
        states = [np.ldexp(state, -exponent) for state in states]
        norms = [np.linalg.norm(state) for state in states]
    total = float(sum(norm**2 for norm in norms))
    if total == 0:
        raise DataError("cannot build a basis from all-zero snapshots")
    try:
        if rank is None:
            factors = _gram_factors(states, 1)
            svd = blocked_truncated_svd(factors, min(factors.shape), energy=energy)
        else:
            svd = blocked_truncated_svd(_gram_factors(states, rank), rank)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"basis factorization failed: {exc}") from exc
    energy_captured = min(float(np.sum(svd.singular_values**2) / total), 1.0)
    with np.errstate(over="ignore"):
        singular_values = np.ldexp(svd.singular_values, exponent)
    if not np.all(np.isfinite(singular_values)):
        raise NumericalError("the snapshots' singular values overflow float64")
    return GlobalBasis(svd.modes_u, singular_values, energy_captured)


def project(dataset: ParametricDataset, basis: GlobalBasis) -> LatentDataset:
    """Latent trajectories: basis transpose applied to each state block."""
    if basis.n_state != dataset.n_state:
        raise DataError(
            f"basis rows ({basis.n_state}) do not match state "
            f"dimension ({dataset.n_state})"
        )
    latents = tuple(basis.modes_u.T @ traj.state for traj in dataset.trajectories)
    return LatentDataset(basis, dataset.params, latents, dataset.grid)


def lift(latent: np.ndarray, basis: GlobalBasis) -> np.ndarray:
    """Back to state space: modes times a latent vector or matrix."""
    latent = np.asarray(latent)
    if latent.ndim not in (1, 2) or latent.shape[0] != basis.rank:
        raise DataError(
            f"latent of shape {latent.shape} does not match basis rank ({basis.rank})"
        )
    return basis.modes_u @ latent
