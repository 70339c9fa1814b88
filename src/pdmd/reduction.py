"""Shared spatial compression for parametric snapshot sets.

One truncated SVD of all trajectories side by side yields a single basis
of dominant spatial structures, and each trajectory is projected onto
it.  Both ways of computing it read the data one trajectory at a time
and never form the N_h x N_t*N_p stack.  The exact basis is a two-level
SVD: each trajectory is first reduced to a factor with the same Gram
matrix, and the SVD of the concatenated factors gives the stacked
matrix's left singular vectors and values to rounding.  The randomized
basis, for an explicit rank only, sketches the range blockwise.  Every
parametric surrogate in the package works in these latent coordinates
and lifts back through the same basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ParametricDataset, SnapshotMatrix, TimeGrid
from .errors import DataError
from .linalg import randomized_svd, truncated_svd

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
        gram = self.modes_u.T @ self.modes_u
        if np.max(np.abs(gram - np.eye(self.rank))) > ORTHONORMALITY_TOL:
            raise DataError("basis columns are not orthonormal")
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
    columns).  A tall block gives ``A_i @ V_k`` with V from the SVD of
    its R factor, keeping the singular values above rounding and never
    fewer than ``min_columns`` of them, so that any rank up to the data
    limit can still be served.
    """
    factors = []
    for block in states:
        n_state, n_instants = block.shape
        if n_state <= n_instants:
            factors.append(np.linalg.qr(block.T, mode="r").T)
            continue
        _, s, vt = np.linalg.svd(np.linalg.qr(block, mode="r"))
        cutoff = s[0] * max(block.shape) * np.finfo(float).eps
        keep = max(int(np.count_nonzero(s > cutoff)), min_columns)
        factors.append(block @ vt[:keep].T)
    return np.hstack(factors)


def fit_global_basis(
    dataset: ParametricDataset,
    rank: int | None,
    randomized: bool = False,
    seed: int = 0,
    energy: float = DEFAULT_ENERGY,
) -> GlobalBasis:
    """Truncated SVD of the trajectories side by side.

    An explicit ``rank`` wins; with ``rank`` None the basis keeps the
    smallest rank capturing ``energy`` of the squared spectrum.  The
    exact path is a two-level SVD: a rounding-level factor of each
    trajectory, then one thin SVD of ``[F_1 | ... | F_Np]``, whose
    spectrum also sets the energy rank.  ``randomized`` applies to an
    explicit rank only: a blockwise randomized range finder, reproducible
    for a fixed ``seed``, that trades a small spectral error for speed
    on large states.  The energy rank always takes the exact path.
    ``energy_captured`` is relative to the sum of the trajectories'
    squared Frobenius norms.
    """
    states = dataset.states()
    max_rank = min(dataset.n_state, dataset.n_params * len(dataset.grid))
    if rank is not None and rank > max_rank:
        raise DataError(f"rank {rank} exceeds the data limit {max_rank}")
    total = float(sum(np.linalg.norm(state) ** 2 for state in states))
    if total == 0:
        raise DataError("cannot build a basis from all-zero snapshots")
    if rank is None:
        factors = _gram_factors(states, 1)
        svd = truncated_svd(factors, min(factors.shape), energy=energy)
    elif randomized:
        svd = randomized_svd(states, rank, seed=seed)
    else:
        svd = truncated_svd(_gram_factors(states, rank), rank)
    energy_captured = min(float(np.sum(svd.singular_values**2) / total), 1.0)
    return GlobalBasis(svd.modes_u, svd.singular_values, energy_captured)


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
