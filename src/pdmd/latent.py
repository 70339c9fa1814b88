"""Latent-coefficient interpolation, monolithic and partitioned.

Both variants learn discrete dynamics offline: the monolithic variant
stacks every parameter's latent trajectory into one tall state and fits
a single DMD; the partitioned variant fits one DMD per parameter.  The
parameter dependence, however, is resolved online: the models are
evaluated at the requested instants, and for each instant a fresh
regressor is trained on the per-parameter latent states there and
evaluated at the queried mu.  Online cost therefore grows with the
number of training parameters and requested instants, in contrast to
the operator- and triplet-interpolation strategies.

``predict_latent`` answers a block of mu rows with that one set of
N_t regressor fits, so scoring a model at all N_p training parameters
costs N_t fits, not N_p * N_t; a query passes its mu as one row and
runs N_t fits.  What the fits share is done once per call: the training
parameters are prepared once (``regression.prepare``) and each row is
checked, clamped and located once (``regression.stencil``), so an
instant costs one ``regression.fit`` plus one ``regression.combine``
per row, and a clamped query or an ill-conditioned rbf system warns
once, not once per instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import regression
from .data import SnapshotMatrix, lattice_steps
from .dmd import DmdModel, evaluate, fit_dmd
from .errors import DataError
from .reduction import GlobalBasis, LatentDataset


@dataclass(frozen=True)
class MonolithicModel:
    """One DMD over the vertically stacked latent trajectories."""

    tag: ClassVar[str] = "mono"

    basis: GlobalBasis
    stacked_dmd: DmdModel
    params: np.ndarray
    block_map: tuple
    dt: float
    t0: float

    def __post_init__(self):
        stops = [stop for _, stop in self.block_map]
        starts = [start for start, _ in self.block_map]
        if starts[0] != 0 or any(
            a != b for a, b in zip(stops[:-1], starts[1:])
        ) or stops[-1] != self.stacked_dmd.modes.shape[0]:
            raise DataError("block map does not partition the stacked rows")


@dataclass(frozen=True)
class PartitionedModel:
    """One DMD per training parameter."""

    tag: ClassVar[str] = "part"

    basis: GlobalBasis
    members: tuple
    params: np.ndarray
    dt: float
    t0: float

    def __post_init__(self):
        ranks = {member.rank for member in self.members}
        steps = {member.dt for member in self.members}
        starts = {member.t0 for member in self.members}
        if len(ranks) != 1 or len(steps) != 1 or len(starts) != 1:
            raise DataError("members must share rank and time lattice")


def fit_monolithic(latent: LatentDataset) -> MonolithicModel:
    """Single DMD on the r*N_p stacked latent state.

    The rank keeps the full stacked dimension, clipped only when the
    trajectory cannot support it (too few instants or rank-deficient
    stacked data).
    """
    stacked = np.vstack(latent.latents)
    spectrum = np.linalg.svd(stacked[:, :-1], compute_uv=False)
    supported = int(np.sum(spectrum > 1e-10 * spectrum[0]))
    stacked_rank = min(stacked.shape[0], len(latent.grid) - 1, supported)
    model = fit_dmd(SnapshotMatrix(stacked, latent.grid), stacked_rank)
    rank = latent.rank
    block_map = tuple(
        (i * rank, (i + 1) * rank) for i in range(latent.n_params)
    )
    return MonolithicModel(
        basis=latent.basis,
        stacked_dmd=model,
        params=latent.params,
        block_map=block_map,
        dt=latent.grid.dt,
        t0=latent.grid.t0,
    )


def fit_partitioned(latent: LatentDataset) -> PartitionedModel:
    """Independent DMD per parameter at the full latent rank."""
    members = tuple(
        fit_dmd(latent.trajectory(i), latent.rank) for i in range(latent.n_params)
    )
    return PartitionedModel(
        basis=latent.basis,
        members=members,
        params=latent.params,
        dt=latent.grid.dt,
        t0=latent.grid.t0,
    )


def predict_latent(model, mu_rows, times, spec: regression.RegressorSpec) -> np.ndarray:
    """Predicted latent trajectories over lattice instants, n x r x N_t
    for an n x p block of parameter rows.

    Each DMD is evaluated once at all requested instants, the training
    parameters are prepared once and every row gets one stencil; then,
    for every instant, one regressor is trained on the per-parameter
    latent states there and read at every row's stencil.  This online
    training, N_t fits per call whatever n is, is the contract of the
    strategy; count it with ``regression.FitCount``.
    """
    if not isinstance(model, (MonolithicModel, PartitionedModel)):
        raise DataError(f"unsupported model type {type(model).__name__}")
    rows = np.asarray(mu_rows, dtype=float)
    if rows.ndim != 2:
        raise DataError(f"parameter rows must form an n x p array, got shape {rows.shape}")
    steps = lattice_steps(times, model.t0, model.dt)
    if isinstance(model, MonolithicModel):
        stacked = evaluate(model.stacked_dmd, steps)
        blocks = [stacked[a:b] for a, b in model.block_map]
    else:
        blocks = [evaluate(member, steps) for member in model.members]
    trajectories = np.stack(blocks)  # N_p x r x N_t
    sites = regression.prepare(spec, model.params)
    stencils = [regression.stencil(sites, mu) for mu in rows]
    latents = np.empty((rows.shape[0],) + trajectories.shape[1:])
    for k in range(steps.size):
        regressor = regression.fit(sites, trajectories[:, :, k])
        for i, query in enumerate(stencils):
            latents[i, :, k] = regression.combine(query, regressor)
    return latents
