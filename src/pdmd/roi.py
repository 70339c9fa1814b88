"""Operator interpolation over the parameter space.

Offline: one full-rank DMD per training parameter in latent
coordinates, the operators flattened into columns of a matrix whose
truncated SVD yields operator modes and per-parameter coefficients;
the coefficients and the initial latent states are regressed over mu.
Online: locate the queried mu once among the training parameters
(one stencil, shared by both regressors), synthesize the operator from
the regressed coefficients, step the latent state, lift.  No regressor
is fitted online, so query cost does not grow with the number of
training parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import regression
from .data import lattice_steps
from .dmd import fit_dmd, reconstruct
from .errors import DataError, NumericalError, RankDeficientError
from .linalg import scale_exponent, truncated_svd
from .reduction import GlobalBasis, LatentDataset, lift


@dataclass(frozen=True)
class RoiModel:
    """Interpolatable family of latent one-step operators.

    ``op_modes`` holds the orthonormal operator modes as columns
    (column-major flattened r x r operators); ``train_residuals`` records
    each training parameter's latent DMD reconstruction error so
    downstream error bounds can be checked against fit quality.
    """

    tag: ClassVar[str] = "roi"

    basis: GlobalBasis
    op_modes: np.ndarray
    op_rank: int
    coeff_regressor: regression.FittedRegressor
    init_regressor: regression.FittedRegressor
    dt: float
    t0: float
    train_residuals: np.ndarray

    def __post_init__(self):
        regression.sites_of(self.coeff_regressor, self.init_regressor)
        rank = self.basis.rank
        width = self.coeff_regressor.output_dim
        if np.shape(self.op_modes) != (rank * rank, width) or self.op_rank != width:
            raise DataError(
                f"op_modes of shape {np.shape(self.op_modes)} (op_rank {self.op_rank}) "
                f"does not fit basis rank {rank} and {width} coefficient channels"
            )
        if self.init_regressor.output_dim != rank:
            raise DataError(
                f"initial-state regressor has {self.init_regressor.output_dim} "
                f"output channels, not the basis rank {rank}"
            )


def unfold_operator(op: np.ndarray) -> np.ndarray:
    """Flatten an r x r operator into an r^2 vector, column-major."""
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DataError(f"expected a square operator, got shape {op.shape}")
    return op.flatten(order="F")


def fold_operator(vec: np.ndarray) -> np.ndarray:
    """Inverse of unfold_operator."""
    vec = np.asarray(vec)
    side = int(round(np.sqrt(vec.size)))
    if side * side != vec.size:
        raise DataError(f"vector of length {vec.size} is not a square operator")
    return vec.reshape((side, side), order="F")


def _parameter_label(latent: LatentDataset, index: int) -> str:
    return f"training parameter {index} (mu = {latent.params[index].tolist()})"


def fit_roi(
    latent: LatentDataset,
    op_rank: int,
    spec: regression.RegressorSpec,
) -> RoiModel:
    """Train the operator-interpolation surrogate on latent trajectories."""
    if not latent.grid.is_uniform:
        raise DataError("operator interpolation requires a uniform time grid")
    rank = latent.rank
    max_op_rank = min(rank * rank, latent.n_params)
    if not 1 <= op_rank <= max_op_rank:
        raise DataError(f"op_rank {op_rank} out of range [1, {max_op_rank}]")

    operators = []
    residuals = []
    deficient = []  # (supported rank, parameter index, error)
    for i in range(latent.n_params):
        trajectory = latent.trajectory(i)
        try:
            model = fit_dmd(trajectory, rank)
        except RankDeficientError as exc:
            deficient.append((exc.supported_rank, i, exc))
            continue
        except NumericalError as exc:
            raise NumericalError(f"{_parameter_label(latent, i)}: {exc}") from exc
        # rotate the reduced operator into shared latent coordinates; the
        # projection basis is square at full rank, so this is exact
        operator = model.proj_basis @ model.reduced_op @ model.proj_basis.T
        operators.append(unfold_operator(operator))
        # an exact power-of-two scaling keeps the norm finite and normal
        error = reconstruct(model, latent.grid).state - trajectory.state
        exponent = scale_exponent(error)
        norm = np.linalg.norm(np.ldexp(error, -exponent))
        residuals.append(float(np.ldexp(norm, exponent)))

    if deficient:
        supported, i, exc = min(deficient, key=lambda entry: entry[:2])
        raise RankDeficientError(
            f"{_parameter_label(latent, i)}: {exc} (the smallest supported "
            f"rank over all {latent.n_params} training parameters; "
            f"{len(deficient)} of them are rank-deficient)",
            supported,
        ) from exc

    stacked = np.column_stack(operators)
    svd = truncated_svd(stacked, op_rank)
    coefficients = (svd.modes_u.T @ stacked).T  # N_p x r_a
    initial_states = np.vstack([lat[:, 0] for lat in latent.latents])

    sites = regression.prepare(spec, latent.params)
    coeff_regressor = regression.fit(sites, coefficients)
    init_regressor = regression.fit(sites, initial_states)
    return RoiModel(
        basis=latent.basis,
        op_modes=svd.modes_u,
        op_rank=op_rank,
        coeff_regressor=coeff_regressor,
        init_regressor=init_regressor,
        dt=latent.grid.dt,
        t0=latent.grid.t0,
        train_residuals=np.asarray(residuals),
    )


def synthesize_operator(model: RoiModel, weights: np.ndarray) -> np.ndarray:
    """Latent one-step operator at a query's stencil weights over the
    model's sites, from the regressed coefficients."""
    coeffs = regression.combine(weights, model.coeff_regressor)
    return fold_operator(model.op_modes @ coeffs)


def predict_roi(model: RoiModel, mu, instants) -> np.ndarray:
    """Predicted state trajectory at mu over the given lattice instants
    (any order, repeats allowed), stepped by repeated multiplication
    with the synthesized operator."""
    steps = lattice_steps(instants, model.t0, model.dt)
    weights = regression.stencil(model.coeff_regressor.sites, np.ravel(mu))
    operator = synthesize_operator(model, weights)
    state = regression.combine(weights, model.init_regressor)
    latent = np.empty((state.shape[0], steps.size))
    current = 0
    for position in np.argsort(steps):
        while current < steps[position]:
            state = operator @ state
            current += 1
        latent[:, position] = state
    return lift(latent, model.basis)
