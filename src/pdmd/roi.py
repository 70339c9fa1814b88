"""Operator interpolation over the parameter space.

Offline: the partitioned strategy's full-rank DMDs, one per training
parameter in latent coordinates (``latent.fit_partitioned``, which also
reports a rank-deficient training set), their operators flattened into
columns of a matrix whose truncated SVD yields operator modes and
per-parameter coefficients; the coefficients and the initial latent
states are regressed over mu as one value table.  Online: read that
table once at the queried mu (one stencil, one combine), synthesize the
operator from the coefficients, step the latent state, lift.  No
regressor is fitted online, so query cost does not grow with the number
of training parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import regression
from .data import check_lattice, lattice_steps
from .errors import DataError, NumericalError
from .latent import fit_partitioned
from .linalg import truncated_svd
from .reduction import GlobalBasis, LatentDataset, lift


@dataclass(frozen=True)
class RoiModel:
    """Interpolatable family of latent one-step operators.

    ``op_modes`` holds the orthonormal operator modes as columns
    (column-major flattened r x r operators), one per coefficient.
    ``regressor`` maps mu to op_rank + r channels: the op_rank
    operator-mode coefficients, then the r entries of the initial latent
    state.
    """

    tag: ClassVar[str] = "roi"

    basis: GlobalBasis
    op_modes: np.ndarray
    regressor: regression.FittedRegressor
    dt: float
    t0: float

    def __post_init__(self):
        check_lattice(self.t0, self.dt)
        rank, shape = self.basis.rank, np.shape(self.op_modes)
        width = self.regressor.output_dim
        if len(shape) != 2 or shape[0] != rank * rank or width != shape[1] + rank:
            raise DataError(
                f"op_modes of shape {shape} and {width} regressor channels "
                f"do not fit basis rank {rank}"
            )

    @property
    def op_rank(self) -> int:
        return self.op_modes.shape[1]


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


def fit_roi(
    latent: LatentDataset,
    op_rank: int,
    spec: regression.RegressorSpec,
) -> RoiModel:
    """Train the operator-interpolation surrogate on latent trajectories."""
    if not latent.grid.is_uniform:
        raise DataError("operator interpolation requires a uniform time grid")
    max_op_rank = min(latent.rank**2, latent.n_params)
    if not 1 <= op_rank <= max_op_rank:
        raise DataError(f"op_rank {op_rank} out of range [1, {max_op_rank}]")

    operators = []
    for model in fit_partitioned(latent).members:
        # rotate the reduced operator into shared latent coordinates; the
        # projection basis is square at full rank, so this is exact
        operator = model.proj_basis @ model.reduced_op @ model.proj_basis.T
        operators.append(unfold_operator(operator))

    stacked = np.column_stack(operators)
    svd = truncated_svd(stacked, op_rank)
    coefficients = (svd.modes_u.T @ stacked).T  # N_p x r_a
    initial_states = np.vstack([lat[:, 0] for lat in latent.latents])

    sites = regression.prepare(spec, latent.params)
    return RoiModel(
        basis=latent.basis,
        op_modes=svd.modes_u,
        regressor=regression.fit(sites, np.hstack([coefficients, initial_states])),
        dt=latent.grid.dt,
        t0=latent.grid.t0,
    )


def synthesize_operator(model: RoiModel, coeffs: np.ndarray) -> np.ndarray:
    """Latent one-step operator from op_rank operator-mode coefficients,
    the leading channels of the model's regressor read at a query."""
    return fold_operator(model.op_modes @ coeffs)


def predict_roi(model: RoiModel, mu, instants) -> np.ndarray:
    """Predicted state trajectory at mu over the given lattice instants
    (any order, repeats allowed), stepped with the synthesized operator
    in time order: one product per lattice step between consecutive
    instants, and the operator's matrix power (O(log g) products) across
    a gap of g > 1 steps.  A latent state that overflows raises
    ``NumericalError`` naming the instant."""
    steps = lattice_steps(instants, model.t0, model.dt)
    weights = regression.stencil(model.regressor.sites, np.ravel(mu))
    values = regression.combine(weights, model.regressor)
    operator = synthesize_operator(model, values[: model.op_rank])
    state = values[model.op_rank :]
    latent = np.empty((state.shape[0], steps.size))
    order = np.argsort(steps)
    current = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for position, step in zip(order.tolist(), steps[order].tolist()):
            if step == current + 1:
                state = operator @ state
            elif step > current:
                state = np.linalg.matrix_power(operator, step - current) @ state
            current = step
            latent[:, position] = state
    if not np.isfinite(latent).all():
        step = steps[order[~np.isfinite(latent[:, order]).all(axis=0)][0]]
        raise NumericalError(
            f"latent state overflows at instant {model.t0 + step * model.dt:g} "
            f"(lattice step {step})"
        )
    return lift(latent, model.basis)
