"""Operator interpolation over the parameter space.

Offline: the partitioned strategy's full-rank DMDs, one per training
parameter in latent coordinates (``latent.fit_partitioned``, which also
reports a rank-deficient training set), their operators flattened into
columns of a matrix whose truncated SVD yields operator modes and
per-parameter coefficients; the coefficients and the initial latent
states are regressed over mu as one real value table, which the model
holds with its sites.  Online,
``predict_roi`` answers an n x p block of parameter rows in one pass:
it reads that table once for the block (one stencil, one combine),
synthesizes every row's operator from its coefficients, steps all the
latent states together and returns n x r x N_t latents, which the
caller lifts.  A lone row steps as a 1-D vector (``np.dot``), a block
as one batched product (``np.matmul``); both make the same BLAS gemv
per row, so a row reads the same bits alone or in a block.  No
regressor is fitted online, so query cost does not grow with the
number of training parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import regression
from .data import check_lattice, lattice_steps, parameter_rows
from .errors import DataError, NumericalError
from .latent import fit_partitioned
from .linalg import truncated_svd
from .reduction import GlobalBasis, LatentDataset


@dataclass(frozen=True)
class RoiModel:
    """Interpolatable family of latent one-step operators.

    ``op_modes`` holds the orthonormal operator modes as columns
    (column-major flattened r x r operators), one per coefficient.
    ``values``, the table fitted on ``sites``, maps mu to op_rank + r
    real channels: the op_rank operator-mode coefficients, then the r
    entries of the initial latent state.
    """

    tag: ClassVar[str] = "roi"

    basis: GlobalBasis
    op_modes: np.ndarray
    sites: regression.Sites
    values: np.ndarray
    dt: float
    t0: float

    def __post_init__(self):
        check_lattice(self.t0, self.dt)
        if np.iscomplexobj(self.op_modes) or np.iscomplexobj(self.values):
            raise DataError("roi op_modes and regressor values must be real")
        rank, shape = self.basis.rank, np.shape(self.op_modes)
        width = self.values.shape[1]
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
    """Inverse of unfold_operator; an n x r^2 stack of vectors folds
    row by row into n x r x r operators.  Each operator is a view whose
    transpose is C-contiguous."""
    vec = np.asarray(vec)
    side = math.isqrt(vec.shape[-1])
    if side * side != vec.shape[-1]:
        raise DataError(f"vector of length {vec.shape[-1]} is not a square operator")
    return np.swapaxes(vec.reshape(vec.shape[:-1] + (side, side)), -1, -2)


def fit_roi(
    latent: LatentDataset,
    op_rank: int,
    sites: regression.Sites,
) -> RoiModel:
    """Train the operator-interpolation surrogate on latent trajectories;
    ``sites`` are the latent parameters prepared for its regressor."""
    if not latent.grid.is_uniform:
        raise DataError("operator interpolation requires a uniform time grid")
    max_op_rank = min(latent.rank**2, latent.n_params)
    if not 1 <= op_rank <= max_op_rank:
        raise DataError(f"op_rank {op_rank} out of range [1, {max_op_rank}]")

    operators = []
    for model in fit_partitioned(latent, sites).members:
        # rotate the reduced operator into shared latent coordinates; the
        # projection basis is square at full rank, so this is exact
        operator = model.proj_basis @ model.reduced_op @ model.proj_basis.T
        operators.append(unfold_operator(operator))

    stacked = np.column_stack(operators)
    svd = truncated_svd(stacked, op_rank)
    coefficients = (svd.modes_u.T @ stacked).T  # N_p x r_a
    initial_states = np.vstack([lat[:, 0] for lat in latent.latents])

    return RoiModel(
        basis=latent.basis,
        op_modes=svd.modes_u,
        sites=sites,
        values=regression.fit(sites, np.hstack([coefficients, initial_states])),
        dt=latent.grid.dt,
        t0=latent.grid.t0,
    )


def synthesize_operator(model: RoiModel, coeffs: np.ndarray) -> np.ndarray:
    """Latent one-step operator from op_rank operator-mode coefficients,
    the leading channels of the model's values read at a query; an
    n x op_rank block of coefficients gives n x r x r operators."""
    coeffs = np.asarray(coeffs)
    # one matrix-vector product per row, as for a single vector
    return fold_operator(np.matmul(model.op_modes, coeffs[..., None])[..., 0])


def predict_roi(model: RoiModel, mu_rows, instants) -> np.ndarray:
    """Predicted latent trajectories over the given lattice instants (any
    order, repeats allowed), n x r x N_t for an n x p block of parameter
    rows; ``reduction.lift`` takes a row to state space.

    One read of the value table and one synthesis serve the block.  Every
    row is stepped with its own operator in time order, all rows by one
    product per lattice step between consecutive instants, and by the
    operators' matrix powers (O(log g) products) across a gap of g > 1
    steps.  A lone row's product is a 1-D ``np.dot``, a block's one
    batched ``np.matmul``: the same gemv per row, at half the call cost
    for the lone row.  Each instant's product writes into its own view
    of one instant-major table.  A latent state that overflows raises
    ``NumericalError`` naming its row and the instant."""
    rows = parameter_rows(mu_rows)
    steps = lattice_steps(instants, model.t0, model.dt)
    weights = regression.stencil(model.sites, rows)
    values = regression.combine(weights, model.values)
    operators = synthesize_operator(model, values[:, : model.op_rank])
    if len(rows) == 1:
        # np.dot reaches the gemv that the batched product makes per row
        product, lead, state = np.dot, 0, values[0, model.op_rank :]
    else:
        product, lead, state = np.matmul, ..., values[:, None, model.op_rank :]  # n x 1 x r
    # rows step as row vectors, x^T <- x^T A^T: a folded operator's
    # transpose is C-contiguous, and each product is the one a single
    # operator applied to a column vector makes, bit for bit
    transposed = operators.transpose(0, 2, 1)[lead]
    states = np.empty((steps.size,) + state.shape)  # instant-major
    outs = list(states)  # each instant's view, made once
    order = np.argsort(steps)
    current = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for position, step in zip(order.tolist(), steps[order].tolist()):
            if step == current + 1:
                state = product(state, transposed, outs[position])
            elif step > current:
                power = np.linalg.matrix_power(operators, step - current)
                state = product(state, power.transpose(0, 2, 1)[lead], outs[position])
            else:
                outs[position][...] = state
            current = step
    table = states.reshape(steps.size, len(rows), model.basis.rank)
    if not np.isfinite(table).all():
        overflowed = ~np.isfinite(table).all(axis=2)  # N_t x n
        first = order[overflowed[order].any(axis=1)][0]
        step = steps[first]
        raise NumericalError(
            f"latent state of parameter row {int(np.argmax(overflowed[first]))} "
            f"overflows at instant {model.t0 + step * model.dt:g} (lattice step {step})"
        )
    # each row's r x N_t latents C-contiguous, the layout a one-row lift reads
    return np.ascontiguousarray(table.transpose(1, 2, 0))
