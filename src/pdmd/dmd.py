"""Dynamic mode decomposition on uniformly sampled trajectories.

The fit projects the one-step advancement operator onto the leading
left-singular subspace of the first N_t - 1 snapshots, takes its
eigendecomposition, lifts the eigenvectors back to state space and
solves a small least-squares problem for the mode amplitudes.  A fitted
model is evaluated spectrally at lattice step k: state(t0 + k dt) ~=
sum_j phi_j lambda_j^k b_j.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import SnapshotMatrix, TimeGrid, lattice_steps
from .errors import DataError, ImaginaryResidualWarning, NumericalError, RankDeficientError
from .linalg import DEFAULT_PINV_CUTOFF, SUBNORMAL_NORM, eig, scale_exponent, truncated_svd

IMAG_RESIDUAL_REL_TOL = 1e-6


@dataclass(frozen=True)
class DmdModel:
    """Rank-r spectral surrogate of a linear one-step advancement.

    ``reduced_op`` is the operator projected onto ``proj_basis``;
    ``eigenvalues`` are discrete-time (one application per ``dt``);
    ``modes`` live in the fit space (full state or latent coordinates).
    """

    reduced_op: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    dt: float
    t0: float
    proj_basis: np.ndarray
    reduced_eigvecs: np.ndarray

    @property
    def rank(self) -> int:
        return self.eigenvalues.size


def _real_with_telemetry(values, context):
    values = np.asarray(values)
    real, imag = values.real, values.imag
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(real)
    if not SUBNORMAL_NORM <= scale < np.inf:
        # extreme units: compare the parts scaled by one power of two
        exponent = scale_exponent(real, imag)
        scale = np.linalg.norm(np.ldexp(real, -exponent))
        imag = np.ldexp(imag, -exponent)
    imag = np.linalg.norm(imag)
    if not (math.isfinite(scale) and math.isfinite(imag)):
        raise NumericalError(f"{context}: non-finite values")
    if imag > IMAG_RESIDUAL_REL_TOL * max(scale, 1e-300):
        warnings.warn(
            f"{context}: imaginary residual {imag:.3e} vs magnitude {scale:.3e}",
            ImaginaryResidualWarning,
            stacklevel=3,
        )
    return values.real


def fit_dmd(x: SnapshotMatrix, rank: int) -> DmdModel:
    """Fit a rank-``rank`` model to a uniformly sampled trajectory."""
    if not x.grid.is_uniform:
        raise DataError("basic DMD requires a uniform time grid")
    if x.n_instants < 3:
        raise DataError("need at least three snapshots to fit")
    max_rank = min(x.n_state, x.n_instants - 1)
    if not 1 <= rank <= max_rank:
        raise DataError(f"rank {rank} out of range [1, {max_rank}]")

    before = x.state[:, :-1]
    after = x.state[:, 1:]
    svd = truncated_svd(before, rank)
    s = svd.singular_values
    if s[-1] < DEFAULT_PINV_CUTOFF * s[0]:
        supported = int(np.count_nonzero(s >= DEFAULT_PINV_CUTOFF * s[0]))
        raise RankDeficientError(
            f"singular value {s[-1]:.3e} below cutoff at rank {rank}; "
            f"reduce the rank to {supported}, the largest whose singular "
            "values clear the cutoff",
            supported,
        )
    # after @ V / Sigma appears in both the reduced operator and the modes
    propagated = after @ (svd.right_v / s)
    reduced_op = svd.modes_u.T @ propagated
    decomp = eig(reduced_op)
    modes = propagated.astype(complex) @ decomp.eigenvectors
    amplitudes = np.linalg.lstsq(modes, x.state[:, 0].astype(complex), rcond=None)[0]
    return DmdModel(
        reduced_op=reduced_op,
        eigenvalues=decomp.eigenvalues,
        modes=modes,
        amplitudes=amplitudes,
        dt=x.grid.dt,
        t0=x.grid.t0,
        proj_basis=svd.modes_u,
        reduced_eigvecs=decomp.eigenvectors,
    )


def evaluate(model: DmdModel, steps) -> np.ndarray:
    """States at 0-based lattice steps (instants t0 + k dt), one column
    per entry of ``steps`` in the order given; steps may repeat and
    extend beyond the training window.  States that overflow raise
    ``NumericalError``."""
    steps = np.atleast_1d(np.asarray(steps))
    if not np.issubdtype(steps.dtype, np.integer):
        raise DataError(f"lattice steps must be integers, got dtype {steps.dtype}")
    if np.any(steps < 0):
        raise DataError(f"lattice steps must be >= 0, got {steps.min()}")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = model.eigenvalues[None, :] ** steps[:, None]
        states = (model.modes * model.amplitudes) @ powers.T
    try:
        return _real_with_telemetry(states, "evaluate")
    except NumericalError:
        first = steps[~np.isfinite(states).all(axis=0)].min()
        raise NumericalError(
            f"DMD states overflow at lattice step {first} (largest eigenvalue "
            f"modulus {np.abs(model.eigenvalues).max():.6g})"
        ) from None


def reconstruct(model: DmdModel, grid: TimeGrid) -> SnapshotMatrix:
    """Evaluate the model on every instant of ``grid``.

    Instants must sit on the model's lattice t0 + k dt for integer
    k >= 0; the lattice extends beyond the training window, so the same
    call handles reconstruction and forecasting.
    """
    steps = lattice_steps(grid.instants, model.t0, model.dt)
    return SnapshotMatrix(evaluate(model, steps), grid)
