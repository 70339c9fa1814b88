"""Dynamic mode decomposition on uniformly sampled trajectories.

The fit projects the one-step advancement operator onto the leading
left-singular subspace of the first N_t - 1 snapshots, takes its
eigendecomposition, lifts the eigenvectors back to state space and
solves a small least-squares problem for the mode amplitudes.  A fitted
model is evaluated spectrally at lattice step k: state(t0 + k dt) ~=
sum_j phi_j lambda_j^k b_j (Schmid, J. Fluid Mech. 656, 2010).

The powers lambda^k come in two regimes that reproduce NumPy's
``lambda ** k`` bit for bit.  Below ``CPOW_STEP`` NumPy squares
repeatedly, and so does the evaluation.  From ``CPOW_STEP`` on NumPy
calls the C library's ``cpow``, which is ``cexp(k * clog(lambda))`` and
so recomputes ``clog(lambda)`` at every step; the evaluation takes
``np.exp(k * np.log(lambda))`` with one log per eigenvalue, the same
operations on the same operands.  A zero or non-finite eigenvalue, for
which ``cpow`` has special cases, keeps the plain power.
``evaluate_stack`` evaluates models of equal rank and state rows (the
members of a partitioned model) with one power call over all their
eigenvalues and one batched product; ``evaluate`` is its one-model case.
Its private core ``_evaluate_stack`` returns the imaginary-residual
messages instead of warning them: a latent model keeps them with the
states of its last query's instants and warns them at every query that
reuses those states (``latent.predict_latent``).  Each residual check
takes its two norms as ``np.linalg.norm`` does, a dot of the ravel, but
without its dispatch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import SnapshotMatrix, TimeGrid, check_lattice, lattice_steps
from .errors import DataError, ImaginaryResidualWarning, NumericalError, RankDeficientError
from .linalg import DEFAULT_PINV_CUTOFF, SUBNORMAL_NORM, eig, scale_exponent, truncated_svd

IMAG_RESIDUAL_REL_TOL = 1e-6
# NumPy raises a complex value to an integer power below this by repeated
# squaring, and to any other power with the C library's cpow
CPOW_STEP = 100


@dataclass(frozen=True)
class DmdModel:
    """Rank-r spectral surrogate of a linear one-step advancement.

    ``reduced_op`` is the operator projected onto ``proj_basis``;
    ``eigenvalues`` are discrete-time (one application per ``dt``);
    ``modes`` live in the fit space (full state or latent coordinates).
    ``linalg.eig(reduced_op)`` gives the reduced eigenvectors.
    """

    reduced_op: np.ndarray
    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    dt: float
    t0: float
    proj_basis: np.ndarray

    def __post_init__(self):
        check_lattice(self.t0, self.dt)

    @property
    def rank(self) -> int:
        return self.eigenvalues.size


def _norm(values: np.ndarray) -> float:
    """``np.linalg.norm`` of a float array bit for bit, the same dot of
    the same ravel, without its dispatch, which costs more than the dot
    on a member's small slice."""
    values = values.ravel(order="K")
    return math.sqrt(values.dot(values))


def _imaginary_residual(real, imag, context):
    """The warning message when the imaginary parts of complex values are
    large against their real parts, else None; non-finite parts raise
    ``NumericalError``.  The caller holds ``np.errstate(over="ignore")``,
    one block for any number of calls: a norm of values near the float64
    limit overflows to inf, and some BLAS kernels flag that overflow."""
    scale = _norm(real)
    if not SUBNORMAL_NORM <= scale < np.inf:
        # extreme units: compare the parts scaled by one power of two
        exponent = scale_exponent(real, imag)
        scale = np.linalg.norm(np.ldexp(real, -exponent))
        imag = np.ldexp(imag, -exponent)
    imag = _norm(imag)
    if not (math.isfinite(scale) and math.isfinite(imag)):
        raise NumericalError(f"{context}: non-finite values")
    if imag > IMAG_RESIDUAL_REL_TOL * max(scale, 1e-300):
        return f"{context}: imaginary residual {imag:.3e} vs magnitude {scale:.3e}"
    return None


def _check_imaginary(real, imag, context):
    """Warn (at the caller's caller) when the imaginary parts of complex
    values are large against their real parts; non-finite parts raise
    ``NumericalError``."""
    with np.errstate(over="ignore"):
        message = _imaginary_residual(real, imag, context)
    if message is not None:
        warnings.warn(message, ImaginaryResidualWarning, stacklevel=3)


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
    )


def _powers(eigenvalues: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``eigenvalues[None, :] ** steps[:, None]`` bit for bit, for complex
    eigenvalues and integer steps >= 0, with one complex log per
    eigenvalue serving every step from ``CPOW_STEP`` on.  The caller
    silences overflow, invalid and divide warnings."""
    if steps.max(initial=0) < CPOW_STEP:
        return eigenvalues ** steps[:, None]
    large = steps >= CPOW_STEP
    powers = np.empty((steps.size, eigenvalues.size), complex)
    powers[~large] = eigenvalues ** steps[~large, None]
    logs = np.log(eigenvalues)
    powers[large] = np.exp(steps[large, None] * logs)
    # exp(k log 0) is NaN, not 0, and a non-finite eigenvalue has its own
    # special cases in cpow: those keep the plain power
    plain = ~np.isfinite(logs)
    if plain.any():
        powers[np.ix_(large, plain)] = eigenvalues[plain] ** steps[large, None]
    return powers


def _evaluate_stack(models, steps) -> tuple[np.ndarray, tuple[str, ...]]:
    """``evaluate_stack`` without its warnings: the states and the
    imaginary-residual messages that it would warn, in model order.  The
    first model whose states overflow raises ``NumericalError`` naming
    its first overflowing step; the messages of the models before it are
    then not returned."""
    steps = np.atleast_1d(np.asarray(steps))
    if not np.issubdtype(steps.dtype, np.integer):
        raise DataError(f"lattice steps must be integers, got dtype {steps.dtype}")
    low = steps.min(initial=0)
    if low < 0:
        raise DataError(f"lattice steps must be >= 0, got {low}")
    if len({model.modes.shape + model.eigenvalues.shape for model in models}) != 1:
        raise DataError("stacked DMD models must share their rank and state rows")
    eigenvalues = np.concatenate([model.eigenvalues for model in models], dtype=complex)
    weighted = np.stack([model.modes * model.amplitudes for model in models])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        powers = _powers(eigenvalues, steps).reshape(steps.size, len(models), models[0].rank)
        # each model's product reads its powers transposed, as a 2-D
        # modes @ powers.T does, so the bits are the one-model ones
        states = weighted @ powers.transpose(1, 2, 0)
    # each member's parts as contiguous slices: its norms then read the
    # sequence that a norm of its strided parts would copy out first
    real, imag = np.ascontiguousarray(states.real), np.ascontiguousarray(states.imag)
    messages = []
    with np.errstate(over="ignore"):
        for i, model in enumerate(models):
            try:
                message = _imaginary_residual(real[i], imag[i], "evaluate")
            except NumericalError:
                first = steps[~np.isfinite(states[i]).all(axis=0)].min()
                raise NumericalError(
                    f"DMD states overflow at lattice step {first} (largest eigenvalue "
                    f"modulus {np.abs(model.eigenvalues).max():.6g})"
                ) from None
            if message is not None:
                messages.append(message)
    return real, tuple(messages)


def evaluate_stack(models, steps) -> np.ndarray:
    """States of a sequence of models that share their rank and state
    rows, m x n x N_t: entry i is ``evaluate(models[i], steps)`` bit for
    bit.  One steps check, one power call over all m r eigenvalues and
    one batched product serve every model; each model's imaginary
    residual is checked and warned about on its own, in order, and the
    first model whose states overflow raises ``NumericalError`` naming
    its first overflowing step."""
    states, messages = _evaluate_stack(models, steps)
    for message in messages:
        warnings.warn(message, ImaginaryResidualWarning, stacklevel=2)
    return states


def evaluate(model: DmdModel, steps) -> np.ndarray:
    """States at 0-based lattice steps (instants t0 + k dt), one column
    per entry of ``steps`` in the order given; steps may repeat and
    extend beyond the training window.  States that overflow raise
    ``NumericalError``.  The one-model case of ``evaluate_stack``."""
    return evaluate_stack((model,), steps)[0]


def reconstruct(model: DmdModel, grid: TimeGrid) -> SnapshotMatrix:
    """Evaluate the model on every instant of ``grid``.

    Instants must sit on the model's lattice t0 + k dt for integer
    k >= 0; the lattice extends beyond the training window, so the same
    call handles reconstruction and forecasting.
    """
    steps = lattice_steps(grid.instants, model.t0, model.dt)
    return SnapshotMatrix(evaluate(model, steps), grid)
