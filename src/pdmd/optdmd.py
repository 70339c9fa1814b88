"""Optimized DMD: best rank-r exponential fit of a trajectory, plus
bagged ensembling for noise robustness.

The fit solves

    min_{omega, Psi}  || X - Psi exp(t omega') ||_F

by variable projection (Golub-Pereyra; Askham & Kutz 2018): the linear
coefficients Psi = Phi diag(b) are eliminated through an inner
least-squares solve at fixed omega, and a Levenberg-Marquardt outer
iteration updates omega on the projected residual (I - P(omega)) X^T,
with Kaufman's approximation of its Jacobian.  Works on non-uniform
time grids, which bagging over time indices produces even from uniform
data.  Data in extreme units are fit scaled by a power of two
(``linalg.scale_exponent``) and the amplitudes and objective scaled
back, so a fit is equivariant to the data's units.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import SnapshotMatrix, TimeGrid
from .dmd import _real_with_telemetry, fit_dmd
from .errors import ConvergenceWarning, DataError, NumericalError
from .linalg import ldexp, scale_exponent, truncated_svd

# residuals below this fraction of the data norm count as an exact fit
ZERO_RESIDUAL_REL = 1e-12

# Levenberg-Marquardt controls of the variable-projection solver
_TOL_OBJ = 1e-10
_TOL_STEP = 1e-12
_MAX_ITERS = 200
_DAMPING_INIT = 1e-2
_DAMPING_GROW = 2.0
_DAMPING_SHRINK = 3.0
_MAX_STALL = 25


@dataclass(frozen=True)
class OptDmdModel:
    """Continuous-time spectral surrogate x(t) ~= Phi exp(omega (t-t0)) b.

    Mode columns are unit 2-norm with the leading entry real positive;
    amplitudes absorb magnitude and phase.  ``objective`` is the final
    Frobenius-norm residual on the training instants.
    """

    rank: int
    omegas: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    t0: float
    objective: float
    converged: bool
    n_iters: int


@dataclass(frozen=True)
class BaggedOptDmd:
    """Ensemble of optimized-DMD fits on random time-index subsets."""

    members: tuple
    subset_fraction: float
    trials: int

    def __post_init__(self):
        if self.trials != len(self.members) or self.trials < 1:
            raise DataError("trials must equal the number of members (>= 1)")


def canonical_omega_order(omegas):
    """Indices sorting omegas by descending real part, ties by descending
    imaginary part."""
    omegas = np.asarray(omegas)
    return np.lexsort((-omegas.imag, -omegas.real))


def project_conjugate_closure(omegas, modes=None, amplitudes=None):
    """Project omegas onto the nearest multiset closed under conjugation.

    Positive-imaginary entries are greedily matched with negative ones
    and each pair replaced by (m, conj(m)) around their mean; unmatched
    entries are forced real.  Keeps reconstructions of real data real.
    Given the matching ``modes`` (columns) and ``amplitudes``, each pair
    of those is averaged the same way and (omegas, modes, amplitudes) is
    returned; otherwise the omegas alone.
    """
    om = np.asarray(omegas, dtype=complex).copy()
    paired = [om] if modes is None else [om, modes.copy(), amplitudes.copy()]
    pos = [i for i in range(om.size) if om[i].imag > 0]
    neg = {i for i in range(om.size) if om[i].imag < 0}
    for i in pos:
        if not neg:
            om[i] = om[i].real
            continue
        j = min(neg, key=lambda j: abs(om[i] - np.conj(om[j])))
        neg.discard(j)
        for values in paired:
            mean = 0.5 * (values[..., i] + np.conj(values[..., j]))
            values[..., i], values[..., j] = mean, np.conj(mean)
    for j in neg:
        om[j] = om[j].real
    return om if modes is None else tuple(paired)


def permute_triplets(model: OptDmdModel, perm) -> OptDmdModel:
    """The same model with its triplets reordered: position j takes
    triplet ``perm[j]``."""
    return replace(
        model,
        omegas=model.omegas[perm],
        modes=model.modes[:, perm],
        amplitudes=model.amplitudes[perm],
    )


def match_frequencies(reference, candidate) -> tuple:
    """Pair each candidate frequency with one reference frequency at the
    least total distance |omega_cand - omega_ref| (Kuhn's assignment).

    Returns (perm, matched): ``permute_triplets(model, perm)`` moves the
    candidate triplet matched to reference[j] to position j, and
    matched[j] is that pair's distance.
    """
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(candidate))):
        raise NumericalError("alignment failed: non-finite frequencies")
    cost = np.abs(candidate[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cols.size, dtype=int)
    perm[cols] = rows
    return perm, cost[perm, np.arange(perm.size)]


def _scaled(x: SnapshotMatrix):
    """(x times 2**-e, e) with e from ``linalg.scale_exponent``; x itself
    when e is 0."""
    exponent = scale_exponent(x.state)
    if exponent:
        x = SnapshotMatrix(np.ldexp(x.state, -exponent), x.grid)
    return x, exponent


def _exponential_basis(tau, omegas):
    """N_t x r matrix exp(tau_k omega_j); None when the entries overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        basis = np.exp(tau[:, None] * omegas[None, :])
    if not np.all(np.isfinite(basis)):
        return None
    return basis


def _inner_solve(basis, data_t):
    """Least-squares coefficients and residual for fixed exponentials."""
    coeffs, *_ = np.linalg.lstsq(basis, data_t, rcond=None)
    residual = data_t - basis @ coeffs
    return coeffs, residual, float(np.linalg.norm(residual) ** 2)


def _kaufman_jacobian(tau, basis, coeffs):
    """Kaufman's Jacobian of the projected residual (I - P(omega)) Y.

    Column j of the complex Jacobian is (I - Q Q^H) D_j with
    D_j = -(tau * Phi_j) b_j^T, Q a thin QR factor of the exponential
    basis Phi and b_j row j of the inner-solve coefficients; the
    Golub-Pereyra term that Kaufman drops vanishes at an exact fit.
    Returned in the 2r real coordinates of omega: rows are the real
    then the imaginary parts of the raveled N_t x n residual, column
    2j is d/dRe(omega_j) (J_j) and column 2j + 1 is d/dIm(omega_j)
    (i J_j).
    """
    n_t, rank = basis.shape
    q, _ = np.linalg.qr(basis)
    # N_t x r x n tensor of all D_j, projected along the time axis at once
    deriv = -(tau[:, None] * basis)[:, :, None] * coeffs[None, :, :]
    flat = deriv.reshape(n_t, -1)
    projected = (flat - q @ (q.conj().T @ flat)).reshape(deriv.shape)
    # rows (k, l) in the residual's raveled order, one column per j
    cols = projected.transpose(0, 2, 1).reshape(-1, rank)
    size = cols.shape[0]
    jac = np.empty((2 * size, 2 * rank))
    jac[:size, 0::2] = cols.real
    jac[size:, 0::2] = cols.imag
    jac[:size, 1::2] = -cols.imag
    jac[size:, 1::2] = cols.real
    return jac


def _hankel_embed(state, delays):
    cols = state.shape[1] - delays + 1
    return np.vstack([state[:, d:d + cols] for d in range(delays)])


def _uniform_warm_start(x: SnapshotMatrix, rank: int):
    """Continuous frequencies log(lambda)/dt from a basic-DMD fit; the
    trajectory is delay-embedded first when the state is too thin to
    support the rank."""
    state, grid = x.state, x.grid
    delays = 1
    while state.shape[0] * delays < rank:
        delays += 1
    if delays > 1:
        delays += 1  # margin so the embedded rows are not rank-tight
        if state.shape[1] - delays < rank + 1:
            raise DataError(f"too few snapshots for rank {rank}")
        cols = state.shape[1] - delays + 1
        embedded = SnapshotMatrix(
            _hankel_embed(state, delays), TimeGrid(grid.instants[:cols])
        )
        model = fit_dmd(embedded, rank)
    else:
        model = fit_dmd(x, rank)
    eigs = model.eigenvalues.copy()
    eigs[np.abs(eigs) < 1e-12] = 1e-12
    return np.log(eigs) / grid.dt


def _trapezoid_warm_start(x: SnapshotMatrix, rank: int):
    """Generator estimate on a non-uniform grid: solve dx/dt ~= M x with
    trapezoid midpoints, project to the leading subspace, take its
    eigenvalues; padded with low harmonics when the data are too thin."""
    state, instants = x.state, x.grid.instants
    steps = np.diff(instants)
    quotients = (state[:, 1:] - state[:, :-1]) / steps
    midpoints = 0.5 * (state[:, 1:] + state[:, :-1])
    inner = min(rank, min(midpoints.shape))
    svd = truncated_svd(midpoints, inner)
    keep = svd.singular_values > 1e-12 * svd.singular_values[0]
    reduced = (svd.modes_u[:, keep].T @ quotients) @ (
        svd.right_v[:, keep] / svd.singular_values[keep]
    )
    values = np.linalg.eigvals(reduced)
    if values.size < rank:
        span = instants[-1] - instants[0]
        pad = []
        harmonic = 1
        while values.size + len(pad) < rank:
            if (rank - values.size - len(pad)) == 1:
                pad.append(0.0)
            else:
                pad.extend([1j * np.pi * harmonic / span, -1j * np.pi * harmonic / span])
                harmonic += 1
        values = np.concatenate([values, np.asarray(pad, dtype=complex)])
    return values


def fit_optdmd(x: SnapshotMatrix, rank: int, init=None) -> OptDmdModel:
    """Fit the best rank-``rank`` exponential model to a trajectory.

    ``init`` optionally supplies starting continuous frequencies;
    otherwise a spectral warm start is computed from the data.  The
    returned objective is non-increasing across accepted iterations; a
    non-converged fit is returned with a warning rather than discarded.
    """
    if x.n_instants < 2 * rank:
        raise DataError(
            f"rank {rank} too large for {x.n_instants} snapshots (need >= 2r)"
        )
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    x, exponent = _scaled(x)
    if init is not None:
        omegas = np.asarray(init, dtype=complex)
        if omegas.shape != (rank,):
            raise DataError(f"init must hold {rank} frequencies")
    elif x.grid.is_uniform:
        omegas = _uniform_warm_start(x, rank)
    else:
        omegas = _trapezoid_warm_start(x, rank)
    omegas = project_conjugate_closure(omegas)

    tau = x.grid.instants - x.grid.t0
    data_t = x.state.T.astype(complex)
    basis = _exponential_basis(tau, omegas)
    if basis is None:
        raise NumericalError("initial frequencies overflow the exponentials")
    coeffs, residual, objective = _inner_solve(basis, data_t)

    # a residual at rounding level cannot be strictly decreased, so the
    # stall logic below would flag an already-perfect fit
    zero_floor = (ZERO_RESIDUAL_REL * float(np.linalg.norm(data_t))) ** 2
    damping = _DAMPING_INIT
    converged = objective <= zero_floor
    stall = 0
    n_iters = 0
    iterations = () if converged else range(1, _MAX_ITERS + 1)
    for n_iters in iterations:
        jac = _kaufman_jacobian(tau, basis, coeffs)
        grad = jac.T @ np.concatenate([residual.real.ravel(), residual.imag.ravel()])
        hessian = jac.T @ jac
        scale = np.diag(hessian) + 1e-14

        accepted = False
        while True:
            try:
                delta = np.linalg.solve(hessian + damping * np.diag(scale), -grad)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                trial = project_conjugate_closure(
                    omegas + delta[0::2] + 1j * delta[1::2]
                )
                trial_basis = _exponential_basis(tau, trial)
                if trial_basis is not None:
                    t_coeffs, t_residual, t_objective = _inner_solve(
                        trial_basis, data_t
                    )
                    if t_objective < objective:
                        accepted = True
                        break
            damping *= _DAMPING_GROW
            stall += 1
            if stall >= _MAX_STALL:
                break
        if not accepted:
            break

        step = float(np.linalg.norm(delta))
        decrease = (objective - t_objective) / max(objective, 1e-300)
        omegas, basis = trial, trial_basis
        coeffs, residual, objective = t_coeffs, t_residual, t_objective
        damping /= _DAMPING_SHRINK
        stall = 0
        if decrease < _TOL_OBJ or step < _TOL_STEP or objective <= zero_floor:
            converged = True
            break

    if not converged:
        with np.errstate(over="ignore"):
            squared = np.ldexp(objective, 2 * exponent)
        warnings.warn(
            f"optimized DMD stopped after {n_iters} iterations without "
            f"meeting tolerances (objective {squared:.3e})",
            ConvergenceWarning,
            stacklevel=2,
        )

    omegas, modes, amplitudes = _canonical_triplet(omegas, coeffs, rank)
    return OptDmdModel(
        rank=rank,
        omegas=omegas,
        modes=modes,
        amplitudes=ldexp(amplitudes, exponent),
        t0=x.grid.t0,
        objective=float(np.ldexp(np.sqrt(objective), exponent)),
        converged=converged,
        n_iters=n_iters,
    )


def _canonical_triplet(omegas, coeffs, rank):
    """Split the inner-solve coefficients phi_j b_j into unit-phase modes
    and amplitudes, in canonical frequency order."""
    order = canonical_omega_order(omegas)
    omegas = omegas[order]
    combined = coeffs.T[:, order]  # columns phi_j b_j
    norms = np.linalg.norm(combined, axis=0)
    lead = np.argmax(np.abs(combined), axis=0)
    phases = combined[lead, np.arange(rank)]
    mags = np.abs(phases)
    phases = np.where(mags > 0, phases, 1.0) / np.where(mags > 0, mags, 1.0)
    amplitudes = norms * phases
    modes = combined / np.where(np.abs(amplitudes) > 0, amplitudes, 1.0)
    return omegas, modes, amplitudes


def exponential_sum(omegas, modes, amplitudes, t0: float, instants) -> np.ndarray:
    """Phi exp(omega (t - t0)) b at the given instants.

    A scalar time yields a state vector, a vector of times an
    N_h x N_t matrix (real part, with imaginary-residual telemetry).
    """
    scalar = np.isscalar(instants) or np.ndim(instants) == 0
    instants = np.atleast_1d(np.asarray(instants, dtype=float))
    basis = _exponential_basis(instants - t0, omegas)
    if basis is None:
        raise NumericalError("prediction instants overflow the exponentials")
    states = (modes * amplitudes) @ basis.T
    states = _real_with_telemetry(states, "exponential sum")
    return states[:, 0] if scalar else states


def predict_optdmd(model: OptDmdModel, instants) -> np.ndarray:
    """Evaluate the model at the given instants (see exponential_sum)."""
    return exponential_sum(
        model.omegas, model.modes, model.amplitudes, model.t0, instants
    )


def fit_bopdmd(
    x: SnapshotMatrix,
    rank: int,
    trials: int = 20,
    subset_fraction: float = 0.8,
    seed: int = 0,
) -> BaggedOptDmd:
    """Bag optimized DMD over random time-index subsets.

    Each member sees a sorted, uniformly random subset (no replacement)
    of the time instants.  Each member's spectrum is aligned to the
    first member's with ``match_frequencies``, so that position j means
    the same mode across the ensemble.
    """
    if trials < 1:
        raise DataError(f"trials must be >= 1, got {trials}")
    if not 0 < subset_fraction <= 1:
        raise DataError(f"subset fraction must lie in (0, 1], got {subset_fraction}")
    n_keep = int(round(subset_fraction * x.n_instants))
    if n_keep < 2 * rank:
        raise DataError(
            f"subset of {n_keep} instants cannot support rank {rank} (need >= 2r)"
        )
    shared_init = None
    if x.grid.is_uniform:
        try:
            shared_init = _uniform_warm_start(_scaled(x)[0], rank)
        except (DataError, NumericalError):
            shared_init = None

    rng = np.random.default_rng(seed)
    members = []
    for _ in range(trials):
        indices = np.sort(rng.choice(x.n_instants, size=n_keep, replace=False))
        subset = SnapshotMatrix(
            x.state[:, indices], TimeGrid(x.grid.instants[indices])
        )
        member = fit_optdmd(subset, rank, init=shared_init)
        members.append(member)

    aligned = [members[0]] + [
        permute_triplets(member, match_frequencies(members[0].omegas, member.omegas)[0])
        for member in members[1:]
    ]
    return BaggedOptDmd(tuple(aligned), subset_fraction, trials)


def mean_omegas(ensemble: BaggedOptDmd) -> np.ndarray:
    """Position-wise average of the aligned member frequencies."""
    return np.mean([member.omegas for member in ensemble.members], axis=0)


def condense_ensemble(ensemble: BaggedOptDmd, x: SnapshotMatrix) -> OptDmdModel:
    """Collapse a bagged ensemble to a single model.

    Frequencies are the ensemble means; modes and amplitudes are refit
    linearly on the full trajectory at those frequencies, so the result
    has the same shape contract as fit_optdmd.
    """
    omegas = project_conjugate_closure(mean_omegas(ensemble))
    rank = omegas.shape[0]
    x, exponent = _scaled(x)
    basis = _exponential_basis(x.grid.instants - x.grid.t0, omegas)
    if basis is None:
        raise NumericalError("ensemble-mean frequencies overflow the exponentials")
    coeffs, _, objective = _inner_solve(basis, x.state.T.astype(complex))
    omegas, modes, amplitudes = _canonical_triplet(omegas, coeffs, rank)
    return OptDmdModel(
        rank=rank,
        omegas=omegas,
        modes=modes,
        amplitudes=ldexp(amplitudes, exponent),
        t0=x.grid.t0,
        objective=float(np.ldexp(np.sqrt(objective), exponent)),
        converged=all(member.converged for member in ensemble.members),
        n_iters=max(member.n_iters for member in ensemble.members),
    )

