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

One solver serves every fit.  It runs over a stack of B members of
equal length: all bagged trials of all the trajectories given to
``fit_ensembles`` (their subsets keep equally many instants), or one
trajectory (``fit_optdmd``, ``condense_ensemble``).  Each trial point
takes one thin QR per member, basis = Q R, which gives both the inner
coefficients R^-1 Q^H Y and the projector of the next Jacobian.
Kaufman's step is formed in Gram form from r x r products
(``_gauss_newton``), so the 2 N_t n x 2r real Jacobian is never built.
Each member keeps its own damping, stall count, acceptance and stop,
and a member whose exponentials overflow or whose damped system is
singular fails that trial alone.  NumPy's fixed cost per call, not the
arithmetic, dominates problems of this size (N_t ~ 100, r ~ 6), so one
stacked call per step for all B members costs little more than one
call for a single member.  For the same reason the trial frequencies of
all members are closed under conjugation in one pass over the stack
(``_close_stack``), and a step makes no stack-sized temporary it can
avoid: exponentials, residuals and the Jacobian's U are formed in place,
the stack is passed as a view while every member is live, and a trial
that every member takes replaces the state without a copy.  Each fresh
B x N_t x r array costs page faults as well as its arithmetic.
SciPy's assignment solver loads on the first ``match_frequencies`` call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import SnapshotMatrix, TimeGrid, instant_vector
from .dmd import check_imaginary, fit_dmd
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

    omegas: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    t0: float
    objective: float
    converged: bool
    n_iters: int

    @property
    def rank(self) -> int:
        return self.omegas.size


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
    returned; otherwise the omegas alone.  A positive entry takes the
    nearest unpaired conjugate, ties going to the lowest index.
    """
    if (modes is None) != (amplitudes is None):
        raise DataError("give both modes and amplitudes, or neither")
    om = np.asarray(omegas, dtype=complex).copy()
    paired = [om] if modes is None else [om, modes.copy(), amplitudes.copy()]
    pos = [i for i in range(om.size) if om[i].imag > 0]
    neg = [i for i in range(om.size) if om[i].imag < 0]
    for i in pos:
        if not neg:
            om[i] = om[i].real
            continue
        j = min(neg, key=lambda j: abs(om[i] - np.conj(om[j])))
        neg.remove(j)
        for values in paired:
            mean = 0.5 * (values[..., i] + np.conj(values[..., j]))
            values[..., i], values[..., j] = mean, np.conj(mean)
    for j in neg:
        om[j] = om[j].real
    return om if modes is None else tuple(paired)


def _close_stack(omegas) -> np.ndarray:
    """``project_conjugate_closure`` of each row of a B x r stack.

    The greedy pairing runs once per position, vectorized over the rows:
    each positive entry, in index order, takes the nearest unpaired
    conjugate (ties to the lowest index) or, with none left, is forced
    real.  A row with a non-finite pairing distance is closed by the row
    version, so that NaN and overflow follow its ``min`` exactly.
    """
    om = np.array(omegas, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        distance = np.abs(om[:, :, None] - om[:, None, :].conj())
    wild = ~np.isfinite(distance).all(axis=(1, 2))
    pos = (om.imag > 0) & ~wild[:, None]
    free = (om.imag < 0) & ~wild[:, None]  # negatives not yet paired
    paired = np.zeros_like(pos)
    rows = np.arange(om.shape[0])
    for i in np.flatnonzero(pos.any(axis=0)):
        j = np.where(free, distance[:, i], np.inf).argmin(axis=1)
        paired[:, i] = take = pos[:, i] & free[rows, j]
        b, j = rows[take], j[take]
        mean = 0.5 * (om[b, i] + om[b, j].conj())
        om[b, i] = mean
        om[b, j] = mean.conj()
        free[b, j] = False
    rest = (pos & ~paired) | free
    om[rest] = om[rest].real
    for b in np.flatnonzero(wild):
        om[b] = project_conjugate_closure(om[b])
    return om


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
    from scipy.optimize import linear_sum_assignment

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


def _solve_each(systems, rhs):
    """(x, solved) with systems[i] @ x[i] = rhs[i] over a stack; a
    singular system leaves its x zero and its ``solved`` False instead of
    failing the whole stack."""
    try:
        return np.linalg.solve(systems, rhs), np.ones(len(systems), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros(rhs.shape, dtype=np.result_type(systems, rhs))
        solved = np.zeros(len(systems), dtype=bool)
        for i, (system, b) in enumerate(zip(systems, rhs)):
            try:
                x[i] = np.linalg.solve(system, b)
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved


def _squared_norms(stack):
    """Squared Frobenius norm of each member of a complex stack, summed
    from one real buffer."""
    squares = np.square(stack.real)
    squares += np.square(stack.imag)
    return np.sum(squares, axis=(1, 2))


def _project(tau, omegas, data_t):
    """Variable projection of a stack of B members at frequencies
    ``omegas`` (B x r), with ``tau`` B x N_t and ``data_t`` B x N_t x n:
    (basis, q, coeffs, residual, objective).

    One thin QR, basis = Q R, per member gives the least-squares
    coefficients R^-1 Q^H Y and the Q that projects the next Jacobian.
    A member whose R is rank-deficient at ``lstsq``'s default cutoff
    (repeated frequencies) takes the minimum-norm coefficients instead,
    as ``lstsq`` does.  ``objective`` is the squared Frobenius norm of
    Y - basis coeffs; it is inf for a member whose exponentials overflow
    (their squared norm is not finite) or whose solve fails, so such a
    trial point is rejected without touching the other members.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        basis = tau[:, :, None] * omegas[:, None, :]
        np.exp(basis, out=basis)
        finite = np.isfinite(_squared_norms(basis))
        n_t, rank = basis.shape[1:]
        if not finite.all():
            # an orthonormal stand-in keeps the stacked QR finite
            basis[~finite] = np.eye(n_t, rank)
        q, r = np.linalg.qr(basis)
        qty = q.conj().transpose(0, 2, 1) @ data_t
        coeffs, solved = _solve_each(r, qty)
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        rcond = np.finfo(float).eps * max(n_t, rank)
        deficient = diag.min(axis=1) <= rcond * diag.max(axis=1)
        if deficient.any():
            coeffs[deficient] = np.linalg.pinv(r[deficient], rcond) @ qty[deficient]
            solved |= deficient
        residual = basis @ coeffs
        np.subtract(data_t, residual, out=residual)
        objective = _squared_norms(residual)
    objective[~(finite & solved & np.isfinite(objective))] = np.inf
    return basis, q, coeffs, residual, objective


def _gauss_newton(tau, basis, q, coeffs, residual):
    """Kaufman's Gauss-Newton Hessian J^T J and gradient J^T r of the
    projected residual (I - P(omega)) Y, for a stack of members, without
    forming J.

    Column j of the complex Jacobian is J_j = -U_j c_j^T, with
    U = (I - Q Q^H)(tau * basis) and c_j row j of the coefficients; the
    Golub-Pereyra term that Kaufman drops vanishes at an exact fit and
    does not change the gradient.  So <J_j, J_k> = G_jk with
    G = (U^H U) o (conj(C) C^T), and <J_j, R> = h_j with
    h = -sum_t conj(U) o (R C^H).  In the 2r real coordinates of omega
    (2j the real part of omega_j, 2j + 1 the imaginary part) the Hessian
    holds Re G on both diagonal blocks, -Im G at (2j, 2k + 1) and Im G at
    (2j + 1, 2k), and the gradient is (Re h, Im h).
    """
    u = tau[:, :, None] * basis
    u -= q @ (q.conj().transpose(0, 2, 1) @ u)
    u_conj = u.conj()
    gram = (u_conj.transpose(0, 2, 1) @ u) * (coeffs.conj() @ coeffs.transpose(0, 2, 1))
    h = residual @ coeffs.conj().transpose(0, 2, 1)
    np.multiply(u_conj, h, out=h)
    h = -np.sum(h, axis=1)
    n_members, rank = h.shape
    hessian = np.empty((n_members, 2 * rank, 2 * rank))
    hessian[:, 0::2, 0::2] = gram.real
    hessian[:, 1::2, 1::2] = gram.real
    hessian[:, 0::2, 1::2] = -gram.imag
    hessian[:, 1::2, 0::2] = gram.imag
    grad = np.empty((n_members, 2 * rank))
    grad[:, 0::2] = h.real
    grad[:, 1::2] = h.imag
    return hessian, grad


def _rows(index, n):
    """``index``, a sorted subset of range(n), as an index into a stack:
    a basic slice, so a view and not a copy, when it holds every row."""
    return slice(None) if index.size == n else index


def _levenberg_marquardt(tau, data_t, omegas):
    """Variable-projection Levenberg-Marquardt over a stack of B
    independent members (see ``_project`` for the shapes), from starting
    frequencies closed under conjugation.

    Each member keeps its own damping, stall count, acceptance and stop:
    the members share the arithmetic of one stacked call per step and
    nothing else.  Returns (omegas, coeffs, objective, converged,
    n_iters), one entry per member; an objective is non-increasing across
    that member's accepted iterations.
    """
    omegas = np.array(omegas, dtype=complex)
    basis, q, coeffs, residual, objective = _project(tau, omegas, data_t)
    if not np.all(np.isfinite(objective)):
        raise NumericalError("initial frequencies overflow the exponentials")
    # a residual at rounding level cannot be strictly decreased, so the
    # stall logic below would flag an already-perfect fit
    zero_floor = (ZERO_RESIDUAL_REL * np.linalg.norm(data_t, axis=(1, 2))) ** 2
    converged = objective <= zero_floor
    active = ~converged
    damping = np.full(len(omegas), _DAMPING_INIT)
    n_iters = np.zeros(len(omegas), dtype=int)
    diagonal = np.arange(2 * omegas.shape[1])
    for iteration in range(1, _MAX_ITERS + 1):
        live = np.flatnonzero(active)
        if not live.size:
            break
        n_iters[live] = iteration
        rows = _rows(live, len(active))
        hessian, grad = _gauss_newton(
            tau[rows], basis[rows], q[rows], coeffs[rows], residual[rows]
        )
        scale = hessian[:, diagonal, diagonal] + 1e-14
        stall = np.zeros(live.size, dtype=int)
        pending = np.arange(live.size)  # members of ``live`` still seeking a step
        while pending.size:
            members = live[pending]
            systems = hessian[pending]
            systems[:, diagonal, diagonal] += damping[members, None] * scale[pending]
            delta, solved = _solve_each(systems, -grad[pending, :, None])
            delta = delta[:, :, 0]
            rows = _rows(members, len(active))
            trial = _close_stack(omegas[rows] + delta[:, 0::2] + 1j * delta[:, 1::2])
            t_basis, t_q, t_coeffs, t_residual, t_objective = _project(
                tau[rows], trial, data_t[rows]
            )
            better = solved & (t_objective < objective[members])

            accepted = members[better]
            step = np.linalg.norm(delta[better], axis=1)
            decrease = (objective[accepted] - t_objective[better]) / np.maximum(
                objective[accepted], 1e-300
            )
            if accepted.size == len(active):
                omegas, basis, q, coeffs, residual = trial, t_basis, t_q, t_coeffs, t_residual
            else:
                taken = slice(None) if better.all() else better
                omegas[accepted] = trial[taken]
                basis[accepted], q[accepted] = t_basis[taken], t_q[taken]
                coeffs[accepted], residual[accepted] = t_coeffs[taken], t_residual[taken]
            objective[accepted] = t_objective[better]
            damping[accepted] /= _DAMPING_SHRINK
            done = (decrease < _TOL_OBJ) | (step < _TOL_STEP) | (
                objective[accepted] <= zero_floor[accepted]
            )
            converged[accepted[done]] = True
            active[accepted[done]] = False

            rejected = pending[~better]
            damping[live[rejected]] *= _DAMPING_GROW
            stall[rejected] += 1
            gave_up = stall[rejected] >= _MAX_STALL
            active[live[rejected[gave_up]]] = False
            pending = rejected[~gave_up]
    return omegas, coeffs, objective, converged, n_iters


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
    return continuous_frequencies(model.eigenvalues, grid.dt)


def continuous_frequencies(eigenvalues, dt: float) -> np.ndarray:
    """log(lambda)/dt of DMD eigenvalues, a modulus below 1e-12 read as 1e-12."""
    return np.log(np.where(np.abs(eigenvalues) < 1e-12, 1e-12, eigenvalues)) / dt


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


def _initial_omegas(x: SnapshotMatrix, rank: int, init) -> np.ndarray:
    """Starting frequencies of a fit to the scaled trajectory ``x``:
    ``init`` when given, else a spectral warm start; not yet closed
    under conjugation."""
    if init is None:
        warm_start = _uniform_warm_start if x.grid.is_uniform else _trapezoid_warm_start
        return warm_start(x, rank)
    omegas = np.asarray(init, dtype=complex)
    if omegas.shape != (rank,):
        raise DataError(f"init must hold {rank} frequencies")
    return omegas


def _model(omegas, coeffs, objective, exponent, t0, converged, n_iters) -> OptDmdModel:
    """The model of a fit to data scaled by 2**-exponent, in the data's
    units and canonical triplet order."""
    omegas, modes, amplitudes = _canonical_triplet(omegas, coeffs, omegas.shape[0])
    return OptDmdModel(
        omegas=omegas,
        modes=modes,
        amplitudes=ldexp(amplitudes, exponent),
        t0=t0,
        objective=float(np.ldexp(np.sqrt(objective), exponent)),
        converged=bool(converged),
        n_iters=int(n_iters),
    )


def _fit_stack(trajectories, rank: int, inits) -> list:
    """One optimized-DMD model per trajectory, all trajectories holding
    the same number of instants, fitted by one stacked solve from one
    ``init`` each (see ``_initial_omegas``), all closed under conjugation
    at once.  Each non-converged member warns once, in member order."""
    scaled = [_scaled(x) for x in trajectories]
    omegas, coeffs, objective, converged, n_iters = _levenberg_marquardt(
        np.array([x.grid.instants - x.grid.t0 for x, _ in scaled]),
        np.array([x.state.T.astype(complex) for x, _ in scaled]),
        _close_stack([_initial_omegas(x, rank, init) for (x, _), init in zip(scaled, inits)]),
    )
    models = [
        _model(omegas[i], coeffs[i], objective[i], exponent, x.grid.t0, converged[i], n_iters[i])
        for i, (x, exponent) in enumerate(scaled)
    ]
    for model in models:
        if not model.converged:
            warnings.warn(convergence_report(model), ConvergenceWarning, stacklevel=3)
    return models


def convergence_report(model: OptDmdModel) -> str:
    """What a fit that stopped before meeting its tolerances reports:
    its iteration count and squared residual in the data's units."""
    with np.errstate(over="ignore"):
        squared = np.square(model.objective)
    return (
        f"optimized DMD stopped after {model.n_iters} iterations without "
        f"meeting tolerances (objective {squared:.3e})"
    )


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
    return _fit_stack([x], rank, [init])[0]


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
    N_h x N_t matrix (real part, with imaginary-residual telemetry);
    instants of any other shape, or not finite, are a DataError.
    """
    scalar = np.isscalar(instants) or np.ndim(instants) == 0
    instants = instant_vector(instants)
    if np.count_nonzero(np.isfinite(instants)) != instants.size:
        raise DataError(f"instants must be finite, got {instants[~np.isfinite(instants)][0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        basis = np.exp((instants - t0)[:, None] * omegas[None, :])
    if not np.all(np.isfinite(basis)):
        raise NumericalError("prediction instants overflow the exponentials")
    states = (modes * amplitudes) @ basis.T
    check_imaginary(states.real, states.imag, "exponential sum")
    return states.real[:, 0] if scalar else states.real


def predict_optdmd(model: OptDmdModel, instants) -> np.ndarray:
    """Evaluate the model at the given instants (see exponential_sum)."""
    return exponential_sum(
        model.omegas, model.modes, model.amplitudes, model.t0, instants
    )


def fit_ensembles(
    trajectories, rank: int, inits, seeds, trials: int, subset_fraction: float
) -> list:
    """Bagged optimized DMD of trajectories of equal length, one tuple of
    aligned members each, all members fitted by one ``_fit_stack`` call.

    Trajectory k draws ``trials`` sorted, uniformly random subsets (no
    replacement) of its instants from seed ``seeds[k]`` >= 0.  Its members
    start from ``inits[k]``; a None init on a uniform grid stands for the
    whole trajectory's warm start, which raises on rank-deficient data as
    ``fit_optdmd`` does, and on a non-uniform grid for each member's own
    estimate on its subset.  Each member is aligned to its trajectory's
    first member with ``match_frequencies``, so that position j means the
    same mode across an ensemble.  One trial at fraction 1 fits each
    whole trajectory.
    """
    if not trajectories:
        raise DataError("fit_ensembles needs at least one trajectory")
    if not len(trajectories) == len(inits) == len(seeds):
        raise DataError(
            f"{len(trajectories)} trajectories need as many inits and seeds, got "
            f"{len(inits)} inits and {len(seeds)} seeds"
        )
    if rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")
    if trials < 1:
        raise DataError(f"trials must be >= 1, got {trials}")
    if not 0 < subset_fraction <= 1:
        raise DataError(f"subset fraction must lie in (0, 1], got {subset_fraction}")
    if min(seeds) < 0:
        raise DataError(f"seeds must be >= 0, got {min(seeds)}")
    if len({x.n_instants for x in trajectories}) != 1:
        raise DataError("trajectories must hold equally many instants")
    n_keep = int(round(subset_fraction * trajectories[0].n_instants))
    if n_keep < 2 * rank:
        raise DataError(
            f"subset of {n_keep} instants cannot support rank {rank} (need >= 2r)"
        )
    inits = [
        _uniform_warm_start(_scaled(x)[0], rank) if init is None and x.grid.is_uniform else init
        for x, init in zip(trajectories, inits)
    ]
    subsets = []
    for x, seed in zip(trajectories, seeds):
        rng = np.random.default_rng(seed)
        subsets += [
            (x, np.sort(rng.choice(x.n_instants, size=n_keep, replace=False)))
            for _ in range(trials)
        ]
    members = _fit_stack(
        [SnapshotMatrix(x.state[:, i], TimeGrid(x.grid.instants[i])) for x, i in subsets],
        rank,
        [init for init in inits for _ in range(trials)],
    )
    ensembles = []
    for first in range(0, len(members), trials):
        lead = members[first]
        ensembles.append((lead,) + tuple(
            permute_triplets(member, match_frequencies(lead.omegas, member.omegas)[0])
            for member in members[first + 1:first + trials]
        ))
    return ensembles


def condense_ensemble(members, x: SnapshotMatrix) -> OptDmdModel:
    """Collapse a bagged ensemble, a tuple of aligned members of one
    ``fit_ensembles`` trajectory, to a single model.

    Frequencies are the position-wise means of the members'; modes and
    amplitudes are refit linearly on the full trajectory at those
    frequencies, so the result has the same shape contract as fit_optdmd.
    """
    if not members:
        raise DataError("an ensemble needs at least one member")
    omegas = project_conjugate_closure(np.mean([member.omegas for member in members], axis=0))
    x, exponent = _scaled(x)
    _, _, coeffs, _, objective = _project(
        (x.grid.instants - x.grid.t0)[None],
        omegas[None],
        x.state.T.astype(complex)[None],
    )
    if not np.isfinite(objective[0]):
        raise NumericalError("ensemble-mean frequencies overflow the exponentials")
    return _model(
        omegas,
        coeffs[0],
        objective[0],
        exponent,
        x.grid.t0,
        all(member.converged for member in members),
        max(member.n_iters for member in members),
    )
