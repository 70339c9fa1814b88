"""Spectral-triplet interpolation over the parameter space.

Offline: one optimized-DMD fit per training parameter in latent
coordinates, giving triplets (modes, continuous frequencies,
amplitudes).  Triplets are aligned across neighbouring parameters by
nearest frequency, phase-referenced consistently, then every channel
(real and imaginary parts of vec(modes), frequencies, amplitudes) is
regressed over mu.  Online: evaluate the three regressors at the
queried mu, symmetrize conjugate pairs, and sum exponentials at any
requested time.  Continuous in time and free of online training.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import regression
from .errors import ConvergenceWarning, NumericalError
from .optdmd import (
    OptDmdModel,
    SolverOptions,
    condense_ensemble,
    exponential_sum,
    fit_bopdmd,
    fit_optdmd,
    permute_triplets,
    project_conjugate_closure,
)
from .reduction import GlobalBasis, LatentDataset, lift


@dataclass(frozen=True)
class RkoiModel:
    """Regressed spectral triplets plus the shared spatial basis.

    ``notes`` carries fit telemetry (non-converged members, ambiguous
    alignments) that callers may want to surface.
    """

    tag: ClassVar[str] = "rkoi"

    basis: GlobalBasis
    mode_regressor: regression.FittedRegressor
    omega_regressor: regression.FittedRegressor
    amp_regressor: regression.FittedRegressor
    t0: float
    notes: tuple = ()


def _greedy_align(reference: np.ndarray, candidate: np.ndarray) -> tuple:
    """Permutation mapping candidate frequencies onto the reference by
    repeatedly pairing the globally closest remaining frequencies.
    Returns (permutation, matched distances in reference order)."""
    if not (np.all(np.isfinite(reference)) and np.all(np.isfinite(candidate))):
        raise NumericalError("alignment failed: non-finite frequencies")
    rank = reference.shape[0]
    distance = np.abs(candidate[:, None] - reference[None, :])
    perm = np.empty(rank, dtype=int)
    matched = np.empty(rank)
    free_rows = set(range(rank))
    free_cols = set(range(rank))
    for _ in range(rank):
        best = min(
            ((r, c) for r in free_rows for c in free_cols),
            key=lambda rc: distance[rc],
        )
        perm[best[1]] = best[0]
        matched[best[1]] = distance[best]
        free_rows.discard(best[0])
        free_cols.discard(best[1])
    return perm, matched


def _rephase(member: OptDmdModel, lead_rows: np.ndarray) -> OptDmdModel:
    """Rotate each mode so the shared reference row is real positive,
    compensating the amplitude; keeps channels comparable across
    parameters.  Falls back to the member's own convention when the
    reference row carries no energy."""
    modes = member.modes.copy()
    amps = member.amplitudes.copy()
    for j, row in enumerate(lead_rows):
        pivot = modes[row, j]
        if abs(pivot) < 1e-12:
            continue
        phase = pivot / abs(pivot)
        modes[:, j] /= phase
        amps[j] *= phase
    return replace(member, modes=modes, amplitudes=amps)


def fit_rkoi(
    latent: LatentDataset,
    spec: regression.RegressorSpec,
    opt_opts: SolverOptions = SolverOptions(),
    bag_trials: int = 1,
    bag_fraction: float = 0.8,
    bag_seed: int = 0,
) -> RkoiModel:
    """Train the triplet-interpolation surrogate on latent trajectories.

    With ``bag_trials`` > 1 each member is fit as a bagged ensemble
    (frequencies averaged over random time subsets, modes and
    amplitudes refit on the full trajectory), which stabilizes the
    spectra on noisy data.
    """
    rank = latent.rank
    notes = []
    members = []
    for i in range(latent.n_params):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            if bag_trials > 1:
                ensemble = fit_bopdmd(
                    latent.trajectory(i),
                    rank,
                    trials=bag_trials,
                    subset_fraction=bag_fraction,
                    seed=bag_seed + i,
                    opts=opt_opts,
                )
                member = condense_ensemble(ensemble, latent.trajectory(i))
            else:
                member = fit_optdmd(latent.trajectory(i), rank, opts=opt_opts)
        for item in caught:
            if issubclass(item.category, ConvergenceWarning):
                note = f"parameter {i}: {item.message}"
                notes.append(note)
                warnings.warn(note, ConvergenceWarning, stacklevel=2)
        members.append(member)

    # align each member to its predecessor so channel j means the same
    # mode for every parameter, then propagate a shared phase reference
    aligned = [members[0]]
    for i in range(1, len(members)):
        perm, matched = _greedy_align(aligned[i - 1].omegas, members[i].omegas)
        spacing = np.abs(
            aligned[i - 1].omegas[:, None] - aligned[i - 1].omegas[None, :]
        )
        np.fill_diagonal(spacing, np.inf)
        ambiguous = matched > spacing.min()
        if np.any(ambiguous):
            note = (
                f"ambiguous frequency alignment between parameters {i - 1} and "
                f"{i}: distances {np.round(matched, 6).tolist()} vs member "
                f"spacing {spacing.min():.6g}"
            )
            notes.append(note)
            warnings.warn(note, ConvergenceWarning, stacklevel=2)
        aligned.append(permute_triplets(members[i], perm))
    lead_rows = np.argmax(np.abs(aligned[0].modes), axis=0)
    aligned = [_rephase(member, lead_rows) for member in aligned]

    mode_table = np.vstack([m.modes.flatten(order="F") for m in aligned])
    omega_table = np.vstack([m.omegas for m in aligned])
    amp_table = np.vstack([m.amplitudes for m in aligned])

    effective = regression.effective_spec(spec, latent.n_params)
    return RkoiModel(
        basis=latent.basis,
        mode_regressor=regression.fit(effective, latent.params, mode_table),
        omega_regressor=regression.fit(effective, latent.params, omega_table),
        amp_regressor=regression.fit(effective, latent.params, amp_table),
        t0=latent.grid.t0,
        notes=tuple(notes),
    )


def predict_rkoi(model: RkoiModel, mu, times) -> np.ndarray:
    """Predicted state trajectory at mu for arbitrary (continuous) times."""
    rank = model.basis.rank
    omegas = regression.predict(model.omega_regressor, mu)
    modes = regression.predict(model.mode_regressor, mu).reshape(
        (rank, rank), order="F"
    )
    amps = regression.predict(model.amp_regressor, mu)
    omegas, modes, amps = project_conjugate_closure(omegas, modes, amps)
    return lift(exponential_sum(omegas, modes, amps, model.t0, times), model.basis)
