"""Spectral-triplet interpolation over the parameter space.

Offline: one optimized-DMD fit per training parameter in latent
coordinates, giving triplets (modes, continuous frequencies,
amplitudes); one stacked solve fits them all, started on a uniform grid
from ``part``'s DMDs.  Each member is aligned to its parent in a minimum
spanning tree over the training parameters by least-total-distance
frequency matching and phased to the tree's root, so the model does
not depend on the row order; then every channel (vec(modes),
frequencies, amplitudes) is regressed over mu as one complex value
table, which the model holds with its sites.  Online, ``predict_rkoi``
answers an n x p block of parameter rows: it reads that table once for
the block (one stencil, one combine), then per row symmetrizes
conjugate pairs and sums exponentials at any requested time, returning
one r x N_t latent array per row, which the caller lifts.
Continuous in time and free of online training.  SciPy loads with the
first fit (``alignment_tree``); a query needs it only through an rbf
regressor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import regression
from .data import check_lattice, parameter_rows
from .errors import ConvergenceWarning, DataError
from .latent import fit_partitioned
from .optdmd import (
    OptDmdModel,
    condense_ensemble,
    continuous_frequencies,
    convergence_report,
    exponential_sum,
    fit_ensembles,
    match_frequencies,
    permute_triplets,
    project_conjugate_closure,
)
from .optdmd import fit_optdmd  # noqa: F401  (perfbench's test_checker rebinds it here)
from .reduction import GlobalBasis, LatentDataset


@dataclass(frozen=True)
class RkoiModel:
    """Regressed spectral triplets plus the shared spatial basis.

    ``values``, the complex table fitted on ``sites``, maps mu to
    r^2 + 2r channels: vec(modes), column-major, then the r continuous
    frequencies, then the r amplitudes.  ``notes`` names each fitted
    member (each bagged trial) whose ``converged`` flag is False, and
    each ambiguous alignment.
    """

    tag: ClassVar[str] = "rkoi"

    basis: GlobalBasis
    sites: regression.Sites
    values: np.ndarray
    t0: float
    notes: tuple = ()

    def __post_init__(self):
        check_lattice(self.t0)
        rank, width = self.basis.rank, self.values.shape[1]
        if width != rank * (rank + 2):
            raise DataError(
                f"triplet regressor has {width} output channels, "
                f"basis rank {rank} needs {rank * (rank + 2)}"
            )


def alignment_tree(params) -> tuple:
    """Minimum spanning tree over the Euclidean distances between
    parameter rows: (ranked, order, parents) in dataset row indices.

    ``ranked`` is lexicographic order; building the tree on the rows in
    that order breaks ties between equal edges (an equally spaced grid
    has many) the same way for any row order.  ``order`` is breadth
    first from the root, the smallest row; ``parents[i]`` is row i's
    parent (-1 at the root).  For scalar mu the tree is the sorted chain.
    """
    from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree
    from scipy.spatial.distance import cdist

    params = np.asarray(params, dtype=float)
    ranked = np.lexsort(params.T[::-1])
    tree = minimum_spanning_tree(cdist(params[ranked], params[ranked]))
    nodes, predecessors = breadth_first_order(tree, 0, directed=False)
    parents = np.full(ranked.size, -1)
    parents[ranked[nodes[1:]]] = ranked[predecessors[nodes[1:]]]
    return ranked, ranked[nodes], parents


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
    sites: regression.Sites,
    bag_trials: int = 1,
    bag_fraction: float = 0.8,
    bag_seed: int = 0,
) -> RkoiModel:
    """Train the triplet-interpolation surrogate on latent trajectories;
    ``sites`` are the latent parameters prepared for its regressor.

    One ``fit_ensembles`` call fits every member.  A parameter's member is
    one fit of its whole trajectory or, with ``bag_trials`` > 1, that many
    fits on random time subsets condensed into one, which stabilizes the
    spectra on noisy data.  On a uniform grid each fit starts from its
    parameter's DMD in ``fit_partitioned``, which names a rank-deficient
    parameter; else from its own trapezoid estimate.  The k-th row in
    lexicographic order draws its subsets from seed ``bag_seed + k``, and
    members are aligned along ``alignment_tree``, so the model does not
    depend on the row order.
    """
    ranked, order, parents = alignment_tree(latent.params)
    trajectories = [latent.trajectory(i) for i in range(latent.n_params)]
    inits = [None] * latent.n_params
    if latent.grid.is_uniform:
        dmds = fit_partitioned(latent, sites).members
        inits = [continuous_frequencies(dmd.eigenvalues, dmd.dt) for dmd in dmds]
    bagged = bag_trials > 1
    seeds = [bag_seed + int(position) for position in np.argsort(ranked)]
    ensembles = fit_ensembles(
        trajectories, latent.rank, inits, seeds, bag_trials, bag_fraction if bagged else 1.0
    )
    notes = [
        f"parameter {i}: {convergence_report(fit)}"
        for i, ensemble in enumerate(ensembles) for fit in ensemble if not fit.converged
    ]
    members = [
        condense_ensemble(ensemble, x) if bagged else ensemble[0]
        for ensemble, x in zip(ensembles, trajectories)
    ]

    # align each member to its tree parent so that channel j means the
    # same mode for every parameter, then share the root's phase reference
    aligned = list(members)
    for i in order[1:]:
        parent = aligned[parents[i]]
        perm, matched = match_frequencies(parent.omegas, members[i].omegas)
        spacing = np.abs(parent.omegas[:, None] - parent.omegas[None, :])
        np.fill_diagonal(spacing, np.inf)
        ambiguous = matched > spacing.min()
        if np.any(ambiguous):
            note = (
                f"ambiguous frequency alignment between parameters {parents[i]} and "
                f"{i}: distances {np.round(matched, 6).tolist()} vs member "
                f"spacing {spacing.min():.6g}"
            )
            notes.append(note)
            warnings.warn(note, ConvergenceWarning, stacklevel=2)
        aligned[i] = permute_triplets(members[i], perm)
    lead_rows = np.argmax(np.abs(aligned[order[0]].modes), axis=0)
    aligned = [_rephase(member, lead_rows) for member in aligned]

    table = np.vstack(
        [np.concatenate([m.modes.flatten(order="F"), m.omegas, m.amplitudes])
         for m in aligned]
    )

    return RkoiModel(
        basis=latent.basis,
        sites=sites,
        values=regression.fit(sites, table),
        t0=latent.grid.t0,
        notes=tuple(notes),
    )


def predict_rkoi(model: RkoiModel, mu_rows, times) -> list:
    """Predicted latent trajectories at arbitrary (continuous) times, one
    r x N_t array per row of the n x p block ``mu_rows``, in row order;
    ``reduction.lift`` takes a row to state space.  One read of the
    value table serves the block; each row's triplets are then closed under
    conjugation and summed on their own."""
    rows = parameter_rows(mu_rows)
    rank = model.basis.rank
    weights = regression.stencil(model.sites, rows)
    latents = []
    for triplets in regression.combine(weights, model.values):
        modes = triplets[: rank * rank].reshape((rank, rank), order="F")
        omegas, amps = triplets[rank * rank :].reshape(2, rank)
        omegas, modes, amps = project_conjugate_closure(omegas, modes, amps)
        latents.append(exponential_sum(omegas, modes, amps, model.t0, times))
    return latents
