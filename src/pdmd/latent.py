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

A model holds its training parameters as prepared ``regression.Sites``,
built once when it is fitted or loaded, so its regressor is part of the
model and no query prepares them again.  ``predict_latent`` answers a
block of mu rows with one set of N_t regressor fits on those sites, so
scoring a model at all N_p training parameters costs N_t fits, not
N_p * N_t; a query passes its mu as one row and runs N_t fits.
Everything around the fits is done once per call: one stacked
evaluation (``dmd.evaluate_stack``) gives every DMD's states at all
instants, laid out instant-major, so each fit reads one contiguous
N_p x r table; the whole block is checked, clamped and located once
(``regression.stencil``, one weight matrix); and each fitted m x r
table is written into its instant's contiguous slot of one instant-major
N_t x m x r table, which one copy turns into the m x r x N_t table that
one ``regression.combine`` reads for all rows and instants.  A clamped row
therefore warns once, not once per instant, and an ill-conditioned rbf
system warns when the sites are prepared, not at a query.

The DMD states do not depend on mu, so a model keeps the state tables
of the instants its last call asked for, with that evaluation's
imaginary-residual messages: one read-only N_t x N_p x r float table
(46 KB at N_t 160, N_p 6, r 6).  A call at the same instants checks
them against the lattice no more and evaluates no DMD; it warns the
kept messages again and still runs its N_t fits.  A call at other
instants replaces the entry; instants off the lattice and an overflow
are raised, not kept.  An archive, ``==`` and ``repr`` do not see the
entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import regression
from .data import SnapshotMatrix, instant_vector, lattice_steps, parameter_rows
from .dmd import DmdModel, evaluate_stack, fit_dmd
from .errors import DataError, ImaginaryResidualWarning, NumericalError, RankDeficientError
from .reduction import GlobalBasis, LatentDataset


@dataclass(frozen=True)
class MonolithicModel:
    """One DMD over the vertically stacked latent trajectories: rows
    i r to (i + 1) r of its state are training parameter i's latent
    state, and its lattice is the model's.  ``sites`` are the training
    parameters prepared for the model's regressor."""

    tag: ClassVar[str] = "mono"

    basis: GlobalBasis
    stacked_dmd: DmdModel
    sites: regression.Sites
    # the state tables of the instants last asked for (_state_tables)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = self.stacked_dmd.modes.shape[0]
        n_params = len(self.sites.params)
        if rows != n_params * self.basis.rank:
            raise DataError(
                f"stacked DMD has {rows} state rows, not {n_params} "
                f"parameters times basis rank {self.basis.rank}"
            )


@dataclass(frozen=True)
class PartitionedModel:
    """One DMD per training parameter, on one shared time lattice;
    ``sites`` are the training parameters prepared for the model's
    regressor."""

    tag: ClassVar[str] = "part"

    basis: GlobalBasis
    members: tuple
    sites: regression.Sites
    # the state tables of the instants last asked for (_state_tables)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        ranks = {member.rank for member in self.members}
        steps = {member.dt for member in self.members}
        starts = {member.t0 for member in self.members}
        if len(ranks) != 1 or len(steps) != 1 or len(starts) != 1:
            raise DataError("members must share rank and time lattice")
        rows = {member.modes.shape[0] for member in self.members}
        n_params = len(self.sites.params)
        if len(self.members) != n_params or rows != {self.basis.rank}:
            raise DataError(
                f"{len(self.members)} members of state rows {sorted(rows)} do not "
                f"fit {n_params} parameters at basis rank {self.basis.rank}"
            )


def fit_monolithic(latent: LatentDataset, sites: regression.Sites) -> MonolithicModel:
    """Single DMD on the r*N_p stacked latent state; ``sites`` are the
    latent parameters prepared for the model's regressor.

    The rank keeps the full stacked dimension, clipped only when the
    trajectory cannot support it (too few instants or rank-deficient
    stacked data).
    """
    stacked = np.vstack(latent.latents)
    spectrum = np.linalg.svd(stacked[:, :-1], compute_uv=False)
    supported = int(np.sum(spectrum > 1e-10 * spectrum[0]))
    stacked_rank = min(stacked.shape[0], len(latent.grid) - 1, supported)
    model = fit_dmd(SnapshotMatrix(stacked, latent.grid), stacked_rank)
    return MonolithicModel(basis=latent.basis, stacked_dmd=model, sites=sites)


def _parameter_label(latent: LatentDataset, index: int) -> str:
    return f"training parameter {index} (mu = {latent.params[index].tolist()})"


def fit_partitioned(latent: LatentDataset, sites: regression.Sites) -> PartitionedModel:
    """Independent DMD per parameter at the full latent rank, with
    ``sites`` the latent parameters prepared for the model's regressor;
    ``roi`` interpolates these members' operators.  A ``NumericalError`` names its
    parameter at once; rank deficiency is reported after the loop, naming
    the parameter with the smallest supported rank."""
    members = []
    deficient = []  # (supported rank, parameter index, error)
    for i in range(latent.n_params):
        try:
            members.append(fit_dmd(latent.trajectory(i), latent.rank))
        except RankDeficientError as exc:
            deficient.append((exc.supported_rank, i, exc))
        except NumericalError as exc:
            raise NumericalError(f"{_parameter_label(latent, i)}: {exc}") from exc

    if deficient:
        supported, i, exc = min(deficient, key=lambda entry: entry[:2])
        raise RankDeficientError(
            f"{_parameter_label(latent, i)}: {exc} (the smallest supported "
            f"rank over all {latent.n_params} training parameters; "
            f"{len(deficient)} of them are rank-deficient)",
            supported,
        ) from exc
    return PartitionedModel(latent.basis, tuple(members), sites)


def _state_tables(model, dmds, instants) -> np.ndarray:
    """The model's DMD states at lattice instants, N_t x N_p x r and
    read-only, one contiguous N_p x r table per instant (a stacked state
    holds the parameters' r rows in turn), kept with the model for the
    instants last asked for; the evaluation's messages are warned on
    every call.  The entry is one tuple, read once and replaced whole, so
    threads querying one model at different instants each read a
    consistent entry."""
    key = (instants.shape, instants.tobytes())
    entry = model._memo.get("states")
    if entry is None or entry[0] != key:
        steps = lattice_steps(instants, dmds[0].t0, dmds[0].dt)
        states, messages = evaluate_stack(dmds, steps)
        tables = np.ascontiguousarray(states.transpose(2, 0, 1)).reshape(
            steps.size, len(model.sites.params), model.basis.rank
        )
        tables.flags.writeable = False
        entry = (key, tables, messages)
        model._memo["states"] = entry
    for message in entry[2]:
        # attributed to predict_latent, the evaluation's caller
        warnings.warn(message, ImaginaryResidualWarning, stacklevel=2)
    return entry[1]


def predict_latent(model, mu_rows, times) -> np.ndarray:
    """Predicted latent trajectories over lattice instants, n x r x N_t
    for an n x p block of parameter rows.

    All of the model's DMDs are evaluated at all requested instants in
    one stacked pass, or not at all when the model's last call asked for
    the same instants, and the block gets one weight matrix on the
    model's sites; then one regressor per instant is trained on the
    per-parameter latent states there, written into one table, and one
    read of that table gives every row at every instant.  This online
    training, N_t fits per call whatever n is, is the contract of the
    strategy; count it with ``regression.FitCount``.
    """
    if not isinstance(model, (MonolithicModel, PartitionedModel)):
        raise DataError(f"unsupported model type {type(model).__name__}")
    rows = parameter_rows(mu_rows)
    dmds = (model.stacked_dmd,) if isinstance(model, MonolithicModel) else model.members
    tables = _state_tables(model, dmds, instant_vector(times))
    weights = regression.stencil(model.sites, rows)
    # instant-major, each fit one contiguous m x r slot (m: N_p, or
    # poly's feature count); combine reads the m x r x N_t table
    fitted = np.empty((len(tables), weights.shape[-1], model.basis.rank))
    for k, table in enumerate(tables):
        fitted[k] = regression.fit(model.sites, table)
    fitted = np.ascontiguousarray(fitted.transpose(1, 2, 0))
    read = regression.combine(weights, fitted.reshape(len(fitted), -1))
    return read.reshape(len(rows), *fitted.shape[1:])
