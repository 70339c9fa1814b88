"""The algorithm table: one entry per surrogate family, keyed by the tag
its model class carries.

An entry says how the offline workflow trains the family on latent
trajectories, on training parameters prepared once for the model's
regressor, and how a trained model answers a query.  A model holds its
regressor, so a query takes no spec.  Entries call the layer functions
by name when they run, so a wrapper rebound in a module namespace (a
tracer or profiler) sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .latent import (
    MonolithicModel,
    PartitionedModel,
    fit_monolithic,
    fit_partitioned,
    predict_latent,
)
from .rkoi import RkoiModel, fit_rkoi, predict_rkoi
from .roi import RoiModel, fit_roi, predict_roi


@dataclass(frozen=True)
class Algorithm:
    """``fit(latent, options, sites)`` returns a model whose regressor
    reads the prepared ``sites``; ``predict(model, mu_rows, instants)``
    answers the n x p block ``mu_rows`` in one pass and returns the
    model's latents, one r x N_t array per row in row order, for the
    caller to lift."""

    fit: Callable
    predict: Callable


def _fit_roi(latent, options, sites):
    op_rank = options.op_rank
    if op_rank is None:
        op_rank = min(latent.rank * latent.rank, latent.n_params)
    return fit_roi(latent, op_rank=op_rank, sites=sites)


def _fit_rkoi(latent, options, sites):
    return fit_rkoi(
        latent,
        sites=sites,
        bag_trials=options.bag_trials,
        bag_fraction=options.bag_fraction,
        bag_seed=options.seed,
    )


ALGORITHMS = {
    RoiModel.tag: Algorithm(
        fit=_fit_roi,
        predict=lambda model, mu_rows, instants: predict_roi(model, mu_rows, instants),
    ),
    RkoiModel.tag: Algorithm(
        fit=_fit_rkoi,
        predict=lambda model, mu_rows, instants: predict_rkoi(model, mu_rows, instants),
    ),
    MonolithicModel.tag: Algorithm(
        fit=lambda latent, options, sites: fit_monolithic(latent, sites),
        predict=lambda model, mu_rows, instants: predict_latent(model, mu_rows, instants),
    ),
    PartitionedModel.tag: Algorithm(
        fit=lambda latent, options, sites: fit_partitioned(latent, sites),
        predict=lambda model, mu_rows, instants: predict_latent(model, mu_rows, instants),
    ),
}
