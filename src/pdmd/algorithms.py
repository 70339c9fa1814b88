"""The algorithm table: one entry per surrogate family, keyed by the tag
its model class carries.

An entry says how the offline workflow trains the family on latent
trajectories and how a trained model answers a query.  Entries call the
layer functions by name when they run, so a wrapper rebound in a module
namespace (a tracer or profiler) sees every call.
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
    """``fit(latent, options, spec)`` returns a model; ``predict(model,
    mu_rows, instants, spec)`` answers the n x p block ``mu_rows`` in one
    pass and returns the model's latents, one r x N_t array per row in
    row order, for the caller to lift."""

    fit: Callable
    predict: Callable


def _fit_roi(latent, options, spec):
    op_rank = options.op_rank
    if op_rank is None:
        op_rank = min(latent.rank * latent.rank, latent.n_params)
    return fit_roi(latent, op_rank=op_rank, spec=spec)


def _fit_rkoi(latent, options, spec):
    return fit_rkoi(
        latent,
        spec=spec,
        bag_trials=options.bag_trials,
        bag_fraction=options.bag_fraction,
        bag_seed=options.seed,
    )


def _predict_latent(model, mu_rows, instants, spec):
    return predict_latent(model, mu_rows, instants, spec)


ALGORITHMS = {
    RoiModel.tag: Algorithm(
        fit=_fit_roi,
        predict=lambda model, mu_rows, instants, spec: predict_roi(model, mu_rows, instants),
    ),
    RkoiModel.tag: Algorithm(
        fit=_fit_rkoi,
        predict=lambda model, mu_rows, instants, spec: predict_rkoi(model, mu_rows, instants),
    ),
    MonolithicModel.tag: Algorithm(
        fit=lambda latent, options, spec: fit_monolithic(latent),
        predict=_predict_latent,
    ),
    PartitionedModel.tag: Algorithm(
        fit=lambda latent, options, spec: fit_partitioned(latent),
        predict=_predict_latent,
    ),
}
