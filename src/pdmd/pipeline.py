"""Offline/online workflow shared by the CLI and the benchmark runner.

Keeps the fit/predict/evaluate plumbing in one place so that command
line runs and scripted benchmarks exercise identical code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import regression
from .algorithms import ALGORITHMS
# perfbench/generate.py imports subset_params from here
from .data import ParametricDataset, instant_vector, subset_params  # noqa: F401
from .errors import DataError
from .linalg import SUBNORMAL_NORM
from .metrics import EvalReport, frobenius_rel_error, rmse, time_rel_error
from .reduction import DEFAULT_ENERGY, fit_global_basis, lift, project
from .regression import RegressorSpec


@dataclass(frozen=True)
class FitOptions:
    """Everything needed to train one surrogate on one dataset."""

    algorithm: str
    rank: int | None = None
    energy: float | None = None
    op_rank: int | None = None
    regressor: RegressorSpec | None = None
    seed: int = 0
    bag_trials: int = 1
    bag_fraction: float = 0.8

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise DataError(
                f"unknown algorithm {self.algorithm!r}; use one of {tuple(ALGORITHMS)}"
            )
        if self.rank is not None and self.rank < 1:
            raise DataError(f"rank must be >= 1, got {self.rank}")
        if self.energy is not None and not 0 < self.energy <= 1:
            raise DataError(f"energy must lie in (0, 1], got {self.energy}")
        if self.op_rank is not None and self.op_rank < 1:
            raise DataError(f"op_rank must be >= 1, got {self.op_rank}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.bag_trials < 1:
            raise DataError(f"bag_trials must be >= 1, got {self.bag_trials}")
        if not 0 < self.bag_fraction <= 1:
            raise DataError(f"bag_fraction must lie in (0, 1], got {self.bag_fraction}")


@dataclass(frozen=True)
class FittedSurrogate:
    """A trained model plus the context needed to query and archive it.
    ``regressor`` is ``model.sites.spec``; it stays only while
    perfbench's worker reads it, and goes with ``spec_from_metadata``."""

    model: object
    regressor: RegressorSpec
    train_errors: np.ndarray
    metadata: dict = field(default_factory=dict)


def fit_surrogate(dataset: ParametricDataset, options: FitOptions) -> FittedSurrogate:
    """Run the full offline pipeline: basis, projection, the training
    parameters prepared once for the model's regressor, algorithm fit.

    An explicit rank wins; otherwise the basis keeps the smallest rank
    capturing the requested (or default) energy fraction of the stacked
    snapshots.  The metadata's regressor keys are the model's own spec
    (``nearest`` for a single training parameter).  The train errors
    come from one query of all training rows, each lifted into one
    reused buffer and subtracted from its truth there (``_train_errors``)."""
    spec = options.regressor
    if spec is None:
        spec = regression.default_spec(dataset.param_dim)
    started = time.perf_counter()
    basis = fit_global_basis(
        dataset,
        options.rank,
        energy=DEFAULT_ENERGY if options.energy is None else options.energy,
    )
    latent = project(dataset, basis)
    basis_done = time.perf_counter()
    sites = regression.prepare(spec, latent.params)
    model = ALGORITHMS[options.algorithm].fit(latent, options, sites)
    basis_seconds = basis_done - started
    train_seconds = time.perf_counter() - basis_done

    train_errors = _train_errors(model, dataset)
    spec = model.sites.spec
    metadata = {
        "algorithm": options.algorithm,
        "rank": basis.rank,
        "dt": float(dataset.grid.dt) if dataset.grid.is_uniform else 0.0,
        "t0": float(dataset.grid.t0),
        "n_t": len(dataset.grid),
        "param_dim": dataset.param_dim,
        "regressor": spec.kind,
        "rbf_shape": spec.shape,
        "poly_degree": spec.degree,
        "ridge": spec.ridge,
        "extrapolation": spec.extrapolation,
        "offline_seconds": basis_seconds + train_seconds,
        "basis_seconds": basis_seconds,
        "train_seconds": train_seconds,
        "mean_train_error": float(train_errors.mean()),
    }
    return FittedSurrogate(model, spec, train_errors, metadata)


def spec_from_metadata(metadata: dict) -> RegressorSpec:
    """The regressor configuration recorded at fit time.  A model holds
    its own (``model.sites.spec``); this stays only while perfbench's
    worker passes it to ``predict_surrogate``."""
    return RegressorSpec(
        kind=metadata["regressor"],
        shape=metadata["rbf_shape"],
        degree=int(metadata["poly_degree"]),
        ridge=float(metadata["ridge"]),
        extrapolation=metadata["extrapolation"],
    )


def _algorithm(model):
    algorithm = ALGORITHMS.get(getattr(model, "tag", None))
    if algorithm is None:
        raise DataError(f"cannot predict with object of type {type(model).__name__}")
    return algorithm


def _predict_rows(model, mu_rows, instants):
    """Dispatch to the model's algorithm: one N_h x N_t array per row of
    the n x p block ``mu_rows``, yielded in row order.  The algorithm
    answers the whole block at once; each row is lifted as it is taken,
    so one N_h x N_t array is held at a time.  ``instants`` must be a
    number or a 1-D sequence."""
    latents = _algorithm(model).predict(model, mu_rows, instant_vector(instants))
    return (lift(latent, model.basis) for latent in latents)


def _train_errors(model, dataset: ParametricDataset) -> np.ndarray:
    """``frobenius_rel_error`` of every training trajectory against the
    model's answer at its parameter, from one query of all training rows.

    Every row is lifted into one N_h x N_t buffer (the product ``lift``
    makes, bit for bit) and the truth minus the prediction is taken in
    place, so the pass makes one such array, not one per row.  Where
    ``metrics.frobenius_rel_error`` would rescale (a norm that is zero,
    subnormal or non-finite), the row is lifted again and scored by it,
    so data in extreme units take the metric's own path."""
    latents = _algorithm(model).predict(model, dataset.params, dataset.grid.instants)
    modes = model.basis.modes_u
    buffer = np.empty((dataset.n_state, len(dataset.grid)))
    norm = np.linalg.norm
    errors = []
    for trajectory, latent in zip(dataset.trajectories, latents):
        truth = trajectory.state
        prediction = np.matmul(modes, latent, out=buffer)
        with np.errstate(over="ignore"):
            error = norm(np.subtract(truth, prediction, out=prediction))
            denom = norm(truth)
        if SUBNORMAL_NORM <= error < np.inf and SUBNORMAL_NORM <= denom < np.inf:
            errors.append(float(error / denom))
        else:
            errors.append(frobenius_rel_error(truth, lift(latent, model.basis)))
    return np.array(errors)


def predict_surrogate(model, mu, instants, spec: RegressorSpec | None = None) -> np.ndarray:
    """The model's N_h x N_t states at one parameter vector mu, a
    p-vector (or a number when p = 1) for the model's p training
    parameter dimensions.

    ``spec`` is transitional: the model holds its regressor, and a given
    ``spec`` must equal ``model.sites.spec``.  It stays only while
    perfbench's worker passes it, and goes with ``spec_from_metadata``
    and ``FittedSurrogate.regressor``."""
    _algorithm(model)  # a model of a known family, so it holds sites
    sites = model.sites
    if spec is not None and spec != sites.spec:
        raise DataError(f"regressor {spec} is not the model's own, {sites.spec}")
    row = np.atleast_1d(np.asarray(mu, dtype=float))
    p = sites.params.shape[1]
    if row.shape != (p,):
        raise DataError(
            f"query parameter of shape {np.shape(mu)} does not fit the model's "
            f"parameter dimension {p}"
        )
    return next(_predict_rows(model, row[None], instants))


def timed_query(model, mu, instants) -> tuple:
    """One query: (states, wall seconds, regressor fits it ran).  The
    count covers this call only, whatever other threads do meanwhile."""
    with regression.FitCount() as fits:
        started = time.perf_counter()
        states = predict_surrogate(model, mu, instants)
        seconds = time.perf_counter() - started
    return states, seconds, fits.count


def evaluate_model(
    model,
    dataset: ParametricDataset,
    indices,
    offline_seconds: float = 0.0,
) -> list:
    """One EvalReport per requested parameter, online time measured; the
    algorithm and rank are the model's own."""
    reports = []
    for i in indices:
        i = int(i)
        if not 0 <= i < dataset.n_params:
            raise DataError(
                f"test index {i} outside the dataset range [0, {dataset.n_params})"
            )
        truth = dataset.trajectories[i].state
        pred, online, fits = timed_query(model, dataset.params[i], dataset.grid.instants)
        reports.append(
            EvalReport(
                algorithm=model.tag,
                rank=model.basis.rank,
                parameter=dataset.params[i],
                frobenius_error=frobenius_rel_error(truth, pred),
                time_errors=time_rel_error(truth, pred),
                rmse=rmse(truth, pred),
                offline_seconds=offline_seconds,
                online_seconds=online,
                extras={
                    "times": [float(t) for t in dataset.grid.instants],
                    "online_fits": fits,
                },
            )
        )
    return reports
