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
from .data import ParametricDataset, subset_params  # noqa: F401  (importable from here too)
from .errors import DataError
from .metrics import EvalReport, frobenius_rel_error, rmse, time_rel_error
from .reduction import DEFAULT_ENERGY, fit_global_basis, project
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
        if self.bag_trials < 1:
            raise DataError(f"bag_trials must be >= 1, got {self.bag_trials}")
        if not 0 < self.bag_fraction <= 1:
            raise DataError(f"bag_fraction must lie in (0, 1], got {self.bag_fraction}")


@dataclass(frozen=True)
class FittedSurrogate:
    """A trained model plus the context needed to query and archive it."""

    model: object
    algorithm: str
    regressor: RegressorSpec
    train_errors: np.ndarray
    metadata: dict = field(default_factory=dict)


def fit_surrogate(dataset: ParametricDataset, options: FitOptions) -> FittedSurrogate:
    """Run the full offline pipeline: basis, projection, algorithm fit.

    An explicit rank wins; otherwise the basis keeps the smallest rank
    capturing the requested (or default) energy fraction of the stacked
    snapshots."""
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
    model = ALGORITHMS[options.algorithm].fit(latent, options, spec)
    basis_seconds = basis_done - started
    train_seconds = time.perf_counter() - basis_done

    predictions = _predict_rows(model, dataset.params, dataset.grid.instants, spec)
    train_errors = np.array(
        [
            frobenius_rel_error(trajectory.state, prediction)
            for trajectory, prediction in zip(dataset.trajectories, predictions)
        ]
    )
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
    return FittedSurrogate(model, options.algorithm, spec, train_errors, metadata)


def spec_from_metadata(metadata: dict) -> RegressorSpec:
    """Rebuild the regressor configuration recorded at fit time."""
    return RegressorSpec(
        kind=metadata["regressor"],
        shape=metadata["rbf_shape"],
        degree=int(metadata["poly_degree"]),
        ridge=float(metadata["ridge"]),
        extrapolation=metadata["extrapolation"],
    )


def _predict_rows(model, mu_rows, instants, spec: RegressorSpec):
    """Dispatch to the model's algorithm: one N_h x N_t array per row of
    the n x p block ``mu_rows``, yielded in row order."""
    instants = np.atleast_1d(np.asarray(instants, dtype=float))
    algorithm = ALGORITHMS.get(getattr(model, "tag", None))
    if algorithm is None:
        raise DataError(f"cannot predict with object of type {type(model).__name__}")
    return algorithm.predict(model, mu_rows, instants, spec)


def predict_surrogate(model, mu, instants, spec: RegressorSpec) -> np.ndarray:
    """The model's N_h x N_t states at one parameter vector mu."""
    row = np.atleast_1d(np.asarray(mu, dtype=float))
    return next(_predict_rows(model, row[None], instants, spec))


def timed_query(model, mu, instants, spec: RegressorSpec) -> tuple:
    """One query: (states, wall seconds, regressor fits it ran).  The
    count covers this call only, whatever other threads do meanwhile."""
    with regression.FitCount() as fits:
        started = time.perf_counter()
        states = predict_surrogate(model, mu, instants, spec)
        seconds = time.perf_counter() - started
    return states, seconds, fits.count


def evaluate_model(
    model,
    spec: RegressorSpec,
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
        pred, online, fits = timed_query(
            model, dataset.params[i], dataset.grid.instants, spec
        )
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
