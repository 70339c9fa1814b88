"""Evaluation metrics, evaluation records and error-series rows.

Errors are relative Frobenius norm over the whole window, per-instant
relative column norms, and entrywise RMSE, each recomputed on data
scaled by a power of two where the plain squares overflow or go
subnormal, so that data in any units score.  An evaluation record keeps
the offline training cost and the online query cost apart.  Per-instant
errors are written as tidy ``time,value,algorithm,parameter`` rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .algorithms import ALGORITHMS
from .errors import DataError
from .linalg import SUBNORMAL_NORM, scale_exponent

SERIES_HEADER = "time,value,algorithm,parameter"


def _check_shapes(truth, pred):
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if truth.shape != pred.shape:
        raise DataError(f"shape mismatch: truth {truth.shape}, pred {pred.shape}")
    return truth, pred


def _scale_safe(norms, truth, pred, degree=0):
    """``norms(truth, pred)``, recomputed on both arrays scaled by 2**-e
    (``linalg.scale_exponent``) when a norm is zero, non-finite or below
    ``SUBNORMAL_NORM``, and then scaled back by 2**(degree * e)."""
    with np.errstate(over="ignore"):
        result = norms(truth, pred)
    values = np.asarray(result)
    if np.all((values >= SUBNORMAL_NORM) & np.isfinite(values)):
        return result
    exponent = scale_exponent(truth, pred)
    if not exponent:
        return result
    scaled = norms(np.ldexp(truth, -exponent), np.ldexp(pred, -exponent))
    return np.ldexp(scaled, degree * exponent)


def frobenius_rel_error(truth, pred) -> float:
    """Whole-window relative error ||truth - pred||_F / ||truth||_F."""
    truth, pred = _check_shapes(truth, pred)
    norm = np.linalg.norm
    error, denom = _scale_safe(lambda a, b: (norm(a - b), norm(a)), truth, pred)
    if denom == 0:
        raise DataError("truth has zero Frobenius norm")
    return float(error / denom)


def time_rel_error(truth, pred) -> np.ndarray:
    """Per-column relative error ||x(t) - xhat(t)||_2 / ||x(t)||_2."""
    truth, pred = _check_shapes(truth, pred)
    if truth.ndim != 2:
        raise DataError("time-resolved error expects 2-D snapshot matrices")
    norm = np.linalg.norm
    error, denom = _scale_safe(
        lambda a, b: (norm(a - b, axis=0), norm(a, axis=0)), truth, pred
    )
    zero = np.flatnonzero(denom == 0)
    if zero.size:
        raise DataError(f"truth column {zero[0]} has zero norm")
    return error / denom


def rmse(truth, pred) -> float:
    """Entrywise root-mean-square difference."""
    truth, pred = _check_shapes(truth, pred)
    return float(_scale_safe(lambda a, b: np.sqrt(np.mean((a - b) ** 2)), truth, pred, 1))


@dataclass(frozen=True)
class EvalReport:
    """One evaluation record: errors plus phase timings for one
    (algorithm, parameter) pair."""

    algorithm: str
    rank: int
    parameter: np.ndarray
    frobenius_error: float
    time_errors: np.ndarray
    rmse: float
    offline_seconds: float
    online_seconds: float
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise DataError(
                f"unknown algorithm {self.algorithm!r}; use {tuple(ALGORITHMS)}"
            )
        object.__setattr__(
            self, "parameter", np.atleast_1d(np.asarray(self.parameter, dtype=float))
        )
        object.__setattr__(
            self, "time_errors", np.asarray(self.time_errors, dtype=float)
        )
        if self.frobenius_error < 0 or self.rmse < 0 or np.any(self.time_errors < 0):
            raise DataError("errors must be non-negative")
        if self.offline_seconds < 0 or self.online_seconds < 0:
            raise DataError("phase times must be non-negative")


def report_to_line(report: EvalReport) -> str:
    """Serialize one report as a single structured text line."""
    payload = {
        "algorithm": report.algorithm,
        "rank": report.rank,
        "parameter": report.parameter.tolist(),
        "frobenius_error": report.frobenius_error,
        "time_errors": report.time_errors.tolist(),
        "rmse": report.rmse,
        "offline_seconds": report.offline_seconds,
        "online_seconds": report.online_seconds,
    }
    payload.update(report.extras)
    return json.dumps(payload, sort_keys=True)


def report_from_line(line: str) -> EvalReport:
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed report line: {exc}") from exc
    known = {
        "algorithm",
        "rank",
        "parameter",
        "frobenius_error",
        "time_errors",
        "rmse",
        "offline_seconds",
        "online_seconds",
    }
    missing = known - set(payload)
    if missing:
        raise DataError(f"report line missing fields {sorted(missing)}")
    extras = {k: v for k, v in payload.items() if k not in known}
    return EvalReport(
        algorithm=payload["algorithm"],
        rank=int(payload["rank"]),
        parameter=np.asarray(payload["parameter"], dtype=float),
        frobenius_error=float(payload["frobenius_error"]),
        time_errors=np.asarray(payload["time_errors"], dtype=float),
        rmse=float(payload["rmse"]),
        offline_seconds=float(payload["offline_seconds"]),
        online_seconds=float(payload["online_seconds"]),
        extras=extras,
    )


def parameter_label(parameter) -> str:
    """A parameter vector as one CSV cell: components joined by ';'."""
    return ";".join(f"{v:g}" for v in np.atleast_1d(parameter))


def series_rows(times, values, algorithm: str, parameter) -> list:
    """The ``time,value,algorithm,parameter`` rows of one error series."""
    label = parameter_label(parameter)
    return [f"{t:.17g},{v:.17g},{algorithm},{label}" for t, v in zip(times, values)]


def write_series(path, rows) -> None:
    """Write series rows under the ``time,value,algorithm,parameter``
    header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([SERIES_HEADER, *rows]) + "\n")
