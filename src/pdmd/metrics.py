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
from dataclasses import dataclass, field, fields

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


def _numbers(name: str, value, kinds: str = "iuf", ndims: tuple = (0,)) -> np.ndarray:
    """``value`` as a float array with one of ``ndims`` axes, or a
    DataError naming the report field: a string, null, boolean, ragged
    or wrongly nested value is not a number."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged list
        array = np.asarray(None)
    if array.dtype.kind not in kinds or array.ndim not in ndims:
        what = "a number" if ndims == (0,) else "a list of numbers"
        raise DataError(f"report field {name!r} must be {what}, got {value!r:.80}")
    return array.astype(float)


@dataclass(frozen=True)
class EvalReport:
    """One evaluation record: errors plus phase timings for one
    (algorithm, parameter) pair.  Every field is checked here, so a
    malformed report line is a DataError naming its field."""

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
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise DataError(
                f"unknown algorithm {self.algorithm!r}; use {tuple(ALGORITHMS)}"
            )
        if not isinstance(self.extras, dict):
            raise DataError(f"report extras must be a mapping, got {self.extras!r}")
        rank = int(_numbers("rank", self.rank, kinds="iu"))
        if rank < 1:
            raise DataError(f"report field 'rank' must be >= 1, got {rank}")
        checked = {
            "rank": rank,
            "parameter": np.atleast_1d(_numbers("parameter", self.parameter, ndims=(0, 1))),
        }
        # the errors and the phase times
        for name in ("frobenius_error", "time_errors", "rmse", "offline_seconds", "online_seconds"):
            value = _numbers(name, getattr(self, name), ndims=(1,) if name == "time_errors" else (0,))
            if np.any(value < 0):
                raise DataError(f"report field {name!r} must be non-negative")
            checked[name] = value if value.ndim else float(value)
        for name, value in checked.items():
            object.__setattr__(self, name, value)


# the fields of a report line besides its extras, in declaration order
REPORT_FIELDS = tuple(f.name for f in fields(EvalReport) if f.name != "extras")


def report_to_line(report: EvalReport) -> str:
    """Serialize one report as a single structured text line: its fields
    as JSON values, then its extras as further keys."""
    payload = {name: getattr(report, name) for name in REPORT_FIELDS}
    payload.update(report.extras)
    return json.dumps(payload, sort_keys=True, default=np.ndarray.tolist)


def report_from_line(line: str) -> EvalReport:
    """Inverse of ``report_to_line``: a line that is not one JSON object
    holding every field, each of its kind, is a DataError."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed report line: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError(f"report line is not a JSON object: {line.strip()[:80]!r}")
    missing = [name for name in REPORT_FIELDS if name not in payload]
    if missing:
        raise DataError(f"report line missing fields {missing}")
    extras = {k: v for k, v in payload.items() if k not in REPORT_FIELDS}
    return EvalReport(**{name: payload[name] for name in REPORT_FIELDS}, extras=extras)


def parameter_label(parameter) -> str:
    """A parameter vector as one CSV cell: components joined by ';'."""
    return ";".join(f"{v:g}" for v in np.atleast_1d(parameter))


def series_rows(times, values, algorithm: str, parameter) -> list:
    """The ``time,value,algorithm,parameter`` rows of one error series;
    ``times`` (a report's ``times`` extra) holds one number per value."""
    times = _numbers("times", times, ndims=(1,))
    if len(times) != len(values):
        raise DataError(
            f"report field 'times' has {len(times)} entries for {len(values)} values"
        )
    label = parameter_label(parameter)
    return [f"{t:.17g},{v:.17g},{algorithm},{label}" for t, v in zip(times, values)]


def write_series(path, rows) -> None:
    """Write series rows under the ``time,value,algorithm,parameter``
    header."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join([SERIES_HEADER, *rows]) + "\n")
