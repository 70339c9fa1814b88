"""Parameter-space regressors mapping mu vectors to coefficient vectors.

Every parametric surrogate delegates its mu-dependence to one of these
kinds: 1-D piecewise-linear interpolation, nearest neighbour, radial
basis functions (gaussian or thin-plate kernel), or ridge-regularized
polynomials.  Complex-valued targets are regressed as separate real and
imaginary channels and reassembled on prediction.

``FitCount`` counts the fit() calls made inside a ``with`` block, in
that thread or task only, so a timed query can report how many
regressors it trained online (N_t for the latent-interpolation
variants, none for operator and triplet interpolation) while other
queries run concurrently.
"""

from __future__ import annotations

import itertools
import warnings
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import DataError, ExtrapolationWarning, IllConditionedWarning

KINDS = ("linear", "nearest", "rbf-gauss", "rbf-tps", "poly")
EXTRAPOLATION_POLICIES = ("clamp", "allow", "error")
CONDITION_TELEMETRY_THRESHOLD = 1e12

# the FitCount blocks open in the current thread or task, innermost last
_OPEN_COUNTS: ContextVar[tuple] = ContextVar("pdmd_open_fit_counts", default=())


class FitCount:
    """``with FitCount() as fits:`` counts in ``fits.count`` the fit()
    calls made inside the block by this thread or task; nested blocks
    each count the calls made inside them."""

    def __init__(self):
        self.count = 0
        self._token = None

    def __enter__(self) -> "FitCount":
        self._token = _OPEN_COUNTS.set(_OPEN_COUNTS.get() + (self,))
        return self

    def __exit__(self, *exc_info) -> None:
        _OPEN_COUNTS.reset(self._token)


def _record_fit() -> None:
    for counter in _OPEN_COUNTS.get():
        counter.count += 1


@dataclass(frozen=True)
class RegressorSpec:
    """Choice of regressor family and its hyperparameters.

    ``shape`` scales rbf distances; None picks the median pairwise
    training distance at fit time.  ``degree``/``ridge`` apply to the
    polynomial kind only.
    """

    kind: str = "linear"
    shape: float | None = None
    degree: int = 2
    ridge: float = 0.0
    extrapolation: str = "clamp"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown regressor kind {self.kind!r}; use {KINDS}")
        if self.extrapolation not in EXTRAPOLATION_POLICIES:
            raise DataError(
                f"unknown extrapolation policy {self.extrapolation!r}; "
                f"use {EXTRAPOLATION_POLICIES}"
            )
        if self.shape is not None and self.shape <= 0:
            raise DataError(f"rbf shape must be > 0, got {self.shape}")
        if self.degree < 0:
            raise DataError(f"polynomial degree must be >= 0, got {self.degree}")
        if self.ridge < 0:
            raise DataError(f"ridge must be >= 0, got {self.ridge}")


@dataclass(frozen=True)
class FittedRegressor:
    """Trained map from p-vectors to d-vectors; immutable and reentrant."""

    spec: RegressorSpec
    training_params: np.ndarray
    coefficients: dict = field(default_factory=dict)
    output_dim: int = 0
    complex_output: bool = False


def _normalize_params(params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.ndim == 1:
        params = params[:, None]
    if params.ndim != 2 or params.shape[0] < 1:
        raise DataError("parameters must form an N_p x p array")
    if not np.all(np.isfinite(params)):
        raise DataError("parameters contain non-finite entries")
    return params


def _normalize_values(values) -> tuple:
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise DataError("values must form an N_p x d array")
    if not np.all(np.isfinite(values)):
        raise DataError("values contain non-finite entries")
    if np.iscomplexobj(values):
        return np.hstack([values.real, values.imag]).astype(float), True
    return values.astype(float), False


def _poly_powers(p: int, degree: int) -> list:
    powers = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(p), total):
            exponents = [0] * p
            for axis in combo:
                exponents[axis] += 1
            powers.append(tuple(exponents))
    return powers


def _poly_features(params: np.ndarray, powers: list) -> np.ndarray:
    return np.column_stack(
        [np.prod(params**np.asarray(exp), axis=1) for exp in powers]
    )


def _has_duplicate_rows(params: np.ndarray) -> bool:
    """Whether two rows are equal; a lexicographic sort makes equal rows
    adjacent."""
    ordered = params[np.lexsort(params.T)]
    return bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))


def _rbf_kernel(distances: np.ndarray, kind: str) -> np.ndarray:
    if kind == "rbf-gauss":
        return np.exp(-(distances**2))
    scaled = np.where(distances > 0, distances, 1.0)
    return np.where(distances > 0, distances**2 * np.log(scaled), 0.0)


def fit(spec: RegressorSpec, params, values) -> FittedRegressor:
    """Train a regressor on (params, values) pairs.

    Interpolating kinds (linear, nearest, rbf with zero ridge) reproduce
    their training values on prediction; the polynomial kind solves a
    ridge-regularized least-squares problem.
    """
    params = _normalize_params(params)
    table, complex_output = _normalize_values(values)
    if table.shape[0] != params.shape[0]:
        raise DataError(
            f"{params.shape[0]} parameters but {table.shape[0]} value rows"
        )
    n_points, p = params.shape
    coefficients: dict

    if spec.kind == "linear":
        if p != 1:
            raise DataError("linear interpolation supports scalar parameters only")
        if n_points < 2:
            raise DataError("linear interpolation needs at least two points")
        order = np.argsort(params[:, 0])
        xs = params[order, 0]
        if np.any(xs[1:] == xs[:-1]):
            raise DataError("duplicate parameters for an interpolating regressor")
        coefficients = {"xs": xs, "table": table[order]}
    elif spec.kind == "nearest":
        if _has_duplicate_rows(params):
            raise DataError("duplicate parameters for an interpolating regressor")
        coefficients = {"table": table}
    elif spec.kind in ("rbf-gauss", "rbf-tps"):
        if _has_duplicate_rows(params):
            raise DataError("duplicate parameters for an interpolating regressor")
        distances = cdist(params, params)
        if spec.shape is not None:
            shape = spec.shape
        else:
            off_diag = distances[~np.eye(n_points, dtype=bool)]
            shape = float(np.median(off_diag)) if off_diag.size else 1.0
            if shape <= 0:
                shape = 1.0
        kernel = _rbf_kernel(distances / shape, spec.kind)
        system = kernel + spec.ridge * np.eye(n_points)
        cond = np.linalg.cond(system)
        if cond > CONDITION_TELEMETRY_THRESHOLD:
            warnings.warn(
                f"rbf system condition number {cond:.3e}",
                IllConditionedWarning,
                stacklevel=2,
            )
        try:
            weights = cho_solve(cho_factor(system), table)
        except np.linalg.LinAlgError:
            weights = np.linalg.lstsq(system, table, rcond=None)[0]
        coefficients = {"weights": weights, "shape": np.array(shape)}
    else:  # poly
        powers = _poly_powers(p, spec.degree)
        features = _poly_features(params, powers)
        if spec.ridge == 0 and n_points < len(powers):
            raise DataError(
                f"degree-{spec.degree} polynomial has {len(powers)} coefficients "
                f"but only {n_points} samples; add ridge or samples"
            )
        if spec.ridge > 0:
            gram = features.T @ features + spec.ridge * np.eye(len(powers))
            beta = np.linalg.solve(gram, features.T @ table)
        else:
            beta = np.linalg.lstsq(features, table, rcond=None)[0]
        coefficients = {"beta": beta, "degree": np.array(spec.degree)}

    _record_fit()
    dim = table.shape[1] // 2 if complex_output else table.shape[1]
    return FittedRegressor(spec, params, coefficients, dim, complex_output)


def _apply_policy(regressor: FittedRegressor, mu: np.ndarray) -> np.ndarray:
    lo = regressor.training_params.min(axis=0)
    hi = regressor.training_params.max(axis=0)
    if np.all((mu >= lo) & (mu <= hi)):
        return mu
    policy = regressor.spec.extrapolation
    if policy == "allow":
        return mu
    if policy == "error":
        raise DataError(
            f"query {mu.tolist()} outside the training hull "
            f"[{lo.tolist()}, {hi.tolist()}]"
        )
    clamped = np.clip(mu, lo, hi)
    warnings.warn(
        f"query {mu.tolist()} clamped to hull box {clamped.tolist()}",
        ExtrapolationWarning,
        stacklevel=3,
    )
    return clamped


def predict(regressor: FittedRegressor, mu) -> np.ndarray:
    """Evaluate the trained map at one parameter vector."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    p = regressor.training_params.shape[1]
    if mu.shape != (p,):
        raise DataError(f"query must be a {p}-vector, got shape {mu.shape}")
    if not np.all(np.isfinite(mu)):
        raise DataError("query contains non-finite entries")
    mu = _apply_policy(regressor, mu)
    spec = regressor.spec
    coeff = regressor.coefficients

    if spec.kind == "linear":
        xs, table = coeff["xs"], coeff["table"]
        x = mu[0]
        if x <= xs[0]:
            # the allow policy may pass x < xs[0]: extend the first segment
            left, right = 0, 1
        elif x >= xs[-1]:
            left, right = len(xs) - 2, len(xs) - 1
        else:
            right = int(np.searchsorted(xs, x, side="right"))
            left = right - 1
        weight = (x - xs[left]) / (xs[right] - xs[left])
        row = (1 - weight) * table[left] + weight * table[right]
    elif spec.kind == "nearest":
        distances = np.linalg.norm(regressor.training_params - mu, axis=1)
        row = coeff["table"][int(np.argmin(distances))]
    elif spec.kind in ("rbf-gauss", "rbf-tps"):
        distances = cdist(mu[None, :], regressor.training_params)[0]
        kernel = _rbf_kernel(distances / float(coeff["shape"]), spec.kind)
        row = kernel @ coeff["weights"]
    else:  # poly
        powers = _poly_powers(p, int(coeff["degree"]))
        row = _poly_features(mu[None, :], powers)[0] @ coeff["beta"]

    if regressor.complex_output:
        return row[: regressor.output_dim] + 1j * row[regressor.output_dim :]
    return row


def default_spec(param_dim: int, extrapolation: str = "clamp") -> RegressorSpec:
    """Package default: 1-D linear interpolation, gaussian rbf otherwise."""
    kind = "linear" if param_dim == 1 else "rbf-gauss"
    return RegressorSpec(kind=kind, extrapolation=extrapolation)


def effective_spec(spec: RegressorSpec, n_points: int) -> RegressorSpec:
    """Degrade to nearest (a constant map) when a single training point
    cannot support the requested kind."""
    if n_points == 1 and spec.kind != "nearest":
        return RegressorSpec(kind="nearest", extrapolation=spec.extrapolation)
    return spec
