"""Parameter-space regressors mapping mu vectors to coefficient vectors.

Every parametric surrogate delegates its mu-dependence to one of these
kinds: 1-D piecewise-linear interpolation, nearest neighbour, radial
basis functions (gaussian or thin-plate kernel), or ridge-regularized
polynomials.  Complex-valued targets are regressed as separate real and
imaginary channels and reassembled on prediction.

The work is split in three stages by what each one depends on, so that
many regressors on the same training parameters share it:

- ``prepare(spec, params)`` depends on the training parameters only.
  It validates them, rejects duplicates and builds the hull box and the
  kind's value-independent work: the linear sort order, the rbf kernel
  system with its Cholesky factor and condition number, the polynomial
  features and Gram matrix.
- ``fit(sites, values)`` trains one regressor on prepared sites: it
  validates the values and runs the kind's reorder or solve.
- ``stencil(sites, mu)`` depends on the query only.  It checks mu,
  applies the extrapolation policy and builds what reading any
  regressor on those sites needs: the bracketing pair and weight, the
  nearest row, the rbf kernel row or the polynomial feature row.
  ``combine(stencil, regressor)`` applies it to one fitted regressor.

``predict(regressor, mu)`` runs the last two stages for one regressor.

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


@dataclass(frozen=True)
class Sites:
    """Training parameters prepared for every fit and query on them.

    ``lo``/``hi`` bound the hull box.  The kind's fields: ``order`` and
    ``xs`` (linear: ascending row order and sorted abscissae),
    ``shape``, ``system`` and ``factor`` (rbf: distance scale, kernel
    plus ridge, and its Cholesky factor or None when that fails),
    ``powers``, ``features`` and ``gram`` (poly: monomial exponents,
    feature matrix, and the ridge Gram matrix or None at zero ridge).
    Sites rebuilt from a fitted regressor by ``_sites_of`` carry only
    what a stencil reads."""

    spec: RegressorSpec
    params: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    order: np.ndarray | None = None
    xs: np.ndarray | None = None
    shape: float | None = None
    system: np.ndarray | None = None
    factor: tuple | None = None
    powers: list | None = None
    features: np.ndarray | None = None
    gram: np.ndarray | None = None


@dataclass(frozen=True)
class Stencil:
    """How one query reads any regressor fitted on the same sites.
    linear: table rows ``left`` and ``right`` blended by ``weight``;
    nearest: table row ``left``; rbf and poly: the kernel or feature
    ``row`` dotted with the coefficients."""

    left: int = 0
    right: int = 0
    weight: float = 0.0
    row: np.ndarray | None = None


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
    if not np.isfinite(values).all():
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


def prepare(spec: RegressorSpec, params) -> Sites:
    """Validate the training parameters and do the kind's work that no
    fitted value enters; every ``fit`` and ``stencil`` on the result
    shares it."""
    params = _normalize_params(params)
    n_points, p = params.shape
    box = (params.min(axis=0), params.max(axis=0))

    if spec.kind == "linear":
        if p != 1:
            raise DataError("linear interpolation supports scalar parameters only")
        if n_points < 2:
            raise DataError("linear interpolation needs at least two points")
        order = np.argsort(params[:, 0])
        xs = params[order, 0]
        if np.any(xs[1:] == xs[:-1]):
            raise DataError("duplicate parameters for an interpolating regressor")
        return Sites(spec, params, *box, order=order, xs=xs)

    if spec.kind == "poly":
        powers = _poly_powers(p, spec.degree)
        features = _poly_features(params, powers)
        if spec.ridge == 0 and n_points < len(powers):
            raise DataError(
                f"degree-{spec.degree} polynomial has {len(powers)} coefficients "
                f"but only {n_points} samples; add ridge or samples"
            )
        gram = None
        if spec.ridge > 0:
            gram = features.T @ features + spec.ridge * np.eye(len(powers))
        return Sites(spec, params, *box, powers=powers, features=features, gram=gram)

    if _has_duplicate_rows(params):
        raise DataError("duplicate parameters for an interpolating regressor")
    if spec.kind == "nearest":
        return Sites(spec, params, *box)

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
        factor = cho_factor(system)
    except np.linalg.LinAlgError:
        factor = None
    return Sites(spec, params, *box, shape=shape, system=system, factor=factor)


def fit(sites: Sites, values) -> FittedRegressor:
    """Train a regressor on the values at prepared sites, one value row
    per training parameter.

    Interpolating kinds (linear, nearest, rbf with zero ridge) reproduce
    their training values on prediction; the polynomial kind solves a
    ridge-regularized least-squares problem.
    """
    table, complex_output = _normalize_values(values)
    if table.shape[0] != sites.params.shape[0]:
        raise DataError(
            f"{sites.params.shape[0]} parameters but {table.shape[0]} value rows"
        )
    kind = sites.spec.kind
    if kind == "linear":
        coefficients = {"xs": sites.xs, "table": table[sites.order]}
    elif kind == "nearest":
        coefficients = {"table": table}
    elif kind in ("rbf-gauss", "rbf-tps"):
        if sites.factor is not None:
            weights = cho_solve(sites.factor, table)
        else:
            weights = np.linalg.lstsq(sites.system, table, rcond=None)[0]
        coefficients = {"weights": weights, "shape": np.array(sites.shape)}
    else:  # poly
        if sites.gram is not None:
            beta = np.linalg.solve(sites.gram, sites.features.T @ table)
        else:
            beta = np.linalg.lstsq(sites.features, table, rcond=None)[0]
        coefficients = {"beta": beta, "degree": np.array(sites.spec.degree)}

    _record_fit()
    dim = table.shape[1] // 2 if complex_output else table.shape[1]
    return FittedRegressor(sites.spec, sites.params, coefficients, dim, complex_output)


def _sites_of(regressor: FittedRegressor) -> Sites:
    """The sites a fitted or loaded regressor was trained on, carrying
    what a stencil reads: the hull box, the sorted abscissae, the rbf
    shape or the polynomial exponents."""
    params = regressor.training_params
    coeff = regressor.coefficients
    return Sites(
        regressor.spec,
        params,
        params.min(axis=0),
        params.max(axis=0),
        xs=coeff.get("xs"),
        shape=float(coeff["shape"]) if "shape" in coeff else None,
        powers=(
            _poly_powers(params.shape[1], int(coeff["degree"]))
            if "degree" in coeff
            else None
        ),
    )


def _apply_policy(sites: Sites, mu: np.ndarray) -> np.ndarray:
    lo, hi = sites.lo, sites.hi
    if ((mu >= lo) & (mu <= hi)).all():
        return mu
    policy = sites.spec.extrapolation
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


def stencil(sites: Sites, mu) -> Stencil:
    """Check one parameter vector, apply the extrapolation policy and
    locate it among the sites, once for every regressor on them."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    p = sites.params.shape[1]
    if mu.shape != (p,):
        raise DataError(f"query must be a {p}-vector, got shape {mu.shape}")
    if not np.isfinite(mu).all():
        raise DataError("query contains non-finite entries")
    mu = _apply_policy(sites, mu)
    kind = sites.spec.kind

    if kind == "linear":
        xs = sites.xs
        x = mu[0]
        if x <= xs[0]:
            # the allow policy may pass x < xs[0]: extend the first segment
            left, right = 0, 1
        elif x >= xs[-1]:
            left, right = len(xs) - 2, len(xs) - 1
        else:
            right = int(xs.searchsorted(x, side="right"))
            left = right - 1
        return Stencil(left, right, (x - xs[left]) / (xs[right] - xs[left]))
    if kind == "nearest":
        distances = np.linalg.norm(sites.params - mu, axis=1)
        return Stencil(left=int(np.argmin(distances)))
    if kind in ("rbf-gauss", "rbf-tps"):
        distances = cdist(mu[None, :], sites.params)[0]
        return Stencil(row=_rbf_kernel(distances / sites.shape, kind))
    return Stencil(row=_poly_features(mu[None, :], sites.powers)[0])


def combine(query: Stencil, regressor: FittedRegressor) -> np.ndarray:
    """The regressor's value at the stencil's query; the regressor must
    be fitted on the sites the stencil was built from."""
    kind = regressor.spec.kind
    coeff = regressor.coefficients
    if kind == "linear":
        table = coeff["table"]
        row = (1 - query.weight) * table[query.left] + query.weight * table[query.right]
    elif kind == "nearest":
        row = coeff["table"][query.left]
    elif kind in ("rbf-gauss", "rbf-tps"):
        row = query.row @ coeff["weights"]
    else:  # poly
        row = query.row @ coeff["beta"]

    if regressor.complex_output:
        return row[: regressor.output_dim] + 1j * row[regressor.output_dim :]
    return row


def predict(regressor: FittedRegressor, mu) -> np.ndarray:
    """Evaluate the trained map at one parameter vector."""
    return combine(stencil(_sites_of(regressor), mu), regressor)


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
