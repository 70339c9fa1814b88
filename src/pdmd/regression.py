"""Parameter-space regressors mapping mu vectors to coefficient vectors.

Every parametric surrogate delegates its mu-dependence to one of these
kinds: 1-D piecewise-linear interpolation, nearest neighbour, radial
basis functions (gaussian or thin-plate kernel), or ridge-regularized
polynomials.  Complex-valued targets are regressed as separate real and
imaginary channels and reassembled on prediction.

The work is split in stages by what each one depends on, so that many
regressors on the same training parameters share it:

- ``prepare(spec, params)`` depends on the training parameters only.
  It validates them, falls back to nearest for a single point, rejects
  duplicates and builds what a stencil reads (the hull box, the linear
  sort order, the rbf shape or the polynomial powers) and what a fit
  reads (the rbf kernel system with its Cholesky factor and condition
  number, the polynomial features and Gram matrix).
- ``fit(sites, values)`` trains one regressor on prepared sites, which
  it keeps as ``regressor.sites`` for the queries on it.
- ``stencil(sites, mu)`` depends on the query only.  It checks mu (a
  p-vector or an n x p block), applies the extrapolation policy and
  weighs the rows of any value table fitted on the sites: ``1 - w`` and
  ``w`` at the bracketing rows, a single 1, the rbf kernel row or the
  polynomial feature row; ``combine(weights, regressor)`` sums them.

A surrogate that regresses several quantities over mu joins them into
one value table, so one fit trains them and one ``combine`` reads them.

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
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .data import has_duplicate_rows
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
class Sites:
    """Training parameters prepared for every fit and query on them.

    ``lo``/``hi`` bound the hull box.  The kind's fields: ``order`` and
    ``xs`` (linear: ascending row order and sorted abscissae),
    ``shape``, ``system`` and ``factor`` (rbf: distance scale, kernel
    plus ridge, and its Cholesky factor or None when that fails),
    ``powers``, ``features`` and ``gram`` (poly: monomial exponents,
    feature matrix, and the ridge Gram matrix or None at zero ridge);
    ``system``, ``factor``, ``features`` and ``gram`` are fit-only."""

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
class FittedRegressor:
    """Trained map from p-vectors to d-vectors; immutable and reentrant.

    ``values`` is the one table a query reads: the value rows (linear:
    sorted), the rbf weights or the polynomial coefficients, imaginary
    channels after the real ones when ``complex_output``."""

    sites: Sites
    values: np.ndarray
    complex_output: bool = False

    @property
    def output_dim(self) -> int:
        width = self.values.shape[1]
        return width // 2 if self.complex_output else width


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


def _rbf_kernel(distances: np.ndarray, kind: str) -> np.ndarray:
    if kind == "rbf-gauss":
        return np.exp(-(distances**2))
    scaled = np.where(distances > 0, distances, 1.0)
    return np.where(distances > 0, distances**2 * np.log(scaled), 0.0)


def prepare(spec: RegressorSpec, params) -> Sites:
    """Validate the training parameters and build what every ``fit``
    and ``stencil`` on them reads; no fitted value enters.  A single
    point supports only a constant map, so every kind falls back to
    nearest there; the returned sites carry the spec in effect."""
    params = _normalize_params(params)
    n_points, p = params.shape
    if n_points == 1 and spec.kind != "nearest":
        spec = RegressorSpec(kind="nearest", extrapolation=spec.extrapolation)
    box = (params.min(axis=0), params.max(axis=0))

    if spec.kind == "linear" and p != 1:
        raise DataError("linear interpolation supports scalar parameters only")
    if spec.kind == "poly":
        powers = _poly_powers(p, spec.degree)
        if spec.ridge == 0 and n_points < len(powers):
            raise DataError(
                f"degree-{spec.degree} polynomial has {len(powers)} coefficients "
                f"but only {n_points} training parameters; lower --poly-degree "
                "or add training parameters"
            )
        features = _poly_features(params, powers)
        gram = None
        if spec.ridge > 0:
            gram = features.T @ features + spec.ridge * np.eye(len(powers))
        return Sites(spec, params, *box, powers=powers, features=features, gram=gram)

    if has_duplicate_rows(params):
        raise DataError("duplicate parameters for an interpolating regressor")
    if spec.kind == "linear":
        order = np.argsort(params[:, 0])
        return Sites(spec, params, *box, order=order, xs=params[order, 0])
    if spec.kind == "nearest":
        return Sites(spec, params, *box)

    shape = spec.shape
    distances = cdist(params, params)
    if shape is None:
        shape = float(np.median(distances[~np.eye(n_points, dtype=bool)])) or 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        system = _rbf_kernel(distances / shape, spec.kind) + spec.ridge * np.eye(n_points)
    if not np.isfinite(system).all():
        raise DataError(
            f"rbf kernel system overflows at shape {shape:g}; raise --rbf-shape"
        )
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
        values = table[sites.order]
    elif kind == "nearest":
        values = table
    elif kind in ("rbf-gauss", "rbf-tps"):
        if sites.factor is not None:
            # C order, as the archive stores it: a loaded regressor then
            # reads its rows in the same summation order
            values = np.ascontiguousarray(cho_solve(sites.factor, table))
        else:
            values = np.linalg.lstsq(sites.system, table, rcond=None)[0]
    else:  # poly
        if sites.gram is not None:
            values = np.linalg.solve(sites.gram, sites.features.T @ table)
        else:
            values = np.linalg.lstsq(sites.features, table, rcond=None)[0]

    _record_fit()
    return FittedRegressor(sites, values, complex_output)


def _apply_policy(sites: Sites, rows: np.ndarray) -> np.ndarray:
    """The rows after the extrapolation policy, for a block with a row
    outside the hull box (a non-finite row fails the hull test too); one
    warning per clamped row."""
    if not np.isfinite(rows).all():
        raise DataError("query contains non-finite entries")
    lo, hi = sites.lo, sites.hi
    outside = ~((rows >= lo) & (rows <= hi)).all(axis=1)
    policy = sites.spec.extrapolation
    if policy == "allow":
        return rows
    if policy == "error":
        raise DataError(
            f"query {rows[outside][0].tolist()} outside the training hull "
            f"[{lo.tolist()}, {hi.tolist()}]"
        )
    clamped = np.clip(rows, lo, hi)
    for mu, row in zip(rows[outside], clamped[outside]):
        warnings.warn(
            f"query {mu.tolist()} clamped to hull box {row.tolist()}",
            ExtrapolationWarning,
            stacklevel=3,
        )
    return clamped


def stencil(sites: Sites, mu) -> np.ndarray:
    """Weights over the rows of any value table fitted on the sites: a
    length-m row for one p-vector mu, an n x m matrix for an n x p block.
    Checks mu, applies the extrapolation policy and locates every row,
    once for every regressor on the sites."""
    mu = np.asarray(mu, dtype=float)
    rows = mu if mu.ndim == 2 else mu.reshape(1, -1)
    p = sites.params.shape[1]
    if mu.ndim > 2 or rows.shape[1] != p:
        raise DataError(
            f"query must be a {p}-vector or an n x {p} block, got shape {mu.shape}"
        )
    if not ((rows >= sites.lo) & (rows <= sites.hi)).all():
        rows = _apply_policy(sites, rows)
    kind = sites.spec.kind

    if kind == "linear":
        xs, x = sites.xs, rows[:, 0]
        # the sorted rows bracketing x; the end segments extend past the hull
        left = xs[1:-1].searchsorted(x, side="right")
        weight = (x - xs[left]) / (xs[1:][left] - xs[left])
        weights = np.zeros((len(x), len(xs)))
        flat = weights.reshape(-1)  # a view: (row, left) is at row * m + left
        at = np.arange(0, flat.size, len(xs)) + left
        flat[at] = 1 - weight
        flat[1:][at] = weight
    elif kind == "nearest":
        distances = np.linalg.norm(sites.params - rows[:, None, :], axis=2)
        weights = np.eye(len(sites.params))[np.argmin(distances, axis=1)]
    elif kind in ("rbf-gauss", "rbf-tps"):
        weights = _rbf_kernel(cdist(rows, sites.params) / sites.shape, kind)
    else:
        weights = _poly_features(rows, sites.powers)
    return weights if mu.ndim == 2 else weights[0]


def combine(weights: np.ndarray, regressor: FittedRegressor) -> np.ndarray:
    """The regressor's value at the stencil's query, d or n x d; it must
    be fitted on the stencil's sites.  Summed by einsum, not BLAS, so a
    row reads the same bits alone as in a block."""
    row = np.einsum("...m,md->...d", weights, regressor.values)
    if regressor.complex_output:
        return row[..., : regressor.output_dim] + 1j * row[..., regressor.output_dim :]
    return row


def default_spec(param_dim: int, extrapolation: str = "clamp") -> RegressorSpec:
    """Package default: 1-D linear interpolation, gaussian rbf otherwise."""
    kind = "linear" if param_dim == 1 else "rbf-gauss"
    return RegressorSpec(kind=kind, extrapolation=extrapolation)
