"""Parameter-space regressors mapping mu vectors to coefficient vectors.

Every parametric surrogate delegates its mu-dependence to one of these
kinds: 1-D piecewise-linear interpolation, nearest neighbour, radial
basis functions (gaussian or thin-plate kernel), or ridge-regularized
polynomials.  A fitted regressor is the value table a query reads, in
the caller's dtype: complex values are solved as real and imaginary
float channels and stored as one complex table.

The work is split in stages by what each one depends on, so that many
regressors on the same training parameters share it:

- ``prepare(spec, params)`` depends on the training parameters only,
  and is the one place that branches on the kind.  It validates them,
  falls back to nearest for a single point, rejects duplicates and
  builds the hull box and the kind's ``solve`` (from a value table to
  a fresh table that a query reads: the linear row reorder, nearest's
  copy, the rbf Cholesky solve or ``lstsq``, the polynomial ridge
  ``solve`` or ``lstsq``) and ``weights`` (of that table's rows at
  query rows: ``1 - w`` and ``w`` at the bracketing rows, a single 1,
  the rbf kernel row or the polynomial feature row).
- ``fit(sites, values)`` checks one value table (N_p x d or an
  N_p-vector, finite, one row per training parameter) and returns the
  fitted table, ``sites.solve`` of it.  It copies the table only
  through the solve: a complex table is split into real and imaginary
  channels, any other table that is not contiguous float64 is converted,
  and the solve's fresh result is returned, so writing to the caller's
  table later changes nothing.
- ``stencil(sites, mu)`` depends on the query only.  It checks mu (a
  p-vector or an n x p block of real numbers), applies the extrapolation policy and
  returns ``sites.weights`` of the rows; ``combine(weights, table)``
  sums the weighted rows of any table fitted on the sites.

A surrogate that regresses several quantities over mu joins them into
one value table, so one fit trains them and one ``combine`` reads them.
Tables fitted one by one on the same sites are read together too: the
caller writes them side by side into the columns of one m x (d K)
table, and one ``combine`` reads all K at once.  The
latent-interpolation variants fit one table per instant into such a
table and read all N_t with one ``combine``.

``FitCount`` counts the fit() calls made inside a ``with`` block, in
that thread or task only, so a timed query can report how many
regressors it trained online (N_t for the latent-interpolation
variants, none for operator and triplet interpolation) while other
queries run concurrently.

SciPy loads only when rbf sites are prepared: the rbf branch of
``prepare`` imports its Cholesky solve and ``cdist`` for its closures.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from operator import methodcaller

import numpy as np

from .data import has_duplicate_rows, real_array
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
    ``lo``/``hi`` bound the hull box; ``solve`` maps an N_p x d value
    table to the table a query reads, ``weights`` checked n x p query
    rows to n x m weights over that table's rows.  ``powers`` (poly:
    monomial exponents) describes the prepared kind."""

    spec: RegressorSpec
    params: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]
    weights: Callable[[np.ndarray], np.ndarray]
    powers: list | None = None


def _normalize_params(params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.ndim == 1:
        params = params[:, None]
    if params.ndim != 2 or params.shape[0] < 1:
        raise DataError("parameters must form an N_p x p array")
    if not np.all(np.isfinite(params)):
        raise DataError("parameters contain non-finite entries")
    return params


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
    """Validate the training parameters and build the kind's ``solve``
    and ``weights`` for every ``fit`` and ``stencil`` on them; no fitted
    value enters.  A single point supports only a constant map, so every
    kind falls back to nearest there; the returned sites carry the spec
    in effect."""
    params = _normalize_params(params)
    n_points, p = params.shape
    if n_points == 1 and spec.kind != "nearest":
        spec = RegressorSpec(kind="nearest", extrapolation=spec.extrapolation)
    make_sites = partial(Sites, spec, params, params.min(axis=0), params.max(axis=0))

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
        if spec.ridge > 0:
            gram = features.T @ features + spec.ridge * np.eye(len(powers))
            def solve(table):
                return np.linalg.solve(gram, features.T @ table)
        else:
            def solve(table):
                return np.linalg.lstsq(features, table, rcond=None)[0]

        return make_sites(solve, partial(_poly_features, powers=powers), powers=powers)

    if has_duplicate_rows(params):
        raise DataError("duplicate parameters for an interpolating regressor")
    if spec.kind == "linear":
        order = np.argsort(params[:, 0])
        xs = params[order, 0]

        def weights(rows):
            x = rows[:, 0]
            # the sorted rows bracketing x; the end segments extend past the hull
            left = xs[1:-1].searchsorted(x, side="right")
            weight = (x - xs[left]) / (xs[1:][left] - xs[left])
            out = np.zeros((len(x), len(xs)))
            flat = out.reshape(-1)  # a view: (row, left) is at row * m + left
            at = np.arange(0, flat.size, len(xs)) + left
            flat[at] = 1 - weight
            flat[1:][at] = weight
            return out

        # the solves of linear and nearest are C callables that return a
        # fresh table (linear's in C order): a latent query makes N_t
        # fits, and a Python frame each would show
        return make_sites(methodcaller("take", order, axis=0), weights)
    if spec.kind == "nearest":
        def weights(rows):
            distances = np.linalg.norm(params - rows[:, None, :], axis=2)
            return np.eye(n_points)[np.argmin(distances, axis=1)]

        return make_sites(np.array, weights)

    from scipy.linalg import cho_factor, cho_solve
    from scipy.spatial.distance import cdist

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
        def solve(table):
            return np.linalg.lstsq(system, table, rcond=None)[0]
    else:
        def solve(table):
            # fit has checked the table and prepare the factor, so no
            # second finiteness pass (a third of a small rbf fit).  C
            # order, as the archive stores it: a loaded regressor then
            # reads its rows in the same summation order
            return np.ascontiguousarray(cho_solve(factor, table, check_finite=False))

    def weights(rows):
        return _rbf_kernel(cdist(rows, params) / shape, spec.kind)

    return make_sites(solve, weights)


def fit(sites: Sites, values) -> np.ndarray:
    """The table a query reads, trained on the values at prepared sites,
    one value row per training parameter; complex values give a complex
    table.

    Interpolating kinds (linear, nearest, rbf with zero ridge) reproduce
    their training values on prediction; the polynomial kind solves a
    ridge-regularized least-squares problem.
    """
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    if values.ndim != 2:
        raise DataError("values must form an N_p x d array")
    # a count, not .all(): the same test at half the cost on a small table
    if np.count_nonzero(np.isfinite(values)) != values.size:
        raise DataError("values contain non-finite entries")
    if len(values) != len(sites.params):
        raise DataError(f"{len(sites.params)} parameters but {len(values)} value rows")
    _record_fit()
    complex_values = values.dtype.kind == "c"
    if complex_values:
        values = np.hstack([values.real, values.imag])
    # every solve returns a fresh table, so a contiguous float table needs
    # no copy of its own; any other is converted, keeping its axis order
    if values.dtype != np.float64 or not (values.flags.c_contiguous or values.flags.f_contiguous):
        values = values.astype(float)
    solved = sites.solve(values)
    if not complex_values:
        return solved
    # each channel into its own part, so the signs of zeros are kept
    d = solved.shape[1] // 2
    table = np.empty((len(solved), d), complex)
    table.real = solved[:, :d]
    table.imag = solved[:, d:]
    return table


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
    Checks mu, applies the extrapolation policy and weighs the rows with
    ``sites.weights``, once for every regressor on the sites."""
    mu = real_array(mu, "query")
    rows = mu if mu.ndim == 2 else mu.reshape(1, -1)
    p = sites.params.shape[1]
    if mu.ndim > 2 or rows.shape[1] != p:
        raise DataError(
            f"query must be a {p}-vector or an n x {p} block, got shape {mu.shape}"
        )
    if not ((rows >= sites.lo) & (rows <= sites.hi)).all():
        rows = _apply_policy(sites, rows)
    weights = sites.weights(rows)
    return weights if mu.ndim == 2 else weights[0]


def combine(weights: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The fitted table's value at the stencil's query, d or n x d; it
    must be fitted on the stencil's sites.  A complex table is summed as
    its interleaved real and imaginary parts.  Summed by einsum, not
    BLAS, so a row reads the same bits alone as in a block, and a column
    the same bits as in a wider table."""
    floats = table.view(float) if table.dtype.kind == "c" else table
    row = np.einsum("...m,mj->...j", weights, floats)
    return row if floats is table else row.view(complex)


def default_spec(param_dim: int) -> RegressorSpec:
    """Package default: 1-D linear interpolation, gaussian rbf otherwise."""
    return RegressorSpec(kind="linear" if param_dim == 1 else "rbf-gauss")
