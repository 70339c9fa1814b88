"""Tests for the parameter-space regressors."""

import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from pdmd.errors import DataError, ExtrapolationWarning
from pdmd.regression import (
    KINDS,
    FitCount,
    RegressorSpec,
    combine,
    default_spec,
    fit,
    join,
    prepare,
    stencil,
)


def fitted(sites, values):
    """The sites and the table fitted on them, as ``predict`` reads them."""
    return sites, fit(sites, values)


def predict(regressor, mu):
    """The fitted table's value at mu, read through the sites it was
    fitted on."""
    sites, table = regressor
    return combine(stencil(sites, mu), table)


class TestLinearInterp:
    def test_midpoint(self):
        reg = fitted(prepare(RegressorSpec("linear"), [[0.0], [1.0]]), [[0.0], [2.0]])
        assert_allclose(predict(reg, [0.5]), [1.0])

    def test_training_points_reproduced(self):
        xs = np.array([[0.0], [0.3], [1.0], [2.5]])
        ys = np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0], [-2.0, 4.0]])
        reg = fitted(prepare(RegressorSpec("linear"), xs), ys)
        for x, y in zip(xs, ys):
            assert_allclose(predict(reg, x), y, atol=1e-12)

    def test_unsorted_input_handled(self):
        sites = prepare(RegressorSpec("linear"), [[2.0], [0.0], [1.0]])
        reg = fitted(sites, [[4.0], [0.0], [2.0]])
        assert_allclose(predict(reg, [1.5]), [3.0])

    def test_clamp_beyond_hull(self):
        reg = fitted(prepare(RegressorSpec("linear"), [[0.0], [1.0]]), [[0.0], [2.0]])
        with pytest.warns(ExtrapolationWarning):
            assert_allclose(predict(reg, [3.0]), [2.0])

    def test_error_policy(self):
        reg = fitted(
            prepare(RegressorSpec("linear", extrapolation="error"), [[0.0], [1.0]]),
            [[0.0], [2.0]],
        )
        with pytest.raises(DataError, match="hull"):
            predict(reg, [1.5])

    def test_allow_policy_extends_segments(self):
        reg = fitted(
            prepare(RegressorSpec("linear", extrapolation="allow"), [[0.0], [1.0]]),
            [[0.0], [2.0]],
        )
        assert_allclose(predict(reg, [2.0]), [4.0])
        assert_allclose(predict(reg, [-1.0]), [-2.0])

    def test_affine_input_equivariance(self):
        xs = np.array([[0.1], [0.4], [0.9], [1.7]])
        ys = np.random.default_rng(0).standard_normal((4, 3))
        reg = fitted(prepare(RegressorSpec("linear"), xs), ys)
        scaled = fitted(prepare(RegressorSpec("linear"), 2.0 * xs + 5.0), ys)
        for q in (0.2, 0.55, 1.3):
            assert_allclose(
                predict(reg, [q]), predict(scaled, [2.0 * q + 5.0]), atol=1e-12
            )

    def test_vector_params_rejected(self):
        with pytest.raises(DataError, match="scalar"):
            fit(
                prepare(RegressorSpec("linear"), [[0.0, 1.0], [1.0, 2.0]]),
                [[1.0], [2.0]],
            )

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            fit(prepare(RegressorSpec("linear"), [[1.0], [1.0]]), [[0.0], [1.0]])


class TestNearest:
    def test_closest_sample_wins(self):
        reg = fitted(prepare(RegressorSpec("nearest"), [[0.0], [1.0]]), [[10.0], [20.0]])
        assert_allclose(predict(reg, [0.4]), [10.0])
        assert_allclose(predict(reg, [0.6]), [20.0])

    def test_training_point_exact(self):
        params = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        values = np.array([[1.0], [2.0], [3.0]])
        reg = fitted(prepare(RegressorSpec("nearest"), params), values)
        for mu, val in zip(params, values):
            assert_allclose(predict(reg, mu), val)


class TestRbf:
    def test_sine_samples(self):
        xs = np.linspace(0.0, np.pi, 5)[:, None]
        reg = fitted(prepare(RegressorSpec("rbf-gauss"), xs), np.sin(xs))
        mids = 0.5 * (xs[:-1] + xs[1:])
        for mid in mids:
            assert abs(predict(reg, mid)[0] - np.sin(mid[0])) <= 1e-2

    def test_interpolation_property_both_kernels(self):
        rng = np.random.default_rng(1)
        params = rng.random((6, 2))
        values = rng.standard_normal((6, 3))
        for kind in ("rbf-gauss", "rbf-tps"):
            reg = fitted(prepare(RegressorSpec(kind), params), values)
            for mu, val in zip(params, values):
                assert_allclose(predict(reg, mu), val, atol=1e-8)

    def test_explicit_shape_honored(self):
        xs = np.linspace(0, 1, 4)[:, None]
        ys = np.cos(xs)
        wide = fitted(prepare(RegressorSpec("rbf-gauss", shape=10.0), xs), ys)
        narrow = fitted(prepare(RegressorSpec("rbf-gauss", shape=0.1), xs), ys)
        q = np.array([0.35])
        assert predict(wide, q)[0] != pytest.approx(predict(narrow, q)[0], abs=1e-12)

    def test_ill_conditioned_telemetry(self):
        xs = np.array([[0.0], [1e-9], [1.0]])
        ys = np.array([[0.0], [0.0], [1.0]])
        with pytest.warns(Warning, match="condition"):
            fit(prepare(RegressorSpec("rbf-gauss", shape=100.0), xs), ys)

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            RegressorSpec("rbf-gauss", shape=-1.0)

    def test_overflowing_kernel_rejected(self):
        # the scaled distances square to inf in the thin-plate kernel
        xs = np.linspace(0, 1, 4)[:, None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="raise --rbf-shape"):
                prepare(RegressorSpec("rbf-tps", shape=1e-300), xs)


INTERPOLATING_VECTOR_KINDS = ("nearest", "rbf-gauss", "rbf-tps")


class TestDuplicates:
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("kind", INTERPOLATING_VECTOR_KINDS)
    def test_rejected(self, kind, p):
        # the repeated row is not adjacent to its twin in input order
        params = np.array([[0.3, 1.0], [0.0, 2.0], [0.7, 0.5], [0.3, 1.0]])[:, :p]
        values = np.arange(4.0)[:, None]
        with pytest.raises(DataError, match="duplicate parameters"):
            fit(prepare(RegressorSpec(kind), params), values)

    @pytest.mark.parametrize("kind", INTERPOLATING_VECTOR_KINDS)
    def test_signed_zero_rows_rejected(self, kind):
        params = np.array([[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]])
        with pytest.raises(DataError, match="duplicate parameters"):
            fit(prepare(RegressorSpec(kind), params), np.arange(3.0)[:, None])

    @pytest.mark.parametrize("kind", INTERPOLATING_VECTOR_KINDS)
    def test_rows_sharing_a_coordinate_accepted(self, kind):
        params = np.array([[0.5, 0.0], [0.5, 1.0], [0.0, 1.0], [0.5, 2.0]])
        values = np.arange(4.0)[:, None]
        reg = fitted(prepare(RegressorSpec(kind), params), values)
        for mu, val in zip(params, values):
            assert_allclose(predict(reg, mu), val, atol=1e-8)


class TestPolynomial:
    def test_exact_quadratic(self):
        xs = np.linspace(-1, 2, 5)[:, None]
        ys = 3.0 * xs**2 - 2.0 * xs + 0.5
        spec = RegressorSpec("poly", degree=2, extrapolation="allow")
        reg = fitted(prepare(spec, xs), ys)
        for q in (-0.7, 0.33, 1.9, 2.0):
            assert_allclose(predict(reg, [q]), [3 * q**2 - 2 * q + 0.5], atol=1e-10)

    def test_multivariate_quadratic(self):
        rng = np.random.default_rng(2)
        params = rng.random((12, 2))
        target = (
            1.0
            + 2.0 * params[:, 0]
            - params[:, 1]
            + 0.5 * params[:, 0] * params[:, 1]
            + params[:, 1] ** 2
        )[:, None]
        reg = fitted(prepare(RegressorSpec("poly", degree=2), params), target)
        q = np.array([0.4, 0.6])
        expected = 1.0 + 2.0 * 0.4 - 0.6 + 0.5 * 0.4 * 0.6 + 0.36
        assert_allclose(predict(reg, q), [expected], atol=1e-10)

    def test_underdetermined_without_ridge(self):
        with pytest.raises(DataError, match="lower --poly-degree or add training"):
            fit(
                prepare(RegressorSpec("poly", degree=3), [[0.0], [1.0]]),
                [[1.0], [2.0]],
            )

    def test_underdetermined_with_ridge_allowed(self):
        reg = fitted(
            prepare(RegressorSpec("poly", degree=3, ridge=1e-6), [[0.0], [1.0]]),
            [[1.0], [2.0]],
        )
        assert np.isfinite(predict(reg, [0.5])).all()


class TestComplexTargets:
    def test_round_trip(self):
        xs = np.linspace(0, 1, 4)[:, None]
        ys = np.exp(1j * np.pi * xs) * (1.0 + xs)
        reg = fitted(prepare(RegressorSpec("linear"), xs), ys)
        assert reg[1].dtype == complex
        assert reg[1].shape == (4, 1)
        for x, y in zip(xs, ys):
            got = predict(reg, x)
            assert np.iscomplexobj(got)
            assert_allclose(got, y, atol=1e-12)

    def test_linearity_of_channels(self):
        xs = np.array([[0.0], [1.0]])
        ys = np.array([[1.0 + 2.0j], [3.0 - 4.0j]])
        reg = fitted(prepare(RegressorSpec("linear"), xs), ys)
        assert_allclose(predict(reg, [0.5]), [2.0 - 1.0j])

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_is_the_fit_of_its_parts(self, kind):
        # the parts are fitted side by side as one real table: a least-
        # squares solve (rbf-tps, poly at zero ridge) need not give a
        # column the same bits in a narrower table on every BLAS kernel
        rng = np.random.default_rng(6)
        params = rng.uniform(size=(7, 1 if kind == "linear" else 2))
        values = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        values[2, 1] = complex(-0.0, -0.0)
        sites = prepare(RegressorSpec(kind, degree=1), params)
        table = fit(sites, values)
        parts = fit(sites, np.hstack([values.real, values.imag]))
        assert table.dtype == complex and table.flags.c_contiguous
        assert np.array_equal(table.real, parts[:, :3])
        assert np.array_equal(table.imag, parts[:, 3:])
        assert np.array_equal(np.signbit(table.real), np.signbit(parts[:, :3]))
        assert np.array_equal(np.signbit(table.imag), np.signbit(parts[:, 3:]))


class TestJoin:
    @pytest.mark.parametrize("kind", ["linear", "nearest", "rbf-tps", "poly"])
    @pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
    def test_one_read_matches_each_part_bit_for_bit(self, kind, complex_values):
        xs = np.linspace(0.0, 1.0, 11)[:, None]
        rng = np.random.default_rng(4)
        values = rng.standard_normal((5, 11, 3))
        if complex_values:
            values = values + 1j * rng.standard_normal(values.shape)
        sites = prepare(RegressorSpec(kind, degree=3, ridge=1e-3), xs)
        tables = [fit(sites, table) for table in values]
        joined = join(tables)
        assert joined.shape == tables[0].shape + (len(tables),)
        assert joined.dtype == tables[0].dtype
        assert np.array_equal(join(iter(tables)), joined)
        for mu in ([0.37], [[0.05], [0.37], [0.99]]):
            weights = stencil(sites, mu)
            got = combine(weights, joined)
            want = np.stack([combine(weights, table) for table in tables], axis=-1)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_needs_one_shape_and_dtype(self):
        sites = prepare(RegressorSpec("linear"), [[0.0], [1.0]])
        real = fit(sites, [[1.0], [2.0]])
        with pytest.raises(DataError, match="share"):
            join([real, fit(sites, [[1.0j], [2.0]])])
        with pytest.raises(DataError, match="share"):
            join(fit(sites, [[1.0], [v]]) for v in (2.0, 3.0j))
        with pytest.raises(DataError, match="share"):
            join([real, fit(sites, [[1.0, 0.0], [2.0, 0.0]])])


class TestFitCounter:
    def test_counts_and_resets(self):
        xs = [[0.0], [1.0]]
        with FitCount() as fits:
            fit(prepare(RegressorSpec("linear"), xs), [[1.0], [2.0]])
            fit(prepare(RegressorSpec("nearest"), xs), [[1.0], [2.0]])
        assert fits.count == 2
        with FitCount() as fresh:
            pass
        assert fresh.count == 0

    def test_predict_does_not_count(self):
        with FitCount() as fits:
            reg = fitted(prepare(RegressorSpec("linear"), [[0.0], [1.0]]), [[1.0], [2.0]])
            before = fits.count
            predict(reg, [0.5])
        assert fits.count == before

    def test_nested_blocks_and_fits_outside(self):
        xs, ys = [[0.0], [1.0]], [[1.0], [2.0]]
        with FitCount() as outer:
            fit(prepare(RegressorSpec("linear"), xs), ys)
            with FitCount() as inner:
                fit(prepare(RegressorSpec("linear"), xs), ys)
            fit(prepare(RegressorSpec("linear"), xs), ys)
        fit(prepare(RegressorSpec("linear"), xs), ys)
        assert (outer.count, inner.count) == (3, 1)

    def test_other_threads_not_counted(self):
        xs, ys = [[0.0], [1.0]], [[1.0], [2.0]]
        worker = threading.Thread(
            target=lambda: [
                fit(prepare(RegressorSpec("linear"), xs), ys) for _ in range(5)
            ]
        )
        with FitCount() as fits:
            fit(prepare(RegressorSpec("linear"), xs), ys)
            worker.start()
            worker.join()
        assert fits.count == 1


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DataError):
            RegressorSpec("spline")

    def test_unknown_policy(self):
        with pytest.raises(DataError):
            RegressorSpec("linear", extrapolation="wrap")

    def test_default_spec_by_dimension(self):
        assert default_spec(1).kind == "linear"
        assert default_spec(2).kind == "rbf-gauss"

    def test_value_row_mismatch(self):
        with pytest.raises(DataError):
            fit(prepare(RegressorSpec("nearest"), [[0.0], [1.0]]), [[1.0]])


class TestFitValues:
    """``fit`` checks each value table once and copies it only through the
    kind's solve, so the regressor never shares the caller's memory."""

    PARAMS = {"linear": [[0.3], [0.0], [1.0], [0.6]]}
    SITES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("part", ["real", "complex-real", "complex-imag"])
    def test_non_finite_rejected(self, kind, bad, part):
        sites = prepare(RegressorSpec(kind, degree=1), self.PARAMS.get(kind, self.SITES))
        values = np.arange(8.0).reshape(4, 2)
        if part != "real":
            values = values + 1j * values[::-1]
        if part == "complex-imag":
            values[2, 1] = complex(values[2, 1].real, bad)
        else:
            values[2, 1] = bad
        with pytest.raises(DataError, match="values contain non-finite entries"):
            fit(sites, values)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("layout", ["C", "F", "vector"])
    def test_table_not_aliased(self, kind, layout):
        sites = prepare(RegressorSpec(kind, degree=1), self.PARAMS.get(kind, self.SITES))
        values = np.arange(1.0, 9.0).reshape(4, 2)
        values = {"C": values, "F": np.asfortranarray(values), "vector": values[:, 0].copy()}[layout]
        table = fit(sites, values)
        kept = table.copy()
        values[...] = -1.0
        assert np.array_equal(table, kept)
        assert not np.shares_memory(table, values)


class TestStencilChecks:
    SITES = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "mu", [[0.5], [[0.1, 0.2, 0.3]], np.zeros((1, 1, 2))], ids=["short", "wide-block", "3-d"]
    )
    def test_wrong_shape_rejected(self, mu):
        sites = prepare(RegressorSpec("rbf-gauss"), self.SITES)
        with pytest.raises(DataError, match="query must be a 2-vector or an n x 2 block"):
            stencil(sites, mu)

    @pytest.mark.parametrize("policy", ["clamp", "allow", "error"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, policy, bad):
        sites = prepare(RegressorSpec("nearest", extrapolation=policy), self.SITES)
        with pytest.raises(DataError, match="non-finite"):
            stencil(sites, [[0.5, 0.5], [0.2, bad]])


def reference_table(sites, values):
    """The table the per-kind ``fit`` body made before each kind's solve
    was built in ``prepare``, a complex one as one complex table of its
    real and imaginary channels: the reference the kind-free ``fit`` must
    match bit for bit, C order included."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        d = values.shape[1]
        channels = reference_table(sites, np.hstack([values.real, values.imag]))
        table = np.empty((len(channels), d), complex)
        table.real, table.imag = channels[:, :d], channels[:, d:]
        return table
    table = values.astype(float)
    spec, params = sites.spec, sites.params
    if spec.kind == "linear":
        return table[np.argsort(params[:, 0])]
    if spec.kind == "nearest":
        return table
    if spec.kind == "poly":
        features = reference_features(params, sites.powers)
        if spec.ridge > 0:
            gram = features.T @ features + spec.ridge * np.eye(len(sites.powers))
            return np.linalg.solve(gram, features.T @ table)
        return np.linalg.lstsq(features, table, rcond=None)[0]
    system = reference_kernel(cdist(params, params) / reference_shape(sites), spec.kind)
    system = system + spec.ridge * np.eye(len(params))
    try:
        factor = cho_factor(system)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(system, table, rcond=None)[0]
    return np.ascontiguousarray(cho_solve(factor, table))


def reference_weights(sites, rows):
    """The per-kind ``stencil`` body's weights at policy-applied rows."""
    kind = sites.spec.kind
    if kind == "linear":
        xs, x = np.sort(sites.params[:, 0]), rows[:, 0]
        left = xs[1:-1].searchsorted(x, side="right")
        weight = (x - xs[left]) / (xs[1:][left] - xs[left])
        weights = np.zeros((len(x), len(xs)))
        flat = weights.reshape(-1)
        at = np.arange(0, flat.size, len(xs)) + left
        flat[at] = 1 - weight
        flat[1:][at] = weight
        return weights
    if kind == "nearest":
        distances = np.linalg.norm(sites.params - rows[:, None, :], axis=2)
        return np.eye(len(sites.params))[np.argmin(distances, axis=1)]
    if kind in ("rbf-gauss", "rbf-tps"):
        return reference_kernel(cdist(rows, sites.params) / reference_shape(sites), kind)
    return reference_features(rows, sites.powers)


def reference_shape(sites):
    """The rbf distance scale: the spec's, else the median pairwise
    distance between the training parameters (1 if that is 0)."""
    if sites.spec.shape is not None:
        return sites.spec.shape
    params = sites.params
    distances = cdist(params, params)[~np.eye(len(params), dtype=bool)]
    return float(np.median(distances)) or 1.0


def reference_features(params, powers):
    return np.column_stack([np.prod(params**np.asarray(exp), axis=1) for exp in powers])


def reference_kernel(distances, kind):
    if kind == "rbf-gauss":
        return np.exp(-(distances**2))
    scaled = np.where(distances > 0, distances, 1.0)
    return np.where(distances > 0, distances**2 * np.log(scaled), 0.0)


# rbf-gauss solves through its Cholesky factor; the thin-plate kernel has
# a zero diagonal, is never positive definite and takes the lstsq fallback
REFERENCE_SPECS = {
    "linear": RegressorSpec("linear"),
    "nearest": RegressorSpec("nearest"),
    "rbf-gauss": RegressorSpec("rbf-gauss"),
    "rbf-tps": RegressorSpec("rbf-tps"),
    "poly-ridge": RegressorSpec("poly", degree=3, ridge=1e-3),
    "poly": RegressorSpec("poly", degree=2),
}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
@pytest.mark.parametrize("n_params", [7, 1])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_kind_free_fit_and_stencil_match_per_kind_reference(name, n_params, complex_values):
    spec = REFERENCE_SPECS[name]
    rng = np.random.default_rng(11)
    params = rng.uniform(size=(n_params, 1 if spec.kind == "linear" else 2))  # unsorted
    values = rng.standard_normal((n_params, 3))
    if complex_values:
        values = values + 1j * rng.standard_normal(values.shape)
    sites = prepare(spec, params)
    assert sites.spec.kind == ("nearest" if n_params == 1 else spec.kind)

    # the same values in C order, in Fortran order and as a strided view
    big = np.zeros((n_params, 21), values.dtype)
    big[:, ::7] = values
    for table in (values, np.asfortranarray(values), big[:, ::7]):
        got = fit(sites, table)
        want = reference_table(sites, table)
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous

    inside = params.mean(axis=0)
    assert np.array_equal(stencil(sites, inside), reference_weights(sites, inside[None])[0])
    block = np.stack([params[-1], inside, params.max(axis=0) + 0.5])  # the last row clamped
    with pytest.warns(ExtrapolationWarning):
        weights = stencil(sites, block)
    assert np.array_equal(weights, reference_weights(sites, np.clip(block, sites.lo, sites.hi)))
