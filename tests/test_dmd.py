"""Tests for basic dynamic mode decomposition."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pdmd import dmd
from pdmd.data import SnapshotMatrix, TimeGrid
from pdmd.dmd import (
    DmdModel,
    _check_imaginary,
    evaluate,
    evaluate_stack,
    fit_dmd,
    reconstruct,
)
from pdmd.errors import DataError, ImaginaryResidualWarning, NumericalError
from pdmd.linalg import eig


def linear_trajectory(op, x0, n_steps, dt=1.0, t0=0.0):
    """Roll out x_{k+1} = op x_k and wrap as a SnapshotMatrix."""
    op = np.asarray(op, dtype=float)
    states = np.empty((op.shape[0], n_steps))
    states[:, 0] = x0
    for k in range(1, n_steps):
        states[:, k] = op @ states[:, k - 1]
    grid = TimeGrid(t0 + dt * np.arange(n_steps))
    return SnapshotMatrix(states, grid)


def exact_operator(x):
    """Full one-step operator ``after @ pinv(before)``: the oracle the
    reduced path is checked against."""
    return x.state[:, 1:] @ np.linalg.pinv(x.state[:, :-1])


def rotation_decay(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


class TestFit:
    def test_diagonal_spectrum(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 20)
        model = fit_dmd(x, rank=2)
        assert_allclose(model.eigenvalues, [0.9, 0.5], atol=1e-10)

    def test_constant_trajectory(self):
        grid = TimeGrid(np.arange(10.0))
        x = SnapshotMatrix(np.tile([[2.0], [1.0]], (1, 10)), grid)
        model = fit_dmd(x, rank=1)
        assert_allclose(model.eigenvalues, [1.0], atol=1e-12)

    def test_rotation_decay_spectrum(self):
        op = rotation_decay(0.95, 0.3)
        x = linear_trajectory(op, [1.0, 0.0], 50)
        model = fit_dmd(x, rank=2)
        expected = 0.95 * np.exp(1j * np.array([0.3, -0.3]))
        assert_allclose(model.eigenvalues, expected, atol=1e-8)

    def test_spectral_consistency_with_reduced_op(self):
        rng = np.random.default_rng(4)
        op = rotation_decay(0.9, 0.7)
        x = linear_trajectory(op, rng.standard_normal(2), 30)
        model = fit_dmd(x, rank=2)
        assert_allclose(eig(model.reduced_op).eigenvalues, model.eigenvalues, atol=1e-10)

    def test_eig_residual_invariant(self):
        x = linear_trajectory(np.diag([0.8, 0.3]), [1.0, 2.0], 15)
        model = fit_dmd(x, rank=2)
        eigvecs = eig(model.reduced_op).eigenvectors
        res = model.reduced_op @ eigvecs - eigvecs * model.eigenvalues
        assert np.linalg.norm(res) < 1e-8

    def test_nonuniform_grid_rejected(self):
        grid = TimeGrid(np.array([0.0, 1.0, 3.0, 4.0]))
        x = SnapshotMatrix(np.random.default_rng(0).standard_normal((2, 4)), grid)
        with pytest.raises(DataError, match="uniform"):
            fit_dmd(x, rank=1)

    def test_rank_bounds(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 6)
        with pytest.raises(DataError):
            fit_dmd(x, rank=0)
        with pytest.raises(DataError):
            fit_dmd(x, rank=3)

    def test_degenerate_rank_rejected(self):
        # rank-1 data cannot support a rank-2 fit
        grid = TimeGrid(np.arange(8.0))
        column = np.array([[1.0], [2.0]])
        x = SnapshotMatrix(column * (0.9 ** np.arange(8.0)), grid)
        with pytest.raises(NumericalError, match="cutoff"):
            fit_dmd(x, rank=2)


class TestAdvance:
    """Advancing a fitted model along its lattice with ``evaluate``."""

    def test_first_step_matches_initial_condition(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 20)
        model = fit_dmd(x, rank=2)
        assert_allclose(evaluate(model, [0])[:, 0], x.state[:, 0], atol=1e-10)

    def test_fixed_point(self):
        model = DmdModel(
            reduced_op=np.array([[1.0]]),
            eigenvalues=np.array([1.0 + 0.0j]),
            modes=np.array([[1.0], [0.0]], dtype=complex),
            amplitudes=np.array([1.0 + 0.0j]),
            dt=1.0,
            t0=0.0,
            proj_basis=np.array([[1.0], [0.0]]),
        )
        states = evaluate(model, [0, 4, 49])
        assert_allclose(states, np.tile([[1.0], [0.0]], 3), atol=1e-14)

    def test_matches_matrix_power(self):
        op = np.diag([0.9, 0.5])
        x = linear_trajectory(op, [1.0, 1.0], 20)
        model = fit_dmd(x, rank=2)
        expected = np.linalg.matrix_power(op, 20) @ x.state[:, 0]
        assert_allclose(evaluate(model, [20])[:, 0], expected, atol=1e-8)

    def test_semigroup_on_lattice(self):
        op = rotation_decay(0.97, 0.4)
        x = linear_trajectory(op, [1.0, -0.5], 40)
        model = fit_dmd(x, rank=2)
        for k in (0, 2, 9):
            now, after = evaluate(model, [k, k + 1]).T
            assert_allclose(after, op @ now, atol=1e-8)

    def test_step_index_guard(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 10)
        model = fit_dmd(x, rank=2)
        with pytest.raises(DataError, match=">= 0"):
            evaluate(model, [3, -1])
        with pytest.raises(DataError, match="integers"):
            evaluate(model, [0.5])

    def test_any_order_and_count(self):
        op = rotation_decay(0.97, 0.4)
        x = linear_trajectory(op, [1.0, -0.5], 40)
        model = fit_dmd(x, rank=2)
        full = evaluate(model, np.arange(50))
        assert_allclose(evaluate(model, [45, 3, 3, 0]), full[:, [45, 3, 3, 0]], rtol=1e-13)
        assert_allclose(evaluate(model, 7), full[:, [7]], rtol=1e-13)


    def test_overflowing_powers_raise(self):
        model = DmdModel(
            reduced_op=np.diag([1e3, 0.5]),
            eigenvalues=np.array([1e3 + 0j, 0.5 + 0j]),
            modes=np.eye(2, dtype=complex),
            amplitudes=np.array([1.0 + 0j, 1.0 + 0j]),
            dt=1.0,
            t0=0.0,
            proj_basis=np.eye(2),
        )
        assert_allclose(evaluate(model, [100])[:, 0], [1e300, 0.5**100], rtol=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow at lattice step 103"):
                evaluate(model, [5, 200, 103, 0])


def assert_same_bits(actual, expected):
    """Equal as bit patterns, so that signed zeros and NaN payloads count."""
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def spectrum_cases():
    """Eigenvalues on and near the unit circle and at extreme moduli, at
    the arguments where a complex log changes branch or vanishes: 0, +-pi
    (exact negative reals, either sign of zero) and +-pi/2, in conjugate
    pairs."""
    eps = np.finfo(float).eps
    moduli = [1.0, 1 + eps, 1 - eps / 2, 1e-300, 5e-324, 1e300, 0.97, 1.03]
    values = []
    for m in moduli:
        values += [complex(m, 0.0), complex(-m, 0.0), complex(-m, -0.0), complex(0.0, m)]
        values += [m * np.exp(1j * angle) for angle in (0.3, 2.5, np.pi / 2, np.pi)]
    values = np.array(values)
    return np.concatenate([values, np.conj(values)])


class TestPowers:
    """``_powers`` takes one complex log per eigenvalue for steps >= 100;
    NumPy's ``**`` is the reference, bit for bit."""

    @pytest.mark.parametrize(
        "steps",
        [
            np.arange(200),
            [100, 99, 250, 3, 100, 99, 0, 250],
            np.array([], dtype=np.int64),
            [2**40, 2**31 + 1, 10**6, 100],
            [5, 17, 99, 0],
        ],
        ids=["0-199", "unsorted-repeated", "empty", "large", "small-only"],
    )
    def test_equals_numpy_power(self, steps):
        steps = np.asarray(steps, dtype=np.int64)
        eigenvalues = spectrum_cases()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert_same_bits(dmd._powers(eigenvalues, steps), eigenvalues[None, :] ** steps[:, None])

    def test_zero_and_non_finite_eigenvalues_take_the_plain_power(self):
        nan = float("nan")
        eigenvalues = np.array([0j, complex(-0.0, 0.0), complex(nan, 0.0), complex(0.0, nan),
                                complex(np.inf, 0.0), complex(1.0, np.inf), 0.9 + 0.1j])
        steps = np.array([0, 1, 99, 100, 101, 250])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            assert_same_bits(dmd._powers(eigenvalues, steps), eigenvalues[None, :] ** steps[:, None])


def spectral_model(eigenvalues, modes, amplitudes):
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    return DmdModel(
        reduced_op=np.diag(eigenvalues.real),
        eigenvalues=eigenvalues,
        modes=np.asarray(modes, dtype=complex),
        amplitudes=np.asarray(amplitudes, dtype=complex),
        dt=1.0,
        t0=0.0,
        proj_basis=np.eye(len(eigenvalues)),
    )


class TestEvaluateStack:
    """``evaluate_stack`` gives each model's ``evaluate`` bit for bit, with
    one steps check, one power call and one batched product."""

    def test_each_model_bit_for_bit(self):
        members = [
            fit_dmd(linear_trajectory(rotation_decay(radius, angle), [1.0, -0.5], 40), rank=2)
            for radius, angle in ((0.97, 0.4), (1.01, 0.2), (0.9, 1.3))
        ]
        steps = np.array([0, 250, 99, 100, 7, 101, 100, 3])
        stacked = evaluate_stack(members, steps)
        assert stacked.shape == (3, 2, steps.size)
        for member, states in zip(members, stacked):
            with np.errstate(over="ignore", invalid="ignore"):
                powers = member.eigenvalues[None, :] ** steps[:, None]
                reference = ((member.modes * member.amplitudes) @ powers.T).real
            assert_same_bits(states, reference)
            assert_same_bits(states, evaluate(member, steps))

    def test_overflow_names_the_first_overflowing_member(self):
        # the last member overflows sooner, but the first to overflow in
        # member order is the one named, at its own first step
        members = [
            spectral_model([0.5, 0.9], np.eye(2), [1.0, 1.0]),
            spectral_model([1e3, 0.5], np.eye(2), [1.0, 1.0]),
            spectral_model([1e7, 0.5], np.eye(2), [1.0, 1.0]),
        ]
        steps = [5, 200, 103, 0, 60]
        with pytest.raises(NumericalError) as single:
            evaluate(members[1], steps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError) as stacked:
                evaluate_stack(members, steps)
        assert "overflow at lattice step 103" in str(stacked.value)
        assert str(stacked.value) == str(single.value)

    def test_imaginary_residual_warns_once_per_member_in_order(self):
        # a lone complex eigenvalue (no conjugate) leaves an imaginary part
        members = [
            spectral_model([0.9 * np.exp(0.3j)], [[1.0], [0.5]], [1.0]),
            spectral_model([0.5], [[1.0], [2.0]], [1.0]),
            spectral_model([0.8 * np.exp(1.1j)], [[2.0], [1.0]], [3.0]),
        ]
        steps = np.arange(120)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_stack(members, steps)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            for member in members:
                evaluate(member, steps)
        messages = [str(w.message) for w in caught if w.category is ImaginaryResidualWarning]
        assert len(messages) == 2 and messages[0] != messages[1]
        assert messages == [str(w.message) for w in expected]

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_residual_check_matches_the_one_array_form(self, exponent):
        # each member's norms read a contiguous slice of the stack's parts:
        # the same warnings as the check on that member's complex states,
        # in extreme units too, attributed to the caller
        scale = 2.0**exponent
        members = [
            spectral_model([0.9 * np.exp(0.3j), 0.5], [[1.0, 0.0], [0.5, 1.0]], [scale, scale]),
            spectral_model([0.5, 0.7], np.eye(2), [scale, scale]),
            spectral_model([0.8 * np.exp(1.1j), 0.6], [[2.0, 1.0], [1.0, 0.0]], [3 * scale, 2 * scale]),
        ]
        steps = np.array([0, 3, 120, 7])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evaluate_stack(members, steps)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            for member in members:
                powers = member.eigenvalues[None, :] ** steps[:, None]
                states = (member.modes * member.amplitudes) @ powers.T
                _check_imaginary(states.real, states.imag, "evaluate")
        assert [w.category for w in caught] == [ImaginaryResidualWarning] * 2
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
        assert all(w.filename == __file__ for w in caught)

    def test_models_of_unequal_shapes_rejected(self):
        members = [
            spectral_model([0.5, 0.9], np.eye(2), [1.0, 1.0]),
            spectral_model([0.5], [[1.0], [0.0]], [1.0]),
        ]
        with pytest.raises(DataError, match="share their rank"):
            evaluate_stack(members, [0, 1])


class TestReconstruct:
    def test_training_grid_exact_on_linear_data(self):
        op = rotation_decay(0.95, 0.3)
        x = linear_trajectory(op, [1.0, 0.2], 40)
        model = fit_dmd(x, rank=2)
        rec = reconstruct(model, x.grid)
        err = np.linalg.norm(rec.state - x.state) / np.linalg.norm(x.state)
        assert err <= 1e-8

    def test_truncation_error_bounded_by_tail_energy(self):
        # two modes excited at the 1e-10 level: the rank-4 fit discards
        # them and its error stays within their tail energy plus slack
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        op = q @ np.diag([0.95, 0.9, 0.8, 0.6, 0.3, 0.1]) @ q.T
        x0 = q @ np.array([1.0, 0.8, 1.2, 0.9, 1e-10, 1e-10])
        x = linear_trajectory(op, x0, 60)
        model = fit_dmd(x, rank=4)
        rec = reconstruct(model, x.grid)
        err = np.linalg.norm(rec.state - x.state) / np.linalg.norm(x.state)
        s = np.linalg.svd(x.state[:, :-1], compute_uv=False)
        tail = np.sqrt(np.sum(s[4:] ** 2)) / np.linalg.norm(x.state)
        assert err <= tail + 1e-8

    def test_forecast_beyond_training(self):
        op = np.diag([0.9, 0.5])
        x0 = np.array([1.0, 1.0])
        x = linear_trajectory(op, x0, 30)
        model = fit_dmd(x, rank=2)
        extended = TimeGrid(np.arange(40.0))
        rec = reconstruct(model, extended)
        truth = np.column_stack(
            [np.linalg.matrix_power(op, k) @ x0 for k in range(40)]
        )
        err = np.linalg.norm(rec.state - truth) / np.linalg.norm(truth)
        assert err <= 1e-6

    def test_off_lattice_instant_rejected(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 10)
        model = fit_dmd(x, rank=2)
        with pytest.raises(DataError, match="lattice"):
            reconstruct(model, TimeGrid(np.array([0.0, 1.37])))

    def test_pre_initial_instant_rejected(self):
        x = linear_trajectory(np.diag([0.9, 0.5]), [1.0, 1.0], 10, t0=5.0)
        model = fit_dmd(x, rank=2)
        with pytest.raises(DataError):
            reconstruct(model, TimeGrid(np.array([3.0, 4.0, 5.0])))


class TestExactOperator:
    def test_recovers_generator(self):
        rng = np.random.default_rng(1)
        op = rotation_decay(0.9, 0.5)
        x = linear_trajectory(op, rng.standard_normal(2), 25)
        assert_allclose(exact_operator(x), op, atol=1e-8)

    def test_matches_reduced_spectrum(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        op = q @ np.diag([0.9, 0.7, 0.5, 0.4, 0.2]) @ q.T
        x = linear_trajectory(op, rng.standard_normal(5), 30)
        model = fit_dmd(x, rank=5)
        full = np.sort_complex(np.linalg.eigvals(exact_operator(x)))
        reduced = np.sort_complex(model.eigenvalues)
        assert_allclose(full, reduced, atol=1e-8)


class TestImaginaryTelemetry:
    """The imaginary-residual check compares norms that would overflow or
    underflow in extreme units, so it scales them first."""

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_residual_reported_at_any_scale(self, exponent):
        values = np.ldexp(np.arange(1.0, 13.0).reshape(3, 4), exponent) * (1 + 1e-3j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.warns(ImaginaryResidualWarning):
                _check_imaginary(values.real, values.imag, "test")

    @pytest.mark.parametrize("exponent", [0, 600, -600])
    def test_real_values_pass_silently(self, exponent):
        values = np.ldexp(np.arange(1.0, 13.0).reshape(3, 4), exponent) + 0j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_imaginary(values.real, values.imag, "test")
