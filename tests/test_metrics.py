"""Tests for error metrics and evaluation records."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.errors import DataError
from pdmd.metrics import (
    EvalReport,
    frobenius_rel_error,
    report_from_line,
    report_to_line,
    rmse,
    time_rel_error,
)


class TestFrobenius:
    def test_identity(self):
        truth = np.arange(6.0).reshape(2, 3) + 1
        assert frobenius_rel_error(truth, truth) == 0.0

    def test_zero_prediction(self):
        truth = np.ones((3, 3))
        assert frobenius_rel_error(truth, np.zeros((3, 3))) == pytest.approx(1.0)

    def test_double_prediction(self):
        truth = np.random.default_rng(0).standard_normal((4, 5))
        assert frobenius_rel_error(truth, 2 * truth) == pytest.approx(1.0)

    def test_scale_covariance(self):
        rng = np.random.default_rng(1)
        truth = rng.standard_normal((4, 4))
        pred = rng.standard_normal((4, 4))
        base = frobenius_rel_error(truth, pred)
        assert frobenius_rel_error(7.3 * truth, 7.3 * pred) == pytest.approx(base)

    def test_triangle_sanity(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((5, 5))
        pred = rng.standard_normal((5, 5))
        bound = frobenius_rel_error(truth, np.zeros_like(truth)) + np.linalg.norm(
            pred
        ) / np.linalg.norm(truth)
        assert frobenius_rel_error(truth, pred) <= bound + 1e-12

    def test_guards(self):
        with pytest.raises(DataError, match="shape"):
            frobenius_rel_error(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(DataError, match="zero"):
            frobenius_rel_error(np.zeros((2, 2)), np.ones((2, 2)))


class TestTimeResolved:
    def test_identical_columns(self):
        truth = np.random.default_rng(0).standard_normal((3, 4))
        assert_allclose(time_rel_error(truth, truth), np.zeros(4))

    def test_locality_of_corruption(self):
        truth = np.ones((3, 4))
        pred = truth.copy()
        pred[:, 2] += 1.0
        errors = time_rel_error(truth, pred)
        assert errors[2] > 0
        assert_allclose(np.delete(errors, 2), 0.0)

    def test_matches_frobenius_on_unit_columns(self):
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((5, 6))
        truth /= np.linalg.norm(truth, axis=0)
        pred = truth + 0.01 * rng.standard_normal((5, 6))
        per_instant = time_rel_error(truth, pred)
        frob = frobenius_rel_error(truth, pred)
        # with unit truth columns: eps^2 * N_t = sum eps(t)^2
        assert_allclose(np.sqrt(np.mean(per_instant**2)), frob, atol=1e-12)

    def test_zero_column_reported_with_index(self):
        truth = np.ones((2, 3))
        truth[:, 1] = 0.0
        with pytest.raises(DataError, match="column 1"):
            time_rel_error(truth, truth)


class TestRmse:
    def test_identical(self):
        truth = np.random.default_rng(0).standard_normal((3, 3))
        assert rmse(truth, truth) == 0.0

    def test_constant_offset(self):
        truth = np.random.default_rng(1).standard_normal((4, 4))
        assert rmse(truth, truth + 0.25) == pytest.approx(0.25)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((3, 5))
        pred = rng.standard_normal((3, 5))
        total = 0.0
        for i in range(3):
            for j in range(5):
                total += (truth[i, j] - pred[i, j]) ** 2
        assert rmse(truth, pred) == pytest.approx(np.sqrt(total / 15), abs=1e-12)


class TestExtremeUnits:
    """Data times a power of two score the same relative errors and a
    scaled RMSE; data in the normal range give the plain formulas' bits."""

    @staticmethod
    def pair():
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((20, 15))
        return truth, truth + 1e-3 * rng.standard_normal(truth.shape)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("exponent", [600, -600, 900, -1000])
    def test_power_of_two_scaling(self, exponent):
        truth, pred = self.pair()
        scaled = np.ldexp(truth, exponent), np.ldexp(pred, exponent)
        assert frobenius_rel_error(*scaled) == frobenius_rel_error(truth, pred)
        assert np.array_equal(time_rel_error(*scaled), time_rel_error(truth, pred))
        assert rmse(*scaled) == pytest.approx(np.ldexp(rmse(truth, pred), exponent),
                                              rel=1e-15)

    def test_normal_range_bits_are_the_plain_formulas(self):
        truth, pred = self.pair()
        assert frobenius_rel_error(truth, pred) == float(
            np.linalg.norm(truth - pred) / np.linalg.norm(truth)
        )
        assert np.array_equal(
            time_rel_error(truth, pred),
            np.linalg.norm(truth - pred, axis=0) / np.linalg.norm(truth, axis=0),
        )
        assert rmse(truth, pred) == float(np.sqrt(np.mean((truth - pred) ** 2)))

    def test_zero_truth_still_rejected_at_any_scale(self):
        pred = np.full((3, 4), 1e-300)
        with pytest.raises(DataError, match="zero Frobenius norm"):
            frobenius_rel_error(np.zeros((3, 4)), pred)
        with pytest.raises(DataError, match="column 0"):
            time_rel_error(np.zeros((3, 4)), pred)

    def test_exact_prediction_scores_zero(self):
        truth = np.ldexp(self.pair()[0], -1000)
        assert frobenius_rel_error(truth, truth) == 0.0
        assert rmse(truth, truth) == 0.0


class TestEvalReport:
    def make_report(self):
        return EvalReport(
            algorithm="roi",
            rank=4,
            parameter=np.array([0.3]),
            frobenius_error=0.01,
            time_errors=np.array([0.01, 0.02]),
            rmse=0.005,
            offline_seconds=1.5,
            online_seconds=0.01,
            extras={"note": "fixture"},
        )

    def test_line_round_trip(self):
        report = self.make_report()
        back = report_from_line(report_to_line(report))
        assert back.algorithm == report.algorithm
        assert back.rank == report.rank
        assert_allclose(back.parameter, report.parameter)
        assert_allclose(back.time_errors, report.time_errors)
        assert back.extras == {"note": "fixture"}

    def test_negative_errors_rejected(self):
        with pytest.raises(DataError):
            EvalReport(
                algorithm="roi",
                rank=1,
                parameter=[0.0],
                frobenius_error=-0.1,
                time_errors=[0.0],
                rmse=0.0,
                offline_seconds=0.0,
                online_seconds=0.0,
            )

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DataError):
            EvalReport(
                algorithm="magic",
                rank=1,
                parameter=[0.0],
                frobenius_error=0.0,
                time_errors=[0.0],
                rmse=0.0,
                offline_seconds=0.0,
                online_seconds=0.0,
            )

    def test_malformed_line_rejected(self):
        with pytest.raises(DataError):
            report_from_line("{not json")
        with pytest.raises(DataError, match="missing"):
            report_from_line("{}")
