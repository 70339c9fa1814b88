"""End-to-end fit/predict/evaluate plumbing shared by the CLI and benchmarks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdmd.data
from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid
from pdmd.errors import DataError
from pdmd.metrics import frobenius_rel_error
from pdmd.pipeline import (
    ALGORITHMS,
    FitOptions,
    evaluate_model,
    fit_surrogate,
    predict_surrogate,
    spec_from_metadata,
    subset_params,
)
from pdmd.reduction import fit_global_basis
from pdmd.synth import SynthSpec, generate


def linear_dataset(n_params=6, n_h=6, n_t=40, seed=3):
    spec = SynthSpec(
        "linear-operator",
        n_h=n_h,
        n_params=n_params,
        param_range=(0.3, 0.7),
        n_t=n_t,
        dt=0.1,
        seed=seed,
    )
    dataset, _ = generate(spec)
    return dataset


def diagonal_dataset():
    """Stacked snapshots with singular values exactly (2, 1)."""
    grid = TimeGrid(np.array([0.0, 1.0]))
    state = np.array([[2.0, 0.0], [0.0, 1.0]])
    return ParametricDataset(np.array([[0.5]]), (SnapshotMatrix(state, grid),))


class TestSubsetParams:
    def test_keeps_requested_order(self):
        dataset = linear_dataset()
        subset = subset_params(dataset, [3, 1])
        assert subset.n_params == 2
        assert_allclose(subset.params, dataset.params[[3, 1]])
        assert subset.trajectories[0] is dataset.trajectories[3]
        assert subset.trajectories[1] is dataset.trajectories[1]

    def test_duplicate_indices_rejected(self):
        dataset = linear_dataset()
        with pytest.raises(DataError, match="duplicate"):
            subset_params(dataset, [0, 0])

    def test_out_of_range_rejected(self):
        dataset = linear_dataset()
        with pytest.raises(DataError, match="range"):
            subset_params(dataset, [dataset.n_params])
        with pytest.raises(DataError, match="range"):
            subset_params(dataset, [-1])

    def test_pipeline_name_is_the_data_helper(self):
        assert subset_params is pdmd.data.subset_params


class TestResolveRank:
    """Rank selection of the basis, deterministic and randomized."""

    def test_explicit_rank_wins_over_energy(self):
        for randomized in (False, True):
            basis = fit_global_basis(
                diagonal_dataset(), 2, energy=0.5, randomized=randomized
            )
            assert basis.rank == 2

    def test_rank_beyond_data_limit_rejected(self):
        dataset = diagonal_dataset()
        with pytest.raises(DataError, match="exceeds"):
            fit_global_basis(dataset, 3)

    def test_energy_threshold_selects_rank(self):
        # Squared singular values 4 and 1: the leading direction carries
        # exactly 80% of the energy.
        dataset = diagonal_dataset()
        for randomized in (False, True):
            for energy, rank in ((0.75, 1), (0.85, 2)):
                basis = fit_global_basis(
                    dataset, None, energy=energy, randomized=randomized
                )
                assert basis.rank == rank

    def test_default_energy_keeps_nearly_everything(self):
        assert fit_global_basis(diagonal_dataset(), None).rank == 2

    def test_fit_without_rank_takes_the_energy_rank(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("mono", energy=0.9))
        expected = fit_global_basis(dataset, None, energy=0.9).rank
        assert surrogate.metadata["rank"] == expected < dataset.n_state

    def test_bad_options_rejected(self):
        with pytest.raises(DataError, match="algorithm"):
            FitOptions("newton")
        with pytest.raises(DataError, match="rank"):
            FitOptions("roi", rank=0)
        with pytest.raises(DataError, match="energy"):
            FitOptions("roi", energy=1.5)


class TestFitSurrogate:
    def test_metadata_records_the_fit(self):
        dataset = linear_dataset()
        for algorithm in ALGORITHMS:
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
            meta = surrogate.metadata
            assert meta["algorithm"] == algorithm
            assert meta["rank"] == 6
            assert_allclose(meta["dt"], 0.1)
            assert meta["t0"] == 0.0
            assert meta["n_t"] == 40
            assert meta["param_dim"] == 1
            assert meta["regressor"] == "linear"
            assert_allclose(
                meta["offline_seconds"],
                meta["basis_seconds"] + meta["train_seconds"],
                rtol=1e-12,
            )
            assert_allclose(meta["mean_train_error"], surrogate.train_errors.mean())
            assert spec_from_metadata(meta) == surrogate.regressor

    def test_full_rank_linear_family_is_exact_for_operator_interp(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
        assert surrogate.train_errors.max() < 1e-8

    def test_training_errors_are_per_parameter(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("mono", rank=6))
        assert surrogate.train_errors.shape == (dataset.n_params,)
        pred = predict_surrogate(
            surrogate.model,
            dataset.params[2],
            dataset.grid.instants,
            surrogate.regressor,
        )
        assert_allclose(
            surrogate.train_errors[2],
            frobenius_rel_error(dataset.trajectories[2].state, pred),
            rtol=1e-12,
        )


class TestPredictSurrogate:
    def test_every_algorithm_returns_state_by_time(self):
        dataset = linear_dataset()
        times = dataset.grid.instants[:10]
        for algorithm in ALGORITHMS:
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
            pred = predict_surrogate(
                surrogate.model, dataset.params[1], times, surrogate.regressor
            )
            assert pred.shape == (dataset.n_state, 10)
            assert np.all(np.isfinite(pred))

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_single_and_reversed_instants_match_full_grid(self, algorithm):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        mu = dataset.params[1:3].mean(axis=0)
        instants = dataset.grid.instants
        full = predict_surrogate(surrogate.model, mu, instants, surrogate.regressor)
        for columns in ([7], [12, 3]):
            pred = predict_surrogate(
                surrogate.model, mu, instants[columns], surrogate.regressor
            )
            assert pred.shape == (dataset.n_state, len(columns))
            scale = np.abs(full).max()
            assert_allclose(pred, full[:, columns], rtol=1e-12, atol=1e-12 * scale)

    def test_unknown_model_object_rejected(self):
        from pdmd.regression import RegressorSpec

        with pytest.raises(DataError, match="cannot predict"):
            predict_surrogate(object(), np.array([0.5]), [0.0, 0.1], RegressorSpec("linear"))


class TestEvaluateModel:
    def test_bad_index_rejected(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
        with pytest.raises(DataError, match="range"):
            evaluate_model(
                surrogate.model,
                "roi",
                surrogate.regressor,
                6,
                dataset,
                [dataset.n_params],
            )

    def test_reports_carry_errors_and_counters(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
        reports = evaluate_model(
            surrogate.model,
            "roi",
            surrogate.regressor,
            6,
            dataset,
            [1, 4],
            offline_seconds=1.25,
        )
        assert len(reports) == 2
        for report, idx in zip(reports, (1, 4)):
            assert report.algorithm == "roi"
            assert report.rank == 6
            assert_allclose(report.parameter, dataset.params[idx])
            assert report.offline_seconds == 1.25
            assert report.online_seconds >= 0.0
            assert report.extras["online_fits"] == 0
            assert_allclose(report.extras["times"], dataset.grid.instants)
            truth = dataset.trajectories[idx].state
            pred = predict_surrogate(
                surrogate.model,
                dataset.params[idx],
                dataset.grid.instants,
                surrogate.regressor,
            )
            assert_allclose(report.frobenius_error, frobenius_rel_error(truth, pred))

    def test_interpolation_algorithms_fit_once_per_instant(self):
        dataset = linear_dataset(n_t=25)
        surrogate = fit_surrogate(dataset, FitOptions("mono", rank=6))
        reports = evaluate_model(
            surrogate.model, "mono", surrogate.regressor, 6, dataset, [2]
        )
        assert reports[0].extras["online_fits"] == 25
