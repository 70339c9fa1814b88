"""End-to-end fit/predict/evaluate plumbing shared by the CLI and benchmarks."""

import re
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdmd.data
from pdmd import algorithms, archive, dmd, latent as latent_module, pipeline, regression
from pdmd.archive import load_model, save_model
from pdmd.bench import default_suite
from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid
from pdmd.errors import DataError, ExtrapolationWarning, IllConditionedWarning
from pdmd.latent import predict_latent
from pdmd.metrics import frobenius_rel_error
from pdmd.pipeline import (
    ALGORITHMS,
    FitOptions,
    evaluate_model,
    fit_surrogate,
    predict_surrogate,
    spec_from_metadata,
    subset_params,
    timed_query,
)
from pdmd.reduction import fit_global_basis, lift
from pdmd.regression import FitCount, RegressorSpec
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
    """Rank selection of the basis."""

    def test_explicit_rank_wins_over_energy(self):
        assert fit_global_basis(diagonal_dataset(), 2, energy=0.5).rank == 2

    def test_rank_beyond_data_limit_rejected(self):
        dataset = diagonal_dataset()
        with pytest.raises(DataError, match="exceeds"):
            fit_global_basis(dataset, 3)

    def test_energy_threshold_selects_rank(self):
        # Squared singular values 4 and 1: the leading direction carries
        # exactly 80% of the energy.
        dataset = diagonal_dataset()
        for energy, rank in ((0.75, 1), (0.85, 2)):
            assert fit_global_basis(dataset, None, energy=energy).rank == rank

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

    def test_negative_seed_rejected(self):
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            FitOptions("rkoi", bag_trials=3, seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("bag_fraction", 0.0), ("bag_fraction", 2.0), ("bag_fraction", -0.5),
         ("bag_trials", 0), ("op_rank", 0)],
    )
    def test_bagging_and_operator_settings_bounded(self, field, value):
        with pytest.raises(DataError, match=field):
            FitOptions("rkoi", **{field: value})
        FitOptions("rkoi", bag_fraction=1.0, bag_trials=1, op_rank=1)


class TestFitSurrogate:
    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
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
        )
        assert_allclose(
            surrogate.train_errors[2],
            frobenius_rel_error(dataset.trajectories[2].state, pred),
            rtol=1e-12,
        )


class TestPredictSurrogate:
    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_every_algorithm_returns_state_by_time(self):
        dataset = linear_dataset()
        times = dataset.grid.instants[:10]
        for algorithm in ALGORITHMS:
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
            pred = predict_surrogate(
                surrogate.model, dataset.params[1], times
            )
            assert pred.shape == (dataset.n_state, 10)
            assert np.all(np.isfinite(pred))

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_single_and_reversed_instants_match_full_grid(self, algorithm):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        mu = dataset.params[1:3].mean(axis=0)
        instants = dataset.grid.instants
        full = predict_surrogate(surrogate.model, mu, instants)
        for columns in ([7], [12, 3]):
            pred = predict_surrogate(
                surrogate.model, mu, instants[columns]
            )
            assert pred.shape == (dataset.n_state, len(columns))
            scale = np.abs(full).max()
            assert_allclose(pred, full[:, columns], rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("kind", ["linear", "rbf-gauss", "poly"])
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_empty_instant_list_gives_an_empty_trajectory(self, algorithm, kind):
        dataset = linear_dataset()
        options = FitOptions(algorithm, rank=6, regressor=RegressorSpec(kind))
        surrogate = fit_surrogate(dataset, options)
        pred = predict_surrogate(surrogate.model, dataset.params[1], [])
        assert pred.shape == (dataset.n_state, 0)

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_instants_must_be_a_number_or_a_sequence(self, algorithm):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        mu, instants = dataset.params[1], dataset.grid.instants
        one = predict_surrogate(surrogate.model, mu, instants[3])
        assert one.shape == (dataset.n_state, 1)
        with pytest.raises(DataError, match=re.escape("1-D sequence, got shape (2, 2)")):
            predict_surrogate(surrogate.model, mu, instants[:4].reshape(2, 2))

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_algorithm_predictor_rejects_2d_instants(self, algorithm):
        # called directly, past predict_surrogate's check, right after a
        # query at the same instants as a 1-D sequence
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        predict = ALGORITHMS[algorithm].predict
        rows, instants = dataset.params[1:2], dataset.grid.instants[:4]
        predict(surrogate.model, rows, instants)
        with pytest.raises(DataError, match=re.escape("1-D sequence, got shape (2, 2)")):
            predict(surrogate.model, rows, instants.reshape(2, 2))

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_non_finite_instant_is_data_error(self, algorithm, bad):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        with pytest.raises(DataError):
            predict_surrogate(surrogate.model, dataset.params[1], [dataset.grid.t0, bad])

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_clamped_query_warns_once(self, algorithm):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict_surrogate(
                surrogate.model, [5.0], dataset.grid.instants[:5]
            )
        clamped = [w for w in caught if issubclass(w.category, ExtrapolationWarning)]
        assert len(clamped) == 1

    def test_unknown_model_object_rejected(self):
        with pytest.raises(DataError, match="cannot predict"):
            predict_surrogate(object(), np.array([0.5]), [0.0, 0.1])

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_wrong_length_parameter_names_its_shape(self, algorithm):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        message = "query parameter of shape (2,) does not fit the model's parameter dimension 1"
        with pytest.raises(DataError, match=re.escape(message)):
            predict_surrogate(surrogate.model, [0.5, 0.2], dataset.grid.instants)

    # a query value whose float conversion would drop an imaginary part or
    # end in a raw ValueError/TypeError; instants start on the lattice
    NON_REAL = {
        "complex-ndarray": (lambda t: t[:4] + 0.5j, np.array([0.5 + 0.3j])),
        "non-numeric-string": (lambda t: "soon", "half"),
        "object": (lambda t: object(), object()),
        "ragged": (lambda t: [t[0], [t[1], t[2]]], [[0.5], [0.4, 0.6]]),
    }

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("where", ["instants", "mu", "rows"])
    @pytest.mark.parametrize("case", list(NON_REAL))
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_non_real_query_input_is_data_error(self, algorithm, case, where):
        dataset = linear_dataset()
        model = fit_surrogate(dataset, FitOptions(algorithm, rank=6)).model
        bad_instants, bad_mu = self.NON_REAL[case]
        mu, instants = dataset.params[1], dataset.grid.instants
        with pytest.raises(DataError, match="must be real numbers"):
            if where == "instants":
                predict_surrogate(model, mu, bad_instants(instants))
            elif where == "mu":
                predict_surrogate(model, bad_mu, instants)
            else:  # the algorithm's predictor, past predict_surrogate
                rows = np.atleast_2d(bad_mu) if case == "complex-ndarray" else bad_mu
                ALGORITHMS[algorithm].predict(model, rows, instants)

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_spec_argument_must_be_the_models_own(self, algorithm):
        # the transitional spec argument may only repeat model.sites.spec
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        mu, instants = dataset.params[2], dataset.grid.instants
        own = predict_surrogate(surrogate.model, mu, instants)
        recorded = spec_from_metadata(surrogate.metadata)
        assert recorded == surrogate.regressor == surrogate.model.sites.spec
        assert np.array_equal(predict_surrogate(surrogate.model, mu, instants, recorded), own)
        other = RegressorSpec("nearest")
        message = f"regressor {other} is not the model's own, {recorded}"
        with pytest.raises(DataError, match=re.escape(message)):
            predict_surrogate(surrogate.model, mu, instants, other)


@pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
class TestSitesPreparedOnce:
    """A model holds its training parameters prepared: a fit prepares
    them once, a load once, and no query prepares them again."""

    def test_prepare_runs_once_per_fit_and_load(self, algorithm, monkeypatch, tmp_path):
        calls = []
        original = regression.prepare

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(regression, "prepare", counted)
        monkeypatch.setattr(archive, "prepare", counted)
        dataset = linear_dataset()
        fitted = fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        assert len(calls) == 1
        path = tmp_path / "model.pdmdm"
        save_model(fitted.model, path, fitted.metadata)
        loaded = load_model(path).model
        assert len(calls) == 2
        online = len(dataset.grid) if algorithm in ("mono", "part") else 0
        for model in (fitted.model, loaded):
            with FitCount() as fits:
                predict_surrogate(model, dataset.params[2], dataset.grid.instants)
            assert fits.count == online
        assert len(calls) == 2

    def test_ill_conditioned_rbf_warns_at_fit_and_load(self, algorithm, tmp_path):
        # sites a billionth of the rbf shape apart: an ill-conditioned system
        dataset = linear_dataset(n_params=3)
        dataset = ParametricDataset(np.array([[0.0], [1e-9], [1.0]]), dataset.trajectories)
        spec = RegressorSpec("rbf-gauss", shape=100.0)

        def ill_conditioned(call):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = call()
            return result, sum(w.category is IllConditionedWarning for w in caught)

        fitted, shown = ill_conditioned(
            lambda: fit_surrogate(dataset, FitOptions(algorithm, rank=6, regressor=spec))
        )
        assert shown == 1
        path = tmp_path / "model.pdmdm"
        save_model(fitted.model, path, fitted.metadata)
        loaded, shown = ill_conditioned(lambda: load_model(path).model)
        assert shown == 1
        for model in (fitted.model, loaded):
            _, shown = ill_conditioned(
                lambda: predict_surrogate(model, [0.5], dataset.grid.instants)
            )
            assert shown == 0

    def test_single_point_fit_reports_nearest(self, algorithm):
        dataset = subset_params(linear_dataset(), [2])
        fitted = fit_surrogate(dataset, FitOptions(algorithm, rank=2))
        nearest = RegressorSpec("nearest")
        assert fitted.model.sites.spec == fitted.regressor == nearest
        assert spec_from_metadata(fitted.metadata) == nearest


class TestEvaluateModel:
    def test_bad_index_rejected(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
        with pytest.raises(DataError, match="range"):
            evaluate_model(
                surrogate.model,
                dataset,
                [dataset.n_params],
            )

    def test_reports_carry_errors_and_counters(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
        reports = evaluate_model(
            surrogate.model,
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
            )
            assert_allclose(report.frobenius_error, frobenius_rel_error(truth, pred))

    def test_interpolation_algorithms_fit_once_per_instant(self):
        dataset = linear_dataset(n_t=25)
        surrogate = fit_surrogate(dataset, FitOptions("mono", rank=6))
        reports = evaluate_model(
            surrogate.model, dataset, [2]
        )
        assert reports[0].extras["online_fits"] == 25


def per_mu_train_errors(surrogate, dataset):
    """Oracle of the training errors: one predict_surrogate query per
    training parameter."""
    return np.array(
        [
            frobenius_rel_error(
                dataset.trajectories[i].state,
                predict_surrogate(
                    surrogate.model,
                    dataset.params[i],
                    dataset.grid.instants,
                ),
            )
            for i in range(dataset.n_params)
        ]
    )


def grid_params_dataset():
    """Nine exp-modes trajectories placed on a 3 x 3 grid of 2-vectors."""
    dataset, _ = generate(
        SynthSpec("exp-modes", n_h=10, n_params=9, param_range=(0.2, 0.8), n_t=50, dt=0.08, seed=5)
    )
    axis = np.array([0.2, 0.5, 0.8])
    params = np.array([[a, b] for a in axis for b in axis])
    return ParametricDataset(params, dataset.trajectories)


def exp_modes_scenario():
    return next(s for s in default_suite().scenarios if s.name == "exp-modes")


class TestTrainErrorPass:
    """fit_surrogate scores every training parameter with one batched
    prediction; the bits must be those of one query per parameter."""

    CASES = {
        "linear-p1": (linear_dataset, None, 6),
        "rbf-gauss-p2": (grid_params_dataset, RegressorSpec("rbf-gauss"), 4),
        "poly-p1": (linear_dataset, RegressorSpec("poly", degree=2), 6),
    }

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    @pytest.mark.parametrize("case", list(CASES))
    def test_train_errors_match_per_mu_queries(self, case, algorithm):
        make, spec, rank = self.CASES[case]
        dataset = make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=rank, regressor=spec))
            oracle = per_mu_train_errors(surrogate, dataset)
        assert surrogate.train_errors.tobytes() == oracle.tobytes()

    @staticmethod
    def fit_counting_fallbacks(dataset, options, monkeypatch):
        """The surrogate, and how many rows the pass scored through
        ``frobenius_rel_error`` (its fallback for extreme units)."""
        original = pipeline.frobenius_rel_error
        scored = []

        def counting(truth, pred):
            scored.append(truth.shape)
            return original(truth, pred)

        monkeypatch.setattr(pipeline, "frobenius_rel_error", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surrogate = fit_surrogate(dataset, options)
        monkeypatch.undo()
        return surrogate, len(scored)

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_dataset_read_back_from_pdmd1(self, algorithm, tmp_path, monkeypatch):
        # PDMD1 stores each block column-major, so the trajectories read
        # back are F-ordered views, as the benchmark reads them
        path = tmp_path / "train.pdmd1"
        pdmd.data.write_dataset(linear_dataset(), path)
        dataset = pdmd.data.read_dataset(path)
        assert all(
            t.state.flags.f_contiguous and not t.state.flags.c_contiguous
            for t in dataset.trajectories
        )
        surrogate, fallbacks = self.fit_counting_fallbacks(
            dataset, FitOptions(algorithm, rank=6), monkeypatch
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = per_mu_train_errors(surrogate, dataset)
        assert fallbacks == 0
        assert surrogate.train_errors.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("exponent", [600, -600])
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_extreme_units_take_the_metric_path(self, algorithm, exponent, monkeypatch):
        base = linear_dataset()
        dataset = ParametricDataset(
            base.params,
            tuple(
                SnapshotMatrix(np.ldexp(t.state, exponent), t.grid)
                for t in base.trajectories
            ),
        )
        surrogate, fallbacks = self.fit_counting_fallbacks(
            dataset, FitOptions(algorithm, rank=6), monkeypatch
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = per_mu_train_errors(surrogate, dataset)
        assert fallbacks == dataset.n_params
        assert np.all(np.isfinite(surrogate.train_errors))
        assert surrogate.train_errors.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_fit_leaves_the_trajectories_unchanged(self, algorithm):
        dataset = linear_dataset()
        before = [t.state.tobytes() for t in dataset.trajectories]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        assert [t.state.tobytes() for t in dataset.trajectories] == before

    @pytest.mark.parametrize("algorithm", ["mono", "part", "roi", "rkoi"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_row_block_equals_one_row_calls(self, case, algorithm):
        """Each row of a block reads the bits of a one-row query, on
        consecutive instants, every third (roi's gap path), unsorted with
        repeats, and beyond the training window (roi's matrix powers)."""
        make, spec, rank = self.CASES[case]
        dataset = make()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=rank, regressor=spec))
        model, grid = surrogate.model, dataset.grid
        rows = np.vstack([dataset.params, dataset.params.mean(axis=0)])
        n_t = len(grid)
        for times in (
            grid.instants,
            grid.instants[::3],
            grid.instants[[9, 2, 2, 0, 5, 9, 1]],
            grid.t0 + grid.dt * np.array([0, 1, n_t + 4, 2 * n_t, 3 * n_t + 1]),
        ):
            latents = ALGORITHMS[model.tag].predict(model, rows, times)
            assert len(latents) == rows.shape[0]
            for row, latent in zip(rows, latents):
                states = lift(latent, model.basis)
                single = predict_surrogate(model, row, times)
                assert states.shape == (dataset.n_state, times.size)
                assert states.tobytes() == single.tobytes()

    @pytest.mark.parametrize("algorithm", ["roi", "rkoi"])
    def test_fit_makes_one_query(self, algorithm, monkeypatch):
        name = f"predict_{algorithm}"
        original = getattr(algorithms, name)
        blocks = []

        def counting(model, mu_rows, instants):
            blocks.append(np.shape(mu_rows))
            return original(model, mu_rows, instants)

        monkeypatch.setattr(algorithms, name, counting)
        dataset = linear_dataset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit_surrogate(dataset, FitOptions(algorithm, rank=6))
        assert blocks == [dataset.params.shape]

    def test_rows_must_form_a_matrix(self):
        dataset = linear_dataset()
        surrogate = fit_surrogate(dataset, FitOptions("mono", rank=6))
        with pytest.raises(DataError, match="n x p"):
            predict_latent(surrogate.model, [0.5], dataset.grid.instants)

    @pytest.mark.parametrize("algorithm", ["mono", "part"])
    def test_fit_costs_one_regressor_per_instant(self, algorithm, monkeypatch):
        scenario = exp_modes_scenario()
        dataset, _ = generate(scenario.synth)
        evaluated = []

        def counting_evaluate(models, steps):
            evaluated.extend(id(model) for model in models)
            return dmd.evaluate_stack(models, steps)

        monkeypatch.setattr(latent_module, "evaluate_stack", counting_evaluate)
        with FitCount() as fits:
            surrogate = fit_surrogate(dataset, FitOptions(algorithm, rank=scenario.ranks[algorithm]))
        model = surrogate.model
        dmds = [model.stacked_dmd] if algorithm == "mono" else list(model.members)
        n_t = len(dataset.grid)
        assert fits.count == n_t
        assert sorted(evaluated) == sorted(id(m) for m in dmds)
        _, _, online = timed_query(model, dataset.params[3], dataset.grid.instants)
        assert online == n_t


class TestConcurrentQueries:
    def test_each_query_counts_its_own_fits(self, monkeypatch):
        """Two threads query at once, mono and roi, so that each one's
        fits fall between the other's start and end; each must report
        its own count."""
        scenario = exp_modes_scenario()
        dataset, _ = generate(scenario.synth)
        mono = fit_surrogate(dataset, FitOptions("mono", rank=6))
        roi = fit_surrogate(dataset, FitOptions("roi", rank=6))
        roi_started, mono_done = threading.Event(), threading.Event()
        original_fit = regression.fit
        waited = []

        def fit_after_roi_starts(*args, **kwargs):
            result = original_fit(*args, **kwargs)
            if not waited:
                waited.append(roi_started.wait(timeout=30))
            return result

        original_roi = algorithms.predict_roi

        def roi_while_mono_fits(model, mu_rows, instants):
            roi_started.set()
            mono_done.wait(timeout=30)
            return original_roi(model, mu_rows, instants)

        monkeypatch.setattr(regression, "fit", fit_after_roi_starts)
        monkeypatch.setattr(algorithms, "predict_roi", roi_while_mono_fits)
        counts = {}
        mu, instants = dataset.params[4], dataset.grid.instants

        def query_mono():
            try:
                counts["mono"] = timed_query(mono.model, mu, instants)[2]
            finally:
                mono_done.set()

        def query_roi():
            counts["roi"] = timed_query(roi.model, mu, instants)[2]

        threads = [threading.Thread(target=query_mono), threading.Thread(target=query_roi)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert waited == [True]
        assert counts == {"mono": len(instants), "roi": 0}

    def test_counts_hold_under_thread_switching(self):
        """More query threads than cores, switching every microsecond."""
        dataset = linear_dataset(n_t=20)
        models = {a: fit_surrogate(dataset, FitOptions(a, rank=6)) for a in ("mono", "roi")}
        expected = {"mono": 20, "roi": 0}
        reported = []

        def queries(algorithm):
            surrogate = models[algorithm]
            for i in range(dataset.n_params):
                fits = timed_query(
                    surrogate.model, dataset.params[i], dataset.grid.instants
                )[2]
                reported.append((algorithm, fits))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=queries, args=(a,)) for a in ("mono", "roi") * 3]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reported) == 6 * dataset.n_params
        assert all(fits == expected[algorithm] for algorithm, fits in reported)
