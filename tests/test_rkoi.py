"""Tests for continuous-spectrum surrogate interpolation."""

import threading
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import optdmd, regression
from pdmd import rkoi as rkoi_module
from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid, subset_params
from pdmd.errors import ConvergenceWarning, DataError, ExtrapolationWarning
from pdmd.metrics import frobenius_rel_error
from pdmd.optdmd import fit_ensembles, fit_optdmd, predict_optdmd
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate
from pdmd.reduction import GlobalBasis, LatentDataset, fit_global_basis, lift, project
from pdmd.regression import FitCount, RegressorSpec, combine, prepare, stencil
from pdmd.rkoi import alignment_tree, fit_rkoi, predict_rkoi
from pdmd.synth import SynthSpec, generate


def linear_sites(latent):
    return prepare(RegressorSpec("linear"), latent.params)


def identity_basis(rank, n_state=None):
    n_state = rank if n_state is None else n_state
    return GlobalBasis(np.eye(n_state)[:, :rank], np.ones(rank), 1.0)


def decay_family(mus, n_t=40, dt=0.25):
    """Scalar latents e^{-mu t} with an identity basis."""
    grid = TimeGrid(dt * np.arange(n_t))
    latents = tuple(np.exp(-mu * grid.instants)[None, :] for mu in mus)
    params = np.asarray(mus, dtype=float)[:, None]
    return LatentDataset(identity_basis(1), params, latents, grid)


def tone_family(mus, n_t=60, dt=0.2):
    """Planar rotations at frequency (1 + mu) with an identity basis."""
    grid = TimeGrid(dt * np.arange(n_t))
    latents = []
    for mu in mus:
        phase = (1.0 + mu) * grid.instants
        latents.append(np.vstack([np.cos(phase), np.sin(phase)]))
    params = np.asarray(mus, dtype=float)[:, None]
    return LatentDataset(identity_basis(2), params, tuple(latents), grid)


def pipeline_latent(seed=0, n_params=3, rank=6):
    spec = SynthSpec(
        "exp-modes",
        n_h=8,
        n_params=n_params,
        param_range=(0.2, 0.8),
        n_t=50,
        dt=0.1,
        seed=seed,
    )
    dataset, oracle = generate(spec)
    basis = fit_global_basis(dataset, rank=rank)
    return dataset, oracle, project(dataset, basis)


def omegas_at(model, mu):
    """The regressed continuous frequencies at mu: the r channels after
    vec(modes)."""
    rank = model.basis.rank
    triplets = combine(stencil(model.sites, mu), model.values)
    return triplets[rank * rank : rank * (rank + 1)]


class TestFitRkoi:
    def test_single_parameter_constant_surrogate(self):
        latent = decay_family([0.2])
        model = fit_rkoi(latent, linear_sites(latent))
        member = fit_optdmd(latent.trajectory(0), 1)
        assert_allclose(omegas_at(model, [0.2]), member.omegas, atol=1e-10)
        for mu in ([0.05], [0.9]):
            with pytest.warns(ExtrapolationWarning, match="clamped"):
                omega = omegas_at(model, mu)
            assert_allclose(omega, member.omegas, atol=1e-10)

    def test_decay_rate_interpolates(self):
        latent = decay_family([0.1, 0.2, 0.3])
        model = fit_rkoi(latent, linear_sites(latent))
        omega = omegas_at(model, [0.25])
        assert_allclose(omega.real, [-0.25], atol=1e-4)

    def test_tone_frequency_interpolates(self):
        latent = tone_family([0.0, 0.2])
        model = fit_rkoi(latent, linear_sites(latent))
        omegas = omegas_at(model, [0.1])
        assert_allclose(np.sort(omegas.imag), [-1.1, 1.1], atol=1e-3)
        assert_allclose(omegas.real, 0.0, atol=1e-3)

    def test_smooth_family_has_no_alignment_notes(self):
        latent = tone_family([0.0, 0.1, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_rkoi(latent, linear_sites(latent))
        assert model.notes == ()

    def test_too_few_instants_rejected(self):
        latent = tone_family([0.0, 0.2], n_t=3)
        with pytest.raises(DataError):
            fit_rkoi(latent, linear_sites(latent))


def noisy_latent():
    spec = SynthSpec(
        "exp-modes", n_h=40, n_params=5, param_range=(0.2, 0.8),
        n_t=60, dt=0.08, noise_std=0.01, seed=23,
    )
    dataset, _ = generate(spec)
    return project(dataset, fit_global_basis(dataset, 4))


def per_parameter_fits(bag_seed):
    """A stand-in for ``fit_ensembles`` that fits each parameter by its own
    solver call, its own warm start and, for ascending rows, seed
    ``bag_seed`` plus its row."""

    def fits(trajectories, rank, inits, seeds, trials, subset_fraction):
        if trials == 1:
            return [(fit_optdmd(x, rank),) for x in trajectories]
        return [
            fit_ensembles([x], rank, [None], [bag_seed + k], trials, subset_fraction)[0]
            for k, x in enumerate(trajectories)
        ]

    return fits


class TestOneStackPerFit:
    """Every member of an rkoi fit comes from one stacked solve, with the
    bits of its own per-parameter fit."""

    @pytest.mark.parametrize("bag_trials", [1, 3])
    def test_members_match_per_parameter_fits(self, monkeypatch, bag_trials):
        latent = noisy_latent()
        assert np.all(np.diff(latent.params[:, 0]) > 0)
        sites = linear_sites(latent)
        stacked = fit_rkoi(latent, sites, bag_trials=bag_trials, bag_seed=4)
        monkeypatch.setattr(rkoi_module, "fit_ensembles", per_parameter_fits(4))
        separate = fit_rkoi(latent, sites, bag_trials=bag_trials, bag_seed=4)
        assert np.array_equal(stacked.values, separate.values)
        assert stacked.notes == separate.notes

    @pytest.mark.parametrize("bag_trials", [1, 3])
    def test_one_solver_stack_per_fit(self, monkeypatch, bag_trials):
        stacks = []
        original = optdmd._levenberg_marquardt

        def counting(tau, data_t, omegas):
            stacks.append(len(omegas))
            return original(tau, data_t, omegas)

        monkeypatch.setattr(optdmd, "_levenberg_marquardt", counting)
        latent = noisy_latent()
        fit_rkoi(latent, linear_sites(latent), bag_trials=bag_trials)
        assert stacks == [latent.n_params * bag_trials]


def states_at(model, mu, times):
    """The model's states at one parameter vector mu: its one-row block's
    latents, lifted."""
    return lift(predict_rkoi(model, [mu], times)[0], model.basis)


class TestPredictRkoi:
    def test_training_parameter_reproduced(self):
        _, _, latent = pipeline_latent(seed=2)
        model = fit_rkoi(latent, linear_sites(latent))
        latents = predict_rkoi(model, latent.params, latent.grid.instants)
        for i in range(latent.n_params):
            member = fit_optdmd(latent.trajectory(i), latent.rank)
            reference = latent.basis.modes_u @ predict_optdmd(
                member, latent.grid.instants
            )
            pred = lift(latents[i], latent.basis)
            assert frobenius_rel_error(reference, pred) <= 1e-8

    def test_initial_instant_matches_projected_state(self):
        dataset, _, latent = pipeline_latent(seed=4)
        model = fit_rkoi(latent, linear_sites(latent))
        i = 1
        truth = dataset.trajectories[i].state[:, 0]
        projected = latent.basis.modes_u @ (latent.basis.modes_u.T @ truth)
        pred = states_at(model, dataset.params[i], dataset.grid.t0)
        assert_allclose(pred, projected, atol=1e-6)

    def test_unseen_parameter_beyond_window(self):
        latent = decay_family([0.1, 0.2, 0.3], n_t=40, dt=0.25)
        model = fit_rkoi(latent, linear_sites(latent))
        target = 0.25
        horizon = np.linspace(0.0, 20.0, 81)
        pred = states_at(model, [target], horizon)
        truth = np.exp(-target * horizon)[None, :]
        assert frobenius_rel_error(truth, pred) <= 1e-3

    def test_prediction_is_real_without_residual_warning(self):
        latent = tone_family([0.0, 0.1, 0.2])
        model = fit_rkoi(latent, linear_sites(latent))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = predict_rkoi(model, [[0.15]], latent.grid.instants)[0]
        assert pred.dtype.kind == "f"

    def test_scalar_instant_gives_vector(self):
        latent = decay_family([0.1, 0.3])
        model = fit_rkoi(latent, linear_sites(latent))
        out = predict_rkoi(model, [[0.2]], 1.5)[0]
        assert out.shape == (1,)

    def test_online_phase_fits_no_regressor(self):
        latent = tone_family([0.0, 0.1, 0.2])
        model = fit_rkoi(latent, linear_sites(latent))
        with FitCount() as fits:
            predict_rkoi(model, [[0.15]], latent.grid.instants)
        assert fits.count == 0

    def test_one_row_block_reads_as_its_row(self):
        latent = decay_family([0.1, 0.3])
        model = fit_rkoi(latent, linear_sites(latent))
        rows = np.array([[0.1], [0.2], [0.3]])
        block = predict_rkoi(model, rows, latent.grid.instants)
        assert len(block) == 3
        for row, latents in zip(rows, block):
            assert latents.shape == (latent.rank, len(latent.grid))
            single = predict_rkoi(model, [row], latent.grid.instants)[0]
            assert latents.tobytes() == single.tobytes()
        with pytest.raises(DataError, match="n x p"):
            predict_rkoi(model, [0.2], latent.grid.instants)


def linear_operator_example():
    """Nine trajectories whose spectra cross between neighbouring
    parameters, so that rkoi's alignment notes fire."""
    dataset, _ = generate(SynthSpec("linear-operator", n_h=12, n_params=9, n_t=80, seed=7))
    return dataset


def grid_rows():
    """An equally spaced 3 x 3 grid of parameter 2-vectors."""
    axis = np.array([0.2, 0.5, 0.8])
    return np.array([[a, b] for a in axis for b in axis])


@pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
class TestRowOrder:
    """A fitted rkoi model depends on its training rows, not their order."""

    def assert_order_free(self, dataset, options, orders, mu):
        predictions = []
        for order in orders:
            rows = subset_params(dataset, order)
            fitted = fit_surrogate(rows, options)
            predictions.append(
                predict_surrogate(fitted.model, mu, rows.grid.instants)
            )
        for prediction in predictions[1:]:
            assert frobenius_rel_error(predictions[0], prediction) <= 1e-12

    def test_crossing_spectra(self):
        self.assert_order_free(
            linear_operator_example(),
            FitOptions("rkoi", rank=6),
            [range(9), [4, 0, 8, 2, 6, 1, 7, 3, 5]],
            [0.52],
        )

    def test_bagged_members(self):
        dataset, _ = generate(
            SynthSpec(
                "exp-modes", n_h=10, n_params=5, param_range=(0.2, 0.8),
                n_t=60, dt=0.1, noise_std=0.01, seed=1,
            )
        )
        self.assert_order_free(
            dataset,
            FitOptions("rkoi", rank=4, bag_trials=3),
            [range(5), [4, 3, 2, 1, 0]],
            [0.45],
        )

    def test_parameter_grid(self):
        dataset = ParametricDataset(grid_rows(), linear_operator_example().trajectories)
        rng = np.random.default_rng(0)
        self.assert_order_free(
            dataset,
            FitOptions("rkoi", rank=6, regressor=RegressorSpec("rbf-gauss")),
            [range(9)] + [rng.permutation(9) for _ in range(3)],
            [0.35, 0.65],
        )


class TestAlignmentTree:
    @staticmethod
    def edges(params):
        _, order, parents = alignment_tree(params)
        return {
            frozenset((tuple(params[i]), tuple(params[parents[i]]))) for i in order[1:]
        }

    def test_grid_edges_ignore_row_order(self):
        # a sample of the 9! row orders: ties between the grid's 12 equal
        # edges must break the same way in each
        params = grid_rows()
        reference = self.edges(params)
        assert len(reference) == 8
        rng = np.random.default_rng(1)
        for _ in range(500):
            assert self.edges(params[rng.permutation(9)]) == reference

    def test_scalar_rows_form_the_sorted_chain(self):
        params = np.array([[0.7], [0.1], [0.4], [0.9], [0.2]])
        ranked, order, parents = alignment_tree(params)
        assert ranked.tolist() == [1, 4, 2, 0, 3]
        assert order.tolist() == ranked.tolist()
        assert parents.tolist() == [2, -1, 4, 0, 1]


def fit_rkoi_beside(monkeypatch, latent, other):
    """Fit rkoi on ``latent`` while a second thread runs ``other`` inside
    the members' stacked fit.  Returns (model, [(thread name, category,
    message)] for every warning shown)."""
    member_fitting, other_done = threading.Event(), threading.Event()
    original_fit = rkoi_module.fit_ensembles
    waited = []

    def fit_after_other(*args, **kwargs):
        if not waited:
            member_fitting.set()
            waited.append(other_done.wait(timeout=30))
        return original_fit(*args, **kwargs)

    def run_other():
        try:
            member_fitting.wait(timeout=30)
            other()
        finally:
            other_done.set()

    shown = []

    def record(message, category, filename, lineno, file=None, line=None):
        shown.append((threading.current_thread().name, category, str(message)))

    monkeypatch.setattr(rkoi_module, "fit_ensembles", fit_after_other)
    worker = threading.Thread(target=run_other, name="other")
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = record
        worker.start()
        model = fit_rkoi(latent, linear_sites(latent))
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert waited == [True]
    return model, shown


class TestWarningsStayInTheirThread:
    """A fit's notes hold its own members' reports, and every thread sees
    its own warnings, whatever runs beside the fit."""

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_notes_take_nothing_from_another_threads_fit(self, monkeypatch):
        monkeypatch.setattr(optdmd, "_MAX_ITERS", 1)
        _, _, latent = pipeline_latent()
        alone = fit_rkoi(latent, linear_sites(latent)).notes
        instants = np.linspace(0, 5, 61)
        signal = np.cos(2.0 * instants) + 0.05 * np.sin(7.3 * instants)
        stopped = []

        def fit_stopping_early():
            x = SnapshotMatrix(signal[None, :], TimeGrid(instants))
            stopped.append(not optdmd.fit_optdmd(x, rank=2).converged)

        model, shown = fit_rkoi_beside(monkeypatch, latent, fit_stopping_early)
        assert model.notes == alone
        assert stopped == [True]
        theirs = [(category, message) for name, category, message in shown if name == "other"]
        assert len(theirs) == 1
        assert theirs[0][0] is ConvergenceWarning
        assert "stopped after 1 iterations" in theirs[0][1]

    def test_clamped_query_warns_its_own_thread(self, monkeypatch):
        latent = tone_family([0.0, 0.1, 0.2])
        sites = regression.prepare(RegressorSpec("linear"), [[0.0], [1.0]])
        model, shown = fit_rkoi_beside(monkeypatch, latent, lambda: stencil(sites, [5.0]))
        assert model.notes == ()
        assert [(name, category) for name, category, _ in shown] == [
            ("other", ExtrapolationWarning)
        ]
