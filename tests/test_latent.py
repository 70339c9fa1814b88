"""Tests for latent-trajectory interpolation surrogates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import dmd, latent as latent_module, regression
from pdmd.bench import default_suite
from pdmd.data import TimeGrid, lattice_steps, split_train_test
from pdmd.dmd import fit_dmd, reconstruct
from pdmd.errors import DataError
from pdmd.latent import (
    MonolithicModel,
    fit_monolithic,
    fit_partitioned,
    predict_latent,
)
from pdmd.metrics import frobenius_rel_error
from pdmd.pipeline import FitOptions, fit_surrogate
from pdmd.reduction import GlobalBasis, LatentDataset, lift
from pdmd.regression import FitCount, RegressorSpec
from pdmd.synth import generate


def rotation(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def identity_basis(rank, n_state=None):
    n_state = rank if n_state is None else n_state
    return GlobalBasis(np.eye(n_state)[:, :rank], np.ones(rank), 1.0)


def orbit(op, x0, n_t):
    states = np.empty((len(x0), n_t))
    states[:, 0] = x0
    for k in range(1, n_t):
        states[:, k] = op @ states[:, k - 1]
    return states


def two_block_family(n_t=30):
    """Two parameters with different rotation speeds."""
    grid = TimeGrid(np.arange(float(n_t)))
    ops = (rotation(0.95, 0.3), rotation(0.9, 0.7))
    latents = tuple(orbit(op, [1.0, 0.0], n_t) for op in ops)
    params = np.array([[0.0], [1.0]])
    return LatentDataset(identity_basis(2), params, latents, grid), ops


def scaled_family(mus, n_t=30):
    """Shared dynamics, amplitude linear in the parameter."""
    grid = TimeGrid(np.arange(float(n_t)))
    base = orbit(rotation(0.95, 0.5), [1.0, 0.4], n_t)
    latents = tuple(mu * base for mu in mus)
    params = np.asarray(mus, dtype=float)[:, None]
    return LatentDataset(identity_basis(2), params, latents, grid), base


def advance(model, step):
    """State of one DMD at 0-based lattice step ``step``, evaluated on its
    own: modes @ (eigenvalues ** step * amplitudes)."""
    return (model.modes @ (model.eigenvalues**step * model.amplitudes)).real


def per_step_prediction(model, mu, times, spec):
    """Reference oracle for predict_latent: every DMD advanced separately
    to each requested instant, then one regressor fit per instant."""
    steps = lattice_steps(times, model.t0, model.dt)
    effective = regression.effective_spec(spec, model.params.shape[0])
    columns = []
    for step in steps:
        if isinstance(model, MonolithicModel):
            stacked = advance(model.stacked_dmd, step)
            states = np.vstack([stacked[a:b] for a, b in model.block_map])
        else:
            states = np.vstack([advance(member, step) for member in model.members])
        regressor = regression.fit(effective, model.params, states)
        columns.append(regression.predict(regressor, mu))
    return lift(np.column_stack(columns), model.basis)


def predict_one(model, mu, times, spec):
    """State trajectory at one parameter vector: predict_latent on a
    one-row block, lifted."""
    return lift(predict_latent(model, [mu], times, spec)[0], model.basis)


class TestFitMonolithic:
    def test_single_parameter_matches_plain_fit(self):
        latent, _ = two_block_family()
        single = LatentDataset(
            latent.basis, latent.params[:1], latent.latents[:1], latent.grid
        )
        model = fit_monolithic(single)
        reference = fit_dmd(single.trajectory(0), 2)
        assert_allclose(
            model.stacked_dmd.eigenvalues, reference.eigenvalues, atol=1e-12
        )

    def test_decoupled_blocks_give_union_spectrum(self):
        latent, ops = two_block_family()
        model = fit_monolithic(latent, stacked_rank=4)
        expected = np.concatenate([np.linalg.eigvals(op) for op in ops])
        got = np.sort_complex(model.stacked_dmd.eigenvalues)
        assert_allclose(got, np.sort_complex(expected), atol=1e-8)

    def test_full_rank_training_reconstruction(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent, stacked_rank=4)
        stacked = np.vstack(latent.latents)
        rebuilt = reconstruct(model.stacked_dmd, latent.grid).state
        assert frobenius_rel_error(stacked, rebuilt) <= 1e-8

    def test_block_slices_match_standalone_fits(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent, stacked_rank=4)
        rebuilt = reconstruct(model.stacked_dmd, latent.grid).state
        for i in range(latent.n_params):
            lo, hi = model.block_map[i]
            standalone = reconstruct(
                fit_dmd(latent.trajectory(i), 2), latent.grid
            ).state
            assert frobenius_rel_error(standalone, rebuilt[lo:hi]) <= 1e-7

    def test_rank_deficient_stack_is_clipped(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        model = fit_monolithic(latent)
        assert model.stacked_dmd.rank == 2


class TestFitPartitioned:
    def test_members_recover_spectra(self):
        latent, ops = two_block_family()
        model = fit_partitioned(latent)
        for member, op in zip(model.members, ops):
            assert_allclose(
                np.sort_complex(member.eigenvalues),
                np.sort_complex(np.linalg.eigvals(op)),
                atol=1e-8,
            )

    def test_member_rank_validation(self):
        latent, _ = two_block_family()
        with pytest.raises(DataError):
            fit_partitioned(latent, member_rank=3)


class TestPredictLatent:
    def test_training_parameter_matches_member(self):
        latent, _ = two_block_family()
        spec = RegressorSpec("linear")
        for model in (
            fit_monolithic(latent, stacked_rank=4),
            fit_partitioned(latent),
        ):
            member = fit_dmd(latent.trajectory(1), 2)
            reference = lift(reconstruct(member, latent.grid).state, latent.basis)
            pred = predict_one(model, latent.params[1], latent.grid.instants, spec)
            assert frobenius_rel_error(reference, pred) <= 1e-9

    def test_amplitude_family_exact_at_unseen_parameter(self):
        latent, base = scaled_family([0.5, 1.0, 1.5])
        spec = RegressorSpec("linear")
        target = 0.75
        truth = target * base
        for model in (fit_monolithic(latent), fit_partitioned(latent)):
            pred = predict_one(
                model, [target], latent.grid.instants, spec
            )
            assert frobenius_rel_error(truth, pred) <= 1e-8

    def test_variants_agree_on_smooth_family(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        spec = RegressorSpec("linear")
        times = latent.grid.instants[:10]
        mono = predict_one(fit_monolithic(latent), [0.8], times, spec)
        part = predict_one(fit_partitioned(latent), [0.8], times, spec)
        assert_allclose(mono, part, atol=1e-7)

    def test_single_instant_single_column(self):
        latent, _ = scaled_family([0.5, 1.0])
        model = fit_partitioned(latent)
        out = predict_one(model, [0.7], latent.grid.instants[3:4], RegressorSpec("linear"))
        assert out.shape == (2, 1)

    def test_regressor_fit_per_requested_instant(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        spec = RegressorSpec("linear")
        for model in (fit_monolithic(latent), fit_partitioned(latent)):
            with FitCount() as fits:
                predict_one(model, [0.8], latent.grid.instants[:5], spec)
            assert fits.count == 5

    def test_member_order_invariance(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        flipped = LatentDataset(
            latent.basis,
            latent.params[::-1].copy(),
            latent.latents[::-1],
            latent.grid,
        )
        spec = RegressorSpec("linear")
        times = latent.grid.instants[:8]
        assert_allclose(
            predict_one(fit_partitioned(latent), [0.9], times, spec),
            predict_one(fit_partitioned(flipped), [0.9], times, spec),
            atol=1e-10,
        )

    def test_off_lattice_instant_rejected(self):
        latent, _ = scaled_family([0.5, 1.0])
        model = fit_partitioned(latent)
        with pytest.raises(DataError, match="lattice"):
            predict_one(model, [0.7], np.array([0.5]), RegressorSpec("linear"))

    def test_single_parameter_degrades_to_nearest(self):
        latent, base = scaled_family([1.0])
        model = fit_partitioned(latent)
        with pytest.warns(Warning, match="clamped"):
            pred = predict_one(
                model, [3.0], latent.grid.instants, RegressorSpec("linear")
            )
        member = fit_dmd(latent.trajectory(0), 2)
        reference = lift(reconstruct(member, latent.grid).state, latent.basis)
        assert_allclose(pred, reference, atol=1e-10)

    def test_each_dmd_evaluated_once_per_query(self, monkeypatch):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        evaluated = []

        def counting_evaluate(model, steps):
            evaluated.append(model)
            return dmd.evaluate(model, steps)

        monkeypatch.setattr(latent_module, "evaluate", counting_evaluate)
        times = latent.grid.instants[:7]
        spec = RegressorSpec("linear")
        part = fit_partitioned(latent)
        mono = fit_monolithic(latent)
        for model, expected in ((part, part.members), (mono, [mono.stacked_dmd])):
            evaluated.clear()
            predict_one(model, [0.8], times, spec)
            assert [id(m) for m in evaluated] == [id(m) for m in expected]


@pytest.mark.parametrize("scenario", default_suite().scenarios, ids=lambda s: s.name)
def test_matches_per_step_oracle_on_default_suite(scenario):
    dataset, _ = generate(scenario.synth)
    train, test = split_train_test(dataset, scenario.test_indices)
    # the training lattice and a forecast half as long again
    grid = dataset.grid
    times = grid.t0 + grid.dt * np.arange(3 * len(grid) // 2)
    for algorithm in ("mono", "part"):
        options = FitOptions(algorithm, rank=scenario.ranks[algorithm])
        fitted = fit_surrogate(train, options)
        for mu in test.params:
            pred = predict_one(fitted.model, mu, times, fitted.regressor)
            oracle = per_step_prediction(fitted.model, mu, times, fitted.regressor)
            assert frobenius_rel_error(oracle, pred) <= 1e-12
