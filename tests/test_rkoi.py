"""Tests for continuous-spectrum surrogate interpolation."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.data import TimeGrid
from pdmd.errors import DataError
from pdmd.metrics import frobenius_rel_error
from pdmd.optdmd import fit_optdmd, predict_optdmd
from pdmd.reduction import GlobalBasis, LatentDataset, fit_global_basis, project
from pdmd.regression import FitCount, RegressorSpec, predict
from pdmd.rkoi import fit_rkoi, predict_rkoi
from pdmd.synth import SynthSpec, generate


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


class TestFitRkoi:
    def test_single_parameter_constant_surrogate(self):
        latent = decay_family([0.2])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        member = fit_optdmd(latent.trajectory(0), 1)
        for mu in ([0.2], [0.05], [0.9]):
            omega = predict(model.omega_regressor, mu)
            assert_allclose(omega, member.omegas, atol=1e-10)

    def test_decay_rate_interpolates(self):
        latent = decay_family([0.1, 0.2, 0.3])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        omega = predict(model.omega_regressor, [0.25])
        assert_allclose(omega.real, [-0.25], atol=1e-4)

    def test_tone_frequency_interpolates(self):
        latent = tone_family([0.0, 0.2])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        omegas = predict(model.omega_regressor, [0.1])
        assert_allclose(np.sort(omegas.imag), [-1.1, 1.1], atol=1e-3)
        assert_allclose(omegas.real, 0.0, atol=1e-3)

    def test_smooth_family_has_no_alignment_notes(self):
        latent = tone_family([0.0, 0.1, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        assert model.notes == ()

    def test_too_few_instants_rejected(self):
        latent = tone_family([0.0, 0.2], n_t=3)
        with pytest.raises(DataError):
            fit_rkoi(latent, spec=RegressorSpec("linear"))


class TestPredictRkoi:
    def test_training_parameter_reproduced(self):
        _, _, latent = pipeline_latent(seed=2)
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        for i in range(latent.n_params):
            member = fit_optdmd(latent.trajectory(i), latent.rank)
            reference = latent.basis.modes_u @ predict_optdmd(
                member, latent.grid.instants
            )
            pred = predict_rkoi(model, latent.params[i], latent.grid.instants)
            assert frobenius_rel_error(reference, pred) <= 1e-8

    def test_initial_instant_matches_projected_state(self):
        dataset, _, latent = pipeline_latent(seed=4)
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        i = 1
        truth = dataset.trajectories[i].state[:, 0]
        projected = latent.basis.modes_u @ (latent.basis.modes_u.T @ truth)
        pred = predict_rkoi(model, dataset.params[i], dataset.grid.t0)
        assert_allclose(pred, projected, atol=1e-6)

    def test_unseen_parameter_beyond_window(self):
        latent = decay_family([0.1, 0.2, 0.3], n_t=40, dt=0.25)
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        target = 0.25
        horizon = np.linspace(0.0, 20.0, 81)
        pred = predict_rkoi(model, [target], horizon)
        truth = np.exp(-target * horizon)[None, :]
        assert frobenius_rel_error(truth, pred) <= 1e-3

    def test_prediction_is_real_without_residual_warning(self):
        latent = tone_family([0.0, 0.1, 0.2])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = predict_rkoi(model, [0.15], latent.grid.instants)
        assert pred.dtype.kind == "f"

    def test_scalar_instant_gives_vector(self):
        latent = decay_family([0.1, 0.3])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        out = predict_rkoi(model, [0.2], 1.5)
        assert out.shape == (1,)

    def test_online_phase_fits_no_regressor(self):
        latent = tone_family([0.0, 0.1, 0.2])
        model = fit_rkoi(latent, spec=RegressorSpec("linear"))
        with FitCount() as fits:
            predict_rkoi(model, [0.15], latent.grid.instants)
        assert fits.count == 0
