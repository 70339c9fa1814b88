"""Tests for the synthetic ground-truth generator."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.dmd import fit_dmd
from pdmd.errors import DataError
from pdmd.synth import (
    ExpMode,
    SynthSpec,
    generate,
    spec_to_json,
)


class TestLinearOperatorFamily:
    def test_zero_slope_trajectories_identical(self):
        rng = np.random.default_rng(0)
        base = 0.9 * np.linalg.qr(rng.standard_normal((4, 4)))[0]
        spec = SynthSpec(
            "linear-operator",
            n_h=4,
            n_params=3,
            n_t=20,
            op_base=base,
            op_slope=np.zeros((4, 4)),
            init_state=np.ones(4),
        )
        dataset, _ = generate(spec)
        for traj in dataset.trajectories[1:]:
            assert_allclose(traj.state, dataset.trajectories[0].state)

    def test_oracle_matches_repeated_multiplication(self):
        spec = SynthSpec("linear-operator", n_h=6, n_params=3, n_t=15, seed=3)
        dataset, oracle = generate(spec)
        mu = dataset.params[1, 0]
        op = oracle.op_base + mu * oracle.op_slope
        state = oracle.init_state.copy()
        for k in range(8):
            assert_allclose(oracle.eval(mu, spec.t0 + k * spec.dt), state, atol=1e-12)
            state = op @ state

    def test_dataset_columns_equal_oracle(self):
        spec = SynthSpec("linear-operator", n_h=5, n_params=2, n_t=12, seed=1)
        dataset, oracle = generate(spec)
        for i, traj in enumerate(dataset.trajectories):
            mu = dataset.params[i, 0]
            for k, t in enumerate(dataset.grid.instants):
                assert_allclose(traj.state[:, k], oracle.eval(mu, t), atol=1e-12)

    def test_off_lattice_rejected(self):
        spec = SynthSpec("linear-operator", n_h=3, n_params=2, n_t=10, dt=0.5)
        _, oracle = generate(spec)
        with pytest.raises(DataError, match="lattice"):
            oracle.eval(0.5, 0.25)

    def test_stability_over_range(self):
        spec = SynthSpec(
            "linear-operator", n_h=8, n_params=4, param_range=(-2.0, 3.0), seed=7
        )
        _, oracle = generate(spec)
        for mu in np.linspace(-2.0, 3.0, 41):
            radius = np.max(
                np.abs(np.linalg.eigvals(oracle.op_base + mu * oracle.op_slope))
            )
            assert radius <= 1.0 + 1e-12

    def test_unstable_explicit_family_rejected(self):
        spec = SynthSpec(
            "linear-operator",
            n_h=2,
            n_params=2,
            op_base=np.diag([1.5, 0.5]),
            op_slope=np.zeros((2, 2)),
            init_state=np.ones(2),
        )
        with pytest.raises(DataError, match="unstable"):
            generate(spec)

    def test_dmd_recovers_spectrum(self):
        spec = SynthSpec("linear-operator", n_h=6, n_params=3, n_t=40, seed=11)
        dataset, oracle = generate(spec)
        mu = dataset.params[2, 0]
        truth = np.sort_complex(
            np.linalg.eigvals(oracle.op_base + mu * oracle.op_slope)
        )
        model = fit_dmd(dataset.trajectories[2], rank=6)
        assert_allclose(np.sort_complex(model.eigenvalues), truth, atol=1e-8)


class TestExpModesFamily:
    def test_zero_frequency_mode_is_constant(self):
        mode = ExpMode(np.array([1.0 + 0j, 2.0, -1.0]), np.array([1.0 + 0j]), 0j)
        spec = SynthSpec("exp-modes", n_h=3, n_params=2, n_t=8, modes=(mode,))
        dataset, _ = generate(spec)
        for traj in dataset.trajectories:
            for k in range(8):
                assert_allclose(traj.state[:, k], [1.0, 2.0, -1.0], atol=1e-14)

    def test_oracle_matches_direct_formula(self):
        spec = SynthSpec("exp-modes", n_h=4, n_params=3, n_t=10, seed=5)
        _, oracle = generate(spec)
        mu, t = 0.35, 1.27
        expected = np.zeros(4)
        for mode in oracle.modes:
            expected = expected + np.real(
                mode.coeff(mu) * np.exp(mode.omega(mu) * (t - oracle.t0)) * mode.mode
            )
        assert_allclose(oracle.eval(mu, t), expected, atol=1e-14)

    def test_arbitrary_instants_allowed(self):
        spec = SynthSpec("exp-modes", n_h=4, n_params=2, n_t=10, seed=2)
        _, oracle = generate(spec)
        assert np.all(np.isfinite(oracle.eval(0.1, 0.123456)))


class TestLiftedOscillator:
    def test_initial_condition(self):
        spec = SynthSpec("lifted-oscillator", n_h=7, n_params=3, n_t=20, seed=4)
        dataset, oracle = generate(spec)
        for i in range(3):
            assert_allclose(
                dataset.trajectories[i].state[:, 0],
                oracle.lift_frame @ np.array([1.0, 0.0]),
                atol=1e-14,
            )

    def test_orbit_norm_preserved(self):
        spec = SynthSpec("lifted-oscillator", n_h=5, n_params=2, n_t=30, seed=9)
        dataset, _ = generate(spec)
        norms = np.linalg.norm(dataset.trajectories[0].state, axis=0)
        assert_allclose(norms, np.ones(30), atol=1e-12)

    def test_frequency_depends_on_parameter(self):
        spec = SynthSpec("lifted-oscillator", n_h=4, n_params=2, n_t=40, seed=6)
        dataset, _ = generate(spec)
        a = dataset.trajectories[0].state
        b = dataset.trajectories[1].state
        assert np.linalg.norm(a - b) > 1e-3


class TestDeterminismAndNoise:
    def test_seeded_bitwise_reproducibility(self):
        spec = SynthSpec("linear-operator", n_h=5, n_params=3, n_t=25, seed=42)
        first, _ = generate(spec)
        second, _ = generate(spec)
        for a, b in zip(first.trajectories, second.trajectories):
            assert np.array_equal(a.state, b.state)

    def test_zero_noise_matches_noiseless_bitwise(self):
        base = SynthSpec("exp-modes", n_h=4, n_params=2, n_t=15, seed=8)
        noisy_zero = SynthSpec("exp-modes", n_h=4, n_params=2, n_t=15, seed=8, noise_std=0.0)
        a, _ = generate(base)
        b, _ = generate(noisy_zero)
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert np.array_equal(ta.state, tb.state)

    def test_noise_perturbs_data_not_oracle(self):
        clean_spec = SynthSpec("exp-modes", n_h=4, n_params=2, n_t=15, seed=8)
        noisy_spec = SynthSpec(
            "exp-modes", n_h=4, n_params=2, n_t=15, seed=8, noise_std=0.01
        )
        clean, clean_oracle = generate(clean_spec)
        noisy, noisy_oracle = generate(noisy_spec)
        assert not np.array_equal(
            clean.trajectories[0].state, noisy.trajectories[0].state
        )
        assert_allclose(
            clean_oracle.eval(0.2, 0.5), noisy_oracle.eval(0.2, 0.5), atol=1e-14
        )

    def test_noise_reproducible(self):
        spec = SynthSpec("exp-modes", n_h=3, n_params=2, n_t=10, seed=1, noise_std=0.05)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.trajectories[0].state, b.trajectories[0].state)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(DataError):
            SynthSpec("chaos")

    def test_bad_param_range(self):
        with pytest.raises(DataError):
            SynthSpec("exp-modes", param_range=(1.0, 1.0))

    def test_json_round_trip(self):
        spec = SynthSpec(
            "lifted-oscillator",
            n_h=12,
            n_params=6,
            param_range=(0.5, 2.0),
            n_t=64,
            dt=0.05,
            noise_std=0.01,
            seed=123,
        )
        payload = json.loads(spec_to_json(spec))
        payload["param_range"] = tuple(payload["param_range"])
        assert SynthSpec(**payload) == spec

    def test_explicit_spec_not_serializable(self):
        mode = ExpMode(np.ones(2, dtype=complex), np.array([1.0 + 0j]), 0j)
        spec = SynthSpec("exp-modes", n_h=2, modes=(mode,))
        with pytest.raises(DataError):
            spec_to_json(spec)
