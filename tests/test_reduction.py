"""Tests for the shared spatial basis, projection and lift."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import reduction
from pdmd.algorithms import ALGORITHMS
from pdmd.bench import default_suite
from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid
from pdmd.errors import DataError, NumericalError
from pdmd.linalg import scale_exponent, select_rank
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate
from pdmd.reduction import (
    DEFAULT_ENERGY,
    GlobalBasis,
    _gram_factors,
    fit_global_basis,
    lift,
    project,
)
from pdmd.synth import ExpMode, SynthSpec, generate


def make_dataset(n_params=3, n_state=8, n_t=5, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 1.0, n_t))
    params = np.arange(n_params, dtype=float)[:, None]
    trajectories = tuple(
        SnapshotMatrix(rng.standard_normal((n_state, n_t)), grid)
        for _ in range(n_params)
    )
    return ParametricDataset(params, trajectories)


def subspace_dataset(n_params=4, n_state=10, n_t=6, dim=3, seed=1):
    """Trajectories confined to a fixed dim-dimensional subspace."""
    rng = np.random.default_rng(seed)
    span, _ = np.linalg.qr(rng.standard_normal((n_state, dim)))
    grid = TimeGrid(np.linspace(0.0, 1.0, n_t))
    params = np.arange(n_params, dtype=float)[:, None]
    trajectories = tuple(
        SnapshotMatrix(span @ rng.standard_normal((dim, n_t)), grid)
        for _ in range(n_params)
    )
    return ParametricDataset(params, trajectories), span


class TestFitGlobalBasis:
    def test_subspace_captured(self):
        ds, span = subspace_dataset()
        basis = fit_global_basis(ds, rank=3)
        stacked = np.hstack(ds.states())
        residual = stacked - basis.modes_u @ (basis.modes_u.T @ stacked)
        assert np.linalg.norm(residual) <= 1e-10
        assert basis.energy_captured == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_energy_is_one(self):
        ds = make_dataset(n_params=2, n_state=4, n_t=3)
        basis = fit_global_basis(ds, rank=4)
        assert basis.energy_captured == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_columns(self):
        ds = make_dataset(seed=5)
        basis = fit_global_basis(ds, rank=4)
        assert_allclose(basis.modes_u.T @ basis.modes_u, np.eye(4), atol=1e-10)

    def test_truncation_residual_equals_tail(self):
        ds = make_dataset(n_params=3, n_state=6, n_t=4, seed=3)
        stacked = np.hstack(ds.states())
        s = np.linalg.svd(stacked, compute_uv=False)
        basis = fit_global_basis(ds, rank=3)
        residual = np.linalg.norm(stacked - basis.modes_u @ (basis.modes_u.T @ stacked)) ** 2
        assert_allclose(residual, np.sum(s[3:] ** 2), rtol=1e-9)

    def test_rank_out_of_range(self):
        ds = make_dataset(n_params=2, n_state=4, n_t=3)
        with pytest.raises(DataError):
            fit_global_basis(ds, rank=7)


def stacked_svd(dataset):
    """Reference: thin SVD of the explicit N_h x N_t*N_p stack."""
    return np.linalg.svd(np.hstack(dataset.states()), full_matrices=False)


def exp_modes_dataset():
    """Tall blocks (60 x 30) spanning six real dimensions in all."""
    spec = SynthSpec(
        "exp-modes", n_h=60, n_params=5, param_range=(0.2, 0.8), n_t=30,
        dt=0.08, seed=23,
    )
    return generate(spec)[0]


TWO_LEVEL_CASES = {
    "tall": lambda: make_dataset(n_params=4, n_state=40, n_t=8, seed=6),
    "wide": lambda: make_dataset(n_params=3, n_state=8, n_t=20, seed=7),
    "exp-modes": exp_modes_dataset,
}


class TestTwoLevelBasis:
    """The basis built from per-trajectory factors against the stacked SVD."""

    @pytest.mark.parametrize(
        "case, rank",
        [("tall", 3), ("tall", 32), ("wide", 3), ("wide", 8),
         ("exp-modes", 2), ("exp-modes", 6)],
    )
    def test_matches_stacked_svd(self, case, rank):
        dataset = TWO_LEVEL_CASES[case]()
        u, s, _ = stacked_svd(dataset)
        basis = fit_global_basis(dataset, rank)
        assert_allclose(basis.singular_values, s[:rank], rtol=1e-12)
        cosines = np.linalg.svd(basis.modes_u.T @ u[:, :rank], compute_uv=False)
        assert np.min(cosines) >= 1 - 1e-12
        energy = np.sum(s[:rank] ** 2) / np.sum(s**2)
        assert basis.energy_captured == pytest.approx(energy, abs=1e-14)

    @pytest.mark.parametrize("case", list(TWO_LEVEL_CASES))
    def test_energy_rank_matches_stacked(self, case):
        dataset = TWO_LEVEL_CASES[case]()
        s = stacked_svd(dataset)[1]
        for energy in (0.9, 0.99, DEFAULT_ENERGY, 1.0):
            basis = fit_global_basis(dataset, None, energy=energy)
            assert basis.rank == select_rank(s, energy, s.size)

    def test_rank_above_numerical_rank_is_orthonormal(self):
        # one 60 x 30 trajectory of numerical rank 6: rank 10 is within
        # the data limit but needs columns below rounding level
        full = exp_modes_dataset()
        dataset = ParametricDataset(full.params[:1], full.trajectories[:1])
        basis = fit_global_basis(dataset, 10)
        assert basis.rank == 10
        assert_allclose(basis.modes_u.T @ basis.modes_u, np.eye(10), atol=1e-12)

    def test_energy_rank_on_default_suite(self):
        for scenario in default_suite().scenarios:
            dataset = generate(scenario.synth)[0]
            s = np.linalg.svd(np.hstack(dataset.states()), compute_uv=False)
            basis = fit_global_basis(dataset, None)
            assert basis.rank == select_rank(s, DEFAULT_ENERGY, s.size), scenario.name

    @pytest.mark.parametrize("rank", [None, 1])
    def test_all_zero_snapshots_rejected(self, rank):
        grid = TimeGrid(np.linspace(0.0, 1.0, 12))
        dataset = ParametricDataset(
            np.arange(3.0)[:, None],
            tuple(SnapshotMatrix(np.zeros((6, 12)), grid) for _ in range(3)),
        )
        with pytest.raises(DataError, match="all-zero"):
            fit_global_basis(dataset, rank)


def graded_block(singular_values, n_state=200, n_t=30, seed=0):
    """An n_state x n_t block with the given leading singular values."""
    rng = np.random.default_rng(seed)
    left, _ = np.linalg.qr(rng.standard_normal((n_state, n_t)))
    right, _ = np.linalg.qr(rng.standard_normal((n_t, n_t)))
    s = np.zeros(n_t)
    s[: len(singular_values)] = singular_values
    return (left * s) @ right.T


def noisy_block():
    rng = np.random.default_rng(3)
    return graded_block(np.geomspace(1.0, 1e-2, 6)) + 1e-3 * rng.standard_normal((200, 30))


FACTOR_BLOCKS = {
    "rank-6": lambda: graded_block(np.geomspace(1.0, 1e-2, 6)),
    "graded-1e-14": lambda: graded_block(np.geomspace(1.0, 1e-14, 30)),
    "noisy-full-rank": noisy_block,
    "zeros": lambda: np.zeros((200, 30)),
}


class TestGramFactors:
    """Per-trajectory factors F with F F^T = A A^T to rounding."""

    @pytest.mark.parametrize("case", list(FACTOR_BLOCKS))
    def test_factor_reproduces_the_block_gram(self, case):
        block = FACTOR_BLOCKS[case]()
        factor = _gram_factors([block], 1)
        error = np.linalg.norm(factor @ factor.T - block @ block.T, 2)
        assert error <= 1e-13 * np.linalg.norm(block, 2) ** 2

    @pytest.mark.parametrize("case", list(FACTOR_BLOCKS))
    def test_factor_matches_the_block_svd(self, case):
        block = FACTOR_BLOCKS[case]()
        u, s, _ = np.linalg.svd(block, full_matrices=False)
        uf, sf, _ = np.linalg.svd(_gram_factors([block], 1), full_matrices=False)
        assert np.max(np.abs(sf[:6] - s[:6])) <= 1e-14 * s[0]
        if s[0] > 0:
            cosines = np.linalg.svd(uf[:, :6].T @ u[:, :6], compute_uv=False)
            assert np.min(cosines) >= 1 - 1e-14

    def test_concatenated_factors_match_the_stacked_svd(self):
        blocks = [FACTOR_BLOCKS[case]() for case in FACTOR_BLOCKS]
        u, s, _ = np.linalg.svd(np.hstack(blocks), full_matrices=False)
        uf, sf, _ = np.linalg.svd(_gram_factors(blocks, 1), full_matrices=False)
        assert np.max(np.abs(sf[:6] - s[:6])) <= 1e-14 * s[0]
        cosines = np.linalg.svd(uf[:, :6].T @ u[:, :6], compute_uv=False)
        assert np.min(cosines) >= 1 - 1e-14

    def test_min_columns_above_the_numerical_rank(self):
        block = FACTOR_BLOCKS["rank-6"]()
        assert _gram_factors([block], 1).shape[1] == 6
        factor = _gram_factors([block], 10)
        assert factor.shape[1] == 10
        norms = np.linalg.norm(factor, axis=0)
        assert np.all(np.diff(norms) <= 0)
        error = np.linalg.norm(factor @ factor.T - block @ block.T, 2)
        assert error <= 1e-13 * np.linalg.norm(block, 2) ** 2

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_exact_rank_family_keeps_k_columns_per_block(self, k):
        # k/2 complex modes with orthonormal real and imaginary parts give
        # tall 200 x 40 blocks of exact rank k and a spectrum spanning less
        # than one decade, so every dropped column lies at rounding level
        shapes, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((200, k)))
        modes = tuple(
            ExpMode(shapes[:, 2 * j] + 1j * shapes[:, 2 * j + 1], np.array([1.0, 0.5]),
                    -0.05 + (1.0 + j) * 1j, 0.3j)
            for j in range(k // 2)
        )
        spec = SynthSpec("exp-modes", n_h=200, n_params=5, param_range=(0.2, 0.8),
                         n_t=40, dt=0.2, modes=modes)
        states = generate(spec)[0].states()
        for block in states:
            factor = _gram_factors([block], 1)
            assert factor.shape == (200, k)
            error = np.linalg.norm(factor @ factor.T - block @ block.T, 2)
            assert error <= 1e-13 * np.linalg.norm(block, 2) ** 2
        assert _gram_factors(states, 1).shape == (200, k * len(states))

    def test_reused_rotation_buffer_matches_fresh_products(self):
        # tall blocks of two shapes, in turn and with a wide block between,
        # one of them F-ordered: the factors must be the ones made from a
        # fresh block @ V for each block, byte for byte
        rng = np.random.default_rng(11)
        blocks = [
            graded_block(np.geomspace(1.0, 1e-3, 8), n_state=120, seed=1),
            np.asfortranarray(graded_block(np.geomspace(2.0, 1e-1, 5), n_state=120, seed=2)),
            graded_block(np.geomspace(1.0, 1e-6, 12), n_state=120, n_t=20, seed=3),
            rng.standard_normal((120, 150)),
            graded_block(np.geomspace(3.0, 1e-2, 6), n_state=120, seed=4),
            graded_block(np.geomspace(1.0, 1e-2, 4), n_state=120, n_t=20, seed=5),
        ]

        def fresh(block, min_columns):
            if block.shape[0] <= block.shape[1]:
                return np.linalg.qr(block.T, mode="r").T
            rotated = block @ np.linalg.eigh(block.T @ block)[1]
            norms = np.sqrt(np.einsum("ij,ij->j", rotated, rotated))
            order = np.argsort(-norms, kind="stable")
            cutoff = norms[order[0]] * max(block.shape) * np.finfo(float).eps
            keep = max(int(np.count_nonzero(norms > cutoff)), min_columns)
            return rotated[:, order[:keep]]

        for min_columns in (1, 9):
            reference = np.hstack([fresh(block, min_columns) for block in blocks])
            assert _gram_factors(blocks, min_columns).tobytes() == reference.tobytes()

    def test_basis_independent_of_array_layout(self):
        dataset = exp_modes_dataset()
        aligned = fit_global_basis(dataset, None)

        def unaligned(state):
            raw = np.zeros(state.size * 8 + 1, dtype=np.uint8)
            copy = raw[1:].view(np.float64).reshape(state.shape, order="F")
            copy[...] = state
            assert not copy.flags.aligned
            return copy

        def strided(state):
            wide = np.zeros((state.shape[0], 2 * state.shape[1]))
            wide[:, ::2] = state
            return wide[:, ::2]

        for layout in (unaligned, strided):
            copy = ParametricDataset(
                dataset.params,
                tuple(SnapshotMatrix(layout(t.state), t.grid) for t in dataset.trajectories),
            )
            basis = fit_global_basis(copy, None)
            assert basis.rank == aligned.rank
            assert_allclose(basis.modes_u, aligned.modes_u, atol=1e-14)
            assert_allclose(basis.singular_values, aligned.singular_values, rtol=1e-14)


def scaled_dataset(dataset, exponent):
    return ParametricDataset(
        dataset.params,
        tuple(
            SnapshotMatrix(np.ldexp(t.state, exponent), t.grid)
            for t in dataset.trajectories
        ),
    )


def peak_dataset(peak, layout):
    """Two 8 x 5 blocks whose largest |entry| is ``peak``: "flat" has
    every |entry| at the peak (the norm / sqrt(size) bound is exact), and
    "spike" one entry holding almost all of the norm (the norm bound)."""
    rng = np.random.default_rng(5)
    grid = TimeGrid(np.linspace(0.0, 1.0, 5))
    blocks = []
    for _ in range(2):
        if layout == "flat":
            block = peak * rng.choice([-1.0, 1.0], (8, 5))
        else:
            block = peak * 1e-9 * rng.uniform(-1, 1, (8, 5))
            block[3, 2] = peak
        blocks.append(block)
    return ParametricDataset(
        np.arange(2.0)[:, None], tuple(SnapshotMatrix(block, grid) for block in blocks)
    )


def recorded_exponents(monkeypatch):
    """The exponents ``fit_global_basis`` asks ``scale_exponent`` for."""
    calls = []

    def recording(*arrays):
        calls.append(scale_exponent(*arrays))
        return calls[-1]

    monkeypatch.setattr(reduction, "scale_exponent", recording)
    return calls


class TestScaleSafeBasis:
    """The basis of the snapshots times a power of two is the same basis,
    and every surrogate fitted on it predicts the same scaled states."""

    @pytest.mark.parametrize("layout", ["flat", "spike"])
    @pytest.mark.parametrize(
        "peak",
        [2.0**127 * (1 - 2**-53), 2.0**127, 2.0**128 * (1 - 2**-53), 2.0**128,
         2.0**-127 * (1 + 2**-52), 2.0**-127, 2.0**-128, 2.0**-128 * (1 - 2**-53), 1.0],
    )
    def test_exponent_skipped_only_where_it_is_zero(self, peak, layout, monkeypatch):
        # the norms bound the peak; where they cannot place it inside
        # SCALE_FREE, scale_exponent reads the data, so the exponent is
        # always scale_exponent's and the basis keeps its bits
        dataset = peak_dataset(peak, layout)
        calls = recorded_exponents(monkeypatch)
        fit_global_basis(dataset, None)
        exponent = scale_exponent(*dataset.states())
        assert calls == [exponent] or (calls == [] and exponent == 0)

    def test_ordinary_data_make_no_peak_pass(self, monkeypatch):
        calls = recorded_exponents(monkeypatch)
        fit_global_basis(exp_modes_dataset(), None)
        assert calls == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_and_zero_data_ask_scale_exponent(self, value, monkeypatch):
        # a snapshot matrix rejects non-finite entries, so they are written
        # into its array after the check
        dataset = peak_dataset(1.0, "flat")
        for trajectory in dataset.trajectories:
            trajectory.state[:] = 0.0 if value == 0 else trajectory.state
            trajectory.state[1, 1] = value
        calls = recorded_exponents(monkeypatch)
        with pytest.raises((DataError, NumericalError)):
            fit_global_basis(dataset, None)
        assert calls == [0]

    @pytest.mark.parametrize("exponent", [600, -600])
    @pytest.mark.parametrize("rank", [None, 4])
    def test_power_of_two_scaling(self, exponent, rank):
        dataset = exp_modes_dataset()
        reference = fit_global_basis(dataset, rank)
        basis = fit_global_basis(scaled_dataset(dataset, exponent), rank)
        assert basis.rank == reference.rank
        assert basis.energy_captured == pytest.approx(reference.energy_captured, abs=1e-15)
        assert_allclose(basis.modes_u, reference.modes_u, atol=1e-14)
        assert_allclose(
            basis.singular_values, np.ldexp(reference.singular_values, exponent), rtol=1e-14
        )

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("exponent", [600, -600])
    @pytest.mark.parametrize("algorithm", list(ALGORITHMS))
    def test_every_algorithm_fits_scaled_data(self, algorithm, exponent):
        # the surrogates on top of the basis are equivariant too: the train
        # errors match and the predictions are the unscaled ones scaled
        dataset = exp_modes_dataset()
        options = FitOptions(algorithm, rank=6, bag_trials=3)
        mu = 0.5 * (dataset.params[1] + dataset.params[2])
        reference = fit_surrogate(dataset, options)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fitted = fit_surrogate(scaled_dataset(dataset, exponent), options)
            predicted = predict_surrogate(fitted.model, mu, dataset.grid.instants)
        assert np.isfinite(fitted.metadata["mean_train_error"])
        assert_allclose(fitted.train_errors, reference.train_errors, rtol=0, atol=1e-10)
        expected = predict_surrogate(reference.model, mu, dataset.grid.instants)
        assert_allclose(np.ldexp(predicted, -exponent), expected, rtol=0,
                        atol=1e-10 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("rank", [None, 2])
    def test_extreme_magnitudes_fit_or_raise_pdmd_errors(self, rank):
        grid = TimeGrid(np.linspace(0.0, 1.0, 5))
        rng = np.random.default_rng(2)
        for magnitudes in ([1e300, 1e300], [1e-300, 1e-300], [1e300, 1e-300],
                           [5e-324, 0.0], [1.7e308, 1.0]):
            trajectories = tuple(
                SnapshotMatrix(m * rng.uniform(-1, 1, (8, 5)), grid) for m in magnitudes
            )
            dataset = ParametricDataset(np.arange(2.0)[:, None], trajectories)
            try:
                basis = fit_global_basis(dataset, rank)
            except (DataError, NumericalError):
                continue
            assert np.all(np.isfinite(basis.modes_u))
            assert np.all(np.isfinite(basis.singular_values))


class TestProjectLift:
    def test_identity_basis_latents_equal_states(self):
        ds = make_dataset(n_params=2, n_state=4, n_t=6, seed=2)
        basis = fit_global_basis(ds, rank=4)
        latent = project(ds, basis)
        for i in range(2):
            assert_allclose(
                lift(latent.latents[i], basis),
                ds.trajectories[i].state,
                atol=1e-10,
            )

    def test_orthogonal_trajectory_has_zero_latent(self):
        grid = TimeGrid(np.array([0.0, 1.0, 2.0]))
        span = np.eye(6)[:, :2]
        basis_ds = ParametricDataset(
            np.array([[0.0], [1.0]]),
            (
                SnapshotMatrix(span @ np.random.default_rng(0).standard_normal((2, 3)), grid),
                SnapshotMatrix(span @ np.random.default_rng(1).standard_normal((2, 3)), grid),
            ),
        )
        basis = fit_global_basis(basis_ds, rank=2)
        orthogonal = ParametricDataset(
            np.array([[5.0]]),
            (SnapshotMatrix(np.eye(6)[:, 3:4] @ np.ones((1, 3)), grid),),
        )
        latent = project(orthogonal, basis)
        assert_allclose(latent.latents[0], 0.0, atol=1e-12)

    def test_reconstruction_error_equals_tail_energy(self):
        ds = make_dataset(n_params=3, n_state=7, n_t=5, seed=9)
        stacked = np.hstack(ds.states())
        s = np.linalg.svd(stacked, compute_uv=False)
        basis = fit_global_basis(ds, rank=4)
        latent = project(ds, basis)
        err_sq = sum(
            np.linalg.norm(lift(latent.latents[i], basis) - ds.trajectories[i].state) ** 2
            for i in range(3)
        )
        assert_allclose(err_sq, np.sum(s[4:] ** 2), rtol=1e-9)

    def test_project_lift_idempotent(self):
        ds = make_dataset(seed=11)
        basis = fit_global_basis(ds, rank=3)
        latent = project(ds, basis)
        once = lift(latent.latents[0], basis)
        grid = ds.grid
        again = project(
            ParametricDataset(np.array([[0.0]]), (SnapshotMatrix(once, grid),)),
            basis,
        )
        assert_allclose(lift(again.latents[0], basis), once, atol=1e-10)

    def test_lift_preserves_column_norms(self):
        ds = make_dataset(seed=4)
        basis = fit_global_basis(ds, rank=4)
        rng = np.random.default_rng(3)
        latent = rng.standard_normal((4, 6))
        lifted = lift(latent, basis)
        assert_allclose(
            np.linalg.norm(lifted, axis=0),
            np.linalg.norm(latent, axis=0),
            atol=1e-10,
        )

    def test_zero_latent_lifts_to_zero(self):
        ds = make_dataset()
        basis = fit_global_basis(ds, rank=2)
        assert_allclose(lift(np.zeros((2, 4)), basis), 0.0, atol=1e-15)

    def test_reconstruction_invariant_to_basis_rotation(self):
        from pdmd.reduction import GlobalBasis

        ds = make_dataset(n_params=2, n_state=6, n_t=5, seed=8)
        basis = fit_global_basis(ds, rank=3)
        rng = np.random.default_rng(12)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = GlobalBasis(
            basis.modes_u @ rot, basis.singular_values, basis.energy_captured
        )
        for original, mixed in zip(
            project(ds, basis).latents, project(ds, rotated).latents
        ):
            assert_allclose(
                lift(original, basis), lift(mixed, rotated), atol=1e-10
            )

    @pytest.mark.parametrize(
        "modes_u, singular_values, message",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2), "not orthonormal"),
            (np.eye(2), np.array([1.0, np.inf]), "singular values contain non-finite"),
            (np.eye(2), np.array([np.nan, 1.0]), "singular values contain non-finite"),
        ],
        ids=["nan-mode", "inf-singular-value", "nan-singular-value"],
    )
    def test_non_finite_basis_rejected(self, modes_u, singular_values, message):
        with pytest.raises(DataError, match=message):
            GlobalBasis(modes_u, singular_values, 1.0)

    def test_dimension_mismatch(self):
        ds = make_dataset(n_state=8)
        basis = fit_global_basis(ds, rank=2)
        other = make_dataset(n_state=5)
        with pytest.raises(DataError):
            project(other, basis)
        with pytest.raises(DataError):
            lift(np.zeros((3, 4)), basis)

