"""Tests for operator interpolation."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid
from pdmd.dmd import evaluate, fit_dmd
from pdmd.errors import DataError, NumericalError
from pdmd.latent import fit_partitioned
from pdmd.metrics import frobenius_rel_error
from pdmd.reduction import GlobalBasis, LatentDataset, fit_global_basis, lift, project
from pdmd.regression import FitCount, RegressorSpec, combine, prepare, stencil
from pdmd.rkoi import RkoiModel, fit_rkoi, predict_rkoi
from pdmd.roi import (
    RoiModel,
    fit_roi,
    fold_operator,
    predict_roi,
    synthesize_operator,
    unfold_operator,
)
from pdmd.synth import SynthSpec, generate


def rotation(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def linear_sites(latent):
    return prepare(RegressorSpec("linear"), latent.params)


def identity_basis(rank, n_state=None):
    n_state = rank if n_state is None else n_state
    return GlobalBasis(np.eye(n_state)[:, :rank], np.ones(rank), 1.0)


def dmd_residuals(model, latent):
    """Per-parameter latent DMD reconstruction errors: those of a ``part``
    model's members or of the DMDs a ``roi`` model interpolates
    (``fit_partitioned``), or an ``rkoi`` model's errors at the training
    parameters."""
    if isinstance(model, RoiModel):
        model = fit_partitioned(latent, model.sites)
    if isinstance(model, RkoiModel):
        predictions = predict_rkoi(model, latent.params, latent.grid.instants)
        return [
            np.linalg.norm(
                lift(prediction, latent.basis) - lift(latent.trajectory(i).state, latent.basis)
            )
            for i, prediction in enumerate(predictions)
        ]
    steps = np.arange(len(latent.grid))
    return [
        np.linalg.norm(evaluate(member, steps) - latent.trajectory(i).state)
        for i, member in enumerate(model.members)
    ]


def scaled_rotation_latents(mus, base, x0, n_t, dt=1.0):
    """Latent family driven by A(mu) = mu * base."""
    grid = TimeGrid(dt * np.arange(n_t))
    latents = []
    for mu in mus:
        op = mu * base
        states = np.empty((2, n_t))
        states[:, 0] = x0
        for k in range(1, n_t):
            states[:, k] = op @ states[:, k - 1]
        latents.append(states)
    params = np.asarray(mus, dtype=float)[:, None]
    return LatentDataset(identity_basis(2), params, tuple(latents), grid)


def latent_operator(latent, index):
    """Reference per-parameter operator in latent coordinates."""
    model = fit_dmd(latent.trajectory(index), latent.rank)
    return model.proj_basis @ model.reduced_op @ model.proj_basis.T


def pipeline_latent(seed=0, n_params=5, rank=4):
    spec = SynthSpec(
        "linear-operator",
        n_h=6,
        n_params=n_params,
        param_range=(0.2, 1.0),
        n_t=40,
        dt=0.5,
        seed=seed,
    )
    dataset, oracle = generate(spec)
    basis = fit_global_basis(dataset, rank=rank)
    return dataset, oracle, project(dataset, basis)


def read_at(model, mu):
    """The fitted channels at mu (a vector or a block of rows): the
    operator-mode coefficients, then the initial latent state."""
    values = combine(stencil(model.sites, mu), model.values)
    return values[..., : model.op_rank], values[..., model.op_rank :]


def operator_at(model, mu):
    """The synthesized operator at mu, located among the model's sites."""
    return synthesize_operator(model, read_at(model, mu)[0])


def states_at(model, mu, instants):
    """The model's states at one parameter vector mu: its one-row block's
    latents, lifted."""
    return lift(predict_roi(model, [mu], instants)[0], model.basis)


class TestFoldUnfold:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        op = rng.standard_normal((5, 5))
        assert np.array_equal(fold_operator(unfold_operator(op)), op)
        ops = rng.standard_normal((3, 5, 5))
        stack = np.vstack([unfold_operator(op) for op in ops])
        assert np.array_equal(fold_operator(stack), ops)

    def test_column_major_convention(self):
        op = np.array([[1.0, 3.0], [2.0, 4.0]])
        assert_allclose(unfold_operator(op), [1.0, 2.0, 3.0, 4.0])

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            unfold_operator(np.ones((2, 3)))
        with pytest.raises(DataError):
            fold_operator(np.ones(5))


class TestFitRoi:
    def test_single_parameter_degenerate(self):
        latent = scaled_rotation_latents([0.9], rotation(1.0, 0.4), [1.0, 0.0], 30)
        model = fit_roi(latent, op_rank=1, sites=linear_sites(latent))
        assert model.op_rank == 1
        rebuilt = operator_at(model, [0.9])
        assert_allclose(rebuilt, latent_operator(latent, 0), atol=1e-12)

    def test_linear_family_interpolates(self):
        base = rotation(1.0, 0.5)
        mus = [0.5, 0.6, 0.7, 0.8, 0.9]
        latent = scaled_rotation_latents(mus, base, [1.0, 0.0], 30)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        target = 0.65
        assert_allclose(
            operator_at(model, [target]), target * base, atol=1e-8
        )

    def test_full_op_rank_reproduces_training_operators(self):
        _, _, latent = pipeline_latent(seed=3, n_params=4)
        model = fit_roi(latent, op_rank=4, sites=linear_sites(latent))
        for i in range(latent.n_params):
            reference = latent_operator(latent, i)
            rebuilt = operator_at(model, latent.params[i])
            assert np.linalg.norm(rebuilt - reference) <= 1e-10

    @pytest.mark.parametrize(
        "fit",
        [
            lambda latent: fit_roi(latent, 3, linear_sites(latent)),
            lambda latent: fit_partitioned(latent, linear_sites(latent)),
            lambda latent: fit_rkoi(latent, linear_sites(latent)),
            lambda latent: fit_rkoi(latent, linear_sites(latent), bag_trials=3),
        ],
        ids=["roi", "part", "rkoi", "rkoi-bagged"],
    )
    def test_rank_deficient_error_names_parameter_and_supported_rank(self, fit):
        # three complex modes span six real dimensions, so rank 8 is
        # rank-deficient for every training parameter
        spec = SynthSpec(
            "exp-modes", n_h=200, n_params=9, param_range=(0.2, 0.8), n_t=80,
            dt=0.08, seed=23,
        )
        dataset, _ = generate(spec)
        latent = project(dataset, fit_global_basis(dataset, rank=8))
        with pytest.raises(NumericalError, match="cutoff") as info:
            fit(latent)
        message = str(info.value)
        assert message.startswith("training parameter 0 (mu = [0.2])")
        supported = int(re.search(r"reduce the rank to (\d+)", message).group(1))
        assert supported == 6
        latent = project(dataset, fit_global_basis(dataset, rank=supported))
        assert np.max(dmd_residuals(fit(latent), latent)) <= 1e-8

    @pytest.mark.parametrize(
        "fit",
        [
            lambda latent: fit_roi(latent, 2, linear_sites(latent)),
            lambda latent: fit_partitioned(latent, linear_sites(latent)),
            lambda latent: fit_rkoi(latent, linear_sites(latent)),
            lambda latent: fit_rkoi(latent, linear_sites(latent), bag_trials=3),
        ],
        ids=["roi", "part", "rkoi", "rkoi-bagged"],
    )
    def test_rank_deficient_error_names_smallest_supported_rank(self, fit):
        # x_k = diag(d)^k x0 spans as many directions as x0 has nonzero
        # entries: 3, 4 and 2 for the three parameters, so parameter 2
        # sets the supported rank although parameter 0 fails first
        grid = TimeGrid(np.arange(20.0))
        decay = np.array([0.9, 0.8, 0.7, 0.6])
        starts = ([1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0])
        latents = tuple(
            decay[:, None] ** np.arange(20.0) * np.asarray(x0)[:, None]
            for x0 in starts
        )
        params = np.array([[0.1], [0.2], [0.3]])
        latent = LatentDataset(identity_basis(4), params, latents, grid)
        with pytest.raises(NumericalError, match="cutoff") as info:
            fit(latent)
        message = str(info.value)
        assert message.startswith("training parameter 2 (mu = [0.3])")
        assert re.search(r"reduce the rank to (\d+)", message).group(1) == "2"
        assert info.value.supported_rank == 2

    def test_op_rank_bounds(self):
        latent = scaled_rotation_latents([0.5, 0.9], rotation(1.0, 0.3), [1.0, 0.0], 20)
        with pytest.raises(DataError):
            fit_roi(latent, op_rank=0, sites=linear_sites(latent))
        with pytest.raises(DataError):
            fit_roi(latent, op_rank=3, sites=linear_sites(latent))

    def test_nonuniform_grid_rejected(self):
        grid = TimeGrid(np.array([0.0, 1.0, 3.0, 4.0, 6.0]))
        latents = (np.random.default_rng(0).standard_normal((2, 5)),)
        latent = LatentDataset(identity_basis(2), np.array([[1.0]]), latents, grid)
        with pytest.raises(DataError, match="uniform"):
            fit_roi(latent, op_rank=1, sites=prepare(RegressorSpec("nearest"), latent.params))


class TestSynthesize:
    def test_clamp_beyond_hull_gives_boundary_operator(self):
        base = rotation(1.0, 0.5)
        mus = [0.5, 0.7, 0.9]
        latent = scaled_rotation_latents(mus, base, [1.0, 0.0], 25)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        with pytest.warns(Warning, match="clamped"):
            beyond = operator_at(model, [1.5])
        assert_allclose(beyond, operator_at(model, [0.9]), atol=1e-12)

    def test_block_of_coefficients_gives_each_rows_operator(self):
        _, _, latent = pipeline_latent(seed=3, n_params=4)
        model = fit_roi(latent, op_rank=4, sites=linear_sites(latent))
        coeffs = read_at(model, latent.params)[0]
        operators = synthesize_operator(model, coeffs)
        assert operators.shape == (latent.n_params, latent.rank, latent.rank)
        for coeff, operator in zip(coeffs, operators):
            single = synthesize_operator(model, coeff)
            reference = (model.op_modes @ coeff).reshape((latent.rank, latent.rank), order="F")
            assert single.flags.f_contiguous and operator.T.flags.c_contiguous
            assert single.tobytes(order="A") == reference.tobytes(order="A")
            assert operator.tobytes() == single.tobytes()


class TestPredictRoi:
    def test_training_error_bounded_by_recorded_residuals(self):
        dataset, _, latent = pipeline_latent(seed=5, n_params=4, rank=3)
        model = fit_roi(latent, op_rank=4, sites=linear_sites(latent))
        residuals = dmd_residuals(model, latent)
        basis = latent.basis
        latents = predict_roi(model, dataset.params, dataset.grid.instants)
        for i in range(dataset.n_params):
            truth = dataset.trajectories[i].state
            pred = lift(latents[i], basis)
            tail = np.linalg.norm(truth - basis.modes_u @ (basis.modes_u.T @ truth))
            bound = np.sqrt(tail**2 + residuals[i] ** 2)
            err = frobenius_rel_error(truth, pred)
            assert err <= bound / np.linalg.norm(truth) + 1e-9

    def test_linear_family_unseen_parameter_long_horizon(self):
        base = rotation(1.0, 0.5)
        mus = [0.5, 0.6, 0.7, 0.8, 0.9]
        n_train = 30
        latent = scaled_rotation_latents(mus, base, [1.0, 0.0], n_train)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        target = 0.75
        horizon = np.arange(2 * n_train, dtype=float)
        pred = states_at(model, [target], horizon)
        op = target * base
        truth = np.empty((2, 2 * n_train))
        truth[:, 0] = [1.0, 0.0]
        for k in range(1, 2 * n_train):
            truth[:, k] = op @ truth[:, k - 1]
        assert frobenius_rel_error(truth, pred) <= 1e-6

    def test_spectral_stepping_matches_multiplication(self):
        base = rotation(1.0, 0.5)
        latent = scaled_rotation_latents([0.5, 0.7, 0.9], base, [1.0, 0.0], 25)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        grid = TimeGrid(np.arange(40.0))
        # oracle: eigendecomposition powers of the synthesized operator
        coeffs, state = read_at(model, [0.8])
        values, vectors = np.linalg.eig(synthesize_operator(model, coeffs))
        weights = np.linalg.solve(vectors, state)
        powers = values[None, :] ** np.arange(40)[:, None]
        spectral = ((vectors * weights) @ powers.T).real
        assert_allclose(
            lift(spectral, model.basis),
            states_at(model, [0.8], grid.instants),
            atol=1e-9,
        )

    def test_far_lattice_query_matches_eigen_powers(self):
        # gaps of one step and of up to 1e9 steps, in any order
        latent = scaled_rotation_latents([0.5, 0.7, 0.9], rotation(1.0, 0.5), [1.0, 0.0], 25)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        steps = np.array([60, 0, 1, 2, 7, 10**9, 8, 3])
        coeffs, state = read_at(model, [0.8])
        values, vectors = np.linalg.eig(synthesize_operator(model, coeffs))
        weights = np.linalg.solve(vectors, state)
        powers = values[None, :] ** steps[:, None]
        spectral = lift(((vectors * weights) @ powers.T).real, model.basis)
        pred = states_at(model, [0.8], steps.astype(float))
        assert_allclose(pred, spectral, rtol=1e-9, atol=1e-9 * np.linalg.norm(state))

    def test_consecutive_instants_take_one_product_per_step(self):
        latent = scaled_rotation_latents([0.5, 0.7, 0.9], rotation(1.0, 0.5), [1.0, 0.0], 25)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        coeffs, state = read_at(model, [0.8])
        operator = synthesize_operator(model, coeffs)
        latent_states = [state]
        for _ in range(39):
            latent_states.append(operator @ latent_states[-1])
        expected = np.column_stack(latent_states)
        pred = predict_roi(model, [[0.8]], np.arange(40.0))[0]
        assert pred.tobytes() == expected.tobytes()

    @staticmethod
    def step_patterns(n_t):
        """Consecutive steps, every third step, repeats out of order, and
        gaps past the training window."""
        return (
            np.arange(n_t),
            np.arange(0, n_t, 3),
            np.array([9, 2, 2, 0, 5, 9, 1]),
            np.array([0, 1, n_t + 4, 2 * n_t, 3 * n_t + 1]),
        )

    def test_block_rows_match_the_one_row_stepping_loop(self):
        """Reference: each row's operator applied to a column state in time
        order, with its matrix power across a gap, bit for bit."""
        _, _, latent = pipeline_latent(seed=7, n_params=4)
        model = fit_roi(latent, op_rank=3, sites=linear_sites(latent))
        rows = np.vstack([latent.params, latent.params[:2].mean(axis=0)])
        for steps in self.step_patterns(len(latent.grid)):
            block = predict_roi(model, rows, latent.grid.t0 + latent.grid.dt * steps)
            for row, latents in zip(rows, block):
                coeffs, state = read_at(model, row)
                operator = synthesize_operator(model, coeffs)
                expected = np.empty((state.size, steps.size))
                current = 0
                for position in np.argsort(steps):
                    step = steps[position]
                    if step == current + 1:
                        state = operator @ state
                    elif step > current:
                        state = np.linalg.matrix_power(operator, step - current) @ state
                    current = step
                    expected[:, position] = state
                assert latents.tobytes() == expected.tobytes()

    def test_overflowing_state_names_the_instant(self):
        latent = scaled_rotation_latents([1.5, 2.0], rotation(1.0, 0.3), [1.0, 0.0], 20)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        # 1.8**1000 is about 1e255, 1.8**2000 beyond the double range
        with pytest.raises(NumericalError, match="row 0 overflows at instant 2000 "):
            predict_roi(model, [[1.8]], np.array([1000.0, 0.0, 1.0, 2000.0]))
        # 1.5**1300 is about 1e229, 1.8**1300 about 1e332: only row 1 overflows
        with pytest.raises(NumericalError, match="row 1 overflows at instant 1300 "):
            predict_roi(model, [[1.5], [1.8]], np.array([1000.0, 0.0, 1.0, 1300.0]))

    def test_zero_interpolated_initial_state(self):
        base = rotation(0.95, 0.4)
        grid = TimeGrid(np.arange(20.0))
        plus = np.empty((2, 20))
        plus[:, 0] = [1.0, 0.5]
        for k in range(1, 20):
            plus[:, k] = base @ plus[:, k - 1]
        latent = LatentDataset(
            identity_basis(2),
            np.array([[0.0], [1.0]]),
            (plus, -plus),
            grid,
        )
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        pred = states_at(model, [0.5], grid.instants)
        assert_allclose(pred, 0.0, atol=1e-10)

    def test_online_phase_fits_no_regressor(self):
        _, _, latent = pipeline_latent(seed=7, n_params=4)
        model = fit_roi(latent, op_rank=3, sites=linear_sites(latent))
        with FitCount() as fits:
            predict_roi(model, [[0.5]], np.arange(0.0, 10.0, 0.5))
        assert fits.count == 0

    def test_one_row_block_reads_as_its_row(self):
        _, _, latent = pipeline_latent(seed=7, n_params=4)
        model = fit_roi(latent, op_rank=3, sites=linear_sites(latent))
        instants = np.arange(0.0, 10.0, 0.5)
        rows = np.array([[0.3], [0.5], [0.9]])
        block = predict_roi(model, rows, instants)
        assert block.shape == (3, latent.rank, instants.size)
        for row, latents in zip(rows, block):
            assert latents.tobytes() == predict_roi(model, [row], instants)[0].tobytes()
        # a lone row steps as a vector: its consecutive, matrix-power,
        # repeat and unsorted branches read as its block row
        for steps in self.step_patterns(len(latent.grid)):
            instants = latent.grid.t0 + latent.grid.dt * steps
            block = predict_roi(model, rows, instants)
            for row, latents in zip(rows, block):
                lone = predict_roi(model, [row], instants)
                assert lone.shape == (1, latent.rank, steps.size)
                assert lone[0].tobytes() == latents.tobytes()
        with pytest.raises(DataError, match="n x p"):
            predict_roi(model, [0.5], instants)

    def test_off_lattice_rejected(self):
        latent = scaled_rotation_latents([0.5, 0.9], rotation(1.0, 0.3), [1.0, 0.0], 20)
        model = fit_roi(latent, op_rank=2, sites=linear_sites(latent))
        with pytest.raises(DataError, match="lattice"):
            predict_roi(model, [[0.7]], np.array([0.0, 0.5]))
