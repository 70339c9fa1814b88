"""Tests for optimized DMD and bagged ensembling."""

import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import optdmd
from pdmd.data import SnapshotMatrix, TimeGrid
from pdmd.errors import ConvergenceWarning, DataError, NumericalError, RankDeficientError
from pdmd.optdmd import (
    _close_stack,
    _fit_stack,
    _gauss_newton,
    _project,
    _solve_each,
    condense_ensemble,
    fit_bopdmd,
    fit_ensembles,
    fit_optdmd,
    match_frequencies,
    mean_omegas,
    predict_optdmd,
    project_conjugate_closure,
)
from pdmd.reduction import fit_global_basis, project
from pdmd.regression import RegressorSpec
from pdmd.rkoi import fit_rkoi
from pdmd.synth import SynthSpec, generate


def scalar_signal(fn, instants):
    instants = np.asarray(instants, dtype=float)
    return SnapshotMatrix(fn(instants)[None, :], TimeGrid(instants))


def two_tone(instants):
    return scalar_signal(
        lambda t: 2.0 * np.cos(2.0 * t) * np.exp(-0.1 * t), instants
    )


class TestFitOptDmd:
    def test_single_decay(self):
        x = scalar_signal(lambda t: np.exp(-0.3 * t), np.linspace(0, 5, 51))
        model = fit_optdmd(x, rank=1)
        assert model.converged
        assert_allclose(model.omegas, [-0.3], atol=1e-6)

    def test_two_tone(self):
        x = two_tone(np.linspace(0, 5, 51))
        model = fit_optdmd(x, rank=2)
        assert_allclose(model.omegas, [-0.1 + 2j, -0.1 - 2j], atol=1e-5)

    def test_constant_signal(self):
        x = scalar_signal(lambda t: np.ones_like(t), np.linspace(0, 5, 21))
        model = fit_optdmd(x, rank=1)
        assert_allclose(model.omegas, [0.0], atol=1e-8)

    def test_vector_data_recovery(self):
        rng = np.random.default_rng(0)
        instants = np.linspace(0, 4, 60)
        mode = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        truth = np.array([-0.2 + 1.5j, -0.2 - 1.5j])
        states = 2.0 * np.real(
            np.outer(mode, (0.7 - 0.3j) * np.exp(truth[0] * instants))
        )
        x = SnapshotMatrix(states, TimeGrid(instants))
        model = fit_optdmd(x, rank=2)
        assert_allclose(model.omegas, truth, atol=1e-6)

    def test_nonuniform_grid(self):
        instants = np.sort(np.concatenate([[0.0, 5.0], 5 * np.random.default_rng(7).random(40)]))
        x = scalar_signal(lambda t: np.exp(-0.3 * t), instants)
        model = fit_optdmd(x, rank=1)
        assert_allclose(model.omegas, [-0.3], atol=1e-6)

    def test_nonuniform_two_frequency_vector(self):
        rng = np.random.default_rng(3)
        instants = np.sort(np.concatenate([[0.0, 6.0], 6 * rng.random(70)]))
        states = np.vstack(
            [
                np.cos(1.3 * instants) * np.exp(-0.05 * instants),
                np.sin(1.3 * instants) * np.exp(-0.05 * instants),
            ]
        )
        x = SnapshotMatrix(states, TimeGrid(instants))
        model = fit_optdmd(x, rank=2)
        assert_allclose(model.omegas, [-0.05 + 1.3j, -0.05 - 1.3j], atol=1e-6)

    def test_objective_not_worse_than_init(self):
        x = two_tone(np.linspace(0, 5, 41))
        init = np.array([-0.5 + 1j, -0.5 - 1j])
        model = fit_optdmd(x, rank=2, init=init)
        tau = x.grid.instants
        basis = np.exp(tau[:, None] * init[None, :])
        coeffs, *_ = np.linalg.lstsq(basis, x.state.T.astype(complex), rcond=None)
        init_obj = np.linalg.norm(x.state.T - basis @ coeffs)
        assert model.objective <= init_obj + 1e-12

    def test_objective_self_consistency(self):
        x = two_tone(np.linspace(0, 5, 41))
        model = fit_optdmd(x, rank=2)
        residual = predict_optdmd(model, x.grid.instants) - x.state
        assert_allclose(np.linalg.norm(residual), model.objective, atol=1e-9)

    def test_mode_normalization(self):
        x = two_tone(np.linspace(0, 5, 51))
        model = fit_optdmd(x, rank=2)
        assert_allclose(np.linalg.norm(model.modes, axis=0), [1.0, 1.0], rtol=1e-10)
        lead = np.argmax(np.abs(model.modes), axis=0)
        leads = model.modes[lead, np.arange(2)]
        assert np.all(np.abs(leads.imag) < 1e-12)
        assert np.all(leads.real > 0)

    def test_canonical_order(self):
        rng = np.random.default_rng(5)
        instants = np.linspace(0, 6, 80)
        real_mode = rng.standard_normal(4)
        pair_mode = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        states = np.outer(real_mode, np.exp(-0.3 * instants)) + 2.0 * np.real(
            np.outer(pair_mode, (0.5 + 0.2j) * np.exp((-0.1 + 1j) * instants))
        )
        model = fit_optdmd(SnapshotMatrix(states, TimeGrid(instants)), rank=3)
        assert np.all(np.diff(model.omegas.real) <= 1e-9)
        assert_allclose(sorted(model.omegas.real), [-0.3, -0.1, -0.1], atol=1e-6)

    def test_rank_too_large(self):
        x = scalar_signal(lambda t: np.exp(-t), np.linspace(0, 1, 5))
        with pytest.raises(DataError, match="rank"):
            fit_optdmd(x, rank=3)

    def test_bad_init_shape(self):
        x = scalar_signal(lambda t: np.exp(-t), np.linspace(0, 1, 11))
        with pytest.raises(DataError):
            fit_optdmd(x, rank=1, init=np.array([1.0 + 0j, 2.0]))


def projected_residual(tau, omegas, data_t):
    """(I - P(omega)) Y in the real layout (real then imaginary parts of
    the raveled residual), P by pseudo-inverse."""
    basis = np.exp(tau[:, None] * omegas[None, :])
    residual = (data_t - basis @ (np.linalg.pinv(basis) @ data_t)).ravel()
    return np.concatenate([residual.real, residual.imag])


def finite_difference_jacobian(tau, omegas, data_t, step=1e-6):
    """Central differences of the projected residual in the 2r real
    coordinates of omega: column 2j along Re(omega_j), 2j + 1 along
    Im(omega_j)."""
    columns = []
    for j in range(omegas.size):
        for direction in (1.0, 1j):
            shift = np.zeros(omegas.size, dtype=complex)
            shift[j] = step * direction
            columns.append(
                (projected_residual(tau, omegas + shift, data_t)
                 - projected_residual(tau, omegas - shift, data_t)) / (2 * step)
            )
    return np.column_stack(columns)


def gauss_newton_at(tau, omegas, data_t):
    """The solver's Gram-form Hessian and gradient for one member."""
    state = _project(tau[None], omegas[None], data_t[None])
    basis, q, coeffs, residual, _ = state
    hessian, grad = _gauss_newton(tau[None], basis, q, coeffs, residual)
    return hessian[0], grad[0], residual[0]


class TestGaussNewton:
    """Kaufman's Hessian J^T J and gradient J^T r in Gram form, against a
    finite-difference Jacobian of the projected residual."""

    rng = np.random.default_rng(4)
    instants = np.sort(np.concatenate([[0.0, 4.0], 4.0 * rng.random(30)]))
    tau = instants - instants[0]
    omegas = np.array([-0.2 + 1.5j, -0.2 - 1.5j, -0.5, 0.1 + 0.7j])
    coeffs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    exact = np.exp(tau[:, None] * omegas[None, :]) @ coeffs

    def test_matches_finite_differences_at_exact_fit(self):
        # at an exact fit the Golub-Pereyra term Kaufman drops vanishes,
        # so J^T J is the true one
        hessian, grad, residual = gauss_newton_at(self.tau, self.omegas, self.exact)
        jac = finite_difference_jacobian(self.tau, self.omegas, self.exact)
        r = np.concatenate([residual.real.ravel(), residual.imag.ravel()])
        assert hessian.shape == (2 * self.omegas.size,) * 2
        assert np.linalg.norm(hessian - jac.T @ jac) <= 1e-6 * np.linalg.norm(jac.T @ jac)
        # r is at rounding level here, and so is J^T r
        scale = np.linalg.norm(jac) * np.linalg.norm(r)
        assert np.linalg.norm(grad - jac.T @ r) <= 1e-6 * scale + 1e-12

    def test_gradient_is_exact_off_the_fit(self):
        # the dropped term is orthogonal to the residual, so Kaufman's
        # gradient is the true gradient even where the fit is not exact
        rng = np.random.default_rng(5)
        noisy = self.exact + 0.05 * (
            rng.standard_normal(self.exact.shape) + 1j * rng.standard_normal(self.exact.shape)
        )
        _, grad, residual = gauss_newton_at(self.tau, self.omegas, noisy)
        jac = finite_difference_jacobian(self.tau, self.omegas, noisy)
        r = np.concatenate([residual.real.ravel(), residual.imag.ravel()])
        assert np.linalg.norm(r) > 0.1
        assert np.linalg.norm(grad - jac.T @ r) <= 1e-6 * np.linalg.norm(jac.T @ r)


class TestStackedMembers:
    def test_overflowing_member_fails_alone(self):
        tau = np.linspace(0.0, 5.0, 21)
        data_t = np.exp(-0.3 * tau)[:, None] * np.array([[1.0, 2.0]]) + 0j
        good = np.array([-0.3 + 0j, -1.0])
        alone = _project(tau[None], good[None], data_t[None])
        stacked = _project(
            np.array([tau, tau]), np.array([[200.0, -1.0], good]), np.array([data_t, data_t])
        )
        assert stacked[4][0] == np.inf
        for single, both in zip(alone, stacked):
            assert np.array_equal(single[0], both[1])

    def test_repeated_frequencies_take_the_minimum_norm_split(self):
        tau = np.linspace(0.0, 5.0, 21)
        data_t = np.exp(-0.3 * tau)[:, None] * np.array([[1.0, 2.0]]) + 0j
        *_, coeffs, residual, objective = _project(
            tau[None], np.array([[-0.3 + 0j, -0.3]]), data_t[None]
        )
        assert_allclose(coeffs[0], [[0.5, 1.0], [0.5, 1.0]], rtol=1e-12)
        assert objective[0] < 1e-28

    def test_singular_system_fails_alone(self):
        systems = np.array([np.eye(2), np.ones((2, 2)), [[2.0, 1.0], [0.0, 4.0]]])
        rhs = np.array([[[1.0], [2.0]]] * 3)
        x, solved = _solve_each(systems, rhs)
        assert solved.tolist() == [True, False, True]
        assert np.array_equal(x[1], np.zeros((2, 1)))
        for i in (0, 2):
            assert np.array_equal(x[i], np.linalg.solve(systems[i], rhs[i]))

    def test_members_do_not_depend_on_the_stack(self):
        # the first three subsets of a 10-trial fit are those of a 3-trial
        # fit at the same seed, and each member is solved on its own
        rng = np.random.default_rng(17)
        instants = np.linspace(0, 5, 81)
        clean = 2.0 * np.cos(2.0 * instants) * np.exp(-0.1 * instants)
        noisy = clean + 0.05 * rng.standard_normal(clean.shape)
        x = SnapshotMatrix(noisy[None, :], TimeGrid(instants))
        ten = fit_bopdmd(x, rank=2, trials=10, subset_fraction=0.8, seed=5)
        three = fit_bopdmd(x, rank=2, trials=3, subset_fraction=0.8, seed=5)
        for a, b in zip(ten.members[:3], three.members):
            assert a.n_iters == b.n_iters and a.n_iters > 1
            assert a.converged == b.converged and a.objective == b.objective
            for field in ("omegas", "modes", "amplitudes"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestLevenbergMarquardtPaths:
    """A stacked member's fit is its one-member fit, bit for bit, whether
    a trial point reads the stack through views (every member live and
    pending) or through index copies (some members done or rejected)."""

    instants = np.linspace(0, 5, 41)
    inits = [
        np.array([-0.3 + 1.7j, -0.3 - 1.7j]),
        None,
        np.array([-0.5 + 1.2j, -0.5 - 1.2j]),
    ]

    @staticmethod
    def spy_project(monkeypatch):
        stacks = []  # the data stack of each trial point, the full one first
        original = optdmd._project

        def recording(tau, omegas, data_t):
            stacks.append(data_t)
            return original(tau, omegas, data_t)

        monkeypatch.setattr(optdmd, "_project", recording)
        return stacks

    @pytest.mark.parametrize("with_exact", [True, False])
    def test_members_match_their_own_fits(self, monkeypatch, with_exact):
        clean = two_tone(self.instants)
        rng = np.random.default_rng(8)
        trajectories = [
            SnapshotMatrix(clean.state + level * rng.standard_normal(clean.state.shape), clean.grid)
            for level in (0.02, 0.05, 0.1)
        ]
        inits = list(self.inits)
        if with_exact:
            trajectories.insert(0, clean)
            inits.insert(0, np.array([-0.1 + 2j, -0.1 - 2j]))
        stacks = self.spy_project(monkeypatch)
        stacked = _fit_stack(trajectories, 2, inits)
        views = [np.shares_memory(stack, stacks[0]) for stack in stacks[1:]]
        # an exact member is done at the start, so no trial sees every member
        assert any(views) != with_exact
        assert not all(views)
        if with_exact:
            assert stacked[0].converged and stacked[0].n_iters == 0
        noisy = stacked[1:] if with_exact else stacked
        assert sorted(m.n_iters for m in noisy) == [4, 5, 8]
        for x, init, member in zip(trajectories, inits, stacked):
            alone = _fit_stack([x], 2, [init])[0]
            assert np.array_equal(member.omegas, alone.omegas)
            assert member.objective == alone.objective
            assert member.n_iters == alone.n_iters
            assert member.converged == alone.converged


# A repeated-frequency init, pinned under the earlier solver, whose inner
# solve was ``lstsq``: the minimum-norm split of a rank-deficient basis.
REPEATED_INIT = np.array([-0.3 + 0j, -0.3])


def rank_one_decay(noise):
    instants = np.linspace(0, 4, 33)
    state = np.outer([1.0, -2.0, 0.5], np.exp(-0.3 * instants))
    state = state + noise * np.random.default_rng(0).standard_normal(state.shape)
    return SnapshotMatrix(state, TimeGrid(instants))


class TestRepeatedFrequencyInit:
    def test_exact_fit_keeps_the_minimum_norm_split(self):
        model = fit_optdmd(rank_one_decay(0.0), 2, init=REPEATED_INIT)
        assert model.converged and model.n_iters == 0
        assert np.array_equal(model.omegas, REPEATED_INIT)
        assert model.objective < 1e-14
        lead = np.array([-0.4364357804719848, 0.8728715609439696, -0.2182178902359924])
        assert_allclose(model.modes, np.column_stack([lead, lead]), rtol=1e-12)
        assert_allclose(model.amplitudes, [-1.1456439237389602] * 2, rtol=1e-12)

    def test_noisy_fit_moves_the_pair_as_before(self):
        with pytest.warns(ConvergenceWarning, match="after 2 iterations") as caught:
            model = fit_optdmd(rank_one_decay(0.01), 2, init=REPEATED_INIT)
        assert len(caught) == 1
        assert not model.converged and model.n_iters == 2
        assert_allclose(model.omegas, [-0.3001901504355006] * 2, rtol=1e-12)
        assert model.objective == pytest.approx(0.09264826200043182, rel=1e-12)


class TestThinDataWarmStarts:
    """Warm starts for a one-row trajectory, which carries fewer
    frequencies than the rank asks for."""

    @staticmethod
    def spy_trapezoid(monkeypatch):
        starts = []
        original = optdmd._trapezoid_warm_start

        def recording(x, rank):
            starts.append(original(x, rank))
            return starts[-1]

        monkeypatch.setattr(optdmd, "_trapezoid_warm_start", recording)
        return starts

    def test_bagged_fit_of_rank_deficient_data_raises_as_a_single_fit(self):
        # the delay-embedded DMD of a single decay is rank-deficient, so
        # the shared warm start fails for the ensemble as for one fit
        x = scalar_signal(lambda t: np.exp(-0.3 * t), np.linspace(0, 4, 41))
        with pytest.raises(RankDeficientError, match="reduce the rank to 1"):
            fit_optdmd(x, rank=2)
        with pytest.raises(RankDeficientError, match="reduce the rank to 1"):
            fit_bopdmd(x, rank=2, trials=3, subset_fraction=0.8, seed=0)

    def test_non_uniform_bagged_members_pad_with_zero(self, monkeypatch):
        # one row carries one frequency; rank 2 asks for one more, and
        # each member pads its own subset's trapezoid estimate with 0
        starts = self.spy_trapezoid(monkeypatch)
        x = scalar_signal(lambda t: np.exp(-0.3 * t), 4 * np.linspace(0, 1, 41) ** 1.5)
        bagged = fit_bopdmd(x, rank=2, trials=3, subset_fraction=0.8, seed=0)
        assert len(starts) == 3 and all(start[1] == 0 for start in starts)
        assert [(m.converged, m.n_iters) for m in bagged.members] == [(True, 7)] * 3
        assert_allclose([m.omegas[1] for m in bagged.members], -0.3, rtol=0, atol=1e-12)

    def test_non_uniform_fit_pads_with_a_harmonic_pair(self, monkeypatch):
        starts = self.spy_trapezoid(monkeypatch)
        instants = 6 * np.linspace(0, 1, 40) ** 1.5
        model = fit_optdmd(scalar_signal(lambda t: np.cos(1.3 * t), instants), rank=3)
        assert len(starts) == 1
        assert_allclose(starts[0][1:], [1j * np.pi / 6, -1j * np.pi / 6], rtol=1e-15)
        assert model.converged and model.n_iters == 6
        assert_allclose(
            model.omegas,
            [
                -2.5889389862214222e-14 + 1.299999999999999j,
                -2.5889389862214222e-14 - 1.299999999999999j,
                -0.50358688232203,
            ],
            rtol=0,
            atol=1e-12,
        )


# ``fit_rkoi``'s notes under a 2-iteration cap (bag_trials 3, seed 1), as
# the one-member-per-call solver wrote them.
CAPPED_NOTES = [
    (0, "3.776e-02"), (0, "3.520e-02"), (0, "3.702e-02"),
    (1, "3.316e-02"), (1, "3.669e-02"), (1, "3.357e-02"),
    (2, "3.523e-02"), (2, "3.436e-02"), (2, "3.817e-02"),
    (3, "3.893e-02"), (3, "4.590e-02"), (3, "4.451e-02"),
    (4, "5.797e-02"), (4, "5.954e-02"), (4, "5.826e-02"),
]
# the same fit with bag_trials 1: one optimized DMD per parameter
CAPPED_UNBAGGED_OBJECTIVES = ["4.430e-02", "4.698e-02", "4.512e-02", "5.403e-02", "7.249e-02"]


class TestIterationCap:
    def test_each_unconverged_member_warns_once(self, monkeypatch):
        monkeypatch.setattr(optdmd, "_MAX_ITERS", 1)
        x = two_tone(np.linspace(0, 5, 61))
        x = SnapshotMatrix(x.state + 0.05 * np.sin(7.3 * x.grid.instants), x.grid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bagged = fit_bopdmd(x, rank=2, trials=4, subset_fraction=0.8, seed=2)
        stopped = [m for m in bagged.members if not m.converged]
        assert stopped and all(m.n_iters == 1 for m in bagged.members)
        assert len(caught) == len(stopped)
        assert all("stopped after 1 iterations" in str(w.message) for w in caught)

    def test_rkoi_notes_read_as_before(self, monkeypatch):
        monkeypatch.setattr(optdmd, "_MAX_ITERS", 2)
        spec = SynthSpec(
            "exp-modes", n_h=40, n_params=5, param_range=(0.2, 0.8),
            n_t=60, dt=0.08, noise_std=0.01, seed=23,
        )
        dataset, _ = generate(spec)
        latent = project(dataset, fit_global_basis(dataset, 4))
        with pytest.warns(ConvergenceWarning):
            model = fit_rkoi(latent, RegressorSpec("linear"), bag_trials=3, bag_seed=1)
        assert list(model.notes) == [
            f"parameter {i}: optimized DMD stopped after 2 iterations without "
            f"meeting tolerances (objective {objective})"
            for i, objective in CAPPED_NOTES
        ]

    def test_unbagged_rkoi_notes_read_as_before(self, monkeypatch):
        """One note per parameter, and one warning each: optDMD's own, the
        note without its ``parameter i:`` prefix."""
        monkeypatch.setattr(optdmd, "_MAX_ITERS", 2)
        spec = SynthSpec(
            "exp-modes", n_h=40, n_params=5, param_range=(0.2, 0.8),
            n_t=60, dt=0.08, noise_std=0.01, seed=23,
        )
        dataset, _ = generate(spec)
        latent = project(dataset, fit_global_basis(dataset, 4))
        with pytest.warns(ConvergenceWarning) as caught:
            model = fit_rkoi(latent, RegressorSpec("linear"))
        reports = [
            f"optimized DMD stopped after 2 iterations without "
            f"meeting tolerances (objective {objective})"
            for objective in CAPPED_UNBAGGED_OBJECTIVES
        ]
        assert list(model.notes) == [f"parameter {i}: {r}" for i, r in enumerate(reports)]
        assert [str(w.message) for w in caught] == reports


class TestConjugateClosure:
    def test_pairs_projected_to_means(self):
        om = np.array([-0.1 + 2.0j, -0.2 - 2.1j])
        out = project_conjugate_closure(om)
        mean = 0.5 * (om[0] + np.conj(om[1]))
        assert_allclose(out, [mean, np.conj(mean)])

    def test_unmatched_forced_real(self):
        out = project_conjugate_closure(np.array([0.5 + 0.3j]))
        assert_allclose(out, [0.5])

    def test_closed_set_unchanged(self):
        om = np.array([-0.1 + 2j, -0.1 - 2j, -0.4 + 0j])
        assert_allclose(project_conjugate_closure(om), om)

    def test_modes_without_amplitudes_rejected(self):
        om = np.array([-0.1 + 2.0j, -0.2 - 2.1j])
        modes = np.eye(2, dtype=complex)
        with pytest.raises(DataError, match="both modes and amplitudes"):
            project_conjugate_closure(om, modes)
        with pytest.raises(DataError, match="both modes and amplitudes"):
            project_conjugate_closure(om, amplitudes=np.ones(2, dtype=complex))

    def test_ties_go_to_the_lowest_index(self):
        # 2 and 9 are equally near conj(1j); index 9 is past the size of a
        # small set's hash table, so a set of candidates iterates it first
        om = np.zeros(10, dtype=complex)
        om[[0, 2, 9]] = 1j, 0.5 - 1j, -0.5 - 1j
        expected = np.array([0.25 + 1j, 0.25 - 1j, -0.5])
        assert np.array_equal(project_conjugate_closure(om)[[0, 2, 9]], expected)
        assert np.array_equal(_close_stack(om[None])[0, [0, 2, 9]], expected)

    def test_stack_matches_the_row_version(self):
        # integer imaginary parts in [-2, 2] give ties, real entries,
        # unmatched positives and rows without negatives; half the stacks
        # take integer real parts too, so that distances tie exactly
        rng = np.random.default_rng(25)
        for trial in range(2000):
            shape = (rng.integers(1, 21), rng.integers(1, 9))
            imag = rng.integers(-2, 3, size=shape)
            real = rng.integers(-2, 3, size=shape) if trial % 2 else rng.standard_normal(shape)
            stack = real + 1j * imag
            rows = np.array([project_conjugate_closure(row) for row in stack])
            assert _close_stack(stack).tobytes() == rows.tobytes()

    def test_stack_rows_with_non_finite_distances_follow_the_row_version(self):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
        stack[1, 2] = np.nan
        stack[2, 4] = complex(np.inf, -1.0)
        stack[3, 0] = 1e308 + 1e308j  # finite, but its distances overflow
        rows = np.array([project_conjugate_closure(row) for row in stack])
        assert np.array_equal(_close_stack(stack), rows, equal_nan=True)


class TestMatchFrequencies:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_least_total_cost_of_every_permutation(self, rank):
        rng = np.random.default_rng(rank)
        columns = np.arange(rank)
        for _ in range(20):
            reference = rng.normal(size=rank) + 1j * rng.normal(size=rank)
            candidate = rng.normal(size=rank) + 1j * rng.normal(size=rank)
            perm, matched = match_frequencies(reference, candidate)
            cost = np.abs(candidate[:, None] - reference[None, :])
            best = min(
                cost[list(order), columns].sum()
                for order in itertools.permutations(range(rank))
            )
            assert sorted(perm) == list(range(rank))
            assert np.array_equal(matched, cost[perm, columns])
            assert matched.sum() == pytest.approx(best, rel=1e-12)

    def test_shuffled_reference_is_put_back(self):
        reference = np.array([-0.1 + 2j, -0.1 - 2j, -0.5 + 0j, -0.2 + 0.7j, -0.2 - 0.7j])
        shuffle = np.array([3, 0, 4, 2, 1])
        perm, matched = match_frequencies(reference, reference[shuffle])
        assert np.array_equal(reference[shuffle][perm], reference)
        assert np.all(matched == 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_frequencies_rejected(self, bad):
        good = np.array([-0.1 + 2j, -0.1 - 2j, -0.5 + 0j])
        broken = good.copy()
        broken[1] = bad
        for reference, candidate in ((broken, good), (good, broken)):
            with pytest.raises(NumericalError, match="non-finite"):
                match_frequencies(reference, candidate)


class TestBagging:
    def test_degenerate_ensemble_matches_single_fit(self):
        x = two_tone(np.linspace(0, 5, 41))
        single = fit_optdmd(x, rank=2)
        bagged = fit_bopdmd(x, rank=2, trials=1, subset_fraction=1.0, seed=0)
        assert bagged.trials == 1
        assert_allclose(bagged.members[0].omegas, single.omegas, atol=1e-12)
        assert_allclose(bagged.members[0].amplitudes, single.amplitudes, atol=1e-12)

    def test_noiseless_members_agree(self):
        x = two_tone(np.linspace(0, 5, 61))
        bagged = fit_bopdmd(x, rank=2, trials=10, subset_fraction=0.8, seed=1)
        truth = np.array([-0.1 + 2j, -0.1 - 2j])
        for member in bagged.members:
            assert_allclose(member.omegas, truth, atol=1e-4)

    def test_alignment_positions_match(self):
        x = two_tone(np.linspace(0, 5, 61))
        bagged = fit_bopdmd(x, rank=2, trials=6, subset_fraction=0.7, seed=3)
        reference = bagged.members[0].omegas
        for member in bagged.members[1:]:
            assert np.all(np.abs(member.omegas - reference) < 1e-3)

    def test_seed_reproducibility(self):
        x = two_tone(np.linspace(0, 5, 61))
        a = fit_bopdmd(x, rank=2, trials=4, subset_fraction=0.8, seed=11)
        b = fit_bopdmd(x, rank=2, trials=4, subset_fraction=0.8, seed=11)
        for ma, mb in zip(a.members, b.members):
            assert_allclose(ma.omegas, mb.omegas)

    def test_subset_too_small(self):
        x = two_tone(np.linspace(0, 5, 20))
        with pytest.raises(DataError, match="subset"):
            fit_bopdmd(x, rank=2, trials=2, subset_fraction=0.1, seed=0)

    @pytest.mark.parametrize("n_inits, n_seeds", [(3, 2), (2, 3), (2, 2)])
    def test_lists_of_unequal_length_rejected(self, n_inits, n_seeds):
        xs = [two_tone(np.linspace(0, 5, 41))] * 3
        message = f"3 trajectories need as many inits and seeds, got {n_inits} inits and {n_seeds} seeds"
        with pytest.raises(DataError, match=message):
            fit_ensembles(xs, 2, [None] * n_inits, list(range(n_seeds)), 2, 0.8)

    def test_noisy_ensemble_mean_tracks_truth(self):
        rng = np.random.default_rng(17)
        instants = np.linspace(0, 5, 81)
        clean = 2.0 * np.cos(2.0 * instants) * np.exp(-0.1 * instants)
        noisy = clean + 0.01 * np.std(clean) * rng.standard_normal(clean.shape)
        x = SnapshotMatrix(noisy[None, :], TimeGrid(instants))
        bagged = fit_bopdmd(x, rank=2, trials=10, subset_fraction=0.8, seed=5)
        truth = np.array([-0.1 + 2j, -0.1 - 2j])
        mean = mean_omegas(bagged)
        err = np.max(np.abs(np.sort_complex(mean) - np.sort_complex(truth)))
        assert err < 0.05


# Member objectives of the noisy case below under the earlier solver,
# whose Jacobian held the linear coefficients fixed without projecting:
# every member stopped at max_iters (200) without converging.
UNPROJECTED_OBJECTIVES = (
    (0.1894711747888352, 0.1886578069726557, 0.18544014239868814),
    (0.17941737852049047, 0.18218425345611974, 0.17961676725358727),
    (0.17511046092576368, 0.175413415028496, 0.17420134848241994),
    (0.18552641221450752, 0.19163192894291484, 0.18667071614290157),
    (0.19742853977738276, 0.19329353123897478, 0.18938675030609417),
    (0.18722347689739466, 0.18305789959283156, 0.18420708699236024),
    (0.18789906914377225, 0.18089402494748208, 0.19051987028933745),
    (0.17363743816213967, 0.1758527306000361, 0.17323640126878476),
    (0.1701360982603762, 0.1748695690010989, 0.1698278902734054),
)


class TestNoisyBaggedConvergence:
    def test_members_converge_and_objectives_no_worse(self):
        spec = SynthSpec(
            "exp-modes",
            n_h=200,
            n_params=9,
            param_range=(0.2, 0.8),
            n_t=80,
            dt=0.08,
            noise_std=0.01,
            seed=23,
        )
        dataset, _ = generate(spec)
        latent = project(dataset, fit_global_basis(dataset, 6))
        for i, before in enumerate(UNPROJECTED_OBJECTIVES):
            bagged = fit_bopdmd(
                latent.trajectory(i), 6, trials=3, subset_fraction=0.8, seed=i
            )
            for member, objective in zip(bagged.members, before):
                assert member.converged and member.n_iters <= 20, (i, member.n_iters)
                assert member.objective <= objective * (1 + 1e-9), i


def ensemble_mean(bagged, t):
    """Mean of the member predictions: the bagged prediction oracle."""
    return np.mean([predict_optdmd(member, t) for member in bagged.members], axis=0)


class TestEnsemblePredict:
    def test_identical_members_equal_either(self):
        # with the full time grid every member fits the same data
        x = two_tone(np.linspace(0, 5, 41))
        bagged = fit_bopdmd(x, rank=2, trials=2, subset_fraction=1.0, seed=0)
        t = np.array([0.5, 1.5])
        assert_allclose(
            ensemble_mean(bagged, t),
            predict_optdmd(bagged.members[0], t),
            atol=1e-12,
        )

    def test_noiseless_ensemble_matches_truth_inside_window(self):
        instants = np.linspace(0, 5, 61)
        x = two_tone(instants)
        bagged = fit_bopdmd(x, rank=2, trials=10, subset_fraction=0.8, seed=2)
        t = 3.3
        truth = 2.0 * np.cos(2.0 * t) * np.exp(-0.1 * t)
        assert_allclose(ensemble_mean(bagged, t), [truth], atol=1e-4)


class TestCondense:
    def test_degenerate_ensemble_matches_single_fit(self):
        x = two_tone(np.linspace(0, 5, 41))
        single = fit_optdmd(x, rank=2)
        bagged = fit_bopdmd(x, rank=2, trials=1, subset_fraction=1.0, seed=0)
        condensed = condense_ensemble(bagged, x)
        assert_allclose(condensed.omegas, single.omegas, atol=1e-10)
        assert_allclose(condensed.amplitudes, single.amplitudes, atol=1e-8)
        assert_allclose(condensed.modes, single.modes, atol=1e-8)

    def test_condensed_model_matches_truth(self):
        instants = np.linspace(0, 5, 61)
        x = two_tone(instants)
        bagged = fit_bopdmd(x, rank=2, trials=8, subset_fraction=0.8, seed=3)
        condensed = condense_ensemble(bagged, x)
        assert condensed.rank == 2
        assert_allclose(
            np.sort(condensed.omegas.imag), [-2.0, 2.0], atol=1e-4
        )
        t = np.linspace(0, 5, 17)
        truth = 2.0 * np.cos(2.0 * t) * np.exp(-0.1 * t)
        assert_allclose(predict_optdmd(condensed, t)[0], truth, atol=1e-4)
