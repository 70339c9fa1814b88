"""Tests for latent-trajectory interpolation surrogates."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import dmd, latent as latent_module, regression
from pdmd.bench import default_suite
from pdmd.data import TimeGrid, lattice_steps, split_train_test
from pdmd.dmd import fit_dmd, reconstruct
from pdmd.errors import DataError, ExtrapolationWarning, IllConditionedWarning
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
    columns = []
    for step in steps:
        if isinstance(model, MonolithicModel):
            stacked = advance(model.stacked_dmd, step)
            states = np.vstack([stacked[a:b] for a, b in model.block_map])
        else:
            states = np.vstack([advance(member, step) for member in model.members])
        sites = regression.prepare(spec, model.params)
        regressor = regression.fit(sites, states)
        columns.append(regression.combine(regression.stencil(sites, mu), regressor))
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
        model = fit_monolithic(latent)
        expected = np.concatenate([np.linalg.eigvals(op) for op in ops])
        got = np.sort_complex(model.stacked_dmd.eigenvalues)
        assert_allclose(got, np.sort_complex(expected), atol=1e-8)

    def test_full_rank_training_reconstruction(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent)
        stacked = np.vstack(latent.latents)
        rebuilt = reconstruct(model.stacked_dmd, latent.grid).state
        assert frobenius_rel_error(stacked, rebuilt) <= 1e-8

    def test_block_slices_match_standalone_fits(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent)
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


class TestPredictLatent:
    def test_training_parameter_matches_member(self):
        latent, _ = two_block_family()
        spec = RegressorSpec("linear")
        for model in (
            fit_monolithic(latent),
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


def swept_family(params, n_t=24):
    """Latent orbits whose speed follows the first parameter and whose
    decay follows the last, so that every regressor kind interpolates
    something non-trivial."""
    grid = TimeGrid(np.arange(float(n_t)))
    params = np.asarray(params, dtype=float)
    latents = tuple(
        orbit(rotation(0.9 + 0.05 * row[-1], 0.3 + 0.4 * row[0]), [1.0, 0.4], n_t)
        for row in params
    )
    return LatentDataset(identity_basis(2), params, latents, grid)


def per_instant_loop(model, rows, times, spec):
    """Reference oracle for predict_latent: each instant prepares its
    training parameters afresh, fits one regressor and reads every row
    through a stencil of its own."""
    steps = lattice_steps(times, model.t0, model.dt)
    if isinstance(model, MonolithicModel):
        stacked = dmd.evaluate(model.stacked_dmd, steps)
        blocks = [stacked[a:b] for a, b in model.block_map]
    else:
        blocks = [dmd.evaluate(member, steps) for member in model.members]
    trajectories = np.stack(blocks)
    latents = np.empty((len(rows),) + trajectories.shape[1:])
    for k in range(steps.size):
        sites = regression.prepare(spec, model.params)
        regressor = regression.fit(sites, trajectories[:, :, k])
        for i, mu in enumerate(rows):
            latents[i, :, k] = regression.combine(regression.stencil(sites, mu), regressor)
    return latents


ORACLE_SPECS = {
    "linear": RegressorSpec("linear"),
    "nearest": RegressorSpec("nearest"),
    "rbf-gauss": RegressorSpec("rbf-gauss"),
    "rbf-tps": RegressorSpec("rbf-tps"),
    "poly": RegressorSpec("poly", degree=2),
    "poly-ridge": RegressorSpec("poly", degree=2, ridge=1e-3),
}
ORACLE_PARAMS = {
    1: [[0.2], [0.35], [0.5], [0.65], [0.8], [0.95]],
    2: [[0.2, 0.1], [0.8, 0.3], [0.5, 0.9], [0.3, 0.6], [0.7, 0.7], [0.45, 0.2]],
}
ORACLE_CASES = [
    (name, p) for name in ORACLE_SPECS for p in (1, 2) if (name, p) != ("linear", 2)
]


def oracle_rows(params, where, n_rows):
    """n_rows query rows: inside, spread over the hull box shrunk by 5 %
    on each side; outside, spread over the box widened by half its size
    on each side, so that the first and last rows (or the one row) leave
    the hull."""
    lo, hi = params.min(axis=0), params.max(axis=0)
    margin = 0.5 * (hi - lo) if where == "outside" else -0.05 * (hi - lo)
    if n_rows == 1:
        row = hi + margin if where == "outside" else 0.43 * lo + 0.57 * hi
        return row[None, :]
    fractions = np.linspace(0.0, 1.0, n_rows)[:, None]
    return (lo - margin) + fractions * (hi - lo + 2 * margin)


@pytest.mark.parametrize("block", ["one-row", "all-rows"])
@pytest.mark.parametrize("where", ["inside", "outside"])
@pytest.mark.parametrize("policy", ["clamp", "allow", "error"])
@pytest.mark.parametrize("kind,p", ORACLE_CASES, ids=lambda v: str(v))
def test_matches_per_instant_loop_bit_for_bit(kind, p, policy, where, block):
    latent = swept_family(ORACLE_PARAMS[p])
    spec = RegressorSpec(**{**vars(ORACLE_SPECS[kind]), "extrapolation": policy})
    n_rows = 1 if block == "one-row" else latent.n_params
    rows = oracle_rows(latent.params, where, n_rows)
    times = latent.grid.instants[::3]
    for model in (fit_monolithic(latent), fit_partitioned(latent)):
        if policy == "error" and where == "outside":
            with pytest.raises(DataError, match="hull"):
                predict_latent(model, rows, times, spec)
            with pytest.raises(DataError, match="hull"):
                per_instant_loop(model, rows, times, spec)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            got = predict_latent(model, rows, times, spec)
            want = per_instant_loop(model, rows, times, spec)
        assert got.shape == want.shape == (len(rows), 2, len(times))
        assert got.tobytes() == want.tobytes()


def count_warnings(category, call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return sum(issubclass(w.category, category) for w in caught)


@pytest.mark.parametrize(
    "fit_model", [fit_monolithic, fit_partitioned], ids=["mono", "part"]
)
class TestWarningsOncePerQuery:
    def test_clamped_query(self, fit_model):
        latent = swept_family([[0.2], [0.5], [0.8]])
        model = fit_model(latent)
        times = latent.grid.instants
        n_warnings = count_warnings(
            ExtrapolationWarning,
            lambda: predict_latent(model, [[5.0]], times, RegressorSpec("linear")),
        )
        assert len(times) > 1
        assert n_warnings == 1

    def test_ill_conditioned_rbf_system(self, fit_model):
        latent = swept_family([[0.0], [1e-9], [1.0]])
        model = fit_model(latent)
        spec = RegressorSpec("rbf-gauss", shape=100.0)
        n_warnings = count_warnings(
            IllConditionedWarning,
            lambda: predict_latent(model, [[0.5]], latent.grid.instants, spec),
        )
        assert n_warnings == 1
