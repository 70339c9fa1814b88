"""Tests for latent-trajectory interpolation surrogates."""

import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd import dmd, latent as latent_module, regression
from pdmd.archive import save_model
from pdmd.bench import default_suite
from pdmd.data import TimeGrid, lattice_steps, split_train_test
from pdmd.dmd import fit_dmd, reconstruct
from pdmd.errors import (
    DataError,
    ExtrapolationWarning,
    IllConditionedWarning,
    ImaginaryResidualWarning,
    NumericalError,
)
from pdmd.latent import (
    MonolithicModel,
    PartitionedModel,
    fit_monolithic,
    fit_partitioned,
    predict_latent,
)
from pdmd.metrics import frobenius_rel_error
from pdmd.pipeline import FitOptions, fit_surrogate
from pdmd.reduction import GlobalBasis, LatentDataset, lift
from pdmd.regression import FitCount, RegressorSpec
from pdmd.synth import generate

from test_dmd import spectral_model


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


def sites_for(latent, spec=RegressorSpec("linear")):
    return regression.prepare(spec, latent.params)


def per_step_prediction(model, mu, times):
    """Reference oracle for predict_latent: every DMD advanced separately
    to each requested instant, then one regressor fit per instant on the
    model's training parameters, prepared afresh."""
    lattice = model.stacked_dmd if isinstance(model, MonolithicModel) else model.members[0]
    steps = lattice_steps(times, lattice.t0, lattice.dt)
    columns = []
    for step in steps:
        if isinstance(model, MonolithicModel):
            # the stacked state holds each parameter's rows in turn
            states = advance(model.stacked_dmd, step).reshape(len(model.sites.params), -1)
        else:
            states = np.vstack([advance(member, step) for member in model.members])
        sites = regression.prepare(model.sites.spec, model.sites.params)
        regressor = regression.fit(sites, states)
        columns.append(regression.combine(regression.stencil(sites, mu), regressor))
    return lift(np.column_stack(columns), model.basis)


def predict_one(model, mu, times):
    """State trajectory at one parameter vector: predict_latent on a
    one-row block, lifted."""
    return lift(predict_latent(model, [mu], times)[0], model.basis)


class TestFitMonolithic:
    def test_single_parameter_matches_plain_fit(self):
        latent, _ = two_block_family()
        single = LatentDataset(
            latent.basis, latent.params[:1], latent.latents[:1], latent.grid
        )
        model = fit_monolithic(single, sites_for(single))
        reference = fit_dmd(single.trajectory(0), 2)
        assert_allclose(
            model.stacked_dmd.eigenvalues, reference.eigenvalues, atol=1e-12
        )

    def test_decoupled_blocks_give_union_spectrum(self):
        latent, ops = two_block_family()
        model = fit_monolithic(latent, sites_for(latent))
        expected = np.concatenate([np.linalg.eigvals(op) for op in ops])
        got = np.sort_complex(model.stacked_dmd.eigenvalues)
        assert_allclose(got, np.sort_complex(expected), atol=1e-8)

    def test_full_rank_training_reconstruction(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent, sites_for(latent))
        stacked = np.vstack(latent.latents)
        rebuilt = reconstruct(model.stacked_dmd, latent.grid).state
        assert frobenius_rel_error(stacked, rebuilt) <= 1e-8

    def test_block_slices_match_standalone_fits(self):
        latent, _ = two_block_family()
        model = fit_monolithic(latent, sites_for(latent))
        rebuilt = reconstruct(model.stacked_dmd, latent.grid).state
        for i in range(latent.n_params):
            lo, hi = 2 * i, 2 * (i + 1)
            standalone = reconstruct(
                fit_dmd(latent.trajectory(i), 2), latent.grid
            ).state
            assert frobenius_rel_error(standalone, rebuilt[lo:hi]) <= 1e-7

    def test_rank_deficient_stack_is_clipped(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        model = fit_monolithic(latent, sites_for(latent))
        assert model.stacked_dmd.rank == 2


class TestFitPartitioned:
    def test_members_recover_spectra(self):
        latent, ops = two_block_family()
        model = fit_partitioned(latent, sites_for(latent))
        for member, op in zip(model.members, ops):
            assert_allclose(
                np.sort_complex(member.eigenvalues),
                np.sort_complex(np.linalg.eigvals(op)),
                atol=1e-8,
            )

    def test_member_numerical_error_names_its_parameter(self, monkeypatch):
        latent, _ = scaled_family([0.5, 1.5, 2.5])
        failure = NumericalError("eigendecomposition failed")
        calls = []

        def fail_on_second(trajectory, rank):
            calls.append(trajectory)
            if len(calls) == 2:
                raise failure
            return fit_dmd(trajectory, rank)

        monkeypatch.setattr(latent_module, "fit_dmd", fail_on_second)
        with pytest.raises(NumericalError) as caught:
            fit_partitioned(latent, sites_for(latent))
        assert str(caught.value) == (
            "training parameter 1 (mu = [1.5]): eigendecomposition failed"
        )
        assert caught.value.__cause__ is failure
        assert len(calls) == 2  # raised at once, before the third member


class TestPredictLatent:
    def test_overflowing_member_raises(self):
        latent, _ = two_block_family()
        model = fit_partitioned(latent, sites_for(latent))
        grown = replace(model.members[1], eigenvalues=np.array([1e3 + 0j, 0.5 + 0j]))
        model = replace(model, members=(model.members[0], grown))
        times = latent.grid.instants[0] + latent.grid.dt * np.array([0.0, 50.0, 150.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow at lattice step 150"):
                predict_latent(model, [[0.5]], times)

    def test_training_parameter_matches_member(self):
        latent, _ = two_block_family()
        for model in (
            fit_monolithic(latent, sites_for(latent)),
            fit_partitioned(latent, sites_for(latent)),
        ):
            member = fit_dmd(latent.trajectory(1), 2)
            reference = lift(reconstruct(member, latent.grid).state, latent.basis)
            pred = predict_one(model, latent.params[1], latent.grid.instants)
            assert frobenius_rel_error(reference, pred) <= 1e-9

    def test_amplitude_family_exact_at_unseen_parameter(self):
        latent, base = scaled_family([0.5, 1.0, 1.5])
        target = 0.75
        truth = target * base
        sites = sites_for(latent)
        for model in (fit_monolithic(latent, sites), fit_partitioned(latent, sites)):
            pred = predict_one(model, [target], latent.grid.instants)
            assert frobenius_rel_error(truth, pred) <= 1e-8

    def test_variants_agree_on_smooth_family(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        times = latent.grid.instants[:10]
        mono = predict_one(fit_monolithic(latent, sites_for(latent)), [0.8], times)
        part = predict_one(fit_partitioned(latent, sites_for(latent)), [0.8], times)
        assert_allclose(mono, part, atol=1e-7)

    def test_single_instant_single_column(self):
        latent, _ = scaled_family([0.5, 1.0])
        model = fit_partitioned(latent, sites_for(latent))
        out = predict_one(model, [0.7], latent.grid.instants[3:4])
        assert out.shape == (2, 1)

    def test_regressor_fit_per_requested_instant(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        sites = sites_for(latent)
        for model in (fit_monolithic(latent, sites), fit_partitioned(latent, sites)):
            with FitCount() as fits:
                predict_one(model, [0.8], latent.grid.instants[:5])
            assert fits.count == 5

    def test_member_order_invariance(self):
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        flipped = LatentDataset(
            latent.basis,
            latent.params[::-1].copy(),
            latent.latents[::-1],
            latent.grid,
        )
        times = latent.grid.instants[:8]
        assert_allclose(
            predict_one(fit_partitioned(latent, sites_for(latent)), [0.9], times),
            predict_one(fit_partitioned(flipped, sites_for(flipped)), [0.9], times),
            atol=1e-10,
        )

    def test_off_lattice_instant_rejected(self):
        latent, _ = scaled_family([0.5, 1.0])
        model = fit_partitioned(latent, sites_for(latent))
        with pytest.raises(DataError, match="lattice"):
            predict_one(model, [0.7], np.array([0.5]))

    def test_single_parameter_degrades_to_nearest(self):
        latent, base = scaled_family([1.0])
        model = fit_partitioned(latent, sites_for(latent))
        with pytest.warns(Warning, match="clamped"):
            pred = predict_one(model, [3.0], latent.grid.instants)
        member = fit_dmd(latent.trajectory(0), 2)
        reference = lift(reconstruct(member, latent.grid).state, latent.basis)
        assert_allclose(pred, reference, atol=1e-10)

    def test_each_dmd_evaluated_once_per_query(self, monkeypatch):
        # and not at all when the model's last query asked for the same
        # instants, whatever the mu
        latent, _ = scaled_family([0.5, 1.0, 1.5])
        evaluated = []

        def counting_evaluate(models, steps):
            evaluated.extend(models)
            return dmd._evaluate_stack(models, steps)

        monkeypatch.setattr(latent_module, "_evaluate_stack", counting_evaluate)
        times = latent.grid.instants[:7]
        others = latent.grid.instants[2:9]
        part = fit_partitioned(latent, sites_for(latent))
        mono = fit_monolithic(latent, sites_for(latent))
        for model, expected in ((part, part.members), (mono, [mono.stacked_dmd])):
            expected = [id(m) for m in expected]
            for mu, instants, evaluates in (
                ([0.8], times, True),
                ([0.8], times, False),
                ([0.6], times, False),
                ([0.8], others, True),
                ([0.6], others, False),
                ([0.8], times, True),
            ):
                evaluated.clear()
                predict_one(model, mu, instants)
                assert [id(m) for m in evaluated] == (expected if evaluates else [])


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
            pred = predict_one(fitted.model, mu, times)
            oracle = per_step_prediction(fitted.model, mu, times)
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


def per_instant_loop(model, rows, times):
    """Reference oracle for predict_latent: each instant prepares the
    model's training parameters afresh, fits one regressor and reads
    every row through a stencil of its own."""
    lattice = model.stacked_dmd if isinstance(model, MonolithicModel) else model.members[0]
    steps = lattice_steps(times, lattice.t0, lattice.dt)
    if isinstance(model, MonolithicModel):
        stacked = dmd.evaluate(model.stacked_dmd, steps)
        rank = model.basis.rank
        blocks = [stacked[i * rank : (i + 1) * rank] for i in range(len(model.sites.params))]
    else:
        blocks = [dmd.evaluate(member, steps) for member in model.members]
    trajectories = np.stack(blocks)
    latents = np.empty((len(rows),) + trajectories.shape[1:])
    for k in range(steps.size):
        sites = regression.prepare(model.sites.spec, model.sites.params)
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
    sites = sites_for(latent, spec)
    for model in (fit_monolithic(latent, sites), fit_partitioned(latent, sites)):
        if policy == "error" and where == "outside":
            with pytest.raises(DataError, match="hull"):
                predict_latent(model, rows, times)
            with pytest.raises(DataError, match="hull"):
                per_instant_loop(model, rows, times)
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            got = predict_latent(model, rows, times)
            want = per_instant_loop(model, rows, times)
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
        model = fit_model(latent, sites_for(latent))
        times = latent.grid.instants
        n_warnings = count_warnings(
            ExtrapolationWarning,
            lambda: predict_latent(model, [[5.0]], times),
        )
        assert len(times) > 1
        assert n_warnings == 1

    def test_ill_conditioned_rbf_system(self, fit_model):
        # the model's sites are prepared once, so the warning comes with
        # them, before the fit, and no query repeats it
        latent = swept_family([[0.0], [1e-9], [1.0]])
        spec = RegressorSpec("rbf-gauss", shape=100.0)
        prepared = []
        assert count_warnings(
            IllConditionedWarning, lambda: prepared.append(sites_for(latent, spec))
        ) == 1
        model = fit_model(latent, prepared[0])
        n_warnings = count_warnings(
            IllConditionedWarning,
            lambda: predict_latent(model, [[0.5]], latent.grid.instants),
        )
        assert n_warnings == 0

    def test_one_warning_per_clamped_row_from_predict_latent(self, fit_model):
        latent = swept_family([[0.2], [0.5], [0.8]])
        model = fit_model(latent, sites_for(latent))
        rows = [[5.0], [0.5], [-1.0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            predict_latent(model, rows, latent.grid.instants)
        assert [str(w.message) for w in caught] == [
            "query [5.0] clamped to hull box [0.8]",
            "query [-1.0] clamped to hull box [0.2]",
        ]
        assert all(w.category is ExtrapolationWarning for w in caught)
        assert all(w.filename == latent_module.__file__ for w in caught)


def residual_model(fit_model):
    """A model at three parameters and rank 2 whose DMDs leave imaginary
    residuals: a lone complex eigenvalue (no conjugate) has no real
    trajectory.  The partitioned model's middle member is real, so two of
    its three members warn; the monolithic model's one DMD warns."""
    sites = regression.prepare(RegressorSpec("linear"), np.array([[0.0], [0.5], [1.0]]))
    if fit_model is fit_monolithic:
        modes = [[1.0, 0.2], [0.5, 1.0], [0.3, 0.4], [1.0, 0.0], [0.2, 0.1], [0.0, 1.0]]
        stacked = spectral_model([0.9 * np.exp(0.3j), 0.7], modes, [1.0, 2.0])
        return MonolithicModel(identity_basis(2), stacked, sites)
    members = (
        spectral_model([0.9 * np.exp(0.3j)], [[1.0], [0.5]], [1.0]),
        spectral_model([0.5], [[1.0], [2.0]], [1.0]),
        spectral_model([0.8 * np.exp(1.1j)], [[2.0], [1.0]], [3.0]),
    )
    return PartitionedModel(identity_basis(2), members, sites)


@pytest.mark.parametrize("fit_model", [fit_monolithic, fit_partitioned], ids=["mono", "part"])
class TestStatesKeptWithTheModel:
    """A model keeps the state tables of the lattice steps that its last
    query asked for; what a query returns, warns and raises, and what an
    archive holds, do not depend on whether they were kept."""

    def test_repeated_query_matches_the_first_and_a_fresh_model(self, fit_model):
        latent = swept_family(ORACLE_PARAMS[2])
        spec = ORACLE_SPECS["rbf-gauss"]
        model = fit_model(latent, sites_for(latent, spec))
        rows = oracle_rows(latent.params, "inside", 3)
        times = latent.grid.instants[1::2]
        first = predict_latent(model, rows, times)
        again = predict_latent(model, rows, times)
        other_rows = predict_latent(model, rows[::-1], times)
        fresh = fit_model(latent, sites_for(latent, spec))
        assert again.tobytes() == first.tobytes()
        assert predict_latent(fresh, rows, times).tobytes() == first.tobytes()
        assert other_rows.tobytes() == predict_latent(fresh, rows[::-1], times).tobytes()

    def test_fit_count_reads_n_t_on_a_repeated_query(self, fit_model):
        latent = swept_family(ORACLE_PARAMS[1])
        model = fit_model(latent, sites_for(latent))
        times = latent.grid.instants[:9]
        for _ in range(3):
            with FitCount() as fits:
                predict_latent(model, [[0.5]], times)
            assert fits.count == len(times)

    def test_repeated_query_warns_each_imaginary_residual_again(self, fit_model):
        model = residual_model(fit_model)
        dmds = [model.stacked_dmd] if fit_model is fit_monolithic else list(model.members)
        times = np.arange(0.0, 120.0, 3.0)
        with warnings.catch_warnings(record=True) as direct:
            warnings.simplefilter("always")
            dmd.evaluate_stack(dmds, lattice_steps(times, 0.0, 1.0))
        expected = [str(w.message) for w in direct]
        assert len(expected) == (1 if fit_model is fit_monolithic else 2)
        answers = []
        for mu in ([[0.4]], [[0.4]], [[0.7]]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                answers.append(predict_latent(model, mu, times))
            assert [str(w.message) for w in caught] == expected
            assert all(w.category is ImaginaryResidualWarning for w in caught)
            assert all(w.filename == latent_module.__file__ for w in caught)
        assert answers[1].tobytes() == answers[0].tobytes()

    def test_overflow_raises_on_every_query(self, fit_model):
        # an overflow is not kept with the model, which still answers
        # where its states are finite
        latent, _ = two_block_family()
        model = fit_model(latent, sites_for(latent))

        def grown(member):
            # every eigenvalue scaled, so conjugate pairs stay pairs
            return replace(member, eigenvalues=1e3 * member.eigenvalues)

        if fit_model is fit_monolithic:
            model = replace(model, stacked_dmd=grown(model.stacked_dmd))
        else:
            model = replace(model, members=(model.members[0], grown(model.members[1])))
        times = np.array([0.0, 50.0, 150.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                with pytest.raises(NumericalError, match="overflow at lattice step 150"):
                    predict_latent(model, [[0.5]], times)
            assert np.isfinite(predict_latent(model, [[0.5]], times[:2])).all()
            with pytest.raises(NumericalError, match="overflow at lattice step 150"):
                predict_latent(model, [[0.5]], times)

    def test_a_query_leaves_the_archive_and_repr_as_they_were(self, fit_model, tmp_path):
        latent = swept_family(ORACLE_PARAMS[1])
        model = fit_model(latent, sites_for(latent))
        before, after = tmp_path / "before.pdmd", tmp_path / "after.pdmd"
        shown = repr(model)
        save_model(model, before)
        predict_latent(model, [[0.5]], latent.grid.instants)
        save_model(model, after)
        assert after.read_bytes() == before.read_bytes()
        assert repr(model) == shown

    def test_threads_at_different_instants_get_the_serial_answers(self, fit_model):
        """More query threads than cores on one model, switching every
        microsecond, each asking for its own instants."""
        latent = swept_family(ORACLE_PARAMS[1])
        model = fit_model(latent, sites_for(latent))
        rows = oracle_rows(latent.params, "inside", 2)
        instants = latent.grid.instants
        windows = [instants[:3], instants[5:6], instants[::8], instants[2:4]]
        serial = [predict_latent(fit_model(latent, sites_for(latent)), rows, w) for w in windows]
        mismatches, done = [], []

        def queries(i):
            for _ in range(3000):
                if not np.array_equal(predict_latent(model, rows, windows[i]), serial[i]):
                    mismatches.append(i)
            done.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=queries, args=(i,)) for i in range(len(windows))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(len(windows)))
        assert mismatches == []


@pytest.mark.parametrize("fit_model", [fit_monolithic, fit_partitioned], ids=["mono", "part"])
@pytest.mark.parametrize("n_rows", [1, 2, 6])
def test_block_read_fits_and_combines_once_per_instant(fit_model, n_rows, monkeypatch):
    """One regression.fit per instant, for all rows of the block at
    once, and one regression.combine per call, for all rows and
    instants; FitCount still reads N_t."""
    latent = swept_family(ORACLE_PARAMS[1])
    model = fit_model(latent, sites_for(latent))
    calls = {"fit": 0, "combine": 0}

    def counted(name):
        original = getattr(regression, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        return call

    for name in calls:
        monkeypatch.setattr(regression, name, counted(name))
    times = latent.grid.instants[::2]
    rows = oracle_rows(latent.params, "inside", n_rows)
    with FitCount() as fits:
        out = predict_latent(model, rows, times)
    assert out.shape == (n_rows, 2, len(times))
    assert calls == {"fit": len(times), "combine": 1}
    assert fits.count == len(times)


# einsum's summation order over the table rows can depend on their number,
# so the reads are compared at 6 and at 10 training parameters (and poly at
# 10 feature rows: degree 3 in two parameters)
READ_SPECS = {
    "linear": (RegressorSpec("linear"), 1),
    "nearest": (RegressorSpec("nearest"), 2),
    "rbf-gauss": (RegressorSpec("rbf-gauss"), 2),
    "rbf-tps": (RegressorSpec("rbf-tps"), 2),
    "poly": (RegressorSpec("poly", degree=3, ridge=1e-3), 2),
}


def read_params(n_params, p):
    if p == 1:
        return np.linspace(0.2, 0.95, n_params)[:, None]
    return np.random.default_rng(n_params).uniform(0.1, 0.9, (n_params, p))


@pytest.mark.parametrize("n_rows", [1, 3])
@pytest.mark.parametrize("n_params", [6, 10])
@pytest.mark.parametrize("kind", READ_SPECS)
def test_one_read_matches_per_instant_loop_bit_for_bit(kind, n_params, n_rows):
    spec, p = READ_SPECS[kind]
    latent = swept_family(read_params(n_params, p))
    lo, hi = latent.params.min(axis=0), latent.params.max(axis=0)
    # inside rows, and with three rows a last one past the hull, clamped
    rows = [0.6 * lo + 0.4 * hi, 0.2 * lo + 0.8 * hi, hi + 0.3 * (hi - lo)][:n_rows]
    rows = np.asarray(rows)
    sites = sites_for(latent, spec)
    for model in (fit_monolithic(latent, sites), fit_partitioned(latent, sites)):
        for times in (latent.grid.instants[1::2], latent.grid.instants[:0]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = predict_latent(model, rows, times)
            assert len(caught) == (n_rows == 3)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ExtrapolationWarning)
                want = per_instant_loop(model, rows, times)
            assert got.shape == (n_rows, 2, len(times))
            assert np.array_equal(got, want)
