"""Acceptance gate: nine end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every check pins its tolerance and, where stated, its wall-clock budget.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.archive import load_model, save_model
from pdmd.bench import _default_window, default_suite, run_suite
from pdmd.data import (
    SnapshotMatrix,
    TimeGrid,
    read_dataset,
    restrict_time,
    split_train_test,
    write_dataset,
)
from pdmd.dmd import evaluate, fit_dmd
from pdmd.latent import fit_monolithic, fit_partitioned, predict_latent
from pdmd.metrics import frobenius_rel_error, parameter_label, time_rel_error
from pdmd.optdmd import fit_ensembles, fit_optdmd, project_conjugate_closure
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate, timed_query
from pdmd.reduction import GlobalBasis, LatentDataset, lift
from pdmd.regression import RegressorSpec, combine, prepare, stencil
from pdmd.roi import synthesize_operator
from pdmd.synth import ExpMode, SynthSpec, generate


def _verdict(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index}/9 {status}: {name} ({detail})")
    assert ok, f"criterion {index} {name}: {detail}"


def rotation(radius, angle):
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def two_tone(n_t=100, dt=0.1):
    instants = dt * np.arange(n_t)
    states = np.vstack(
        [
            np.exp(-0.1 * instants) * np.cos(2 * instants),
            np.exp(-0.1 * instants) * np.sin(2 * instants),
        ]
    )
    truth = np.sort_complex(np.array([-0.1 + 2j, -0.1 - 2j]))
    return SnapshotMatrix(states, TimeGrid(instants)), truth


def affine_rotation_family():
    """A(mu) = Q (L0 + mu L1) Q^T with well-conditioned rotation blocks."""
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    blocks = [
        (0.97, 0.3, 0.93, 0.5),
        (0.95, 0.8, 0.9, 0.6),
        (0.92, 1.1, 0.96, 0.9),
        (0.9, 0.45, 0.94, 1.2),
    ]
    lam0 = np.zeros((8, 8))
    lam1 = np.zeros((8, 8))
    for j, (r_lo, a_lo, r_hi, a_hi) in enumerate(blocks):
        at_lo = rotation(r_lo, a_lo)
        lam0[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = at_lo
        lam1[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rotation(r_hi, a_hi) - at_lo
    return q @ lam0 @ q.T, q @ lam1 @ q.T, q @ np.ones(8)


@pytest.fixture(scope="module")
def suite_outcome(tmp_path_factory):
    """Two seeded runs of the default benchmark suite."""
    dir_a = tmp_path_factory.mktemp("suite_a")
    dir_b = tmp_path_factory.mktemp("suite_b")
    started = time.perf_counter()
    results_a = run_suite(default_suite(), str(dir_a))
    seconds = time.perf_counter() - started
    results_b = run_suite(default_suite(), str(dir_b))
    return SimpleNamespace(
        a=results_a, b=results_b, seconds=seconds, dir_a=dir_a, dir_b=dir_b
    )


def test_linear_system_exactness():
    # 64-dimensional state driven by six true modes with distinct
    # eigenvalues; the fit must recover the spectrum and forecast a
    # doubled horizon at rounding level.
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((64, 6)))
    blocks = [(0.95, 0.4), (0.9, 0.9), (0.85, 1.4)]
    d = np.zeros((6, 6))
    for j, (radius, angle) in enumerate(blocks):
        d[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rotation(radius, angle)
    truth_eigs = np.sort_complex(np.linalg.eigvals(d))

    n_train, dt = 60, 0.1
    z = np.ones(6)
    latent_path = [z]
    for _ in range(2 * n_train - 1):
        latent_path.append(d @ latent_path[-1])
    full = q @ np.column_stack(latent_path)
    train_grid = TimeGrid(dt * np.arange(n_train))

    model = fit_dmd(SnapshotMatrix(full[:, :n_train], train_grid), 6)
    eig_err = np.max(
        np.abs(np.sort_complex(model.eigenvalues) - truth_eigs) / np.abs(truth_eigs)
    )
    forecast = evaluate(model, np.arange(2 * n_train))
    rec_err = frobenius_rel_error(full, forecast)
    seconds = time.perf_counter() - started
    _verdict(
        1,
        "linear-system exactness",
        eig_err <= 1e-8 and rec_err <= 1e-8 and seconds < 1.0,
        f"eig {eig_err:.2e}, forecast {rec_err:.2e}, {seconds:.2f}s",
    )


def test_two_tone_recovery_and_bagging():
    started = time.perf_counter()
    clean, truth = two_tone()

    def omega_err(omegas):
        return np.max(np.abs(np.sort_complex(omegas) - truth) / np.abs(truth))

    clean_err = omega_err(fit_optdmd(clean, 2).omegas)

    # 1% noise; the ensemble mean over 20 random-subset trials must be at
    # least as accurate as the median individual trial fit
    sigma = 0.01 * np.sqrt(np.mean(clean.state**2))
    noise = np.random.default_rng(1004).standard_normal(clean.state.shape)
    noisy = SnapshotMatrix(clean.state + sigma * noise, clean.grid)
    ensemble = fit_ensembles([noisy], 2, [None], [4], 20, 0.3)[0]
    member_errs = np.array([omega_err(m.omegas) for m in ensemble])
    bag_err = omega_err(
        project_conjugate_closure(np.mean([m.omegas for m in ensemble], axis=0))
    )
    seconds = time.perf_counter() - started
    _verdict(
        2,
        "optimized-DMD two-tone recovery",
        clean_err <= 1e-5 and bag_err <= np.median(member_errs) and seconds < 10.0,
        f"clean {clean_err:.2e}, bag {bag_err:.2e} vs member median "
        f"{np.median(member_errs):.2e}, {seconds:.2f}s",
    )


def test_operator_family_exactness():
    started = time.perf_counter()
    a0, a1, x0 = affine_rotation_family()
    spec = SynthSpec(
        "linear-operator",
        n_h=8,
        n_params=6,
        param_range=(0.0, 1.0),
        n_t=40,
        dt=0.1,
        seed=0,
        op_base=a0,
        op_slope=a1,
        init_state=x0,
    )
    dataset, oracle = generate(spec)
    surrogate = fit_surrogate(
        dataset, FitOptions("roi", rank=8, regressor=RegressorSpec("linear"))
    )
    u = surrogate.model.basis.modes_u
    op_err = 0.0
    pred_err = 0.0
    for mu in np.linspace(0.1, 0.9, 5):
        model = surrogate.model
        coeffs = combine(stencil(model.sites, [mu]), model.values)
        lifted = u @ synthesize_operator(model, coeffs[: model.op_rank]) @ u.T
        true_op = a0 + mu * a1
        op_err = max(
            op_err, np.linalg.norm(lifted - true_op) / np.linalg.norm(true_op)
        )
        pred = predict_surrogate(
            surrogate.model, [mu], dataset.grid.instants
        )
        pred_err = max(
            pred_err,
            frobenius_rel_error(oracle.trajectory(mu, dataset.grid.instants), pred),
        )
    seconds = time.perf_counter() - started
    _verdict(
        3,
        "operator-family interpolation exactness",
        op_err <= 1e-8 and pred_err <= 1e-6 and seconds < 5.0,
        f"operator {op_err:.2e}, prediction {pred_err:.2e}, {seconds:.2f}s",
    )


def test_smooth_family_accuracy_and_refinement():
    started = time.perf_counter()
    w = (np.ones(6) / np.sqrt(6)).astype(complex)
    decay_modes = (ExpMode(w, np.array([1.0, 0.3, 0.4]), 0j, -1.0 + 0j),)
    rng = np.random.default_rng(5)
    m = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    m /= np.linalg.norm(m)
    freq_modes = (
        ExpMode(m, np.array([1.0, 0.2, 0.5]), -0.05 + 1.0j, 0.4j),
        ExpMode(np.conj(m), np.array([1.0, 0.2, 0.5]), -0.05 - 1.0j, -0.4j),
    )

    mu_star = 0.35  # stays between training nodes on every even grid below
    details = []
    ok = True
    for label, modes, rank in (("decay", decay_modes, 1), ("freq", freq_modes, 2)):
        errors = []
        for n_params in (4, 6, 10, 18):
            spec = SynthSpec(
                "exp-modes",
                n_h=6,
                n_params=n_params,
                param_range=(0.1, 0.6),
                n_t=60,
                dt=0.1,
                seed=0,
                modes=modes,
            )
            dataset, oracle = generate(spec)
            surrogate = fit_surrogate(dataset, FitOptions("rkoi", rank=rank))
            pred = predict_surrogate(
                surrogate.model, [mu_star], dataset.grid.instants
            )
            truth = oracle.trajectory(mu_star, dataset.grid.instants)
            errors.append(frobenius_rel_error(truth, pred))
        monotone = all(a > b for a, b in zip(errors, errors[1:]))
        ok = ok and monotone and errors[2] <= 1e-3
        details.append(f"{label} {'/'.join(f'{e:.1e}' for e in errors)}")
    seconds = time.perf_counter() - started
    _verdict(
        4,
        "spectral interpolation on smooth families",
        ok and seconds < 10.0,
        "; ".join(details) + f", {seconds:.2f}s",
    )


def test_latent_variant_consistency():
    def orbit(op, x0, n_t):
        states = np.empty((len(x0), n_t))
        states[:, 0] = x0
        for k in range(1, n_t):
            states[:, k] = op @ states[:, k - 1]
        return states

    n_t = 30
    grid = TimeGrid(np.arange(float(n_t)))
    ops = (rotation(0.95, 0.3), rotation(0.9, 0.7))
    basis = GlobalBasis(np.eye(2), np.ones(2), 1.0)
    latent = LatentDataset(
        basis,
        np.array([[0.0], [1.0]]),
        tuple(orbit(op, [1.0, 0.0], n_t) for op in ops),
        grid,
    )

    sites = prepare(RegressorSpec("linear"), latent.params)
    mono = fit_monolithic(latent, sites)
    assert mono.stacked_dmd.rank == 4
    steps = np.arange(n_t)
    rebuilt = evaluate(mono.stacked_dmd, steps)
    slice_err = 0.0
    for i in range(latent.n_params):
        lo, hi = 2 * i, 2 * (i + 1)
        standalone = evaluate(fit_dmd(latent.trajectory(i), 2), steps)
        slice_err = max(slice_err, frobenius_rel_error(standalone, rebuilt[lo:hi]))

    train_err = 0.0
    for model in (mono, fit_partitioned(latent, sites)):
        for i in range(latent.n_params):
            member = fit_dmd(latent.trajectory(i), 2)
            reference = lift(evaluate(member, steps), basis)
            pred = lift(predict_latent(model, latent.params[i : i + 1], grid.instants)[0], basis)
            train_err = max(train_err, frobenius_rel_error(reference, pred))

    _verdict(
        5,
        "stacked/partitioned latent consistency",
        slice_err <= 1e-7 and train_err <= 1e-9,
        f"block slices {slice_err:.2e}, training-parameter {train_err:.2e}",
    )


def test_metric_identities():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 7)) + 0.5  # keeps every column nonzero
    y = rng.standard_normal((4, 7))
    checks = {
        "frob equality": frobenius_rel_error(x, x),
        "frob zero": abs(frobenius_rel_error(x, np.zeros_like(x)) - 1.0),
        "frob doubled": abs(frobenius_rel_error(x, 2 * x) - 1.0),
        "frob scale": abs(
            frobenius_rel_error(7.3 * x, 7.3 * y) - frobenius_rel_error(x, y)
        ),
        "time equality": np.max(np.abs(time_rel_error(x, x))),
        "time zero": np.max(np.abs(time_rel_error(x, np.zeros_like(x)) - 1.0)),
        "time doubled": np.max(np.abs(time_rel_error(x, 2 * x) - 1.0)),
        "time scale": np.max(
            np.abs(time_rel_error(7.3 * x, 7.3 * y) - time_rel_error(x, y))
        ),
    }
    worst = max(checks.values())
    _verdict(6, "metric identities", worst <= 1e-12, f"worst deviation {worst:.1e}")


QUERY_REPEATS = 7


def median_query_seconds(scenario) -> dict:
    """(parameter label, algorithm) -> median wall time of QUERY_REPEATS
    ``timed_query`` calls on the scenario's fitted surrogates, with the
    protocol of ``run_suite``.  A median, because a single ~0.3 ms
    roi/rkoi query slowed by the scheduler could flip the ordering."""
    dataset, _ = generate(scenario.synth)
    train, test = split_train_test(dataset, scenario.test_indices)
    window = scenario.train_window or _default_window(dataset.grid)
    train = restrict_time(train, *window)
    seconds = {}
    for algorithm, rank in scenario.ranks.items():
        options = FitOptions(
            algorithm=algorithm, rank=rank, seed=scenario.synth.seed,
            **scenario.fit_options,
        )
        fitted = fit_surrogate(train, options)
        for mu in test.params:
            times = [
                timed_query(fitted.model, mu, dataset.grid.instants)[1]
                for _ in range(QUERY_REPEATS)
            ]
            seconds[parameter_label(mu), algorithm] = float(np.median(times))
    return seconds


def test_online_cost_ordering(suite_outcome):
    ok = True
    details = []
    margins = []
    for scenario, result in zip(default_suite().scenarios, suite_outcome.a):
        ok = ok and result.ok
        if not result.ok:
            details.append(f"{result.name} failed: {result.error}")
            continue
        seconds = median_query_seconds(scenario)
        by_param = {}
        for row in result.rows:
            by_param.setdefault(row["parameter"], {})[row["algorithm"]] = row
        for param, rows in by_param.items():
            fast = max(seconds[param, "roi"], seconds[param, "rkoi"])
            slow = min(seconds[param, "mono"], seconds[param, "part"])
            fits_ok = (
                rows["roi"]["online_fits"] == 0 and rows["rkoi"]["online_fits"] == 0
            )
            ok = ok and fast < slow and fits_ok
            margins.append(slow / fast)
            if not (fast < slow and fits_ok):
                details.append(f"{result.name}/{param}: {fast:.4f}s !< {slow:.4f}s")
    if not details:
        details.append(f"min mono-part/roi-rkoi median time ratio {min(margins):.1f}x")
    _verdict(7, "online-cost ordering with zero online fits", ok, "; ".join(details))


def test_round_trips_and_determinism(suite_outcome, tmp_path):
    spec = SynthSpec(
        "linear-operator",
        n_h=6,
        n_params=5,
        param_range=(0.3, 0.7),
        n_t=30,
        dt=0.1,
        seed=13,
    )
    dataset, _ = generate(spec)

    first = tmp_path / "a.pdmd1"
    second = tmp_path / "b.pdmd1"
    write_dataset(dataset, first)
    reread = read_dataset(first)
    write_dataset(reread, second)
    data_ok = first.read_bytes() == second.read_bytes() and all(
        np.array_equal(a.state, b.state)
        for a, b in zip(dataset.trajectories, reread.trajectories)
    )

    surrogate = fit_surrogate(dataset, FitOptions("roi", rank=6))
    model_a = tmp_path / "a.pdmdm"
    model_b = tmp_path / "b.pdmdm"
    save_model(surrogate.model, model_a, metadata=surrogate.metadata)
    loaded = load_model(model_a)
    save_model(loaded.model, model_b, metadata=loaded.metadata)
    before = predict_surrogate(
        surrogate.model, [0.5], dataset.grid.instants
    )
    after = predict_surrogate(
        loaded.model, [0.5], dataset.grid.instants
    )
    model_ok = model_a.read_bytes() == model_b.read_bytes() and np.array_equal(
        before, after
    )

    timing = ("offline_seconds", "online_seconds")
    suite_ok = True
    for res_a, res_b in zip(suite_outcome.a, suite_outcome.b):
        suite_ok = suite_ok and res_a.ok and res_b.ok
        for row_a, row_b in zip(res_a.rows, res_b.rows):
            for key in row_a:
                if key in timing:
                    continue
                same = row_a[key] == row_b[key] or (
                    isinstance(row_a[key], float)
                    and np.isnan(row_a[key])
                    and np.isnan(row_b[key])
                )
                suite_ok = suite_ok and same
        series_a = (suite_outcome.dir_a / f"{res_a.name}_series.csv").read_bytes()
        series_b = (suite_outcome.dir_b / f"{res_b.name}_series.csv").read_bytes()
        suite_ok = suite_ok and series_a == series_b

    _verdict(
        8,
        "bit-identical round trips and seeded determinism",
        data_ok and model_ok and suite_ok,
        f"dataset {data_ok}, model {model_ok}, suite {suite_ok}",
    )


def test_suite_runtime(suite_outcome):
    rows_ok = all(res.ok and len(res.rows) == 12 for res in suite_outcome.a)
    tables_ok = all(
        (suite_outcome.dir_a / f"{res.name}_table.csv").exists()
        for res in suite_outcome.a
    )
    _verdict(
        9,
        "default suite runtime",
        suite_outcome.seconds < 120.0 and rows_ok and tables_ok,
        f"{suite_outcome.seconds:.1f}s for {len(suite_outcome.a)} scenarios, "
        f"12 rows each: {rows_ok}",
    )
