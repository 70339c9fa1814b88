"""Scripted comparison of the four surrogates at desk scale.

Each scenario generates a seeded synthetic dataset, fits all four
algorithms on the training split restricted to a training window, and
evaluates every test parameter over both that window and the forecast
region beyond it.  Output per scenario: a table file (one row per
parameter/algorithm pair with errors, timings, and online fit counts)
and a tidy error-over-time series file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .algorithms import ALGORITHMS
from .data import parse_key_values, restrict_time, split_train_test
from .errors import DataError
from .metrics import (
    frobenius_rel_error,
    parameter_label,
    rmse,
    series_rows,
    time_rel_error,
    write_series,
)
from .options import (
    DATASET,
    MODEL,
    RANK,
    SEED,
    Option,
    fit_keywords,
    keywords,
    parse_indices,
    parse_pair,
)
from .pipeline import FitOptions, fit_surrogate, timed_query
from .regression import RegressorSpec
from .synth import SynthSpec, generate

DEFAULT_TRAIN_FRACTION = 0.7

TABLE_COLUMNS = (
    "parameter",
    "algorithm",
    "train_error",
    "forecast_error",
    "rmse",
    "offline_seconds",
    "online_seconds",
    "online_fits",
)

_TIMING_COLUMNS = ("offline_seconds", "online_seconds")


@dataclass(frozen=True)
class Scenario:
    """One benchmark case: a dataset recipe plus a fixed protocol.
    ``fit_options`` holds the ``FitOptions`` keywords the scenario sets;
    every other field keeps its class default."""

    name: str
    synth: SynthSpec
    test_indices: tuple
    ranks: dict
    train_window: tuple | None = None
    fit_options: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [algo for algo in ALGORITHMS if algo not in self.ranks]
        if missing:
            raise DataError(
                f"scenario {self.name!r} must set a rank for every algorithm; "
                f"missing {missing}"
            )
        bad = {a: r for a, r in self.ranks.items() if int(r) < 1}
        if bad:
            raise DataError(f"scenario {self.name!r} has non-positive ranks: {bad}")
        if not self.test_indices:
            raise DataError(f"scenario {self.name!r} has no test parameters")


@dataclass(frozen=True)
class BenchmarkSuite:
    scenarios: tuple

    def __post_init__(self):
        if not self.scenarios:
            raise DataError("benchmark suite has no scenarios")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate scenario names: {names}")


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    ok: bool
    error: str = ""
    table_path: str = ""
    series_path: str = ""
    rows: tuple = ()


def default_suite() -> BenchmarkSuite:
    """Three seeded scenarios, one per synthetic family, all under
    desk-scale sizes."""
    linear = Scenario(
        name="linear-smooth",
        synth=SynthSpec(
            "linear-operator",
            n_h=12,
            n_params=18,
            param_range=(0.3, 0.7),
            n_t=120,
            dt=0.15,
            seed=11,
        ),
        test_indices=(4, 8, 13),
        ranks={algo: 12 for algo in ALGORITHMS},
    )
    modes = Scenario(
        name="exp-modes",
        synth=SynthSpec(
            "exp-modes",
            n_h=40,
            n_params=9,
            param_range=(0.2, 0.8),
            n_t=160,
            dt=0.08,
            seed=23,
        ),
        test_indices=(1, 4, 6),
        ranks={algo: 6 for algo in ALGORITHMS},
    )
    oscillator = Scenario(
        name="lifted-oscillator",
        synth=SynthSpec(
            "lifted-oscillator",
            n_h=24,
            n_params=9,
            param_range=(0.1, 0.5),
            n_t=140,
            dt=0.05,
            seed=37,
        ),
        test_indices=(2, 4, 6),
        ranks={algo: 2 for algo in ALGORITHMS},
    )
    return BenchmarkSuite((linear, modes, oscillator))


SUITE_OPTIONS = {
    opt.name: opt
    for opt in [
        SEED,
        *DATASET,
        Option("test-idx", parse_indices),
        Option("train-window", parse_pair),
        RANK,
        *(Option(f"rank.{algo}", RANK.parse) for algo in ALGORITHMS),
        *MODEL,
    ]
}


# the dataclasses whose fields suite settings set, with the arguments
# each needs besides its defaults
_FIELD_OWNERS = (
    (SynthSpec, {"family": SUITE_OPTIONS["family"].default}),
    (FitOptions, {"algorithm": next(iter(ALGORITHMS))}),
    (RegressorSpec, {}),
)


def _check_field(opt: Option, value) -> None:
    """Raise ``DataError`` when a dataclass field that ``opt`` sets
    rejects ``value`` with every other field at its default."""
    for cls, required in _FIELD_OWNERS:
        if opt.field in {f.name for f in fields(cls)}:
            cls(**{**required, opt.field: value})


def _build_scenario(name: str, text: dict) -> Scenario:
    unknown = sorted(set(text) - set(SUITE_OPTIONS))
    if unknown:
        raise DataError(f"scenario {name!r}: unknown keys {unknown}")
    values = {opt.dest: opt.default for opt in SUITE_OPTIONS.values()}
    for key, value in text.items():
        opt = SUITE_OPTIONS[key]
        try:
            values[opt.dest] = opt.parse(value)
            _check_field(opt, values[opt.dest])
        except (ValueError, DataError) as exc:
            raise DataError(f"scenario {name!r}: bad {key} {value!r}: {exc}") from None
    if values["test_idx"] is None:
        raise DataError(f"scenario {name!r} must set test-idx")
    ranks = {}
    for algo in ALGORITHMS:
        rank = values[f"rank.{algo}"] or values["rank"]
        if rank is not None:
            ranks[algo] = rank
    return Scenario(
        name=name,
        synth=SynthSpec(**keywords(SynthSpec, SUITE_OPTIONS.values(), values)),
        test_indices=tuple(values["test_idx"]),
        ranks=ranks,
        train_window=values["train_window"],
        # the synthetic families have a scalar parameter
        fit_options=fit_keywords(MODEL, values, param_dim=1),
    )


def parse_suite(text: str) -> BenchmarkSuite:
    """Read a suite description: ``[scenario <name>]`` sections holding
    key=value lines, ``#`` comments allowed."""
    (_, loose), *sections = parse_key_values(text, "suite")
    if loose:
        raise DataError("suite: key=value before any [scenario] header")
    scenarios = []
    for header, values in sections:
        if not header.startswith("scenario "):
            raise DataError(f"suite: expected [scenario <name>], got [{header}]")
        scenarios.append(_build_scenario(header[len("scenario ") :].strip(), values))
    return BenchmarkSuite(tuple(scenarios))


def _default_window(grid) -> tuple:
    split = max(2, int(round(DEFAULT_TRAIN_FRACTION * len(grid))))
    split = min(split, len(grid) - 1)
    return (grid.t0, float(grid.instants[split - 1]))


def _run_scenario(scenario: Scenario, out_dir: str) -> ScenarioResult:
    dataset, _ = generate(scenario.synth)
    train_ds, test_ds = split_train_test(dataset, scenario.test_indices)
    window = scenario.train_window or _default_window(dataset.grid)
    train_fit = restrict_time(train_ds, *window)

    instants = dataset.grid.instants
    in_window = (instants >= window[0]) & (instants <= window[1])
    beyond = instants > window[1]

    rows = []
    series = []
    for algorithm in ALGORITHMS:
        options = FitOptions(
            algorithm=algorithm,
            rank=scenario.ranks[algorithm],
            seed=scenario.synth.seed,
            **scenario.fit_options,
        )
        fitted = fit_surrogate(train_fit, options)
        offline = fitted.metadata["offline_seconds"]
        for idx in range(test_ds.n_params):
            truth = test_ds.trajectories[idx].state
            mu = test_ds.params[idx]
            pred, online, fits = timed_query(fitted.model, mu, instants)
            eps = time_rel_error(truth, pred)
            forecast = (
                frobenius_rel_error(truth[:, beyond], pred[:, beyond])
                if beyond.any()
                else float("nan")
            )
            rows.append(
                {
                    "parameter": parameter_label(mu),
                    "algorithm": algorithm,
                    "train_error": frobenius_rel_error(
                        truth[:, in_window], pred[:, in_window]
                    ),
                    "forecast_error": forecast,
                    "rmse": rmse(truth, pred),
                    "offline_seconds": offline,
                    "online_seconds": online,
                    "online_fits": fits,
                }
            )
            series.extend(series_rows(instants, eps, algorithm, mu))

    order = list(ALGORITHMS)
    rows.sort(key=lambda row: (row["parameter"], order.index(row["algorithm"])))
    table_path = os.path.join(out_dir, f"{scenario.name}_table.csv")
    series_path = os.path.join(out_dir, f"{scenario.name}_series.csv")
    with open(table_path, "w", encoding="utf-8") as handle:
        handle.write(",".join(TABLE_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for column in TABLE_COLUMNS:
                value = row[column]
                if column in _TIMING_COLUMNS:
                    cells.append(f"{value:.6f}")
                elif isinstance(value, float):
                    cells.append(f"{value:.10e}")
                else:
                    cells.append(str(value))
            handle.write(",".join(cells) + "\n")
    write_series(series_path, series)
    return ScenarioResult(
        name=scenario.name,
        ok=True,
        table_path=table_path,
        series_path=series_path,
        rows=tuple(rows),
    )


def run_suite(suite: BenchmarkSuite, out_dir: str) -> list:
    """Run every scenario; failures are recorded and do not stop the
    suite."""
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for scenario in suite.scenarios:
        try:
            results.append(_run_scenario(scenario, out_dir))
        except Exception as exc:  # noqa: BLE001  failures must not stop the suite
            results.append(
                ScenarioResult(name=scenario.name, ok=False, error=str(exc))
            )
    failures = [r for r in results if not r.ok]
    if failures:
        path = os.path.join(out_dir, "failures.txt")
        with open(path, "w", encoding="utf-8") as handle:
            for result in failures:
                handle.write(f"{result.name}: {result.error}\n")
    return results
