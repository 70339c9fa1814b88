"""Command-line front end.

Subcommands: synth, fit, predict, eval, plotdata, bench.  Every flag
has a config-file equivalent (plain ``key=value`` lines, ``#``
comments); explicit flags override file values.  Exit codes: 0
success, 2 usage, 3 data error (including missing, unreadable or
malformed input files and suite text), 4 numerical failure, 5 a
benchmark scenario failed.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import bench
from .algorithms import ALGORITHMS
from .archive import load_model, save_model
from .data import (
    ParametricDataset,
    SnapshotMatrix,
    TimeGrid,
    parse_key_values,
    read_dataset,
    read_text,
    restrict_time,
    subset_params,
    write_dataset,
)
from .errors import DataError, NumericalError
from .metrics import report_from_line, report_to_line, series_rows, write_series
from .options import (
    DATASET,
    MODEL,
    RANK,
    SEED,
    Option,
    choice,
    fit_keywords,
    float_option,
    keywords,
    parse_bool,
    parse_floats,
    parse_indices,
    parse_list,
    parse_pair,
    parse_uint,
    uint_option,
)
from .pipeline import (
    FitOptions,
    evaluate_model,
    fit_surrogate,
    spec_from_metadata,
    timed_query,
)
from .synth import SynthSpec, generate, spec_to_json

EXIT_SCENARIO_FAILED = 5

_THREAD_LIMIT_HANDLE = None


class UsageError(Exception):
    """Bad flags, config keys, or option combinations."""


COMMON = [
    uint_option("threads", 1, "BLAS thread cap (env PDMD_THREADS, then core count)"),
]

SYNTH_OPTS = COMMON + [
    SEED,
    *DATASET,
    Option("out", str, "output dataset path", default="synth.pdmd1"),
]

FIT_OPTS = COMMON + [
    SEED,
    Option("data", str, "training dataset path"),
    Option("algorithm", choice(ALGORITHMS, "algorithm"),
           f"surrogate algorithm ({', '.join(ALGORITHMS)})", "algorithm"),
    RANK,
    float_option("energy", "energy fraction for automatic rank selection", "energy"),
    *MODEL,
    Option("train-idx", parse_indices,
           "parameter indices used for training (default: all)"),
    Option("time-window", parse_pair, "training window lo,hi"),
    Option("randomized-svd", parse_bool,
           "randomized range finder for an explicit --rank basis", "randomized",
           flag=True),
    Option("out", str, "output model path", default="model.pdmdm"),
]

PREDICT_OPTS = COMMON + [
    Option("model", str, "model archive path"),
    Option("mu", parse_floats, "query parameter (comma-separated)"),
    Option("time-window", parse_pair,
           "prediction window lo,hi (default: training window)"),
    uint_option("nt", 2, "number of evenly spaced instants (default: model lattice)"),
    Option("out", str, "output dataset path", default="prediction.pdmd1"),
]

EVAL_OPTS = COMMON + [
    Option("model", str, "model archive path (repeatable)", repeat=True),
    Option("data", str, "truth dataset path"),
    Option("test-idx", parse_indices, "parameter indices to evaluate (default: all)"),
    Option("time-window", parse_pair, "evaluation window lo,hi"),
    Option("out", str, "evaluation report path", default="report.jsonl"),
]

PLOTDATA_OPTS = [
    Option("report", str, "evaluation report path (repeatable)", repeat=True),
    Option("out", str, "output series path", default="plot.csv"),
]

BENCH_OPTS = COMMON + [
    Option("suite", str, "suite description file (default: built-in)"),
    Option("out", str, "report directory", default="bench_out"),
]


def _argument_type(parse):
    """An argparse type that reports the parser's own message."""

    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _add_options(parser: argparse.ArgumentParser, options) -> None:
    parser.add_argument("--config", type=str, default=None,
                        help="key=value config file; flags override")
    for opt in options:
        if opt.flag:
            parser.add_argument(f"--{opt.name}", dest=opt.dest,
                                action="store_const", const=True,
                                default=None, help=opt.help)
        else:
            parser.add_argument(f"--{opt.name}", dest=opt.dest,
                                type=_argument_type(opt.parse), default=None,
                                action="append" if opt.repeat else "store",
                                help=opt.help)


def _read_config(path) -> dict:
    try:
        sections = parse_key_values(read_text(path, "config file"), str(path))
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    if len(sections) > 1:
        raise UsageError(f"{path}: a config file holds no [section] headers")
    return sections[0][1]


def _merge_config(args: argparse.Namespace, options) -> None:
    """Fill unset options from the config file, then from defaults."""
    file_values = _read_config(args.config) if args.config else {}
    known = {opt.name: opt for opt in options}
    unknown = sorted(set(file_values) - set(known))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    for opt in options:
        current = getattr(args, opt.dest)
        if current is not None:
            continue
        if opt.name in file_values:
            try:
                if opt.repeat:
                    value = parse_list(file_values[opt.name], opt.parse)
                else:
                    value = opt.parse(file_values[opt.name])
            except ValueError as exc:
                raise UsageError(f"config key {opt.name!r}: {exc}") from exc
            setattr(args, opt.dest, value)
        else:
            setattr(args, opt.dest, opt.default)


def _require(args, dest, flag):
    value = getattr(args, dest)
    if value is None:
        raise UsageError(f"--{flag} is required")
    return value


def _apply_threads(requested) -> int:
    """Resolve the thread cap (flag, env, cores) and apply it to the
    numeric libraries; 1 gives bit-reproducible runs."""
    global _THREAD_LIMIT_HANDLE
    if requested is None:
        env = os.environ.get("PDMD_THREADS")
        if env is not None:
            try:
                requested = parse_uint(env, 1, "PDMD_THREADS")
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
        else:
            requested = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(requested)
    try:
        import threadpoolctl

        _THREAD_LIMIT_HANDLE = threadpoolctl.threadpool_limits(limits=requested)
    except ImportError:
        pass
    return requested


def cmd_synth(args) -> int:
    spec = SynthSpec(**keywords(SynthSpec, SYNTH_OPTS, vars(args)))
    dataset, _ = generate(spec)
    write_dataset(dataset, args.out)
    sidecar = args.out + ".spec.json"
    with open(sidecar, "w", encoding="utf-8") as handle:
        handle.write(spec_to_json(spec) + "\n")
    print(f"wrote {args.out} ({dataset.n_params} parameters, "
          f"{dataset.n_state} x {len(dataset.grid)} snapshots)")
    print(f"wrote {sidecar}")
    return 0


def cmd_fit(args) -> int:
    data_path = _require(args, "data", "data")
    _require(args, "algorithm", "algorithm")
    dataset = read_dataset(data_path)
    if args.train_idx is not None:
        dataset = subset_params(dataset, args.train_idx)
    if args.time_window is not None:
        dataset = restrict_time(dataset, *args.time_window)
    print(f"training parameters: {dataset.n_params}")
    print(f"training columns: {len(dataset.grid)}")

    options = FitOptions(**fit_keywords(FIT_OPTS, vars(args), dataset.param_dim))
    fitted = fit_surrogate(dataset, options)
    save_model(fitted.model, args.out, metadata=fitted.metadata)
    print(f"basis rank: {fitted.metadata['rank']}")
    print(f"training error: {fitted.metadata['mean_train_error']:.6e}")
    print(f"offline seconds: {fitted.metadata['offline_seconds']:.4f} "
          f"(basis {fitted.metadata['basis_seconds']:.4f}, "
          f"train {fitted.metadata['train_seconds']:.4f})")
    print(f"wrote {args.out}")
    return 0


def _prediction_instants(args, metadata) -> np.ndarray:
    window = args.time_window
    if window is None:
        t0, dt, n_t = metadata["t0"], metadata["dt"], int(metadata["n_t"])
        if dt <= 0:
            raise DataError(
                "model trained on a non-uniform grid; give --time-window and --nt"
            )
        window = (t0, t0 + dt * (n_t - 1))
    if args.nt is not None:
        return np.linspace(window[0], window[1], args.nt)
    dt = metadata["dt"]
    if dt <= 0:
        raise DataError(
            "model trained on a non-uniform grid; give --nt to sample the window"
        )
    steps = int(np.floor((window[1] - window[0]) / dt + 1e-9)) + 1
    return window[0] + dt * np.arange(max(steps, 2))


def cmd_predict(args) -> int:
    model_path = _require(args, "model", "model")
    mu = _require(args, "mu", "mu")
    archive = load_model(model_path)
    if len(mu) != int(archive.metadata.get("param_dim", len(mu))):
        raise DataError(
            f"query parameter has {len(mu)} components; the model expects "
            f"{archive.metadata['param_dim']}"
        )
    instants = _prediction_instants(args, archive.metadata)
    spec = spec_from_metadata(archive.metadata)
    states, online, fits = timed_query(archive.model, mu, instants, spec)

    grid = TimeGrid(instants)
    prediction = ParametricDataset(
        np.asarray(mu, dtype=float)[None, :],
        (SnapshotMatrix(states, grid),),
    )
    write_dataset(prediction, args.out)
    print(f"online seconds: {online:.6f}")
    print(f"regressor fits: {fits}")
    print(f"wrote {args.out} ({states.shape[0]} x {states.shape[1]})")
    return 0


def _format_parameter(values) -> str:
    return ",".join(f"{v:g}" for v in np.atleast_1d(values))


def cmd_eval(args) -> int:
    model_paths = _require(args, "model", "model")
    data_path = _require(args, "data", "data")
    dataset = read_dataset(data_path)
    if args.time_window is not None:
        dataset = restrict_time(dataset, *args.time_window)
    indices = args.test_idx
    if indices is None:
        indices = list(range(dataset.n_params))

    reports = []
    for path in model_paths:
        archive = load_model(path)
        spec = spec_from_metadata(archive.metadata)
        reports.extend(
            evaluate_model(
                archive.model,
                archive.algorithm,
                spec,
                int(archive.metadata["rank"]),
                dataset,
                indices,
                offline_seconds=float(archive.metadata["offline_seconds"]),
            )
        )

    with open(args.out, "w", encoding="utf-8") as handle:
        for report in reports:
            handle.write(report_to_line(report) + "\n")

    header = f"{'parameter':<16} {'algorithm':<10} {'error':<12} {'time':<10}"
    print(header)
    print("-" * len(header))
    for report in reports:
        print(f"{_format_parameter(report.parameter):<16} "
              f"{report.algorithm:<10} "
              f"{report.frobenius_error:<12.4e} "
              f"{report.online_seconds:<10.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_plotdata(args) -> int:
    rows = []
    for path in args.report or []:
        for line in read_text(path, "report").splitlines():
            if not line.strip():
                continue
            report = report_from_line(line)
            times = report.extras.get("times", list(range(len(report.time_errors))))
            rows.extend(
                series_rows(times, report.time_errors, report.algorithm, report.parameter)
            )
    write_series(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_bench(args) -> int:
    if args.suite is None:
        suite = bench.default_suite()
    else:
        suite = bench.parse_suite(read_text(args.suite, "suite file"))
    results = bench.run_suite(suite, args.out)
    failed = [r for r in results if not r.ok]
    for result in results:
        status = "ok" if result.ok else f"FAILED ({result.error})"
        print(f"scenario {result.name}: {status}")
        if result.ok:
            print(f"  table:  {result.table_path}")
            print(f"  series: {result.series_path}")
    print(f"{len(results) - len(failed)}/{len(results)} scenarios succeeded")
    return EXIT_SCENARIO_FAILED if failed else 0


COMMANDS = {
    "synth": (cmd_synth, SYNTH_OPTS, "generate a synthetic dataset"),
    "fit": (cmd_fit, FIT_OPTS, "train a surrogate model"),
    "predict": (cmd_predict, PREDICT_OPTS, "query a trained model"),
    "eval": (cmd_eval, EVAL_OPTS, "error/time report against a truth dataset"),
    "plotdata": (cmd_plotdata, PLOTDATA_OPTS, "emit tidy error-series rows"),
    "bench": (cmd_bench, BENCH_OPTS, "run a benchmark suite"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmd",
        description="Parametric spectral surrogates for snapshot data.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (handler, options, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        _add_options(sub, options)
        sub.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, args.options)
        if hasattr(args, "threads"):
            _apply_threads(args.threads)
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
