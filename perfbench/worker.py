"""Timed fit/query loop of one workload, and its traced variant.

run.py starts this in a fresh process whose BLAS thread variables are
set before NumPy loads.  Untraced, the run fits every algorithm
(``fit_surrogate`` -> ``save_model`` -> ``load_model``, the cost of
``pdmd fit`` then ``pdmd predict``) and then interleaves further fits
with closed-loop query rounds (one client, round robin over the
algorithms) until ``--seconds`` have passed.  Traced, it runs one fit
of each algorithm and ``trace_queries`` rounds untraced, then the same
work with every layer wrapped.

Every fit starts with a run of the workload's calibration kernel, and
so does every query round if the kernel leaves the caches alone; a
timing is reported through its ratio to the kernel runs around it
(calibrate.py).

Every operation is checked untimed: a fit fails if it raises or its
archive does not round-trip bit for bit; a query fails if it raises,
has the wrong shape, is not finite or misses the workload's error
bound against the noise-free oracle.  The last stdout line is a JSON
summary.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import pdmd
from pdmd import archive, data, pipeline
from pdmd.metrics import frobenius_rel_error

import calibrate
import generate
import spans
import workloads

MIN_ROUNDS = 100  # ten samples below the lower decile
QUERY_SHARE = 1 / 6
FIT_TURN_S = 0.5
# Kernel runs on each side of a timing that it is divided by.  One run
# each side left 7-8 two-second rkoi fits of a loaded run spread 16 %
# over ten seeds; three follow the machine as closely (calibrate.py).
KERNEL_WINDOW = 3
MAX_REASONS = 20


class Run:
    """One workload run: inputs, loaded models, timings and failures."""

    def __init__(self, workload: workloads.Workload, inputs_dir: str, seed: int):
        self.workload = workload
        self.inputs_dir = inputs_dir
        self.train_path = os.path.join(inputs_dir, "train.pdmd1")
        self.dataset = data.read_dataset(self.train_path)
        self.instants = self.dataset.grid.instants
        self.queries = np.load(os.path.join(inputs_dir, "queries.npy"))
        self.oracle = generate.load_oracle(os.path.join(inputs_dir, "oracle.npz"))
        self.options = {
            algorithm: pipeline.FitOptions(
                algorithm=algorithm,
                rank=workload.rank,
                seed=seed,
                bag_trials=workload.bag_trials if algorithm == "rkoi" else 1,
            )
            for algorithm in workloads.ALGORITHMS
        }
        self.models: dict = {}
        self.ranks: dict = {}
        self.fit_s = {a: [] for a in workloads.ALGORITHMS}
        self.query_s = {a: [] for a in workloads.ALGORITHMS}
        self.errors = {a: [] for a in workloads.ALGORITHMS}
        # per timing, the index in kernel_s of the last kernel run before it
        self.fit_kernel = {a: [] for a in workloads.ALGORITHMS}
        self.query_kernel = {a: [] for a in workloads.ALGORITHMS}
        self.kernel = calibrate.KERNELS[workload.calibration]
        self.kernel_s: list = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self._truth: dict = {}
        self.tracer = None

    # ---- checking (never timed) -----------------------------------------

    def _fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{what}: {reason}")

    def truth(self, index: int) -> np.ndarray:
        if index not in self._truth:
            self._truth[index] = self.oracle.trajectory(self.queries[index, 0], self.instants)
        return self._truth[index]

    def _check_round_trip(self, algorithm: str, fitted, loaded, path: str):
        """None if the archive round-trips bit for bit, else the reason."""
        if loaded.algorithm != algorithm:
            return f"archive tag {loaded.algorithm!r}"
        again = path + ".again"
        archive.save_model(loaded.model, again, loaded.metadata)
        with open(path, "rb") as first, open(again, "rb") as second:
            if first.read() != second.read():
                return "re-saved archive differs"
        spec = pipeline.spec_from_metadata(loaded.metadata)
        mu = self.queries[0]
        before = pipeline.predict_surrogate(fitted.model, mu, self.instants, fitted.regressor)
        after = pipeline.predict_surrogate(loaded.model, mu, self.instants, spec)
        if not np.array_equal(before, after, equal_nan=True):
            return "loaded model predicts differently"
        return None

    def _check_query(self, algorithm: str, index: int, pred):
        """(relative error or None, failure reason or None)."""
        expected = (self.dataset.n_state, self.instants.size)
        if not isinstance(pred, np.ndarray) or pred.shape != expected:
            return None, f"shape {getattr(pred, 'shape', None)} != {expected}"
        if not np.all(np.isfinite(pred)):
            return None, "non-finite prediction"
        error = frobenius_rel_error(self.truth(index), pred)
        bound = self.workload.error_bounds[algorithm]
        if not error <= bound:
            return error, f"relative error {error:.4g} above bound {bound:g}"
        return error, None

    # ---- operations -----------------------------------------------------

    def _op(self, kind: str, algorithm):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(kind, algorithm)

    def _note(self, elapsed: float) -> None:
        if self.tracer is not None:
            self.tracer.note_elapsed(elapsed)

    def fit(self, algorithm: str) -> None:
        self.attempted += 1
        path = os.path.join(self.inputs_dir, f"{algorithm}.pdmdmodel")
        self.time_kernel()
        try:
            with self._op("fit", algorithm):
                start = time.perf_counter()
                fitted = pipeline.fit_surrogate(self.dataset, self.options[algorithm])
                archive.save_model(fitted.model, path, fitted.metadata)
                loaded = archive.load_model(path)
                elapsed = time.perf_counter() - start
                self._note(elapsed)
            reason = self._check_round_trip(algorithm, fitted, loaded, path)
        except Exception as exc:  # noqa: BLE001  a failed operation is counted, not fatal
            self._fail(f"fit {algorithm}", f"{type(exc).__name__}: {exc}")
            return
        if reason is not None:
            self._fail(f"fit {algorithm}", reason)
            return
        self.fit_s[algorithm].append(elapsed)
        self.fit_kernel[algorithm].append(len(self.kernel_s) - 1)
        self.models[algorithm] = (loaded.model, pipeline.spec_from_metadata(loaded.metadata))
        self.ranks[algorithm] = int(loaded.metadata["rank"])

    def query(self, algorithm: str, index: int) -> None:
        model, spec = self.models[algorithm]
        self.attempted += 1
        try:
            with self._op("query", algorithm):
                start = time.perf_counter()
                pred = pipeline.predict_surrogate(model, self.queries[index], self.instants, spec)
                elapsed = time.perf_counter() - start
                self._note(elapsed)
            error, reason = self._check_query(algorithm, index, pred)
        except Exception as exc:  # noqa: BLE001  a failed operation is counted, not fatal
            self._fail(f"query {algorithm}", f"{type(exc).__name__}: {exc}")
            return
        if error is not None:
            self.errors[algorithm].append(error)
        if reason is not None:
            self._fail(f"query {algorithm} mu={self.queries[index, 0]:.6g}", reason)
            return
        self.query_s[algorithm].append(elapsed)
        self.query_kernel[algorithm].append(len(self.kernel_s) - 1)

    def query_round(self, round_index: int) -> None:
        index = round_index % len(self.queries)
        if self.kernel.between_queries:
            self.time_kernel()
        for algorithm in workloads.ALGORITHMS:
            if algorithm in self.models:
                self.query(algorithm, index)

    # ---- protocols ------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """One fit of every algorithm, then fit turns (round robin) and
        query rounds interleaved: queries take QUERY_SHARE of the time,
        fits the rest, so both spread over the whole run.  A turn repeats
        one algorithm's fit for at least FIT_TURN_S, so cheap fits get
        many samples.  A turn starts only if it and the rounds still owed
        to MIN_ROUNDS end by ``seconds``; query rounds go on to the end."""
        began = time.perf_counter()
        until = began + seconds
        for algorithm in workloads.ALGORITHMS:
            self.fit(algorithm)
        fitting = time.perf_counter() - began
        querying = 0.0
        last_turn = {a: max(self.fit_s[a], default=0.0) for a in workloads.ALGORITHMS}
        turn, rounds = 0, 0
        while rounds < MIN_ROUNDS or time.perf_counter() < until:
            started = time.perf_counter()
            algorithm = workloads.ALGORITHMS[turn % len(workloads.ALGORITHMS)]
            owed = max(0, MIN_ROUNDS - rounds) * querying / max(rounds, 1)
            if (
                querying >= QUERY_SHARE * (fitting + querying)
                and started + max(last_turn[algorithm], FIT_TURN_S) + owed <= until
            ):
                self.fit(algorithm)
                while time.perf_counter() - started < FIT_TURN_S:
                    self.fit(algorithm)
                last_turn[algorithm] = time.perf_counter() - started
                fitting += last_turn[algorithm]
                turn += 1
            else:
                self.query_round(rounds)
                rounds += 1
                querying += time.perf_counter() - started

    def time_kernel(self) -> None:
        """Time one run of the workload's calibration kernel."""
        self.kernel.run()  # untimed: the first run after other work starts cold
        self.kernel_s.append(self.kernel.run())

    def fixed_pass(self) -> None:
        for algorithm in workloads.ALGORITHMS:
            self.fit(algorithm)
        for round_index in range(self.workload.trace_queries):
            self.query_round(round_index)

    def summary(self) -> dict:
        """Metrics of the run: each timing is the median of its ratios to
        the median of the KERNEL_WINDOW kernel runs on either side of it,
        in seconds of the kernel's reference speed; the unscaled medians
        are kept for the record."""

        def around(k: int) -> float:
            return statistics.median(self.kernel_s[max(0, k + 1 - KERNEL_WINDOW) : k + 1 + KERNEL_WINDOW])

        def scaled(timings: list, kernels: list) -> float:
            ratios = [t / around(k) for t, k in zip(timings, kernels)]
            return self.kernel.reference_s * statistics.median(ratios)

        metrics, raw = {}, {}
        for algorithm in workloads.ALGORITHMS:
            for name, scale, timings, kernels in (
                (f"fit_s.{algorithm}", 1.0, self.fit_s, self.fit_kernel),
                (f"query_ms.{algorithm}", 1e3, self.query_s, self.query_kernel),
            ):
                if timings[algorithm]:
                    raw[name] = scale * statistics.median(timings[algorithm])
                    metrics[name] = scale * scaled(timings[algorithm], kernels[algorithm])
            errors = self.errors[algorithm]
            metrics[f"rel_error.{algorithm}"] = statistics.median(errors) if errors else None
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.reasons,
            "metrics": metrics,
            "unscaled": raw,
            "slowdown": statistics.median(self.kernel_s) / self.kernel.reference_s,
            "calibration": self.workload.calibration,
            "samples": {
                "fits": {a: len(v) for a, v in self.fit_s.items()},
                "queries": {a: len(v) for a, v in self.query_s.items()},
            },
            "ranks": self.ranks,
            "max_error": {a: max(v) for a, v in self.errors.items() if v},
            "query_p95_ms": {
                a: 1e3 * float(np.percentile(v, 95)) for a, v in self.query_s.items() if v
            },
        }


def traced_run(run: Run, trace_path: str) -> dict:
    """Untraced then traced fixed pass; per-layer metrics and checks."""
    run.fixed_pass()
    reference = {a: (list(run.fit_s[a]), list(run.query_s[a])) for a in workloads.ALGORITHMS}
    for timings in (run.fit_s, run.query_s):
        for values in timings.values():
            values.clear()

    tracer = spans.Tracer(run.workload.name)
    restore = spans.install(tracer)
    try:
        run.tracer = tracer
        with tracer.op("setup", None):
            data.read_dataset(run.train_path)
        run.fixed_pass()
    finally:
        run.tracer = None
        restore()
    tracer.write_jsonl(trace_path)

    arrays = tracer.arrays()
    attribution = tracer.attribution(arrays)
    print(f"{'operation':<14}{'layer self ms':>16}{'timed ms':>12}  outside layers")
    for label, (layer, timed, n_ops) in attribution.items():
        print(f"{label:<14}{1e3 * layer / n_ops:>16.3f}{1e3 * timed / n_ops:>12.3f}  {1 - layer / timed:.2%}")
    run.attempted += len(attribution)
    for mismatch in tracer.attribution_failures(arrays):
        run._fail("trace", mismatch)
    for op_id, count in spans.online_fit_counts(tracer, arrays).items():
        _, algorithm, _ = tracer.ops[op_id]
        expected = run.instants.size if algorithm in ("mono", "part") else 0
        run.attempted += 1
        if count != expected:
            run._fail(f"query {algorithm}", f"{count} online regressor fits, expected {expected}")

    untraced = traced_total = 0.0
    for algorithm in workloads.ALGORITHMS:
        for before, after in zip(reference[algorithm], (run.fit_s[algorithm], run.query_s[algorithm])):
            if before and after:
                untraced += statistics.median(before)
                traced_total += statistics.median(after)
    metrics = spans.layer_metrics(tracer, arrays)
    metrics["bench.trace_overhead_frac"] = (traced_total - untraced) / untraced if untraced else None
    metrics["bench.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in spans.self_time_table(tracer, arrays):
        print(line)
    shares = spans.purpose_shares(tracer, arrays)
    print("shares of operation time: " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    outside = {label: 1 - layer / timed for label, (layer, timed, _) in attribution.items()}
    return {"metrics": metrics, "shares": shares, "outside_layers": outside, "spans": len(tracer.start)}


def main() -> None:
    parser = argparse.ArgumentParser(description="one workload run (started by run.py)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--shrink", action="store_true")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if not os.path.realpath(pdmd.__file__).startswith(src + os.sep):
        sys.exit(f"pdmd imported from {pdmd.__file__}, not from {src}")

    run = Run(workloads.get(args.workload, args.shrink), args.inputs, args.seed)
    if args.trace:
        layer = traced_run(run, args.trace_out)
        result = run.summary()
        result.update(layer)
    else:
        run.measure(args.seconds)
        result = run.summary()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
