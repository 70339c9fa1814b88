"""Span tracing of pdmd's layers from outside the package.

``install`` wraps every public function of each layer module and
rebinds every ``pdmd.*`` module global that refers to the same function
object, so calls through ``from .x import f`` bindings and intra-module
calls are traced too.  Spans are kept in memory (parallel lists) and
written as JSONL by ``write_jsonl``.  Self time is a span's duration
minus the durations of its direct children.

The worker times each operation itself and hands that time to
``note_elapsed``.  ``attribution_failures`` then checks that the layer
spans account for it: time spent in code that no wrapper covers (a
layer function that escaped ``install``) shows up as a gap between the
worker's time and the layers' summed self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from catalog import LAYER_METRICS

LAYERS = (
    "data",
    "pipeline",
    "linalg",
    "reduction",
    "dmd",
    "optdmd",
    "rkoi",
    "roi",
    "latent",
    "regression",
    "archive",
)

# Worker-timed time of an operation kind that may lie outside every layer
# span: a share of it, plus an allowance per operation for the timer and
# wrapper calls between the worker's clock and the first span (about 4 us
# on a 2-vCPU Xeon VM, 1% of a 0.4 ms query).
UNATTRIBUTED_MAX = 0.02
UNATTRIBUTED_PER_OP_S = 20e-6

# extra numbers recorded per call: span name -> (args, kwargs, result) -> dict
HOOKS = {
    "data.read_dataset": lambda a, k, r: {"mb": os.path.getsize(a[0]) / 1e6},
    "linalg.truncated_svd": lambda a, k, r: {"mb": np.asarray(a[0]).nbytes / 1e6},
    "reduction.stack_snapshots": lambda a, k, r: {"mb": r.nbytes / 1e6},
    "optdmd.fit_optdmd": lambda a, k, r: {
        "iters": r.n_iters,
        "converged": bool(r.converged),
        "objective": float(r.objective),
    },
    "rkoi.fit_rkoi": lambda a, k, r: {"notes": len(r.notes)},
    "archive.save_model": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
}


class Tracer:
    """In-memory span log for one run of one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.active = False
        self.names: list = []
        self._name_ids: dict = {}
        self.name_of: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self.op_of: list = []
        self.extras: dict = {}
        self.ops: list = []  # op id -> (kind, algorithm, root span)
        self.elapsed: dict = {}  # op id -> the worker's own timing, seconds
        self._stack: list = []
        self._op = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                self.extras[span] = hook(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, kind: str, algorithm: str | None):
        """Root span of one benchmark operation (setup, fit or query)."""
        op_id = len(self.ops)
        self._op = op_id
        self.active = True
        span = self._open(self._intern(f"op.{kind}"))
        self.ops.append((kind, algorithm, span))
        try:
            yield
        finally:
            self._close(span)
            self.active = False
            self._op = -1

    def note_elapsed(self, seconds: float) -> None:
        """Record the worker's own timing of the current operation."""
        self.elapsed[self._op] = seconds

    # ---- analysis -------------------------------------------------------

    def arrays(self) -> dict:
        start = np.asarray(self.start)
        duration = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=int)
        nested = parent >= 0
        children = np.zeros_like(duration)
        np.add.at(children, parent[nested], duration[nested])
        op_of = np.asarray(self.op_of, dtype=int)
        kinds = np.array([kind for kind, _, _ in self.ops] + [""])
        return {
            "name": np.asarray(self.name_of, dtype=int),
            "duration": duration,
            "self": duration - children,
            "parent": parent,
            "op": op_of,
            "kind": kinds[op_of],
        }

    def attribution(self, arrays: dict) -> dict:
        """Per operation kind and algorithm, summed over its operations
        that the worker timed: [layer self time, worker-timed seconds,
        number of operations].
        The layer self times of an operation are those of every span
        below its root, so they sum to the time spent inside layers."""
        layer = np.zeros(len(self.ops))
        nested = arrays["parent"] >= 0
        np.add.at(layer, arrays["op"][nested], arrays["self"][nested])
        totals: dict = {}
        for op_id, label in enumerate(_op_labels(self)):
            if op_id in self.elapsed:
                entry = totals.setdefault(label, [0.0, 0.0, 0])
                entry[0] += layer[op_id]
                entry[1] += self.elapsed[op_id]
                entry[2] += 1
        return totals

    def attribution_failures(self, arrays: dict) -> list:
        """Operation kinds whose worker-timed duration the layer spans
        leave more than the allowance above unaccounted for."""
        bad = []
        for label, (layer, timed, n_ops) in self.attribution(arrays).items():
            if timed - layer > UNATTRIBUTED_MAX * timed + UNATTRIBUTED_PER_OP_S * n_ops:
                bad.append(
                    f"{label}: layer self times sum to {layer:.6f} s of {timed:.6f} s "
                    f"timed ({1 - layer / timed:.1%} outside every layer span)"
                )
        return bad

    def write_jsonl(self, path: str) -> None:
        base = self.start[0] if self.start else 0.0
        workload = json.dumps(self.workload)
        with open(path, "w", encoding="utf-8") as handle:
            for span, name_id in enumerate(self.name_of):
                op = self.op_of[span]
                algorithm = json.dumps(self.ops[op][1] if op >= 0 else None)
                extra = self.extras.get(span)
                tail = f',"extra":{json.dumps(extra)}' if extra else ""
                handle.write(
                    f'{{"span":{span},"name":"{self.names[name_id]}",'
                    f'"start":{self.start[span] - base:.9f},'
                    f'"end":{self.end[span] - base:.9f},"parent":{self.parent[span]},'
                    f'"op":{op},"workload":{workload},"algorithm":{algorithm}{tail}}}\n'
                )


def install(tracer: Tracer):
    """Wrap every public function of the layer modules; returns a
    function that restores the original bindings."""
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"pdmd.{layer}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                wrapped[id(value)] = (value, tracer.wrap(f"{layer}.{name}", value))
    rebound = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "pdmd" and not module_name.startswith("pdmd."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                rebound.append((module, attr, value))

    def restore():
        for module, attr, value in rebound:
            setattr(module, attr, value)

    return restore


# ---- per-layer metrics ---------------------------------------------------


def _select(tracer: Tracer, arrays: dict, span_name: str, scope: str) -> np.ndarray:
    name_id = tracer._name_ids.get(span_name, -1)
    mask = arrays["name"] == name_id
    if scope != "all":
        mask &= arrays["kind"] == scope
    return np.flatnonzero(mask)


def _extra_values(tracer: Tracer, spans, key: str) -> list:
    return [tracer.extras[s][key] for s in spans if s in tracer.extras]


def layer_metrics(tracer: Tracer, arrays: dict) -> dict:
    """Every metric of LAYER_METRICS that the spans give (the
    process-level bench.* ones are added by the caller)."""
    values = {}
    for name, _unit, _better, source, _moves, _on in LAYER_METRICS:
        if source is None:
            continue
        span_name, statistic, scope = source
        spans = _select(tracer, arrays, span_name, scope)
        if statistic == "s":
            values[name] = float(arrays["duration"][spans].sum())
        elif statistic == "self_s":
            values[name] = float(arrays["self"][spans].sum())
        elif statistic == "calls":
            values[name] = int(spans.size)
        else:
            values[name] = float(sum(_extra_values(tracer, spans, statistic)))

    fits = _select(tracer, arrays, "pipeline.fit_surrogate", "fit")
    predicts = _select(tracer, arrays, "pipeline.predict_surrogate", "fit")
    in_fit = predicts[np.isin(arrays["parent"][predicts], fits)]
    values["pipeline.train_error.s"] = float(arrays["duration"][in_fit].sum())
    values["pipeline.train_error.calls"] = int(in_fit.size)

    optdmd_fits = _select(tracer, arrays, "optdmd.fit_optdmd", "fit")
    converged = _extra_values(tracer, optdmd_fits, "converged")
    objectives = _extra_values(tracer, optdmd_fits, "objective")
    values["optdmd.fit_optdmd.converged_frac"] = (
        sum(converged) / len(converged) if converged else 0.0
    )
    values["optdmd.fit_optdmd.objective_median"] = (
        statistics.median(objectives) if objectives else 0.0
    )
    return values


def online_fit_counts(tracer: Tracer, arrays: dict) -> dict:
    """Regressor fits inside each query operation, keyed by op id."""
    fit_spans = _select(tracer, arrays, "regression.fit", "query")
    counts = np.bincount(arrays["op"][fit_spans], minlength=len(tracer.ops))
    return {op_id: int(counts[op_id]) for op_id, (kind, _, _) in enumerate(tracer.ops) if kind == "query"}


def _op_labels(tracer: Tracer) -> np.ndarray:
    return np.array(
        [kind if algorithm is None else f"{kind}.{algorithm}" for kind, algorithm, _ in tracer.ops]
    )


def self_time_table(tracer: Tracer, arrays: dict) -> list:
    """Lines of the per-layer self-time table: ms per operation (mean
    over operations of the same kind and algorithm).  Each column's sum
    equals its operations' mean duration, printed below it."""
    op_labels = _op_labels(tracer)
    columns = list(dict.fromkeys(op_labels))
    n_ops = {c: int(np.sum(op_labels == c)) for c in columns}
    span_labels = op_labels[arrays["op"]]
    span_layers = np.array([name.split(".")[0] for name in tracer.names])[arrays["name"]]
    roots = np.array([root for _, _, root in tracer.ops])

    def row(label, values):
        return f"{label:<12}" + "".join(f"{v:>14.3f}" for v in values)

    lines = ["self time, ms per operation", f"{'layer':<12}" + "".join(f"{c:>14}" for c in columns)]
    totals = np.zeros(len(columns))
    for layer in list(LAYERS) + ["op"]:
        cells = np.array([
            1e3 * arrays["self"][(span_labels == c) & (span_layers == layer)].sum() / n_ops[c]
            for c in columns
        ])
        totals += cells
        lines.append(row(layer, cells))
    lines.append(row("sum", totals))
    lines.append(row("op duration", [1e3 * arrays["duration"][roots[op_labels == c]].mean() for c in columns]))
    return lines


def purpose_shares(tracer: Tracer, arrays: dict) -> dict:
    """Shares of operation time that test each workload's reason:
    basis work in fits, optDMD in the rkoi fit, and the online query
    path (regression, dmd.advance, latent) in mono/part queries."""
    shares = {}
    labels = [(kind, algorithm) for kind, algorithm, _ in tracer.ops]
    roots = np.array([root for _, _, root in tracer.ops])
    span_names = np.array(tracer.names)[arrays["name"]]
    for kind, algorithm in dict.fromkeys(labels):
        ops = [i for i, label in enumerate(labels) if label == (kind, algorithm)]
        in_ops = np.isin(arrays["op"], ops)
        total = float(arrays["duration"][roots[ops]].sum())
        if kind == "fit":
            basis = in_ops & np.isin(span_names, ["pipeline.resolve_rank", "reduction.fit_global_basis"])
            shares[f"fit.{algorithm}.basis"] = float(arrays["duration"][basis].sum()) / total
            # outermost optdmd spans, so nested optdmd calls count once
            in_optdmd = np.char.startswith(span_names.astype(str), "optdmd.")
            parent_in_optdmd = np.where(arrays["parent"] >= 0, in_optdmd[arrays["parent"]], False)
            optdmd = in_ops & in_optdmd & ~parent_in_optdmd
            shares[f"fit.{algorithm}.optdmd"] = float(arrays["duration"][optdmd].sum()) / total
        elif kind == "query":
            online = in_ops & (
                np.char.startswith(span_names.astype(str), "regression.")
                | np.char.startswith(span_names.astype(str), "latent.")
                | (span_names == "dmd.advance")
            )
            shares[f"query.{algorithm}.online_path"] = float(arrays["self"][online].sum()) / total
    return shares
