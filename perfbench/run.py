"""Fit/query benchmark of pdmd's public Python API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; pdmd is imported from ./src.  Every
step is a fresh process with OPENBLAS/OMP/MKL_NUM_THREADS set to THREADS
before NumPy loads:

1. generate.py writes the workload's inputs for the seed (untimed);
2. probe.py times ``import pdmd`` + ``read_dataset`` SETUP_PAIRS
   times, half of them before step 3 and half after it, each next to a
   reference process that imports NumPy and SciPy and reads the same
   file without pdmd; ``setup_s`` is the median ratio of probe to
   reference, times REFERENCE_S;
3. worker.py runs the timed loop (--trace 0: end-to-end metrics) or the
   traced pass (--trace 1: per-layer metrics, spans written as JSONL to
   perfbench/.work/).

fit_s and query_ms are medians of each timing's ratio to the workload's
calibration kernel, timed just before it, in seconds of a machine that
runs the kernel at its reference speed (calibrate.py).  setup_s is
scaled by its reference process for the same reason: on a
shared 2-vCPU Xeon VM the time of a fresh ``import pdmd`` moved by 1.5x
between batches of runs minutes apart.  The unscaled values and the
slowdown factors are printed above the result.

Lines before the last describe the machine, the inputs' SHA-256 and any
failures; the last line is the JSON result.  --shrink runs the same
protocol at tiny sizes (self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from catalog import END_TO_END, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_PAIRS = 8
# the reference process's time on a quiet run; setup_s is in seconds of
# a machine that runs the reference this fast
REFERENCE_S = 0.45
DEADLINE_S = 170.0
# One BLAS thread: on a 2-vCPU machine a second OpenBLAS thread that has
# gone to sleep takes a scheduler tick (~8 ms) to wake, which turns a
# 1 ms product into 8 ms at random and made run medians bimodal.
THREADS = 1


def lower_decile(values: list) -> float:
    """10th percentile, interpolated as numpy.percentile does."""
    return statistics.quantiles(values, n=10, method="inclusive")[0]


class StepError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def step(script: str, args: list, deadline: float) -> list:
    """Run one fresh process to completion; its stdout lines."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise StepError(f"no time left for {script}")
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise StepError(f"{script} exceeded the time limit") from exc
    if done.returncode != 0:
        raise StepError(f"{script} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout.splitlines()


def setup_pair(train: str, deadline: float) -> tuple:
    """(probe, reference) timings, each from its own fresh process."""
    probe = json.loads(step("probe.py", [train], deadline)[-1])
    reference = json.loads(step("probe.py", ["--reference", train], deadline)[-1])
    return probe, reference


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def measure(args, deadline: float) -> tuple:
    """(info lines, result dict) for one run."""
    shrink = ["--shrink"] if args.shrink else []
    os.makedirs(WORK, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        step(
            "generate.py",
            ["--workload", args.workload, "--seed", str(args.seed), "--out", inputs, *shrink],
            deadline,
        )
        with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        train = os.path.join(inputs, "train.pdmd1")
        # half the pairs before the worker and half after it, so that
        # they sample the machine over the whole run
        pairs = [setup_pair(train, deadline) for _ in range(SETUP_PAIRS // 2)]
        trace_out = os.path.join(WORK, f"trace-{args.workload}{'-shrink' if args.shrink else ''}.jsonl")
        lines = step(
            "worker.py",
            [
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--inputs", inputs,
                "--trace-out", trace_out,
                *shrink,
            ],
            deadline,
        )
        pairs += [setup_pair(train, deadline) for _ in range(SETUP_PAIRS - SETUP_PAIRS // 2)]
        result = json.loads(lines[-1])
        metrics = dict(result["metrics"])
        setup = [probe["import_s"] + probe["read_s"] for probe, _ in pairs]
        references = [ref["import_s"] + ref["read_s"] for _, ref in pairs]
        setup_slowdown = statistics.median(references) / REFERENCE_S
        if args.trace:
            metrics["bench.import_s"] = lower_decile([probe["import_s"] for probe, _ in pairs])
        else:
            metrics["setup_s"] = REFERENCE_S * statistics.median(
                s / r for s, r in zip(setup, references)
            )
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    machine = {
        "threads": THREADS,
        "cpu": cpu_model(),
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        **result.get("versions", {}),
    }
    info = list(lines[:-1])
    info.append("machine " + json.dumps(machine))
    info.append(
        "inputs " + json.dumps({k: v["sha256"] for k, v in manifest["files"].items()})
    )
    info.append(f"samples {json.dumps(result['samples'])} ranks {json.dumps(result['ranks'])}")
    info.append(f"max_error {json.dumps(result['max_error'])}")
    info.append(f"setup probes s {json.dumps([round(s, 6) for s in setup])}")
    info.append(
        f"setup references s {json.dumps([round(r, 6) for r in references])}; "
        f"slowdown {setup_slowdown:.4f}; unscaled median {statistics.median(setup):.6g}"
    )
    info.append(f"query_p95_ms {json.dumps(result['query_p95_ms'])}")
    if not args.trace:
        info.append(
            f"slowdown {result['slowdown']:.4f} against the {result['calibration']} "
            "calibration kernel's reference; "
            f"unscaled {json.dumps(result['unscaled'])}"
        )
    attempted, failed = result["attempted"], result["failed"]
    info.append(f"failed_frac {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    info.extend(f"failure: {reason}" for reason in result["failures"])

    wanted = [(name, unit) for name, unit, *_ in (LAYER_METRICS if args.trace else END_TO_END)]
    if args.trace:
        info.append(f"{'per-layer metric':<36}{'value':>14}  unit   moves / on")
        for name, unit, _, _, moves, on in LAYER_METRICS:
            value = metrics.get(name)
            shown = "missing" if value is None else f"{value:.6g}"
            info.append(f"{name:<36}{shown:>14}  {unit:<6} {moves} / {on}")
    values = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in wanted
        if metrics.get(name) is not None
    }
    missing = [name for name, _ in wanted if name not in values]
    info.extend(f"missing metric: {name}" for name in missing)
    record = {
        "correct": failed == 0 and not missing,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": values,
    }
    return info, record


def main() -> int:
    parser = argparse.ArgumentParser(description="pdmd fit/query benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "pdmd", "__init__.py")):
        print(f"no pdmd sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        info, record = measure(args, deadline)
    except StepError as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
