"""Write one workload's inputs: the training PDMD1 file, the query
parameters and the oracle that the checker evaluates.

Nothing here is timed.  The timed code receives only the PDMD1 file and
the query parameters; the oracle is read back by the checker alone.

    python3 perfbench/generate.py --workload wide-state --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
from dataclasses import replace

import numpy as np

from pdmd.data import ParametricDataset, SnapshotMatrix, write_dataset
from pdmd.pipeline import subset_params
from pdmd.synth import ExpMode, OracleHandle, SynthSpec, generate

import workloads

def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _seeded_shapes(spec: SynthSpec, rng) -> tuple:
    """The family's amplitudes and frequencies with fresh random shapes."""
    _, base = generate(replace(spec, n_params=1, n_t=2))
    modes = []
    for mode in base.modes:
        shape = rng.standard_normal(spec.n_h) + 1j * rng.standard_normal(spec.n_h)
        modes.append(
            ExpMode(shape / np.linalg.norm(shape), mode.coeff_poly, mode.omega0, mode.omega_slope)
        )
    return tuple(modes)


def build(workload: workloads.Workload, seed: int) -> tuple:
    """(training dataset, query parameters, oracle) for one run seed."""
    spec = SynthSpec(
        "exp-modes",
        n_h=workload.n_h,
        n_params=workload.n_params,
        param_range=workloads.PARAM_RANGE,
        n_t=workload.n_t,
        dt=workload.dt,
        seed=workload.family_seed,
    )
    streams = np.random.SeedSequence([workload.family_seed, seed]).spawn(2)
    if workload.seeded_shapes:
        spec = replace(spec, modes=_seeded_shapes(spec, np.random.default_rng(streams[0])))
    dataset, oracle = generate(spec)
    if workload.noise > 0:
        noise_rng = np.random.default_rng(streams[1])
        dataset = ParametricDataset(
            dataset.params,
            tuple(
                SnapshotMatrix(
                    t.state + workload.noise * noise_rng.standard_normal(t.state.shape),
                    t.grid,
                )
                for t in dataset.trajectories
            ),
        )
    train_rows = [i for i in range(dataset.n_params) if i not in workload.held_out]
    queries = dataset.params[list(workload.held_out)]
    return subset_params(dataset, train_rows), queries, oracle


def save_oracle(oracle: OracleHandle, path: str) -> None:
    np.savez(
        path,
        t0=oracle.t0,
        dt=oracle.dt,
        shapes=np.array([m.mode for m in oracle.modes]),
        coeff_polys=np.array([m.coeff_poly for m in oracle.modes]),
        omega0=np.array([m.omega0 for m in oracle.modes]),
        omega_slope=np.array([m.omega_slope for m in oracle.modes]),
    )


def load_oracle(path: str) -> OracleHandle:
    with np.load(path) as saved:
        modes = tuple(
            ExpMode(shape, poly, complex(w0), complex(slope))
            for shape, poly, w0, slope in zip(
                saved["shapes"], saved["coeff_polys"], saved["omega0"], saved["omega_slope"]
            )
        )
        return OracleHandle("exp-modes", float(saved["t0"]), float(saved["dt"]), modes=modes)


def write_inputs(workload: workloads.Workload, seed: int, out_dir: str) -> dict:
    """Write the inputs into ``out_dir``; returns the manifest, which
    records every file's SHA-256 so two runs can prove equal inputs."""
    dataset, queries, oracle = build(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train": os.path.join(out_dir, "train.pdmd1"),
        "queries": os.path.join(out_dir, "queries.npy"),
        "oracle": os.path.join(out_dir, "oracle.npz"),
    }
    write_dataset(dataset, paths["train"])
    np.save(paths["queries"], queries)
    save_oracle(oracle, paths["oracle"])
    manifest = {
        "workload": workload.name,
        "seed": seed,
        "files": {
            key: {"file": os.path.basename(path), "bytes": os.path.getsize(path), "sha256": sha256(path)}
            for key, path in paths.items()
        },
    }
    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--shrink", action="store_true")
    args = parser.parse_args()
    write_inputs(workloads.get(args.workload, args.shrink), args.seed, args.out)


if __name__ == "__main__":
    main()
