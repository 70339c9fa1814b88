"""Workload definitions shared by the generator, the worker and the tests.

Each workload fixes a synthetic `exp-modes` family (its own family seed)
and the protocol run on it: train on all parameter rows but the held-out
ones, query the held-out parameters.  The run's ``--seed`` draws what is
random per run: the spatial mode shapes (wide-state), or the noise
realisation and the bagging subsets (bagged-noisy).  ``shrunk`` gives the
same protocol at sizes that run in seconds, for the self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

ALGORITHMS = ("roi", "rkoi", "mono", "part")
PARAM_RANGE = (0.2, 0.8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_h: int
    n_params: int
    n_t: int
    dt: float
    family_seed: int
    held_out: tuple  # rows queried and left out of training
    rank: int | None  # None = the default energy path picks the rank
    error_bounds: dict  # algorithm -> largest accepted relative error
    trace_queries: int  # queries per algorithm in the traced pass
    calibration: str  # calibrate.KERNELS entry that timings are scaled by
    noise: float = 0.0
    bag_trials: int = 1
    seeded_shapes: bool = False  # --seed redraws the spatial mode shapes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-state",
            why=(
                "tall 10000 x 450 snapshot stack (36 MB, fits in L3): the basis "
                "SVD carries every fit and the lift carries roi/rkoi queries"
            ),
            n_h=10_000,
            n_params=12,
            n_t=50,
            dt=0.05,
            family_seed=3,
            held_out=(1, 5, 9),
            rank=None,
            error_bounds={"roi": 0.01, "rkoi": 0.01, "mono": 0.02, "part": 0.02},
            trace_queries=20,
            calibration="blas",
            seeded_shapes=True,
        ),
        Workload(
            name="bagged-noisy",
            why=(
                "noisy 40-dim desk case: optDMD iterations carry the 10-trial "
                "bagged rkoi fit; 160 online regressor fits and DMD steps carry "
                "each mono/part query"
            ),
            n_h=40,
            n_params=9,
            n_t=160,
            dt=0.08,
            family_seed=23,
            held_out=(1, 4, 7),
            rank=6,
            error_bounds={"roi": 0.15, "rkoi": 0.03, "mono": 0.12, "part": 0.15},
            trace_queries=20,
            calibration="interp",
            noise=0.01,
            bag_trials=10,
        ),
    )
}


def shrunk(workload: Workload) -> Workload:
    """The same protocol at tiny sizes (a few seconds per run)."""
    n_h, n_t = {"wide-state": (300, 40), "bagged-noisy": (40, 160)}[workload.name]
    return replace(
        workload,
        n_h=n_h,
        n_t=n_t,
        bag_trials=min(workload.bag_trials, 3),
        trace_queries=3,
    )


def get(name: str, shrink: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return shrunk(workload) if shrink else workload
