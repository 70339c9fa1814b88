"""A surrogate depends only on its data: every algorithm's predictions
under a relabelling of the training rows or the state rows, a
power-of-two scaling of the data and a shift of the time axis.

The data are ``exp-modes`` with N_h 30, N_p 7, N_t 60, clean and noisy,
at rank 4.  The tolerances are the largest changes first measured on
such data: a permutation reorders sums, so it may move the last bits,
while a power of two and a shift of the lattice must not, except where
optDMD (``rkoi``) fits continuous frequencies to the shifted instants.
"""

import functools

import numpy as np
import pytest

from pdmd.data import ParametricDataset, SnapshotMatrix, TimeGrid
from pdmd.pipeline import FitOptions, fit_surrogate, predict_surrogate
from pdmd.synth import SynthSpec, generate

ALGORITHMS = ("roi", "rkoi", "mono", "part")
NOISE = {"clean": 0.0, "noisy": 0.01}
PERMUTATION_RTOL = 5.6e-14
RKOI_SHIFT_RTOL = 1.2e-15
SHIFT = 7.0

# a relabelling moves the stacked mono DMD's predictions by up to 8.0e-13
# (clean) and 1.2e-13 (noisy) on this data; strict, so that a fix shows
MONO_DRIFTS = pytest.mark.xfail(
    strict=True, reason="mono permutation drift exceeds 5.6e-14 on this data"
)
PERMUTED = [
    pytest.param(algorithm, marks=MONO_DRIFTS) if algorithm == "mono" else algorithm
    for algorithm in ALGORITHMS
]


@functools.lru_cache(maxsize=None)
def dataset(data):
    spec = SynthSpec("exp-modes", n_h=30, n_params=7, n_t=60, noise_std=NOISE[data])
    return generate(spec)[0]


def rebuild(original, params=None, states=None, instants=None):
    grid = TimeGrid(original.grid.instants if instants is None else instants)
    return ParametricDataset(
        original.params if params is None else params,
        tuple(SnapshotMatrix(s, grid) for s in (states or original.states())),
    )


def predictions(data, algorithm):
    """States at the midpoints between neighbouring training parameters,
    at every instant of the data's grid: queries x N_h x N_t."""
    fitted = fit_surrogate(data, FitOptions(algorithm, rank=4))
    params = np.sort(data.params, axis=0)
    queries = (params[:-1] + params[1:]) / 2
    return np.stack(
        [
            predict_surrogate(fitted.model, mu, data.grid.instants, fitted.regressor)
            for mu in queries
        ]
    )


@functools.lru_cache(maxsize=None)
def baseline(data, algorithm):
    return predictions(dataset(data), algorithm)


def relative_change(want, got):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("data", list(NOISE))
@pytest.mark.parametrize("algorithm", PERMUTED)
def test_training_row_permutation(algorithm, data):
    original = dataset(data)
    order = np.random.default_rng(0).permutation(original.n_params)
    states = original.states()
    permuted = rebuild(original, original.params[order], [states[i] for i in order])
    got = predictions(permuted, algorithm)
    assert relative_change(baseline(data, algorithm), got) <= PERMUTATION_RTOL


@pytest.mark.parametrize("data", list(NOISE))
@pytest.mark.parametrize("algorithm", PERMUTED)
def test_state_row_permutation(algorithm, data):
    original = dataset(data)
    order = np.random.default_rng(1).permutation(original.n_state)
    permuted = rebuild(original, states=[s[order] for s in original.states()])
    got = predictions(permuted, algorithm)
    want = baseline(data, algorithm)[:, order]
    assert relative_change(want, got) <= PERMUTATION_RTOL


@pytest.mark.parametrize("data", list(NOISE))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_power_of_two_scaling_is_exact(algorithm, data):
    original = dataset(data)
    scaled = rebuild(original, states=[8.0 * s for s in original.states()])
    got = predictions(scaled, algorithm)
    assert got.tobytes() == (8.0 * baseline(data, algorithm)).tobytes()


@pytest.mark.parametrize("data", list(NOISE))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_time_shift(algorithm, data):
    original = dataset(data)
    shifted = rebuild(original, instants=original.grid.instants + SHIFT)
    got = predictions(shifted, algorithm)
    want = baseline(data, algorithm)
    if algorithm == "rkoi":
        assert relative_change(want, got) <= RKOI_SHIFT_RTOL
    else:
        assert got.tobytes() == want.tobytes()
