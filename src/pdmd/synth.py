"""Synthetic parametric dynamical systems with closed-form solutions.

Three families, all with scalar parameter mu and exactly evaluable
truth, provide desk-scale ground truth for every surrogate strategy:

* linear-operator: x_{k+1} = A(mu) x_k with A(mu) = A0 + mu A1 built
  from shared-eigenvector rotation-decay blocks, stable over the range;
* exp-modes: x(t; mu) = Re sum_j c_j(mu) u_j exp(omega_j(mu) t) with
  polynomial coefficients and affine frequencies;
* lifted-oscillator: a unit circular orbit with mu-affine angular
  frequency lifted into N_h dimensions by a random orthonormal frame.

Generation is pure and seeded; noise, when requested, is added to the
emitted snapshots only, never to the oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .data import ParametricDataset, SnapshotMatrix, TimeGrid, lattice_steps
from .errors import DataError

FAMILIES = ("linear-operator", "exp-modes", "lifted-oscillator")
# the SynthSpec fields that determine a seeded dataset: the keys of its sidecar
SEEDED_FIELDS = (
    "family", "n_h", "n_params", "param_range", "n_t", "dt", "t0", "noise_std", "seed"
)
STABILITY_GRID = 201


@dataclass(frozen=True)
class ExpMode:
    """One exponential mode: spatial shape, polynomial amplitude in mu
    (coefficients low to high) and affine frequency omega0 + mu slope."""

    mode: np.ndarray
    coeff_poly: np.ndarray
    omega0: complex
    omega_slope: complex = 0j

    def coeff(self, mu: float) -> complex:
        return complex(npoly.polyval(mu, np.asarray(self.coeff_poly, dtype=complex)))

    def omega(self, mu: float) -> complex:
        return complex(self.omega0) + mu * complex(self.omega_slope)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset; identical specs generate
    bitwise-identical data."""

    family: str
    n_h: int = 8
    n_params: int = 5
    param_range: tuple = (0.0, 1.0)
    n_t: int = 100
    dt: float = 0.1
    t0: float = 0.0
    noise_std: float = 0.0
    seed: int = 0
    modes: tuple | None = None
    op_base: np.ndarray | None = None
    op_slope: np.ndarray | None = None
    init_state: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}; use {FAMILIES}")
        if self.n_h < 1 or self.n_params < 1 or self.n_t < 2:
            raise DataError("need n_h >= 1, n_params >= 1, n_t >= 2")
        if self.dt <= 0:
            raise DataError(f"dt must be > 0, got {self.dt}")
        if self.noise_std < 0:
            raise DataError(f"noise_std must be >= 0, got {self.noise_std}")
        lo, hi = self.param_range
        if not hi > lo:
            raise DataError(f"param_range must satisfy lo < hi, got {self.param_range}")


@dataclass(frozen=True)
class OracleHandle:
    """Exact evaluator for the generated system at any (mu, t)."""

    family: str
    t0: float
    dt: float
    op_base: np.ndarray | None = None
    op_slope: np.ndarray | None = None
    init_state: np.ndarray | None = None
    modes: tuple | None = None
    lift_frame: np.ndarray | None = None
    freq0: float = 0.0
    freq_slope: float = 0.0

    def eval(self, mu: float, t: float) -> np.ndarray:
        """Closed-form state; the discrete family accepts lattice
        instants t0 + k dt only."""
        mu = float(np.atleast_1d(np.asarray(mu, dtype=float))[0])
        tau = float(t) - self.t0
        if self.family == "linear-operator":
            k = int(lattice_steps(t, self.t0, self.dt)[0])
            op = self.op_base + mu * self.op_slope
            return np.linalg.matrix_power(op, k) @ self.init_state
        if self.family == "exp-modes":
            total = sum(
                m.coeff(mu) * np.exp(m.omega(mu) * tau) * m.mode for m in self.modes
            )
            return np.real(total)
        angle = (self.freq0 + self.freq_slope * mu) * tau
        return self.lift_frame @ np.array([np.cos(angle), np.sin(angle)])

    def trajectory(self, mu: float, instants) -> np.ndarray:
        return np.column_stack([self.eval(mu, t) for t in np.asarray(instants)])


def _rotation_block(radius: float, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return radius * np.array([[c, -s], [s, c]])


def _random_linear_family(spec: SynthSpec, rng) -> tuple:
    """A(mu) = Q (L0 + mu L1) Q^T from per-block affine interpolation
    between random rotation-decay endpoints; the segment between two
    rotation-scaling matrices never exceeds the endpoint radii."""
    lo, hi = spec.param_range
    q, _ = np.linalg.qr(rng.standard_normal((spec.n_h, spec.n_h)))
    lam0 = np.zeros((spec.n_h, spec.n_h))
    lam1 = np.zeros((spec.n_h, spec.n_h))
    index = 0
    while index + 1 < spec.n_h:
        at_lo = _rotation_block(rng.uniform(0.6, 0.95), rng.uniform(0.1, 1.3))
        at_hi = _rotation_block(rng.uniform(0.6, 0.95), rng.uniform(0.1, 1.3))
        slope = (at_hi - at_lo) / (hi - lo)
        lam1[index:index + 2, index:index + 2] = slope
        lam0[index:index + 2, index:index + 2] = at_lo - lo * slope
        index += 2
    if index < spec.n_h:
        v_lo, v_hi = rng.uniform(0.3, 0.9, size=2)
        slope = (v_hi - v_lo) / (hi - lo)
        lam1[index, index] = slope
        lam0[index, index] = v_lo - lo * slope
    return q @ lam0 @ q.T, q @ lam1 @ q.T, q @ np.ones(spec.n_h)


def _random_exp_modes(spec: SynthSpec, rng) -> tuple:
    n_modes = max(1, min(spec.n_h // 2, 3))
    modes = []
    for _ in range(n_modes):
        shape = rng.standard_normal(spec.n_h) + 1j * rng.standard_normal(spec.n_h)
        shape /= np.linalg.norm(shape)
        coeffs = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * (
            1.0,
            0.5,
            0.25,
        )
        omega0 = complex(-rng.uniform(0.05, 0.3), rng.uniform(0.5, 2.5))
        slope = complex(-rng.uniform(0.0, 0.1), rng.uniform(0.1, 0.8))
        modes.append(ExpMode(shape, coeffs, omega0, slope))
    return tuple(modes)


def _check_stability(oracle: OracleHandle, param_range) -> None:
    lo, hi = param_range
    for mu in np.linspace(lo, hi, STABILITY_GRID):
        radius = np.max(np.abs(np.linalg.eigvals(oracle.op_base + mu * oracle.op_slope)))
        if radius > 1.0 + 1e-12:
            raise DataError(
                f"operator family unstable: spectral radius {radius:.6f} at mu={mu:.6g}"
            )


def _build_oracle(spec: SynthSpec) -> OracleHandle:
    rng = np.random.default_rng(spec.seed)
    if spec.family == "linear-operator":
        if spec.op_base is not None or spec.op_slope is not None:
            if spec.op_base is None or spec.op_slope is None or spec.init_state is None:
                raise DataError(
                    "explicit linear family needs op_base, op_slope and init_state"
                )
            base = np.asarray(spec.op_base, dtype=float)
            slope = np.asarray(spec.op_slope, dtype=float)
            init = np.asarray(spec.init_state, dtype=float)
        else:
            base, slope, init = _random_linear_family(spec, rng)
        if base.shape != (spec.n_h, spec.n_h) or slope.shape != base.shape:
            raise DataError("operator matrices must be n_h x n_h")
        if init.shape != (spec.n_h,):
            raise DataError("initial state must be an n_h vector")
        oracle = OracleHandle(
            spec.family, spec.t0, spec.dt, op_base=base, op_slope=slope, init_state=init
        )
        _check_stability(oracle, spec.param_range)
        return oracle
    if spec.family == "exp-modes":
        modes = spec.modes if spec.modes is not None else _random_exp_modes(spec, rng)
        for mode in modes:
            if np.asarray(mode.mode).shape != (spec.n_h,):
                raise DataError("every mode shape must be an n_h vector")
        return OracleHandle(spec.family, spec.t0, spec.dt, modes=tuple(modes))
    if spec.n_h < 2:
        raise DataError("lifted oscillator needs n_h >= 2")
    frame, _ = np.linalg.qr(rng.standard_normal((spec.n_h, 2)))
    freq0 = rng.uniform(0.8, 1.6)
    freq_slope = rng.uniform(0.3, 0.9)
    return OracleHandle(
        spec.family,
        spec.t0,
        spec.dt,
        lift_frame=frame,
        freq0=freq0,
        freq_slope=freq_slope,
    )


def generate(spec: SynthSpec) -> tuple:
    """Sample the family on the uniform grid; returns the dataset and an
    exact oracle.  Noise (if any) perturbs the dataset only."""
    oracle = _build_oracle(spec)
    lo, hi = spec.param_range
    params = np.linspace(lo, hi, spec.n_params)[:, None]
    instants = spec.t0 + spec.dt * np.arange(spec.n_t)
    grid = TimeGrid(instants)
    states = [oracle.trajectory(mu, instants) for mu in params[:, 0]]
    if spec.noise_std > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
        states = [
            s + spec.noise_std * noise_rng.standard_normal(s.shape) for s in states
        ]
    trajectories = tuple(SnapshotMatrix(s, grid) for s in states)
    return ParametricDataset(params, trajectories), oracle


def spec_to_json(spec: SynthSpec) -> str:
    """Serialize a seeded spec (explicit matrices/modes are rejected;
    they have no portable text form)."""
    if spec.modes is not None or spec.op_base is not None:
        raise DataError("only seeded specs are serializable")
    return json.dumps(
        {name: getattr(spec, name) for name in SEEDED_FIELDS}, sort_keys=True
    )
