"""Data model and on-disk formats for single and parametric snapshot sets.

A trajectory is a matrix whose columns are state snapshots over a shared
time grid.  A parametric dataset bundles one trajectory per parameter
vector.  Two interchange formats are supported:

* PDMD1, a little-endian binary container (see ``write_dataset``);
* CSV, one file per parameter with time in the first column, tied
  together by a plain-text manifest ("path value1 value2 ..." per line).

Datasets are immutable after construction and safe to share across
threads; the state matrices both readers return are read-only.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MAGIC = b"PDMD1\n"
UNIFORM_REL_TOL = 1e-9
LATTICE_REL_TOL = 1e-9
FLOAT64 = np.dtype(float)


def _finite_array(values, name, dtype=float):
    arr = np.asarray(values, dtype=dtype)
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def has_duplicate_rows(rows: np.ndarray) -> bool:
    """Whether two rows are equal (0.0 equals -0.0); sorting makes them adjacent."""
    ordered = rows[np.lexsort(rows.T)]
    return bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing sampling instants shared by a trajectory."""

    instants: np.ndarray

    def __post_init__(self):
        instants = _finite_array(self.instants, "time grid")
        if instants.ndim != 1 or instants.shape[0] < 2:
            raise DataError("time grid needs at least two instants")
        if np.any(np.diff(instants) <= 0):
            raise DataError("time grid not increasing")
        object.__setattr__(self, "instants", instants)

    def __len__(self) -> int:
        return self.instants.shape[0]

    @property
    def t0(self) -> float:
        return float(self.instants[0])

    @property
    def is_uniform(self) -> bool:
        """True when all spacings agree to 1e-9 relative tolerance."""
        steps = np.diff(self.instants)
        mean = steps.mean()
        return bool(np.all(np.abs(steps - mean) <= UNIFORM_REL_TOL * abs(mean)))

    @property
    def dt(self) -> float:
        if not self.is_uniform:
            raise DataError("time grid is not uniform; dt undefined")
        return float(np.diff(self.instants).mean())


def check_lattice(t0: float, dt: float | None = None) -> None:
    """Reject a model time origin ``t0`` that is not finite and a lattice
    step ``dt`` (None for a model continuous in time) that is not finite
    and positive: no instant can be placed on such a lattice."""
    if not math.isfinite(t0):
        raise DataError(f"initial instant t0 must be finite, got {t0}")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise DataError(f"lattice step dt must be finite and positive, got {dt}")


def real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array.  Complex, non-numeric and ragged input
    is a DataError naming ``name``, where a plain float conversion would
    drop an imaginary part or end in a raw ValueError or TypeError."""
    try:
        array = np.asarray(values)
        if array.dtype is FLOAT64:  # already float: no conversion to check
            return array
        if array.dtype.kind != "c":
            return array.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must be real numbers: {exc}") from exc
    raise DataError(f"{name} must be real numbers, got complex values")


def parameter_rows(mu_rows) -> np.ndarray:
    """The n x p block of parameter rows that a predictor answers, as a
    float array; any other shape, and non-real input, is a DataError."""
    rows = real_array(mu_rows, "parameter rows")
    if rows.ndim != 2:
        raise DataError(f"parameter rows must form an n x p array, got shape {rows.shape}")
    return rows


def instant_vector(instants) -> np.ndarray:
    """Requested instants as a 1-D float array, a number as one instant;
    any other shape, and non-real input, is a DataError."""
    instants = np.atleast_1d(real_array(instants, "instants"))
    if instants.ndim != 1:
        raise DataError(f"instants must form a 1-D sequence, got shape {instants.shape}")
    return instants


def lattice_steps(instants, t0: float, dt: float) -> np.ndarray:
    """Integer steps k with instants = t0 + k dt, to 1e-9 relative
    tolerance; instants that are neither a number nor 1-D, off that
    lattice, before t0 or more steps away than an int64 holds are a
    DataError."""
    instants = instant_vector(instants)
    steps = (instants - t0) / dt
    rounded = steps.round()
    if rounded.min(initial=0) < 0:
        raise DataError(f"requested instants precede the initial instant {t0}")
    if not rounded.max(initial=0) < 2.0**63:  # also an inf or NaN step
        far = ~(rounded < 2.0**63)
        raise DataError(
            f"instant {instants[far][0]} is {steps[far][0]:g} steps from {t0} "
            f"on the lattice {t0} + k * {dt}, beyond the int64 range"
        )
    tolerance = np.abs(rounded)
    np.maximum(tolerance, 1.0, out=tolerance)
    tolerance *= LATTICE_REL_TOL
    steps -= rounded
    off = np.abs(steps, out=steps) > tolerance
    if off.any():
        raise DataError(f"instant {instants[off][0]} is not on the lattice {t0} + k * {dt}")
    return rounded.astype(np.int64)


@dataclass(frozen=True)
class SnapshotMatrix:
    """State trajectory: column k is the state at ``grid.instants[k]``."""

    state: np.ndarray
    grid: TimeGrid

    def __post_init__(self):
        state = _finite_array(self.state, "snapshot matrix")
        if state.ndim != 2:
            raise DataError(f"snapshot matrix must be 2-D, got {state.ndim}-D")
        if state.shape[1] != len(self.grid):
            raise DataError(
                f"snapshot columns ({state.shape[1]}) do not match "
                f"grid length ({len(self.grid)})"
            )
        object.__setattr__(self, "state", state)

    @property
    def n_state(self) -> int:
        return self.state.shape[0]

    @property
    def n_instants(self) -> int:
        return self.state.shape[1]


@dataclass(frozen=True)
class ParametricDataset:
    """One trajectory per parameter vector, all on one grid."""

    params: np.ndarray
    trajectories: tuple = field(default_factory=tuple)

    def __post_init__(self):
        params = np.atleast_2d(_finite_array(self.params, "parameters"))
        trajectories = tuple(self.trajectories)
        if params.shape[0] != len(trajectories):
            raise DataError(
                f"{params.shape[0]} parameter rows for "
                f"{len(trajectories)} trajectories"
            )
        if len(trajectories) < 1:
            raise DataError("dataset needs at least one parameter")
        if params.shape[1] < 1:
            raise DataError("parameter vectors need at least one component")
        if has_duplicate_rows(params):
            raise DataError("parameter vectors must be pairwise distinct")
        grid = trajectories[0].grid
        n_state = trajectories[0].n_state
        for traj in trajectories[1:]:
            if traj.grid is not grid and not np.array_equal(
                traj.grid.instants, grid.instants
            ):
                raise DataError("trajectories must share one time grid")
            if traj.n_state != n_state:
                raise DataError("trajectories must share the state dimension")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "trajectories", trajectories)

    @property
    def n_params(self) -> int:
        return self.params.shape[0]

    @property
    def param_dim(self) -> int:
        return self.params.shape[1]

    @property
    def grid(self) -> TimeGrid:
        return self.trajectories[0].grid

    @property
    def n_state(self) -> int:
        return self.trajectories[0].n_state

    def states(self) -> list:
        return [traj.state for traj in self.trajectories]


def pdmd1_file_size(param_dim: int, n_params: int, n_state: int, n_instants: int) -> int:
    """Exact byte size of a PDMD1 file with the given dimensions."""
    header = len(MAGIC) + 4 * 4
    payload = 8 * (n_instants + n_params * param_dim + n_params * n_state * n_instants)
    return header + payload


def write_dataset(dataset: ParametricDataset, path) -> None:
    """Write the PDMD1 binary container.

    Layout (little-endian): magic ``PDMD1\\n``; u32 p, N_p, N_h, N_t;
    N_t float64 instants; N_p x p float64 parameters (row-major); N_p
    blocks of N_h x N_t float64 states, column-major.
    """
    header = struct.pack(
        "<4I",
        dataset.param_dim,
        dataset.n_params,
        dataset.n_state,
        len(dataset.grid),
    )
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(header)
            fh.write(dataset.grid.instants.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(dataset.params, dtype="<f8").tobytes())
            for traj in dataset.trajectories:
                fh.write(traj.state.astype("<f8").tobytes(order="F"))
    except OSError as exc:
        raise DataError(f"cannot write dataset to {path}: {exc}") from exc


def read_dataset(path) -> ParametricDataset:
    """Read a dataset.

    A file starting with the PDMD1 magic is parsed as the binary
    container; anything else is treated as a CSV manifest (one line per
    trajectory: "csv_path value1 value2 ...", paths relative to the
    manifest).
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC))
    except OSError as exc:
        raise DataError(f"cannot read dataset from {path}: {exc}") from exc
    if head == MAGIC:
        return _read_binary(path)
    return _read_manifest(path)


def _read_binary(path) -> ParametricDataset:
    head_size = len(MAGIC) + 16
    try:
        with open(path, "rb") as fh:
            head = fh.read(head_size)
            if len(head) < head_size:
                raise DataError(f"truncated PDMD1 header in {path}")
            param_dim, n_params, n_state, n_instants = struct.unpack_from(
                "<4I", head, len(MAGIC)
            )
            if n_state == 0:
                raise DataError(f"PDMD1 file {path} has no state rows (N_h = 0)")
            expected = pdmd1_file_size(param_dim, n_params, n_state, n_instants)
            found = os.fstat(fh.fileno()).st_size
            if found != expected:
                raise DataError(
                    f"PDMD1 payload size mismatch in {path}: "
                    f"expected {expected} bytes, found {found}"
                )
            # one owned, 8-byte aligned buffer: a view at the file's byte
            # 22 would be unaligned, and NumPy takes slow paths on it
            payload = np.empty((expected - head_size) // 8, dtype="<f8")
            if fh.readinto(payload) != payload.nbytes:
                raise DataError(f"short read of the PDMD1 payload in {path}")
    except OSError as exc:
        raise DataError(f"cannot read dataset from {path}: {exc}") from exc
    payload.flags.writeable = False
    offset = 0

    def take(count, shape, order="C"):
        nonlocal offset
        flat = payload[offset:offset + count]
        offset += count
        return np.asarray(flat.reshape(shape, order=order), dtype=float)

    instants = take(n_instants, (n_instants,))
    params = take(n_params * param_dim, (n_params, param_dim))
    grid = TimeGrid(instants)
    trajectories = [
        SnapshotMatrix(take(n_state * n_instants, (n_state, n_instants), order="F"), grid)
        for _ in range(n_params)
    ]
    return ParametricDataset(params, tuple(trajectories))


def read_text(path, what: str) -> str:
    """Contents of a UTF-8 text file; an unreadable file is a DataError
    naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def parse_key_values(text: str, source: str) -> list:
    """``key=value`` lines grouped into sections opened by ``[header]``
    lines: a list of (header, {key: value}) pairs whose first header is
    None (the keys before any header).  ``#`` starts a comment; a
    malformed line or a key repeated within a section is a DataError
    naming ``source`` and the line number."""
    sections = [(None, {})]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1].strip(), {}))
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        values = sections[-1][1]
        if key in values:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return sections


def _read_csv_table(path) -> tuple:
    """Parse one CSV trajectory file: time column first, state columns after.

    An initial non-numeric row is treated as a header and skipped.
    """
    lines = [line.strip() for line in read_text(path, "CSV file").splitlines()]
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        cells = [cell.strip() for cell in line.split(",")]
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError:
            if not rows and lineno == 1:
                continue
            raise DataError(f"non-numeric cell in {path} line {lineno}")
    if len(rows) < 2:
        raise DataError(f"CSV file {path} holds fewer than two instants")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        raise DataError(f"ragged rows in {path}")
    if widths == {1}:
        raise DataError(f"CSV file {path} has no state columns")
    table = np.asarray(rows, dtype=float)
    # an F-ordered copy of its own: the transposed view would be strided,
    # and BLAS would copy it on every product
    state = np.array(table[:, 1:].T, order="F")
    state.flags.writeable = False
    return table[:, 0], state


def _read_manifest(path) -> ParametricDataset:
    base = os.path.dirname(os.path.abspath(path))
    lines = read_text(path, "manifest").splitlines()
    params, tables = [], []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise DataError(
                f"manifest line {lineno} needs a path and at least one value"
            )
        try:
            params.append([float(tok) for tok in tokens[1:]])
        except ValueError:
            raise DataError(f"non-numeric parameter on manifest line {lineno}")
        if len(params[-1]) != len(params[0]):
            raise DataError(
                f"manifest line {lineno} has {len(params[-1])} parameter values "
                f"but the first trajectory has {len(params[0])}"
            )
        tables.append(_read_csv_table(os.path.join(base, tokens[0])))
    if not tables:
        raise DataError(f"manifest {path} lists no trajectories")
    instants = tables[0][0]
    for other, _ in tables[1:]:
        if other.shape != instants.shape or not np.allclose(
            other, instants, rtol=0, atol=UNIFORM_REL_TOL * max(1.0, np.abs(instants).max())
        ):
            raise DataError("CSV trajectories do not share one time grid")
    grid = TimeGrid(instants)
    trajectories = tuple(SnapshotMatrix(state, grid) for _, state in tables)
    return ParametricDataset(np.asarray(params, dtype=float), trajectories)


def subset_params(dataset: ParametricDataset, indices) -> ParametricDataset:
    """Keep only the listed parameter values, in the given order."""
    indices = [int(i) for i in indices]
    if len(set(indices)) != len(indices):
        raise DataError("duplicate parameter indices")
    if any(i < 0 or i >= dataset.n_params for i in indices):
        raise DataError(
            f"parameter indices outside the dataset range [0, {dataset.n_params})"
        )
    return ParametricDataset(
        dataset.params[indices],
        tuple(dataset.trajectories[i] for i in indices),
    )


def split_train_test(dataset: ParametricDataset, test_indices) -> tuple:
    """Partition parameters into (train, test) preserving order."""
    test = sorted(set(int(i) for i in test_indices))
    if any(i < 0 or i >= dataset.n_params for i in test):
        raise DataError(f"test indices out of range [0, {dataset.n_params})")
    train = [i for i in range(dataset.n_params) if i not in set(test)]
    if not train:
        raise DataError("train side of the split is empty")
    if not test:
        raise DataError("test side of the split is empty")
    return subset_params(dataset, train), subset_params(dataset, test)


def restrict_time(dataset: ParametricDataset, t_start: float, t_end: float) -> ParametricDataset:
    """Keep the instants falling inside the closed window [t_start, t_end]."""
    if t_end < t_start:
        raise DataError(f"empty time window [{t_start}, {t_end}]")
    instants = dataset.grid.instants
    keep = (instants >= t_start) & (instants <= t_end)
    if int(keep.sum()) < 2:
        raise DataError(
            f"time window [{t_start}, {t_end}] keeps fewer than two instants"
        )
    grid = TimeGrid(instants[keep])
    trajectories = tuple(
        SnapshotMatrix(traj.state[:, keep], grid) for traj in dataset.trajectories
    )
    return ParametricDataset(dataset.params, trajectories)
