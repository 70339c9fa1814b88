"""Tests for the dataset model and disk formats."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdmd.data import (
    MAGIC,
    ParametricDataset,
    SnapshotMatrix,
    TimeGrid,
    check_lattice,
    pdmd1_file_size,
    lattice_steps,
    read_dataset,
    restrict_time,
    split_train_test,
    subset_params,
    write_dataset,
)
from pdmd.errors import DataError


def make_dataset(n_params=3, n_state=4, n_t=6, seed=0):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 1.0, n_t))
    params = np.arange(n_params, dtype=float)[:, None] + 1.0
    trajectories = tuple(
        SnapshotMatrix(rng.standard_normal((n_state, n_t)), grid)
        for _ in range(n_params)
    )
    return ParametricDataset(params, trajectories)


class TestLatticeSteps:
    def test_steps_of_lattice_instants(self):
        steps = lattice_steps([1.0, 2.5, 1.5], 1.0, 0.5)
        assert steps.dtype == np.int64
        assert steps.tolist() == [0, 3, 1]

    def test_a_number_is_one_instant_and_a_2d_block_is_rejected(self):
        assert lattice_steps(2.5, 1.0, 0.5).tolist() == [3]
        with pytest.raises(DataError, match=re.escape("1-D sequence, got shape (2, 1)")):
            lattice_steps([[1.0], [2.5]], 1.0, 0.5)

    @pytest.mark.parametrize("instant", [1e20, np.inf, np.nan])
    def test_steps_beyond_int64_rejected(self, instant):
        message = f"instant {re.escape(str(instant))} .* beyond the int64 range"
        with pytest.raises(DataError, match=message):
            lattice_steps([0.0, instant], 0.0, 0.1)

    @pytest.mark.parametrize(
        "t0, dt, field",
        [(np.nan, 0.5, "t0"), (-np.inf, None, "t0"), (0.0, 0.0, "dt"),
         (0.0, -0.5, "dt"), (0.0, np.inf, "dt"), (0.0, np.nan, "dt")],
    )
    def test_lattice_that_cannot_step_rejected(self, t0, dt, field):
        with pytest.raises(DataError, match=f"{field} must be finite"):
            check_lattice(t0, dt)
        check_lattice(1.0, 0.5)
        check_lattice(-1.0, None)


class TestTimeGrid:
    def test_rejects_short_or_unordered(self):
        with pytest.raises(DataError):
            TimeGrid(np.array([1.0]))
        with pytest.raises(DataError, match="not increasing"):
            TimeGrid(np.array([0.0, 2.0, 1.0]))

    def test_uniform_flag_and_dt(self):
        grid = TimeGrid(np.array([0.0, 0.5, 1.0, 1.5]))
        assert grid.is_uniform
        assert grid.dt == pytest.approx(0.5)

    def test_jitter_within_tolerance_still_uniform(self):
        instants = np.arange(5, dtype=float)
        instants[2] += 1e-10
        assert TimeGrid(instants).is_uniform

    def test_nonuniform_has_no_dt(self):
        grid = TimeGrid(np.array([0.0, 1.0, 3.0]))
        assert not grid.is_uniform
        with pytest.raises(DataError):
            grid.dt


class TestDatasetInvariants:
    def test_column_count_must_match_grid(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(DataError):
            SnapshotMatrix(np.zeros((3, 5)), grid)

    def test_duplicate_params_rejected(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        traj = SnapshotMatrix(np.zeros((2, 2)), grid)
        with pytest.raises(DataError, match="distinct"):
            ParametricDataset(np.array([[1.0], [1.0]]), (traj, traj))

    def test_signed_zero_params_are_duplicates(self):
        grid = TimeGrid(np.array([0.0, 1.0]))
        traj = SnapshotMatrix(np.zeros((2, 2)), grid)
        with pytest.raises(DataError, match="distinct"):
            ParametricDataset(np.array([[0.0, 1.0], [-0.0, 1.0]]), (traj, traj))

    def test_mismatched_grids_rejected(self):
        a = SnapshotMatrix(np.zeros((2, 2)), TimeGrid(np.array([0.0, 1.0])))
        b = SnapshotMatrix(np.zeros((2, 2)), TimeGrid(np.array([0.0, 2.0])))
        with pytest.raises(DataError, match="grid"):
            ParametricDataset(np.array([[1.0], [2.0]]), (a, b))

    def test_single_parameter_allowed(self):
        ds = make_dataset(n_params=1)
        assert ds.n_params == 1

    def test_parameter_vectors_need_a_component(self):
        traj = SnapshotMatrix(np.zeros((2, 2)), TimeGrid(np.array([0.0, 1.0])))
        with pytest.raises(DataError, match="at least one component"):
            ParametricDataset(np.zeros((1, 0)), (traj,))


class TestBinaryFormat:
    def test_round_trip_small(self, tmp_path):
        ds = make_dataset(n_params=1, n_state=2, n_t=3)
        path = tmp_path / "one.pdmd"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.n_params == 1
        assert_allclose(back.params, ds.params)
        assert np.array_equal(back.grid.instants, ds.grid.instants)
        for a, b in zip(back.trajectories, ds.trajectories):
            assert np.array_equal(a.state, b.state)

    def test_round_trip_bitwise(self, tmp_path):
        ds = make_dataset(n_params=4, n_state=5, n_t=7, seed=3)
        first = tmp_path / "a.pdmd"
        second = tmp_path / "b.pdmd"
        write_dataset(ds, first)
        write_dataset(read_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_size_formula(self, tmp_path):
        ds = make_dataset(n_params=2, n_state=3, n_t=4)
        path = tmp_path / "sized.pdmd"
        write_dataset(ds, path)
        assert path.stat().st_size == pdmd1_file_size(1, 2, 3, 4)

    def test_file_size_large_case(self):
        # 26 params, 4951 state entries, 1000 instants, scalar parameter
        size = pdmd1_file_size(1, 26, 4951, 1000)
        header = 6 + 16
        assert size == header + 8 * (1000 + 26 + 26 * 4951 * 1000)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pdmd"
        path.write_bytes(b"NOTPDMD1 garbage")
        with pytest.raises(DataError):
            read_dataset(path)

    def test_zero_state_rows_rejected(self, tmp_path):
        # header p = 1, N_p = 1, N_h = 0, N_t = 3, then the grid and the
        # parameter: a size-consistent file with no state rows
        path = tmp_path / "empty.pdmd"
        payload = np.array([0.0, 1.0, 2.0, 0.5], dtype="<f8").tobytes()
        path.write_bytes(b"PDMD1\n" + struct.pack("<4I", 1, 1, 0, 3) + payload)
        assert path.stat().st_size == pdmd1_file_size(1, 1, 0, 3)
        with pytest.raises(DataError, match="no state rows"):
            read_dataset(path)

    def test_truncated_payload(self, tmp_path):
        ds = make_dataset(n_params=2, n_state=3, n_t=4)
        path = tmp_path / "cut.pdmd"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="size mismatch"):
            read_dataset(path)

    def test_shuffled_grid_rejected(self, tmp_path):
        ds = make_dataset(n_params=1, n_state=2, n_t=3)
        path = tmp_path / "shuffled.pdmd"
        write_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        # swap the first two float64 time instants, located after the header
        base = 6 + 16
        raw[base:base + 8], raw[base + 8:base + 16] = (
            raw[base + 8:base + 16],
            raw[base:base + 8],
        )
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="not increasing"):
            read_dataset(path)

    def test_trajectories_are_aligned_read_only_views(self, tmp_path):
        # the payload starts at byte 22 of the file; the reader copies it
        # into one aligned buffer that every trajectory views
        ds = make_dataset(n_params=3, n_state=5, n_t=4, seed=2)
        path = tmp_path / "aligned.pdmd"
        write_dataset(ds, path)
        back = read_dataset(path)
        for traj, original in zip(back.trajectories, ds.trajectories):
            state = traj.state
            assert state.flags.aligned and state.flags.f_contiguous
            assert not state.flags.writeable
            assert np.array_equal(state, original.state)
        with pytest.raises(ValueError):
            back.trajectories[0].state[0, 0] = 1.0

    def test_unwritable_path(self, tmp_path):
        ds = make_dataset()
        target = tmp_path / "missing" / "dir" / "x.pdmd"
        with pytest.raises(DataError, match="x.pdmd"):
            write_dataset(ds, target)


@st.composite
def pdmd1_bytes(draw):
    """A PDMD1 file with header values in 0..3.  The payload is either
    well formed (increasing instants, distinct parameter rows, finite
    states) or arbitrary float64 values, and its size is either the one
    the header declares or off by a few bytes."""
    dims = [draw(st.integers(0, 3)) for _ in range(4)]
    param_dim, n_params, n_state, n_instants = dims
    n_values = n_instants + n_params * param_dim + n_params * n_state * n_instants
    if draw(st.booleans()):
        params = np.arange(n_params * param_dim, dtype=float)
        states = draw(st.lists(
            st.floats(-1e3, 1e3), min_size=n_values - n_instants - params.size,
            max_size=n_values - n_instants - params.size,
        ))
        values = np.concatenate([np.arange(n_instants, dtype=float), params, states])
    else:
        values = draw(st.lists(
            st.floats(width=64), min_size=n_values, max_size=n_values,
        ))
    payload = np.asarray(values, dtype="<f8").tobytes()
    delta = draw(st.sampled_from([0, 0, -1, 1, -8, 8]))
    payload = payload[:len(payload) + delta] if delta < 0 else payload + bytes(delta)
    return MAGIC + struct.pack("<4I", *dims) + payload


class TestBinaryFuzz:
    @settings(max_examples=300, deadline=None)
    @given(raw=pdmd1_bytes())
    def test_reader_loads_or_raises_data_error(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("fuzz") / "data.pdmd1"
        path.write_bytes(raw)
        try:
            dataset = read_dataset(path)
        except DataError:
            return
        assert len(raw) == pdmd1_file_size(
            dataset.param_dim, dataset.n_params, dataset.n_state, len(dataset.grid)
        )

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "data.pdmd1"
        write_dataset(make_dataset(n_params=2, n_state=2, n_t=3), path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                read_dataset(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_flipped_bit_loads_or_raises_data_error(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("flip") / "data.pdmd1"
        write_dataset(make_dataset(n_params=2, n_state=2, n_t=3), path)
        raw = bytearray(path.read_bytes())
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        try:
            dataset = read_dataset(path)
        except DataError:
            return
        assert dataset.n_state * len(dataset.grid) >= 1


def write_manifest(directory) -> bytes:
    """A valid two-trajectory CSV dataset; returns the manifest bytes."""
    (directory / "a.csv").write_text("t,x1,x2\n0.0,1.0,2.0\n0.5,3.0,4.0\n1.0,5.0,6.0\n")
    (directory / "b.csv").write_text("t,x1,x2\n0.0,2.0,1.0\n0.5,4.0,3.0\n1.0,6.0,5.0\n")
    text = b"# two cases\na.csv 0.25 1.5\nb.csv 0.75 2.5\n"
    (directory / "cases.txt").write_bytes(text)
    return text


class TestManifestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_mutated_byte_loads_or_raises_data_error(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("manifest")
        raw = bytearray(write_manifest(directory))
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[position] = data.draw(st.integers(0, 255), label="byte")
        (directory / "cases.txt").write_bytes(bytes(raw))
        try:
            dataset = read_dataset(directory / "cases.txt")
        except DataError:
            return
        assert dataset.n_params >= 1

    def test_unmutated_manifest_loads(self, tmp_path):
        write_manifest(tmp_path)
        dataset = read_dataset(tmp_path / "cases.txt")
        assert dataset.params.tolist() == [[0.25, 1.5], [0.75, 2.5]]

    @pytest.mark.parametrize(
        "text",
        ["a.csv 0.25 1.5\nb.csv 0.75\n", "a\x00.csv 0.25\n"],
        ids=["ragged-parameters", "nul-in-path"],
    )
    def test_known_mutations_are_data_errors(self, tmp_path, text):
        write_manifest(tmp_path)
        (tmp_path / "cases.txt").write_text(text)
        with pytest.raises(DataError):
            read_dataset(tmp_path / "cases.txt")


class TestCsvIngestion:
    def test_header_fixture(self, tmp_path):
        (tmp_path / "traj.csv").write_text(
            "t,x1,x2\n0.0,1.0,2.0\n1.0,3.0,4.0\n2.0,5.0,6.0\n"
        )
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("traj.csv 7.5\n")
        ds = read_dataset(manifest)
        assert ds.n_params == 1
        assert ds.param_dim == 1
        assert ds.params[0, 0] == 7.5
        assert ds.trajectories[0].state.shape == (2, 3)
        assert_allclose(ds.grid.instants, [0.0, 1.0, 2.0])
        assert_allclose(ds.trajectories[0].state, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_trajectories_are_contiguous_copies(self, tmp_path):
        rng = np.random.default_rng(4)
        table = np.column_stack([np.arange(6.0), rng.standard_normal((6, 3))])
        (tmp_path / "traj.csv").write_text(
            "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table)
        )
        (tmp_path / "m.txt").write_text("traj.csv 1\n")
        state = read_dataset(tmp_path / "m.txt").trajectories[0].state
        assert state.flags.f_contiguous and state.flags.owndata
        assert not state.flags.writeable
        assert np.array_equal(state, table[:, 1:].T)

    def test_multi_file_manifest(self, tmp_path):
        for k in range(2):
            (tmp_path / f"p{k}.csv").write_text(
                "t,x1\n" + "".join(f"{t},{t * (k + 1)}\n" for t in (0.0, 1.0, 2.0))
            )
        manifest = tmp_path / "cases.txt"
        manifest.write_text("# two cases\np0.csv 1.0\np1.csv 2.0\n")
        ds = read_dataset(manifest)
        assert ds.n_params == 2
        assert_allclose(ds.trajectories[1].state, [[0.0, 2.0, 4.0]])

    def test_grid_mismatch_across_files(self, tmp_path):
        (tmp_path / "a.csv").write_text("t,x\n0,1\n1,2\n")
        (tmp_path / "b.csv").write_text("t,x\n0,1\n2,2\n")
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.csv 1\nb.csv 2\n")
        with pytest.raises(DataError, match="share one time grid"):
            read_dataset(manifest)

    def test_non_numeric_body_rejected(self, tmp_path):
        (tmp_path / "a.csv").write_text("t,x\n0,1\noops,2\n")
        manifest = tmp_path / "m.txt"
        manifest.write_text("a.csv 1\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_dataset(manifest)


class TestSplit:
    def test_basic_partition(self):
        ds = make_dataset(n_params=5)
        train, test = split_train_test(ds, {4})
        assert train.n_params == 4
        assert test.n_params == 1
        assert test.params[0, 0] == ds.params[4, 0]

    def test_grid_shared_not_copied(self):
        ds = make_dataset(n_params=3)
        train, test = split_train_test(ds, [1])
        assert train.grid is ds.grid
        assert test.grid is ds.grid

    def test_all_indices_rejected(self):
        ds = make_dataset(n_params=3)
        with pytest.raises(DataError, match="train side"):
            split_train_test(ds, [0, 1, 2])

    def test_forced_test_index(self):
        ds = make_dataset(n_params=20)
        distinguished = 7
        train, test = split_train_test(ds, [distinguished])
        assert ds.params[distinguished, 0] in test.params[:, 0]
        assert ds.params[distinguished, 0] not in train.params[:, 0]

    def test_out_of_range(self):
        ds = make_dataset(n_params=3)
        with pytest.raises(DataError, match="out of range"):
            split_train_test(ds, [5])

    def test_sides_are_parameter_subsets(self):
        ds = make_dataset(n_params=5)
        train, test = split_train_test(ds, [3, 1])
        for side, indices in ((train, [0, 2, 4]), (test, [1, 3])):
            expected = subset_params(ds, indices)
            assert np.array_equal(side.params, expected.params)
            assert side.trajectories == expected.trajectories


class TestRestrictTime:
    def test_inner_window(self):
        grid = TimeGrid(np.array([0.0, 1.0, 2.0, 3.0]))
        traj = SnapshotMatrix(np.arange(8, dtype=float).reshape(2, 4), grid)
        ds = ParametricDataset(np.array([[1.0]]), (traj,))
        out = restrict_time(ds, 1.0, 2.0)
        assert len(out.grid) == 2
        assert_allclose(out.grid.instants, [1.0, 2.0])
        assert_allclose(out.trajectories[0].state, [[1.0, 2.0], [5.0, 6.0]])

    def test_disjoint_window(self):
        ds = make_dataset()
        with pytest.raises(DataError):
            restrict_time(ds, 10.0, 20.0)

    def test_train_window_count(self):
        # grid 1400..3000 step 10 restricted to [1400, 2800] keeps 141 instants
        grid = TimeGrid(np.arange(1400.0, 3000.0 + 1, 10.0))
        traj = SnapshotMatrix(np.ones((2, len(grid))), grid)
        ds = ParametricDataset(np.array([[1.0]]), (traj,))
        out = restrict_time(ds, 1400.0, 2800.0)
        assert len(out.grid) == 141

