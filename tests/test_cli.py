"""Command-line behavior: config merging, exit codes, console reports,
and the file formats the subcommands exchange."""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdmd.archive import load_model, save_model
from pdmd.bench import parse_suite
from pdmd.cli import main
from pdmd.data import (
    ParametricDataset,
    SnapshotMatrix,
    TimeGrid,
    read_dataset,
    write_dataset,
)
from pdmd.metrics import EvalReport, report_from_line, report_to_line
from pdmd.synth import generate


def run_cli(*argv):
    return main(list(argv))


def make_dataset(tmp_path, *extra, name="data.pdmd1"):
    path = tmp_path / name
    code = run_cli(
        "synth", "--family", "linear", "--nh", "6", "--np", "6",
        "--nt", "40", "--dt", "0.1", "--param-range", "0.3,0.7",
        "--seed", "3", "--out", str(path), *extra,
    )
    assert code == 0
    return path


class TestConfigMerge:
    def test_flags_override_config_file(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text(
            "# comment line\n"
            "family = modes\n"
            "nh = 4\n"
            "np = 3\n"
            "nt = 12\n"
            "out = %s\n" % (tmp_path / "ds.pdmd1")
        )
        code = run_cli("synth", "--config", str(config), "--nh", "5")
        assert code == 0
        dataset = read_dataset(tmp_path / "ds.pdmd1")
        assert dataset.n_state == 5
        assert dataset.n_params == 3
        assert len(dataset.grid) == 12
        assert_allclose(dataset.grid.dt, 0.1)

    def test_family_alias_accepted_in_config(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("family=oscillator\nnh=6\nnp=3\nnt=16\nout=%s\n"
                          % (tmp_path / "ds.pdmd1"))
        assert run_cli("synth", "--config", str(config)) == 0
        sidecar = json.loads((tmp_path / "ds.pdmd1.spec.json").read_text())
        assert sidecar["family"] == "lifted-oscillator"

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("famly=linear\n")
        assert run_cli("synth", "--config", str(config)) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "synth.cfg"
        config.write_text("nh=many\n")
        assert run_cli("synth", "--config", str(config)) == 2
        assert "nh" in capsys.readouterr().err

    def test_duplicate_config_key_rejected(self, tmp_path):
        config = tmp_path / "synth.cfg"
        config.write_text("nh=4\nnh=5\n")
        assert run_cli("synth", "--config", str(config)) == 2

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run_cli("synth", "--config", str(tmp_path / "absent.cfg")) == 2

    def test_config_file_and_suite_section_give_the_same_dataset(self, tmp_path):
        text = (
            "family = modes\nnh = 6\nnp = 4\nnt = 20\ndt = 0.05\nt0 = 0.5\n"
            "noise = 0.01\nseed = 3\nparam-range = 0.2,0.8\n"
        )
        config = tmp_path / "synth.cfg"
        config.write_text(text + "out = %s\n" % (tmp_path / "cli.pdmd1"))
        assert run_cli("synth", "--config", str(config)) == 0
        suite = parse_suite("[scenario s]\n" + text + "test-idx = 1\nrank = 2\n")
        dataset, _ = generate(suite.scenarios[0].synth)
        write_dataset(dataset, tmp_path / "suite.pdmd1")
        assert (tmp_path / "cli.pdmd1").read_bytes() == (
            tmp_path / "suite.pdmd1"
        ).read_bytes()


class TestExitCodes:
    def test_missing_required_flag(self, tmp_path, capsys):
        assert run_cli("fit", "--algorithm", "roi") == 2
        assert "--data is required" in capsys.readouterr().err

    def test_invalid_flag_value_exits_via_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("synth", "--family", "bogus")
        assert excinfo.value.code == 2

    def test_missing_dataset_file_is_data_error(self, tmp_path):
        assert run_cli("fit", "--data", str(tmp_path / "absent.pdmd1"),
                       "--algorithm", "roi") == 3

    def test_missing_model_file_is_data_error(self, tmp_path):
        assert run_cli("predict", "--model", str(tmp_path / "absent.pdmdm"),
                       "--mu", "0.5") == 3

    def test_truncated_model_file_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "cut.pdmdm"
        model.write_bytes(b"PDMDMODEL1\n\x01\x00")  # 13 bytes: half a version
        assert run_cli("predict", "--model", str(model), "--mu", "0.5") == 3
        assert "truncated" in capsys.readouterr().err

    def test_missing_report_file_is_data_error(self, tmp_path):
        assert run_cli("plotdata", "--report", str(tmp_path / "absent.jsonl"),
                       "--out", str(tmp_path / "plot.csv")) == 3

    def test_missing_suite_file_is_data_error(self, tmp_path):
        assert run_cli("bench", "--suite", str(tmp_path / "absent.cfg"),
                       "--out", str(tmp_path / "bench")) == 3

    @pytest.mark.parametrize(
        "algorithm",
        [["roi"], ["part"], ["rkoi"], ["rkoi", "--bag-trials", "3"]],
        ids=["roi", "part", "rkoi", "rkoi-bagged"],
    )
    def test_rank_deficient_training_set_is_numerical_error(
        self, tmp_path, capsys, algorithm
    ):
        data = tmp_path / "modes.pdmd1"
        assert run_cli(
            "synth", "--family", "exp-modes", "--nh", "200", "--np", "9",
            "--nt", "80", "--dt", "0.08", "--param-range", "0.2,0.8",
            "--seed", "23", "--out", str(data),
        ) == 0
        capsys.readouterr()
        assert run_cli("fit", "--data", str(data), "--algorithm", *algorithm,
                       "--rank", "8", "--out", str(tmp_path / "m.pdmdm")) == 4
        err = capsys.readouterr().err
        assert "training parameter 0 (mu = [0.2])" in err
        assert "reduce the rank to 6" in err
        assert "the smallest supported rank over all 9 training parameters" in err

    @pytest.mark.parametrize("command", ["fit", "eval", "plotdata", "bench"])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, command):
        # a regular file where the output's folder should be: no command
        # can create that folder
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = str(blocker / "out")
        data = make_dataset(tmp_path)
        model = tmp_path / "m.pdmdm"
        assert run_cli("fit", "--data", str(data), "--algorithm", "roi",
                       "--rank", "2", "--out", str(model)) == 0
        argv = {
            "fit": ["--data", str(data), "--algorithm", "roi", "--rank", "2"],
            "eval": ["--model", str(model), "--data", str(data), "--test-idx", "0"],
            "plotdata": [],
            "bench": [],
        }[command]
        capsys.readouterr()
        assert run_cli(command, *argv, "--out", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "blocker" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, bad",
        [
            ("fit", "train-idx", "0,,1"),
            ("fit", "time-window", "0,"),
            ("predict", "mu", "0.5,"),
            ("eval", "test-idx", "1,,2"),
            ("synth", "param-range", ",0.7"),
            ("synth", "nh", "abc"),
            ("fit", "bag-trials", "x"),
            ("fit", "bag-fraction", "2"),
            ("fit", "bag-fraction", "0"),
        ],
    )
    def test_malformed_value_is_usage_error(self, tmp_path, capsys, command, key, bad):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, f"--{key}", bad)
        assert excinfo.value.code == 2
        config = tmp_path / "bad.cfg"
        config.write_text(f"{key} = {bad}\n")
        capsys.readouterr()
        assert run_cli(command, "--config", str(config)) == 2
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "eval", "bench"])
    def test_seed_is_not_an_option_where_nothing_reads_it(
        self, tmp_path, capsys, command
    ):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(command, "--seed", "7")
        assert excinfo.value.code == 2
        config = tmp_path / "seed.cfg"
        config.write_text("seed = 7\n")
        capsys.readouterr()
        assert run_cli(command, "--config", str(config)) == 2
        assert "unknown config keys: seed" in capsys.readouterr().err

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        # set OPENBLAS/OMP/MKL_NUM_THREADS before launch instead
        with pytest.raises(SystemExit) as excinfo:
            run_cli("synth", "--threads", "1")
        assert excinfo.value.code == 2
        config = tmp_path / "threads.cfg"
        config.write_text("threads=1\n")
        capsys.readouterr()
        assert run_cli("synth", "--config", str(config)) == 2
        assert "unknown config keys: threads" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_gives_identical_files(self, tmp_path):
        first = make_dataset(tmp_path, name="a.pdmd1")
        second = make_dataset(tmp_path, name="b.pdmd1")
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.pdmd1.spec.json").read_text() == (
            tmp_path / "b.pdmd1.spec.json"
        ).read_text()

    def test_reports_shape(self, tmp_path, capsys):
        make_dataset(tmp_path)
        out = capsys.readouterr().out
        assert "6 parameters" in out
        assert "6 x 40 snapshots" in out


class TestFit:
    def test_window_reports_column_count(self, tmp_path, capsys):
        path = tmp_path / "long.pdmd1"
        assert run_cli(
            "synth", "--family", "linear", "--nh", "4", "--np", "4",
            "--nt", "161", "--dt", "10", "--t0", "1400",
            "--param-range", "0.3,0.7", "--seed", "3",
            "--out", str(path),
        ) == 0
        capsys.readouterr()
        code = run_cli(
            "fit", "--data", str(path), "--algorithm", "roi", "--rank", "4",
            "--time-window", "1400,2800",
            "--out", str(tmp_path / "m.pdmdm"),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "training columns: 141" in out
        assert "training parameters: 4" in out

    def test_full_rank_linear_fit_reports_tiny_training_error(self, tmp_path, capsys):
        path = make_dataset(tmp_path)
        capsys.readouterr()
        code = run_cli(
            "fit", "--data", str(path), "--algorithm", "roi", "--rank", "6",
            "--out", str(tmp_path / "m.pdmdm"),
        )
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("training error:")][0]
        assert float(line.split(":")[1]) <= 1e-6
        assert (tmp_path / "m.pdmdm").exists()

    def test_train_idx_subsets_parameters(self, tmp_path, capsys):
        path = make_dataset(tmp_path)
        capsys.readouterr()
        code = run_cli(
            "fit", "--data", str(path), "--algorithm", "mono", "--rank", "6",
            "--train-idx", "0,2,4",
            "--out", str(tmp_path / "m.pdmdm"),
        )
        assert code == 0
        assert "training parameters: 3" in capsys.readouterr().out

    def test_rank_beyond_data_is_data_error(self, tmp_path):
        path = make_dataset(tmp_path)
        assert run_cli(
            "fit", "--data", str(path), "--algorithm", "roi", "--rank", "99",
            "--out", str(tmp_path / "m.pdmdm"),
        ) == 3

    def test_underdetermined_polynomial_names_its_flag(self, tmp_path, capsys):
        path = make_dataset(tmp_path)
        capsys.readouterr()
        assert run_cli(
            "fit", "--data", str(path), "--algorithm", "roi", "--rank", "2",
            "--regressor", "poly", "--poly-degree", "6",
            "--out", str(tmp_path / "m.pdmdm"),
        ) == 3
        err = capsys.readouterr().err
        assert "degree-6 polynomial has 7 coefficients but only 6 training" in err
        assert "lower --poly-degree or add training parameters" in err

    @pytest.mark.parametrize(
        "extra", [[], ["--rank", "1"]], ids=["energy", "explicit-rank"],
    )
    def test_all_zero_snapshots_are_data_error(self, tmp_path, capsys, extra):
        grid = TimeGrid(np.linspace(0.0, 1.0, 12))
        dataset = ParametricDataset(
            np.arange(3.0)[:, None],
            tuple(SnapshotMatrix(np.zeros((6, 12)), grid) for _ in range(3)),
        )
        path = tmp_path / "zeros.pdmd1"
        write_dataset(dataset, path)
        code = run_cli(
            "fit", "--data", str(path), "--algorithm", "roi",
            "--out", str(tmp_path / "m.pdmdm"), *extra,
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "cannot build a basis from all-zero snapshots" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("oversample", "5"), ("power-iters", "5"), ("randomized-svd", None)],
        ids=["oversample", "power-iters", "randomized-svd"],
    )
    def test_removed_sketch_knobs_are_usage_errors(self, tmp_path, flag, value):
        path = make_dataset(tmp_path)
        given = [f"--{flag}"] if value is None else [f"--{flag}", value]
        with pytest.raises(SystemExit) as excinfo:
            run_cli("fit", "--data", str(path), "--algorithm", "roi", *given)
        assert excinfo.value.code == 2
        config = tmp_path / "fit.cfg"
        config.write_text(f"{flag}={value or 1}\n")
        assert run_cli(
            "fit", "--config", str(config), "--data", str(path),
            "--algorithm", "roi",
        ) == 2

    @pytest.mark.parametrize("rank", [["--rank", "8"], ["--rank", "12"], []],
                             ids=["rank-8", "rank-12", "energy"])
    def test_basis_up_to_the_state_dimension(self, tmp_path, capsys, rank):
        # the default suite's linear-smooth family: 12 state rows, so an
        # explicit rank 12 keeps the whole state space
        path = tmp_path / "smooth.pdmd1"
        assert run_cli(
            "synth", "--family", "linear", "--nh", "12", "--np", "18",
            "--nt", "120", "--dt", "0.15", "--param-range", "0.3,0.7",
            "--seed", "11", "--out", str(path),
        ) == 0
        assert run_cli(
            "fit", "--data", str(path), "--algorithm", "roi",
            "--out", str(tmp_path / "m.pdmdm"), *rank,
        ) == 0
        if rank:
            assert f"basis rank: {rank[1]}\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, field, value",
        [
            (["--rbf-shape", "2"], "rbf_shape", 2.0),
            (["--rbf-shape", "2", "--regressor", "rbf-gauss"], "rbf_shape", 2.0),
            (["--poly-degree", "3"], "poly_degree", 3),
            (["--extrapolation", "allow"], "extrapolation", "allow"),
        ],
        ids=["rbf-shape", "rbf-shape-and-kind", "poly-degree", "extrapolation"],
    )
    def test_regressor_fields_kept_without_a_kind(self, tmp_path, flags, field,
                                                  value):
        # p = 2, so the kind defaults to rbf-gauss
        grid = TimeGrid(0.1 * np.arange(12))
        params = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        rates = 0.2 + params @ np.array([0.3, 0.5])
        dataset = ParametricDataset(params, tuple(
            SnapshotMatrix(np.outer([1.0, 2.0, -1.0], np.exp(-rate * grid.instants)), grid)
            for rate in rates
        ))
        path = tmp_path / "p2.pdmd1"
        write_dataset(dataset, path)
        model = tmp_path / "m.pdmdm"
        assert run_cli("fit", "--data", str(path), "--algorithm", "roi",
                       "--rank", "1", "--out", str(model),
                       *flags) == 0
        meta = load_model(model).metadata
        assert (meta["regressor"], meta[field]) == ("rbf-gauss", value)

    def test_parameterless_dataset_is_data_error(self, tmp_path, capsys):
        # a PDMD1 header declaring p = 0: one trajectory of 4 x 12
        path = tmp_path / "p0.pdmd1"
        path.write_bytes(
            b"PDMD1\n" + struct.pack("<4I", 0, 1, 4, 12)
            + np.arange(12.0).astype("<f8").tobytes()
            + np.ones(4 * 12).astype("<f8").tobytes()
        )
        assert run_cli(
            "fit", "--data", str(path), "--algorithm", "roi",
            "--out", str(tmp_path / "m.pdmdm"),
        ) == 3
        assert "at least one component" in capsys.readouterr().err


class TestPredict:
    def fit_model(self, tmp_path, algorithm="roi"):
        data = make_dataset(tmp_path)
        model = tmp_path / f"{algorithm}.pdmdm"
        assert run_cli(
            "fit", "--data", str(data), "--algorithm", algorithm,
            "--rank", "6", "--out", str(model),
        ) == 0
        return data, model

    @pytest.mark.parametrize("field", ["values", "op_modes"])
    def test_roi_archive_with_a_complex_array_is_data_error(self, tmp_path, capsys, field):
        _, model = self.fit_model(tmp_path)
        archive = load_model(model)
        # RoiModel refuses a complex array, so the archive is written from
        # an unchecked copy of the fitted model
        tampered = copy.copy(archive.model)
        object.__setattr__(tampered, field, getattr(tampered, field) + 0j)
        bad = tmp_path / "complex.pdmdm"
        save_model(tampered, bad, archive.metadata)
        capsys.readouterr()
        assert run_cli("predict", "--model", str(bad), "--mu", "0.5",
                       "--out", str(tmp_path / "pred.pdmd1")) == 3
        assert "roi op_modes and regressor values must be real" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, cut",
        [("amplitudes", lambda a: a[:-1]), ("eigenvalues", lambda a: a[None, :]),
         ("modes", lambda a: a[:, :-1])],
        ids=["short-amplitudes", "2d-eigenvalues", "thin-modes"],
    )
    @pytest.mark.parametrize("algorithm", ["mono", "part"])
    def test_dmd_arrays_of_mismatched_shapes_are_data_error(
        self, tmp_path, capsys, algorithm, field, cut
    ):
        _, model = self.fit_model(tmp_path, algorithm)
        archive = load_model(model)
        # DmdModel refuses such arrays, so the archive is written from an
        # unchecked copy of the fitted model
        dmds = (archive.model.stacked_dmd,) if algorithm == "mono" else archive.model.members
        dmd = copy.copy(dmds[0])
        object.__setattr__(dmd, field, cut(getattr(dmd, field)))
        tampered = copy.copy(archive.model)
        if algorithm == "mono":
            object.__setattr__(tampered, "stacked_dmd", dmd)
        else:
            object.__setattr__(tampered, "members", (dmd, *tampered.members[1:]))
        bad = tmp_path / "shapes.pdmdm"
        save_model(tampered, bad, archive.metadata)
        capsys.readouterr()
        assert run_cli("predict", "--model", str(bad), "--mu", "0.5",
                       "--out", str(tmp_path / "pred.pdmd1")) == 3
        assert "DMD arrays of mismatched shapes" in capsys.readouterr().err

    def test_training_parameter_reproduces_trajectory(self, tmp_path, capsys):
        data, model = self.fit_model(tmp_path)
        dataset = read_dataset(data)
        mu = float(dataset.params[2, 0])
        capsys.readouterr()
        out_path = tmp_path / "pred.pdmd1"
        code = run_cli("predict", "--model", str(model), "--mu", repr(mu),
                       "--out", str(out_path))
        assert code == 0
        console = capsys.readouterr().out
        assert "regressor fits: 0" in console
        prediction = read_dataset(out_path)
        assert prediction.n_params == 1
        assert_allclose(prediction.grid.instants, dataset.grid.instants,
                        atol=1e-12)
        assert_allclose(prediction.trajectories[0].state,
                        dataset.trajectories[2].state, atol=1e-8)

    def test_default_window_matches_training_lattice(self, tmp_path):
        data, model = self.fit_model(tmp_path)
        out_path = tmp_path / "pred.pdmd1"
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--out", str(out_path)) == 0
        prediction = read_dataset(out_path)
        assert len(prediction.grid) == 40
        assert_allclose(prediction.grid.dt, 0.1)

    def test_explicit_window_and_nt(self, tmp_path):
        # Window sampling must stay on the training lattice for the
        # discrete-time operator-interpolation model.
        data, model = self.fit_model(tmp_path)
        out_path = tmp_path / "pred.pdmd1"
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--time-window", "0,6", "--nt", "61",
                       "--out", str(out_path)) == 0
        prediction = read_dataset(out_path)
        assert len(prediction.grid) == 61
        assert_allclose(prediction.grid.instants[-1], 6.0)

    @pytest.mark.parametrize(
        "window, nt, message",
        [
            ("1,0", [], "empty time window [1.0, 0.0]"),
            ("1,0", ["--nt", "3"], "empty time window [1.0, 0.0]"),
            ("0,0.05", [], "time window [0.0, 0.05] keeps fewer than two instants"),
            ("1,1", ["--nt", "3"], "time window [1.0, 1.0] keeps fewer than two instants"),
            ("nan,1", [], "time window [nan, 1.0] has a non-finite bound"),
            ("0,inf", [], "time window [0.0, inf] has a non-finite bound"),
            ("0,1e300", [], "time window [0.0, 1e+300] holds more instants than can be allocated"),
        ],
        ids=["reversed", "reversed-nt", "narrow", "zero-width-nt", "nan", "inf", "too-many"],
    )
    def test_window_without_two_instants_is_data_error(
        self, tmp_path, capsys, window, nt, message
    ):
        data, model = self.fit_model(tmp_path)
        out_path = tmp_path / "pred.pdmd1"
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--time-window", window, *nt, "--out", str(out_path)) == 3
        assert message in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("window", ["0,0.3", "0.1,0.4"])
    def test_lattice_instants_stay_inside_the_window(self, tmp_path, window):
        data, model = self.fit_model(tmp_path)
        out_path = tmp_path / "pred.pdmd1"
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--time-window", window, "--out", str(out_path)) == 0
        instants = read_dataset(out_path).grid.instants
        start, end = map(float, window.split(","))
        assert len(instants) == 4 and start == instants[0] and instants[-1] <= end

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_off_lattice_instants_with_continuous_model(self, tmp_path):
        data, model = self.fit_model(tmp_path, algorithm="rkoi")
        out_path = tmp_path / "pred.pdmd1"
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--time-window", "0,6", "--nt", "25",
                       "--out", str(out_path)) == 0
        prediction = read_dataset(out_path)
        assert len(prediction.grid) == 25
        assert_allclose(prediction.grid.instants[-1], 6.0)

    @pytest.mark.parametrize("algorithm, regressor", [("roi", "rbf-gauss"), ("rkoi", "poly")])
    def test_loaded_regressors_answer_queries(self, tmp_path, algorithm, regressor):
        data = make_dataset(tmp_path)
        model = tmp_path / "model.pdmdm"
        assert run_cli("fit", "--data", str(data), "--algorithm", algorithm,
                       "--rank", "4", "--regressor", regressor, "--out", str(model)) == 0
        assert run_cli("predict", "--model", str(model), "--mu", "0.45",
                       "--out", str(tmp_path / "pred.pdmd1")) == 0

    @pytest.mark.parametrize("algorithm", ["roi", "mono", "part"])
    def test_instants_beyond_int64_steps_are_data_error(self, tmp_path, capsys, algorithm):
        data, model = self.fit_model(tmp_path, algorithm)
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model), "--mu", "0.5",
                       "--time-window", "0,1e20", "--nt", "3",
                       "--out", str(tmp_path / "pred.pdmd1")) == 3
        assert "instant 5e+19 is 5e+20 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["roi", "rkoi", "mono", "part"])
    def test_overflowing_rbf_shape_is_data_error(self, tmp_path, capsys, algorithm):
        data = make_dataset(tmp_path)
        capsys.readouterr()
        assert run_cli("fit", "--data", str(data), "--algorithm", algorithm,
                       "--rank", "4", "--regressor", "rbf-tps", "--rbf-shape", "1e-300",
                       "--out", str(tmp_path / "model.pdmdm")) == 3
        assert "raise --rbf-shape" in capsys.readouterr().err

    def test_wrong_parameter_dimension_is_data_error(self, tmp_path, capsys):
        data, model = self.fit_model(tmp_path)
        capsys.readouterr()
        assert run_cli("predict", "--model", str(model), "--mu", "0.5,0.5",
                       "--out", str(tmp_path / "pred.pdmd1")) == 3
        assert ("query parameter of shape (2,) does not fit the model's parameter "
                "dimension 1") in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [["predict", "--mu", "0.5"],
                    ["predict", "--mu", "0.5", "--time-window", "0,1", "--nt", "3"],
                    ["eval", "--data", "DATA"]],
        ids=["predict", "predict-window", "eval"],
    )
    def test_archive_without_fit_metadata_is_data_error(self, tmp_path, capsys, command):
        data, model = self.fit_model(tmp_path)
        bare = tmp_path / "bare.pdmdm"
        save_model(load_model(model).model, bare)
        capsys.readouterr()
        argv = [str(data) if arg == "DATA" else arg for arg in command]
        assert run_cli(*argv, "--model", str(bare), "--out", str(tmp_path / "out")) == 3
        assert "archive metadata lacks 't0'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("predict", "dt", "0.1"),
            ("predict", "t0", None),
            ("predict", "n_t", 40.5),
            ("eval", "offline_seconds", [1.0]),
        ],
    )
    def test_mistyped_fit_metadata_is_data_error(
        self, tmp_path, capsys, command, key, value
    ):
        data, model = self.fit_model(tmp_path)
        loaded = load_model(model)
        edited = tmp_path / "edited.pdmdm"
        save_model(loaded.model, edited, {**loaded.metadata, key: value})
        argv = ["--mu", "0.5"] if command == "predict" else ["--data", str(data)]
        capsys.readouterr()
        assert run_cli(command, "--model", str(edited), *argv,
                       "--out", str(tmp_path / "out")) == 3
        assert f"archive metadata {key!r} has the invalid value" in capsys.readouterr().err

    # the keys pdmd fit writes that predict and eval do not read
    UNREAD = ("param_dim", "rank", "regressor", "rbf_shape", "poly_degree", "ridge",
              "extrapolation")

    def command_output(self, tmp_path, command, data, model):
        argv = ["--mu", "0.5"] if command == "predict" else ["--data", str(data)]
        out = tmp_path / f"{command}.out"
        assert run_cli(command, "--model", str(model), *argv, "--out", str(out)) == 0
        if command == "predict":
            return out.read_bytes()
        # an eval report holds the measured online time; the rest is the model's
        return [{**json.loads(line), "online_seconds": None}
                for line in out.read_text().splitlines()]

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("predict", "param_dim", True),
            ("predict", "regressor", 3),
            ("predict", "rbf_shape", "wide"),
            ("predict", "poly_degree", 2.0),
            ("eval", "rank", "six"),
            ("eval", "ridge", float("nan")),
            ("eval", "extrapolation", None),
        ],
    )
    def test_mistyped_unread_fit_metadata_is_ignored(self, tmp_path, command, key, value):
        data, model = self.fit_model(tmp_path)
        loaded = load_model(model)
        edited = tmp_path / "edited.pdmdm"
        save_model(loaded.model, edited, {**loaded.metadata, key: value})
        assert (self.command_output(tmp_path, command, data, edited)
                == self.command_output(tmp_path, command, data, model))

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    @pytest.mark.parametrize("algorithm", ["roi", "rkoi", "mono", "part"])
    def test_archive_without_unread_fit_metadata_predicts_the_same_bytes(
        self, tmp_path, algorithm
    ):
        data, model = self.fit_model(tmp_path, algorithm)
        loaded = load_model(model)
        assert set(self.UNREAD) < set(loaded.metadata)
        trimmed = tmp_path / "trimmed.pdmdm"
        kept = {k: v for k, v in loaded.metadata.items() if k not in self.UNREAD}
        save_model(loaded.model, trimmed, kept)
        for command in ("predict", "eval"):
            assert (self.command_output(tmp_path, command, data, trimmed)
                    == self.command_output(tmp_path, command, data, model))

    def test_metadata_that_is_no_object_is_data_error(self, tmp_path, capsys):
        data, model = self.fit_model(tmp_path)
        bare = tmp_path / "bare.pdmdm"
        save_model(load_model(model).model, bare)
        raw = bare.read_bytes()
        meta = b"meta\x03\x00\x00\x00J{}"  # name, payload length, JSON payload
        assert raw.count(meta) == 1
        listed = tmp_path / "listed.pdmdm"
        listed.write_bytes(raw.replace(meta, meta[:-2] + b"[]"))
        capsys.readouterr()
        assert run_cli("predict", "--model", str(listed), "--mu", "0.5",
                       "--out", str(tmp_path / "out")) == 3
        assert "archive metadata is not a JSON object" in capsys.readouterr().err


class TestEvalAndPlotdata:
    def make_reports(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        models = []
        for algorithm in ("roi", "mono"):
            model = tmp_path / f"{algorithm}.pdmdm"
            assert run_cli(
                "fit", "--data", str(data), "--algorithm", algorithm,
                "--rank", "6", "--out", str(model),
            ) == 0
            models.append(model)
        report = tmp_path / "report.jsonl"
        capsys.readouterr()
        code = run_cli(
            "eval", "--model", str(models[0]), "--model", str(models[1]),
            "--data", str(data), "--test-idx", "1,3",
            "--out", str(report),
        )
        assert code == 0
        return data, report

    def test_eval_writes_one_line_per_model_parameter_pair(
        self, tmp_path, capsys
    ):
        data, report = self.make_reports(tmp_path, capsys)
        console = capsys.readouterr().out
        lines = [l for l in report.read_text().splitlines() if l.strip()]
        assert len(lines) == 4
        parsed = [report_from_line(l) for l in lines]
        assert [r.algorithm for r in parsed] == ["roi", "roi", "mono", "mono"]
        for r in parsed:
            assert r.rank == 6
            assert len(r.time_errors) == 40
            assert r.extras["online_fits"] == (0 if r.algorithm == "roi" else 40)
        assert "parameter" in console and "algorithm" in console
        assert console.count("roi") >= 2 and console.count("mono") >= 2

    def test_eval_reads_rank_and_algorithm_from_the_model(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = tmp_path / "roi.pdmdm"
        assert run_cli("fit", "--data", str(data), "--algorithm", "roi",
                       "--rank", "4", "--out", str(model)) == 0
        loaded = load_model(model)
        edited = tmp_path / "edited.pdmdm"
        save_model(loaded.model, edited, {**loaded.metadata, "rank": 9})
        report = tmp_path / "report.jsonl"
        assert run_cli("eval", "--model", str(edited), "--data", str(data),
                       "--test-idx", "2", "--out", str(report)) == 0
        (parsed,) = [report_from_line(l) for l in report.read_text().splitlines()]
        assert (parsed.algorithm, parsed.rank) == ("roi", 4)

    def test_plotdata_emits_tidy_rows(self, tmp_path, capsys):
        data, report = self.make_reports(tmp_path, capsys)
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--report", str(report),
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time,value,algorithm,parameter"
        assert len(lines) == 1 + 4 * 40
        first = report_from_line(report.read_text().splitlines()[0])
        time0, value0, algo0, _ = lines[1].split(",")
        assert algo0 == "roi"
        assert_allclose(float(time0), first.extras["times"][0])
        assert_allclose(float(value0), first.time_errors[0], rtol=1e-12)

    def test_plotdata_without_reports_writes_header_only(self, tmp_path):
        out = tmp_path / "plot.csv"
        assert run_cli("plotdata", "--out", str(out)) == 0
        assert out.read_text() == "time,value,algorithm,parameter\n"


def valid_report_line() -> str:
    return report_to_line(
        EvalReport(
            algorithm="mono", rank=6, parameter=[0.35], frobenius_error=0.012,
            time_errors=[0.01, 0.02, 0.03], rmse=0.004, offline_seconds=1.25,
            online_seconds=0.002, extras={"times": [0.0, 0.1, 0.2], "online_fits": 3},
        )
    )


def edited_report_line(**changes) -> str:
    return json.dumps({**json.loads(valid_report_line()), **changes})


class TestPlotdataMalformedReports:
    """Every report line either plots or exits 3 naming what is wrong;
    none ends in a traceback."""

    def plot(self, tmp_path, text):
        report = tmp_path / "report.jsonl"
        report.write_text(text)
        return run_cli("plotdata", "--report", str(report), "--out", str(tmp_path / "plot.csv"))

    def test_valid_line_plots(self, tmp_path):
        assert self.plot(tmp_path, valid_report_line() + "\n") == 0
        rows = (tmp_path / "plot.csv").read_text().splitlines()
        assert rows[1:] == ["0,0.01,mono,0.35", "0.10000000000000001,0.02,mono,0.35",
                            "0.20000000000000001,0.029999999999999999,mono,0.35"]

    @pytest.mark.parametrize(
        "line, names",
        [
            ("5", "not a JSON object"),
            ("null", "not a JSON object"),
            (edited_report_line(rank="six"), "'rank'"),
            (edited_report_line(frobenius_error="x"), "'frobenius_error'"),
            (edited_report_line(parameter="abc"), "'parameter'"),
            (edited_report_line(online_seconds=None), "'online_seconds'"),
            (edited_report_line(time_errors=[[0.01, 0.02, 0.03]]), "'time_errors'"),
            (edited_report_line(times=[0.0, 0.1]), "'times'"),
        ],
        ids=["number", "null", "rank-text", "error-text", "parameter-text",
             "online-null", "time-errors-2d", "times-short"],
    )
    def test_malformed_line_exits_3_naming_the_field(self, tmp_path, capsys, line, names):
        assert self.plot(tmp_path, line + "\n") == 3
        assert names in capsys.readouterr().err

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_mutated_byte_plots_or_exits_3(self, tmp_path_factory, data):
        raw = bytearray(valid_report_line().encode())
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[position] = data.draw(st.integers(0, 255), label="byte")
        directory = tmp_path_factory.mktemp("report")
        (directory / "report.jsonl").write_bytes(bytes(raw))
        code = run_cli("plotdata", "--report", str(directory / "report.jsonl"),
                       "--out", str(directory / "plot.csv"))
        assert code in (0, 3)


class TestBenchCommand:
    SUITE = (
        "[scenario tiny]\n"
        "family=linear-operator\n"
        "nh=4\nnp=4\nnt=30\ndt=0.2\nseed=5\n"
        "param-range=0.3,0.7\ntest-idx=1\nrank=4\n"
    )

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_suite_file_runs_and_writes_reports(self, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text(self.SUITE)
        out_dir = tmp_path / "bench"
        code = run_cli("bench", "--suite", str(suite), "--out", str(out_dir))
        assert code == 0
        console = capsys.readouterr().out
        assert "scenario tiny: ok" in console
        assert (out_dir / "tiny_table.csv").exists()
        assert (out_dir / "tiny_series.csv").exists()

    def test_bad_suite_file_is_data_error(self, tmp_path):
        suite = tmp_path / "suite.cfg"
        suite.write_text("[scenario tiny]\nwat=1\n")
        assert run_cli("bench", "--suite", str(suite),
                       "--out", str(tmp_path / "bench")) == 3

    @pytest.mark.parametrize(
        "key, bad",
        [("nh", "abc"), ("test-idx", "1,,2"), ("bag-trials", "x"),
         ("param-range", "0.3,")],
    )
    def test_malformed_suite_value_is_data_error(self, tmp_path, capsys, key, bad):
        kept = [line for line in self.SUITE.splitlines() if not line.startswith(f"{key}=")]
        suite = tmp_path / "suite.cfg"
        suite.write_text("\n".join(kept) + f"\n{key} = {bad}\n")
        assert run_cli("bench", "--suite", str(suite),
                       "--out", str(tmp_path / "bench")) == 3
        assert f"scenario 'tiny': bad {key} {bad!r}" in capsys.readouterr().err

    def test_failed_scenario_exits_5(self, tmp_path, capsys):
        suite = tmp_path / "suite.cfg"
        suite.write_text(self.SUITE.replace("rank=4", "rank=9"))
        out_dir = tmp_path / "bench"
        assert run_cli("bench", "--suite", str(suite), "--out", str(out_dir)) == 5
        assert "scenario tiny: FAILED" in capsys.readouterr().out
        assert (out_dir / "failures.txt").exists()
