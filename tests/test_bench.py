"""Benchmark suite parsing, execution, reports, and failure tolerance."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdmd.bench import (
    ALGORITHMS,
    BenchmarkSuite,
    Scenario,
    TABLE_COLUMNS,
    default_suite,
    parse_suite,
    run_suite,
)
from pdmd import bench
from pdmd.errors import DataError
from pdmd.pipeline import FitOptions
from pdmd.synth import SynthSpec

TINY = """
# quick linear scenario
[scenario tiny]
family=linear-operator
nh=4
np=4
nt=30
dt=0.2
seed=5
param-range=0.3,0.7
test-idx=1
rank=4
"""


def read_table(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestParseSuite:
    def test_round_trip_of_fields(self):
        suite = parse_suite(
            "[scenario one]\n"
            "family=exp-modes\nnh=10\nnp=7\nnt=50\ndt=0.05\nt0=2.0\n"
            "seed=9\nparam-range=0.1,0.9\ntest-idx=2,5\n"
            "train-window=2.0,3.5\nrank=4\nrank.roi=5\nop-rank=3\n"
            "regressor=rbf-gauss\nrbf-shape=1.5\nextrapolation=allow\n"
            "bag-trials=4\nbag-fraction=0.6\n"
            "\n"
            "[scenario two]\n"
            "test-idx=0\nrank=2\n"
        )
        assert len(suite.scenarios) == 2
        one = suite.scenarios[0]
        assert one.name == "one"
        assert one.synth.family == "exp-modes"
        assert one.synth.n_h == 10
        assert one.synth.n_params == 7
        assert one.synth.t0 == 2.0
        assert one.synth.param_range == (0.1, 0.9)
        assert one.test_indices == (2, 5)
        assert one.train_window == (2.0, 3.5)
        assert one.ranks == {"roi": 5, "rkoi": 4, "mono": 4, "part": 4}
        assert one.fit_options["op_rank"] == 3
        assert one.fit_options["regressor"].kind == "rbf-gauss"
        assert one.fit_options["regressor"].shape == 1.5
        assert one.fit_options["regressor"].extrapolation == "allow"
        assert one.fit_options["bag_trials"] == 4
        assert one.fit_options["bag_fraction"] == 0.6
        two = suite.scenarios[1]
        assert two.synth.family == "linear-operator"
        assert two.ranks == {algo: 2 for algo in ALGORITHMS}

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown keys"):
            parse_suite("[scenario s]\ntest-idx=0\nrank=2\nwat=1\n")

    def test_missing_test_idx_rejected(self):
        with pytest.raises(DataError, match="test-idx"):
            parse_suite("[scenario s]\nrank=2\n")

    def test_missing_ranks_rejected(self):
        with pytest.raises(DataError, match="rank"):
            parse_suite("[scenario s]\ntest-idx=0\n")

    def test_key_before_header_rejected(self):
        with pytest.raises(DataError, match="before any"):
            parse_suite("rank=2\n[scenario s]\ntest-idx=0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(DataError, match="duplicate key"):
            parse_suite("[scenario s]\nrank=2\nrank=3\ntest-idx=0\n")

    def test_bad_header_rejected(self):
        with pytest.raises(DataError, match="scenario"):
            parse_suite("[case s]\ntest-idx=0\nrank=2\n")

    def test_duplicate_scenario_names_rejected(self):
        text = "[scenario s]\ntest-idx=0\nrank=2\n" * 2
        with pytest.raises(DataError, match="duplicate scenario"):
            parse_suite(text)

    def test_empty_suite_rejected(self):
        with pytest.raises(DataError, match="no scenarios"):
            parse_suite("# nothing here\n")

    @pytest.mark.parametrize(
        "alias, family",
        [("linear", "linear-operator"), ("modes", "exp-modes"),
         ("oscillator", "lifted-oscillator")],
    )
    def test_family_alias_accepted(self, alias, family):
        suite = parse_suite(f"[scenario s]\nfamily = {alias}\ntest-idx=0\nrank=2\n")
        assert suite.scenarios[0].synth.family == family

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("param-range", "0.7,0.3", "param_range must satisfy lo < hi"),
            ("dt", "-1", "dt must be > 0"),
            ("rbf-shape", "-1", "rbf shape must be > 0"),
            ("bag-fraction", "2", "bag-fraction must lie in (0, 1]"),
        ],
    )
    def test_rejected_value_names_scenario_and_key(self, key, value, reason):
        with pytest.raises(DataError) as excinfo:
            parse_suite(f"[scenario s]\n{key} = {value}\ntest-idx=0\nrank=2\n")
        message = str(excinfo.value)
        assert message.startswith(f"scenario 's': bad {key} '{value}': ")
        assert reason in message

    def test_unset_settings_are_left_out(self):
        scenario = parse_suite("[scenario s]\ntest-idx=0\nrank=2\n").scenarios[0]
        assert scenario.fit_options == {}
        assert scenario.synth == SynthSpec("linear-operator")


class TestDefaultSuite:
    def test_covers_every_family_at_desk_scale(self):
        suite = default_suite()
        assert len(suite.scenarios) == 3
        families = {s.synth.family for s in suite.scenarios}
        assert families == {"linear-operator", "exp-modes", "lifted-oscillator"}
        for scenario in suite.scenarios:
            assert scenario.synth.n_h <= 256
            assert scenario.synth.n_params <= 24
            assert scenario.synth.n_t <= 500
            assert set(scenario.ranks) == set(ALGORITHMS)


SUITE_REFERENCE = Path(__file__).with_name("default_suite_reference.csv")
# every table column that does not depend on timing, after the scenario name
SUITE_COLUMNS = ("scenario",) + tuple(
    c for c in TABLE_COLUMNS if c not in bench._TIMING_COLUMNS
)
SUITE_TEXT_COLUMNS = ("scenario", "parameter", "algorithm", "online_fits")
# BLAS threading and hardware move the errors in their last few digits;
# errors at rounding level (an exact family) only in absolute terms
SUITE_RTOL = 1e-8
SUITE_ATOL = 1e-12


def default_suite_lines(out_dir) -> list:
    """The default suite's non-timing table as CSV lines, header first,
    floats written with all 17 significant digits."""
    lines = [",".join(SUITE_COLUMNS)]
    for result in run_suite(default_suite(), str(out_dir)):
        assert result.ok, f"{result.name}: {result.error}"
        for row in result.rows:
            cells = [{"scenario": result.name, **row}[c] for c in SUITE_COLUMNS]
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in cells))
    return lines


class TestDefaultSuiteReference:
    """The built-in suite's non-timing columns are pinned, so a change
    that should keep behaviour is checked against committed numbers.
    ``python tests/test_bench.py`` rewrites the reference, for a change
    meant to move them."""

    def test_non_timing_columns_match_the_reference(self, tmp_path):
        expected = SUITE_REFERENCE.read_text().splitlines()
        got = default_suite_lines(tmp_path)
        assert got[0] == expected[0] and len(got) == len(expected)
        for line, want in zip(got[1:], expected[1:]):
            for column, cell, wanted in zip(SUITE_COLUMNS, line.split(","), want.split(",")):
                if column in SUITE_TEXT_COLUMNS:
                    assert cell == wanted, (want, column)
                else:
                    assert_allclose(float(cell), float(wanted), rtol=SUITE_RTOL,
                                    atol=SUITE_ATOL, err_msg=f"{want} {column}")


class TestRunSuite:
    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_reports_written_with_expected_shape(self, tmp_path):
        results = run_suite(parse_suite(TINY), str(tmp_path))
        assert len(results) == 1
        result = results[0]
        assert result.ok
        header, rows = read_table(tmp_path / "tiny_table.csv")
        assert header == list(TABLE_COLUMNS)
        # one test parameter x four algorithms
        assert len(rows) == 4
        assert [row["algorithm"] for row in rows] == list(ALGORITHMS)
        for row in rows:
            expected = 0 if row["algorithm"] in ("roi", "rkoi") else 30
            assert int(row["online_fits"]) == expected
            assert float(row["train_error"]) >= 0.0
            assert float(row["offline_seconds"]) >= 0.0
        series = (tmp_path / "tiny_series.csv").read_text().splitlines()
        assert series[0] == "time,value,algorithm,parameter"
        assert len(series) == 1 + 4 * 30

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_rows_match_result_objects(self, tmp_path):
        results = run_suite(parse_suite(TINY), str(tmp_path))
        _, rows = read_table(tmp_path / "tiny_table.csv")
        for parsed, row in zip(rows, results[0].rows):
            assert parsed["algorithm"] == row["algorithm"]
            assert_allclose(float(parsed["train_error"]), row["train_error"],
                            rtol=1e-9)
            assert int(parsed["online_fits"]) == row["online_fits"]

    def test_forecast_region_follows_training_window(self, tmp_path):
        # 30 instants at dt=0.2: default 70% split trains on the first 21,
        # so the forecast region holds the trailing 9 columns.
        results = run_suite(parse_suite(TINY), str(tmp_path))
        for row in results[0].rows:
            assert np.isfinite(row["forecast_error"])

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_failing_scenario_recorded_not_fatal(self, tmp_path):
        text = TINY + "\n[scenario broken]\ntest-idx=1\nrank=40\nnh=4\nnp=4\n"
        results = run_suite(parse_suite(text), str(tmp_path))
        assert [r.name for r in results] == ["tiny", "broken"]
        assert results[0].ok
        assert not results[1].ok
        assert "exceeds" in results[1].error
        assert (tmp_path / "tiny_table.csv").exists()
        failures = (tmp_path / "failures.txt").read_text()
        assert "broken" in failures

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_non_timing_output_is_deterministic(self, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_suite(parse_suite(TINY), str(run_a))
        run_suite(parse_suite(TINY), str(run_b))
        assert (run_a / "tiny_series.csv").read_bytes() == (
            run_b / "tiny_series.csv"
        ).read_bytes()
        _, rows_a = read_table(run_a / "tiny_table.csv")
        _, rows_b = read_table(run_b / "tiny_table.csv")
        timing = ("offline_seconds", "online_seconds")
        for row_a, row_b in zip(rows_a, rows_b):
            for key in TABLE_COLUMNS:
                if key in timing:
                    continue
                assert row_a[key] == row_b[key]

    @pytest.mark.filterwarnings("ignore::pdmd.errors.ConvergenceWarning")
    def test_unset_fit_settings_take_the_class_defaults(self, tmp_path, monkeypatch):
        seen = []

        def recording_fit(dataset, options):
            seen.append(options)
            return fit_surrogate(dataset, options)

        fit_surrogate = bench.fit_surrogate
        monkeypatch.setattr(bench, "fit_surrogate", recording_fit)
        results = run_suite(parse_suite(TINY), str(tmp_path))
        assert results[0].ok
        assert seen == [FitOptions(algo, rank=4, seed=5) for algo in ALGORITHMS]

    def test_scenario_requires_all_four_ranks(self):
        with pytest.raises(DataError, match="every algorithm"):
            Scenario(
                name="s",
                synth=SynthSpec("linear-operator"),
                test_indices=(0,),
                ranks={"roi": 2},
            )

    def test_suite_rejects_duplicate_names(self):
        scenario = Scenario(
            name="s",
            synth=SynthSpec("linear-operator"),
            test_indices=(0,),
            ranks={algo: 2 for algo in ALGORITHMS},
        )
        with pytest.raises(DataError, match="duplicate"):
            BenchmarkSuite((scenario, scenario))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        SUITE_REFERENCE.write_text("\n".join(default_suite_lines(scratch)) + "\n")
