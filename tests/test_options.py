"""The one table of key=value settings shared by the CLI and suites."""

import dataclasses
import os
import subprocess
import sys

import pytest

from pdmd import bench, cli
from pdmd.options import fit_keywords, parse_indices, parse_list, parse_pair
from pdmd.pipeline import FitOptions
from pdmd.regression import RegressorSpec
from pdmd.synth import SynthSpec

TABLES = [opts for _, opts, _ in cli.COMMANDS.values()] + [
    list(bench.SUITE_OPTIONS.values())
]
CLASSES = (SynthSpec, FitOptions, RegressorSpec)


def field_of(name):
    for cls in CLASSES:
        for item in dataclasses.fields(cls):
            if item.name == name:
                return item
    raise AssertionError(f"no SynthSpec/FitOptions/RegressorSpec field {name!r}")


@pytest.mark.parametrize("table", TABLES, ids=[*cli.COMMANDS, "suite"])
def test_options_set_real_fields_and_leave_their_defaults_to_the_class(table):
    for opt in table:
        if opt.field is None:
            continue
        item = field_of(opt.field)
        if item.default is not dataclasses.MISSING:
            assert opt.default is None, opt.name


def test_suite_takes_the_synth_and_fit_settings_it_shares_with_the_cli():
    synth = {opt.name: opt for opt in cli.SYNTH_OPTS}
    fit = {opt.name: opt for opt in cli.FIT_OPTS}
    for name, opt in bench.SUITE_OPTIONS.items():
        assert opt is synth.get(name, opt) and opt is fit.get(name, opt), name


@pytest.mark.parametrize("text", ["", "1,", ",1", "1,,2", "1, ,2"])
def test_empty_list_items_rejected(text):
    with pytest.raises(ValueError, match="empty item"):
        parse_list(text, int)


def test_list_and_pair_parsers():
    assert parse_indices(" 0, 2 ,5") == [0, 2, 5]
    assert parse_pair("0.25,1") == (0.25, 1.0)
    with pytest.raises(ValueError, match="two"):
        parse_pair("1,2,3")
    with pytest.raises(ValueError, match=">= 0"):
        parse_indices("1,-2")


def test_unset_kind_falls_back_per_parameter_dimension():
    values = {"rbf_shape": 2.0}
    assert fit_keywords(cli.FIT_OPTS, values, 1)["regressor"] == RegressorSpec(
        "linear", shape=2.0
    )
    assert fit_keywords(cli.FIT_OPTS, values, 2)["regressor"] == RegressorSpec(
        "rbf-gauss", shape=2.0
    )
    assert fit_keywords(cli.FIT_OPTS, {}, 2) == {}


def test_importing_the_package_leaves_the_cli_unloaded():
    code = "import sys, pdmd; assert 'pdmd.cli' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
