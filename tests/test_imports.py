"""The import contract: ``import pdmd`` loads nothing until a name is
used, and SciPy loads only where a call needs it.  Each cold check runs
in a fresh interpreter, since this one has imported everything."""

import importlib
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pdmd
from pdmd.cli import main
from pdmd.errors import ConvergenceWarning

SRC = Path(__file__).resolve().parents[1] / "src"
ALGORITHMS = ("roi", "rkoi", "mono", "part")
# (algorithm, regressor) of the archives whose queries must not load SciPy
SCIPY_FREE = [(tag, "linear") for tag in ALGORITHMS] + [("roi", "nearest"), ("part", "poly")]


def run_fresh(code, *argv, env=None):
    """Run ``code`` in a new interpreter that finds pdmd in src/, with
    the variables ``env`` added to its environment only, and return the
    JSON it prints on its last line."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def fit(data, out, algorithm, regressor):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        assert main(["fit", "--data", str(data), "--algorithm", algorithm, "--rank", "4",
                     "--regressor", regressor, "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    data = root / "data.pdmd1"
    assert main(["synth", "--family", "linear", "--nh", "6", "--np", "6", "--nt", "40",
                 "--dt", "0.1", "--param-range", "0.3,0.7", "--seed", "3",
                 "--out", str(data)]) == 0
    for algorithm, regressor in SCIPY_FREE:
        fit(data, root / f"{algorithm}-{regressor}.pdmdm", algorithm, regressor)
    return root


COLD_PACKAGE = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("pdmd", "numpy", "scipy"))

import pdmd
stages = {"import": loaded()}
pdmd.read_dataset(sys.argv[1])
stages["read_dataset"] = loaded()
print(json.dumps(stages))
"""


def test_package_and_read_dataset_load_only_what_they_use(workdir):
    stages = run_fresh(COLD_PACKAGE, workdir / "data.pdmd1")
    assert stages["import"] == ["pdmd"]
    read = stages["read_dataset"]
    assert [m for m in read if m.startswith("pdmd")] == ["pdmd", "pdmd.data", "pdmd.errors"]
    assert "numpy" in read
    assert not [m for m in read if m.split(".")[0] == "scipy"]


COLD_CLI = """
import json, sys
from pathlib import Path

def scipy():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

from pdmd import cli
stages = {"import": scipy()}
root, names = Path(sys.argv[1]), sys.argv[2:]
for name in names:
    model = str(root / f"{name}.pdmdm")
    assert cli.main(["predict", "--model", model, "--mu", "0.45",
                     "--out", str(root / f"cold-{name}.pdmd1")]) == 0
    assert cli.main(["eval", "--model", model, "--data", str(root / "data.pdmd1"),
                     "--out", str(root / f"cold-{name}.jsonl")]) == 0
stages["queries"] = scipy()
assert cli.main(["fit", "--data", str(root / "data.pdmd1"), "--algorithm", "roi",
                 "--rank", "4", "--regressor", "rbf-gauss",
                 "--out", str(root / "cold-rbf.pdmdm")]) == 0
stages["rbf_fit"] = scipy()
assert cli.main(["predict", "--model", str(root / "cold-rbf.pdmdm"), "--mu", "0.45",
                 "--out", str(root / "cold-rbf.pdmd1")]) == 0
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def cold_cli(workdir):
    names = [f"{algorithm}-{regressor}" for algorithm, regressor in SCIPY_FREE]
    return run_fresh(COLD_CLI, workdir, *names)


def test_cli_import_loads_no_scipy(cold_cli):
    assert cold_cli["import"] == []


def test_predict_and_eval_without_rbf_load_no_scipy(cold_cli):
    assert cold_cli["queries"] == []


def test_rbf_model_fits_loads_and_predicts_the_same_bits(cold_cli, workdir):
    # the cold process imported SciPy inside the fit and predicted; this
    # process, with SciPy loaded long before, must give the same bits
    assert "scipy.linalg" in cold_cli["rbf_fit"]
    assert "scipy.spatial.distance" in cold_cli["rbf_fit"]
    fit(workdir / "data.pdmd1", workdir / "warm-rbf.pdmdm", "roi", "rbf-gauss")
    answers = []
    for model in ("cold-rbf", "warm-rbf"):
        out = workdir / f"{model}-here.pdmd1"
        assert main(["predict", "--model", str(workdir / f"{model}.pdmdm"), "--mu", "0.45",
                     "--out", str(out)]) == 0
        answers.append(out.read_bytes())
    assert answers == [(workdir / "cold-rbf.pdmd1").read_bytes()] * 2


def test_every_export_is_its_submodules_object():
    for name in pdmd.__all__:
        value = getattr(pdmd, name)
        assert inspect.isclass(value) or inspect.isfunction(value), name
        assert value.__module__.startswith("pdmd."), name
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_lists_every_export():
    assert set(pdmd.__all__) <= set(dir(pdmd))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pdmd.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from pdmd import no_such_name  # noqa: F401


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pdmd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pdmd.__all__)


def test_submodules_are_attributes():
    assert pdmd.regression is importlib.import_module("pdmd.regression")
    assert pdmd.cli.main is main
