"""The import contract: ``import pdmd`` loads nothing until a name is
used, and SciPy loads only where a call needs it.  Each cold check runs
in a fresh interpreter, since this one has imported everything."""

import ast
import importlib
import inspect
import json
import os
import pkgutil
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


def test_no_module_imports_another_modules_private_name():
    # a private name stays inside its module: what another pdmd module
    # needs is public
    private = []
    for path in sorted((SRC / "pdmd").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                private += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def perfbench_names():
    """Every pdmd name that a perfbench source reads, as
    (file:line, module, name): each ``from pdmd... import name`` and each
    attribute read off a name bound to a pdmd module, a dotted chain
    (``pdmd.data.read_dataset``) one link at a time.  The sources are
    parsed, never imported."""
    modules = {"pdmd", *(f"pdmd.{m.name}" for m in pkgutil.iter_modules(pdmd.__path__))}
    names = []
    for path in sorted((SRC.parent / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(SRC.parent)
        bound = {}  # local name -> the pdmd module it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in modules:
                        bound[alias.asname or "pdmd"] = alias.name if alias.asname else "pdmd"
            elif isinstance(node, ast.ImportFrom) and node.module in modules and not node.level:
                for alias in node.names:
                    names.append((f"{where}:{node.lineno}", node.module, alias.name))
                    if f"{node.module}.{alias.name}" in modules:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            chain, value = [], node
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if not (chain and isinstance(value, ast.Name) and value.id in bound):
                continue
            module = bound[value.id]
            for attr in reversed(chain):
                names.append((f"{where}:{node.lineno}", module, attr))
                if f"{module}.{attr}" not in modules:
                    break
                module = f"{module}.{attr}"
    return names


def test_every_pdmd_name_the_benchmark_reads_resolves():
    # a library change that drops or renames one of these breaks the
    # benchmark harness; this fails first, without running it
    names = perfbench_names()
    assert {"spec_from_metadata", "subset_params", "fit_optdmd"} <= {n for _, _, n in names}
    missing = [
        f"{where} {module}.{name}"
        for where, module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
