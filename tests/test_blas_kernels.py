"""Results under another OpenBLAS kernel than the one this machine picks.

NumPy's OpenBLAS is built for every x86 kernel (DYNAMIC_ARCH), and
``OPENBLAS_CORETYPE`` picks one when the library loads, so a test reruns
in a fresh interpreter with the variable set for that process only.
Haswell is the kernel an AVX2-only Intel or an AMD Zen machine runs;
SandyBridge is the AVX kernel of older x86 machines.
"""

import platform
from pathlib import Path

import numpy as np
import pytest

from test_imports import run_fresh

TESTS = Path(__file__).resolve().parent


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


needs_haswell = pytest.mark.skipif(
    platform.machine() not in ("x86_64", "AMD64")
    or not _dynamic_openblas()
    or not {"avx2", "fma"} <= _cpu_flags(),
    reason="needs NumPy's DYNAMIC_ARCH OpenBLAS on an AVX2/FMA x86 CPU",
)

RERUN = """
import contextlib, io, json, sys
import pytest

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
print(json.dumps({"exit": int(code), "output": out.getvalue()[-3000:]}))
"""


def rerun_under(kernel, *node_ids):
    """pytest's exit code and output for ``node_ids`` in an interpreter
    whose OpenBLAS runs ``kernel``."""
    ids = [str(TESTS / node_id) for node_id in node_ids]
    return run_fresh(RERUN, *ids, env={"OPENBLAS_CORETYPE": kernel})


# the tests every kernel reruns
EVERY_KERNEL = (
    # a lone roi row steps with np.dot, a block with the batched matmul;
    # both must give the reference loop's bits on every kernel
    "test_roi.py::TestPredictRoi",
    "test_latent.py",
    # dgeqrt and dgemqrt take other kernels there; the basis's blocked QR
    # must still match the thin SVD and write LAPACK-ordered factors
    "test_reduction.py::TestBlockedSecondLevel",
    "test_reduction.py::TestGramFactors",
    # truncated_svd is one thin SVD for every shape; its factors must stay
    # NumPy's bit for bit, and the DMD fits built on them must hold
    "test_linalg.py::TestTruncatedSvd",
    "test_dmd.py::TestFit",
)
# one fresh interpreter per kernel runs all of its tests
RERUNS = {
    "Haswell": (
        # the Haswell ddot flags the overflow of the residual check's norm,
        # which must stay inside the check's errstate and end in NumericalError
        "test_dmd.py::TestEvaluateStack::test_overflow_names_the_first_overflowing_member",
        "test_dmd.py::TestImaginaryTelemetry",
        # the golden archive hashes and the bit-for-bit regressor reads are
        # pinned on this machine's kernel; they must hold on another
        "test_archive.py",
        "test_regression.py",
        *EVERY_KERNEL,
    ),
    "SandyBridge": EVERY_KERNEL,
}


@needs_haswell
@pytest.mark.parametrize("kernel", list(RERUNS))
def test_reruns_hold_under_other_kernels(kernel):
    result = rerun_under(kernel, *RERUNS[kernel])
    assert result["exit"] == 0, result["output"]
