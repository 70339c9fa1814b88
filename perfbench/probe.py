"""Set-up time in a fresh process, started by run.py.

    python3 perfbench/probe.py TRAIN.pdmd1
    python3 perfbench/probe.py --reference TRAIN.pdmd1

Prints one JSON line.  The probe times ``import pdmd`` and
``read_dataset`` of the workload's PDMD1 file.  The reference does the
same kind of work without pdmd: it imports NumPy and the SciPy modules
pdmd imports, and reads the file's bytes.  run.py divides each probe by
the reference run next to it, so that a machine that starts processes
slower for minutes at a time moves both alike.
"""

import json
import sys
import time


def main() -> None:
    reference = sys.argv[1] == "--reference"
    path = sys.argv[-1]
    started = time.perf_counter()
    if reference:
        import numpy.polynomial  # noqa: F401
        import scipy.linalg  # noqa: F401
        import scipy.optimize  # noqa: F401
        import scipy.spatial.distance  # noqa: F401

        imported = time.perf_counter()
        with open(path, "rb") as handle:
            handle.read()
    else:
        import pdmd

        imported = time.perf_counter()
        pdmd.read_dataset(path)
    read = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "read_s": read - imported}))


if __name__ == "__main__":
    main()
