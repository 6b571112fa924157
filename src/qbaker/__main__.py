"""The qbaker command: ``python -m qbaker`` and the installed ``qbaker`` script.

The ``--threads`` pool is the command's one parallelism layer.  A
multithreaded BLAS under it only adds idle workers that spin after numpy
loads and after every BLAS call, so the BLAS and OpenMP thread variables
default to 1 here, before ``qbaker.cli`` imports numpy.  A value already in
the environment wins, and code that imports the library sets nothing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402  (numpy loads here, after the defaults)

if __name__ == "__main__":
    raise SystemExit(main())
