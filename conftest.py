"""Session setup for every test directory, loaded before any test module.

numpy starts its BLAS thread pool when it loads. On a shared host a pool of
one thread per core makes test times depend on the host's load, so the tests
run with one BLAS thread, as ``mirrorbench simulate`` does, unless the
environment sets the variables already. This runs before numpy loads.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_LOADED_BEFORE = "numpy" in sys.modules
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
