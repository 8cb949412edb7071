"""Pin BLAS to one thread before any test module imports numpy.

A multi-threaded OpenBLAS splits a matrix product at points that depend on
its shape, so the product's bits change with the thread count. The benchmark
(perfbench/run.py) pins one thread for the same reason; the tests that
compare two computations bit for bit hold at that setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
