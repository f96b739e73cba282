"""Test set-up shared by every test directory: BLAS runs on one thread.

pytest imports this file before numpy is first imported, whether it is
started on the whole suite or on one test file, so the thread counts below
reach every BLAS library numpy may load. The fit's matrix products are too
small to gain from threads, and unpinned threads contend with any other busy
process. A count already set in the environment is kept; the tests that
need another count set it in their own subprocesses.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
