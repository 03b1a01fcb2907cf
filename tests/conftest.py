"""Run the tests with BLAS at one thread, as benchmarks/run.py runs the CLI.

pytest loads this file before any test module imports numpy, so BLAS reads
these settings when it starts. With a second BLAS thread, process_time also
counts that thread's work, and the timing tests read whatever ran before them.
"""

import os

os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
