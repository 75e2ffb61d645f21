"""Radar-based grain-surface classification toolkit.

Simulates stepped-frequency CW backscatter from parametric silo scenes,
extracts transform/texture features over six method chains, trains
one-vs-one SVMs with an SMO dual solver, and scores everything with
stratified k-fold cross-validation.
"""

import os

# One BLAS thread per process: the commands already run one worker process
# per CPU, and OpenBLAS would start another thread per CPU in each.  OpenBLAS
# reads these variables, in this order, when numpy loads it, so this runs
# before any grainsort module imports numpy, and a count the user set wins.
if not any(name in os.environ
           for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
