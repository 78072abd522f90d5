"""Transient cooling of a three-qubit absorption refrigerator in spin-star baths."""

import os

# One BLAS thread per process: the grid kernel's small matrix products run
# slower threaded, and the scaling sweep already runs one process per core.
# Takes effect only when this package is imported before numpy; a value the
# user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .engine import RefrigeratorEngine, RefrigeratorParams  # noqa: E402
from .series import TimeGrid  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "RefrigeratorEngine",
    "RefrigeratorParams",
    "TimeGrid",
    "__version__",
]
