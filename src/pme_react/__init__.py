"""Barrier certificates and radial experiments for rho(x) u_t = Lap(u^m) + rho(x) u^p.

The package is organized bottom-up:

- ``density``: admissible radial weight families, their canonical members
  and the derived constants the certificates need; ``Checked``, the base
  of every record (a named tuple) that checks its fields.
- ``barrier``: closed-form super/subsolution profiles and their derivatives.
- ``feasibility``: inequality systems certifying the barrier sign conditions,
  plus a deterministic parameter search.
- ``solver``: explicit radial finite-volume scheme with blow-up detection.
- ``harness``: residual sweeps, derivative crosschecks, solver-vs-barrier
  comparison experiments and amplitude scans.
- ``config`` / ``cli``: INI-style config files and the ``pme-react``
  command line front end.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless the variable
is already set, so numpy loads without a BLAS worker pool; export another
value before the first import to override it.
"""

import os

# Nothing in this package calls BLAS (tests/test_blas_guard.py keeps it so),
# yet numpy's OpenBLAS starts a pool of worker threads as it loads, and on a
# 2-vCPU machine that made `import numpy` up to twice as slow in every
# command.  It must precede the first import of numpy; a user's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import barrier, config, density, feasibility, harness, solver  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "barrier",
    "config",
    "density",
    "feasibility",
    "harness",
    "solver",
    "__version__",
]
