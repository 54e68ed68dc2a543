"""Barrier certificates and radial experiments for rho(x) u_t = Lap(u^m) + rho(x) u^p.

The package is organized bottom-up:

- ``density``: admissible radial weight families, their canonical members
  and the derived constants the certificates need.
- ``barrier``: closed-form super/subsolution profiles and their derivatives.
- ``feasibility``: inequality systems certifying the barrier sign conditions,
  plus a deterministic parameter search.
- ``solver``: explicit radial finite-volume scheme with blow-up detection.
- ``harness``: residual sweeps, derivative crosschecks, solver-vs-barrier
  comparison experiments and amplitude scans.
- ``config`` / ``cli``: INI-style config files and the ``pme-react``
  command line front end.
"""

from . import barrier, config, density, feasibility, harness, solver

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
