"""The names the traced benchmark run wraps must exist in the package.

``perfbench/child.py`` patches every function listed in its ``TRACED``
table when it runs with ``--trace 1``; a renamed or deleted target would
only surface there, as a crash of the traced run.  It looks each module up
in ``sys.modules`` right after ``import pme_react.cli``, so a module that
import leaves out (a lazy import) would crash it the same way.  What its
``EXTRA`` functions read off a call (the kernel's step count and array
bytes, a run's steps) must stay where they look for it, or the per-layer
``kernels.advance_calls``, ``bytes_per_step`` and ``solver.steps`` would
shift without a crash.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pme_react"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHILD_MODULE = _load_child()
TRACED = CHILD_MODULE.TRACED


@pytest.mark.parametrize("span, mod_name, attr", TRACED, ids=[f"{m}.{a}" for _, m, a in TRACED])
def test_traced_target_resolves(span, mod_name, attr):
    owner = importlib.import_module("pme_react." + mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(owner, attr, None))


def test_cli_import_loads_every_traced_module():
    # a fresh interpreter: this suite's own imports would hide a lazy one
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import json, sys, pme_react.cli\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert {"pme_react." + mod_name for _, mod_name, _ in TRACED} <= loaded


def test_package_records_generate_no_code_at_import():
    # a dataclass execs its generated methods at import, about 0.6 ms a
    # class, in every command; the records are named tuples instead
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import json, sys, pme_react.cli, pme_react.implicit\n"
        "import dataclasses\n"
        "mods = {n: m for n, m in sys.modules.items() if n.split('.')[0] == 'pme_react'}\n"
        "print(json.dumps([\n"
        "    sorted(f'{n}.{k}' for n, m in mods.items() for k, v in vars(m).items()\n"
        "           if isinstance(v, type) and v.__module__ == n and dataclasses.is_dataclass(v)),\n"
        "    sorted(f'{n}.{k}' for n, m in mods.items() for k, v in vars(m).items() if v is dataclasses),\n"
        "]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    dataclass_types, bindings = json.loads(out.stdout)
    assert dataclass_types == [] and bindings == []


def test_backend_flag_exists():
    from pme_react import _kernels

    assert isinstance(_kernels.HAVE_NUMBA, bool)


def test_extra_reads_the_step_counts_and_array_bytes(monkeypatch):
    from pme_react import _kernels
    from pme_react.density import ProblemConstants
    from pme_react.solver import RadialGrid, SolverConfig, run

    cells = 16
    g = RadialGrid(N=3, R=1.0, cells=cells)
    rho_vol = g.volumes
    area_over_dr = g.faces**2 / g.dr
    cfl_coef = rho_vol / (2.0 * (area_over_dr[:-1] + area_over_dr[1:]))
    u0 = 0.5 + 0.1 * np.cos(g.centers)
    args = (
        u0.copy(), np.empty(cells), rho_vol, 1.0 / rho_vol, area_over_dr, cfl_coef,
        2.0, 3.0, True, True, 1.0e6, 0.1, 0.0, 1.0, 1.0, 7,
    )
    result = _kernels.advance(*args)
    # seven steps within the budget; five cell arrays and the face array
    assert CHILD_MODULE.EXTRA["kernels.advance"](args, result) == [7, 8 * (6 * cells + 1)]

    # a run's steps are the sum of its kernel calls' step counts
    tracer = CHILD_MODULE.Tracer()
    monkeypatch.setattr(_kernels, "advance", tracer.wrap("kernels.advance", _kernels.advance))
    cfg = SolverConfig(t_end=0.05, R=1.0, cells=cells, output_times=(0.01, 0.02, 0.05))
    res = run(u0, g, np.ones(cells), ProblemConstants(m=2.0, p=3.0, N=3), cfg)
    calls = [span[4] for span in tracer.spans]
    assert len(calls) == 3
    assert CHILD_MODULE.EXTRA["solver.run"]((), res) == res.steps == sum(nsub for nsub, _ in calls) > 0


# Past 4,096 tokens CPython's parser doubles its token buffer: feasibility.py
# at that size peaked 0.23 MB higher in compile() (tracemalloc), and the
# ref-small workload's peak_rss_mb rose 0.12 MB, over its 0.1 MB bound.  A
# command compiles every module it imports when no bytecode is cached.
PARSER_TOKEN_BUFFER = 4096


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_fits_the_parser_token_buffer(path):
    with open(path, "rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
        count = sum(1 for token in tokenize.tokenize(fh.readline) if token.type not in skipped)
    assert count < PARSER_TOKEN_BUFFER
