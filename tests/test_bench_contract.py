"""The names the traced benchmark run wraps must exist in the package.

``perfbench/child.py`` patches every function listed in its ``TRACED``
table when it runs with ``--trace 1``; a renamed or deleted target would
only surface there, as a crash of the traced run.  It looks each module up
in ``sys.modules`` right after ``import pme_react.cli``, so a module that
import leaves out (a lazy import) would crash it the same way.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load_child().TRACED


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


def test_backend_flag_exists():
    from pme_react import _kernels

    assert isinstance(_kernels.HAVE_NUMBA, bool)
