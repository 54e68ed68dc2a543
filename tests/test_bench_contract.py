"""The names the traced benchmark run wraps must exist in the package.

``perfbench/child.py`` patches every function listed in its ``TRACED``
table when it runs with ``--trace 1``; a renamed or deleted target would
only surface there, as a crash of the traced run.
"""

import importlib
import importlib.util
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


def test_backend_flag_exists():
    from pme_react import _kernels

    assert isinstance(_kernels.HAVE_NUMBA, bool)
