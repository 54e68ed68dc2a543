"""The package's single-threaded BLAS default, and the rule that makes it safe.

``pme_react/__init__.py`` sets ``OPENBLAS_NUM_THREADS=1`` before numpy
loads.  That costs nothing only while no module of the package makes a
BLAS-backed numpy call; the scan below fails on the first one.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "pme_react"
VAR = "OPENBLAS_NUM_THREADS"

# numpy names whose work goes to BLAS (``linalg`` covers the whole submodule)
BLAS_NAMES = frozenset({"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"})


def blas_uses(source: str, filename: str = "<string>"):
    """``(line, what)`` of every BLAS-backed numpy call or name in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names = modules + [alias.name for alias in node.names]
            found += [(node.lineno, "import " + n) for n in names if BLAS_NAMES & set(n.split("."))]
    return sorted(found)


def test_scan_finds_every_blas_form():
    code = (
        "import numpy as np\n"
        "import numpy.linalg\n"
        "from numpy import einsum\n"
        "from numpy.linalg import solve\n"
        "a = x @ y\n"
        "a @= y\n"
        "b = x.dot(y)\n"
        "c = np.matmul(x, y) + np.inner(x, y) + np.vdot(x, y) + np.tensordot(x, y)\n"
        "d = np.linalg.norm(x)\n"
        "e = dot(x, y)\n"
    )
    got = blas_uses(code)
    assert {line for line, _ in got} == set(range(2, 11))
    assert {what for _, what in got} >= {
        "@", ".dot", ".matmul", ".inner", ".vdot", ".tensordot", ".linalg", "dot",
        "import numpy.linalg", "import einsum",
    }
    assert blas_uses("y = np.multiply(x, x, out=buf)\nz = x * y + np.sum(x)\n") == []


def test_package_makes_no_blas_call():
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in blas_uses(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not found, (
        "BLAS-backed numpy use in the package: " + "; ".join(found) + ". "
        f"src/pme_react/__init__.py defaults {VAR} to 1 on the grounds that the "
        "package makes no BLAS call (see the comment there); revisit that default "
        "before adding one."
    )


def _fresh(code: str, **env_vars: str) -> str:
    env = {k: v for k, v in os.environ.items() if k != VAR}
    env.update(env_vars, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


REPORT = (
    "import json, os, pme_react\n"
    "task = '/proc/self/task'\n"
    "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
    f"print(json.dumps([os.environ.get('{VAR}'), threads]))\n"
)


def test_import_defaults_to_one_blas_thread():
    value, threads = json.loads(_fresh(REPORT))
    assert value == "1"
    # numpy loaded with it: no BLAS worker threads next to the main one
    assert threads in (None, 1)


def test_import_keeps_a_value_the_user_set():
    value, _ = json.loads(_fresh(REPORT, **{VAR: "3"}))
    assert value == "3"


def _is_default(stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and ast.unparse(stmt.value) == f"os.environ.setdefault('{VAR}', '1')"
    )


def test_default_precedes_the_first_package_import():
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    where = [i for i, stmt in enumerate(body) if _is_default(stmt)]
    assert len(where) == 1
    before = body[: where[0]]
    # only the docstring and ``import os`` may run before it
    assert all(
        (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        or (isinstance(s, ast.Import) and [a.name for a in s.names] == ["os"])
        for s in before
    ), [ast.unparse(s) for s in before]
    assert any(isinstance(s, ast.ImportFrom) for s in body[where[0]:])
