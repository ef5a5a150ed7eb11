"""Rules on the package source that no other test can see.

Every certificate must hold under ``python -O``, so ``src/glap`` may not
rest on ``assert``; and the runtime is stdlib-only, so every import is
relative or names a standard-library module.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glap"


def _violations(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = []
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Assert):
            out.append(f"{where}: assert statement")
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                out.append(f"{where}: import of non-stdlib module {name!r}")
    return out


def test_package_has_no_asserts_and_only_stdlib_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    problems = [v for path in files for v in _violations(path)]
    assert problems == []


def test_the_rules_catch_what_they_claim(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import json\n"
        "import numpy as np\n"
        "from sympy import Matrix\n"
        "from . import linalg\n"
        "from .gla import GradedAlgebra\n"
        "def f(x):\n"
        "    assert x\n"
    )
    assert _violations(bad) == [
        "bad.py:2: import of non-stdlib module 'numpy'",
        "bad.py:3: import of non-stdlib module 'sympy'",
        "bad.py:7: assert statement",
    ]
