"""Rules on the package source that no other test can see.

Every certificate must hold under ``python -O``, so ``src/glap`` may not
rest on ``assert``; the runtime is stdlib-only, so every import is
relative or names a standard-library module; and no dead code is kept, so
every module-level function and class of ``src/glap`` is referenced in
``src/glap`` outside its own definition, or is on the short ``PUBLIC_API``
list of entry points that only callers outside the package use, and
which a test must then use.  A reference from a test alone does not keep
code alive.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glap"
TESTS = pathlib.Path(__file__).resolve().parent

PUBLIC_API = {
    "is_simple",
    "classify_module",
    "isotropic_split_check",
    "rank_bound_check_split",
    "root_count",
    "highest_root",
    "minus_one_components",
}


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


def _names_used(node: ast.AST) -> set[str]:
    """Names a node refers to: as a name, an attribute or an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _unreferenced(
    package: list[pathlib.Path], public: set[str], users: list[pathlib.Path]
) -> list[str]:
    """Module-level functions and classes of ``package`` that no other
    top-level statement of ``package`` refers to and that are not in
    ``public``, then every name in ``public`` that ``package`` does not
    define or ``users`` never refers to."""
    defs = []
    uses: list[tuple[ast.stmt, set[str]]] = []
    for path in sorted(package):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            uses.append((stmt, _names_used(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, stmt))
    defined = {stmt.name for _, stmt in defs}
    used = set()
    for path in users:
        used |= _names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return [
        f"{path.name}:{stmt.lineno}: {stmt.name} is never used"
        for path, stmt in defs
        if stmt.name not in public
        and not any(stmt.name in names for other, names in uses if other is not stmt)
    ] + [
        f"{name} is public but {'not defined' if name not in defined else 'untested'}"
        for name in sorted(public)
        if name not in defined or name not in used
    ]


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


def test_every_function_and_class_is_used():
    package = sorted(SRC.glob("*.py"))
    assert _unreferenced(package, PUBLIC_API, sorted(TESTS.glob("*.py"))) == []


def test_the_usage_rule_catches_what_it_claims(tmp_path):
    pkg = tmp_path / "pkg.py"
    pkg.write_text(
        "def dead(x):\n"
        "    return dead(x - 1) if x else 0\n"
        "def called():\n"
        "    return Used.attr\n"
        "class Used:\n"
        "    attr = 1\n"
        "def imported():\n"
        "    pass\n"
        "def by_attribute():\n"
        "    pass\n"
        "class Orphan:\n"
        "    def method(self):\n"
        "        return Orphan\n"
        "def tested_only():\n"
        "    pass\n"
    )
    other = tmp_path / "other.py"
    other.write_text(
        "from . import pkg\n"
        "from .pkg import imported as alias\n"
        "def run():\n"
        "    pkg.by_attribute()\n"
    )
    user = tmp_path / "test_user.py"
    user.write_text(
        "import pkg\n"
        "def test_it():\n"
        "    pkg.called()\n"
        "    pkg.tested_only()\n"
    )
    # the test's call of tested_only does not keep it alive
    assert _unreferenced([pkg, other], {"called", "run", "gone"}, [user]) == [
        "pkg.py:1: dead is never used",
        "pkg.py:11: Orphan is never used",
        "pkg.py:14: tested_only is never used",
        "gone is public but not defined",
        "run is public but untested",
    ]
