"""Rules on the package source that no other test can see.

Every certificate must hold under ``python -O``, so ``src/glap`` may not
rest on ``assert``; the runtime is stdlib-only, so every import is
relative or names a standard-library module; and no dead code is kept, so
every module-level function and class of ``src/glap``, and every method
of its classes but the dunder methods, is referenced in ``src/glap``
outside its own definition, or is on the short ``PUBLIC_API`` list of
entry points that only callers outside the package use, and which a test
must then use.  A reference from a test alone does not keep code alive.

The rule matches by name, as a bare name, an attribute or an import: it
cannot tell whose attribute ``x.rank`` is.  So a method shares its fate
with every other name it matches, and stays alive while any of them is
referenced in ``src/glap``.

An algebra's scaled adjacency ``_adj`` and the rank verdicts ``_pivots``
read from it have one owner: they are set in ``GradedAlgebra.__init__``,
and ``_adj`` is built by ``gla._scaled_adjacency`` from the brackets as
written.  No other code of ``src/glap`` sets or deletes an attribute of
either name, so every adjacency is that of its algebra's brackets.

The pivot rows ``piv`` of a ``linalg.Echelon``, its index ``holders``
(column -> the leads whose rows hold it) and its set ``known_zero`` (the
leads whose row is the unit row) have one owner too: only
``Echelon.__init__`` and ``Echelon.add`` store to or delete an entry of
any of them, or the attribute itself, so every ``piv`` is the reduced row
echelon form that ``add`` keeps.  A write is seen through subscripts,
through a mutating method, and through a local name bound to the
attribute.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "glap"
TESTS = pathlib.Path(__file__).resolve().parent

PUBLIC_API = {"is_simple", "classify_module"}


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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _unreferenced(
    package: list[pathlib.Path], public: set[str], users: list[pathlib.Path]
) -> list[str]:
    """Module-level functions and classes of ``package``, and the methods
    of its classes other than dunder methods, that nothing else in
    ``package`` refers to and that are not in ``public``, then every name
    in ``public`` that ``package`` does not define or ``users`` never
    refers to.

    The search runs over units: each top-level statement, and for a class
    its header (decorators, bases) and each statement of its body apart.
    A definition is used when a unit outside it refers to its name."""
    defs = []  # (path, node, label)
    units: list[tuple[set[str], set[ast.AST]]] = []  # (names, the defs holding it)
    for path in sorted(package):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, stmt, stmt.name))
            if not isinstance(stmt, ast.ClassDef):
                units.append((_names_used(stmt), {stmt}))
                continue
            header = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
            units.append((set().union(*map(_names_used, header)), {stmt}))
            for member in stmt.body:
                owners = {stmt}
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(member.name):
                        defs.append((path, member, f"{stmt.name}.{member.name}"))
                    owners.add(member)
                units.append((_names_used(member), owners))
    defined = {node.name for _, node, _ in defs}
    used = set()
    for path in users:
        used |= _names_used(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return [
        f"{path.name}:{node.lineno}: {label} is never used"
        for path, node, label in defs
        if node.name not in public
        and not any(node.name in names for names, owners in units if node not in owners)
    ] + [
        f"{name} is public but {'not defined' if name not in defined else 'untested'}"
        for name in sorted(public)
        if name not in defined or name not in used
    ]


OWNED = {"_adj", "_pivots"}
OWNERS = {("gla.py", "__init__", "_adj"), ("gla.py", "__init__", "_pivots"),
          ("gla.py", "_scaled_adjacency", "_adj")}


def _owned_writes(path: pathlib.Path) -> list[tuple[str, int, str, str]]:
    """(file, line, function, attribute) for every store to or delete of
    an attribute named in ``OWNED``, by line, with the innermost function
    around it (``<module>`` outside any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for node in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                owner[sub] = node.name
    return sorted(
        (path.name, node.lineno, owner.get(node, "<module>"), node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in OWNED
        and isinstance(node.ctx, (ast.Store, ast.Del))
    )


def test_only_gla_sets_the_adjacency_of_an_algebra():
    writes = [w for path in sorted(SRC.glob("*.py")) for w in _owned_writes(path)]
    assert {(name, func, attr) for name, _, func, attr in writes} == OWNERS, writes


def test_the_adjacency_rule_catches_what_it_claims(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "A._adj = None\n"
        "def extend(A, B):\n"
        "    B._adj, n = A._adj, 0\n"
        "    def drop():\n"
        "        del B._pivots\n"
        "    A._pivots[0] = None\n"
        "    return B._adj\n"
    )
    assert _owned_writes(bad) == [
        ("bad.py", 1, "<module>", "_adj"),
        ("bad.py", 3, "extend", "_adj"),
        ("bad.py", 5, "drop", "_pivots"),
    ]


ENGINE = {"piv", "holders", "known_zero"}
ENGINE_OWNERS = {("linalg.py", func, attr) for func in ("__init__", "add") for attr in ENGINE}
MUTATORS = {"add", "clear", "discard", "pop", "popitem", "remove", "setdefault", "update"}


def _engine_writes(path: pathlib.Path) -> list[tuple[str, int, str, str]]:
    """(file, line, function, attribute) for every store to or delete of
    an attribute named in ``ENGINE``, of an entry of one (through
    subscripts, or a method in ``MUTATORS``), or of an entry of a name
    bound to one in that function or one around it; by line, with the
    innermost function around it (``<module>`` outside any)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner, outer = {}, {}  # node -> innermost function; function -> the one around it
    for node in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if sub is not node and isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    outer[sub] = node
                owner[sub] = node
    aliases = {
        (owner.get(node), target.id): node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Attribute) and node.value.attr in ENGINE
        for target in node.targets if isinstance(target, ast.Name)
    }

    def written(expr, func):
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        if isinstance(expr, ast.Attribute) and expr.attr in ENGINE:
            return expr.attr
        if isinstance(expr, ast.Name):
            while (func, expr.id) not in aliases:
                if func is None:
                    return None
                func = outer.get(func)
            return aliases[func, expr.id]
        return None

    out = []
    for node in ast.walk(tree):
        func = owner.get(node)
        attr = None
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            attr = written(node, func)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            attr = written(node.func.value, func)
        if attr:
            out.append((path.name, node.lineno, func.name if func else "<module>", attr))
    return sorted(out)


def test_only_echelon_add_writes_the_pivot_rows():
    writes = [w for path in sorted(SRC.glob("*.py")) for w in _engine_writes(path)]
    assert {(name, func, attr) for name, _, func, attr in writes} == ENGINE_OWNERS, writes


def test_the_pivot_rule_catches_what_it_claims(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "e.piv[0] = {}\n"
        "def f(e, r):\n"
        "    del e.holders[3]\n"
        "    p = e.piv\n"
        "    p[1] = r\n"
        "    q = e.piv.get(0)\n"
        "    e.holders.setdefault(2, set()).add(1)\n"
        "    def g():\n"
        "        e.piv.pop(0)\n"
        "        e.holders[4].discard(1)\n"
        "        e.piv = {}\n"
        "        def h():\n"
        "            p[3] = r\n"
        "        p[2] = r\n"
        "    return 0 in e.piv and p[0] and q and len(e.holders[2])\n"
    )
    # reads are not writes; g and h store through f's name p
    assert _engine_writes(bad) == [
        ("bad.py", 1, "<module>", "piv"),
        ("bad.py", 3, "f", "holders"),
        ("bad.py", 5, "f", "piv"),
        ("bad.py", 7, "f", "holders"),
        ("bad.py", 9, "g", "piv"),
        ("bad.py", 10, "g", "holders"),
        ("bad.py", 11, "g", "piv"),
        ("bad.py", 13, "h", "piv"),
        ("bad.py", 14, "g", "piv"),
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
        "class Kept:\n"
        "    def __init__(self):\n"
        "        self.x = 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def dead_method(self):\n"
        "        return self.dead_method()\n"
        "    def test_only_method(self):\n"
        "        pass\n"
        "    def wired(self):\n"
        "        pass\n"
    )
    other = tmp_path / "other.py"
    other.write_text(
        "from . import pkg\n"
        "from .pkg import imported as alias\n"
        "def run():\n"
        "    pkg.by_attribute()\n"
        "    pkg.Kept().wired()\n"
    )
    user = tmp_path / "test_user.py"
    user.write_text(
        "import pkg\n"
        "def test_it():\n"
        "    pkg.called()\n"
        "    pkg.tested_only()\n"
        "    pkg.Kept().test_only_method()\n"
    )
    # the test's calls of tested_only and test_only_method do not keep them
    # alive; the dunder methods are exempt, and wired is called by attribute
    assert _unreferenced([pkg, other], {"called", "run", "gone"}, [user]) == [
        "pkg.py:1: dead is never used",
        "pkg.py:11: Orphan is never used",
        "pkg.py:12: Orphan.method is never used",
        "pkg.py:14: tested_only is never used",
        "pkg.py:21: Kept.dead_method is never used",
        "pkg.py:23: Kept.test_only_method is never used",
        "gone is public but not defined",
        "run is public but untested",
    ]
