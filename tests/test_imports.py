"""The package carries no unread code and exports a fixed, documented surface.

Every name a package module imports is read somewhere in that module; every
function, class and method it defines is read somewhere in the package;
and `slcheck` itself exports only the names README's Library section uses.
"""

from __future__ import annotations

import ast
import re
import types
from pathlib import Path

import pytest

from test_traced_names import traced_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "slcheck"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; an alias binds its own name.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import inf, pi\nprint(sys, pi)\n") == [
        "line 1: os",
        "line 3: inf",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path: Path):
    assert unused_imports(path.read_text()) == []


def package_imports(source: str) -> list[str]:
    """Each import of a package module: relative, or of slcheck by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "slcheck":
                found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "slcheck"]
    return found


def test_finds_a_package_import():
    source = "import numpy\nfrom . import poly\nfrom .poly import MAX_VARS\nimport slcheck.cli\n"
    assert package_imports(source) == [".", ".poly", "slcheck.cli"]


def test_linalg_imports_nothing_from_the_package():
    # The screen and the eigen solve are plain numpy; no constant of poly's belongs in them.
    assert package_imports((SRC / "linalg.py").read_text()) == []


def names_in(tree: ast.AST) -> set[str]:
    """Every name and attribute name that occurs in tree."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def names_and_imports(path: Path) -> set[str]:
    """names_in a module, together with every name it imports."""
    tree = ast.parse(path.read_text())
    return names_in(tree) | {a.asname or a.name for n in ast.walk(tree)
                             if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}


def test_checkers_reads_no_exact_polynomial_view():
    # A certificate names the route that decided and holds nothing else, so
    # checkers never forms M's entries or gaps as SparsePoly.
    names = names_and_imports(SRC / "checkers.py")
    assert names.isdisjoint({"SparsePoly", "uncleared", "cached_property"})


def test_counterexample_reads_no_exact_polynomial_view():
    # The replay decides on the integer M that the certificates read.
    names = names_and_imports(SRC / "counterexample.py")
    assert names.isdisjoint({"SparsePoly", "m_matrix", "uncleared"})


def test_subset_poly_reads_no_sparse_view():
    # A SubsetPoly has no text form, so nothing in it converts to SparsePoly.
    tree = ast.parse((SRC / "poly.py").read_text())
    (body,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SubsetPoly"]
    assert names_in(body).isdisjoint({"SparsePoly", "sparse_from_subset"})


# Read by no code in the package, on purpose: the traced names stay while the
# benchmark's tracer wraps them.
KEPT_UNREAD = {(t.module.removeprefix("slcheck."), t.attr) for t in traced_targets()}


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each top-level function or class, and each non-dunder
    method, that no module but __init__ reads: a function or class by name or
    as an attribute, a method as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names, attrs = set(), set()
    for module, tree in trees.items():
        if module == "__init__":
            continue  # it reads names only to re-export them
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names | attrs:
                unread.append(f"{module}.{node.name}")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(method, ast.FunctionDef) or method.name in attrs:
                    continue
                if not (method.name.startswith("__") and method.name.endswith("__")):
                    unread.append(f"{module}.{node.name}.{method.name}")
    return unread


def test_finds_an_unread_definition():
    sources = {
        "a": "class C:\n    def used(self): pass\n    def unused(self): pass\n"
             "def f(): pass\ndef g(): pass\n",
        "b": "from .a import C, f\nf()\nC().used()\n",
        "__init__": "from .a import g\ng()\n",
    }
    assert unread_definitions(sources) == ["a.C.unused", "a.g"]


def test_no_unread_definitions():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    unread = [n for n in unread_definitions(sources) if tuple(n.split(".", 1)) not in KEPT_UNREAD]
    assert unread == []


PUBLIC = {
    "Holds",
    "NoViolationFound",
    "SampleConfig",
    "SubsetPoly",
    "Violated",
    "__version__",
    "check_log_concavity",
    "check_nlc",
    "check_slc",
}


def test_public_surface():
    import slcheck

    public = {
        name
        for name, value in vars(slcheck).items()
        if not (name.startswith("_") and name != "__version__")
        and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC


def test_readme_library_snippet_runs():
    section = (ROOT / "README.md").read_text().split("\n## Library\n")[1].split("\n## ")[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.S)
    imported = {alias.name for node in ast.walk(ast.parse(snippet))
                if isinstance(node, ast.ImportFrom) and node.module == "slcheck"
                for alias in node.names}
    assert imported == PUBLIC - {"__version__"}
    exec(compile(snippet, "README.md", "exec"), {})
