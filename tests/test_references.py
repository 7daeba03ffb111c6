"""Cross-references in the package docstrings and the README resolve.

Every ``:func:``, ``:class:`` and ``:mod:`` target in a docstring of
``src/mqcsim``, and every backticked ``module.name`` of a package module
in README.md, must name a module-level definition, so that prose that
points to a derivation elsewhere cannot point to nothing.  Unqualified
targets are looked up in the module whose docstring names them, and a
name that module imports from another package module is looked up
there.  The sources are read with ``ast``; nothing is imported.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mqcsim"
TREES = {("mqcsim" if path.stem == "__init__" else f"mqcsim.{path.stem}"):
         ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}

ROLE = re.compile(r":(?:func|class|mod):`([^`]+)`")
README_NAME = re.compile(r"`((?:mqcsim\.)?[a-z_]+\.[A-Za-z_]\w*)`")


def _bindings(tree) -> dict:
    """Top-level names of a module: each defined name maps to None, and
    each name imported from a package module to that module."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = None
        elif isinstance(node, ast.Assign):
            names.update((n.id, None) for target in node.targets
                         for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update((alias.asname or alias.name, f"mqcsim.{node.module}")
                         for alias in node.names)
    return names


BINDINGS = {module: _bindings(tree) for module, tree in TREES.items()}


def _resolves(target: str, module: str) -> bool:
    """Whether ``target`` names a module or a module-level definition,
    unqualified names looked up in ``module``."""
    if target in TREES:
        return True
    owner, _, name = target.rpartition(".")
    owner = owner or module
    if owner not in BINDINGS or name not in BINDINGS[owner]:
        return False
    source = BINDINGS[owner][name]
    return source is None or _resolves(f"{source}.{name}", source)


def _docstring_targets(tree) -> list:
    """Every role target in the docstrings of a module, its classes and
    its functions, nested ones included."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return [target for node in ast.walk(tree) if isinstance(node, kinds)
            for target in ROLE.findall(ast.get_docstring(node) or "")]


@pytest.mark.parametrize("module", sorted(TREES))
def test_docstring_references_resolve(module):
    targets = _docstring_targets(TREES[module])
    dangling = sorted({t for t in targets if not _resolves(t, module)})
    assert dangling == []


def test_the_package_docstrings_hold_references():
    # the pattern finds what it checks: the chain's docstrings point to
    # more than a dozen definitions
    assert len(_docstring_targets(TREES["mqcsim.expansion"])) > 12


def test_readme_module_names_resolve():
    modules = {name.rpartition(".")[2] for name in TREES}
    named = [name for name in README_NAME.findall(
        (ROOT / "README.md").read_text())
        if name.removeprefix("mqcsim.").partition(".")[0] in modules]
    assert named
    dangling = sorted({name for name in named if not _resolves(
        name if name.startswith("mqcsim.") else f"mqcsim.{name}", "mqcsim")})
    assert dangling == []
