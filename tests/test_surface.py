"""lamlab's public surface: one list of names, and a caller or a reason for each.

Each module's `__all__` is the only list of its public names, and the
package exports their concatenation.  Every exported name is used in
`src/lamlab` outside its own definition, or it is pinned in PYTHON_ONLY
with the ROADMAP item that gives it a caller, and its docstring says so.
"""
import ast
import importlib
from pathlib import Path

import pytest

import lamlab

MODULES = ("circle", "leaves", "fpp", "pullback", "rotation", "docio")

# Exported names that only Python reaches, each with its ROADMAP item: 1
# routes diagnostics through `lam diagnose`.
PYTHON_ONLY = {
    "central_gap": 1,
    "clp_checks": 1,
    "cp_pullback_equality": 1,
    "find_coroots": 1,
    "flower_like": 1,
    "invariant_gap": 1,
    "is_hyperbolic_approx": 1,
    "major_minor": 1,
    "read_portrait": 1,
    "unicritical_anchor": 1,
    "write_portrait": 1,
}

SOURCES = {p.stem: ast.parse(p.read_text()) for p in Path(lamlab.__file__).parent.glob("*.py")}


def module(name):
    return importlib.import_module(f"lamlab.{name}")


def reads():
    """Every name read in the modules, as (top-level definition holding the read, name).

    A read of a name that an enclosing function binds (a parameter or an
    assignment) is a local and is left out.  `__init__.py` reads only the
    modules, to list their names.
    """
    out = []

    def visit(node, owner, local):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            local = local | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
            stores = (n for n in ast.walk(node) if isinstance(n, ast.Name))
            local |= {n.id for n in stores if isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            out.append((owner, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, local)

    for stem, tree in SOURCES.items():
        if stem == "__init__":
            continue
        for stmt in tree.body:
            owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            visit(stmt, owner, frozenset())
    return out


READS = reads()


def uses(name, skip):
    """How often `name` is read outside the top-level definitions named in skip."""
    return sum(1 for owner, n in READS if n == name and owner not in skip)


def test_package_exports_the_module_lists():
    names = [n for m in MODULES for n in module(m).__all__]
    assert lamlab.__all__ == names
    assert len(set(names)) == len(names)
    for m in MODULES:
        for n in module(m).__all__:
            assert getattr(lamlab, n) is getattr(module(m), n), (m, n)


def test_package_lists_no_name():
    # a name listed in __init__.py would be a second list to keep in step
    constants = {n.value for n in ast.walk(SOURCES["__init__"]) if isinstance(n, ast.Constant)}
    assert not constants & set(lamlab.__all__)


@pytest.mark.parametrize("name", lamlab.__all__)
def test_export_has_a_caller_or_a_reason(name):
    assert uses(name, {name}) or name in PYTHON_ONLY


@pytest.mark.parametrize("name", sorted(PYTHON_ONLY))
def test_python_only_names_are_pinned(name):
    # an entry is stale once the library itself uses the name
    assert name in lamlab.__all__
    assert not uses(name, set(PYTHON_ONLY))
    assert f"ROADMAP item {PYTHON_ONLY[name]}" in " ".join(getattr(lamlab, name).__doc__.split())


# the modules that hold the grid primitives every layer shares
PRIMITIVES = {"circle", "leaves"}


@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_private_names_imported_only_from_the_primitives(stem):
    # a private helper another layer needs belongs with the primitives, or on its object
    for node in ast.walk(SOURCES[stem]):
        if isinstance(node, ast.ImportFrom) and node.module not in PRIMITIVES:
            names = [a.name for a in node.names]
            private = [n for n in names if n.startswith("_") and not n.endswith("__")]
            assert not private, (stem, node.module, private)


# the layers in the order the paper reads them: portraits, then pullbacks,
# then the correspondence, with the document and command layers on top
LAYERS = ("circle", "leaves", "fpp", "pullback", "rotation", "docio", "cli")


def test_layers_cover_the_modules():
    assert set(LAYERS) == set(SOURCES) - {"__init__"}


@pytest.mark.parametrize("stem", sorted(SOURCES))
def test_imports_only_at_module_level(stem):
    # an import made at call time hides a dependency from the module's head
    for node in ast.walk(SOURCES[stem]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for inner in ast.walk(node):
                assert not isinstance(inner, (ast.Import, ast.ImportFrom)), (stem, inner.lineno)


def imported_modules(tree):
    """The modules a module's import statements name, anywhere in it.

    A sibling is named relatively, `from .x import ...` naming x; an absolute
    import keeps its dotted name.  `from . import __version__` reads the
    package, which sets the version before it imports any module.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            out += [a.name for a in node.names if a.name != "__version__"]
        elif isinstance(node, ast.ImportFrom):
            out.append(node.module)
    return out


@pytest.mark.parametrize("stem", LAYERS)
def test_modules_import_only_earlier_layers(stem):
    earlier = LAYERS[: LAYERS.index(stem)]
    for m in imported_modules(SOURCES[stem]):
        # the standard library is no layer; lamlab's own modules are named relatively
        assert m in earlier or (m not in LAYERS and m.split(".")[0] != "lamlab"), (stem, m)
