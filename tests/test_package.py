"""Tests of the package's module structure."""

import ast
from pathlib import Path

import solitonlab

SRC = Path(solitonlab.__file__).resolve().parent


def test_no_function_level_imports():
    # every module imports at its top, so the module graph is the import
    # graph and a cycle fails at import time instead of hiding in a call
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


#: module-level imports kept unused on purpose, with the reason
UNUSED_IMPORTS_ALLOWED = {
    # the benchmark's tracer asserts that this name is traced in identities
    ("identities.py", "tau_jet_sum"),
}


def test_no_unused_module_imports():
    # a name bound by a module-level import and never read is dead code;
    # __init__ only re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and (path.name, name) not in UNUSED_IMPORTS_ALLOWED:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_numerics_reads_solitons_as_a_black_box():
    # numerics consumes U as a map x -> U(x) and moves a config only
    # through its public methods, so it imports no private name of solitons
    tree = ast.parse((SRC / "numerics.py").read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "solitons"
        for alias in node.names
    ]
    assert names and [n for n in names if n.startswith("_")] == []


def test_no_point_or_grid_branches():
    # a point is a grid of shape (), so no module asks "point or grid?".
    # Results take x's shape through elementwise operations, and only the
    # tau cores of solitons flatten x (solitons._points)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in ("atleast_1d", "ndim")
            ):
                found.append(f"{path.name}:{node.lineno} np.{node.attr}")
    assert found == []


#: the modules of the jet path: tau jets, tail and overlap matrices,
#: Wronskians and the identity checks
JET_PATH = ("jets.py", "solitons.py", "transforms.py", "identities.py")


def _is_point_iteration(node) -> bool:
    """node is x.tolist() or np.ravel(...): the points of an array as a
    Python sequence."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    f = node.func
    return f.attr == "tolist" or (isinstance(f.value, ast.Name) and f.value.id in ("np", "numpy") and f.attr == "ravel")


def test_no_per_point_loops_on_the_jet_path():
    # jets act on whole arrays, a matrix of them is one jet with leading
    # matrix axes and exponentials are numpy's, so no comprehension of the
    # jet path walks the points of an array one by one
    found = []
    for name in JET_PATH:
        for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                found += [f"{name}:{node.lineno}" for gen in node.generators if _is_point_iteration(gen.iter)]
    assert found == []


def test_index_sets_built_in_one_place():
    # a set of state indices is built and checked by solitons._index_set
    # alone, so no module sorts a set of indices of its own
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "solitons.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sorted"
                and node.args
                and (
                    isinstance(node.args[0], (ast.Set, ast.SetComp))
                    or isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "set"
                )
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
