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
