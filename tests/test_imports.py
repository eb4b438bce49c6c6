"""Module structure of the package: every import is at module level, so
the dependency order of the modules is visible and acyclic."""
import ast
from pathlib import Path

import sphdiv

SRC = Path(sphdiv.__file__).parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_import_inside_a_function():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_lunatypes_does_not_import_anticanon():
    imported = {node.module for node in ast.walk(_tree(SRC / "lunatypes.py"))
                if isinstance(node, ast.ImportFrom)}
    assert "anticanon" not in imported
