from __future__ import annotations

import ast
from pathlib import Path

import rcaudit

PACKAGE = Path(rcaudit.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library control flow must
    # not depend on them
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
