"""Rules over the package source as a whole."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "delmatch"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check may rest on one
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
