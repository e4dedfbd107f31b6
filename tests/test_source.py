"""Rules over the package source as a whole."""

import ast
import re
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


def _names_from_delmatch(source: str, filename: str) -> set:
    """Every name imported by `from delmatch import ...` in source."""
    return {alias.name for node in ast.walk(ast.parse(source, filename))
            if isinstance(node, ast.ImportFrom) and node.module == "delmatch"
            for alias in node.names}


def test_package_exports_exactly_the_names_its_users_import():
    # a name stays in the package namespace only while a demo, the README
    # quick start or perfbench imports it from there
    root = PACKAGE.parents[1]
    used = set()
    for path in sorted(root.glob("demos/*.py")) + sorted(root.glob("perfbench/*.py")):
        used |= _names_from_delmatch(path.read_text(), str(path))
    readme = (root / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block under 'Library quick start'"
    used |= _names_from_delmatch(block.group(1), "README.md")
    init = PACKAGE / "__init__.py"
    exported = {alias.name for node in ast.parse(init.read_text(), str(init)).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert (sorted(exported - used), sorted(used - exported)) == ([], [])


def test_readme_config_keys_are_the_keys_the_cli_reads():
    # the README's key list is every key cli.py reads through _get, and no other
    cli = PACKAGE / "cli.py"
    read = {node.args[2].value for node in ast.walk(ast.parse(cli.read_text(), str(cli)))
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_get"}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    listed = re.search(r"Keys\s+mirror the flag names:(.*?)\.\s", readme, re.S)
    assert listed, "README lists no config keys"
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(read)
