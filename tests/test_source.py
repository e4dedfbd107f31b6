"""Rules over the package source as a whole."""

import ast
import json
import os
import re
import subprocess
import sys
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


# numpy routines that OpenBLAS computes on float arrays
_BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot", "linalg"}


def _uses_blas(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in _BLAS_NAMES
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(_BLAS_NAMES & set(alias.name.split(".")) for alias in node.names)
    return False


def test_no_blas_backed_call_in_package():
    # The package loads numpy with a one-thread OpenBLAS, which costs nothing
    # only while no code calls into BLAS. The one dot allowed is on the uint64
    # column keys of model._column_ids, which numpy computes without BLAS.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(node) for func in ast.walk(tree) if path.name == "model.py"
                   and isinstance(func, ast.FunctionDef) and func.name == "_column_ids"
                   for node in ast.walk(func)
                   if isinstance(node, ast.Attribute) and node.attr == "dot"}
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}" for node in ast.walk(tree)
                  if _uses_blas(node) and id(node) not in allowed]
    assert found == []


def _after_import(openblas_threads):
    """Import delmatch in a fresh interpreter whose OPENBLAS_NUM_THREADS is
    openblas_threads (None: unset). Return its OS thread count then (None
    without /proc/self/task) and its OPENBLAS_NUM_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import json, os, delmatch\n"
            "task = '/proc/self/task'\n"
            "print(json.dumps([len(os.listdir(task)) if os.path.isdir(task) else None,\n"
            "                  os.environ.get('OPENBLAS_NUM_THREADS')]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_starts_no_openblas_thread_and_leaves_the_environment():
    threads, variable = _after_import(None)
    assert variable is None
    # on one CPU OpenBLAS starts no worker anyway, so the count shows nothing
    if threads is not None and os.cpu_count() > 1:
        assert threads == 1


def test_import_keeps_the_users_openblas_threads():
    assert _after_import("3")[1] == "3"


def test_cli_import_loads_no_process_pool():
    # the sweeps fork their own workers, so no process loads an executor,
    # nor the socket, logging and subprocess modules multiprocessing brings
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    code = ("import json, sys, delmatch.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] in ('concurrent', 'multiprocessing'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


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
    # the README's key list is the CLI's key table, and the table holds
    # exactly the keys some command reads
    from delmatch import cli
    assert set(cli.KEYS) == {key for keys in cli.READS.values() for key in keys} | {"out"}
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    listed = re.search(r"Keys\s+mirror the flag names:(.*?)\.\s", readme, re.S)
    assert listed, "README lists no config keys"
    assert sorted(re.findall(r"`([^`]+)`", listed.group(1))) == sorted(cli.KEYS)


def test_readme_synopsis_names_each_commands_own_flags():
    # the CLI synopsis leaves out --config and --out, which every command
    # takes, and the sweeps' --trials, --seed and --threads, which the
    # paragraph after it names
    from delmatch import cli
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n+```\n(.*?)```", readme, re.S)
    assert block, "README has no CLI synopsis"
    named = {}
    for line in block.group(1).splitlines():
        if line.startswith("delmatch "):
            command = line.split()[1]
        named.setdefault(command, set()).update(re.findall(r"--([\w-]+)", line))
    trio = {"trials", "seed", "threads"}
    assert named == {command: {key.replace("_", "-") for key in keys
                               if command not in cli.SWEEPS or key not in trio}
                     for command, keys in cli.READS.items()}


def test_failing_property_fails_only_itself(tmp_path):
    # Hypothesis reports a failure through a module whose import raises a
    # DeprecationWarning; under the suite's warnings-as-errors that must not
    # become an internal error that stops the run after the first failure.
    (tmp_path / "test_tool.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property(x):\n    assert x < 5\n\n\n"
        "def test_passes():\n    pass\n\n\n"
        "def test_fails():\n    assert False\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c",
                           str(PACKAGE.parents[1] / "pyproject.toml"), "--rootdir", ".",
                           "-p", "no:cacheprovider", "test_tool.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_tool.py::test_property" in proc.stdout
    assert "2 failed, 1 passed" in proc.stdout
