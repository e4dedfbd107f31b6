"""Every demo script, the README's library quick start and the benchmark's
check selftest run to completion against the current package, and each demo
prints its pinned output (see test_pinned_outputs.py)."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout; a change made on purpose updates it here.
DEMO_STDOUT_SHA256 = {
    "deletion_detection.py": "5e19a7509854364152265d8389a62be5a244af8cf09988f4a011965a8ef5e09e",
    "matching_experiment.py": "70a76aaf554004ac43415ba62bdb14e58364f0fc2d328054de2e6d8c7b9b9936",
    "rate_curves.py": "b8911af2347e19bd62059b0f356b6ebb97d34262f807697a779736788ee76dd4",
    "seeded_pipeline.py": "ca8aa72b863b8b747538e7e9ce7127f8b80e658712c4c3895916a3dc56bfea90",
}


def _run(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    got = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert got == DEMO_STDOUT_SHA256[demo.name], (
        f"{demo.name}: stdout sha256 {got}, pinned {DEMO_STDOUT_SHA256[demo.name]} "
        f"(numpy {np.__version__})")


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S)
    assert block, "README has no python block under 'Library quick start'"
    script = tmp_path / "quick_start.py"
    script.write_text(block.group(1))
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_selftest_passes():
    # The benchmark replays sweeps through library names (MatcherConfig,
    # MatchStatus, match_all, detect_f, ...); a change that breaks one of
    # them fails here rather than in every benchmark run.
    proc = _run(ROOT / "perfbench" / "selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("selftest: all checks behave")
