"""Every demo script, the README's library quick start and the benchmark's
check selftest run to completion against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
