"""Every demo script, and the README's library example, runs to completion
as the README advertises."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library code block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    generate = [sys.executable, "-m", "netcontrol", "generate", "--model",
                "sf", "-n", "2000", "-k", "10", "--seed", "0", "-o", "net.txt"]
    subprocess.run(generate, cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=120)
    proc = subprocess.run([sys.executable, "-c", block.group(1)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
