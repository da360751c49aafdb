import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_quick_start_runs():
    # the README's python quick-start block, as a reader would paste it,
    # with a RuntimeWarning failing the run as it fails the suite
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", block],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == block.count("print(")
