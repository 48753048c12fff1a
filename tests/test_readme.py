import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs():
    # the example names the public API, so a removed or renamed name fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None, "README has no python block under ## Library"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", block.group(1)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
