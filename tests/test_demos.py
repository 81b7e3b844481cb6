"""Each narrative demo, and the README's library tour, runs to completion as a script."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(script, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    # a numpy overflow, divide-by-zero or invalid operation fails the script
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    done = run_script(demo, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_tour_exits_zero(tmp_path):
    # the tour is the README's one python block
    (tour,) = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    script = tmp_path / "tour.py"
    script.write_text(tour)
    done = run_script(script, tmp_path)
    assert done.returncode == 0, done.stderr[-2000:]
