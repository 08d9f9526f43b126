"""Every demo script, and README's library snippet, runs to completion with warnings as errors.

Each demo runs from a copy in a temporary directory, because
02_heralding_sweep.py writes its CSV next to the script.  The snippet is
the ```python block under README's "## Library", so the documented API
cannot drift from the package.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _run(script, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    result = _run(shutil.copy(demo, tmp_path), tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_library_snippet_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (snippet,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    script = tmp_path / "readme_library.py"
    script.write_text(snippet)
    result = _run(script, tmp_path)
    assert result.returncode == 0, result.stderr
