"""Smoke test: the quick demos and README's Quick start run to completion
against the library.

Demo 05 runs the whole pipeline and is covered by acceptance criterion 10.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_quick_demos_are_found():
    assert len(DEMOS) == 4


def _run_python(args, tmp_path):
    """Run the interpreter with *args* in *tmp_path*, src/ on its path."""
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = _run_python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    """The first python block of README.md runs as it stands."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
