"""Smoke test of the command-line scripts: each runs in a fresh
interpreter with the package on its path and exits 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("nogo_restart_stats.py", ["--restarts", "2", "--csv", "{tmp}/r.csv"]),
    ("export_tables.py", ["--nmin", "2", "--nmax", "2", "--out", "{tmp}"]),
    ("run_all_suites.py", ["--nmax", "2", "--out", "{tmp}"]),
])
def test_script_runs(script, args, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(tmp=tmp_path) for a in args)],
        cwd=ROOT / "src", env=env, capture_output=True, text=True,
        timeout=300)
    assert out.returncode == 0, out.stderr
    assert any(tmp_path.iterdir())
