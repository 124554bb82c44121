"""Smoke test of the command-line scripts: each runs in a fresh
interpreter with the package on its path and exits 0, and rejects an
out-of-range argument with a usage error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, args):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT / "src", env=env, capture_output=True, text=True,
        timeout=300)


@pytest.mark.parametrize("script, args", [
    ("nogo_restart_stats.py", ["--restarts", "2", "--csv", "{tmp}/r.csv"]),
    ("export_tables.py", ["--nmin", "2", "--nmax", "2", "--out", "{tmp}"]),
    ("run_all_suites.py", ["--nmax", "2", "--out", "{tmp}"]),
])
def test_script_runs(script, args, tmp_path):
    out = _run(script, [a.format(tmp=tmp_path) for a in args])
    assert out.returncode == 0, out.stderr
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize("nmax", ["1", "7"])
def test_run_all_suites_rejects_nmax(nmax, tmp_path):
    """A field count outside 2..6 is a usage error before any suite runs:
    nothing is written."""
    out = _run("run_all_suites.py", ["--nmax", nmax, "--out", str(tmp_path)])
    assert out.returncode == 2
    assert "--nmax" in out.stderr
    assert not any(tmp_path.iterdir())
