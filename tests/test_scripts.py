"""Smoke test of the command-line scripts: each runs in a fresh
interpreter with the package on its path and exits 0, and rejects an
out-of-range argument with a usage error.  The field-count range is
checked in this process, with the first derivation stubbed out."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from loopbrackets import models, verify

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


def test_nogo_restart_stats_prints_evaluations():
    out = _run("nogo_restart_stats.py", ["--restarts", "3"])
    assert out.returncode == 0, out.stderr
    got = re.search(r"^solver evaluations over 3 restarts: (\d+) residual, "
                    r"(\d+) Jacobian$", out.stdout, re.MULTILINE)
    nfev, njev = int(got[1]), int(got[2])
    assert 3 <= njev <= nfev <= 3 * 400


@pytest.mark.parametrize("nmax", ["1", "7"])
def test_run_all_suites_rejects_nmax(nmax, tmp_path):
    """A field count outside 2..6 is a usage error before any suite runs:
    nothing is written."""
    out = _run("run_all_suites.py", ["--nmax", nmax, "--out", str(tmp_path)])
    assert out.returncode == 2
    assert "--nmax" in out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, flag", [
    (["--nmin", "1"], "--nmin"), (["--nmax", "7"], "--nmax"),
    (["--nmin", "4", "--nmax", "3"], "--nmin")])
def test_export_tables_rejects_range(args, flag, tmp_path):
    """n outside 2..6, or an empty range, is a usage error before any
    table is derived: nothing is written."""
    out = _run("export_tables.py", [*args, "--out", str(tmp_path)])
    assert out.returncode == 2
    assert flag in out.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("restarts", ["0", "-3"])
def test_nogo_restart_stats_rejects_restarts(restarts, tmp_path):
    """Fewer than one restart is a usage error before the system is
    built: nothing is printed and no CSV is written."""
    csv = tmp_path / "r.csv"
    out = _run("nogo_restart_stats.py",
               ["--restarts", restarts, "--csv", str(csv)])
    assert out.returncode == 2
    assert "--restarts" in out.stderr and "Traceback" not in out.stderr
    assert out.stdout == "" and not csv.exists()


class _Reached(Exception):
    """Raised by a stub of the first derivation a run would start."""


def _reached(*args, **kwargs):
    raise _Reached


def _accepts(call) -> bool:
    """True when call() gets past its argument checks to the stub, False
    when it refuses them (a DomainError, or a usage error with exit 2)."""
    try:
        call()
    except _Reached:
        return True
    except models.DomainError:
        return False
    except SystemExit as e:
        assert e.code == 2
        return False
    raise AssertionError("neither refused nor reached the stub")


def _script_main(script, argv, monkeypatch):
    """The main of a script, loaded in this process, with argv set."""
    spec = importlib.util.spec_from_file_location(
        script.removesuffix(".py"), ROOT / "scripts" / script)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(sys, "argv", [script, *argv])
    return mod.main


@pytest.mark.parametrize("n", range(-1, 10))
def test_scripts_refuse_what_the_poisson_suite_refuses(n, tmp_path,
                                                       monkeypatch):
    """run_all_suites.py --nmax and export_tables.py --nmin, --nmax take
    exactly the field counts run_poisson_suite takes: with the first
    derivation of each run stubbed out, each accepts n or refuses it
    together with the suite."""
    monkeypatch.setattr(models, "thm3_extract", _reached)
    monkeypatch.setattr(verify, "run_identity_suite", _reached)
    suite = _accepts(lambda: verify.run_poisson_suite(n=n))
    assert suite == (2 <= n <= 6)
    for script, argv in (("run_all_suites.py", ["--nmax", str(n)]),
                         ("export_tables.py", ["--nmin", str(n)]),
                         ("export_tables.py", ["--nmax", str(n)])):
        main = _script_main(script, [*argv, "--out", str(tmp_path)],
                            monkeypatch)
        assert _accepts(main) == suite, (script, argv)


def test_run_all_suites_summary_holds_each_verdict(tmp_path, monkeypatch):
    """summary.json gives each suite the `passed` of the report written
    for it, failing suites too, and the run exits 1.  The suites are
    stubbed out, two of them failing."""
    failing = {"oracle", "thm2_n3"}

    def stub(suite):
        def run(n=None, seed=0):
            name = suite if n is None else f"{suite}_n{n}"
            check = verify.CheckRecord(name="stub",
                                       passed=name not in failing)
            return verify.SuiteReport(suite=name, seed=seed, params={},
                                      checks=[check])
        return run

    for fn, suite in (("identity", "identities"), ("oracle", "oracle"),
                      ("prop2", "prop2"), ("cp2", "cp2"), ("nogo", "nogo"),
                      ("thm2", "thm2"), ("poisson", "poisson")):
        monkeypatch.setattr(verify, f"run_{fn}_suite", stub(suite))
    main = _script_main("run_all_suites.py",
                        ["--nmax", "3", "--out", str(tmp_path)], monkeypatch)
    assert main() == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    reports = {p.stem: json.loads(p.read_text())["passed"]
               for p in tmp_path.glob("*.json") if p.stem != "summary"}
    assert summary["suites"] == reports
    assert {k for k, ok in reports.items() if not ok} == failing
    assert len(reports) == 9
