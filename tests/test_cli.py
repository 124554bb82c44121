"""Command-line surface: flag parsing, output formats, exit codes, seed
handling, and atomic JSON artifacts."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from loopbrackets import cli, elliptic, verify


def run_cli(argv):
    return cli.main(argv)


class TestComplexParsing:
    @pytest.mark.parametrize("text,val", [
        ("1.5", 1.5 + 0j),
        ("2i", 2j),
        ("i", 1j),
        ("-i", -1j),
        ("0.3+1.2i", 0.3 + 1.2j),
        ("-0.25-2i", -0.25 - 2j),
        ("1e-3+2.5e2i", 1e-3 + 250j),
        ("1000i", 1000j),
        ("1e5+i", 1e5 + 1j),
        ("+i", 1j),
        ("1+2i", 1 + 2j),
        ("1e+5i", 1e5j),
        ("1_000i", 1000j),
        ("infi", complex(0.0, math.inf)),
    ])
    def test_examples(self, text, val):
        assert cli.parse_complex(text) == val

    @pytest.mark.parametrize("text", ["", "abc", "1+2j", "++i", "2+-3i",
                                      "(1+2)i", "1+2ii", "1--2i", "j"])
    def test_rejects(self, text):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex(text)

    @settings(max_examples=50, deadline=None)
    @given(st.complex_numbers(allow_nan=False, allow_infinity=False,
                              max_magnitude=1e6))
    def test_format_roundtrip(self, z):
        back = cli.parse_complex(cli.format_complex(z))
        assert abs(back - z) <= 1e-9 * max(1.0, abs(z))


class TestEllipticCommand:
    def test_g3_documented_value(self, capsys):
        assert run_cli(["elliptic", "eval", "--fn", "g3",
                        "--tau", "1000i"]) == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 284.856057356) < 1e-6

    def test_wp_matches_library(self, capsys, ctx):
        assert run_cli(["elliptic", "eval", "--fn", "wp",
                        "--z", "0.31+0.17i", "--tau", "0.21+1.3i"]) == 0
        out = capsys.readouterr().out.strip()
        want = elliptic.wp(ctx, 0.31 + 0.17j)
        assert abs(cli.parse_complex(out) - want) < 1e-9 * max(1.0, abs(want))

    def test_q_requires_v(self, capsys):
        assert run_cli(["elliptic", "eval", "--fn", "q",
                        "--z", "0.2", "--tau", "1.1i"]) == 2

    def test_z_required(self, capsys):
        assert run_cli(["elliptic", "eval", "--fn", "wp",
                        "--tau", "1.1i"]) == 2

    def test_domain_error_exit_code(self, capsys):
        assert run_cli(["elliptic", "eval", "--fn", "wp",
                        "--z", "0.3", "--tau", "-1.1i"]) == 2

    def test_nome_rounding_to_one(self, capsys):
        """|q| rounds to 1 at Im tau = 1e-300: a ConvergenceError, exit 2
        with one error line, no traceback."""
        assert run_cli(["elliptic", "eval", "--fn", "wp",
                        "--tau", "1e-9+1e-300i", "--z", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fn, z, tau", [
        ("wp", "inf", "1i"), ("zeta", "nan", "1i"), ("sigma", "1+infi", "1i"),
        ("wp", "0.3", "inf+1i"), ("wp", "0.3", "1e308+1i")])
    def test_non_finite_argument(self, fn, z, tau, capsys):
        """A non-finite z, or a tau whose nome cannot be formed, is a
        domain error: exit 2 with one error line, no traceback."""
        assert run_cli(["elliptic", "eval", "--fn", fn,
                        "--z", z, "--tau", tau]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err

    def test_underflowed_series(self, capsys):
        """exp(2 pi i z) underflows at Im z = 200: the value is the leading
        term -pi^2/3, not a traceback."""
        assert run_cli(["elliptic", "eval", "--fn", "wp",
                        "--z", "0.3+200i", "--tau", "1000i"]) == 0
        out = cli.parse_complex(capsys.readouterr().out.strip())
        assert abs(out + math.pi ** 2 / 3) < 1e-9


class TestUsageErrors:
    def test_no_command(self):
        assert run_cli([]) == 2

    def test_unknown_choice(self):
        assert run_cli(["verify", "nonsense"]) == 2


class TestVerifyCommand:
    def test_cp2_pass_exit_zero(self, capsys):
        assert run_cli(["verify", "cp2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suite"] == "cp2" and doc["passed"]

    def test_identity_fail_exit_one(self, capsys):
        assert run_cli(["verify", "identities", "--trials", "5",
                        "--tol", "1e-300"]) == 1

    def test_zero_tolerance_honoured(self, capsys):
        assert run_cli(["verify", "identities", "--trials", "5",
                        "--tol", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["params"]["tol"] == 0

    def test_zero_tolerance_exact_checks_pass(self, capsys):
        # defects that vanish identically have residual 0.0, which no
        # tolerance can fail; the flipped-sign control still fires
        assert run_cli(["verify", "poisson", "--n", "2", "--tol", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["tol"] == 0
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "NaN", "x"])
    def test_bad_tolerance_usage_error(self, tol, monkeypatch, capsys):
        seen = self._record(monkeypatch, "prop2")
        assert run_cli(["verify", "prop2", "--tol", tol]) == 2
        assert not seen and "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["oracle", "prop2"])
    def test_all_suites_reachable(self, suite, capsys):
        assert run_cli(["verify", suite]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["suite"] == suite and doc["passed"]

    # suite -> (its sample-count keyword, the count the CLI passes
    # without --trials; None: the suite's own default)
    SAMPLE_COUNTS = {"identities": ("trials", 100), "thm2": ("trials", 100),
                     "oracle": ("points", None), "poisson": ("jets", None)}

    def _record(self, monkeypatch, suite):
        seen = {}
        fn = f"run_{'identity' if suite == 'identities' else suite}_suite"

        def fake(**kwargs):
            seen.update(kwargs)
            return verify.SuiteReport(suite=suite, seed=0, params={})
        monkeypatch.setattr(verify, fn, fake)
        return seen

    @pytest.mark.parametrize("suite", sorted(SAMPLE_COUNTS))
    def test_trials_reaches_sample_count(self, suite, monkeypatch, capsys):
        key, default = self.SAMPLE_COUNTS[suite]
        seen = self._record(monkeypatch, suite)
        assert run_cli(["verify", suite, "--trials", "7"]) == 0
        assert seen[key] == 7
        seen.clear()
        assert run_cli(["verify", suite]) == 0
        assert seen.get(key) == default

    @pytest.mark.parametrize("suite", ["prop2", "nogo", "cp2"])
    def test_trials_usage_error(self, suite, monkeypatch, capsys):
        seen = self._record(monkeypatch, suite)
        assert run_cli(["verify", suite, "--trials", "3"]) == 2
        assert not seen and "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", sorted(SAMPLE_COUNTS))
    def test_zero_trials_usage_error(self, suite, capsys):
        assert run_cli(["verify", suite, "--trials", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_nogo_without_restarts_usage_error(self, restarts, capsys):
        assert run_cli(["verify", "nogo", "--restarts", restarts]) == 2
        captured = capsys.readouterr()
        assert "restarts must be >= 1" in captured.err
        assert not captured.out

    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_nogo_non_finite_s(self, s, capsys):
        assert run_cli(["verify", "nogo", "--s", s, "--restarts", "1"]) == 2
        assert f"parameter s = ({s}+0j) is not finite" in \
            capsys.readouterr().err

    def test_oracle_points_from_trials(self, capsys):
        assert run_cli(["verify", "oracle", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["points"] == 1

    def test_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert run_cli(["verify", "cp2", "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["passed"]

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("LOOPB_SEED", "777")
        assert run_cli(["verify", "identities", "--trials", "5",
                        "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert "effective seed: 777" in captured.err
        assert json.loads(captured.out)["seed"] == 777


class TestTableCommand:
    def test_byte_identical_sources(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["table", "--n", "2", "--source", "extract",
                        "--out", str(pa)]) == 0
        assert run_cli(["table", "--n", "2", "--source", "appendix",
                        "--out", str(pb)]) == 0
        da, db = json.loads(pa.read_text()), json.loads(pb.read_text())
        assert da.pop("generator") != db.pop("generator")
        assert da == db
        # and modulo the generator stamp the payloads are byte-identical
        ta = pa.read_text().replace(json.dumps(
            json.loads(pa.read_text())["generator"]), '""')
        tb = pb.read_text().replace(json.dumps(
            json.loads(pb.read_text())["generator"]), '""')
        assert ta == tb

    def test_stdout(self, capsys):
        assert run_cli(["table", "--n", "2", "--source", "appendix"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2 and doc["fields"][0] == "tau"


class TestDescendCommand:
    def test_json_shape(self, capsys):
        assert run_cli(["descend", "--n", "2",
                        "--denominator", "z2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fields"] == ["p0"]
        entry = next(e for e in doc["entries"]
                     if e["a"] == "p0" and e["b"] == "p0")
        assert {t["order"] for t in entry["terms"]} == {0, 1}

    def test_bad_denominator(self, capsys):
        assert run_cli(["descend", "--n", "2",
                        "--denominator", "z9"]) == 2

    def test_modular_denominator(self, capsys):
        assert run_cli(["descend", "--n", "4",
                        "--denominator", "th"]) == 2
        err = capsys.readouterr().err
        assert "modular field th is no projective coordinate" in err
        assert "Traceback" not in err


class TestEntryPoint:
    def test_installed_script(self):
        """Run the CLI as its own process: the installed `loopb` script when
        it is on PATH, else `python -m loopbrackets` on the code this test
        imported, with the declared `[project.scripts]` entry checked."""
        script = shutil.which("loopb")
        if script:
            cmd, env = [script], None
        else:
            tomllib = pytest.importorskip("tomllib")
            root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
                scripts = tomllib.load(fh)["project"]["scripts"]
            assert scripts["loopb"] == "loopbrackets.cli:main"
            src = os.path.dirname(os.path.dirname(cli.__file__))
            path = filter(None, [src, os.environ.get("PYTHONPATH")])
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
            cmd = [sys.executable, "-m", "loopbrackets"]
        out = subprocess.run(
            cmd + ["elliptic", "eval", "--fn", "g2", "--tau", "1.3i"],
            capture_output=True, text=True, timeout=120, env=env)
        assert out.returncode == 0, out.stderr
        assert abs(cli.parse_complex(out.stdout.strip())
                   - elliptic.make_context(1.3j).g2) < 1e-6
        bad = subprocess.run(cmd + ["verify", "nonsense"],
                             capture_output=True, text=True, timeout=120,
                             env=env)
        assert bad.returncode == 2, bad.stderr
