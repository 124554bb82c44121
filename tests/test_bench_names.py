"""The benchmark's traced round wraps package functions by name
(`bench/tracing.py`, `LAYERS`).  Every name it wraps must exist, or the
traced round breaks while the rest of the suite still passes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from loopbrackets import models

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_layer_functions_exist():
    tracing = _tracing()
    names = [(modname, fname) for _, modname, fnames in tracing.LAYERS
             for fname in fnames]
    assert names
    for modname, fname in names:
        mod = importlib.import_module(f"loopbrackets.{modname}")
        assert callable(getattr(mod, fname, None)), f"{modname}.{fname}"
    for modname in tracing._PACKAGE_MODULES:
        importlib.import_module(f"loopbrackets.{modname}")


def test_traced_residual_method_exists():
    assert callable(getattr(models.NoGoSystem, "residual_vector", None))


_TRACED_ROUND = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from loopbrackets import verify
tracer = tracing.Tracer()
tracing.install(tracer)
rep = verify.run_poisson_suite(n=2)
print(json.dumps({"passed": rep.passed,
                  "metrics": {k: v[0] for k, v in tracer.metrics().items()}}))
"""

_TRACED_TABLES = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
inp = {"ns": (2,)}
ops = workloads.tables_verdicts(inp, workloads.tables_calls(inp))
print(json.dumps({"passed": not any(op.failed for op in ops),
                  "metrics": {k: v[0] for k, v in tracer.metrics().items()}}))
"""


def _traced(script: str) -> dict:
    """Run `script` in a fresh process with the package and bench/ on
    its path; its last output line, as JSON."""
    src = os.path.dirname(os.path.dirname(models.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, src, os.path.join(ROOT, "bench")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_poisson_round():
    """The wrappers still fit the call shapes: a traced n = 2 Poisson
    round passes and every delta-calculus layer records calls."""
    out = _traced(_TRACED_ROUND)
    assert out["passed"]
    layers = [layer for layer, _, _ in _tracing().LAYERS
              if layer.startswith("distcalc.")]
    assert len(layers) == 5
    for layer in layers:
        assert out["metrics"][f"{layer}.calls"] > 0, layer
    assert out["metrics"]["distcalc.leibniz.distinct"] > 0


def test_traced_tables_round():
    """A traced n = 2 tables round passes its checks and records calls on
    both derivations, the route match and the documents."""
    out = _traced(_TRACED_TABLES)
    assert out["passed"]
    for layer in ("models.extract", "models.appendix", "models.match",
                  "models.document"):
        assert out["metrics"][f"{layer}.calls"] > 0, layer
