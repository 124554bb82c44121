"""The benchmark's traced round wraps package functions by name
(`bench/tracing.py`, `LAYERS`).  Every name it wraps must exist, or the
traced round breaks while the rest of the suite still passes."""

import importlib
import importlib.util
import os

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
