"""Spans and counters around the public functions of loopbrackets,
installed from outside the package by replacing module attributes.

Every wrapped call records a span (name, start, end, parent) in memory.
A span's self time is its duration minus the time covered by the wrapped
calls it made.  Counters are taken at the same boundaries.  Nothing here
edits the package's source; `install` patches the imported modules of one
process, and `metrics` / `write` read the result when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

_clock = time.perf_counter_ns

# (layer, module, function names).  One layer may cover several functions.
LAYERS = (
    ("elliptic.context", "elliptic", ("make_context",)),
    ("elliptic.eval", "elliptic",
     ("wp", "wp_z", "wp_zz", "zeta", "sigma", "wp_tau", "zeta_tau",
      "log_sigma_tau", "log_sigma_tau2", "g_tau_derivatives")),
    ("elliptic.oracle", "elliptic", ("lattice_oracle", "eisenstein_oracle")),
    ("symexpr.dx", "symexpr",
     ("total_x_derivative", "d_dtau_scaled", "d_dz_spectral")),
    ("symexpr.evaluate", "symexpr", ("evaluate",)),
    ("symexpr.sample_jets", "symexpr", ("sample_jets",)),
    ("distcalc.canonicalize", "distcalc", ("canonicalize",)),
    ("distcalc.leibniz", "distcalc", ("leibniz_bracket",)),
    ("distcalc.jacobi", "distcalc", ("jacobi_defect",)),
    ("distcalc.bracket_of_functions", "distcalc", ("bracket_of_functions",)),
    ("distcalc.change_coordinates", "distcalc", ("change_coordinates",)),
    ("models.extract", "models", ("thm3_extract",)),
    ("models.appendix", "models", ("appendix_table",)),
    ("models.match", "models", ("match_structconsts",)),
    ("models.document", "models", ("structconsts_to_document",)),
    ("models.descend", "models", ("lemma1_descend",)),
    ("models.nogo_build", "models", ("prop1_system",)),
    ("models.nogo_solve", "models", ("prop1_certificate",)),
    ("models.thm2", "models",
     ("thm2_realization", "thm2_bracket_residual",
      "thm2_modular_row_residual")),
    ("verify", "verify",
     ("run_identity_suite", "run_oracle_suite", "run_poisson_suite",
      "run_thm2_suite", "run_nogo_suite")),
)

_SERIES_FUNCTIONS = ("wp", "wp_z", "zeta", "sigma")
_PACKAGE_MODULES = ("elliptic", "symexpr", "distcalc", "models", "verify",
                    "cli")

# Counters reported besides <layer>.calls and <layer>.self_s.
COUNTERS = ("elliptic.series_terms", "distcalc.raw_terms",
            "distcalc.canonical_terms", "distcalc.rings_built",
            "distcalc.leibniz.distinct", "distcalc.jacobi.nonzero",
            "symexpr.lambdify.calls", "models.nogo.residual_calls",
            "models.nogo.lm_nfev", "models.nogo.lm_njev")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one row per span: name id, start ns, end ns, parent row (-1: root)
        self.spans: list[list[int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [row, layer, child_ns]
        self._leibniz_keys: set = set()
        self._tables: dict[int, object] = {}

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def span(self, layer: str, fn):
        """Wrap `fn` so that every call records a span of `layer`."""
        nid = self._nid(layer)
        spans, stack = self.spans, self._stack
        calls, self_ns = self.calls, self.self_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(spans)
            parent = stack[-1][0] if stack else -1
            rec = [nid, _clock(), 0, parent]
            spans.append(rec)
            frame = [row, layer, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                rec[2] = end
                stack.pop()
                dur = end - rec[1]
                calls[layer] += 1
                self_ns[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
        return wrapper

    def note_leibniz(self, table, a, E):
        self._tables[id(table)] = table  # keep ids unique for the run
        self._leibniz_keys.add((id(table), a, E))
        self.counts["distcalc.leibniz.distinct"] = len(self._leibniz_keys)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}.calls"] = (self.calls.get(layer, 0), "count")
            out[f"{layer}.self_s"] = (self.self_ns.get(layer, 0) / 1e9, "s")
        for name in COUNTERS:
            out[name] = (self.counts.get(name, 0), "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path: str):
        """Spans as columns: names, then one [name, start_ns, end_ns,
        parent] row per span, gzip-compressed JSON."""
        doc = {"names": self.names, "columns": ["name", "start_ns", "end_ns",
                                                "parent"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _replace_everywhere(pkg_modules, original, replacement):
    for mod in pkg_modules:
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer):
    """Wrap the layer functions of the imported package, plus the counters
    that read arguments and results at those boundaries."""
    import importlib

    import scipy.optimize
    import sympy

    mods = {name: importlib.import_module(f"loopbrackets.{name}")
            for name in _PACKAGE_MODULES}
    pkg = list(mods.values())
    counts = tracer.counts

    for layer, modname, fnames in LAYERS:
        mod = mods[modname]
        for fname in fnames:
            orig = getattr(mod, fname)
            inner = orig
            if modname == "elliptic" and fname in _SERIES_FUNCTIONS:
                inner = _count_series(orig, counts)
            elif fname == "canonicalize":
                inner = _count_terms(orig, counts)
            elif fname == "leibniz_bracket":
                inner = _note_leibniz(orig, tracer)
            elif fname == "jacobi_defect":
                inner = _count_nonzero(orig, counts)
            _replace_everywhere(pkg, orig, tracer.span(layer, inner))

    # sympy.ring / sympy.field, counted when a distcalc span is innermost
    for attr in ("ring", "field"):
        orig = getattr(sympy, attr)
        setattr(sympy, attr, _count_rings(orig, tracer))

    orig_lambdify = sympy.lambdify

    @functools.wraps(orig_lambdify)
    def lambdify(*args, **kwargs):
        counts["symexpr.lambdify.calls"] += 1
        return orig_lambdify(*args, **kwargs)
    sympy.lambdify = lambdify

    nogo = mods["models"].NoGoSystem
    orig_resid = nogo.residual_vector

    @functools.wraps(orig_resid)
    def residual_vector(self, vec):
        counts["models.nogo.residual_calls"] += 1
        return orig_resid(self, vec)
    nogo.residual_vector = residual_vector

    # prop1_certificate imports least_squares from scipy.optimize per call
    orig_lsq = scipy.optimize.least_squares

    @functools.wraps(orig_lsq)
    def least_squares(*args, **kwargs):
        res = orig_lsq(*args, **kwargs)
        counts["models.nogo.lm_nfev"] += int(res.nfev or 0)
        counts["models.nogo.lm_njev"] += int(res.njev or 0)
        return res
    scipy.optimize.least_squares = least_squares


def _count_series(fn, counts):
    @functools.wraps(fn)
    def inner(ctx, *args, **kwargs):
        counts["elliptic.series_terms"] += ctx.series_truncation
        return fn(ctx, *args, **kwargs)
    return inner


def _count_terms(fn, counts):
    @functools.wraps(fn)
    def inner(raw_terms, *args, **kwargs):
        raw_terms = list(raw_terms)
        counts["distcalc.raw_terms"] += len(raw_terms)
        out = fn(raw_terms, *args, **kwargs)
        counts["distcalc.canonical_terms"] += len(out.terms)
        return out
    return inner


def _note_leibniz(fn, tracer):
    @functools.wraps(fn)
    def inner(table, a, E):
        tracer.note_leibniz(table, a, E)
        return fn(table, a, E)
    return inner


def _count_nonzero(fn, counts):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        out = fn(*args, **kwargs)
        if not out.is_zero():
            counts["distcalc.jacobi.nonzero"] += 1
        return out
    return inner


def _count_rings(fn, tracer):
    counts = tracer.counts

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        layer = tracer.innermost()
        if layer is not None and layer.startswith("distcalc."):
            counts["distcalc.rings_built"] += 1
        return fn(*args, **kwargs)
    return inner
