"""Byte identity of exported documents.

The files under tests/data were written by the package before its delta
calculus moved from sympy expressions to one coefficient ring per table:
`loopb descend --n 3` in both affine charts and the Proposition 2 table
descended onto p1 = z1/z2 (rendered as the descend command renders).
`loopb verify poisson --n 2 --json` was rewritten, by that command, when
residuals came to be evaluated from ring elements instead of lambdified
expressions: the control's max_residual moved in its last digits
(31583.73749007927 -> 31583.73749007926, numpy sums in another order),
and every other byte stayed.  `loopb verify poisson --n 4 --json` was
written before the delta calculus moved from sympy's polynomial rings
to packed exponent vectors; its control's max_residual, a float sum
like the n = 2 one, pins the order in which the evaluator adds terms.
`loopb verify identities --trials 30 --json`
and `loopb verify thm2 --n 3 --trials 10 --json` were written before
the sigma realization came to evaluate each elliptic function once per
argument and the identity suite came to share its tau-step contexts.
`loopb verify prop2 --json` was written while the Proposition 2
identification still substituted, combined and solved on sympy
expressions, before it moved to a polynomial ring over QQ.
The `loopb table` documents (in full for n = 2, 3, as SHA-256 digests
for n = 2..6) were written before the two structure-constant
derivations moved to polynomial rings.  Every document must still come
out byte for byte the same.

`nogo_tensors_sha256.json` holds the SHA-256 of the no-go system's
arrays (c, A and the four coordinate arrays of B) at s = 2.0 and
s = 0.5+0.3i, written while the system was still read from sympy
expressions; reading it from ring elements must give the same bits.

`documents_sha256.json` holds the SHA-256 of the documents that earlier
changes compared by hand, keyed by their `loopb` arguments: the tables
for n = 7, 8, two descents and the `verify cp2` and `verify nogo`
reports, written while `models` still read packed monomials itself.

`elliptic_values.json` holds `float.hex` of g1, g2, g3 and of wp, wp_z,
zeta and sigma at fixed (tau, z), written while every series kernel
still formed its powers of q on each call: box tau, the benchmark
ladder's tau down to Im tau 0.0014, and tau far up the imaginary axis
with Im z out to near +-Im tau / 2, where (1 - x)**2 overflows for
|x| = |exp(2 pi i z)| past 1e154 and the kernels fall back on parity.

`closed_forms.json` holds `float.hex` of the four tau closed forms and
wp_zz at the cell points of box tau, the ladder and tau = 1000i, and of
the quasi-modular derivations at each tau, written while the numeric
layer and the symbolic rules each still wrote the derivative rules out
for themselves.  It pins the order of the operations: a reassociated
product moves the last bits (one by 2 or 4 does not: that scaling is
exact)."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loopbrackets import cli, elliptic, models
from loopbrackets import symexpr as sx
from loopbrackets.errors import LoopBracketsError

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _no_seed_override(monkeypatch):
    monkeypatch.delenv("LOOPB_SEED", raising=False)


@pytest.mark.parametrize("denominator", ["z0", "z3"])
def test_descend_n3(denominator, capsys):
    assert cli.main(["descend", "--n", "3",
                     "--denominator", denominator]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (DATA / f"descend_n3_{denominator}.json").read_bytes()


def test_prop2_descent():
    red = models.lemma1_descend(models.prop2_table(), "z2")
    doc = {
        "denominator": "z2",
        "fields": list(red.fields),
        "entries": [
            {"a": a, "b": b,
             "terms": [{"order": t.orders[0],
                        "coeff": sx.render(t.value, red.scale)}
                       for t in terms]}
            for (a, b), terms in sorted(red.entries.items())
        ],
    }
    got = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    assert got == (DATA / "descend_prop2_z2.json").read_bytes()


def test_verify_poisson_n2(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "poisson", "--n", "2",
                     "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify_poisson_n2.json").read_bytes()


def test_verify_poisson_n4(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "poisson", "--n", "4",
                     "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify_poisson_n4.json").read_bytes()


@pytest.mark.parametrize("args,golden", [
    (["identities", "--trials", "30"], "verify_identities.json"),
    (["thm2", "--n", "3", "--trials", "10"], "verify_thm2_n3.json"),
])
def test_verify_elliptic_report(args, golden, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", *args, "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_verify_prop2(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["verify", "prop2", "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify_prop2.json").read_bytes()


@pytest.mark.parametrize("source", ["extract", "appendix"])
@pytest.mark.parametrize("n", [2, 3])
def test_table(n, source, capsys):
    assert cli.main(["table", "--n", str(n), "--source", source]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (DATA / f"table_n{n}_{source}.json").read_bytes()


def test_table_digests(capsys):
    want = json.loads((DATA / "tables_sha256.json").read_text())
    got = {}
    for key in want:
        n, source = key.split("/")
        assert cli.main(["table", "--n", n, "--source", source]) == 0
        got[key] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert got == want


@pytest.mark.parametrize("s", ["2.0", "0.5+0.3j"])
def test_nogo_tensors(s):
    want = json.loads((DATA / "nogo_tensors_sha256.json").read_text())[s]
    sysm = models.prop1_system(complex(s) if "j" in s else float(s))
    arrays = dict(zip(("c", "A", "rows", "i", "j", "vals"),
                      (sysm.c, sysm.A, *sysm.quad)))
    got = {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
           for name, a in arrays.items()}
    everything = hashlib.sha256()
    for a in arrays.values():
        everything.update(np.ascontiguousarray(a).tobytes())
    got["all"] = everything.hexdigest()
    assert got == want


def test_document_digests(tmp_path, capsys):
    """Each document of `documents_sha256.json`: what its command prints,
    or the file its `--json` writes.  The no-go report is written by a
    fresh process, since its self-test minimum may move in the last
    digits with what ran before it in one process."""
    want = json.loads((DATA / "documents_sha256.json").read_text())
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    got = {}
    for args in want:
        out = tmp_path / "report.json"
        argv = args.split() + ([str(out)] if args.endswith("--json") else [])
        if argv[:2] == ["verify", "nogo"]:
            subprocess.run([sys.executable, "-m", "loopbrackets", *argv],
                           check=True, capture_output=True, timeout=300,
                           env=env)
        else:
            assert cli.main(argv) == 0
        printed = capsys.readouterr().out.encode()
        got[args] = hashlib.sha256(
            out.read_bytes() if args.endswith("--json") else printed
        ).hexdigest()
    assert got == want


# tau of the benchmark's elliptic ladder that make_context accepts (Im tau
# 0.6 down to 0.0014), and three tau of the suites' box.
_LADDER = (0.6j, 0.21 + 0.5j, -0.37 + 0.3j, 0.5 + 0.2j, -0.13 + 0.12j,
           0.21 + 0.07j, -0.37 + 0.04j, 0.5 + 0.02j, -0.13 + 0.01j,
           0.21 + 0.005j, -0.37 + 0.0025j, 0.5 + 0.0018j, -0.13 + 0.0014j)
_BOX = (0.21 + 1.3j, -0.42 + 0.83j, 0.35 + 1.9j)
# points a + b*tau of the origin-centred cell
_CELL = ((0.13, 0.29), (-0.31, -0.44), (0.42, -0.17), (-0.07, 0.47),
         (0.24, 0.03))
# Far up the axis, points by real part and Im z: |x| = exp(-2 pi Im z)
# overflows a double for Im z below -113, its square for Im z below -56.5.
_HIGH = {1000j: (499.0, -499.0, -480.0, -100.0, -60.0),
         300j: (149.0, -149.0, -140.0, -100.0, -70.0, -57.0),
         115j: (57.0, -57.0, -57.4, -56.0, -30.0)}
_HIGH_RE = (0.0, 0.25, -0.17, 0.5)


def _hex(v):
    return [float.hex(v.real), float.hex(v.imag)]


def _elliptic_cases():
    """The fixed grid: (tau, points) pairs."""
    cases = [(tau, [a + b * tau for a, b in _CELL])
             for tau in _BOX + _LADDER]
    return cases + [(tau, [complex(re, im) for im in ims for re in _HIGH_RE])
                    for tau, ims in _HIGH.items()]


def _elliptic_document():
    """Every (tau, z) of the fixed grid: the forms and the four functions,
    each value as float.hex of its parts, or the name of the error it
    raises."""
    doc = []
    for tau, zs in _elliptic_cases():
        ctx = elliptic.make_context(tau)
        entry = {"tau": _hex(tau), "g1": _hex(ctx.g1), "g2": _hex(ctx.g2),
                 "g3": _hex(ctx.g3), "points": []}
        for z in zs:
            point = {"z": _hex(z)}
            for name in ("wp", "wp_z", "zeta", "sigma"):
                try:
                    point[name] = _hex(getattr(elliptic, name)(ctx, z))
                except elliptic.DomainError as exc:
                    point[name] = type(exc).__name__
            entry["points"].append(point)
        doc.append(entry)
    return doc


def test_elliptic_values():
    want = json.loads((DATA / "elliptic_values.json").read_text())
    assert _elliptic_document() == want


def _closed_forms_document():
    """At each tau of the box, the ladder and 1000i, the quasi-modular
    derivations and, at each cell point, the four tau closed forms and
    wp_zz, each value as float.hex of its parts."""
    doc = []
    for tau in _BOX + _LADDER + (1000j,):
        ctx = elliptic.make_context(tau)
        entry = {"tau": _hex(tau),
                 "g_derivations": [_hex(d) for d in elliptic.g_derivations(
                     ctx.g1, ctx.g2, ctx.g3)],
                 "g_tau_derivatives": [_hex(d) for d in
                                       elliptic.g_tau_derivatives(ctx)],
                 "g1_second_derivation": _hex(
                     elliptic.g1_second_derivation(ctx)),
                 "points": []}
        for z in (a + b * tau for a, b in _CELL):
            forms = elliptic.tau_closed_forms(
                ctx, z, elliptic.wp(ctx, z), elliptic.wp_z(ctx, z),
                elliptic.zeta(ctx, z))
            entry["points"].append({
                "z": _hex(z), "tau_closed_forms": [_hex(f) for f in forms],
                "wp_zz": _hex(elliptic.wp_zz(ctx, z))})
        doc.append(entry)
    return doc


def test_closed_forms():
    want = json.loads((DATA / "closed_forms.json").read_text())
    assert _closed_forms_document() == want


# The series sum their rows in pure-Python loops or, from
# elliptic.ARRAY_CROSSOVER series terms on, in numpy kernels that replay
# CPython's complex arithmetic; these force one or the other everywhere.
_PATHS = pytest.mark.parametrize("crossover", [0, 10 ** 9],
                                 ids=["kernels", "loops"])


@_PATHS
def test_documents_on_either_path(crossover, monkeypatch):
    monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", crossover)
    assert _elliptic_document() == json.loads(
        (DATA / "elliptic_values.json").read_text())
    assert _closed_forms_document() == json.loads(
        (DATA / "closed_forms.json").read_text())


@_PATHS
def test_identity_report_on_either_path(crossover, monkeypatch, tmp_path):
    monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", crossover)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "identities", "--trials", "30",
                     "--json", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify_identities.json").read_bytes()


def _outcome(fn, *args):
    """repr of fn(*args), or the name of the package error it raises."""
    try:
        return repr(fn(*args))
    except LoopBracketsError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", ["wp", "wp_z", "zeta", "sigma"])
def test_batches_equal_the_scalar_loop(name, monkeypatch):
    """At every (tau, z) of the grid, f_many on the kernels gives the
    pure-Python loop's value or error, point by point and for the whole
    batch (the loop's first error, where it raises)."""
    scalar, many = getattr(elliptic, name), getattr(elliptic, f"{name}_many")
    for tau, zs in _elliptic_cases():
        ctx = elliptic.make_context(tau)
        monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", 10 ** 9)
        want = [_outcome(scalar, ctx, z) for z in zs]
        errors = [w for w in want if w.isidentifier()]
        batch = errors[0] if errors else repr([scalar(ctx, z) for z in zs])
        monkeypatch.setattr(elliptic, "ARRAY_CROSSOVER", 0)
        assert [_outcome(lambda z: many(ctx, [z])[0], z) for z in zs] == want
        assert _outcome(many, ctx, zs) == batch
