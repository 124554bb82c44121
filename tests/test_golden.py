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
expressions; reading it from ring elements must give the same bits."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from loopbrackets import cli, models
from loopbrackets import symexpr as sx

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
