"""The benchmark's pinned ``equivariant`` results hold in-process, in tier-1.

``bench/run.py`` fails an op whose exit code or results section differs
from its pin in ``bench/expected.json``; this test builds the four
``equivariant_sparse`` documents and one unit-LU change of basis of W(R^2)
at N = 4 and at N = 6 with ``bench/docs.py``, runs ``equivariant`` on each
and compares the same two fields, so a drift in the results shows here
without a benchmark run.  It reads ``bench/`` and changes nothing there.
"""

import hashlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import foliacoh
from foliacoh import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
API = SimpleNamespace(LieAlgebraSpec=foliacoh.LieAlgebraSpec, weil_algebra=foliacoh.weil_algebra,
                      gstar_to_payload=cli.gstar_to_payload, document_for=cli.document_for)


def load_docs():
    spec = importlib.util.spec_from_file_location("bench_docs", BENCH / "docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


docs = load_docs()
EXPECTED = json.loads((BENCH / "expected.json").read_text())

# (document name, lie dimension, N, seed of a change of basis or None)
CASES = [(f"weil_r{r}_n{n}", r, n, None) for r, n in ((2, 4), (2, 6), (3, 3), (3, 4))]
CASES += [(f"weil_r2_n{n}_basis0", 2, n, 1000 + n * 10) for n in (4, 6)]


@pytest.mark.parametrize("name,lie_dim,n,seed", CASES, ids=[c[0] for c in CASES])
def test_equivariant_matches_the_bench_pin(tmp_path, capsys, name, lie_dim, n, seed):
    doc = docs.weil_document(API, lie_dim, n)
    if seed is not None:
        doc = docs.change_basis(doc, seed)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc, sort_keys=True))
    code = cli.main(["equivariant", "--input", str(p)])
    results = json.dumps(json.loads(capsys.readouterr().out)["results"], sort_keys=True)
    seen = {"exit": code, "results_sha256": hashlib.sha256(results.encode()).hexdigest()}
    assert seen == EXPECTED[f"equivariant weil_r{lie_dim}_n{n}"], results
