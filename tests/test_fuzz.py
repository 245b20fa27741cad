"""Seeded fuzz of the document boundary.

Every mutant, run through ``cli.main`` in-process, must end in a clean
envelope: no exception, an exit code in {0, 1, 2, 3}, JSON on stdout, and an
``error`` exactly on exit 2.  ``validate`` is the one command that may also
exit 2 without one: it reports a parsed but invalid document as
``valid: false`` with its issues.  The mutants are the bundled documents
with one leaf replaced by junk or one key deleted, and truncated Weil
documents with one operator entry moved by an integer, which leaves a
well-formed document whose operators contradict each other.  ``spectral``
must not exit 1 on such a mutant when ``validate`` rejects it: exit 1 would
claim that a property was verified and failed.  ``cohomology`` must exit 2 on
such a mutant exactly when it breaks an operator law.  Small random record
documents (polytopes, strata models, Morse data) must end in a clean
envelope too, under ``validate`` and under their own command.
"""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

from foliacoh import cli
from foliacoh.gstar import LieAlgebraSpec, check_operator_laws, weil_algebra

DATA = Path(cli.__file__).parent / "data"
JUNK = (-7, 1.5, "1/0", [], {}, "", True, None)
COMMANDS = {
    "gstar_algebra": ("cohomology", "equivariant", "spectral"),
    "strata_model": ("strata",),
    "morse_data": ("morse",),
    "polytope": ("polytope",),
    "module_presentation": ("module",),
    "ses": ("cohomology", "module"),
}
MUTANTS_PER_DOCUMENT = 12
# W(R^r) truncated at N, as (r, N), and the moves of one operator entry in them
WEIL_DOCUMENTS = ((1, 3), (1, 4), (2, 3), (2, 4))
OPERATOR_MOVES = (-1, 1, 2)
OPERATOR_MUTANTS_PER_DOCUMENT = 10
RECORD_DOCUMENTS_PER_KIND = 60


def _module_ses_document():
    """0 -> M -> M -> 0 -> 0 for the bundled module M, with the identity as first map."""
    m = json.loads((DATA / "hopf_module.json").read_text())["payload"]
    gens = range(len(m["generators"]))
    zero = {"dim_a": m["dim_a"], "window": m["window"], "generators": [], "relations": []}
    return cli.document_for("ses", {
        "type": "module",
        "sub": copy.deepcopy(m),
        "total": copy.deepcopy(m),
        "quotient": zero,
        "first_map": [[{"gen": g, "monomial": [0] * m["dim_a"], "coeff": 1}] for g in gens],
        "second_map": [[] for _ in gens],
    })


def _paths(obj, path=()):
    """(leaves, keys): the paths to every scalar or empty container, and to every dict entry."""
    if isinstance(obj, (dict, list)) and obj:
        leaves, keys = [], []
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:
            sub_leaves, sub_keys = _paths(v, path + (k,))
            leaves += sub_leaves
            keys += sub_keys + ([path + (k,)] if isinstance(obj, dict) else [])
        return leaves, keys
    return [path], []


def _pick(paths, rng):
    """A random path at a random depth, so the few shallow keys are drawn as often as deep ones."""
    depth = rng.choice(sorted({len(p) for p in paths}))
    return rng.choice([p for p in paths if len(p) == depth])


def _mutant(doc, rng):
    """doc with one leaf replaced by junk or one key deleted, and what was done."""
    doc = copy.deepcopy(doc)
    leaves, keys = _paths(doc)
    delete = rng.random() < 0.5
    path = _pick(keys if delete else leaves, rng)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if delete:
        del parent[path[-1]]
        return doc, f"delete {path}"
    junk = rng.choice(JUNK)
    parent[path[-1]] = junk
    return doc, f"{path} = {junk!r}"


def _operator_mutant(doc, rng):
    """doc with one entry of d, an i_j or an L_j moved by an integer, and what was done.

    An operator matrix the document leaves out is the zero matrix, so a move
    may write the first entry of one.
    """
    doc = copy.deepcopy(doc)
    p = doc["payload"]
    dims = {int(n): len(labels) for n, labels in p["degrees"].items()}
    op = rng.choice(("d", "i", "L"))
    mats = p["d"] if op == "d" else rng.choice(p[op])
    shift = {"d": 1, "i": -1, "L": 0}[op]
    n = rng.choice([n for n in sorted(dims) if dims.get(n + shift)])
    m = mats.setdefault(str(n), [[0] * dims[n] for _ in range(dims[n + shift])])
    i, j = rng.randrange(len(m)), rng.randrange(dims[n])
    x = Fraction(m[i][j]) + rng.choice(OPERATOR_MOVES)
    m[i][j] = x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return doc, f"{op} at degree {n} [{i}][{j}] = {m[i][j]!r}"


def _weil_documents():
    """W(R^r) truncated at N, for each (r, N) of WEIL_DOCUMENTS, as documents."""
    for r, top in WEIL_DOCUMENTS:
        payload = cli.gstar_to_payload(weil_algebra(LieAlgebraSpec.abelian(r), top))
        yield cli.document_for("gstar_algebra", payload, top)


def _record_document(kind, rng):
    """A random polytope, strata_model or morse_data document: dimension <= 3, entries 0..6.

    A polytope's top face count is 1, so that about a third of them pass ``validate``.
    """
    def entries(k):
        return [rng.randint(0, 6) for _ in range(k)]

    dim = rng.randint(0, 3)
    if kind == "polytope":
        return cli.document_for(kind, {"f_vector": entries(dim) + [1], "q": 2 * dim})
    parts = [{"codim" if kind == "strata_model" else "index": rng.randint(0, 6),
              "isotropy_dim": rng.randint(0, dim),
              "quotient_poincare": entries(rng.randint(1, 3))}
             for _ in range(rng.randint(1, 3))]
    if kind == "strata_model":
        return cli.document_for(kind, {"q": rng.randint(0, 6), "dim_a": dim, "strata": parts})
    return cli.document_for(
        kind, {"dim_a": dim, "components": parts, "basic_poincare": entries(rng.randint(1, 4))})


def _run_clean(command, path, capsys, where):
    """The exit code of one in-process run, which must end in a clean envelope."""
    try:
        code = cli.main([command, "--input", str(path)])
    except Exception as exc:
        raise AssertionError(f"{where} raised {exc!r}") from exc
    out = json.loads(capsys.readouterr().out)
    assert code in (0, 1, 2, 3) and out["exit_code"] == code, where
    if "error" in out:
        assert code == 2, where
    elif code == 2:
        assert command == "validate" and out["results"]["valid"] is False, where
        assert out["results"]["issues"], where
    return code


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261018)
    docs = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
    docs.append(_module_ses_document())
    assert len(docs) > 10
    cases = [(doc, _mutant, MUTANTS_PER_DOCUMENT) for doc in docs]
    cases += [(doc, _operator_mutant, OPERATOR_MUTANTS_PER_DOCUMENT) for doc in _weil_documents()]
    for doc, mutate, count in cases:
        for _ in range(count):
            mutant, change = mutate(doc, rng)
            p = tmp_path / "mutant.json"
            p.write_text(json.dumps(mutant))
            if mutate is _operator_mutant:
                laws_hold = check_operator_laws(cli._parse(doc["kind"], mutant["payload"])).ok
            for command in ("validate",) + COMMANDS[doc["kind"]]:
                where = f"{command} on {doc['kind']} with {change}"
                code = _run_clean(command, p, capsys, where)
                if command == "validate":
                    rejected = code == 2
                elif command == "spectral" and mutate is _operator_mutant and rejected:
                    assert code != 1, where  # exit 1 would claim a verified property failed
                elif command == "cohomology" and mutate is _operator_mutant:
                    assert (code == 2) == (not laws_hold), where


def test_record_documents_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261019)
    p = tmp_path / "record.json"
    for kind in ("polytope", "strata_model", "morse_data"):
        for _ in range(RECORD_DOCUMENTS_PER_KIND):
            doc = _record_document(kind, rng)
            p.write_text(json.dumps(doc))
            for command in ("validate",) + COMMANDS[kind]:
                _run_clean(command, p, capsys, f"{command} on {doc['payload']}")
