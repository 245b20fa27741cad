"""Result bytes pinned before the sparse elimination kernels went in.

Every bundled ``*_gstar.json`` document that exits 0 or 1 under a command
has the sha256 of its ``results`` section (``json.dumps(..., sort_keys=True)``)
and its exit code pinned here, and the stdout of ``foliacoh fixtures`` is
pinned whole.  A faster kernel must leave all of them unchanged.

``module`` is pinned the same way on two bundled documents and two seeded
random presentations, recorded before the module layer kept one reduction
matrix per degree; a document that exits 2 has its ``error`` pinned instead.
The ``sphere3_split_ses`` error was re-pinned on purpose when ``module``
began to say that it needs a ses of type ``module``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from foliacoh import cli
from foliacoh.gstar import LieAlgebraSpec, weil_algebra

from conftest import change_basis

DATA = Path(cli.__file__).parent / "data"

VALID = "bd9ebe8245f606cdccac2adca1d047e256dbe158068a3f29f3665c2e76558d38"
GOLDEN = {
    ("validate", "exterior_line_gstar"): (0, VALID),
    ("validate", "hopf_gstar"): (0, VALID),
    ("validate", "sphere3_gstar"): (0, VALID),
    ("validate", "trivial_line_gstar"): (0, VALID),
    ("cohomology", "exterior_line_gstar"):
        (0, "ac3aa9c85ce92949582633edbadd78824b7d4ddbcba371ce76e5132e4c2ce251"),
    ("cohomology", "hopf_gstar"):
        (0, "338c08e6bca86830bb4bc3c3c57c243433a4a0b5db2e7463816715e1d3140fc0"),
    ("cohomology", "sphere3_gstar"):
        (0, "046ac67bee3fe56a32c3e80c71f0715169b1981db0ae143c75c06296c94e5270"),
    ("cohomology", "trivial_line_gstar"):
        (0, "ac3aa9c85ce92949582633edbadd78824b7d4ddbcba371ce76e5132e4c2ce251"),
    ("equivariant", "exterior_line_gstar"):
        (0, "0380582d2bbe3269dd142c8a14569564e5f9ff524bea014fb8696ae853eea273"),
    ("equivariant", "hopf_gstar"):
        (0, "e0609f1b1d3bbe3e783bbc0c60c96564958571129976a8e0727152acefe13340"),
    ("equivariant", "sphere3_gstar"):
        (0, "1aae8a4c5c2f27e01f17a5380c18866858e8cafcdd560675a2b897bec3a116e5"),
    ("equivariant", "trivial_line_gstar"):
        (0, "586ec88822721ac371175f4ebba38761a4596f9cac4ccc26dfc47f5176927e4a"),
    ("spectral", "exterior_line_gstar"):
        (0, "f049cee98ed18d54dea79cbaef92588709b1542239e267ef0bf228bbe6b0ad02"),
    ("spectral", "hopf_gstar"):
        (0, "feaf967f655ba9295de389aebbddd9ac39adfb28466423237ebbaa75ee9e5bca"),
    ("spectral", "sphere3_gstar"):
        (0, "eb74aa496b1574c7103e64ba137350def3f3815a702ac5fdbc810e88aad89871"),
    ("spectral", "trivial_line_gstar"):
        (0, "47299e6e0c6074178953c308ac918feef8de71f1f4beb6caa28a3b808587fca8"),
}
FIXTURES_STDOUT = "6bf4d53ab3354c495e77b2ec2ccd62f37607c28d3d3c2e4d5340b5534007aba6"


def test_golden_covers_every_bundled_gstar_document():
    names = {p.stem for p in DATA.glob("*_gstar.json")}
    assert {name for _, name in GOLDEN} == names


@pytest.mark.parametrize("command,name", sorted(GOLDEN))
def test_golden_results(capsys, command, name):
    code = cli.main([command, "--input", str(DATA / f"{name}.json")])
    results = json.loads(capsys.readouterr().out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == GOLDEN[(command, name)]


def test_golden_fixtures_stdout(capsys):
    code = cli.main(["fixtures"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIXTURES_STDOUT


MODULE_GOLDEN = {
    "hopf_module": (0, "ce194dff1c5fec41723ef072eee683d8e1e9222a326a3e59fb7d45e87ca3e012"),
    "sphere3_split_ses": (2, "7e9702da1ae37122722d8bd56b11a84ac2e2d5704bdd632461cacbc9e6273758"),
    "random_dense": (0, "bb3b26a0cc4dbed75039f0bd740a40c10a8ecdc838689e9749f07f50db067106"),
    "random_sparse": (3, "e95bdedb3685e7f45300930f46ce74c06476b1ee1af7f779e92187b97edbddc1"),
}
# generated presentation -> (seed, relations, chance of each monomial term)
RANDOM_MODULES = {"random_dense": (5, 4, 0.6), "random_sparse": (3, 5, 0.3)}


def random_module_payload(seed: int, n_rel: int, density: float) -> dict:
    """Degree-4 relations on generators of degrees 0, 0, 2, 2 over Q[u0, u1]."""
    rng = random.Random(seed)
    coeffs = (1, -1, 2, -3, "1/2", "-2/3")
    gens = [0, 0, 2, 2]
    relations = []
    for _ in range(n_rel):
        entries = []
        for g_idx, g in enumerate(gens):
            p = (4 - g) // 2
            for a in range(p + 1):
                if rng.random() < density:
                    entries.append({"gen": g_idx, "monomial": [a, p - a],
                                    "coeff": rng.choice(coeffs)})
        relations.append({"entries": entries})
    return {"dim_a": 2, "window": 8, "generators": gens, "relations": relations}


def module_document_path(name: str, tmp_path) -> Path:
    if name not in RANDOM_MODULES:
        return DATA / f"{name}.json"
    path = tmp_path / f"{name}.json"
    payload = random_module_payload(*RANDOM_MODULES[name])
    path.write_text(json.dumps(cli.document_for("module_presentation", payload)))
    return path


@pytest.mark.parametrize("name", sorted(MODULE_GOLDEN))
def test_golden_module(capsys, tmp_path, name):
    code = cli.main(["module", "--input", str(module_document_path(name, tmp_path))])
    doc = json.loads(capsys.readouterr().out)
    section = doc["results"] if "results" in doc else {"error": doc["error"]}
    digest = hashlib.sha256(json.dumps(section, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == MODULE_GOLDEN[name]


# -- failing validate runs ------------------------------------------------------------
# Each mutant edits one bundled document's payload in place.  The pins were
# recorded before the G*-axioms were checked as product-matrix identities, so
# they hold every issue message and its order.  No single product entry of the
# four-dimensional hopf algebra breaks associativity with an intact unit, so
# its product mutant changes two entries.


def _product(payload, left, right):
    return next(p for p in payload["products"] if p["left"] == left and p["right"] == right)


def _mutate_hopf_products(p):
    p["products"].append({"left": [1, 0], "right": [1, 0], "value": [[0, 1]]})
    _product(p, [2, 0], [1, 0])["value"] = [[0, 2]]


def _mutate_sphere3_unit(p):
    _product(p, [0, 0], [1, 0])["value"] = [[0, 2]]


def _mutate_sphere3_d_square(p):
    p["d"]["2"] = [[1]]


def _mutate_sphere3_d_unit(p):
    p["d"]["0"] = [[1]]


def _mutate_hopf_i(p):
    p["i"][0]["3"] = [[2]]


def _mutate_sphere3_d_unit_truncated(p):
    p["d"]["0"] = [[1]]
    p["truncated_above"] = 1


def _mutate_hopf_l(p):
    p["L"][0] = {"1": [[1]]}


VALIDATE_MUTANTS = {
    "hopf_products": ("hopf_gstar", _mutate_hopf_products),
    "sphere3_unit": ("sphere3_gstar", _mutate_sphere3_unit),
    "sphere3_d_square": ("sphere3_gstar", _mutate_sphere3_d_square),
    "sphere3_d_unit": ("sphere3_gstar", _mutate_sphere3_d_unit),
    "hopf_i": ("hopf_gstar", _mutate_hopf_i),
    "sphere3_d_unit_truncated": ("sphere3_gstar", _mutate_sphere3_d_unit_truncated),
    "hopf_l": ("hopf_gstar", _mutate_hopf_l),
}
VALIDATE_MUTANT_GOLDEN = {
    "hopf_i": (2, "cdfea828d60335693064a8df84871031ab8536d339b7b33346501b25041a08ed"),
    "hopf_l": (2, "b6ece218cffd3a9b6af0cae0d9d94c5c1469d2939f81f2c606be7c2dd73507f7"),
    "hopf_products": (2, "c8cbdce1577287ff14fcc1f2fad3eada26a7c77d4c6a688bc2841a13e45ace92"),
    "sphere3_d_square": (2, "10bcb449e2f87492f194bb4fa0457c701d00d641189820a648de4cb439d705d3"),
    "sphere3_d_unit": (2, "7db39505884fc4b1074bdbf88513407ab26f6f2155fa9fd7e733ed6e9b34a8c5"),
    "sphere3_d_unit_truncated": (2, "e6bd00abbf09279daee3924f4ba78b78e256529f39c5a21c9395d1bef8011c46"),
    "sphere3_unit": (2, "f2a922604723419cb74bedf176b0bb79310ddec4975bb04e0121ae72beec508e"),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_MUTANTS))
def test_golden_failing_validate(capsys, tmp_path, name):
    base, mutate = VALIDATE_MUTANTS[name]
    doc = json.loads((DATA / f"{base}.json").read_text())
    mutate(doc["payload"])
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["validate", "--input", str(path)])
    results = json.loads(capsys.readouterr().out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == VALIDATE_MUTANT_GOLDEN[name]


# -- spectral on generated Weil documents ------------------------------------------------
# Pinned before the persistence pairs of each differential were read from one
# RREF per target bound instead of one rank per corner block.

# name -> (N, change_basis seed or None for the monomial basis, exit code, results sha256)
SPECTRAL_GOLDEN = {
    "weil_r2_n8": (8, None, 0, "16abcb4877827f80b18d657599ec47d2437b0b4dc4035b81e0984212da3dc922"),
    "weil_r2_n6_unit_lu":
        (6, 12, 0, "1ab34cfe5f637a6c78418f6bc3ef445c1b295bf68057954bb3fe9c1a4fe125a1"),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_GOLDEN))
def test_golden_spectral_on_weil_documents(capsys, tmp_path, name):
    n, seed, want_code, want_digest = SPECTRAL_GOLDEN[name]
    s = weil_algebra(LieAlgebraSpec.abelian(2), n)
    if seed is not None:
        s = change_basis(s, random.Random(seed))
    path = tmp_path / "weil.json"
    path.write_text(json.dumps(cli.document_for("gstar_algebra", cli.gstar_to_payload(s), n)))
    code = cli.main(["spectral", "--input", str(path)])
    results = json.loads(capsys.readouterr().out)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == (want_code, want_digest)
