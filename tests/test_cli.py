import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cli, fixtures, foliation, gstar
from foliacoh.algebra_core import GradedVectorSpace, cohomology_dims
from foliacoh.gstar import (
    LieAlgebraSpec,
    check_gstar_axioms,
    extend_with_trivial_factor,
    tensor_gstar,
    weil_algebra,
)
from foliacoh.ratmat import RationalMatrix
from foliacoh.series import PoincarePolynomial

from conftest import change_basis, circle_action, product_table

DATA = Path(cli.__file__).parent / "data"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def doc_path(name: str) -> str:
    return str(DATA / f"{name}.json")


# -- documents ----------------------------------------------------------------------


def test_data_documents_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(cli.__file__).parent / "schema" / "input-v1.json").read_text()
    )
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, schema)
        kind_schema = {
            "definitions": schema["definitions"],
            **schema["definitions"][doc["kind"]],
        }
        if not path.name.startswith("bad_"):
            jsonschema.validate(doc["payload"], kind_schema)


def test_schema_rejects_a_negative_truncation():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(cli.__file__).parent / "schema" / "input-v1.json").read_text())
    kind_schema = {"definitions": schema["definitions"], **schema["definitions"]["gstar_algebra"]}
    payload = json.loads((DATA / "exterior_line_gstar.json").read_text())["payload"]
    payload["truncated_above"] = 0
    jsonschema.validate(payload, kind_schema)
    payload["truncated_above"] = -1
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, kind_schema)


def test_schema_rejects_a_non_canonical_degree_key():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(cli.__file__).parent / "schema" / "input-v1.json").read_text())
    kind_schema = {"definitions": schema["definitions"], **schema["definitions"]["gstar_algebra"]}
    payload = json.loads((DATA / "exterior_line_gstar.json").read_text())["payload"]
    jsonschema.validate(payload, kind_schema)
    for key in ("01", " 1", "+1", "-1"):
        for field in ("degrees", "i"):
            bad = json.loads(json.dumps(payload))
            keys = bad["degrees"] if field == "degrees" else bad["i"][0]
            keys[key] = keys.pop("1")
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, kind_schema)


@pytest.mark.parametrize(
    "name,parse,serialize",
    [
        ("hopf_gstar", cli.parse_gstar, cli.gstar_to_payload),
        ("exterior_line_gstar", cli.parse_gstar, cli.gstar_to_payload),
        ("sphere3_gstar", cli.parse_gstar, cli.gstar_to_payload),
        ("trivial_line_gstar", cli.parse_gstar, cli.gstar_to_payload),
        ("hopf_strata", cli.parse_strata, cli.strata_to_payload),
    ],
)
def test_round_trip(name, parse, serialize):
    doc = json.loads((DATA / f"{name}.json").read_text())
    obj = parse(doc["payload"])
    again = serialize(obj)
    assert cli.canonical_bytes(again) == cli.canonical_bytes(doc["payload"])


def indented_dump(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.integers(-10**40, 10**40)
    | st.text(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [1, -2, 10**60], "b": ["\u00e9", "\"q\"", "\\", "\n\t\x00", "\U0001f600"],
          "c": [[], {}, [[]], [{}]], "\u2028": [True, None, 1.5, -0.0, 1e300]})
@example({"ints": {1: [2, 3], 2: {}}, "tuple": (1, "x", (2,))})
@example([[[[[[["deep"]]]]]]])
# lists of records, one %-format per record signature
@example({"products": [{"left": [0, 0], "right": [2, 1], "value": [[1, 1], [3, -2]]},
                       {"value": [[0, 10**60]], "right": [1, 1], "left": [1, 0]},
                       {"left": [0, 0], "right": [2, 1], "value": [[4, -7], [5, 8]]}]})
@example({"L": [{"0": [[1, 0, -1], [0, 2, 0]], "2": [[5]]}, {"2": [[-5]], "0": [[0], [1]]}]})
@example([{"a%d": [1], "%%s": [[2, 3]], "\u00e9\U0001f600": [-4], "\"%\n": [0]}])
@example([[{"v": [-10**60, 10**60 - 1, -1, 0]}], [{"v": [[-(10**59)], [7]]}]])
# near misses after a record, each list written by the general path
@example({"bool": [{"v": [1]}, {"v": [1, True]}], "bool row": [{"v": [1]}, {"v": [[0, False]]}],
          "empty": [{"v": [1]}, {"v": []}], "empty row": [{"v": [[1]]}, {"v": [[]]}],
          "ragged": [{"v": [[1, 2]]}, {"v": [[1, 2], [3]]}, {"v": [[1, 2], [3, 4, 5]]}],
          "string": [{"left": [0, 0], "value": [[0, 1]]}, {"left": [0, 0], "value": [[0, "1/2"]]}],
          "nested": [{"v": [1]}, {"v": [[[1]]]}, {"v": [[1, [2]]]}],
          "not a record": [{"v": [1]}, {}, 2], "int key": [{"v": [1]}, {1: [2]}],
          "tuple": [{"v": [1]}, {"v": (1, 2)}], "mixed": [{"v": [1]}, {"v": [1, [2]]}]})
def test_canonical_bytes_are_the_indented_dump(doc):
    assert cli.canonical_bytes(doc) == indented_dump(doc)


def test_input_sha256_is_the_digest_of_the_indented_dump():
    for path in sorted(DATA.glob("*.json")):
        doc = json.loads(path.read_text())
        assert cli.canonical_bytes(doc) == indented_dump(doc)
        if not path.name.startswith("bad_"):
            assert cli.load_document(str(path))[1] == hashlib.sha256(indented_dump(doc)).hexdigest()


def test_a_deeply_nested_document_is_bad_input(tmp_path, capsys):
    # decoding it used to end in a RecursionError traceback
    text = (DATA / "exterior_line_gstar.json").read_text().rstrip()
    p = tmp_path / "deep.json"
    p.write_text(text[:-1] + ', "extra": ' + "[" * 5000 + "]" * 5000 + "}")
    for cmd in ("validate", "equivariant"):
        code, out = run_json(capsys, cmd, "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT
        assert out["error"] == f"{p} is nested too deeply to read"


def test_a_document_too_deep_to_hash_is_bad_input(capsys, monkeypatch):
    # the writer meets the recursion limit a few levels before the decoder can
    def too_deep(doc):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "canonical_bytes", too_deep)
    path = doc_path("exterior_line_gstar")
    code, out = run_json(capsys, "validate", "--input", path)
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == f"{path} is nested too deeply to read"


def test_rejects_bad_schema_version(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": 99, "kind": "polytope", "payload": {}}))
    code, out = run_json(capsys, "polytope", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "schema_version" in out["error"]


def test_rejects_floats_in_matrices(tmp_path, capsys):
    doc = json.loads((DATA / "hopf_gstar.json").read_text())
    doc["payload"]["i"][0]["1"] = [[0.5]]
    p = tmp_path / "float.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, "cohomology", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT


def _set_max_degree(value):
    def mutate(doc):
        doc["max_degree"] = value
    return "hopf_gstar", "equivariant", mutate, "max_degree"


def _set_truncated_above(value, name="hopf_gstar", command="validate"):
    def mutate(doc):
        doc["payload"]["truncated_above"] = value
    return name, command, mutate, "truncated_above"


def _set_product_target(value):
    def mutate(doc):
        doc["payload"]["products"][2]["value"][0][0] = value
    return "exterior_line_gstar", "equivariant", mutate, "target index"


def _set_labels(value):
    def mutate(doc):
        doc["payload"]["degrees"]["1"] = value
    return "exterior_line_gstar", "equivariant", mutate, "degrees"


def _set_degree_key(key, where="degrees", rename=True):
    """A degree key that int() reads but that is not the degree's own decimal."""
    def mutate(doc):
        p = doc["payload"]
        keys = p["degrees"] if where == "degrees" else p["i"][0]
        keys[key] = keys.pop("1") if rename else ["a"]
    return "exterior_line_gstar", "equivariant", mutate, f"{where} key {key!r}"


def _add_ses_key(part, key):
    """A second key for degree 2 of a complex ses, next to its "2"."""
    def mutate(doc):
        p = doc["payload"]
        keys = p["sub"]["dims"] if part == "sub.dims" else p[part]
        keys[key] = keys["2"]
    return "sphere3_split_ses", "cohomology", mutate, f"{part} key {key!r}"


def _set_ses_window(value, message="window must be a two-element list"):
    def mutate(doc):
        doc["payload"]["window"] = value
    return "sphere3_split_ses", "cohomology", mutate, message


def _set_stratum_name(value):
    def mutate(doc):
        doc["payload"]["strata"][1]["name"] = value
    return "hopf_strata", "strata", mutate, "strata[1].name"


@pytest.mark.parametrize(
    "name,command,mutate,message",
    [_set_max_degree(v) for v in ("x", None, [], 1.5, True, -1)]
    + [_set_truncated_above(v) for v in ("x", 1.5, True)]
    # a negative cutoff used to end equivariant and spectral in a traceback
    + [_set_truncated_above(-1, "exterior_line_gstar", cmd) for cmd in ("equivariant", "spectral")]
    # the target degree has dimension 1; -1 used to wrap around to index 0
    + [_set_product_target(v) for v in (2, 1.5, True, -1)]
    # a label string used to be split into characters, a stratum name stringified
    + [_set_labels(v) for v in ("t", {"t": 0}, [1], None)]
    # two keys naming one degree used to merge, one of them dropped without a word
    + [_set_degree_key("01", rename=False), _set_degree_key(" 1"), _set_degree_key("+1"),
       _set_degree_key("-1"), _set_degree_key("01", "i[0]")]
    # a complex ses read its degree keys with int(): "02" and " 2" merged into degree 2
    + [_add_ses_key("sub.dims", "02"), _add_ses_key("inclusion", " 2")]
    # a complex ses window of three entries was cut to two, one of one entry was an IndexError
    + [_set_ses_window(v) for v in ([0, 3, 7], [0], [])]
    + [_set_ses_window([3, 0], "window [3, 0] has lo > hi")]
    + [_set_stratum_name(v) for v in ([1, 2], 7, None)],
)
def test_rejects_values_of_the_wrong_schema_type(tmp_path, capsys, name, command, mutate,
                                                 message):
    doc = json.loads((DATA / f"{name}.json").read_text())
    mutate(doc)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(doc))
    for cmd in (command, "validate"):
        code, out = run_json(capsys, cmd, "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT, cmd
        assert message in out["error"]


def test_morse_rejects_isotropy_above_dim_a(tmp_path, capsys):
    doc = json.loads((DATA / "hopf_morse.json").read_text())
    doc["payload"]["dim_a"] = 0
    p = tmp_path / "morse.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "component 0: isotropy dimension 1 exceeds dim_a = 0" in out["results"]["issues"]
    code, out = run_json(capsys, "morse", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "exceeds dim_a" in out["error"]


def _weil_r2_n3_payload():
    return cli.gstar_to_payload(weil_algebra(LieAlgebraSpec.abelian(2), 3))


def _set_path(doc, path, value):
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@pytest.mark.parametrize(
    "name,command,path",
    [
        # a list or scalar where a parser expects a dict or a pair used to end in
        # an AttributeError or IndexError traceback
        ("weil_r2_n3", "validate", ("payload", "degrees")),
        ("weil_r2_n3", "validate", ("payload", "d")),
        ("weil_r2_n3", "validate", ("payload", "i", 0)),
        ("weil_r2_n3", "validate", ("payload", "products", 0, "left")),
        ("hopf_strata", "validate", ("payload", "strata", 0)),
        ("sphere3_split_ses", "cohomology", ("payload", "sub")),
    ],
)
def test_malformed_payload_shapes_exit_2(tmp_path, capsys, name, command, path):
    if name == "weil_r2_n3":
        doc = cli.document_for("gstar_algebra", _weil_r2_n3_payload(), 3)
    else:
        doc = json.loads((DATA / f"{name}.json").read_text())
    _set_path(doc, path, [])
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"].startswith("malformed ")


# hopf_gstar has one basis element in each degree 0..3.  A product entry that
# names a basis element it does not have used to be dropped silently, and an
# out-of-range unit made validate blame the product table while equivariant
# and spectral exited 0.
BAD_BASIS_NAMES = {
    "product index": ({"products": {"left": [1, 7], "right": [2, 0], "value": [[0, 5]]}},
                      "product [1, 7] x [2, 0]"),
    "product degree": ({"products": {"left": [1, 0], "right": [5, 0], "value": [[0, 5]]}},
                       "product [1, 0] x [5, 0]"),
    "unit past dim A^0": ({"unit": 3}, "unit"),
    "negative unit": ({"unit": -1}, "unit"),
    "unit as a string": ({"unit": "0"}, "unit"),
}


@pytest.mark.parametrize("command", ["validate", "equivariant", "spectral"])
@pytest.mark.parametrize("mutant", sorted(BAD_BASIS_NAMES))
def test_rejects_names_of_missing_basis_elements(tmp_path, capsys, command, mutant):
    change, message = BAD_BASIS_NAMES[mutant]
    doc = json.loads((DATA / "hopf_gstar.json").read_text())
    payload = doc["payload"]
    if "products" in change:
        payload["products"].append(change["products"])
    else:
        payload.update(change)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert message in out["error"]


SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})


def _hopf_with_a_second_product(doc):
    doc["payload"]["products"].insert(0, {"left": [1, 0], "right": [2, 0], "value": [[0, 5]]})
    return "product [1, 0] x [2, 0] is listed twice"


def _so3_with_a_second_bracket(doc):
    doc["payload"]["lie"]["brackets"].insert(0, {"i": 0, "j": 1, "k": 2, "value": 7})
    return "bracket (0, 1, 2) is listed twice"


# a repeated products entry or bracket used to keep its last copy: with a wrong
# copy placed first, validate reported the document valid
@pytest.mark.parametrize("command", ["validate", "equivariant"])
@pytest.mark.parametrize("mutate", [_hopf_with_a_second_product, _so3_with_a_second_bracket])
def test_an_entry_listed_twice_is_bad_input(tmp_path, capsys, command, mutate):
    if mutate is _hopf_with_a_second_product:
        doc = json.loads((DATA / "hopf_gstar.json").read_text())
    else:
        doc = cli.document_for("gstar_algebra", cli.gstar_to_payload(weil_algebra(SO3, 2)), 2)
    message = mutate(doc)
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert message in out["error"]


# a key repeated in one JSON object used to keep its last copy: with a second
# "i" placed first, hopf_gstar.json still validated
@pytest.mark.parametrize("command", ["validate", "equivariant"])
@pytest.mark.parametrize("key,before,copy", [
    ("i", '"i": [', '"i": [{"1": [[7]]}], '),
    ("kind", '"kind": ', '"kind": "polytope", '),
    ("1", '"1": [\n          [\n            1', '"1": [[7]], '),
], ids=["payload", "envelope", "matrix"])
def test_a_key_repeated_in_one_object_is_bad_input(tmp_path, capsys, command, key, before, copy):
    text = (DATA / "hopf_gstar.json").read_text()
    assert text.count(before) == 1
    p = tmp_path / "twice.json"
    p.write_text(text.replace(before, copy + before))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == f"{p}: key {key!r} appears twice in one object"


def test_a_written_operator_only_structure_reads_back_without_products(tmp_path, capsys):
    # products: [] used to be written, which reads back as the unit-only algebra
    payload = cli.gstar_to_payload(circle_action())
    assert payload["products"] is None
    assert cli.parse_gstar(payload).algebra.has_products() is False
    checks = check_gstar_axioms(cli.parse_gstar(payload)).checks
    assert checks[-1] == ("derivations", True, 1, "skipped: operator-only presentation")
    p = tmp_path / "circle.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", payload)))
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert (code, out["results"]) == (cli.EXIT_OK, {"valid": True, "issues": []})
    payload["products"] = []
    p.write_text(json.dumps(cli.document_for("gstar_algebra", payload)))
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["results"]["issues"] == [
        "i_X derivation: i_X derivation fails on (c, t) generator 0"]


# with no degree-0 element, the written "unit": 0 used to fail the [0, dim A^0)
# range check that only a product table needs, so the document did not read back
def test_an_operator_only_structure_without_degree_0_reads_back(tmp_path, capsys):
    algebra = gstar.GradedAlgebraPresentation(GradedVectorSpace({1: 1, 2: 1}), None)
    d = {1: RationalMatrix.from_rows([[1]])}
    s = gstar.GStarStructure(algebra, LieAlgebraSpec.abelian(1), d, [{}], [{}])
    doc = cli.document_for("gstar_algebra", cli.gstar_to_payload(s))
    assert (doc["payload"]["unit"], doc["payload"]["products"]) == (0, None)
    p = tmp_path / "op_only.json"
    p.write_text(json.dumps(doc))
    out = {}
    for command in ("validate", "cohomology", "equivariant"):
        code, out[command] = run_json(capsys, command, "--input", str(p))
        assert code == cli.EXIT_OK, out[command]
    top = out["cohomology"]["max_degree"]
    h = cohomology_dims(s.as_complex())
    assert out["cohomology"]["results"]["basic_cohomology"] == list(h.dims_tuple(top))
    for unit in (-1, "0"):
        doc["payload"]["unit"] = unit
        p.write_text(json.dumps(doc))
        code, out = run_json(capsys, "validate", "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT
        assert out["error"] == f"unit must be an integer >= 0 when products is null, got {unit!r}"


def test_schema_accepts_null_products():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((Path(cli.__file__).parent / "schema" / "input-v1.json").read_text())
    kind_schema = {"definitions": schema["definitions"], **schema["definitions"]["gstar_algebra"]}
    jsonschema.validate(cli.gstar_to_payload(circle_action()), kind_schema)


@st.composite
def built_structures(draw):
    """A structure the package builds, maybe in a unit-LU basis."""
    lie = draw(st.sampled_from([LieAlgebraSpec.abelian(r) for r in range(3)] + [SO3]))
    top = draw(st.integers(0, 2 if lie is SO3 else 4))
    r1 = LieAlgebraSpec.abelian(1)
    make = draw(st.sampled_from([
        lambda: weil_algebra(lie, top),
        lambda: tensor_gstar(weil_algebra(r1, top), fixtures.hopf_basic_model()),
        lambda: tensor_gstar(fixtures.exterior_line_free(), fixtures.sphere3_minimal_model(),
                             max_degree=top),
        lambda: extend_with_trivial_factor(fixtures.hopf_basic_model(), 2),
        fixtures.trivial_line, fixtures.exterior_line_free, fixtures.exterior_two_free,
        fixtures.hopf_basic_model, fixtures.sphere3_minimal_model,
        fixtures.trivial_action_on_h_1_0_1, circle_action,
    ]))
    s = make()
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s


@settings(max_examples=60, deadline=None)
@given(built_structures())
@example(weil_algebra(LieAlgebraSpec.abelian(0), 3)).via("a window above the last basis element")
def test_a_written_structure_reads_back_equal(s):
    back = cli.parse_gstar(json.loads(json.dumps(cli.gstar_to_payload(s))))
    assert (back.space, back.algebra.unit_index, back.truncated_above, back.lie) == \
        (s.space, s.algebra.unit_index, s.truncated_above, s.lie)
    for n in range(s.space.window[0] - 1, s.space.window[1] + 2):
        assert back.op_d(n) == s.op_d(n)
        for j in range(s.lie.dimension):
            assert back.op_i(j, n) == s.op_i(j, n)
            assert back.op_l(j, n) == s.op_l(j, n)
    assert product_table(back.algebra) == product_table(s.algebra)
    assert check_gstar_axioms(back) == check_gstar_axioms(s)


# -- subcommands ----------------------------------------------------------------------


def test_polytope_segment(capsys):
    code, out = run_json(capsys, "polytope", "--input", doc_path("segment"))
    assert code == 0
    assert out["results"]["basic_polynomial"] == [1, 0, 1]
    assert out["results"]["euler_characteristic"] == 2


def test_validate_rejects_tampered_polytopes(capsys):
    for name in ("bad_euler_square", "bad_q_segment", "bad_q_odd_isolated_leaf"):
        code, out = run_json(capsys, "validate", "--input", doc_path(name))
        assert code == cli.EXIT_INVALID_INPUT, name


# both pass the Euler relation, yet sum lambda_i t^(q-2i) (1-t^2)^i has a negative
# coefficient, so no simple polytope has them; polytope used to raise on them
@pytest.mark.parametrize("f_vector,q", [([1, 1, 1], 4), ([5, 3, 0, 1], 6)])
def test_a_face_vector_with_a_negative_polynomial_is_bad_input(tmp_path, capsys, f_vector, q):
    p = tmp_path / "polytope.json"
    p.write_text(json.dumps(cli.document_for("polytope", {"f_vector": f_vector, "q": q})))
    message = "face-vector polynomial has a negative coefficient of t^2"
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert [i for i in out["results"]["issues"] if i.startswith(message)]
    code, out = run_json(capsys, "polytope", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"].startswith(message)


@pytest.mark.parametrize("name,command,path", [
    ("hopf_strata", "strata", ("strata", 0, "quotient_poincare")),
    ("hopf_morse", "morse", ("components", 1, "quotient_poincare")),
    ("hopf_morse", "morse", ("basic_poincare",)),
])
def test_a_negative_dimension_coefficient_is_bad_input(tmp_path, capsys, name, command, path):
    doc = json.loads((DATA / f"{name}.json").read_text())
    _set_path(doc["payload"], path, [1, 0, -1])
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(doc))
    for cmd in ("validate", command):
        code, out = run_json(capsys, cmd, "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT, cmd
        assert out["error"] == (
            f"{path[-1]}: negative coefficient in an unsigned dimension polynomial"), cmd


def test_validate_accepts_fixture_documents(capsys):
    for name in ("hopf_gstar", "hopf_strata", "hopf_morse", "segment", "square",
                 "triangle", "hopf_module", "sphere3_split_ses"):
        code, _ = run_json(capsys, "validate", "--input", doc_path(name))
        assert code == 0, name


def test_equivariant_hopf(capsys):
    code, out = run_json(
        capsys, "equivariant", "--input", doc_path("hopf_gstar"), "--max-degree", "8"
    )
    assert code == 0
    r = out["results"]
    assert r["equivariant_dims"] == [1, 0, 1, 0, 0, 0, 0, 0, 0]
    assert r["cross_check_ok"] is True
    assert r["module_generator_degrees"] == [0, 2]


def test_cohomology_gstar(capsys):
    code, out = run_json(capsys, "cohomology", "--input", doc_path("hopf_gstar"))
    assert code == 0
    assert out["results"]["basic_cohomology"] == [1, 0, 1, 0, 0, 0, 0, 0, 0]


def test_cohomology_reads_only_the_operator_laws(tmp_path, capsys):
    doc = json.loads((DATA / "hopf_gstar.json").read_text())
    for entry in doc["payload"]["products"]:
        if entry["left"] == [1, 0] and entry["right"] == [2, 0]:
            entry["value"] = [[0, 2]]  # theta omega = 2 theta*omega breaks a product law only
    p = tmp_path / "product.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "i_X derivation: i_X derivation fails on (theta, omega) generator 0" in (
        out["results"]["issues"])
    code, out = run_json(capsys, "cohomology", "--input", str(p))
    assert code == 0
    assert out["results"]["basic_cohomology"] == [1, 0, 1, 0, 0, 0, 0, 0, 0]
    # an operator law broken as well is reported alone
    doc["payload"]["L"][0]["1"] = [[1]]
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, "cohomology", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"].startswith("operator package violates the structure axioms: ")
    assert "L_X = d i_X + i_X d" in out["error"] and "derivation" not in out["error"]


def test_cohomology_ses(capsys):
    code, out = run_json(capsys, "cohomology", "--input", doc_path("sphere3_split_ses"))
    assert code == 0
    assert out["results"]["long_exact"] is True
    assert out["results"]["connecting_ranks"]["1"] == 1


def test_spectral_hopf(capsys):
    code, out = run_json(capsys, "spectral", "--input", doc_path("hopf_gstar"))
    assert code == 0
    r = out["results"]
    assert r["formal"] is False
    assert r["stabilized_at_page"] == 2
    assert "t^1" in r["witness"]


@pytest.mark.parametrize("max_degree", ["2", "4", "8"])
def test_spectral_on_a_truncated_document(tmp_path, capsys, max_degree):
    # the free-module test used to be compared with a Hilbert factorization
    # checked only through the stable degree 0, and disagreed with it
    doc = json.loads((DATA / "exterior_line_gstar.json").read_text())
    doc["payload"]["truncated_above"] = 2
    p = tmp_path / "truncated.json"
    p.write_text(json.dumps(doc))
    assert run_json(capsys, "validate", "--input", str(p))[0] == 0
    code, out = run_json(capsys, "spectral", "--input", str(p), "--max-degree", max_degree)
    assert code == 0
    assert out["results"]["stable_through"] == 0
    assert out["results"]["formal"] is True


def test_module_hopf(capsys):
    code, out = run_json(capsys, "module", "--input", doc_path("hopf_module"))
    assert code == 0
    r = out["results"]
    assert r["localized_rank"] == 0
    assert r["free"] is False
    assert r["cohen_macaulay"] is True


def test_strata_hopf(capsys):
    code, out = run_json(
        capsys, "strata", "--input", doc_path("hopf_strata"), "--max-degree", "20"
    )
    assert code == 0
    r = out["results"]
    assert r["basic_polynomial"] == [1, 0, 1]
    assert r["equivariant_series"] == {"numerator": [1, 0, 1], "den_exp": 1}


def test_morse_hopf(capsys):
    code, out = run_json(capsys, "morse", "--input", doc_path("hopf_morse"))
    assert code == 0
    assert out["results"]["perfect"] is True
    assert out["results"]["gap_quotient"] == []


def test_morse_violation_exit_code(tmp_path, capsys):
    payload = {
        "dim_a": 1,
        "components": [
            {"index": 0, "quotient_poincare": [1], "isotropy_dim": 1},
            {"index": 2, "quotient_poincare": [2], "isotropy_dim": 1},
        ],
        "basic_poincare": [1, 0, 1],
    }
    p = tmp_path / "bad_morse.json"
    p.write_text(json.dumps(cli.document_for("morse_data", payload)))
    code, out = run_json(capsys, "morse", "--input", str(p))
    assert code == cli.EXIT_VERDICT_FAILURE
    assert out["results"]["violation_degree"] is not None


def test_module_inconclusive_window_exit_code(tmp_path, capsys):
    payload = {"dim_a": 1, "window": 2, "generators": [0], "relations": []}
    p = tmp_path / "short.json"
    p.write_text(json.dumps(cli.document_for("module_presentation", payload)))
    code, out = run_json(capsys, "module", "--input", str(p))
    assert code == cli.EXIT_INCONCLUSIVE


def _entry(gen, monomial, coeff=1):
    return {"gen": gen, "monomial": monomial, "coeff": coeff}


@pytest.mark.parametrize(
    "payload,message",
    [
        # a negative gen used to bind to the last generator
        ({"dim_a": 1, "window": 6, "generators": [0, 2],
          "relations": [{"entries": [_entry(-1, [1])]}]}, "gen -1"),
        # a negative exponent used to drop the relation
        ({"dim_a": 1, "window": 6, "generators": [0],
          "relations": [{"entries": [_entry(0, [-1])]}]}, "exponents"),
        # ... or to raise a KeyError while building the realization
        ({"dim_a": 2, "window": 6, "generators": [0],
          "relations": [{"entries": [_entry(0, [2, -1])]}]}, "exponents"),
        # a negative window used to certify an empty Hilbert series
        ({"dim_a": 1, "window": -3, "generators": [0], "relations": []}, "window"),
    ],
)
def test_module_rejects_negative_input(tmp_path, capsys, payload, message):
    p = tmp_path / "negative.json"
    p.write_text(json.dumps(cli.document_for("module_presentation", payload)))
    for command in ("module", "validate"):
        code, out = run_json(capsys, command, "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT, command
        assert message in out["error"]


def _module_ses(first_map):
    """0 -> S -> S (+) S -> S -> 0 over Q[u], with the given first map."""
    free1 = {"dim_a": 1, "window": 6, "generators": [0], "relations": []}
    free2 = {"dim_a": 1, "window": 6, "generators": [0, 0], "relations": []}
    return {"type": "module", "sub": free1, "total": free2, "quotient": free1,
            "first_map": [first_map], "second_map": [[], [_entry(0, [0])]]}


@pytest.mark.parametrize(
    "first_map,message",
    [
        ([_entry(0, [0])], None),
        ([_entry(0, [1])], "right degree"),  # degree 0 generator sent to degree 2
        ([_entry(0, [0]), _entry(2, [0])], "target gen 2"),  # the total has 2 generators
    ],
)
def test_module_ses_map_checks(tmp_path, capsys, first_map, message):
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", _module_ses(first_map))))
    for command in ("module", "validate"):
        code, out = run_json(capsys, command, "--input", str(p))
        if message is None:
            assert code == cli.EXIT_OK, command
        else:
            assert code == cli.EXIT_INVALID_INPUT, command
            assert message in out["error"]


def test_repeated_map_entries_add_up_as_relation_entries_do(tmp_path, capsys):
    # a repeated (gen, monomial) of a map used to keep only its last coefficient
    payload = _module_ses([_entry(0, [0], 2), _entry(1, [0]), _entry(0, [0], "-1/2")])
    payload["sub"]["relations"] = [{"entries": [_entry(0, [1]), _entry(0, [1], 2)]}]
    ses = cli.parse_ses_module(payload)
    assert ses.sub.relations == (({(1,): Fraction(3)},),)
    assert ses.first_map == (({(0,): Fraction(3, 2)}, {(0,): Fraction(1)}),)
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", _module_ses([_entry(0, [0]),
                                                                 _entry(0, [0], -1)]))))
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["results"]["issues"] == ["first map not injective in degree 0"]


@pytest.mark.parametrize("command", ["validate", "module"])
@pytest.mark.parametrize("key", ["sub", "total", "quotient", "first_map", "second_map"])
def test_module_ses_missing_key_exits_2(tmp_path, capsys, key, command):
    # a missing key used to raise a KeyError out of main
    ses = _module_ses([_entry(0, [0])])
    del ses[key]
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", ses)))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert repr(key) in out["error"]


# integer fields used to be read with int(x): 2.5 and "2" were taken as 2, true as 1
NON_INTEGERS = [
    ("hopf_strata", "strata", ("q",), 2.5, "q"),
    ("hopf_strata", "strata", ("q",), "2", "q"),
    ("hopf_strata", "strata", ("q",), True, "q"),
    ("hopf_strata", "strata", ("strata", 1, "codim"), 2.0, "strata[1].codim"),
    ("hopf_strata", "strata", ("strata", 0, "quotient_poincare", 0), True, "quotient_poincare"),
    ("hopf_morse", "morse", ("dim_a",), "1", "dim_a"),
    ("hopf_morse", "morse", ("components", 1, "index"), 2.5, "components[1].index"),
    ("square", "polytope", ("q",), 4.0, "q"),
    ("square", "polytope", ("f_vector", 0), "4", "f_vector entry"),
    ("square", "polytope", ("vertex_edge_incidence", 0, 0), False, "vertex_edge_incidence"),
    ("hopf_module", "module", ("window",), 10.5, "window"),
    ("hopf_module", "module", ("dim_a",), True, "dim_a"),
    ("hopf_module", "module", ("generators", 1), "2", "generator degree"),
    ("hopf_module", "module", ("relations", 0, "entries", 0, "gen"), 0.0, "relation entry gen"),
    ("hopf_gstar", "equivariant", ("lie", "dimension"), "1", "lie.dimension"),
    ("sphere3_split_ses", "cohomology", ("window", 1), 3.5, "window entry"),
    ("sphere3_split_ses", "cohomology", ("sub", "dims", "2"), "1", "sub.dims[2]"),
    ("module_ses", "module", ("first_map", 0, 0, "gen"), True, "first_map gen"),
]


@pytest.mark.parametrize("name,command,path,value,field", NON_INTEGERS)
def test_integer_fields_must_be_json_integers(tmp_path, capsys, name, command, path, value,
                                              field):
    if name == "module_ses":
        doc = cli.document_for("ses", _module_ses([_entry(0, [0])]))
    else:
        doc = json.loads((DATA / f"{name}.json").read_text())
    _set_path(doc["payload"], path, value)
    p = tmp_path / "mutant.json"
    p.write_text(json.dumps(doc))
    for cmd in (command, "validate"):
        code, out = run_json(capsys, cmd, "--input", str(p))
        assert code == cli.EXIT_INVALID_INPUT, cmd
        assert field in out["error"], cmd


def test_module_envelope_reports_the_window_it_used(tmp_path, capsys):
    # hopf_module.json has window 10 and no max_degree of its own
    code, out = run_json(capsys, "module", "--input", doc_path("hopf_module"))
    assert code == cli.EXIT_OK
    assert out["max_degree"] == out["results"]["window"] == 10
    assert len(out["results"]["hilbert"]) == 11
    code, out = run_json(capsys, "module", "--input", doc_path("hopf_module"),
                         "--max-degree", "4")
    assert out["max_degree"] == 10
    ses = _module_ses([_entry(0, [0])])
    ses["total"]["window"] = 4
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", ses, 8)))
    code, out = run_json(capsys, "module", "--input", str(p))
    assert code == cli.EXIT_OK and out["max_degree"] == 4  # the smallest of the three


def test_module_on_complex_ses_names_the_type(capsys):
    code, out = run_json(capsys, "module", "--input", doc_path("sphere3_split_ses"))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == "module expects a ses document of type 'module', got 'complex'"


def test_cohomology_on_module_ses_names_the_type(tmp_path, capsys):
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", _module_ses([_entry(0, [0])]))))
    code, out = run_json(capsys, "cohomology", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == "cohomology expects a ses document of type 'complex', got 'module'"


# command -> (the kinds it takes, the ses types it takes), written out apart from
# cli.COMMANDS so that a change to the table shows here
TAKES = {
    "validate": (cli.KINDS, ("complex", "module")),
    "cohomology": (("gstar_algebra", "ses"), ("complex",)),
    "equivariant": (("gstar_algebra",), ()),
    "spectral": (("gstar_algebra",), ()),
    "module": (("module_presentation", "ses"), ("module",)),
    "strata": (("strata_model",), ()),
    "morse": (("morse_data",), ()),
    "polytope": (("polytope",), ()),
}


def _refusal(command, doc):
    """The error for a document that command does not take, or None when it takes it."""
    kinds, ses_types = TAKES[command]
    kind, t = doc["kind"], doc["payload"].get("type")
    if kind not in kinds and len(kinds) == 1:
        return f"{command} expects a {kinds[0]} document"
    if kind not in kinds:
        return f"{command} expects {kinds[0]} or {kinds[1]}, got {kind}"
    if kind == "ses" and t not in ses_types and len(ses_types) == 1:
        return f"{command} expects a ses document of type {ses_types[0]!r}, got {t!r}"
    if kind == "ses" and t not in ses_types:
        return "ses payload needs type 'complex' or 'module'"
    return None


def test_every_command_on_every_kind(tmp_path, capsys):
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))}
    docs["module_ses"] = cli.document_for("ses", _module_ses([_entry(0, [0])]))
    docs["chain_ses"] = cli.document_for("ses", dict(_module_ses([]), type="chain"))
    assert {d["kind"] for d in docs.values()} == set(cli.KINDS)
    refused = 0
    for name, doc in docs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        for command in TAKES:
            where = f"{command} on {name}"
            code, out = run_json(capsys, command, "--input", str(p))
            assert code in (0, 1, 2, 3) and out["exit_code"] == code, where
            assert ("error" in out) == ("results" not in out), where
            expected = _refusal(command, doc)
            if expected is not None:
                refused += 1
                assert (code, out.get("error")) == (cli.EXIT_INVALID_INPUT, expected), where
            elif "error" in out:
                assert code == cli.EXIT_INVALID_INPUT, where
    assert refused > len(docs) * 4


ONE = [[1]]
LINE = {"dims": {"0": 1, "1": 1, "2": 1}, "d": {"0": ONE, "1": ONE}}  # d_1 d_0 = 1
FLAT = {"dims": {"0": 1, "1": 1, "2": 1}, "d": {}}
ZERO = {"dims": {}, "d": {}}
IDENTITY = {"0": ONE, "1": ONE, "2": ONE}
# the complex with d^2 != 0 -> (sub, total, quotient, inclusion, projection, error prefix).
# A chain map from a complex onto the quotient makes its d^2 vanish too, so a
# bad quotient under a good total is caught as a projection that is no chain map.
BAD_SQUARE_SES = {
    "sub": (LINE, LINE, ZERO, IDENTITY, {}, "sub: d_1 d_0 != 0"),
    "total": (ZERO, LINE, LINE, {}, IDENTITY, "total: d_1 d_0 != 0"),
    "quotient": (ZERO, FLAT, LINE, {}, IDENTITY, "projection is not a chain map at degree 0"),
}


@pytest.mark.parametrize("command", ["validate", "cohomology"])
@pytest.mark.parametrize("bad", sorted(BAD_SQUARE_SES))
def test_complex_ses_with_nonzero_d_squared_exits_2(tmp_path, capsys, bad, command):
    # a sub or total complex with d^2 != 0 used to raise a ValueError out of main
    sub, total, quotient, inclusion, projection, prefix = BAD_SQUARE_SES[bad]
    payload = {"type": "complex", "window": [0, 2], "sub": sub, "total": total,
               "quotient": quotient, "inclusion": inclusion, "projection": projection}
    p = tmp_path / "ses.json"
    p.write_text(json.dumps(cli.document_for("ses", payload)))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    message = out["results"]["issues"][0] if command == "validate" else out["error"]
    assert message.startswith(prefix)


def test_module_command_builds_one_realization(capsys, monkeypatch):
    from foliacoh import module_theory

    builds, passes = [], []
    init, koszul = module_theory.ModuleRealization.__init__, module_theory.koszul_tor

    def counting_init(self, pres):
        builds.append(pres)
        init(self, pres)

    def counting_koszul(pres):
        passes.append(pres)
        return koszul(pres)

    monkeypatch.setattr(module_theory.ModuleRealization, "__init__", counting_init)
    monkeypatch.setattr(module_theory, "koszul_tor", counting_koszul)
    first, _ = run(capsys, "module", "--input", doc_path("hopf_module"))
    assert (len(builds), len(passes)) == (1, 1)
    second, _ = run(capsys, "module", "--input", doc_path("hopf_module"))
    assert (len(builds), len(passes)) == (2, 2)
    assert builds[0] is not builds[1] and first == second == 0


def test_spectral_command_builds_one_complex(capsys, monkeypatch):
    from foliacoh.cartan import CartanComplex

    builds = []
    init = CartanComplex.__init__

    def counting_init(self, s, n_max):
        builds.append(n_max)
        init(self, s, n_max)

    monkeypatch.setattr(CartanComplex, "__init__", counting_init)
    code, _ = run(capsys, "spectral", "--input", doc_path("hopf_gstar"))
    assert code == 0 and builds == [8]


@pytest.mark.parametrize("command", ["equivariant", "spectral"])
def test_d_squared_nonzero_is_input_error(tmp_path, capsys, command):
    payload = {
        "lie": {"dimension": 0, "brackets": []},
        "degrees": {"0": ["a"], "1": ["b"], "2": ["c"]},
        "d": {"0": [[1]], "1": [[1]]},
        "i": [],
        "L": [],
    }
    p = tmp_path / "d_squared.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", payload, 2)))
    code, out = run_json(capsys, command, "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "does not square to zero" in out["error"]
    code, out = run_json(capsys, "validate", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT


def test_spectral_nonzero_l_is_input_error(tmp_path, capsys):
    so3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
    payload = cli.gstar_to_payload(weil_algebra(so3, 3))
    p = tmp_path / "weil_so3.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", payload, 3)))
    code, out = run_json(capsys, "spectral", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "nonzero L-operators" in out["error"]


def test_spectral_nonabelian_is_input_error(tmp_path, capsys):
    # so(3) acting trivially on a point: valid, with equivariant cohomology
    # R[p1], but the ambient Cartan basis of spectral is not invariant
    brackets = {(0, 1, 2): 1, (0, 2, 1): -1, (1, 2, 0): 1}
    payload = {
        "lie": {"dimension": 3, "brackets": [
            {"i": i, "j": j, "k": k, "value": v} for (i, j, k), v in brackets.items()]},
        "degrees": {"0": ["1"]},
        "d": {}, "i": [{}, {}, {}], "L": [{}, {}, {}],
    }
    p = tmp_path / "so3_point.json"
    p.write_text(json.dumps(cli.document_for("gstar_algebra", payload, 6)))
    assert run_json(capsys, "validate", "--input", str(p))[0] == cli.EXIT_OK
    code, out = run_json(capsys, "equivariant", "--input", str(p))
    assert (code, out["results"]["equivariant_dims"]) == (cli.EXIT_OK, [1, 0, 0, 0, 1, 0, 0])
    code, out = run_json(capsys, "spectral", "--input", str(p))
    assert code == cli.EXIT_INVALID_INPUT
    assert "non-abelian Lie algebra" in out["error"]


# W(R) truncated at N = 5 certifies degrees through 3; above N its free-module
# count used to read uncertified degrees and disagree with the factorization
@pytest.mark.parametrize("window", [6, 7, 8, 9])
def test_spectral_above_a_truncated_weil_window(tmp_path, capsys, window):
    w = weil_algebra(LieAlgebraSpec.abelian(1), 5)
    results = []
    for s in (w, change_basis(w, random.Random(5))):
        p = tmp_path / "weil_r1_n5.json"
        p.write_text(json.dumps(cli.document_for("gstar_algebra", cli.gstar_to_payload(s), 5)))
        code, out = run_json(capsys, "spectral", "--input", str(p), "--max-degree", str(window))
        assert code == cli.EXIT_OK
        assert out["results"]["formal"] is True and out["results"]["stable_through"] == 3
        results.append(out["results"])
    assert results[0] == results[1]


# each products entry is checked when the document is parsed, though only
# validate builds the product matrices
@pytest.mark.parametrize("command", ["validate", "equivariant", "spectral", "cohomology"])
@pytest.mark.parametrize("entry,message", [
    ({"left": [1, 7], "right": [2, 0], "value": [[0, 5]]},
     "product [1, 7] x [2, 0]: [1, 7] is not the [degree, index] of a basis element"),
    ({"left": [1, 0], "right": [2, 0], "value": [[4, 5]]},
     "product [1, 0] x [2, 0]: target index 4 is not an integer in [0, 1)"),
    ({"left": [1, 0], "right": [2, 0], "value": [[0, "1/0"]]},
     "bad rational '1/0': Fraction(1, 0)"),
    ({"left": [1, 0], "right": [2, 0]}, "malformed gstar_algebra payload: 'value'"),
    ({"left": [1, 0], "right": [2, 0], "value": [[0, 5]]},
     "product [1, 0] x [2, 0] is listed twice"),
], ids=["index", "target", "rational", "key", "twice"])
def test_a_malformed_products_entry_is_bad_input_under_every_command(
        tmp_path, capsys, command, entry, message):
    doc = json.loads((DATA / "hopf_gstar.json").read_text())
    doc["payload"]["products"].insert(0, entry)
    p = tmp_path / "products.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, command, "--input", str(p))
    assert (code, out["error"]) == (cli.EXIT_INVALID_INPUT, message)


@pytest.mark.parametrize("lie,n", [(LieAlgebraSpec.abelian(2), 6), (SO3, 4)],
                         ids=["W(R^2) N=6", "W(so(3)) N=4"])
def test_equivariant_builds_no_product_table_and_formats_no_label(monkeypatch, lie, n):
    doc = cli.document_for("gstar_algebra", cli.gstar_to_payload(weil_algebra(lie, n)), n)
    s = cli._parse(doc["kind"], doc["payload"])

    def no_label(m):
        raise AssertionError("a Weil monomial label, and so a tensor label, was formatted")

    monkeypatch.setattr(gstar, "_mono_label", no_label)
    code, results = cli._cmd_equivariant(s, n)
    assert code == cli.EXIT_OK and results["cross_check_ok"]
    assert "products" not in vars(s.algebra)


def test_strata_and_polytope_validate_and_sum_once(capsys, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    validate, series = foliation.validate_strata, foliation.equivariant_series_from_strata
    for module in (foliation, cli):
        monkeypatch.setattr(module, "validate_strata", counting("strata", validate))
        monkeypatch.setattr(module, "equivariant_series_from_strata", counting("sum", series))
    monkeypatch.setattr(foliation.PolytopeData, "validate",
                        counting("polytope", foliation.PolytopeData.validate))
    assert run(capsys, "strata", "--input", doc_path("hopf_strata"))[0] == cli.EXIT_OK
    assert calls == ["sum", "strata"]
    calls.clear()
    assert run(capsys, "polytope", "--input", doc_path("square"))[0] == cli.EXIT_OK
    assert calls == ["polytope", "sum", "strata"]  # the second model is the induced one
    calls.clear()
    bad = foliation.FoliationStrataModel(q=3, dim_a=2, strata=())
    for fn in (foliation.equivariant_series_from_strata, foliation.basic_series_formal):
        with pytest.raises(ValueError, match="invalid strata model: a closed leaf"):
            fn(bad._replace(strata=(foliation.Stratum("p", 2, 2, PoincarePolynomial([1])),)))
    with pytest.raises(ValueError, match="invalid polytope data: q must equal"):
        foliation.polytope_series(foliation.PolytopeData((4, 4, 1), 3))


def test_morse_validates_and_sums_once(capsys, monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(foliation.MorseData, "validate",
                        counting("validate", foliation.MorseData.validate))
    series = foliation.morse_series
    for module in (foliation, cli):
        monkeypatch.setattr(module, "morse_series", counting("sum", series))
    code, out = run(capsys, "morse", "--input", doc_path("hopf_morse"))
    assert code == cli.EXIT_OK and json.loads(out)["results"]["perfect"] is True
    assert calls == ["sum", "validate"]  # hopf_morse has a basic_poincare: the check ran
    calls.clear()
    # called on its own, each function still validates
    bad = foliation.MorseData((foliation.MorseComponent(0, PoincarePolynomial([1]), 2),))
    with pytest.raises(foliation.InvalidRecord, match="invalid Morse data: component 0: "
                       "isotropy dimension 2 exceeds dim_a = 1"):
        foliation.perfectness_check(bad, PoincarePolynomial([1]), 1)
    assert calls == ["sum", "validate"]


def test_deterministic_output_bytes(capsys):
    _, out1 = run(capsys, "equivariant", "--input", doc_path("hopf_gstar"))
    _, out2 = run(capsys, "equivariant", "--input", doc_path("hopf_gstar"))
    assert out1 == out2


def test_output_file_and_text_format(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, _ = run(
        capsys, "polytope", "--input", doc_path("segment"), "--output", str(out_path)
    )
    assert code == 0
    saved = json.loads(out_path.read_text())
    assert saved["results"]["basic_polynomial"] == [1, 0, 1]
    code, out = run(capsys, "polytope", "--input", doc_path("segment"), "--format", "text")
    assert code == 0
    assert "basic_polynomial: [1, 0, 1]" in out


@pytest.mark.parametrize("argv", [
    ["polytope", "--input", doc_path("segment")],
    ["polytope", "--input", doc_path("absent")],  # bad input, and nowhere to say so
    ["fixtures", "--list"],
])
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    # an --output in a missing directory used to raise FileNotFoundError out of main
    target = tmp_path / "missing" / "result.json"
    code = cli.main(argv + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID_INPUT
    assert captured.out == ""
    assert captured.err == f"foliacoh: cannot write {target}: No such file or directory\n"


def test_text_format_prints_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema_version": 99, "kind": "polytope", "payload": {}}))
    code, out = run(capsys, "polytope", "--input", str(p), "--format", "text")
    assert code == cli.EXIT_INVALID_INPUT
    assert out.splitlines()[0] == "foliacoh polytope (schema 1)"
    assert any(line.startswith("error: ") and "schema_version" in line
               for line in out.splitlines())


def test_threads_variable_changes_nothing(capsys, monkeypatch):
    monkeypatch.delenv("FOLIACOH_THREADS", raising=False)
    _, plain = run(capsys, "polytope", "--input", doc_path("segment"))
    monkeypatch.setenv("FOLIACOH_THREADS", "4")
    _, hinted = run(capsys, "polytope", "--input", doc_path("segment"))
    assert hinted == plain


# -- fixtures subcommand -----------------------------------------------------------------


def test_fixtures_all_pass(capsys):
    code, out = run_json(capsys, "fixtures")
    assert code == 0
    assert out["results"]["all_passed"] is True


def test_fixtures_filter(capsys):
    code, out = run_json(capsys, "fixtures", "--filter", "hopf")
    assert code == 0
    names = [o["name"] for o in out["results"]["outcomes"]]
    assert names and all("hopf" in n for n in names)


def test_fixtures_filter_that_matches_nothing_is_bad_input(capsys):
    code, out = run_json(capsys, "fixtures", "--filter", "nomatch")
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == "no fixture name contains 'nomatch'"
    assert "results" not in out


def test_fixtures_list_applies_the_filter(capsys):
    code, out = run_json(capsys, "fixtures", "--list", "--filter", "nomatch")
    assert code == cli.EXIT_INVALID_INPUT
    assert out["error"] == "no fixture name contains 'nomatch'"
    code, out = run_json(capsys, "fixtures", "--list", "--filter", "polytope/")
    assert code == 0
    assert out["results"]["fixtures"] == [
        n for n in fixtures.list_fixture_names() if n.startswith("polytope/")
    ]


def test_fixtures_list(capsys):
    code, out = run_json(capsys, "fixtures", "--list")
    assert code == 0
    assert "polytope/segment" in out["results"]["fixtures"]


def test_perturbed_fixture_reports_named_failure():
    # flip one expected coefficient; the harness must name the failing entry
    originals = fixtures._fixture_list()
    perturbed = [
        fixtures.Fixture(f.name, f.run, (1, 0, 2) if f.name == "polytope/segment" else f.expected)
        for f in originals
    ]
    outcomes = fixtures.run_fixtures(fixtures=perturbed)
    failed = [o for o in outcomes if not o.passed]
    assert [o.name for o in failed] == ["polytope/segment"]
