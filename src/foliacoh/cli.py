"""File formats and the command-line surface.

Documents are UTF-8 JSON with an envelope {schema_version, kind, max_degree,
payload}; all numbers are integers or exact rationals written as strings
"p/q" (see docs/FORMAT.md and schema/input-v1.json).  Results echo a hash of
the canonicalized input and carry a stable-window bound next to every
numeric claim; output bytes are deterministic for identical input and
version.

``main`` is the document boundary: ``COMMANDS`` names the kinds each command
takes, and ``_parse`` turns a payload of the wrong shape into an
``InputError``.  The ``parse_*`` functions raise whatever such a payload
makes them raise.

Exit codes: 0 ok, 1 a verified property failed, 2 invalid input,
3 window inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .algebra_core import (
    CochainComplex,
    GradedVectorSpace,
    InconsistentOperatorData,
    ShortExactSequence,
    check_ses,
    cohomology_dims,
    les_exactness_check,
)
from .cartan import DifferentialNotSquareZero, equivariant_cohomology, generator_degrees
from .foliation import (
    FoliationStrataModel,
    InvalidRecord,
    MorseComponent,
    MorseData,
    PolytopeData,
    Stratum,
    basic_series_formal,
    equivariant_series_from_strata,
    morse_series,
    perfectness_check,
    polytope_series,
    validate_strata,
)
from .gstar import (
    GradedAlgebraPresentation,
    GStarStructure,
    LieAlgebraSpec,
    basic_subcomplex,
    check_gstar_axioms,
    check_operator_laws,
    weil_model_cohomology,
)
from .module_theory import (
    GradedModulePresentation,
    PresentationError,
    depth_dim_cm,
    freeness_test,
    hilbert,
    localized_rank,
    ses_cm_check,
)
from .ratmat import RationalMatrix
from .series import PoincarePolynomial, PoincareSeriesRational, euler_at_minus_one
from .spectral import NonInvariantAction, formality_verdict, run_pages

SCHEMA_VERSION = 1
KINDS = ("gstar_algebra", "strata_model", "morse_data", "polytope", "module_presentation", "ses")

EXIT_OK = 0
EXIT_VERDICT_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_INCONCLUSIVE = 3


class InputError(ValueError):
    pass


# -- rational / matrix (de)serialization ------------------------------------------


def _rat(x) -> Fraction:
    if isinstance(x, bool):
        raise InputError(f"expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational {x!r}: {exc}") from None
    raise InputError(f"numbers must be integers or 'p/q' strings, got {x!r}")


def _is_int(x, lo: int | None = None, hi: int | None = None) -> bool:
    """Whether x is a JSON integer (not a bool) in [lo, hi); None leaves a side open."""
    return type(x) is int and (lo is None or lo <= x) and (hi is None or x < hi)


def _int(x, where: str) -> int:
    """x, when it is a JSON integer; otherwise an InputError that names the field."""
    if not _is_int(x):
        raise InputError(f"{where} must be an integer, got {x!r}")
    return x


def _str(x, where: str) -> str:
    """x, when it is a JSON string; otherwise an InputError that names the field."""
    if not isinstance(x, str):
        raise InputError(f"{where} must be a string, got {x!r}")
    return x


def _degree(key, where: str, negative: bool = False) -> int:
    """The degree a key names; a key must be its canonical decimal, so no two name one degree.

    Degrees are >= 0 unless ``negative`` is set (a complex ses may have a window below 0).
    """
    digits = key[1:] if negative and isinstance(key, str) and key[:1] == "-" else key
    if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()
            and str(int(key)) == key):
        what = "a decimal integer" if negative else "a decimal integer >= 0"
        raise InputError(f"{where} key {key!r} is not a degree ({what})")
    return int(key)


def _rat_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_in(obj, rows: int, cols: int, where: str) -> RationalMatrix:
    if not isinstance(obj, list) or len(obj) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in obj
    ):
        raise InputError(f"{where}: expected a {rows}x{cols} matrix")
    # a row of ints is passed on as it is, and read with no Fraction
    return RationalMatrix(
        rows, cols, [r if set(map(type, r)) <= {int} else [_rat(x) for x in r] for r in obj]
    )


def _operator_in(obj, source, target, k: int, where: str, negative: bool = False) -> dict:
    """Per degree key n of obj, a degree-k map's target.dim(n + k) x source.dim(n) matrix at n."""
    out = {}
    for key, m in obj.items():
        n = _degree(key, where, negative)
        out[n] = _matrix_in(m, target.dim(n + k), source.dim(n), f"{where} at degree {n}")
    return out


def _poly_vector_in(entries, n: int, where: str) -> tuple[dict, ...]:
    """The n polynomials that {gen, monomial, coeff} entries give; repeated terms add up."""
    polys: list[dict] = [{} for _ in range(n)]
    for e in entries:
        g = _int(e["gen"], f"{where} gen")
        if not 0 <= g < n:
            raise InputError(f"{where} gen {g} is not a generator index")
        mono = tuple(_int(x, f"{where} monomial exponent") for x in e["monomial"])
        polys[g][mono] = polys[g].get(mono, Fraction(0)) + _rat(e["coeff"])
    return tuple(polys)


def _poly_in(obj, where: str) -> PoincarePolynomial:
    """A dimension polynomial: a list of integer coefficients, none negative."""
    if not isinstance(obj, list) or any(not _is_int(c) for c in obj):
        raise InputError(f"{where}: expected a list of integer coefficients")
    if any(c < 0 for c in obj):
        raise InputError(f"{where}: negative coefficient in an unsigned dimension polynomial")
    return PoincarePolynomial(obj)


def _series_out(s: PoincareSeriesRational):
    return {"numerator": list(s.numerator.coeffs), "den_exp": s.den_exp}


# -- g*-algebra documents -----------------------------------------------------------


def parse_gstar(payload) -> GStarStructure:
    lie_obj = payload["lie"]
    r = _int(lie_obj["dimension"], "lie.dimension")
    brackets = {}
    for b in lie_obj.get("brackets", []):
        i, j, k = (_int(b[key], f"bracket {key}") for key in "ijk")
        if k in brackets.setdefault((i, j), {}):
            raise InputError(f"bracket ({i}, {j}, {k}) is listed twice")
        brackets[(i, j)][k] = _rat(b["value"])
    lie = LieAlgebraSpec(r, brackets)
    labels = {}
    for n, names in payload["degrees"].items():
        if not isinstance(names, list) or any(not isinstance(x, str) for x in names):
            raise InputError(f"degrees[{n!r}] must be a list of label strings, got {names!r}")
        labels[_degree(n, "degrees")] = tuple(names)
    dims = {n: len(names) for n, names in labels.items()}
    trunc = payload.get("truncated_above")
    if trunc is not None and not _is_int(trunc, 0):
        raise InputError(f"truncated_above must be an integer >= 0 or null, got {trunc!r}")
    # a truncated algebra's window reaches its cutoff, with no basis element there or not
    top = max(dims, default=0)
    window = (0, top if trunc is None else max(top, trunc))
    space = GradedVectorSpace(dims, labels, window=window)
    unit, table = payload.get("unit", 0), payload.get("products", [])
    # with no product table there is no unit element for the index to name
    if not _is_int(unit, 0, None if table is None else space.dim(0)):
        rule = ">= 0 when products is null" if table is None else f"in [0, {space.dim(0)})"
        raise InputError(f"unit must be an integer {rule}, got {unit!r}")
    products = _products_in(table, space, unit)
    algebra = GradedAlgebraPresentation(
        space, products, unit_index=unit, truncated_above=trunc
    )
    d = _operator_in(payload.get("d", {}), space, space, 1, "d")
    i_list = payload.get("i", [])
    l_list = payload.get("L", [])
    if len(i_list) != r or len(l_list) != r:
        raise InputError(f"need {r} entries in 'i' and 'L' (one per generator)")
    i_ops = [_operator_in(obj, space, space, -1, f"i[{j}]") for j, obj in enumerate(i_list)]
    l_ops = [_operator_in(obj, space, space, 0, f"L[{j}]") for j, obj in enumerate(l_list)]
    return GStarStructure(algebra, lie, d, i_ops, l_ops)


def _products_in(obj, space: GradedVectorSpace, unit: int):
    """A callable building the M_{a,b} of a products list, unit products added; None for null.

    Every entry is checked here and goes straight into per-pair (target,
    ia * dim_b + ib, value) lists, with integer values kept as ints; a pair
    listed twice is an InputError.  The matrices are built on the first read
    of the algebra's ``products``, which only ``validate`` makes.
    """
    if obj is None:
        return None
    entries: dict[tuple[int, int], list] = {}
    seen = set()
    for p in obj:
        (da, ia), (db, ib) = p["left"], p["right"]
        for deg, idx in ((da, ia), (db, ib)):
            if not (_is_int(deg) and _is_int(idx, 0, space.dim(deg))):
                raise InputError(
                    f"product {p['left']} x {p['right']}: [{deg!r}, {idx!r}] is not "
                    f"the [degree, index] of a basis element"
                )
        if (da, ia, db, ib) in seen:
            raise InputError(f"product {p['left']} x {p['right']} is listed twice")
        seen.add((da, ia, db, ib))
        col, dim = ia * space.dim(db) + ib, space.dim(da + db)
        out = entries.setdefault((da, db), [])
        for k, c in p["value"]:
            if not _is_int(k, 0, dim):
                raise InputError(
                    f"product {p['left']} x {p['right']}: target index {k!r} is not "
                    f"an integer in [0, {dim})"
                )
            out.append((k, col, c if type(c) is int else _rat(c)))
    d0 = space.dim(0)
    for n in space.degrees():
        for i in range(space.dim(n)):
            for key, pair, col in (((0, unit, n, i), (0, n), unit * space.dim(n) + i),
                                   ((n, i, 0, unit), (n, 0), i * d0 + unit)):
                if key not in seen:
                    seen.add(key)
                    entries.setdefault(pair, []).append((i, col, 1))
    return lambda: {
        (da, db): RationalMatrix.from_entries(space.dim(da + db), space.dim(da) * space.dim(db), e)
        for (da, db), e in entries.items()
    }


def gstar_to_payload(s: GStarStructure) -> dict:
    sp = s.space
    lie = s.lie
    brackets = []
    for (i, j), comps in sorted(lie.brackets.items()):
        for k, c in sorted(comps.items()):
            brackets.append({"i": i, "j": j, "k": k, "value": _rat_out(c)})
    payload = {
        "lie": {"dimension": lie.dimension, "brackets": brackets},
        "degrees": {str(n): list(sp.labels[n]) for n in sorted(sp.dims)},
        "unit": s.algebra.unit_index,
        "truncated_above": s.algebra.truncated_above,
    }
    products = None
    if s.algebra.has_products():
        # one entry per nonzero column of each M_{a,b}, sorted by (da, ia, db, ib)
        terms = []
        for (da, db), m in s.algebra.products.items():
            nb = sp.dim(db)
            terms += [(da, c // nb, db, c % nb, col)
                      for c, col in enumerate(m.nonzero_columns()) if col]
        products = [
            {"left": [da, ia], "right": [db, ib], "value": [[k, _rat_out(x)] for k, x in col]}
            for da, ia, db, ib, col in sorted(terms, key=lambda t: t[:4])
        ]
    payload["products"] = products

    def mats_out(get):
        out = {}
        for n in sp.degrees():
            m = get(n)
            if not m.is_zero():
                out[str(n)] = [[_rat_out(x) for x in r] for r in m.tolist()]
        return out

    payload["d"] = mats_out(s.op_d)
    payload["i"] = [mats_out(lambda n, j=j: s.op_i(j, n)) for j in range(lie.dimension)]
    payload["L"] = [mats_out(lambda n, j=j: s.op_l(j, n)) for j in range(lie.dimension)]
    return payload


# -- strata / morse / polytope / module documents -----------------------------------


def parse_strata(payload) -> FoliationStrataModel:
    strata = tuple(
        Stratum(
            name=_str(s.get("name", f"stratum{k}"), f"strata[{k}].name"),
            codim=_int(s["codim"], f"strata[{k}].codim"),
            isotropy_dim=_int(s["isotropy_dim"], f"strata[{k}].isotropy_dim"),
            quotient_poincare=_poly_in(s["quotient_poincare"], "quotient_poincare"),
        )
        for k, s in enumerate(payload["strata"])
    )
    return FoliationStrataModel(
        q=_int(payload["q"], "q"), dim_a=_int(payload["dim_a"], "dim_a"), strata=strata
    )


def strata_to_payload(m: FoliationStrataModel) -> dict:
    return {
        "q": m.q,
        "dim_a": m.dim_a,
        "strata": [
            {
                "name": s.name,
                "codim": s.codim,
                "isotropy_dim": s.isotropy_dim,
                "quotient_poincare": list(s.quotient_poincare.coeffs),
            }
            for s in m.strata
        ],
    }


class MorseDocument(NamedTuple):
    """A parsed morse_data payload."""

    data: MorseData
    dim_a: int
    basic: PoincarePolynomial | None


def parse_morse(payload) -> MorseDocument:
    comps = tuple(
        MorseComponent(
            index=_int(c["index"], f"components[{k}].index"),
            quotient_poincare=_poly_in(c["quotient_poincare"], "quotient_poincare"),
            isotropy_dim=_int(c["isotropy_dim"], f"components[{k}].isotropy_dim"),
        )
        for k, c in enumerate(payload["components"])
    )
    dim_a = _int(payload["dim_a"], "dim_a")
    basic = payload.get("basic_poincare")
    basic_poly = _poly_in(basic, "basic_poincare") if basic is not None else None
    return MorseDocument(MorseData(comps), dim_a, basic_poly)


def parse_polytope(payload) -> PolytopeData:
    inc = payload.get("vertex_edge_incidence")
    return PolytopeData(
        f_vector=tuple(_int(x, "f_vector entry") for x in payload["f_vector"]),
        q=_int(payload["q"], "q"),
        vertex_edge_incidence=tuple(
            tuple(_int(e, "vertex_edge_incidence entry") for e in v) for v in inc
        )
        if inc is not None
        else None,
    )


def parse_module(payload) -> GradedModulePresentation:
    dim_a = _int(payload["dim_a"], "dim_a")
    gens = tuple(_int(g, "generator degree") for g in payload["generators"])
    rels = tuple(_poly_vector_in(rel["entries"], len(gens), "relation entry")
                 for rel in payload.get("relations", []))
    return GradedModulePresentation(
        dim_a, gens, rels, window=_int(payload.get("window", 12), "window")
    )


def _parse_complex(obj, window, where: str) -> CochainComplex:
    dims = {_degree(n, f"{where}.dims", True): _int(d, f"{where}.dims[{n}]")
            for n, d in obj.get("dims", {}).items()}
    space = GradedVectorSpace(dims, window=window)
    return CochainComplex(
        space, _operator_in(obj.get("d", {}), space, space, 1, f"{where}.d", True))


def parse_ses_complex(payload) -> ShortExactSequence:
    window = payload["window"]
    if not isinstance(window, list) or len(window) != 2:
        raise InputError(f"window must be a two-element list [lo, hi], got {window!r}")
    window = tuple(_int(x, "window entry") for x in window)
    if window[0] > window[1]:
        raise InputError(f"window {list(window)} has lo > hi")
    sub = _parse_complex(payload["sub"], window, "sub")
    total = _parse_complex(payload["total"], window, "total")
    quot = _parse_complex(payload["quotient"], window, "quotient")
    maps = [_operator_in(payload.get(where, {}), src.spaces, tgt.spaces, 0, where, True)
            for where, src, tgt in (("inclusion", sub, total), ("projection", total, quot))]
    return ShortExactSequence(sub, total, quot, *maps)


def _parse_module_map(obj, n_src: int, n_tgt: int, where: str):
    """Per source generator, its image's polynomial on each target generator."""
    if not isinstance(obj, list) or len(obj) != n_src:
        got = len(obj) if isinstance(obj, list) else "no list"
        raise InputError(f"{where} needs one image list per source generator: "
                         f"{n_src} expected, got {got}")
    return tuple(_poly_vector_in(entries, n_tgt, where) for entries in obj)


class ModuleSES(NamedTuple):
    """A parsed module ses payload: 0 -> sub -> total -> quotient -> 0."""

    sub: GradedModulePresentation
    total: GradedModulePresentation
    quotient: GradedModulePresentation
    first_map: tuple
    second_map: tuple


def parse_ses_module(payload) -> ModuleSES:
    a = parse_module(payload["sub"])
    b = parse_module(payload["total"])
    c = parse_module(payload["quotient"])
    na, nb, nc = len(a.generators), len(b.generators), len(c.generators)
    f = _parse_module_map(payload["first_map"], na, nb, "first_map")
    g = _parse_module_map(payload["second_map"], nb, nc, "second_map")
    return ModuleSES(a, b, c, f, g)


# what a payload describes -> the name of its parser, looked up when it is
# called, so that a wrapper set on the module attribute sees every call
PARSERS = {
    "gstar_algebra": "parse_gstar",
    "strata_model": "parse_strata",
    "morse_data": "parse_morse",
    "polytope": "parse_polytope",
    "module_presentation": "parse_module",
    "complex ses": "parse_ses_complex",
    "module ses": "parse_ses_module",
}


def _parse(kind: str, payload: dict):
    """The object a payload describes; a payload of the wrong shape is an InputError.

    A ses payload's type has been checked already.
    """
    what = f"{payload['type']} ses" if kind == "ses" else kind
    parse = globals()[PARSERS[what]]
    try:
        return parse(payload)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed {what} payload: {exc}") from None


# -- document envelope ----------------------------------------------------------------


def canonical_bytes(doc) -> bytes:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"`` in UTF-8, built faster.

    The indented encoder runs in pure Python.  Here a list of ints or of
    strings is one join, a list of records (every ``products`` list) is
    one %-format per record, strings and keys go through the C string
    encoder, and any other leaf, or a dict with a key that is not a string,
    is written by ``json.dumps`` itself.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    return ("".join(out) + "\n").encode("utf-8")


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append obj as ``json.dumps(obj, sort_keys=True, indent=2)`` writes it at newline's depth.

    A list of records takes ``_records``; any other list is written item by item.
    """
    t = type(obj)
    inner = newline + "  "
    if t is list and obj and type(obj[0]) is dict and (records := _records(obj, inner)):
        out.append("[" + inner + ("," + inner).join(records) + newline + "]")
    elif t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is int:
        out.append(str(obj))
    elif t is dict and obj and set(map(type, obj)) == {str}:
        sep = "{" + inner
        for k in sorted(obj):
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write_json(obj[k], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif (t is list or t is tuple) and obj:
        kinds = set(map(type, obj))
        if kinds == {int}:
            leaves = map(str, obj)
        elif kinds == {str}:
            leaves = map(encode_basestring_ascii, obj)
        else:
            sep = "[" + inner
            for x in obj:
                out.append(sep)
                _write_json(x, inner, out)
                sep = "," + inner
            out.append(newline + "]")
            return
        out.append("[" + inner + ("," + inner).join(leaves) + newline + "]")
    else:
        out.append(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def _records(items: list, newline: str) -> list[str] | None:
    """Each item as ``_write_json`` writes it at newline's depth when all are records, else None.

    A record is a non-empty dict with string keys whose every value is a
    non-empty list of ints or a non-empty list of equal-length, non-empty
    lists of ints (``type(x) is int``, so no bool).  Its ints fill one
    %-format string, built once per signature (its keys and value shapes)
    in this call: keys escaped as JSON strings with each ``%`` doubled, and
    one ``%d`` per int.
    """
    formats: dict[tuple, str] = {}
    orders: dict[tuple, list[str]] = {}
    out = []
    for item in items:
        if type(item) is not dict:
            return None
        keys = tuple(item)
        order = orders.get(keys)
        if order is None:
            if set(map(type, keys)) != {str}:
                return None
            order = orders[keys] = sorted(keys)
        shapes, ints = [], []
        for k in order:
            v = item[k]
            kinds = set(map(type, v)) if type(v) is list else None
            if kinds == {int}:
                shapes.append(len(v))
                ints += v
            elif kinds == {list} and len(set(map(len, v))) == 1:
                flat = list(itertools.chain.from_iterable(v))
                if set(map(type, flat)) != {int}:
                    return None
                shapes.append((len(v), len(v[0])))
                ints += flat
            else:
                return None
        signature = (keys, *shapes)
        fmt = formats.get(signature)
        if fmt is None:
            fmt = formats[signature] = _record_format(order, shapes, newline)
        out.append(fmt % tuple(ints))
    return out


def _record_format(keys: list[str], shapes: list[int | tuple[int, int]], newline: str) -> str:
    """The %-format of a record with these sorted keys and value shapes at newline's depth."""
    i1, i2, i3 = (newline + "  " * k for k in (1, 2, 3))

    def ints(n: int, at: str, close: str) -> str:
        return "[" + at + ("," + at).join(["%d"] * n) + close + "]"

    fields = [
        encode_basestring_ascii(k).replace("%", "%%") + ": " + (
            ints(shape, i2, i1) if type(shape) is int
            else "[" + i2 + ("," + i2).join([ints(shape[1], i3, i2)] * shape[0]) + i1 + "]")
        for k, shape in zip(keys, shapes)]
    return "{" + i1 + ("," + i1).join(fields) + newline + "}"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key that appears twice in it is an InputError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise InputError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def load_document(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read") from None
    if not isinstance(doc, dict):
        raise InputError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            f"unsupported schema_version {doc.get('schema_version')!r}; this build speaks {SCHEMA_VERSION}"
        )
    kind = doc.get("kind")
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
    if "payload" not in doc or not isinstance(doc["payload"], dict):
        raise InputError("missing payload object")
    if "max_degree" in doc and not _is_int(doc["max_degree"], 0):
        raise InputError(f"max_degree must be an integer >= 0, got {doc['max_degree']!r}")
    try:
        digest = hashlib.sha256(canonical_bytes(doc)).hexdigest()
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read") from None
    return doc, digest


def document_for(kind: str, payload: dict, max_degree: int | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}
    if max_degree is not None:
        doc["max_degree"] = max_degree
    return doc


# -- subcommand implementations ---------------------------------------------------------


def _cmd_validate(obj, n_max):
    """The issues of a parsed document; a module presentation's constructor checked it."""
    issues: list[str] = []
    if isinstance(obj, GStarStructure):
        issues += obj.algebra.check_algebra() if obj.algebra.has_products() else []
        issues += obj.lie.validate()
        report = check_gstar_axioms(obj)
        issues += [f"{c.name}: {c.witness}" for c in report.failures()]
    elif isinstance(obj, FoliationStrataModel):
        issues += validate_strata(obj).issues
    elif isinstance(obj, PolytopeData):
        issues += obj.validate().issues
    elif isinstance(obj, ShortExactSequence):
        err = check_ses(obj)
        issues += [err] if err else []
    elif isinstance(obj, MorseDocument):
        issues += obj.data.validate(obj.dim_a).issues
    elif isinstance(obj, ModuleSES):
        rep = ses_cm_check(*obj)
        issues += [] if rep.is_ses else [rep.detail]
    code = EXIT_OK if not issues else EXIT_INVALID_INPUT
    return code, {"valid": not issues, "issues": issues}


def _cmd_cohomology(s, n_max):
    if isinstance(s, ShortExactSequence):
        rep = les_exactness_check(s)
        if rep.input_error:
            raise InputError(rep.input_error)
        code = EXIT_OK if rep.ok else EXIT_VERDICT_FAILURE
        return code, {
            "long_exact": rep.ok,
            "connecting_ranks": {str(k): v for k, v in (rep.connecting_ranks or {}).items()},
            "message": rep.message,
        }
    axioms = check_operator_laws(s)
    if not axioms.ok:
        raise InputError(
            "operator package violates the structure axioms: "
            + "; ".join(f"{c.name} ({c.witness})" for c in axioms.failures())
        )
    basic = basic_subcomplex(s)
    h = cohomology_dims(basic.complex)
    top = s.algebra.window_tops.through(n_max, "homotopy")
    return EXIT_OK, {
        "basic_dims": [basic.complex.spaces.dim(n) for n in range(top + 1)],
        "basic_cohomology": [h.dim(n) for n in range(top + 1)],
        "stable_through": top,
    }


def _cmd_equivariant(s, n_max):
    e = equivariant_cohomology(s, n_max)
    upto = e.stable_through
    w = weil_model_cohomology(s, upto)
    agree = e.dims_tuple(upto) == w.dims_tuple(upto)
    code = EXIT_OK if agree else EXIT_VERDICT_FAILURE
    return code, {
        "equivariant_dims": list(e.dims_tuple(upto)),
        "weil_model_dims": list(w.dims_tuple(upto)),
        "cross_check_ok": agree,
        "module_generator_degrees": list(generator_degrees(e)),
        "stable_through": upto,
    }


def _cmd_spectral(s, n_max):
    e = equivariant_cohomology(s, n_max)
    base = cohomology_dims(s.as_complex()).dims_tuple(n_max)
    run = run_pages(e, base)
    verdict = formality_verdict(e, base)
    code = EXIT_OK if run.totals_match_equivariant else EXIT_VERDICT_FAILURE
    return code, {
        "e1_totals": list(run.pages[0].total_dims()),
        "e_infinity_totals": list(run.e_infinity.total_dims()),
        "stabilized_at_page": run.stabilized_at,
        "totals_match_equivariant": run.totals_match_equivariant,
        "formal": verdict.formal,
        "method": verdict.method,
        "witness": verdict.witness,
        "stable_through": run.stable_through,
        "detail": run.detail,
    }


def _cmd_module(m, n_max):
    """(exit code, results, window): a module is computed on its own window."""
    if isinstance(m, ModuleSES):
        rep = ses_cm_check(*m)
        window = min(m.sub.window, m.total.window, m.quotient.window)
        if not rep.is_ses:
            raise InputError(rep.detail)
        results = {"is_ses": True, "hypotheses_met": rep.hypotheses_met, "detail": rep.detail}
        if not rep.hypotheses_met:  # then there is no conclusion to check
            return EXIT_OK, results, window
        results["conclusion_holds"] = rep.conclusion_holds
        return EXIT_OK if rep.conclusion_holds else EXIT_VERDICT_FAILURE, results, window
    h = hilbert(m)
    tor = m.tor
    fr = freeness_test(m)
    lr = localized_rank(m)
    dd = depth_dim_cm(m)
    code = EXIT_OK
    if not (h.certified and lr.conclusive and dd.conclusive):
        code = EXIT_INCONCLUSIVE
    return code, {
        "hilbert": list(h.coefficients),
        "hilbert_closed_form": _series_out(h.closed_form) if h.certified else None,
        "tor_dims": [
            {"i": i, "degree": n, "dim": d} for (i, n), d in sorted(tor.dims.items())
        ],
        "free": fr.free,
        "generator_ranks": list(fr.ranks),
        "freeness_scoped": fr.scoped,
        "localized_rank": lr.rank,
        "localized_rank_conclusive": lr.conclusive,
        "depth": dd.depth,
        "krull_dim": dd.krull_dim,
        "cohen_macaulay": dd.cohen_macaulay,
        "window": m.window,
    }, m.window


def _cmd_strata(m, n_max):
    eq = equivariant_series_from_strata(m)  # the one validation
    result = {
        "equivariant_series": _series_out(eq),
        "equivariant_expansion": list(eq.expand(n_max)),
        "stable_through": n_max,
    }
    try:
        basic = basic_series_formal(m, equivariant=eq)
        result["basic_polynomial"] = list(basic.polynomial.coeffs)
        result["euler_characteristic"] = euler_at_minus_one(basic.polynomial)
        result["formality_provenance"] = basic.formality_provenance
        code = EXIT_OK
    except ValueError as exc:
        result["basic_polynomial"] = None
        result["formality_error"] = str(exc)
        code = EXIT_VERDICT_FAILURE
    return code, result


def _cmd_morse(morse, n_max):
    d, dim_a, basic = morse
    ms = morse_series(d, dim_a)  # the one validation
    result = {
        "basic_morse_series": list(ms.basic.coeffs),
        "equivariant_morse_series": _series_out(ms.equivariant),
        "stable_through": n_max,
    }
    code = EXIT_OK
    if basic is not None:
        verdict = perfectness_check(d, basic, dim_a, n_max, ms)
        result["perfect"] = verdict.perfect
        result["detail"] = verdict.detail
        if verdict.gap.ok:
            result["gap_quotient"] = list(verdict.gap.quotient.coeffs)
        else:
            result["violation_degree"] = verdict.gap.violation_degree
            code = EXIT_VERDICT_FAILURE
    return code, result


def _cmd_polytope(p, n_max):
    r = polytope_series(p)  # the one validation
    code = EXIT_OK if r.cross_check_ok else EXIT_VERDICT_FAILURE
    return code, {
        "basic_polynomial": list(r.polynomial.coeffs),
        "euler_characteristic": r.euler_characteristic,
        "formal": r.formal,
        "cross_check_ok": r.cross_check_ok,
        "induced_strata": strata_to_payload(r.induced_model),
        "stable_through": None,  # closed formula, exact in every degree
    }


def _cmd_fixtures(name_filter=None, list_only=False):
    from . import fixtures  # which imports this module
    found = (fixtures.list_fixture_names if list_only else fixtures.run_fixtures)(name_filter)
    if not found:
        raise InputError(f"no fixture name contains {name_filter!r}")
    if list_only:
        return EXIT_OK, {"fixtures": found}
    results = [
        {
            "name": o.name,
            "passed": o.passed,
            "expected": repr(o.expected),
            "actual": repr(o.actual),
        }
        for o in found
    ]
    ok = all(o.passed for o in found)
    code = EXIT_OK if ok else EXIT_VERDICT_FAILURE
    return code, {"all_passed": ok, "count": len(found), "outcomes": results}


# command -> (implementation, the document kinds it takes, the ses types it takes);
# main checks a document against this table and hands the parsed payload on
COMMANDS = {
    "validate": (_cmd_validate, KINDS, ("complex", "module")),
    "cohomology": (_cmd_cohomology, ("gstar_algebra", "ses"), ("complex",)),
    "equivariant": (_cmd_equivariant, ("gstar_algebra",), ()),
    "spectral": (_cmd_spectral, ("gstar_algebra",), ()),
    "module": (_cmd_module, ("module_presentation", "ses"), ("module",)),
    "strata": (_cmd_strata, ("strata_model",), ()),
    "morse": (_cmd_morse, ("morse_data",), ()),
    "polytope": (_cmd_polytope, ("polytope",), ()),
}


def _emit(result_doc: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(result_doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"foliacoh {result_doc['command']} (schema {SCHEMA_VERSION})"]
        if "input_sha256" in result_doc:
            lines.append(f"input sha256: {result_doc['input_sha256']}")
        def walk(obj, indent="  "):
            out = []
            if isinstance(obj, dict):
                for k in sorted(obj):
                    v = obj[k]
                    if isinstance(v, (dict, list)) and v and not _is_flat(v):
                        out.append(f"{indent}{k}:")
                        out += walk(v, indent + "  ")
                    else:
                        out.append(f"{indent}{k}: {v}")
            elif isinstance(obj, list):
                for v in obj:
                    if isinstance(v, (dict, list)):
                        out += walk(v, indent + "  ")
                        out.append(indent + "-")
                    else:
                        out.append(f"{indent}- {v}")
            return out
        lines += walk(result_doc.get("results", {}))
        if "error" in result_doc:
            lines.append(f"error: {result_doc['error']}")
        for note in result_doc.get("diagnostics", {}).get("notes", []):
            lines.append(f"note: {note}")
        text = "\n".join(lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_flat(v) -> bool:
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foliacoh",
        description="Exact-arithmetic equivariant basic cohomology engine",
    )
    parser.add_argument("--version", action="version", version=f"foliacoh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="input document (JSON)")
        p.add_argument("--output", help="write the result document here instead of stdout")
        p.add_argument("--max-degree", type=int, default=None,
                       help="window top; overrides the document's max_degree")
        p.add_argument("--format", choices=("json", "text"), default="json")
    pf = sub.add_parser("fixtures")
    pf.add_argument("--filter", default=None, help="run only fixtures whose name contains this")
    pf.add_argument("--list", action="store_true", help="list fixture names and exit")
    pf.add_argument("--output", help="write the result document here instead of stdout")
    pf.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _command_for(command: str, doc: dict):
    """command's implementation; an InputError when it does not take doc's kind or ses type."""
    run, kinds, ses_types = COMMANDS[command]
    kind = doc["kind"]
    if kind not in kinds:
        if len(kinds) == 1:
            raise InputError(f"{command} expects a {kinds[0]} document")
        raise InputError(f"{command} expects {' or '.join(kinds)}, got {kind}")
    t = doc["payload"].get("type")
    if kind == "ses" and t not in ses_types:
        if len(ses_types) == 1:
            raise InputError(
                f"{command} expects a ses document of type {ses_types[0]!r}, got {t!r}"
            )
        raise InputError("ses payload needs type " + " or ".join(map(repr, ses_types)))
    return run


def _finish(args, code: int, **fields) -> int:
    """Emit the result envelope and return the exit code: 2 when it cannot be written."""
    result_doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        **fields,
        "diagnostics": {"notes": [], "version": __version__},
        "exit_code": code,
    }
    try:
        _emit(result_doc, args.format, args.output)
    except OSError as exc:
        print(f"foliacoh: cannot write {args.output or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_INVALID_INPUT
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fixtures":
            code, results = _cmd_fixtures(args.filter, args.list)
            return _finish(args, code, results=results)
        doc, digest = load_document(args.input)
        n_max = args.max_degree
        if n_max is None:
            n_max = doc.get("max_degree", 8)
        if n_max < 0:
            raise InputError("max degree must be >= 0")
        run = _command_for(args.command, doc)
        # a command that computes on a window of its own returns it third
        code, results, *window = run(_parse(doc["kind"], doc["payload"]), n_max)
    except (InputError, DifferentialNotSquareZero, InconsistentOperatorData, NonInvariantAction,
            PresentationError) as exc:
        return _finish(args, EXIT_INVALID_INPUT, error=str(exc))
    except InvalidRecord as exc:  # a record that fails the validation its command runs
        return _finish(args, EXIT_INVALID_INPUT, error="; ".join(exc.issues))
    max_degree = window[0] if window else n_max
    return _finish(args, code, input_sha256=digest, max_degree=max_degree, results=results)


if __name__ == "__main__":
    sys.exit(main())
