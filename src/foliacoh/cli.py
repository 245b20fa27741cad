"""File formats and the command-line surface.

Documents are UTF-8 JSON with an envelope {schema_version, kind, max_degree,
payload}; all numbers are integers or exact rationals written as strings
"p/q" (see docs/FORMAT.md and schema/input-v1.json).  Results echo a hash of
the canonicalized input and carry a stable-window bound next to every
numeric claim; output bytes are deterministic for identical input and
version.

Exit codes: 0 ok, 1 a verified property failed, 2 invalid input,
3 window inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__, fixtures
from .algebra_core import (
    CochainComplex,
    GradedVectorSpace,
    ShortExactSequence,
    cohomology_dims,
    les_exactness_check,
)
from .cartan import DifferentialNotSquareZero, equivariant_cohomology
from .foliation import (
    FoliationStrataModel,
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


def _rat_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _matrix_in(obj, rows: int, cols: int, where: str) -> RationalMatrix:
    if not isinstance(obj, list) or len(obj) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in obj
    ):
        raise InputError(f"{where}: expected a {rows}x{cols} matrix")
    return RationalMatrix(rows, cols, [[_rat(x) for x in r] for r in obj])


def _matrix_out(m: RationalMatrix):
    return [[_rat_out(x) for x in r] for r in m.tolist()]


def _poly_in(obj, where: str, signed: bool = False) -> PoincarePolynomial:
    if not isinstance(obj, list) or any(not isinstance(c, int) for c in obj):
        raise InputError(f"{where}: expected a list of integer coefficients")
    try:
        return PoincarePolynomial(obj, signed=signed)
    except ValueError as exc:
        raise InputError(f"{where}: {exc}") from None


def _series_out(s: PoincareSeriesRational):
    return {"numerator": list(s.numerator.coeffs), "den_exp": s.den_exp}


# -- g*-algebra documents -----------------------------------------------------------


def parse_gstar(payload) -> GStarStructure:
    try:
        lie_obj = payload["lie"]
        r = int(lie_obj["dimension"])
        brackets = {}
        for b in lie_obj.get("brackets", []):
            i, j, k = int(b["i"]), int(b["j"]), int(b["k"])
            brackets.setdefault((i, j), {})[k] = _rat(b["value"])
        lie = LieAlgebraSpec(r, brackets)
        degrees = payload["degrees"]
        dims = {int(n): len(labels) for n, labels in degrees.items()}
        labels = {int(n): tuple(labels) for n, labels in degrees.items()}
        trunc = payload.get("truncated_above")
        if trunc is not None and not _is_int(trunc, 0):
            raise InputError(f"truncated_above must be an integer >= 0 or null, got {trunc!r}")
        top = max(dims, default=0)
        window = (0, top if trunc is None else max(top, 0))
        space = GradedVectorSpace(dims, labels, window=window)
        unit = int(payload.get("unit", 0))
        products = {}
        for p in payload.get("products", []):
            da, ia = int(p["left"][0]), int(p["left"][1])
            db, ib = int(p["right"][0]), int(p["right"][1])
            terms = []
            for k, c in p["value"]:
                if not _is_int(k, 0, space.dim(da + db)):
                    raise InputError(
                        f"product {p['left']} x {p['right']}: target index {k!r} is not "
                        f"an integer in [0, {space.dim(da + db)})"
                    )
                terms.append((k, _rat(c)))
            products[(da, ia, db, ib)] = tuple(terms)
        for n, d in dims.items():
            for i in range(d):
                products.setdefault((0, unit, n, i), ((i, Fraction(1)),))
                products.setdefault((n, i, 0, unit), ((i, Fraction(1)),))
        algebra = GradedAlgebraPresentation(
            space, products, unit_index=unit, truncated_above=trunc
        )

        def mats(obj, delta, where):
            out = {}
            for n_str, m in obj.items():
                n = int(n_str)
                out[n] = _matrix_in(
                    m, space.dim(n + delta), space.dim(n), f"{where} at degree {n}"
                )
            return out

        d = mats(payload.get("d", {}), 1, "d")
        i_list = payload.get("i", [])
        l_list = payload.get("L", [])
        if len(i_list) != r or len(l_list) != r:
            raise InputError(f"need {r} entries in 'i' and 'L' (one per generator)")
        i_ops = [mats(obj, -1, f"i[{j}]") for j, obj in enumerate(i_list)]
        l_ops = [mats(obj, 0, f"L[{j}]") for j, obj in enumerate(l_list)]
        return GStarStructure(algebra, lie, d, i_ops, l_ops)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed gstar_algebra payload: {exc}") from None


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
    products = []
    if s.algebra.has_products():
        for (da, ia, db, ib), terms in sorted(s.algebra.products.items()):
            products.append(
                {
                    "left": [da, ia],
                    "right": [db, ib],
                    "value": [[k, _rat_out(c)] for k, c in terms],
                }
            )
    payload["products"] = products

    def mats_out(get, delta):
        out = {}
        for n in sp.degrees():
            m = get(n)
            if not m.is_zero():
                out[str(n)] = _matrix_out(m)
        return out

    payload["d"] = mats_out(s.op_d, 1)
    payload["i"] = [mats_out(lambda n, j=j: s.op_i(j, n), -1) for j in range(lie.dimension)]
    payload["L"] = [mats_out(lambda n, j=j: s.op_l(j, n), 0) for j in range(lie.dimension)]
    return payload


# -- strata / morse / polytope / module documents -----------------------------------


def parse_strata(payload) -> FoliationStrataModel:
    try:
        strata = tuple(
            Stratum(
                name=str(s.get("name", f"stratum{k}")),
                codim=int(s["codim"]),
                isotropy_dim=int(s["isotropy_dim"]),
                quotient_poincare=_poly_in(s["quotient_poincare"], "quotient_poincare"),
            )
            for k, s in enumerate(payload["strata"])
        )
        return FoliationStrataModel(q=int(payload["q"]), dim_a=int(payload["dim_a"]), strata=strata)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed strata_model payload: {exc}") from None


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


def parse_morse(payload) -> tuple[MorseData, int, PoincarePolynomial | None]:
    try:
        comps = tuple(
            MorseComponent(
                index=int(c["index"]),
                quotient_poincare=_poly_in(c["quotient_poincare"], "quotient_poincare"),
                isotropy_dim=int(c["isotropy_dim"]),
            )
            for c in payload["components"]
        )
        dim_a = int(payload["dim_a"])
        basic = payload.get("basic_poincare")
        basic_poly = _poly_in(basic, "basic_poincare") if basic is not None else None
        return MorseData(comps), dim_a, basic_poly
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed morse_data payload: {exc}") from None


def morse_to_payload(d: MorseData, dim_a: int, basic: PoincarePolynomial | None) -> dict:
    out = {
        "dim_a": dim_a,
        "components": [
            {
                "index": c.index,
                "quotient_poincare": list(c.quotient_poincare.coeffs),
                "isotropy_dim": c.isotropy_dim,
            }
            for c in d.components
        ],
    }
    if basic is not None:
        out["basic_poincare"] = list(basic.coeffs)
    return out


def parse_polytope(payload) -> PolytopeData:
    try:
        inc = payload.get("vertex_edge_incidence")
        return PolytopeData(
            f_vector=tuple(int(x) for x in payload["f_vector"]),
            q=int(payload["q"]),
            vertex_edge_incidence=tuple(tuple(int(e) for e in v) for v in inc)
            if inc is not None
            else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed polytope payload: {exc}") from None


def polytope_to_payload(p: PolytopeData) -> dict:
    out = {"f_vector": list(p.f_vector), "q": p.q}
    if p.vertex_edge_incidence is not None:
        out["vertex_edge_incidence"] = [list(v) for v in p.vertex_edge_incidence]
    return out


def parse_module(payload) -> GradedModulePresentation:
    try:
        dim_a = int(payload["dim_a"])
        gens = tuple(int(g) for g in payload["generators"])
        rels = []
        for rel in payload.get("relations", []):
            polys = [dict() for _ in gens]
            for e in rel["entries"]:
                g = int(e["gen"])
                if not 0 <= g < len(gens):
                    raise InputError(f"relation entry gen {g} is not a generator index")
                mono = tuple(int(x) for x in e["monomial"])
                polys[g][mono] = polys[g].get(mono, Fraction(0)) + _rat(e["coeff"])
            rels.append(tuple(polys))
        return GradedModulePresentation(
            dim_a, gens, tuple(rels), window=int(payload.get("window", 12))
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed module_presentation payload: {exc}") from None


def module_to_payload(m: GradedModulePresentation) -> dict:
    rels = []
    for rel in m.relations:
        entries = []
        for g, poly in enumerate(rel):
            for mono, c in sorted(poly.items()):
                entries.append({"gen": g, "monomial": list(mono), "coeff": _rat_out(c)})
        rels.append({"entries": entries})
    return {
        "dim_a": m.dim_a,
        "window": m.window,
        "generators": list(m.generators),
        "relations": rels,
    }


def _parse_complex(obj, window, where: str) -> CochainComplex:
    dims = {int(n): int(d) for n, d in obj.get("dims", {}).items()}
    space = GradedVectorSpace(dims, window=window)
    d = {}
    for n_str, m in obj.get("d", {}).items():
        n = int(n_str)
        d[n] = _matrix_in(m, space.dim(n + 1), space.dim(n), f"{where}.d at degree {n}")
    return CochainComplex(space, d)


def parse_ses_complex(payload) -> ShortExactSequence:
    try:
        window = tuple(int(x) for x in payload["window"])
        sub = _parse_complex(payload["sub"], window, "sub")
        total = _parse_complex(payload["total"], window, "total")
        quot = _parse_complex(payload["quotient"], window, "quotient")
        incl = {
            int(n): _matrix_in(
                m, total.spaces.dim(int(n)), sub.spaces.dim(int(n)), f"inclusion[{n}]"
            )
            for n, m in payload.get("inclusion", {}).items()
        }
        proj = {
            int(n): _matrix_in(
                m, quot.spaces.dim(int(n)), total.spaces.dim(int(n)), f"projection[{n}]"
            )
            for n, m in payload.get("projection", {}).items()
        }
        return ShortExactSequence(sub, total, quot, incl, proj)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed complex ses payload: {exc}") from None


def _complex_to_payload(c: CochainComplex) -> dict:
    return {
        "dims": {str(n): d for n, d in sorted(c.spaces.dims.items())},
        "d": {str(n): _matrix_out(m) for n, m in sorted(c.d.items())},
    }


def ses_complex_to_payload(ses: ShortExactSequence) -> dict:
    return {
        "type": "complex",
        "window": list(ses.sub.spaces.window),
        "sub": _complex_to_payload(ses.sub),
        "total": _complex_to_payload(ses.total),
        "quotient": _complex_to_payload(ses.quotient),
        "inclusion": {str(n): _matrix_out(m) for n, m in sorted(ses.inclusion.items())},
        "projection": {str(n): _matrix_out(m) for n, m in sorted(ses.projection.items())},
    }


def _parse_module_map(obj, n_src: int, n_tgt: int, where: str):
    try:
        out = []
        for g_idx in range(n_src):
            entries = obj[g_idx]
            polys: dict[int, dict] = {}
            for e in entries:
                tgt = int(e["gen"])
                if not 0 <= tgt < n_tgt:
                    raise InputError(f"{where}: target gen {tgt} is not a generator index")
                mono = tuple(int(x) for x in e["monomial"])
                polys.setdefault(tgt, {})[mono] = _rat(e["coeff"])
            out.append(polys)
        return out
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed {where}: {exc}") from None


def parse_ses_module(payload):
    a = parse_module(payload["sub"])
    b = parse_module(payload["total"])
    c = parse_module(payload["quotient"])
    f_raw = _parse_module_map(
        payload["first_map"], len(a.generators), len(b.generators), "first_map"
    )
    g_raw = _parse_module_map(
        payload["second_map"], len(b.generators), len(c.generators), "second_map"
    )
    f = tuple(
        tuple(f_raw[i].get(j, {}) for j in range(len(b.generators)))
        for i in range(len(a.generators))
    )
    g = tuple(
        tuple(g_raw[i].get(j, {}) for j in range(len(c.generators)))
        for i in range(len(b.generators))
    )
    return a, b, c, f, g


def _ses_module_report(payload):
    """ses_cm_check on a module SES document, and the window it checks.

    A map of the wrong degree is bad input.
    """
    a, b, c, f, g = parse_ses_module(payload)
    try:
        return ses_cm_check(a, b, c, f, g), min(a.window, b.window, c.window)
    except PresentationError as exc:
        raise InputError(str(exc)) from None


# -- document envelope ----------------------------------------------------------------


def canonical_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def load_document(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError(f"{path} is not valid UTF-8 JSON: {exc}") from None
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
    digest = hashlib.sha256(canonical_bytes(doc)).hexdigest()
    return doc, digest


def document_for(kind: str, payload: dict, max_degree: int | None = None) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}
    if max_degree is not None:
        doc["max_degree"] = max_degree
    return doc


# -- subcommand implementations ---------------------------------------------------------


def _validate_payload(doc) -> tuple[int, dict]:
    kind = doc["kind"]
    payload = doc["payload"]
    issues: list[str] = []
    if kind == "gstar_algebra":
        s = parse_gstar(payload)
        issues += s.algebra.check_algebra() if s.algebra.has_products() else []
        issues += s.lie.validate()
        report = check_gstar_axioms(s)
        issues += [f"{c.name}: {c.witness}" for c in report.failures()]
    elif kind == "strata_model":
        issues += list(validate_strata(parse_strata(payload)).issues)
    elif kind == "morse_data":
        d, dim_a, _basic = parse_morse(payload)
        issues += list(d.validate(dim_a).issues)
    elif kind == "polytope":
        issues += list(parse_polytope(payload).validate().issues)
    elif kind == "module_presentation":
        parse_module(payload)  # constructor validates homogeneity
    elif kind == "ses":
        t = payload.get("type")
        if t == "complex":
            ses = parse_ses_complex(payload)
            rep = les_exactness_check(ses)
            if rep.input_error:
                issues.append(rep.input_error)
        elif t == "module":
            rep, _window = _ses_module_report(payload)
            if not rep.is_ses:
                issues.append(rep.detail)
        else:
            raise InputError("ses payload needs type 'complex' or 'module'")
    code = EXIT_OK if not issues else EXIT_INVALID_INPUT
    return code, {"valid": not issues, "issues": issues}


def _cmd_validate(doc, n_max):
    return _validate_payload(doc)


def _cmd_cohomology(doc, n_max):
    kind = doc["kind"]
    if kind == "ses":
        t = doc["payload"].get("type")
        if t != "complex":
            raise InputError(f"cohomology expects a ses document of type 'complex', got {t!r}")
        ses = parse_ses_complex(doc["payload"])
        rep = les_exactness_check(ses)
        if rep.input_error:
            raise InputError(rep.input_error)
        code = EXIT_OK if rep.ok else EXIT_VERDICT_FAILURE
        return code, {
            "long_exact": rep.ok,
            "connecting_ranks": {str(k): v for k, v in (rep.connecting_ranks or {}).items()},
            "message": rep.message,
        }
    if kind != "gstar_algebra":
        raise InputError(f"cohomology expects gstar_algebra or ses, got {kind}")
    s = parse_gstar(doc["payload"])
    axioms = check_gstar_axioms(s)
    if not axioms.ok:
        raise InputError(
            "operator package violates the structure axioms: "
            + "; ".join(f"{c.name} ({c.witness})" for c in axioms.failures())
        )
    basic = basic_subcomplex(s)
    h = cohomology_dims(basic.complex)
    # a genuinely finite algebra is exactly zero above its top degree
    top = n_max if s.truncated_above is None else min(n_max, basic.stable_through)
    return EXIT_OK, {
        "basic_dims": list(
            basic.complex.spaces.dim(n) for n in range(top + 1)
        ),
        "basic_cohomology": list(h.dim(n) for n in range(top + 1)),
        "stable_through": top,
    }


def _cmd_equivariant(doc, n_max):
    if doc["kind"] != "gstar_algebra":
        raise InputError("equivariant expects a gstar_algebra document")
    s = parse_gstar(doc["payload"])
    try:
        e = equivariant_cohomology(s, n_max)
    except DifferentialNotSquareZero as exc:
        raise InputError(str(exc)) from None
    w = weil_model_cohomology(s, min(n_max, e.stable_through))
    upto = min(n_max, e.stable_through, w.stable_through)
    agree = e.dims_tuple(upto) == w.dims_tuple(upto)
    code = EXIT_OK if agree else EXIT_VERDICT_FAILURE
    return code, {
        "equivariant_dims": list(e.dims_tuple(upto)),
        "weil_model_dims": list(w.dims_tuple(upto)),
        "cross_check_ok": agree,
        "module_generator_degrees": list(e.generator_degrees),
        "stable_through": upto,
    }


def _cmd_spectral(doc, n_max):
    if doc["kind"] != "gstar_algebra":
        raise InputError("spectral expects a gstar_algebra document")
    s = parse_gstar(doc["payload"])
    try:
        e = equivariant_cohomology(s, n_max)
        run = run_pages(s, n_max, e)
    except (DifferentialNotSquareZero, NonInvariantAction) as exc:
        raise InputError(str(exc)) from None
    h = cohomology_dims(s.as_complex())
    verdict = formality_verdict(e, h.dims_tuple(n_max), s.lie.dimension, n_max)
    code = EXIT_OK
    if run.totals_match_equivariant is False:
        code = EXIT_VERDICT_FAILURE
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


def _cmd_module(doc, n_max):
    """(exit code, results, window): a module is computed on its own window."""
    kind = doc["kind"]
    if kind == "ses":
        t = doc["payload"].get("type")
        if t != "module":
            raise InputError(f"module expects a ses document of type 'module', got {t!r}")
        rep, window = _ses_module_report(doc["payload"])
        if not rep.is_ses:
            raise InputError(rep.detail)
        if rep.conclusion_holds is None and not rep.hypotheses_met:
            return EXIT_OK, {
                "is_ses": True,
                "hypotheses_met": False,
                "detail": rep.detail,
            }, window
        code = EXIT_OK if rep.conclusion_holds else EXIT_VERDICT_FAILURE
        return code, {
            "is_ses": True,
            "hypotheses_met": rep.hypotheses_met,
            "conclusion_holds": rep.conclusion_holds,
            "detail": rep.detail,
        }, window
    if kind != "module_presentation":
        raise InputError(f"module expects module_presentation or ses, got {kind}")
    m = parse_module(doc["payload"])
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


def _cmd_strata(doc, n_max):
    if doc["kind"] != "strata_model":
        raise InputError("strata expects a strata_model document")
    m = parse_strata(doc["payload"])
    rep = validate_strata(m)
    if not rep.valid:
        raise InputError("; ".join(rep.issues))
    eq = equivariant_series_from_strata(m)
    result = {
        "equivariant_series": _series_out(eq),
        "equivariant_expansion": list(eq.expand(n_max)),
        "stable_through": n_max,
    }
    try:
        basic = basic_series_formal(m)
        result["basic_polynomial"] = list(basic.polynomial.coeffs)
        result["euler_characteristic"] = euler_at_minus_one(basic.polynomial)
        result["formality_provenance"] = basic.formality_provenance
        code = EXIT_OK
    except ValueError as exc:
        result["basic_polynomial"] = None
        result["formality_error"] = str(exc)
        code = EXIT_VERDICT_FAILURE
    return code, result


def _cmd_morse(doc, n_max):
    if doc["kind"] != "morse_data":
        raise InputError("morse expects a morse_data document")
    d, dim_a, basic = parse_morse(doc["payload"])
    rep = d.validate(dim_a)
    if not rep.valid:
        raise InputError("; ".join(rep.issues))
    ms = morse_series(d, dim_a)
    result = {
        "basic_morse_series": list(ms.basic.coeffs),
        "equivariant_morse_series": _series_out(ms.equivariant),
        "stable_through": n_max,
    }
    code = EXIT_OK
    if basic is not None:
        verdict = perfectness_check(d, basic, dim_a, n_max)
        result["perfect"] = verdict.perfect
        result["detail"] = verdict.detail
        if verdict.gap.ok:
            result["gap_quotient"] = list(verdict.gap.quotient.coeffs)
        else:
            result["violation_degree"] = verdict.gap.violation_degree
            code = EXIT_VERDICT_FAILURE
    return code, result


def _cmd_polytope(doc, n_max):
    if doc["kind"] != "polytope":
        raise InputError("polytope expects a polytope document")
    p = parse_polytope(doc["payload"])
    rep = p.validate()
    if not rep.valid:
        raise InputError("; ".join(rep.issues))
    r = polytope_series(p)
    code = EXIT_OK if r.cross_check_ok else EXIT_VERDICT_FAILURE
    return code, {
        "basic_polynomial": list(r.polynomial.coeffs),
        "euler_characteristic": r.euler_characteristic,
        "formal": r.formal,
        "cross_check_ok": r.cross_check_ok,
        "induced_strata": strata_to_payload(r.induced_model),
        "stable_through": None,  # closed formula, exact in every degree
    }


def _cmd_fixtures(doc, n_max, name_filter=None, list_only=False):
    if list_only:
        return EXIT_OK, {"fixtures": fixtures.list_fixture_names()}
    outcomes = fixtures.run_fixtures(name_filter)
    results = [
        {
            "name": o.name,
            "passed": o.passed,
            "expected": repr(o.expected),
            "actual": repr(o.actual),
        }
        for o in outcomes
    ]
    ok = all(o.passed for o in outcomes) and bool(outcomes)
    code = EXIT_OK if ok else EXIT_VERDICT_FAILURE
    return code, {"all_passed": ok, "count": len(outcomes), "outcomes": results}


COMMANDS = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "equivariant": _cmd_equivariant,
    "spectral": _cmd_spectral,
    "module": _cmd_module,
    "strata": _cmd_strata,
    "morse": _cmd_morse,
    "polytope": _cmd_polytope,
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    diagnostics = {"notes": [], "version": __version__}

    if args.command == "fixtures":
        code, results = _cmd_fixtures(None, None, args.filter, args.list)
        result_doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "fixtures",
            "results": results,
            "diagnostics": diagnostics,
            "exit_code": code,
        }
        _emit(result_doc, args.format, args.output)
        return code

    try:
        doc, digest = load_document(args.input)
        n_max = args.max_degree
        if n_max is None:
            n_max = doc.get("max_degree", 8)
        if n_max < 0:
            raise InputError("max degree must be >= 0")
        # a command that computes on a window of its own returns it third
        code, results, *window = COMMANDS[args.command](doc, n_max)
    except InputError as exc:
        result_doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": str(exc),
            "diagnostics": diagnostics,
            "exit_code": EXIT_INVALID_INPUT,
        }
        _emit(result_doc, args.format, args.output)
        return EXIT_INVALID_INPUT
    result_doc = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input_sha256": digest,
        "max_degree": window[0] if window else n_max,
        "results": results,
        "diagnostics": diagnostics,
        "exit_code": code,
    }
    _emit(result_doc, args.format, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
