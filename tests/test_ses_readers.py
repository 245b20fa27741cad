"""The ses readers and the short-exactness check against the copies they replaced.

A complex ses's ``inclusion`` and ``projection`` used to have a reader of
their own, a module ses's maps one more, and ``check_ses`` and
``ses_cm_check`` each tested exactness in a loop of their own.  Those copies
are kept here as references.  On random payloads, good and broken, the
parsed objects and the verdicts must equal theirs, up to the renamed texts
in ``RENAMED`` and the one change of behaviour: a map that does not list
one image per source generator is now refused.
"""

import random
import re
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from foliacoh import cli
from foliacoh.algebra_core import check_ses, verify_complex
from foliacoh.module_theory import (
    GradedModulePresentation,
    PresentationError,
    _induced_matrix,
    ses_cm_check,
)

from conftest import random_cone_ses, random_split_ses


# -- the replaced copies ----------------------------------------------------------------


def reference_degree_matrices(obj, rows, cols, where):
    out = {}
    for key, m in obj.items():
        n = cli._degree(key, where, True)
        out[n] = cli._matrix_in(m, rows.dim(n), cols.dim(n), f"{where}[{n}]")
    return out


def reference_parse_ses_complex(payload):
    window = payload["window"]
    window = tuple(cli._int(x, "window entry") for x in window)
    sub = cli._parse_complex(payload["sub"], window, "sub")
    total = cli._parse_complex(payload["total"], window, "total")
    quot = cli._parse_complex(payload["quotient"], window, "quotient")
    incl = reference_degree_matrices(payload.get("inclusion", {}), total.spaces, sub.spaces,
                                     "inclusion")
    proj = reference_degree_matrices(payload.get("projection", {}), quot.spaces, total.spaces,
                                     "projection")
    return sub, total, quot, incl, proj


def reference_parse_module(payload):
    dim_a = cli._int(payload["dim_a"], "dim_a")
    gens = tuple(cli._int(g, "generator degree") for g in payload["generators"])
    rels = []
    for rel in payload.get("relations", []):
        polys = [dict() for _ in gens]
        for e in rel["entries"]:
            g = cli._int(e["gen"], "relation entry gen")
            if not 0 <= g < len(gens):
                raise cli.InputError(f"relation entry gen {g} is not a generator index")
            mono = tuple(cli._int(x, "relation monomial exponent") for x in e["monomial"])
            polys[g][mono] = polys[g].get(mono, Fraction(0)) + cli._rat(e["coeff"])
        rels.append(tuple(polys))
    return GradedModulePresentation(
        dim_a, gens, tuple(rels), window=cli._int(payload.get("window", 12), "window")
    )


def reference_parse_module_map(obj, n_src, n_tgt, where):
    out = []
    for g_idx in range(n_src):
        polys = [{} for _ in range(n_tgt)]
        for e in obj[g_idx]:
            tgt = cli._int(e["gen"], f"{where} gen")
            if not 0 <= tgt < n_tgt:
                raise cli.InputError(f"{where}: target gen {tgt} is not a generator index")
            mono = tuple(cli._int(x, f"{where} monomial exponent") for x in e["monomial"])
            polys[tgt][mono] = polys[tgt].get(mono, Fraction(0)) + cli._rat(e["coeff"])
        out.append(tuple(polys))
    return tuple(out)


def reference_parse_ses_module(payload):
    a = reference_parse_module(payload["sub"])
    b = reference_parse_module(payload["total"])
    c = reference_parse_module(payload["quotient"])
    na, nb, nc = len(a.generators), len(b.generators), len(c.generators)
    f = reference_parse_module_map(payload["first_map"], na, nb, "first_map")
    g = reference_parse_module_map(payload["second_map"], nb, nc, "second_map")
    return cli.ModuleSES(a, b, c, f, g)


def reference_check_ses(ses):
    a, b, c = ses.sub, ses.total, ses.quotient
    los = {a.spaces.window, b.spaces.window, c.spaces.window}
    if len(los) != 1:
        return "the three complexes declare different windows"
    lo, hi = a.spaces.window
    for n in range(lo, hi + 1):
        f, g = ses.incl(n), ses.proj(n)
        if (f.rows, f.cols) != (b.spaces.dim(n), a.spaces.dim(n)):
            return f"inclusion shape mismatch in degree {n}"
        if (g.rows, g.cols) != (c.spaces.dim(n), b.spaces.dim(n)):
            return f"projection shape mismatch in degree {n}"
        rank_f = f.rank()
        if rank_f != a.spaces.dim(n):
            return f"inclusion not injective in degree {n}"
        rank_g = g.rank()
        if rank_g != c.spaces.dim(n):
            return f"projection not surjective in degree {n}"
        if not (g @ f).is_zero():
            return f"projection o inclusion != 0 in degree {n}"
        if b.spaces.dim(n) - rank_g != rank_f:
            return f"im(inclusion) != ker(projection) in degree {n}"
    for n in range(lo, hi):
        if not (b.diff(n) @ ses.incl(n) - ses.incl(n + 1) @ a.diff(n)).is_zero():
            return f"inclusion is not a chain map at degree {n}"
        if not (c.diff(n) @ ses.proj(n) - ses.proj(n + 1) @ b.diff(n)).is_zero():
            return f"projection is not a chain map at degree {n}"
    for name, part in (("sub", a), ("total", b), ("quotient", c)):
        rep = verify_complex(part)
        if not rep.ok:
            return f"{name}: {rep.message}"
    return None


def reference_module_exactness(a, b, c, f, g):
    """The first failure of the old ``ses_cm_check`` degree loop, None when it passes."""
    window = min(a.window, b.window, c.window)
    ra, rb, rc = a.realization, b.realization, c.realization
    for n in range(window + 1):
        fm = _induced_matrix(ra, rb, f, n)
        gm = _induced_matrix(rb, rc, g, n)
        rank_f = fm.rank()
        if rank_f != ra.dim(n):
            return f"first map not injective in degree {n}"
        rank_g = gm.rank()
        if rank_g != rc.dim(n):
            return f"second map not surjective in degree {n}"
        if not (gm @ fm).is_zero():
            return f"composition nonzero in degree {n}"
        if rb.dim(n) - rank_g != rank_f:
            return f"im != ker in degree {n}"
    return None


# the texts that changed when the copies went: (old pattern, new text)
RENAMED = (
    (r"^(inclusion|projection)\[(-?\d+)\]: ", r"\1 at degree \2: "),
    (r"^relation monomial exponent", "relation entry monomial exponent"),
    (r"^(first_map|second_map): target gen ", r"\1 gen "),
    (r"^composition nonzero in degree", "second map o first map != 0 in degree"),
    (r"^im != ker in degree", "im(first map) != ker(second map) in degree"),
)


def renamed(text):
    for old, new in RENAMED:
        text = re.sub(old, new, text)
    return text


def outcome(parse, payload, what):
    """The parsed object, or the error text ``cli._parse`` would give for the payload."""
    try:
        return parse(payload)
    except cli.InputError as exc:
        return str(exc)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"malformed {what} payload: {exc}"


# -- complex ses payloads ---------------------------------------------------------------


def _grid(m):
    return [[cli._rat_out(x) for x in row] for row in m.tolist()]


def _complex_out(c):
    return {"dims": {str(n): d for n, d in c.spaces.dims.items()},
            "d": {str(n): _grid(m) for n, m in c.d.items()}}


COMPLEX_FAULTS = ("none", "drop_row", "drop_col", "extra_degree", "scale", "entry", "zero_map",
                  "extra_dim")


def complex_ses_payload(seed, fault):
    """A random split or cone ses of complexes, with one fault put in."""
    rng = random.Random(seed)
    ses = (random_split_ses if rng.random() < 0.5 else random_cone_ses)(rng, top=3, max_dim=4)
    payload = {"type": "complex", "window": list(ses.sub.spaces.window),
               "sub": _complex_out(ses.sub), "total": _complex_out(ses.total),
               "quotient": _complex_out(ses.quotient),
               "inclusion": {str(n): _grid(m) for n, m in ses.inclusion.items()},
               "projection": {str(n): _grid(m) for n, m in ses.projection.items()}}
    maps = payload[rng.choice(["inclusion", "projection"])]
    key = rng.choice(sorted(maps))
    grid = maps[key]
    if fault == "drop_row" and grid:
        maps[key] = grid[1:]
    elif fault == "drop_col" and grid and grid[0]:
        maps[key] = [row[1:] for row in grid]
    elif fault == "extra_degree":
        maps["7"] = [[1]]  # above the window, where every space is zero
    elif fault == "scale":
        c = rng.choice([0, 2, -3])
        maps[key] = [[cli._rat_out(Fraction(x) * c) for x in row] for row in grid]
    elif fault == "entry" and grid and grid[0]:
        i, j = rng.randrange(len(grid)), rng.randrange(len(grid[0]))
        grid[i][j] = cli._rat_out(Fraction(grid[i][j]) + rng.choice([-1, 1, 2]))
    elif fault == "zero_map":
        del maps[key]
    elif fault == "extra_dim":  # one more total dimension that both maps and d miss
        n = rng.randint(*payload["window"])
        total, at, below = payload["total"], str(n), str(n - 1)
        total["dims"][at] = total["dims"].get(at, 0) + 1
        d = total["d"]
        if at in d:
            d[at] = [row + [0] for row in d[at]]
        if below in d:
            d[below].append([0] * total["dims"].get(below, 0))
        payload["inclusion"][at].append([0] * payload["sub"]["dims"].get(at, 0))
        payload["projection"][at] = [row + [0] for row in payload["projection"][at]]
    return payload


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(COMPLEX_FAULTS))
@example(1, "drop_row").via("a matrix one row short")
@example(1, "drop_col").via("a matrix one column short")
@example(3, "scale").via("a map scaled in one degree")
def test_the_complex_ses_reader_and_check_match_the_replaced_copies(seed, fault):
    payload = complex_ses_payload(seed, fault)
    got = outcome(cli.parse_ses_complex, payload, "complex ses")
    want = outcome(reference_parse_ses_complex, payload, "complex ses")
    if isinstance(want, str):
        assert got == renamed(want)
        return
    assert (got.inclusion, got.projection) == want[3:]
    assert [x.spaces for x in got[:3]] == [x.spaces for x in want[:3]]
    assert [x.d for x in got[:3]] == [x.d for x in want[:3]]
    assert check_ses(got) == reference_check_ses(got)


# -- module ses payloads ----------------------------------------------------------------


def _entry(gen, monomial, coeff=1):
    return {"gen": gen, "monomial": list(monomial), "coeff": coeff}


def _module(rng, dim_a):
    """A random presentation payload: generators of degree 0 or 2, one-term relations."""
    gens = [rng.choice([0, 2]) for _ in range(rng.randint(1, 2))]
    rels = []
    for _ in range(rng.randint(0, 2)):
        g = rng.randrange(len(gens))
        mono = [rng.randint(0, 2) for _ in range(dim_a)]
        rels.append({"entries": [_entry(g, mono, rng.choice([1, -2, "1/2"]))]})
    return {"dim_a": dim_a, "window": rng.choice([4, 6]), "generators": gens, "relations": rels}


MODULE_FAULTS = ("none", "repeat", "gen_out_of_range", "bad_exponent", "long", "short",
                 "not_injective", "not_surjective", "composite", "extra_generator")


def module_ses_payload(seed, fault):
    """0 -> A -> A (+) C -> C -> 0 split, for random A and C, with one fault put in."""
    rng = random.Random(seed)
    dim_a = rng.choice([1, 2])
    sub, quot = _module(rng, dim_a), _module(rng, dim_a)
    na, nc = len(sub["generators"]), len(quot["generators"])
    zero = [0] * dim_a
    shifted = [{"entries": [dict(e, gen=e["gen"] + na) for e in rel["entries"]]}
               for rel in quot["relations"]]
    total = dict(sub, generators=sub["generators"] + quot["generators"],
                 relations=sub["relations"] + shifted, window=min(sub["window"], quot["window"]))
    first = [[_entry(i, zero)] for i in range(na)]
    second = [[] for _ in range(na)] + [[_entry(j, zero)] for j in range(nc)]
    payload = {"type": "module", "sub": sub, "total": total, "quotient": quot,
               "first_map": first, "second_map": second}
    # every list of entries: the maps' images and the relations of the parts
    holders = [x for x in first + second + [r["entries"] for r in total["relations"]
                                            + quot["relations"]] if x]
    entries = rng.choice(holders)
    k = rng.randrange(len(entries))
    e = entries[k]
    if fault == "repeat":  # one term c as the two entries c + 1 and -1
        entries[k:k + 1] = [dict(e, coeff=cli._rat_out(Fraction(e["coeff"]) + 1)),
                            dict(e, coeff=-1)]
    elif fault == "gen_out_of_range":
        e["gen"] = rng.choice([-1, 9])
    elif fault == "bad_exponent":
        e["monomial"] = [rng.choice([1.5, "1", True])] + e["monomial"][1:]
    elif fault in ("long", "short"):
        images = rng.choice([first, second])
        if fault == "long":
            images.append(rng.choice([[], "junk", [_entry(0, zero)]]))
        else:
            images.pop()
    elif fault == "not_injective":
        first[rng.randrange(na)] = []
    elif fault == "not_surjective":
        second[na + rng.randrange(nc)] = []
    elif fault == "composite":  # A's generator i also reaches C's generator j
        i, j = rng.randrange(na), rng.randrange(nc)
        gap = sub["generators"][i] - quot["generators"][j]
        if gap >= 0:
            first[i].append(_entry(na + j, [gap // 2] + zero[1:]))
    elif fault == "extra_generator":  # a free generator that neither map reaches
        total["generators"] = total["generators"] + [0]
        second.append([])
    return payload


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(MODULE_FAULTS))
@example(3, "long").via("a surplus image list")
@example(3, "short").via("an image list too few")
@example(5, "repeat").via("a repeated entry")
@example(4, "extra_generator").via("im != ker")
@example(0, "composite").via("a nonzero composite")
def test_the_module_ses_reader_and_check_match_the_replaced_copies(seed, fault):
    payload = module_ses_payload(seed, fault)
    got = outcome(cli.parse_ses_module, payload, "module ses")
    want = outcome(reference_parse_ses_module, payload, "module ses")
    for key, src in (("first_map", "sub"), ("second_map", "total")):
        n, want_n = len(payload[key]), len(payload[src]["generators"])
        if n != want_n:  # the one fault of this payload, which the copy missed or tripped on
            assert got == f"{key} needs one image list per source generator: " \
                          f"{want_n} expected, got {n}"
            return
    if isinstance(want, str):
        assert got == renamed(want)
        return
    assert got == want
    try:
        old = reference_module_exactness(*want)
    except PresentationError as exc:
        old = f"error: {exc}"
    try:
        rep = ses_cm_check(*got)
        new = None if rep.is_ses else rep.detail
    except PresentationError as exc:
        new = f"error: {exc}"
    assert new == (old and renamed(old))


def _verdicts(make, faults, check):
    """The failure texts, up to their degree, that make(seed, fault) reaches under check."""
    seen = set()
    for seed in range(60):
        for fault in faults:
            try:
                seen.add((check(make(seed, fault)) or "exact").partition(" in degree")[0])
            except (cli.InputError, PresentationError):
                pass
    return seen


def test_the_faults_reach_every_verdict():
    complex_seen = _verdicts(complex_ses_payload, COMPLEX_FAULTS,
                             lambda p: check_ses(cli.parse_ses_complex(p)))
    assert {"exact", "inclusion not injective", "projection not surjective",
            "projection o inclusion != 0", "im(inclusion) != ker(projection)"} <= complex_seen

    def module_check(payload):
        rep = ses_cm_check(*cli.parse_ses_module(payload))
        return None if rep.is_ses else rep.detail

    module_seen = _verdicts(module_ses_payload, MODULE_FAULTS, module_check)
    assert {"exact", "first map not injective", "second map not surjective",
            "second map o first map != 0", "im(first map) != ker(second map)"} <= module_seen
