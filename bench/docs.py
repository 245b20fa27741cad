"""Seeded input documents for the benchmark.

Documents are built only through the package's public API (``weil_algebra``,
``gstar_to_payload``, ``document_for``) and then transformed as plain JSON,
with the arithmetic written out here, so the generator shares no linear
algebra with the engine it feeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

SO3_BRACKETS = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
MODULE_COEFFS = tuple(Fraction(c) for c in (1, -1, 2, -2, 3, -3, "1/2", "-2/3"))


def _rat_out(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def weil_document(api, lie_dim: int, n: int) -> dict:
    """W(g) truncated at degree n, g = R^lie_dim (abelian) or so(3)."""
    if lie_dim == 3:
        lie = api.LieAlgebraSpec(3, SO3_BRACKETS)
    else:
        lie = api.LieAlgebraSpec.abelian(lie_dim)
    payload = api.gstar_to_payload(api.weil_algebra(lie, n))
    return api.document_for("gstar_algebra", payload, n)


# -- change of basis ----------------------------------------------------------------


def _unit_lu(rng: random.Random, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """T = L U and T^-1, with L, U unit triangular and off-diagonals in [-2, 2]."""
    low = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(k)] for i in range(k)]
    up = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(k)] for i in range(k)]
    t = [[sum(low[i][m] * up[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
    # unit triangular inverses by substitution, exact in the integers
    low_inv = [[0] * k for _ in range(k)]
    up_inv = [[0] * k for _ in range(k)]
    for j in range(k):
        low_inv[j][j] = 1
        for i in range(j + 1, k):
            low_inv[i][j] = -sum(low[i][m] * low_inv[m][j] for m in range(j, i))
        up_inv[j][j] = 1
        for i in range(j - 1, -1, -1):
            up_inv[i][j] = -sum(up[i][m] * up_inv[m][j] for m in range(i + 1, j + 1))
    t_inv = [[sum(up_inv[i][m] * low_inv[m][j] for m in range(k)) for j in range(k)] for i in range(k)]
    return t, t_inv


def _matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(a[i][m] * b[m][j] for m in range(inner) if a[i][m]) for j in range(cols)]
            for i in range(len(a))]


def change_basis(doc: dict, seed: int) -> dict:
    """The same g*-algebra in the basis e'_j = sum_i T_n[i][j] e_i of each degree n.

    T_0 is the identity, so the unit stays basis vector 0.  d, every i_j and
    L_j, and the product table are carried over; the document describes an
    isomorphic algebra, so every result section must be unchanged.
    """
    rng = random.Random(seed)
    p = doc["payload"]
    dims = {int(n): len(labels) for n, labels in p["degrees"].items()}
    t, t_inv = {}, {}
    for n in sorted(dims):
        if n == 0:
            t[n] = t_inv[n] = [[1 if i == j else 0 for j in range(dims[n])] for i in range(dims[n])]
        else:
            t[n], t_inv[n] = _unit_lu(rng, dims[n])

    def ops(obj, delta):
        out = {}
        for n_str, m in obj.items():
            n = int(n_str)
            a = [[Fraction(x) for x in row] for row in m]
            a2 = _matmul(_matmul(t_inv[n + delta], a), t[n])
            if any(x for row in a2 for x in row):
                out[n_str] = [[_rat_out(Fraction(x)) for x in row] for row in a2]
        return out

    # products as a full table in the old basis, then each new pair expanded
    table: dict[tuple[int, int, int, int], dict[int, Fraction]] = {}
    for e in p["products"]:
        (da, ia), (db, ib) = e["left"], e["right"]
        table[(da, ia, db, ib)] = {int(k): Fraction(c) for k, c in e["value"]}
    unit = p["unit"]
    products = []
    degs = sorted(dims)
    for da in degs:
        for db in degs:
            dc = da + db
            if dc not in dims:
                continue
            for a in range(dims[da]):
                col_a = [(i, t[da][i][a]) for i in range(dims[da]) if t[da][i][a]]
                for b in range(dims[db]):
                    if (da == 0 and a == unit) or (db == 0 and b == unit):
                        continue  # implied by the unit
                    col_b = [(j, t[db][j][b]) for j in range(dims[db]) if t[db][j][b]]
                    old = [Fraction(0)] * dims[dc]
                    for i, ci in col_a:
                        for j, cj in col_b:
                            for k, c in table.get((da, i, db, j), {}).items():
                                old[k] += ci * cj * c
                    new = [sum(t_inv[dc][k][m] * old[m] for m in range(dims[dc]) if old[m])
                           for k in range(dims[dc])]
                    terms = [[k, _rat_out(Fraction(c))] for k, c in enumerate(new) if c]
                    if terms:
                        products.append({"left": [da, a], "right": [db, b], "value": terms})
    q = dict(p)
    q["degrees"] = {n: [f"e{n}_{i}" for i in range(len(labels))] for n, labels in p["degrees"].items()}
    q["products"] = products
    q["d"] = ops(p["d"], 1)
    q["i"] = [ops(m, -1) for m in p["i"]]
    q["L"] = [ops(m, 0) for m in p["L"]]
    out = dict(doc)
    out["payload"] = q
    return out


# -- module presentations -------------------------------------------------------------

MODULE_GENERATORS = (0, 0, 2, 2)


def _monomials(r: int, p: int) -> list[tuple[int, ...]]:
    if r == 1:
        return [(p,)]
    return [(a,) + rest for a in range(p, -1, -1) for rest in _monomials(r - 1, p - a)]


def _random_poly(rng: random.Random, r: int, p: int) -> dict[tuple[int, ...], Fraction]:
    return {m: rng.choice(MODULE_COEFFS) for m in _monomials(r, p)}


def random_presentation(rng: random.Random, n_rel: int = 4, rel_degree: int = 4):
    """Relations of one internal degree on generators MODULE_GENERATORS over Q[u0, u1]."""
    return [[_random_poly(rng, 2, (rel_degree - g) // 2) for g in MODULE_GENERATORS]
            for _ in range(n_rel)]


def _poly_mul(a, b):
    out: dict[tuple[int, ...], Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


def represent(rng: random.Random, rels):
    """The same module after an invertible graded change of generators.

    phi(e_l) = sum_k A[k][l] e_k, with A[k][l] homogeneous of degree
    deg e_l - deg e_k: unit triangular integer blocks on generators of equal
    degree, random linear forms from degree-2 generators to degree-0 ones.
    The relations become phi(rel), in shuffled order, so coker is unchanged.
    """
    gens = MODULE_GENERATORS
    k = len(gens)
    a = [[{} for _ in range(k)] for _ in range(k)]
    for deg in sorted(set(gens)):
        idx = [i for i, g in enumerate(gens) if g == deg]
        blk, _ = _unit_lu(rng, len(idx))
        for x, i in enumerate(idx):
            for y, j in enumerate(idx):
                if blk[x][y]:
                    a[i][j] = {(0, 0): Fraction(blk[x][y])}
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if gj - gi == 2:
                a[i][j] = _random_poly(rng, 2, 1)
    out = []
    for rel in rels:
        new = []
        for kk in range(k):
            acc: dict[tuple[int, ...], Fraction] = {}
            for l in range(k):
                for m, c in _poly_mul(rel[l], a[kk][l]).items():
                    acc[m] = acc.get(m, Fraction(0)) + c
            new.append({m: c for m, c in acc.items() if c})
        out.append(new)
    rng.shuffle(out)
    return out


def module_document(api, rels, window: int) -> dict:
    entries = [
        {"entries": [
            {"gen": g, "monomial": list(m), "coeff": _rat_out(c)}
            for g, poly in enumerate(rel) for m, c in sorted(poly.items())
        ]}
        for rel in rels
    ]
    payload = {"dim_a": 2, "window": window, "generators": list(MODULE_GENERATORS),
               "relations": entries}
    return api.document_for("module_presentation", payload)
