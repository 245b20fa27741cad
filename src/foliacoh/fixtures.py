"""Bundled models and the golden verification suite.

The structures here are the small exactly-solvable inputs every other module
is tested against.  A model that ships as a document in ``data/`` is parsed
from that document, which is its only definition: the one-line trivial
algebra, an exterior line with a free contraction, the free-flow model on a
four-dimensional algebra (the abstract Hopf-flow package), the three-sphere
minimal model, and the matching strata, Morse, polytope and module records.
The few models no document holds are payloads written here, read by the same
parser.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import cli
from .gstar import ConnectionElements, GStarStructure, LieAlgebraSpec, extend_with_trivial_factor
from .foliation import FoliationStrataModel, MorseData, PolytopeData
from .module_theory import GradedModulePresentation
from .series import PoincarePolynomial

_DATA = Path(__file__).parent / "data"


def _payload(name: str) -> dict:
    """The payload of the bundled document ``data/<name>.json``."""
    return json.loads((_DATA / f"{name}.json").read_text(encoding="utf-8"))["payload"]


def trivial_line(r: int = 1) -> GStarStructure:
    """One-dimensional algebra in degree 0 with the trivial action of R^r, r >= 1."""
    return extend_with_trivial_factor(cli.parse_gstar(_payload("trivial_line_gstar")), r - 1)


def exterior_line_free() -> GStarStructure:
    """Lambda(theta): basis 1, theta; d = 0, i_X theta = 1, L = 0."""
    return cli.parse_gstar(_payload("exterior_line_gstar"))


def exterior_two_free() -> GStarStructure:
    """Lambda(theta_0, theta_1) with i_{X_j} theta_i = delta_ij, d = 0, L = 0."""
    return cli.parse_gstar({
        "lie": {"dimension": 2},
        "degrees": {"0": ["1"], "1": ["theta0", "theta1"], "2": ["theta0*theta1"]},
        "products": [{"left": [1, 0], "right": [1, 1], "value": [[0, 1]]},
                     {"left": [1, 1], "right": [1, 0], "value": [[0, -1]]}],
        "i": [{"1": [[1, 0]], "2": [[0], [1]]}, {"1": [[0, 1]], "2": [[-1], [0]]}],
        "L": [{}, {}],
    })


def hopf_basic_model() -> GStarStructure:
    """The free-flow four-class model: basis 1, theta, omega, theta*omega.

    All differentials vanish; i_X theta = 1, i_X omega = 0,
    i_X(theta*omega) = omega, L_X = 0.  Its i/L-kernel has dims (1,0,1,0).
    """
    return cli.parse_gstar(_payload("hopf_gstar"))


def sphere3_minimal_model() -> GStarStructure:
    """S^3 minimal model: 1, theta, omega, theta*omega with d theta = omega.

    With the trivial action this is the odd-sphere fixture for the
    cross-model agreement tests; cohomology has dims (1, 0, 0, 1).
    """
    return cli.parse_gstar(_payload("sphere3_gstar"))


def trivial_action_on_h_1_0_1() -> GStarStructure:
    """Trivial action on an algebra with cohomology dims (1, 0, 1).

    Model: 1 in degree 0, omega in degree 2, omega^2 = 0.
    """
    return cli.parse_gstar({"lie": {"dimension": 1}, "degrees": {"0": ["1"], "2": ["omega"]},
                            "i": [{}], "L": [{}]})


def hopf_connection_candidates() -> ConnectionElements:
    return ConnectionElements((tuple([Fraction(1)]),))


# -- foliation-level fixtures -----------------------------------------------------


def hopf_strata_model() -> FoliationStrataModel:
    """Two closed leaves plus the open dense stratum; q = 2, dim_a = 1."""
    return cli.parse_strata(_payload("hopf_strata"))


def hopf_morse_data() -> MorseData:
    """Critical set C = the two closed leaves, of indices 0 and 2."""
    return cli.parse_morse(_payload("hopf_morse")).data


def segment_polytope() -> PolytopeData:
    return cli.parse_polytope(_payload("segment"))


def square_polytope() -> PolytopeData:
    return cli.parse_polytope(_payload("square"))


def triangle_polytope() -> PolytopeData:
    return cli.parse_polytope(_payload("triangle"))


def hopf_module() -> GradedModulePresentation:
    """Generators in degrees 0 and 2, each killed by u: the pure-torsion module."""
    return cli.parse_module(_payload("hopf_module"))


# -- golden suite -------------------------------------------------------------------


class Fixture(NamedTuple):
    name: str
    run: Callable[[], object]
    expected: object


class FixtureOutcome(NamedTuple):
    name: str
    passed: bool
    expected: object
    actual: object


def _fixture_list() -> list[Fixture]:
    from . import cartan, foliation, gstar, module_theory, spectral
    from .algebra_core import cohomology_dims

    def strata_basic():
        return foliation.basic_series_formal(hopf_strata_model()).polynomial.coeffs

    def strata_equivariant():
        s = foliation.equivariant_series_from_strata(hopf_strata_model())
        return (s.numerator.coeffs, s.den_exp)

    def polytope(p):
        return lambda: foliation.polytope_series(p).polynomial.coeffs

    def weil_acyclic(r):
        def run():
            w = gstar.weil_algebra(LieAlgebraSpec.abelian(r), 10)
            h = cohomology_dims(w.as_complex())
            return tuple(h.dim(n) for n in range(9))
        return run

    def hopf_equivariant():
        e = cartan.equivariant_cohomology(hopf_basic_model(), 8)
        return e.dims_tuple(8)

    def cross_model(make):
        def run():
            s = make()
            e = cartan.equivariant_cohomology(s, 8)
            w = gstar.weil_model_cohomology(s, 8)
            return e.dims_tuple(8) == w.dims_tuple(8)
        return run

    def hopf_formality():
        s = hopf_basic_model()
        e = cartan.equivariant_cohomology(s, 8)
        h = cohomology_dims(s.as_complex())
        v = spectral.formality_verdict(e, h.dims_tuple(8), 1, 8)
        return (v.formal, "t^1" in v.witness)

    def hopf_morse():
        verdict = foliation.perfectness_check(
            hopf_morse_data(), PoincarePolynomial((1, 0, 1)), 1
        )
        return (verdict.perfect, verdict.gap.quotient.coeffs)

    def tor_residue_field():
        tor = module_theory.koszul_tor(module_theory.GradedModulePresentation.residue_field(2, window=8))
        return tuple(tor.total(i) for i in range(3))

    def hopf_localized():
        return module_theory.localized_rank(hopf_module()).rank

    return [
        Fixture("hopf/strata-basic-series", strata_basic, (1, 0, 1)),
        Fixture("hopf/strata-equivariant-series", strata_equivariant, ((1, 0, 1), 1)),
        Fixture("hopf/equivariant-dims", hopf_equivariant, (1, 0, 1, 0, 0, 0, 0, 0, 0)),
        Fixture("hopf/formality-not-formal", hopf_formality, (False, True)),
        Fixture("hopf/morse-perfect", hopf_morse, (True, ())),
        Fixture("hopf/localized-rank-torsion", hopf_localized, 0),
        Fixture("polytope/segment", polytope(segment_polytope()), (1, 0, 1)),
        Fixture("polytope/square", polytope(square_polytope()), (1, 0, 2, 0, 1)),
        Fixture("polytope/triangle", polytope(triangle_polytope()), (1, 0, 1, 0, 1)),
        Fixture("weil/acyclic-r1", weil_acyclic(1), (1, 0, 0, 0, 0, 0, 0, 0, 0)),
        Fixture("weil/acyclic-r2", weil_acyclic(2), (1, 0, 0, 0, 0, 0, 0, 0, 0)),
        Fixture("cross-model/trivial-line", cross_model(trivial_line), True),
        Fixture("cross-model/exterior-line", cross_model(exterior_line_free), True),
        Fixture("cross-model/hopf-basic", cross_model(hopf_basic_model), True),
        Fixture("cross-model/sphere3", cross_model(sphere3_minimal_model), True),
        Fixture("module/tor-residue-field-r2", tor_residue_field, (1, 2, 1)),
    ]


def run_fixtures(name_filter: str | None = None, fixtures=None) -> list[FixtureOutcome]:
    """Execute the golden suite; every comparison is exact."""
    outcomes = []
    for f in fixtures if fixtures is not None else _fixture_list():
        if name_filter and name_filter not in f.name:
            continue
        actual = f.run()
        outcomes.append(
            FixtureOutcome(f.name, actual == f.expected, f.expected, actual)
        )
    return outcomes


def list_fixture_names(name_filter: str | None = None) -> list[str]:
    return [f.name for f in _fixture_list() if not name_filter or name_filter in f.name]
