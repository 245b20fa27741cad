"""The Weil route builds W(g) (x) A through degree n_max + 1 and no further.

H^n reads only B^(n-1), B^n, B^(n+1) and the maps d_(n-1), d_n, and a
structure truncated at T keeps d exact through degree T - 1, so the route
reports the same H^n, n <= n_max, as the build through n_max + 2 that
``reference_weil_model_dims`` keeps.  The tests compare the two routes, guard
the degrees the route asks for, and pin ``equivariant`` on documents whose
window has no degree to read.
"""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from foliacoh import cli, gstar
from foliacoh.algebra_core import cohomology_dims
from foliacoh.cartan import equivariant_cohomology
from foliacoh.fixtures import hopf_basic_model
from foliacoh.gstar import (
    LieAlgebraSpec,
    basic_subcomplex,
    tensor_gstar,
    weil_algebra,
    weil_model_cohomology,
)

from conftest import change_basis, circle_action

SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
LIES = {"R0": LieAlgebraSpec.abelian(0), "R1": LieAlgebraSpec.abelian(1),
        "R2": LieAlgebraSpec.abelian(2), "so3": SO3}


def reference_weil_model_dims(s, n_max: int) -> dict[int, int]:
    """dim H^n, n <= n_max, of (W(g) (x) A)_basic built through degree n_max + 2."""
    w = weil_algebra(s.lie, n_max + 2)
    h = cohomology_dims(basic_subcomplex(tensor_gstar(w, s, max_degree=n_max + 2)).complex)
    return {n: h.dim(n) for n in range(n_max + 1) if h.dim(n)}


def assert_route_matches(s, n_max: int) -> None:
    w = weil_model_cohomology(s, n_max)
    assert w.stable_through == n_max
    assert w.dims == reference_weil_model_dims(s, n_max), n_max
    if n_max >= 0:
        e = equivariant_cohomology(s, n_max)
        upto = min(n_max, e.stable_through)
        assert w.dims_tuple(upto) == e.dims_tuple(upto), n_max


@st.composite
def truncated_weil_algebras(draw):
    """(W(g) truncated at N <= 6, in its monomial basis or a unit-LU one, a window n <= N)."""
    lie = draw(st.sampled_from(sorted(LIES)))
    top = draw(st.integers(0, 6))
    s = weil_algebra(LIES[lie], top)
    if draw(st.booleans()):
        s = change_basis(s, random.Random(draw(st.integers(0, 2**16))))
    return s, draw(st.integers(-2, top))


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(truncated_weil_algebras())
@example((weil_algebra(SO3, 6), 4)).via("the top stable degree of W(so(3)) at N = 6")
@example((weil_algebra(SO3, 6), 6)).via("a window at the truncation")
@example((change_basis(weil_algebra(LIES["R2"], 6), random.Random(1)), 4)).via("unit-LU R2")
def test_the_route_matches_the_build_through_n_max_plus_two(case):
    assert_route_matches(*case)


@pytest.mark.parametrize("make", [hopf_basic_model, circle_action])
def test_the_route_matches_the_longer_build_on_untruncated_fixtures(make):
    s = make()
    for n_max in range(-2, 9):
        assert_route_matches(s, n_max)


@pytest.mark.parametrize("make", [hopf_basic_model, lambda: weil_algebra(SO3, 4)],
                         ids=["hopf", "W(so3) N=4"])
def test_the_route_asks_for_degree_n_max_plus_one_only(monkeypatch, make):
    s = make()
    asked = []

    def weil(lie, max_degree):
        asked.append(("weil_algebra", max_degree))
        return weil_algebra(lie, max_degree)

    def tensor(a, b, max_degree=None):
        asked.append(("tensor_gstar", max_degree))
        return tensor_gstar(a, b, max_degree=max_degree)

    monkeypatch.setattr(gstar, "weil_algebra", weil)
    monkeypatch.setattr(gstar, "tensor_gstar", tensor)
    for n_max in range(-3, 7):
        asked.clear()
        gstar.weil_model_cohomology(s, n_max)
        want = [] if n_max < 0 else [("weil_algebra", n_max + 1), ("tensor_gstar", n_max + 1)]
        assert asked == want, n_max


# (r, N, --max-degree or None for the document's own): (exit code, sha256 of
# stdout), recorded before the route was cut to n_max + 1.  A document
# truncated at N has stable_through N - 2, so N = 0 and 1 leave the Weil
# route no degree to read.
EMPTY_WINDOW_PINS = {
    (0, 0, None): (0, "93eefa13ab65a7d83e11b81972224d4a22d32214e1c4c4bd6e7b0e50de5e99ce"),
    (0, 0, 0): (0, "93eefa13ab65a7d83e11b81972224d4a22d32214e1c4c4bd6e7b0e50de5e99ce"),
    (0, 0, 1): (0, "3eb0e0f639b2a094322084ec173c6632fc3989eee985f671f31877ec2207e59a"),
    (0, 1, None): (0, "7e914b49d868610df4814416388dd7fd460b3e18c9fa43baa3c74ebc6a5293e7"),
    (0, 1, 0): (0, "45a138590cf6a71f7387059c57c57496cc9a2fea3ef20987c2d8890a93b10731"),
    (0, 1, 1): (0, "7e914b49d868610df4814416388dd7fd460b3e18c9fa43baa3c74ebc6a5293e7"),
    (0, 2, None): (0, "2ec51d57339a23fd9295f604365751eed35d4e4af5dcb9e9fabc7b44a5af3bae"),
    (0, 2, 0): (0, "d4ccfe8a3fbb660b40f4377b140895aa5b3b27a355056cfd585a01b0c5f3e072"),
    (0, 2, 1): (0, "20462aa11414c1da21be598d6e90ac829016c4c8ceb9aa4470e27e70defea49c"),
    (0, 3, None): (0, "771609da7c073dfb53082ae69d92ad8c34cb72019b436988dbbc69a8c9f791a6"),
    (0, 3, 0): (0, "143f77fc7e58c7db7297ef8c53cbdbb224ce8eb0464fca325b9699dc4253d9a6"),
    (0, 3, 1): (0, "a05c5664755dfad0dbc0d7d200dba5079e3b2e181b221228f10cff81b67dbf78"),
    (1, 0, None): (0, "012e1ef3dca83cc8b63aa1bc3d2083376f5959e02f2e1b21e9d7415f5dabe6c4"),
    (1, 0, 0): (0, "012e1ef3dca83cc8b63aa1bc3d2083376f5959e02f2e1b21e9d7415f5dabe6c4"),
    (1, 0, 1): (0, "9fa82712360860fd9a0dc1b2e495f348c13d90cf3f25dd7087acfe404f89b5d4"),
    (1, 1, None): (0, "f9f0274933ffb0d2939ef2ea0990ce6adb1b3b9e6a845f21b04239be41e9bf01"),
    (1, 1, 0): (0, "56ac296c4593b50c8638bf41bfc71ccdc8460866f1eb6f70b3049d2c5f651421"),
    (1, 1, 1): (0, "f9f0274933ffb0d2939ef2ea0990ce6adb1b3b9e6a845f21b04239be41e9bf01"),
    (1, 2, None): (0, "22d2d6762c01a494e96aafcd5c2c46db7839d9ddab042b023095b2e84d8adab8"),
    (1, 2, 0): (0, "26302a95c9e8bf11e056a42e2f86857280c03de729e92de05fdad3e9c65f5d6e"),
    (1, 2, 1): (0, "521700396ef7e7187c7d847dcb1e33e3b0658a6effc3f3ff2e62d62361005c7e"),
    (1, 3, None): (0, "1c63bb04c667c95c7a1038fdad718fc12def4d82ca6ed35dbd1c2e46b91d673e"),
    (1, 3, 0): (0, "c93731e4516ce7d6a73c4522b96827e25110c2af47d839c5723a9bd17e540c54"),
    (1, 3, 1): (0, "2167292e869f77e4a0330a8eb03aa72d8c3ff076c89c5ae6bb03e46e21fd02ac"),
    (2, 0, None): (0, "2df17a6ad581c9d663dc6253cbd462b1925b1b848a275d627179328dc7317fdb"),
    (2, 0, 0): (0, "2df17a6ad581c9d663dc6253cbd462b1925b1b848a275d627179328dc7317fdb"),
    (2, 0, 1): (0, "65de3c6925eadab7e77d4b418c1ba69e391c512d9a0950cd09ae2cd11cd4b3c8"),
    (2, 1, None): (0, "0bb01e4241c4a202b4cfd2e90e912cbdb5de5991afa45b9d22cd49003ee1946d"),
    (2, 1, 0): (0, "b3e921711e4b6c898d2656a45e2e4aefc8871dee419610fc9597887f94cdfdda"),
    (2, 1, 1): (0, "0bb01e4241c4a202b4cfd2e90e912cbdb5de5991afa45b9d22cd49003ee1946d"),
    (2, 2, None): (0, "57e5c24d7488e715bacf2bc1705132d599b96f6982e43fd6de7f1c9c5cd290b0"),
    (2, 2, 0): (0, "6215b61057cf6138a3a29c73d61c99a4e5e841210b0e5b1376c2fbe70405d02c"),
    (2, 2, 1): (0, "6093d4658c0d8ae11436cd407c2602211b6eade433a9c23f44c893457d469b82"),
    (2, 3, None): (0, "796a43a8d004252fe7a216e49b3f897c9aec820a98df670137aeee24b19912e5"),
    (2, 3, 0): (0, "720fbda0f5c2bc43e03f4940fb49f0f0ae5bb26f6abb885a920e61d8fef25831"),
    (2, 3, 1): (0, "2d65d6284fc47b63162bef7077fadb820b956367cb44bdbdc146bf219f4bb6a4"),
}


@pytest.mark.parametrize("r,top,window", sorted(EMPTY_WINDOW_PINS, key=str),
                         ids=lambda v: str(v))
def test_equivariant_on_a_short_window_keeps_its_output(tmp_path, capsys, r, top, window):
    weil = weil_algebra(LieAlgebraSpec.abelian(r), top)
    doc = cli.document_for("gstar_algebra", cli.gstar_to_payload(weil), top)
    p = tmp_path / "weil.json"
    p.write_text(json.dumps(doc))
    argv = ["equivariant", "--input", str(p)]
    if window is not None:
        argv += ["--max-degree", str(window)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EMPTY_WINDOW_PINS[r, top, window], out
