"""Watching the double-complex pages decide formality.

For a trivially-acting line on an even-classes algebra the first page
already equals the limit (formal).  For the free flow model the first
differential pairs each odd class with a polynomial multiple, the second
page is the limit, and the Hilbert factorization fails at t^1 (not formal).
"""

from foliacoh import (
    cohomology_dims,
    equivariant_cohomology,
    formality_verdict,
    run_pages,
)
from foliacoh.fixtures import (
    hopf_basic_model,
    sphere3_minimal_model,
    trivial_action_on_h_1_0_1,
)


def show(name, make, n_max=6):
    s = make()
    e = equivariant_cohomology(s, n_max)
    base = cohomology_dims(s.as_complex()).dims_tuple(n_max)
    run = run_pages(e, base)
    print(f"-- {name}")
    for page in run.pages:
        marker = " (all differentials vanish)" if page.differentials_vanish() else ""
        print(f"   E_{page.r} totals: {page.total_dims()}{marker}")
    print(f"   E_oo  totals: {run.e_infinity.total_dims()}")
    print(f"   stabilizes at page {run.stabilized_at};",
          "limit matches the equivariant dims" if run.totals_match_equivariant else "MISMATCH")
    v = formality_verdict(e, base)
    print(f"   formality: {v.formal} via {v.method}")
    print(f"   witness:   {v.witness}")


show("trivial action on classes in degrees 0 and 2", trivial_action_on_h_1_0_1)
show("trivial action on the 3-sphere model (odd class present)", sphere3_minimal_model)
show("free flow model (torsion equivariant cohomology)", hopf_basic_model)
