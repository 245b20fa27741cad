"""Every span target of the traced benchmark names a callable of the package.

``bench/spans.py`` patches each ``(module, attribute)`` of its ``TARGETS``
by name, and a name that no longer resolves is only reported as missing
under ``--trace 1``; this test fails on a rename or a deletion instead.  It
reads ``bench/spans.py`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_spans().TARGETS


@pytest.mark.parametrize("mod_name,attr", [t[:2] for t in TARGETS],
                         ids=[f"{m}.{a}" for m, a, _ in TARGETS])
def test_span_target_resolves(mod_name, attr):
    owner = importlib.import_module(f"foliacoh.{mod_name}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"foliacoh.{mod_name} has no {attr}"
        owner = getattr(owner, part)
    assert callable(owner)
