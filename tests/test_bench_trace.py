"""The traced benchmark's self-check holds in-process, in tier-1.

Under ``--trace 1``, ``bench/run.py`` fails a workload when a layer metric
that ``LAYER_MOVES`` ties to it reads zero, or when a span target is not
found, even if every output matches its pin.  This test builds each
workload with the package already imported here, writes its documents,
runs each timed op once with the benchmark's own tracer installed, and
checks the same two things, so a change that moves work off a traced call
shows here without a benchmark run.  It reads ``bench/`` and changes
nothing there.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import foliacoh
from foliacoh import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_run():
    """bench/run.py as a module; registered, so that its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    path, before = list(sys.path), set(sys.modules)
    sys.modules["bench_run"] = module
    try:
        spec.loader.exec_module(module)  # puts bench/ on the path to import docs and spans
    finally:
        sys.path[:] = path
        for name in {"docs", "spans"} - before:
            sys.modules.pop(name, None)
    return module


run = load_run()
# the package as imported here: ``run.import_package`` would import it again,
# and the classes of a second import fail later tests' isinstance checks
API = SimpleNamespace(main=cli.main, LieAlgebraSpec=foliacoh.LieAlgebraSpec,
                      weil_algebra=foliacoh.weil_algebra,
                      gstar_to_payload=cli.gstar_to_payload, document_for=cli.document_for)
EXPECTED = run.json.loads(run.EXPECTED.read_text())


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_no_layer_metric_the_trace_checks_reads_zero(tmp_path, workload):
    w = run.WORKLOADS[workload](API, run.DEFAULT_SEED)
    paths = run.write_documents(w, tmp_path)
    runner = run.Runner(API, w, paths, EXPECTED, record=False)
    tracer = run.spans.Tracer()
    with tracer.installed():
        runner.one_pass(tracer)  # each op not marked once, once
    layer = tracer.layer_metrics(tracer.op + 1)
    zeros = [k for k, (_, on) in run.LAYER_MOVES.items() if workload in on and not layer[k]]
    assert zeros == []
    assert tracer.missing == set()
    assert runner.problems == []
