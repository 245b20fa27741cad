"""Benchmark of whole `foliacoh` CLI runs on seeded, generated documents.

    python3 bench/run.py --workload equivariant_sparse --seed 1 --seconds 16 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory, ``foliacoh.cli.main`` runs in this process, one op at a time
(closed loop, one client), and every op's output is checked against an
oracle that shares no code with the engine.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``; ``failed / attempted`` is the workload's failure ratio.
A fuller record (per-op samples and output hashes, nproc,
Python version, seed) goes to ``bench/out/``, and the spans of a traced run
to ``bench/out/spans-*.jsonl``.

Each run sets up (imports the package, generates the documents), checks
that every generated document passes ``foliacoh validate``, then runs one
warm-up pass and, after it, whole timed passes (every op of the workload
once) until ``--seconds`` have gone by and at least ``MIN_PASSES`` were made.
The warm-up pass is checked but not timed: the first run of a document in a
process is up to 40% slower, and its ops marked ``once`` are oracles run only
there.  An op fails on an exception, an unexpected exit code, an oracle
mismatch, output bytes that differ from the op's first run, or a results
section or exit code that differs from the one pinned in ``expected.json``.

Expected results are keyed by command and algebra, not by basis: a change of
basis leaves every results section unchanged, so the pins hold for every
seed.  Module presentations change with the seed, so the ``module_koszul``
warm-up pass also runs the modules of ``CHECK_SEED`` against their pins.
``--record-expected`` rewrites the pins a run observes; use it only at a
commit whose outputs are known to be right.

An op's time is the median of its timed samples, and after each timed pass
a plain run sets up ``SETUP_REPEATS`` more times (import and document
generation, without writing the files); the median of those is ``setup_s``,
so set-up is sampled across the run like the ops, once the process is warm.

On a shared machine contention slows the ops by up to 2x, for seconds at a
time and at times for the whole of a run, so times are given in reference
seconds: wall seconds times ``CAL_NOMINAL_S / c``, with ``c`` the median of
the run's ``CAL_REPEATS`` timings per pass of fixed work written in this
file (``calibrate``).  On a calm machine the two are about equal.  The
calibration work is document generation's own kind of arithmetic and
allocation, because set-up time was seen to follow the ops' slowdowns where
small fixed loops of Fraction arithmetic did not: those slowed by anywhere
from 1x to 1.8x while the ops slowed by 1.35x to 2x.  The fastest sample of
each op was tried and dropped too: in slow spells it reaches a calm value
more often for short ops than for long ones, which made ``growth_per_rung``
and the top rung spread more across runs than medians do.  Raw wall times
and the calibration timings are kept in the result file.

Known defects, recorded and not pinned:

* ``equivariant`` reports ``module_generator_degrees`` past
  ``stable_through`` (W(so(3)) at N=4 gives ``[0, 4]`` with
  ``stable_through`` 2).  The oracle checks generator degrees only up to
  ``stable_through``.
* ``spectral`` on a document with L != 0, such as W(so(3)), exits 1 with a
  ``NonInvariantAction`` traceback instead of a clean error.  The
  ``spectral_validate`` workload runs ``spectral`` only on L = 0 algebras
  because pages are defined only there, not to hide this.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 2  # per timed pass
CAL_REPEATS = 2  # per timed pass
CAL_NOMINAL_S = 0.045  # calibration time that defines one reference second
MIN_PASSES = 5
DEFAULT_SEED = 1
CHECK_SEED = 1  # the module presentations pinned in expected.json

sys.path.insert(0, str(HERE))
import docs  # noqa: E402
import spans  # noqa: E402

# Which end-to-end metric each layer metric should move, and the workloads
# it dominates; the traced run fails if one of these reads zero there.
EQUIVARIANT = ("equivariant_sparse", "equivariant_dense")
LAYER_MOVES = {
    "ratmat.elim_s": (("pass_s", "top_rung_s"), EQUIVARIANT + ("module_koszul",)),
    "ratmat.elim_calls": (("pass_s", "top_rung_s"), EQUIVARIANT + ("module_koszul",)),
    "ratmat.rank_calls": (("pass_s", "top_rung_s"), EQUIVARIANT + ("module_koszul",)),
    "ratmat.rref_calls": (("pass_s", "top_rung_s"), EQUIVARIANT + ("module_koszul",)),
    "ratmat.solve_calls": (("pass_s", "top_rung_s"), EQUIVARIANT + ("module_koszul",)),
    "ratmat.complement_useful_ratio": (("top_rung_s", "growth_per_rung"),
                                       EQUIVARIANT + ("module_koszul",)),
    "ratmat.product_s": (("pass_s",), ("spectral_validate",)),
    "ratmat.product_calls": (("pass_s",), ("spectral_validate",)),
    "ratmat.max_rows": (("growth_per_rung", "peak_rss_mb"), ("equivariant_dense", "module_koszul")),
    "ratmat.max_cols": (("growth_per_rung", "peak_rss_mb"), ("equivariant_dense", "module_koszul")),
    "ratmat.max_entry_bits": (("growth_per_rung", "peak_rss_mb"),
                              ("equivariant_dense", "module_koszul")),
    "gstar.weil_route_s": (("pass_s",), EQUIVARIANT),
    "gstar.basic_s": (("pass_s",), EQUIVARIANT),
    "gstar.tensor_s": (("pass_s",), EQUIVARIANT),
    "gstar.axioms_s": (("pass_s",), ("spectral_validate",)),
    "algebra_core.cohomology_s": (("pass_s",), EQUIVARIANT),
    "algebra_core.verify_s": (("pass_s",), EQUIVARIANT),
    "cartan.build_s": (("pass_s",), EQUIVARIANT),
    "cartan.cohomology_s": (("pass_s",), EQUIVARIANT),
    "cartan.u_action_s": (("pass_s",), EQUIVARIANT),
    "spectral.pages_s": (("pass_s", "top_rung_s"), ("spectral_validate",)),
    "spectral.page_calls": (("pass_s", "top_rung_s"), ("spectral_validate",)),
    "spectral.formality_s": (("pass_s", "top_rung_s"), ("spectral_validate",)),
    "module_theory.koszul_s": (("pass_s", "top_rung_s"), ("module_koszul",)),
    "module_theory.koszul_calls": (("pass_s", "top_rung_s"), ("module_koszul",)),
    "module_theory.realization_builds": (("pass_s", "top_rung_s"), ("module_koszul",)),
    "cli.parse_s": ((), ("equivariant_sparse", "equivariant_dense", "spectral_validate",
                         "module_koszul")),
    "cli.emit_s": ((), ("equivariant_sparse", "equivariant_dense", "spectral_validate",
                        "module_koszul")),
}


# -- oracles ----------------------------------------------------------------------------
# Expected values come from closed formulas, never from the engine.


def invariant_dims(lie_dim: int, n: int) -> int:
    """dim of degree n of S(g*)^G: Sym^{n/2}(R^r) for abelian g, Q[p4] for so(3)."""
    if n % 2:
        return 0
    if lie_dim == 3:
        return 1 if n % 4 == 0 else 0
    return math.comb(n // 2 + lie_dim - 1, lie_dim - 1)


def check_equivariant(lie_dim: int, n_doc: int):
    def check(code, res):
        s = res["stable_through"]
        want = [invariant_dims(lie_dim, n) for n in range(s + 1)]
        gens = [0] + ([4] if lie_dim == 3 and s >= 4 else [])
        return _mismatches(
            (code == 0, "exit code"),
            (s >= n_doc - 2, "stable window shrank"),
            (res["equivariant_dims"] == want, "equivariant dims"),
            (res["weil_model_dims"] == want, "Weil-model dims"),
            (res["cross_check_ok"] is True, "cross check"),
            ([g for g in res["module_generator_degrees"] if g <= s] == gens, "generators"),
        )
    return check


def check_spectral(lie_dim: int):
    def check(code, res):
        s = res["stable_through"]
        want = [invariant_dims(lie_dim, n) for n in range(s + 1)]
        return _mismatches(
            (code == 0, "exit code"),
            (res["e_infinity_totals"][: s + 1] == want, "E_infinity totals"),
            (res["totals_match_equivariant"] is True, "totals vs equivariant"),
            (res["formal"] is True, "formality"),
        )
    return check


def check_valid(code, res):
    return _mismatches((code == 0, "exit code"), (res.get("valid") is True, "valid"))


def check_module(code, res):
    return _mismatches((code in (0, 3), "exit code"))


def _mismatches(*pairs) -> list[str]:
    return [what for ok, what in pairs if not ok]


# -- workloads ------------------------------------------------------------------------


@dataclass
class Op:
    label: str
    command: str
    doc: str  # document name
    check: Callable[[int, dict], list[str]]  # (exit code, results) -> mismatches
    role: str = ""  # "top" or "below": the rungs compared by growth_per_rung
    same_as: str = ""  # an op whose results and exit code must be identical
    once: bool = False  # an oracle, run in the warm-up pass only
    expect: str = ""  # key of the pinned exit code and results in expected.json


@dataclass
class Workload:
    documents: dict = field(default_factory=dict)  # name -> document
    ops: list = field(default_factory=list)


def equivariant_sparse(api, seed):
    # The monomial basis is canonical, so the seed only orders the ops.
    w = Workload()
    for lie_dim, n, role in ((2, 4, "below"), (2, 6, "top"), (3, 3, ""), (3, 4, "")):
        name = f"weil_r{lie_dim}_n{n}"
        w.documents[name] = docs.weil_document(api, lie_dim, n)
        w.ops.append(Op(f"equivariant {name}", "equivariant", name,
                        check_equivariant(lie_dim, n), role, expect=f"equivariant {name}"))
    random.Random(seed).shuffle(w.ops)
    return w


def equivariant_dense(api, seed):
    # The cost of one basis varies by about 10% at N=6, so each rung averages
    # several; two on the top rung keep a pass short enough for five per run.
    w = Workload()
    for n, role, variants in ((4, "below", 4), (6, "top", 2)):
        base = docs.weil_document(api, 2, n)
        for variant in range(variants):
            name = f"weil_r2_n{n}_basis{variant}"
            w.documents[name] = docs.change_basis(base, seed * 1000 + n * 10 + variant)
            w.ops.append(Op(f"equivariant {name}", "equivariant", name,
                            check_equivariant(2, n), role, expect=f"equivariant weil_r2_n{n}"))
    return w


def spectral_validate(api, seed):
    # spectral at N=5 costs about 0.9 s and varies by about 10% with the basis,
    # so the top rung averages two bases; validate runs on the small rung and
    # on W(so(3)), whose L != 0 takes the invariant-embedding path.
    w = Workload()
    for n, role, variants in ((3, "below", 4), (5, "top", 2)):
        base = docs.weil_document(api, 2, n)
        for variant in range(variants):
            name = f"weil_r2_n{n}_basis{variant}"
            w.documents[name] = docs.change_basis(base, seed * 1000 + n * 10 + variant)
            if role == "below":
                w.ops.append(Op(f"validate {name}", "validate", name, check_valid,
                                expect="validate weil_r2_n3"))
            w.ops.append(Op(f"spectral {name}", "spectral", name, check_spectral(2), role,
                            expect=f"spectral weil_r2_n{n}"))
    w.documents["weil_so3_n3"] = docs.weil_document(api, 3, 3)
    w.ops.append(Op("validate weil_so3_n3", "validate", "weil_so3_n3", check_valid,
                    expect="validate weil_so3_n3"))
    return w


def module_koszul(api, seed):
    # At these windows the cost of a module varies by a few percent across
    # seeds, so two per run suffice.  Each re-presentation is an oracle, run
    # once per run and not timed; so are the pinned modules of CHECK_SEED.
    w = Workload()
    for tag, rng, count in (("module", random.Random(seed), 2),
                            ("check", random.Random(CHECK_SEED), 1)):
        for k in range(count):
            rels = docs.random_presentation(rng)
            again = docs.represent(rng, rels)
            for window, role in ((4, "below"), (6, "top")):
                name = f"{tag}{k}_w{window}"
                w.documents[name] = docs.module_document(api, rels, window)
                if tag == "check":
                    w.ops.append(Op(f"module {name}", "module", name, check_module,
                                    once=True, expect=f"module {name}"))
                    continue
                w.documents[name + "_again"] = docs.module_document(api, again, window)
                w.ops.append(Op(f"module {name}", "module", name, check_module, role))
                w.ops.append(Op(f"module {name}_again", "module", name + "_again",
                                check_module, same_as=f"module {name}", once=True))
    return w


WORKLOADS = {f.__name__: f for f in (equivariant_sparse, equivariant_dense,
                                     spectral_validate, module_koszul)}


# -- set-up ---------------------------------------------------------------------------


def import_package():
    """A fresh import of foliacoh from the source tree next to the benchmark."""
    for name in [m for m in sys.modules if m == "foliacoh" or m.startswith("foliacoh.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import foliacoh
    import foliacoh.cli

    if not Path(foliacoh.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"foliacoh was imported from {foliacoh.__file__}, not {SRC}")
    return SimpleNamespace(
        main=foliacoh.cli.main,
        LieAlgebraSpec=foliacoh.LieAlgebraSpec,
        weil_algebra=foliacoh.weil_algebra,
        gstar_to_payload=foliacoh.cli.gstar_to_payload,
        document_for=foliacoh.cli.document_for,
    )


def set_up(workload: str, seed: int):
    """(api, workload, seconds spent importing and generating)."""
    t0 = time.perf_counter()
    api = import_package()
    w = WORKLOADS[workload](api, seed)
    return api, w, time.perf_counter() - t0


def write_documents(w: Workload, doc_dir: Path) -> dict:
    doc_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, doc in w.documents.items():
        paths[name] = doc_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc, sort_keys=True))
    return paths


def run_cli(api, argv):
    """(exit code, stdout bytes, error text or None), in this process."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = api.main(argv)
    except Exception:  # the op failed; the benchmark goes on to report it
        return None, buf.getvalue().encode(), traceback.format_exc()
    return code, buf.getvalue().encode(), None


# -- measurement ----------------------------------------------------------------------


def calibrate() -> float:
    """Wall time of fixed work written in the benchmark, not in the package.

    Changes of basis T^-1 A T of sparse +-1 Fraction matrices, the arithmetic
    and allocation pattern of document generation (``docs.change_basis``).
    """
    t0 = time.perf_counter()
    rng = random.Random(7)
    for k in (8, 12, 16):
        t, t_inv = docs._unit_lu(rng, k)
        a = [[Fraction(rng.choice((0, 0, 0, 1, -1))) for _ in range(k)] for _ in range(k)]
        docs._matmul(docs._matmul(t_inv, a), t)
    return time.perf_counter() - t0


class Runner:
    def __init__(self, api, w: Workload, paths, expected: dict, record: bool):
        self.api, self.w, self.paths = api, w, paths
        self.expected, self.record = expected, record
        self.attempted = self.failed = 0
        self.first_bytes: dict[str, str] = {}
        self.results: dict[str, tuple] = {}
        self.samples: dict[str, list[float]] = {op.label: [] for op in w.ops}
        self.problems: list[str] = []

    def one_pass(self, tracer=None, warm_up=False) -> float:
        """Wall seconds of one pass; a warm-up pass records no samples."""
        run = run_cli if tracer is None else tracer.wrap(run_cli, "op")
        total = 0.0
        for op in self.w.ops:
            if op.once and not warm_up:
                continue
            argv = [op.command, "--input", str(self.paths[op.doc])]
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter()
            code, out, err = run(self.api, argv)
            dt = time.perf_counter() - t0
            if not warm_up:
                self.samples[op.label].append(dt)
            total += dt
            self._judge(op, code, out, err)
        return total

    def _judge(self, op: Op, code, out: bytes, err) -> None:
        self.attempted += 1
        problems = []
        if err is not None:
            problems.append(err.strip().splitlines()[-1])
        else:
            digest = hashlib.sha256(out).hexdigest()
            if self.first_bytes.setdefault(op.label, digest) != digest:
                problems.append("output bytes changed between repeats")
            try:
                res = json.loads(out)["results"]
            except (ValueError, KeyError) as exc:
                problems.append(f"unreadable result document: {exc!r}")
            else:
                try:
                    problems += op.check(code, res)
                except (KeyError, TypeError, IndexError) as exc:
                    problems.append(f"result lacks a field: {exc!r}")
                self.results[op.label] = (code, json.dumps(res, sort_keys=True))
                if op.same_as and self.results.get(op.same_as) != self.results[op.label]:
                    problems.append(f"results differ from {op.same_as}")
                if op.expect:
                    problems += self._pinned(op.expect, code, self.results[op.label][1])
        if problems:
            self.failed += 1
            self.problems.append(f"{op.label}: {'; '.join(problems)}")

    def _pinned(self, key: str, code, results: str) -> list[str]:
        seen = {"exit": code, "results_sha256": hashlib.sha256(results.encode()).hexdigest()}
        if self.record:
            self.expected[key] = seen
            return []
        want = self.expected.get(key)
        if want is None:
            return [f"nothing pinned for {key!r} in {EXPECTED.name}"]
        return [f"{k} {seen[k]} differs from the pinned {want[k]}"
                for k in ("exit", "results_sha256") if seen[k] != want[k]]


def end_to_end(runner: Runner, setup_wall, cal) -> dict:
    """Metrics in reference seconds from each op's median sample (see the module docstring)."""
    scale = CAL_NOMINAL_S / statistics.median(cal)
    op_s = {op.label: statistics.median(runner.samples[op.label]) * scale
            for op in runner.w.ops if not op.once}

    def rung(role):
        return statistics.mean(op_s[op.label] for op in runner.w.ops if op.role == role)

    top = rung("top")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_wall) * scale, "s"),
        "pass_s": (sum(op_s.values()), "s"),
        "top_rung_s": (top, "s"),
        "growth_per_rung": (top / rung("below"), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-expected", action="store_true",
                    help=f"write the observed results to {EXPECTED.name} instead of checking")
    args = ap.parse_args(argv)

    try:
        api, w, _ = set_up(args.workload, args.seed)
        expected = json.loads(EXPECTED.read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    paths = write_documents(w, OUT / "docs" / f"{args.workload}-seed{args.seed}")

    for name, path in paths.items():
        code, out, err = run_cli(api, ["validate", "--input", str(path)])
        if code != 0 or err is not None:
            print(f"bench: generated document {name} fails validate (exit {code})\n"
                  f"{err or out.decode()}", file=sys.stderr)
            return 1

    runner = Runner(api, w, paths, expected, args.record_expected)
    tracer = spans.Tracer() if args.trace else None
    plain, traced, setup_wall, cal = [], [], [], []
    runner.one_pass(warm_up=True)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(plain) + len(traced) < MIN_PASSES:
        # a traced run alternates, so that the overhead is measured alongside
        if tracer is not None and len(plain) > len(traced):
            with tracer.installed():
                traced.append(runner.one_pass(tracer))
        else:
            plain.append(runner.one_pass())
        cal += [calibrate() for _ in range(CAL_REPEATS)]
        if tracer is None:
            setup_wall += [set_up(args.workload, args.seed)[2] for _ in range(SETUP_REPEATS)]

    correct = runner.failed == 0
    if tracer is None:
        metrics = end_to_end(runner, setup_wall, cal)
    else:
        layer = tracer.layer_metrics(tracer.op + 1)
        layer["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
        zeros = [k for k, (_, on) in LAYER_MOVES.items()
                 if args.workload in on and not layer[k]]
        if zeros or tracer.missing:
            correct = False
            runner.problems.append(f"trace self-check: zero on {args.workload}: {zeros}; "
                                   f"not found: {tracer.missing}")
    for p in runner.problems:
        print(f"bench: {p}", file=sys.stderr)
    if args.record_expected and correct:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": sys.version,
        "platform": platform.platform(), "passes": {"plain": plain, "traced": traced},
        "setup_wall_s": setup_wall, "calibration_s": cal,
        "cal_nominal_s": CAL_NOMINAL_S,
        "ops": [{"label": op.label, "samples": runner.samples[op.label],
                 "sha256": runner.first_bytes.get(op.label)} for op in w.ops],
        "problems": runner.problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(str(OUT / f"spans-{stem}.jsonl"))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
