"""Spans around calls into the package's layers, recorded from outside.

``Tracer.installed()`` replaces each traced function at every module
attribute that binds it (``from .ratmat import independent_complement``
makes a second binding in the importing module) and each traced method on
its class, and puts the originals back on exit.  The program itself is not
changed.

A span is ``(name, start, end, parent, op)``; spans stay in memory until
``write``.  Self time is a span's duration minus the time its child spans
cover, which for single-threaded nested calls is the sum of the children's
durations.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "foliacoh"
# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("ratmat", "RationalMatrix.rank", "ratmat.rank"),
    ("ratmat", "RationalMatrix.rref", "ratmat.rref"),
    ("ratmat", "RationalMatrix.solve", "ratmat.solve"),
    ("ratmat", "RationalMatrix.nullspace", "ratmat.nullspace"),
    ("ratmat", "RationalMatrix.apply", "ratmat.apply"),
    ("ratmat", "RationalMatrix.__matmul__", "ratmat.matmul"),
    ("ratmat", "rank_of_columns", "ratmat.rank_of_columns"),
    ("ratmat", "independent_complement", "ratmat.independent_complement"),
    ("ratmat", "coordinates_modulo", "ratmat.coordinates_modulo"),
    ("algebra_core", "cohomology_dims", "algebra_core.cohomology_dims"),
    ("algebra_core", "verify_complex", "algebra_core.verify_complex"),
    ("gstar", "check_gstar_axioms", "gstar.check_gstar_axioms"),
    ("gstar", "basic_subcomplex", "gstar.basic_subcomplex"),
    ("gstar", "tensor_gstar", "gstar.tensor_gstar"),
    ("gstar", "weil_algebra", "gstar.weil_algebra"),
    ("gstar", "weil_model_cohomology", "gstar.weil_model_cohomology"),
    ("cartan", "CartanComplex.__init__", "cartan.build"),
    ("cartan", "CartanComplex.u_multiplication", "cartan.u_multiplication"),
    ("cartan", "equivariant_cohomology", "cartan.equivariant_cohomology"),
    ("cartan", "module_presentation", "cartan.module_presentation"),
    ("spectral", "run_pages", "spectral.run_pages"),
    ("spectral", "SpectralSequence.page", "spectral.page"),
    ("spectral", "formality_verdict", "spectral.formality_verdict"),
    ("module_theory", "ModuleRealization.__init__", "module_theory.realization"),
    ("module_theory", "koszul_tor", "module_theory.koszul_tor"),
    ("module_theory", "hilbert", "module_theory.hilbert"),
    ("module_theory", "freeness_test", "module_theory.freeness_test"),
    ("module_theory", "localized_rank", "module_theory.localized_rank"),
    ("module_theory", "depth_dim_cm", "module_theory.depth_dim_cm"),
    ("cli", "load_document", "cli.load_document"),
    ("cli", "parse_gstar", "cli.parse_gstar"),
    ("cli", "parse_module", "cli.parse_module"),
    ("cli", "_emit", "cli.emit"),
)
LAYERS = ("ratmat", "algebra_core", "gstar", "cartan", "spectral", "module_theory", "cli")
ELIMINATIONS = ("ratmat.rank", "ratmat.rref")
PRODUCTS = ("ratmat.apply", "ratmat.matmul")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.max_rows = self.max_cols = self.max_entry_bits = 0
        self.picked = self.complement_rank_evals = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []  # indices into spans of the open spans
        self.op = -1

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str):
        """fn, recording a span named name around each call."""
        spans, stack, tracer = self.spans, self._stack, self
        clock = time.perf_counter
        eliminates = name in ELIMINATIONS
        complement = name == "ratmat.independent_complement"
        rank_eval = name == "ratmat.rank_of_columns"

        def traced(*args, **kwargs):
            if eliminates:
                tracer._note_matrix(args[0])
            if rank_eval and stack and spans[stack[-1]][0] == "ratmat.independent_complement":
                tracer.complement_rank_evals += 1
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, clock(), 0.0, parent, tracer.op))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                _, start, _, _, op = spans[idx]
                spans[idx] = (name, start, clock(), parent, op)
            if complement:
                tracer.picked += len(out)
            return out

        return traced

    def _note_matrix(self, m) -> None:
        self.max_rows = max(self.max_rows, m.rows)
        self.max_cols = max(self.max_cols, m.cols)
        bits = 0
        for r in m.tolist():
            for x in r:
                if x:
                    bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        self.max_entry_bits = max(self.max_entry_bits, bits)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every target; restore all of them on exit."""
        mods = {k: v for k, v in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")}
        undo = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = mods.get(f"{PACKAGE}.{mod_name}")
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None:
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                wrapped = self.wrap(fn, name)
                if owner_name:
                    undo.append((owner, meth, fn))
                    setattr(owner, meth, wrapped)
                    continue
                for m in mods.values():
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            undo.append((m, key, fn))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for owner, key, fn in reversed(undo):
                setattr(owner, key, fn)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op layer metrics over every recorded span (see BENCHMARK.json)."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        layer_self: dict[str, float] = defaultdict(float)
        unattributed = 0.0
        for (name, start, end, _parent, _op), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                layer_self[layer] += own
            else:
                unattributed += own
        n = max(ops, 1)
        evals = self.complement_rank_evals
        out = {
            "ratmat.elim_s": sum(total[k] for k in ELIMINATIONS) / n,
            "ratmat.elim_calls": sum(calls[k] for k in ELIMINATIONS) / n,
            "ratmat.rank_calls": calls["ratmat.rank"] / n,
            "ratmat.rref_calls": calls["ratmat.rref"] / n,
            "ratmat.solve_calls": calls["ratmat.solve"] / n,
            "ratmat.complement_useful_ratio": self.picked / evals if evals else 0.0,
            "ratmat.product_s": sum(total[k] for k in PRODUCTS) / n,
            "ratmat.product_calls": sum(calls[k] for k in PRODUCTS) / n,
            "ratmat.max_rows": self.max_rows,
            "ratmat.max_cols": self.max_cols,
            "ratmat.max_entry_bits": self.max_entry_bits,
            "gstar.weil_route_s": total["gstar.weil_model_cohomology"] / n,
            "gstar.basic_s": total["gstar.basic_subcomplex"] / n,
            "gstar.tensor_s": total["gstar.tensor_gstar"] / n,
            "gstar.axioms_s": total["gstar.check_gstar_axioms"] / n,
            "algebra_core.cohomology_s": total["algebra_core.cohomology_dims"] / n,
            "algebra_core.verify_s": total["algebra_core.verify_complex"] / n,
            "cartan.build_s": total["cartan.build"] / n,
            "cartan.cohomology_s": total["cartan.equivariant_cohomology"] / n,
            "cartan.u_action_s": total["cartan.u_multiplication"] / n,
            "spectral.pages_s": total["spectral.run_pages"] / n,
            "spectral.page_calls": calls["spectral.page"] / n,
            "spectral.formality_s": total["spectral.formality_verdict"] / n,
            "module_theory.koszul_s": total["module_theory.koszul_tor"] / n,
            "module_theory.koszul_calls": calls["module_theory.koszul_tor"] / n,
            "module_theory.realization_builds": calls["module_theory.realization"] / n,
            "cli.parse_s": sum(total[k] for k in ("cli.load_document", "cli.parse_gstar",
                                                  "cli.parse_module")) / n,
            "cli.emit_s": total["cli.emit"] / n,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / n
        out["unattributed_s"] = unattributed / n
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, op]) + "\n")
