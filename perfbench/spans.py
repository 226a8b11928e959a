"""Span tracing for the traced run, recorded from outside the library.

`Tracer.install` replaces the public functions of each layer module, and
every other strata_lab module's reference to the same function object, with
a wrapper that opens a span around the call and adds the call's work counts.
Nothing under src/ changes and the untraced run never installs the wrappers.
Coefficient arithmetic runs millions of times inside the engine, so `coeff`
is traced only around the benchmark's own direct calls (`span("coeff.arith")`).

A span is [name, start_ns, end_ns, parent index, job id, failed].  Spans stay
in memory and are written out at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("coeff", "pbw", "zoo", "grading", "qdet", "lattice", "strat", "dsl", "cli")


def _word_letters(args, kwargs):
    word = args[1] if len(args) > 1 else kwargs["word"]
    return sum(abs(int(e)) for _, e in word)


def _box_points(args, kwargs):
    torus = args[0]
    box = args[1] if len(args) > 1 else kwargs["box"]
    return (2 * box + 1) ** torus.ngens


# (module, function, span name, {counter: f(args, kwargs, result)}); the
# counters are added after each call that returns.
TARGETS = [
    ("pbw", "normal_form", "pbw.normal_form", {
        "pbw.normal_form_letters_in": lambda a, k, r: _word_letters(a, k),
        "pbw.normal_form_terms_out": lambda a, k, r: len(r)}),
    ("pbw", "multiply", "pbw.multiply", {"pbw.multiply_terms_out": lambda a, k, r: len(r)}),
    ("pbw", "diamond_check", "pbw.diamond_check",
     {"pbw.diamond_check_triples": lambda a, k, r: len(r)}),
    ("pbw", "hilbert_count", "pbw.hilbert_count", {"pbw.hilbert_monomials": lambda a, k, r: r}),
    ("dsl", "parse", "dsl.parse", {}),
    ("dsl", "evaluate_expression", "dsl.evaluate", {}),
    ("grading", "scalar_normality_check", "grading.normality", {}),
    ("qdet", "verify_det_normality", "qdet.verify",
     {"qdet.identities": lambda a, k, r: len(r.identities)}),
    ("qdet", "quantum_determinant", "qdet.determinant", {}),
    ("qdet", "sl_condition", "qdet.sl_condition", {}),
    ("lattice", "kernel_basis", "lattice.kernel", {}),
    ("strat", "hspec_quantum_affine", "strat.hspec", {}),
    ("strat", "stratum_report", "strat.report", {}),
    ("strat", "poset_covers", "strat.covers", {}),
    ("strat", "stratification_axioms_check", "strat.axioms", {}),
    ("strat", "brute_force_central_monomials", "strat.box",
     {"strat.box_points": lambda a, k, r: _box_points(a, k)}),
    ("strat", "normal_separation_witness", "strat.witness", {}),
    ("cli", "run", "cli.run", {}),
]


def _zoo_targets():
    zoo = importlib.import_module("strata_lab.zoo")
    return [("zoo", name, "zoo.build", {}) for name, fn in vars(zoo).items()
            if inspect.isfunction(fn) and fn.__module__ == zoo.__name__
            and not name.startswith("_")]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.job = None

    # -- recording -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job, False])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = failed
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.end(idx, failed)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    # -- patching --------------------------------------------------------------

    def _wrap(self, fn, name, counters, fuel_error):
        tracer = self
        counts_fuel = name in ("pbw.normal_form", "pbw.multiply")

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end(idx, True)
                if counts_fuel and isinstance(exc, fuel_error):
                    tracer.counts["pbw.fuel_exhausted"] += 1
                raise
            tracer.end(idx, False)
            for counter, f in counters.items():
                tracer.counts[counter] += f(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target function wherever a strata_lab module refers to it."""
        fuel_error = importlib.import_module("strata_lab.pbw").FuelExhausted
        modules = [m for n, m in list(sys.modules.items())
                   if n == "strata_lab" or n.startswith("strata_lab.")]
        for modname, attr, name, counters in TARGETS + _zoo_targets():
            mod = importlib.import_module("strata_lab." + modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(orig, name, counters, fuel_error)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._patched):
            setattr(m, key, orig)
        self._patched.clear()

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, failed in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "job": job, "failed": failed}) + "\n")

    def summary(self) -> dict:
        """Self time and calls per span name; busy time, self time, calls and failures per layer."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_ns[parent] += end - start
        by_name: dict[str, dict] = defaultdict(lambda: {"self_ns": 0, "calls": 0})
        by_layer = {layer: {"busy_ns": 0, "self_ns": 0, "calls": 0, "failures": 0}
                    for layer in LAYERS}
        for idx, (name, start, end, parent, _, failed) in enumerate(spans):
            layer = name.split(".")[0]
            self_ns = end - start - child_ns[idx]
            entry = by_name[name]
            entry["self_ns"] += self_ns
            entry["calls"] += 1
            if layer not in by_layer:
                continue
            agg = by_layer[layer]
            agg["self_ns"] += self_ns
            agg["calls"] += 1
            # Busy time and failures count the outermost span of a layer only, so
            # a layer calling itself is neither timed nor failed twice.
            outer = parent
            while outer is not None and spans[outer][0].split(".")[0] != layer:
                outer = spans[outer][3]
            if outer is None:
                agg["busy_ns"] += end - start
                agg["failures"] += failed
        return {"by_name": dict(by_name), "by_layer": by_layer}
