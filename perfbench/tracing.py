"""Spans around the engine's public functions, installed from outside.

``Tracer.install`` replaces each public function named in ``SPANS`` by a
wrapper in every ``hyperideal`` module that holds it, so calls between
modules are caught too.  Spans (name, start, end, parent) stay in memory and
are written out once, when the traced process ends.

Module-level caches make the first call that needs a derived list pay for
it.  So, for each ring a traced CLI command loads, the tracer calls the
layers in dependency order (views, hyperideals, multiplicative sets,
classification, S-classification of every pair) before the command runs;
the command then finds those lists cached, and each layer's span holds its
own cost.
"""

from __future__ import annotations

import time
from collections import Counter

import hyperideal
from hyperideal import cli, constructions, harness, ideals, kernel, multiplicative

MODULES = (hyperideal, kernel, constructions, ideals, multiplicative, harness, cli)

# public function -> span name
SPANS = {
    "parse_spec": "kernel.parse",
    "serialize_spec": "kernel.serialize",
    "verify_axioms": "kernel.verify",
    "cyclic_ring": "constructions.cyclic",
    "product_ring": "constructions.product",
    "quotient_ring": "constructions.quotient",
    "check_homomorphism": "constructions.hom",
    "enumerate_hyperideals": "ideals.enumerate",
    "classify_ideal": "ideals.classify",
    "special_sets": "ideals.special_sets",
    "enumerate_multiplicative_sets": "multiplicative.enumerate",
    "classify_s": "multiplicative.classify_s",
    "check_theorem": "harness.<id>",
}
COUNTERS = {
    "enumerate_hyperideals": "ideals.found",
    "enumerate_multiplicative_sets": "multiplicative.found",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock  # the calibration sampler's clock, which skips its samples
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.warm: tuple[str, str] | None = None  # (command, mode) of the CLI op running
        self.counted: set[tuple] = set()  # enumerations already counted in this op

    def start_op(self, warm: tuple[str, str] | None) -> None:
        self.warm = warm
        self.counted.clear()

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def _parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- instrumentation ------------------------------------------------

    def install(self) -> None:
        for fname, span in SPANS.items():
            original = getattr(hyperideal, fname)
            wrapper = self._wrapper(fname, span, original)
            for module in MODULES:
                if getattr(module, fname, None) is original:
                    setattr(module, fname, wrapper)
        original_run = cli.run
        cli.run = lambda argv=None: self.call("cli.run", original_run, argv)
        original_to_json = harness.SuiteResult.to_json

        def to_json(suite, include_timings=False):
            return self.call("harness.to_json", original_to_json, suite, include_timings)

        harness.SuiteResult.to_json = to_json

    def _wrapper(self, fname: str, span: str, original):
        tracer = self

        if fname == "check_theorem":
            def wrapper(ring, ident, mode=kernel.LENIENT):
                report = tracer.call(f"harness.{ident}", original, ring, ident, mode)
                tracer.counts["harness.instances"] += report.instances_checked
                return report
        elif fname == "verify_axioms":
            def wrapper(spec):
                top_level = tracer._parent_name() == "cli.run"
                result = tracer.call(span, original, spec)
                if isinstance(result, kernel.HyperRing):
                    tracer.counts["kernel.rings_verified"] += 1
                    if top_level and tracer.warm is not None:
                        tracer.warm_layers(result, *tracer.warm)
                return result
        elif fname == "classify_s":
            def wrapper(*args, **kwargs):
                tracer.counts["multiplicative.pairs"] += 1
                return tracer.call(span, original, *args, **kwargs)
        elif fname in COUNTERS:
            def wrapper(ring, *args, **kwargs):
                result = tracer.call(span, original, ring, *args, **kwargs)
                key = (id(ring), fname, args, tuple(sorted(kwargs.items())))
                if key not in tracer.counted:
                    tracer.counted.add(key)
                    tracer.counts[COUNTERS[fname]] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(span, original, *args, **kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def warm_layers(self, ring, command: str, mode: str) -> None:
        """Fill the caches a CLI command is about to use, one layer at a time."""
        self.call("kernel.views", _views, ring)
        found = ideals.enumerate_hyperideals(ring, mode)
        if command != "theorems":
            return
        sets = multiplicative.enumerate_multiplicative_sets(ring)
        proper = [p for p in found if not p.is_full]
        self.call("ideals.classify", lambda: [
            ideals.classify_ideal.__wrapped__(ring, p, mode) for p in proper])
        ideals.special_sets(ring, mode)
        mulsets = [multiplicative.MulSet(s, ring.one in s) for s in sets]
        classify = multiplicative.classify_s.__wrapped__
        self.call("multiplicative.classify_s", lambda: [
            classify(ring, p, s, mode) for p in proper for s in mulsets])
        self.counts["multiplicative.pairs"] += len(proper) * len(mulsets)

    # -- results --------------------------------------------------------

    def self_times(self) -> Counter:
        """Span duration minus the time its direct children cover, summed by name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Counter = Counter()
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] += seconds
        return totals


def _views(ring) -> None:
    ring.g_tuples
    ring.scalar_multiply(ring.zero, ring.zero)
