"""Spans and work counts at jacstab's module boundaries, for the traced run.

``Tracer.install()`` replaces each function in ``SPANS`` by a wrapper in
every jacstab namespace that holds it (the defining module and every module
or package that imported it by name), and methods on their class;
``uninstall()`` puts the originals back.  Only the traced run installs the
wrappers; the end-to-end runs call jacstab untouched.

A span records the CPU time of one call.  Its self time is that time minus
the time of the spans it caused.  Spans and counts are kept in memory and
summed per operation; the runner scales each operation's times by that
operation's calibration factor before adding them to the run's totals.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (layer, module, attribute): every function whose calls open a span.  These
# are the public functions the CLI and the other layers call across module
# boundaries, so cli.self_ms holds only the CLI's own work.
SPANS = (
    ("cli", "jacstab.cli", "main"),
    ("cli", "jacstab.cli", "build_parser"),
    ("graphs", "jacstab.graphs", "DualGraph.from_json"),
    ("graphs", "jacstab.graphs", "DualGraph.validate"),
    ("graphs", "jacstab.graphs", "DualGraph.classify"),
    ("graphs", "jacstab.graphs", "DualGraph.connected_subsets"),
    ("stability", "jacstab.stability", "enumerate_stable"),
    ("stability", "jacstab.stability", "check_stability"),
    ("stability", "jacstab.stability", "threshold"),
    ("stability", "jacstab.stability", "is_balanced"),
    ("stability", "jacstab.stability", "locus_membership"),
    ("twister", "jacstab.twister", "reduce_treelike"),
    ("twister", "jacstab.twister", "branch_coefficients"),
    ("twister", "jacstab.twister", "branch_side"),
    ("twister", "jacstab.twister", "boundary_multidegree"),
    ("divisors", "jacstab.divisors", "theta_pullback"),
    ("divisors", "jacstab.divisors", "theta_gm1_pullback"),
    ("divisors", "jacstab.divisors", "mueller_class"),
    ("divisors", "jacstab.divisors", "canonicalize"),
    ("pushforward", "jacstab.pushforward", "c1_twisted_bundle"),
    ("pushforward", "jacstab.pushforward", "c1_gm1_bundle"),
    ("pushforward", "jacstab.pushforward", "theta_via_pushforward"),
    ("pushforward", "jacstab.pushforward", "theta_gm1_via_pushforward"),
    ("pushforward", "jacstab.pushforward", "FiberClass.mul_raw"),
    ("pushforward", "jacstab.pushforward", "pushforward"),
)

# Functions that are only counted: a span around each would cost more than
# the work it separates out, and their callers' self time should include them.
COUNTED = (
    ("twister", "jacstab.twister", "split_at_edge"),
)

CLOSED_FORMS = ("theta_pullback", "theta_gm1_pullback", "mueller_class")


def _short(attribute: str) -> str:
    return attribute.rsplit(".", 1)[-1]


class Tracer:
    """Installs the wrappers and collects per-operation spans and counts."""

    def __init__(self):
        self.stack: list[list] = []       # open spans: [name, child seconds]
        self.self_s: Counter = Counter()  # name -> self seconds, this operation
        self.incl_s: Counter = Counter()  # name -> inclusive seconds, this operation
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._graphs_seen: set[int] = set()
        self._restore: list[tuple] = []

    def start_op(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self._graphs_seen.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        clock = time.process_time
        stack = self.stack
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        before = getattr(self, "_before_" + name, None)
        after = getattr(self, "_after_" + name, None)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                incl_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, result, parent)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after_connected_subsets(self, args, result, parent) -> None:
        graph = id(args[0])
        if graph not in self._graphs_seen:
            self._graphs_seen.add(graph)
            self.counts["connected_subsets"] += len(result)

    def _after_check_stability(self, args, result, parent) -> None:
        if parent == "enumerate_stable":
            self.counts["enumerate_checks"] += 1

    def _after_enumerate_stable(self, args, result, parent) -> None:
        self.counts["enumerate_results"] += len(result)

    def _after_reduce_treelike(self, args, result, parent) -> None:
        self.counts["peel_steps"] += len(result.trace)

    @staticmethod
    def _before_canonicalize(args: tuple) -> tuple:
        return args[:2] + (list(args[2]),) + args[3:]

    def _after_canonicalize(self, args, result, parent) -> None:
        self.counts["canonicalize_terms"] += len(args[2])

    def _after_c1_twisted_bundle(self, args, result, parent) -> None:
        self.counts["c1_terms"] += len(result.coeffs)

    _after_c1_gm1_bundle = _after_c1_twisted_bundle

    def _after_mul_raw(self, args, result, parent) -> None:
        self.counts["product_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)
        self.counts["product_terms"] += len(result.coeffs)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, module, attribute in SPANS:
            self._patch(module, attribute, self._span)
        for layer, module, attribute in COUNTED:
            self._patch(module, attribute, self._counter)

    def _patch(self, module: str, attribute: str, make) -> None:
        mod = importlib.import_module(module)
        name = _short(attribute)
        if "." in attribute:
            cls = getattr(mod, attribute.split(".")[0])
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(make(name, original.__func__))
            else:
                wrapped = make(name, original)
            self._restore.append((cls, name, original))
            setattr(cls, name, wrapped)
            return
        original = getattr(mod, name)
        wrapped = make(name, original)
        for module_name, other in list(sys.modules.items()):
            if module_name != "jacstab" and not module_name.startswith("jacstab."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)


LAYERS = {_short(attribute): layer for layer, _, attribute in SPANS}


def per_layer(self_ms: Counter, incl_ms: Counter, calls: Counter, counts: Counter,
              ops: int, output_bytes: int, overhead_ms: float) -> dict[str, tuple]:
    """The per-layer metrics from run totals, as (value, unit).

    Times are calibrated ms per operation and self times, except
    graphs.load_ms, which is the whole of DualGraph.from_json (parse, build
    and validate).  Counts are run totals; yields are ratios of two counts.
    """
    def ms(value: float) -> tuple:
        return value / ops, "ms"

    def count(value: int) -> tuple:
        return value, "count"

    def ratio(a: int, b: int) -> tuple:
        return (a / b if b else 0.0), "ratio"

    cli_self = sum(v for k, v in self_ms.items() if LAYERS[k] == "cli")
    return {
        "cli.self_ms": ms(cli_self),
        "cli.parser_build_ms": ms(self_ms["build_parser"]),
        "cli.output_bytes": (output_bytes, "bytes"),
        "graphs.load_ms": ms(incl_ms["from_json"]),
        "graphs.connected_subsets_ms": ms(self_ms["connected_subsets"]),
        "graphs.connected_subsets": count(counts["connected_subsets"]),
        "stability.enumerate_ms": ms(self_ms["enumerate_stable"]),
        "stability.check_ms": ms(self_ms["check_stability"]),
        "stability.check_calls": count(calls["check_stability"]),
        "stability.threshold_ms": ms(self_ms["threshold"]),
        "stability.threshold_calls": count(calls["threshold"]),
        "stability.balanced_ms": ms(self_ms["is_balanced"]),
        "stability.enumerate_yield": ratio(counts["enumerate_results"], counts["enumerate_checks"]),
        "twister.reduce_ms": ms(self_ms["reduce_treelike"]),
        "twister.coefficients_ms": ms(self_ms["branch_coefficients"]),
        "twister.split_calls": count(calls["split_at_edge"]),
        "twister.peel_steps": count(counts["peel_steps"]),
        "divisors.canonicalize_ms": ms(self_ms["canonicalize"]),
        "divisors.canonicalize_terms": count(counts["canonicalize_terms"]),
        "divisors.closed_ms": ms(sum(self_ms[name] for name in CLOSED_FORMS)),
        "pushforward.c1_terms": count(counts["c1_terms"]),
        "pushforward.product_ms": ms(self_ms["mul_raw"]),
        "pushforward.product_pairs": count(counts["product_pairs"]),
        "pushforward.product_terms": count(counts["product_terms"]),
        "pushforward.product_yield": ratio(counts["product_terms"], counts["product_pairs"]),
        "pushforward.push_ms": ms(self_ms["pushforward"]),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
