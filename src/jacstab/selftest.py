"""Cross-formula consistency suite runnable from the CLI.

Each check pits an implementation against an independent oracle or a theorem:
pushforward derivations against the closed transcriptions, leaf peeling
against the exact linear solve, the pruned enumeration against a scan of the
box cut by the one-vertex inequalities (it holds every stable vector), the
graded exponential against series multiplication.  Counts and the first
counterexample per check are reported; any failure makes the run fail.
"""

from __future__ import annotations

import random

from . import corpus, oracles
from .divisors import theta_pullback, theta_pullback_hain, theta_gm1_pullback, mueller_class
from .graphs import DualGraph
from .pushforward import (theta_via_pushforward, theta_gm1_via_pushforward,
                          compact_type_gm1_multidegree, exp_truncate)
from .stability import (Polarization, QSTABLE, check_stability, enumerate_stable,
                        is_balanced, base_multidegree)
from .twister import (reduce_treelike, twist_multidegree, branch_coefficients,
                      branch_side, boundary_multidegree)

SMALL = "small"
FULL = "full"


class _Check:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures = 0
        self.counterexample: str | None = None

    def record(self, ok: bool, describe) -> None:
        self.cases += 1
        if not ok:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = describe() if callable(describe) else str(describe)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "cases": self.cases, "ok": self.failures == 0,
                "failures": self.failures, "counterexample": self.counterexample}


def _tau_samples(rng: random.Random, n: int, target: int, count: int,
                 bound: int = 5, forbid_zero: bool = False) -> list[list[int]]:
    out: list[list[int]] = []
    seen = set()
    for _ in range(count * 6):
        if len(out) >= count:
            break
        tau = corpus.random_tau(rng, n, target, bound=bound)
        if tau is None:
            break
        if forbid_zero and not any(tau):
            continue
        key = tuple(tau)
        if key not in seen:
            seen.add(key)
            out.append(tau)
    return out


def _theta_grid(check_closed: _Check, check_hain: _Check, rng: random.Random,
                max_g: int, max_n: int, k_values, samples: int) -> None:
    for g in range(1, max_g + 1):
        for n in range(1, max_n + 1):
            for k in k_values:
                target = k * (2 * g - 2)
                for tau in _tau_samples(rng, n, target, samples, forbid_zero=(k == 0)):
                    derived = theta_via_pushforward(g, n, tau, k)
                    closed = theta_pullback(g, n, tau, k)
                    check_closed.record(derived == closed,
                                        lambda g=g, n=n, tau=tau, k=k:
                                        f"g={g} n={n} tau={tau} k={k}")
                    if k == 0:
                        hain = theta_pullback_hain(g, n, tau)
                        check_hain.record(hain == closed,
                                          lambda g=g, n=n, tau=tau:
                                          f"g={g} n={n} tau={tau}")


def _gm1_grid(check: _Check, rng: random.Random, max_g: int, max_n: int,
              samples: int) -> None:
    for g in range(1, max_g + 1):
        for n in range(1, max_n + 1):
            for tau in _tau_samples(rng, n, g - 1, samples):
                derived = theta_gm1_via_pushforward(g, n, tau)
                closed = theta_gm1_pullback(g, n, tau)
                ok = derived == closed
                if ok and any(x < 0 for x in tau):
                    corr = mueller_class(g, n, tau) - closed
                    ok = all(c.denominator == 1 and c <= 0 for c in corr.delta.values())
                check.record(ok, lambda g=g, n=n, tau=tau: f"g={g} n={n} tau={tau}")


def _twister_suite(check: _Check, rng: random.Random, graphs: int, max_v: int) -> None:
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v)
        m = corpus.random_zero_sum(rng, list(graph.ids))
        result = reduce_treelike(graph, m)
        root = graph.marking_vertex(1) or graph.ids[0]
        expected = oracles.solve_twister(graph, m, root)
        shuffled = reduce_treelike(graph, m,
                                   choose_leaf=lambda leaves: rng.choice(leaves))
        ok = (result.gamma == expected
              and shuffled.gamma == expected
              and all(v == 0 for v in result.final.values())
              and {v: twist_multidegree(graph, result.gamma)[v] + m[v]
                   for v in graph.ids} == {v: 0 for v in graph.ids})
        check.record(ok, lambda graph=graph, m=m: f"{graph!r} m={m}")


def _treelike_enumeration(check: _Check, rng: random.Random, graphs: int, max_v: int) -> None:
    pol = Polarization.canonical_zero()
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v)
        found = enumerate_stable(graph, pol, QSTABLE)
        ok = found == [{v: 0 for v in graph.ids}]
        check.record(ok, lambda graph=graph, found=found: f"{graph!r} -> {found}")


def _banana_check(check: _Check) -> None:
    pol = Polarization.canonical_zero()
    for first in (True, False):
        graph = corpus.banana_graph(marking_on_first=first)
        base = graph.marking_vertex(1)
        other = next(v for v in graph.ids if v != base)
        found = enumerate_stable(graph, pol, QSTABLE)
        want = sorted(({base: 0, other: 0}, {base: 1, other: -1}),
                      key=lambda m: tuple(m[v] for v in graph.ids))
        check.record(found == want, lambda found=found: f"banana -> {found}")


def _balanced_suite(check: _Check, rng: random.Random, graphs: int, max_v: int) -> None:
    pol = Polarization.canonical_zero()
    for _ in range(graphs):
        graph = corpus.random_connected_graph(rng, max_vertices=max_v)
        k = rng.randint(-1, 1)
        tau = corpus.random_tau(rng, graph.n, k * (2 * graph.g - 2), bound=5)
        if tau is None:
            continue
        balanced = is_balanced(graph, tau, k).ok
        m0 = base_multidegree(graph, tau, k)
        qstable = check_stability(graph, pol, m0, QSTABLE).ok
        ok = balanced == qstable
        if ok and balanced and graph.classify().treelike:
            coeffs = branch_coefficients(graph, tau, k)
            ok = all(c == 0 for c in coeffs.values())
        check.record(ok, lambda graph=graph, tau=tau, k=k:
                     f"{graph!r} tau={tau} k={k}")


def _branch_identity(check: _Check, rng: random.Random, graphs: int, max_v: int) -> None:
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v, max_genus=1)
        if graph.g > 5:
            continue
        k = rng.randint(-2, 2)
        tau = corpus.random_tau(rng, graph.n, k * (2 * graph.g - 2), bound=5)
        if tau is None:
            continue
        coeffs = branch_coefficients(graph, tau, k)
        ok = True
        for edge, c in coeffs.items():
            Z = branch_side(graph, edge)
            h = graph.subcurve_genus(Z)
            legs = sorted(i for v in Z for i in graph.legs_of[v])
            rhs = k * (1 - 2 * h) + sum(tau[i - 1] for i in legs)
            if c != rhs:
                ok = False
                break
        if ok:
            total = boundary_multidegree(graph, tau, k)
            ok = all(v == 0 for v in total.values())
        check.record(ok, lambda graph=graph, tau=tau, k=k:
                     f"{graph!r} tau={tau} k={k}")


def _enumeration_box(check: _Check, rng: random.Random, graphs: int, max_v: int) -> None:
    pol = Polarization.canonical_zero()
    for _ in range(graphs):
        graph = corpus.random_connected_graph(rng, max_vertices=max_v,
                                              max_extra_edges=2, max_genus=1)
        fast = enumerate_stable(graph, pol, QSTABLE)
        slow = oracles.brute_force_stable(graph, pol, QSTABLE)
        check.record(fast == slow, lambda graph=graph: f"{graph!r}")


def _exp_suite(check: _Check, max_g: int) -> None:
    for g in range(1, max_g + 1):
        got = exp_truncate(g)
        want = oracles.exp_series_degree_part(g)
        check.record(got.terms == want, lambda g=g, got=got: f"g={g}: {got.text()}")


def _compact_type_suite(check: _Check, max_g: int) -> None:
    pol = Polarization.trivial_gm1()
    for g1 in range(0, max_g + 1):
        for g2 in range(0, max_g - g1 + 1):
            for n1 in range(0, 4):
                for n2 in range(0, 4):
                    n = n1 + n2
                    if n == 0:
                        continue
                    if 2 * g1 - 2 + 1 + n1 <= 0 or 2 * g2 - 2 + 1 + n2 <= 0:
                        continue
                    for base_first in (True, False):
                        if (base_first and n1 == 0) or (not base_first and n2 == 0):
                            continue
                        legs1 = list(range(1, n1 + 1)) if base_first else list(range(n2 + 1, n + 1))
                        legs2 = sorted(set(range(1, n + 1)) - set(legs1))
                        graph = DualGraph([("v1", g1, legs1), ("v2", g2, legs2)],
                                          [("v1", "v2")])
                        m = compact_type_gm1_multidegree(graph)
                        ok = (sum(m.values()) == graph.g - 1
                              and check_stability(graph, pol, m, QSTABLE).ok)
                        check.record(ok, lambda graph=graph, m=m: f"{graph!r} -> {m}")


def run(depth: str = SMALL, seed: int = 0) -> dict:
    """Run the suite; returns a JSON-ready report with per-check outcomes."""
    if depth not in (SMALL, FULL):
        raise ValueError(f"depth must be 'small' or 'full', got {depth!r}")
    rng = random.Random(seed)
    big = depth == FULL

    theta_closed = _Check("theta-derive-vs-closed")
    theta_hain = _Check("theta-hain-vs-closed-k0")
    gm1 = _Check("theta-gm1-derive-vs-closed")
    twist = _Check("twister-reduce-oracle")
    tree = _Check("treelike-unique-zero")
    banana = _Check("banana-enumeration")
    balanced = _Check("balanced-iff-qstable")
    branch = _Check("branch-coefficient-identity")
    box = _Check("enumeration-vs-brute-force")
    exp = _Check("exp-truncation-oracle")
    compact = _Check("compact-type-gm1-rule")

    _theta_grid(theta_closed, theta_hain, rng,
                max_g=5 if big else 3, max_n=4 if big else 3,
                k_values=range(-2, 3) if big else (-1, 0, 1),
                samples=5 if big else 3)
    _gm1_grid(gm1, rng, max_g=5 if big else 3, max_n=4 if big else 3,
              samples=5 if big else 3)
    _twister_suite(twist, rng, graphs=120 if big else 30, max_v=12 if big else 8)
    _treelike_enumeration(tree, rng, graphs=100 if big else 25, max_v=10 if big else 6)
    _banana_check(banana)
    _balanced_suite(balanced, rng, graphs=80 if big else 25, max_v=8 if big else 6)
    _branch_identity(branch, rng, graphs=60 if big else 20, max_v=8 if big else 6)
    _enumeration_box(box, rng, graphs=10 if big else 5, max_v=4 if big else 3)
    _exp_suite(exp, max_g=8 if big else 5)
    _compact_type_suite(compact, max_g=6 if big else 4)

    checks = [theta_closed, theta_hain, gm1, twist, tree, banana, balanced,
              branch, box, exp, compact]
    return {
        "depth": depth,
        "seed": seed,
        "ok": all(c.failures == 0 for c in checks),
        "checks": [c.to_json_dict() for c in checks],
    }
