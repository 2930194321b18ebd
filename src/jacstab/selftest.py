"""Cross-formula consistency suite runnable from the CLI.

Each check pits an implementation against an independent oracle or a theorem:
pushforward derivations against the closed transcriptions, leaf peeling
against the exact linear solve, the pruned enumeration against a scan of the
box cut by the one-vertex inequalities (it holds every stable vector), the
graded exponential against series multiplication.  Counts and the first
counterexample per check are reported; any failure makes the run fail.

Every check is one row of ``CHECKS``, as every command is one row of
``COMMANDS`` in ``cli.py``.  A row's suite yields ``(check name, ok, case
description)`` per case; ``run`` calls the suites in row order on one seeded
random stream and builds the report from what they yield.
"""

from __future__ import annotations

import random

from . import corpus, oracles
from .divisors import theta_pullback, theta_pullback_hain, theta_gm1_pullback, mueller_class
from .graphs import DualGraph
from .pushforward import theta_via_pushforward, theta_gm1_via_pushforward, exp_truncate
from .stability import (Polarization, QSTABLE, check_stability, enumerate_stable,
                        is_balanced, base_multidegree)
from .twister import (reduce_treelike, reduction_root, twist_multidegree,
                      branch_coefficients, branch_side, boundary_multidegree,
                      compact_type_gm1_multidegree)

SMALL = "small"
FULL = "full"


def _tau_samples(rng: random.Random, n: int, target: int, count: int,
                 bound: int = 5, forbid_zero: bool = False) -> list[list[int]]:
    out: list[list[int]] = []
    for _ in range(count * 6):
        if len(out) >= count:
            break
        tau = corpus.random_tau(rng, n, target, bound=bound)
        if tau is None:
            break
        if forbid_zero and not any(tau):
            continue
        if tau not in out:
            out.append(tau)
    return out


def _theta_grid(rng: random.Random, max_g: int, max_n: int, k_values, samples: int):
    for g in range(1, max_g + 1):
        for n in range(1, max_n + 1):
            for k in k_values:
                target = k * (2 * g - 2)
                for tau in _tau_samples(rng, n, target, samples, forbid_zero=(k == 0)):
                    derived = theta_via_pushforward(g, n, tau, k)
                    closed = theta_pullback(g, n, tau, k)
                    yield ("theta-derive-vs-closed", derived == closed,
                           f"g={g} n={n} tau={tau} k={k}")
                    if k == 0:
                        hain = theta_pullback_hain(g, n, tau)
                        yield "theta-hain-vs-closed-k0", hain == closed, f"g={g} n={n} tau={tau}"


def _gm1_grid(rng: random.Random, max_g: int, max_n: int, samples: int):
    for g in range(1, max_g + 1):
        for n in range(1, max_n + 1):
            for tau in _tau_samples(rng, n, g - 1, samples):
                derived = theta_gm1_via_pushforward(g, n, tau)
                closed = theta_gm1_pullback(g, n, tau)
                ok = derived == closed
                if ok and any(x < 0 for x in tau):
                    corr = mueller_class(g, n, tau) - closed
                    ok = all(c.denominator == 1 and c <= 0 for c in corr.delta.values())
                yield "theta-gm1-derive-vs-closed", ok, f"g={g} n={n} tau={tau}"


def _twister_suite(rng: random.Random, graphs: int, max_v: int):
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v)
        m = corpus.random_zero_sum(rng, list(graph.ids))
        result = reduce_treelike(graph, m)
        expected = oracles.solve_twister(graph, m, reduction_root(graph))
        shuffled = reduce_treelike(graph, m, choose_leaf=rng.choice)
        ok = (result.gamma == expected
              and shuffled.gamma == expected
              and all(v == 0 for v in result.final.values())
              and all(d + m[v] == 0 for v, d in twist_multidegree(graph, result.gamma).items()))
        yield "twister-reduce-oracle", ok, f"{graph!r} m={m}"


def _treelike_enumeration(rng: random.Random, graphs: int, max_v: int):
    pol = Polarization.canonical_zero()
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v)
        found = enumerate_stable(graph, pol, QSTABLE)
        ok = found == [{v: 0 for v in graph.ids}]
        yield "treelike-unique-zero", ok, f"{graph!r} -> {found}"


def _banana_check(rng: random.Random):
    pol = Polarization.canonical_zero()
    for first in (True, False):
        graph = corpus.banana_graph(marking_on_first=first)
        base = graph.marking_vertex(1)
        other = next(v for v in graph.ids if v != base)
        found = enumerate_stable(graph, pol, QSTABLE)
        want = sorted(({base: 0, other: 0}, {base: 1, other: -1}),
                      key=lambda m: tuple(m[v] for v in graph.ids))
        yield "banana-enumeration", found == want, f"banana -> {found}"


def _balanced_suite(rng: random.Random, graphs: int, max_v: int):
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
        yield "balanced-iff-qstable", ok, f"{graph!r} tau={tau} k={k}"


def _branch_identity(rng: random.Random, graphs: int, max_v: int):
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
        yield "branch-coefficient-identity", ok, f"{graph!r} tau={tau} k={k}"


def _enumeration_box(rng: random.Random, graphs: int, max_v: int):
    pol = Polarization.canonical_zero()
    for _ in range(graphs):
        graph = corpus.random_connected_graph(rng, max_vertices=max_v,
                                              max_extra_edges=2, max_genus=1)
        fast = enumerate_stable(graph, pol, QSTABLE)
        slow = oracles.brute_force_stable(graph, pol, QSTABLE)
        yield "enumeration-vs-brute-force", fast == slow, f"{graph!r}"


def _exp_suite(rng: random.Random, max_g: int):
    for g in range(1, max_g + 1):
        got = exp_truncate(g)
        want = oracles.exp_series_degree_part(g)
        yield "exp-truncation-oracle", got.terms == want, f"g={g}: {got.text()}"


def _compact_type_suite(rng: random.Random, max_g: int):
    pol = Polarization.trivial_gm1()
    for g1 in range(max_g + 1):
        for g2 in range(max_g - g1 + 1):
            for n1 in range(4):
                for n2 in range(4):
                    if 2 * g1 - 1 + n1 <= 0 or 2 * g2 - 1 + n2 <= 0:
                        continue
                    legs = range(1, n1 + n2 + 1)
                    # marking 1 on v1 (legs 1..n1 there), then on v2 (legs 1..n2 there)
                    for legs1, based in ((legs[:n1], n1), (legs[n2:], n2)):
                        if not based:
                            continue
                        graph = DualGraph([("v1", g1, legs1),
                                           ("v2", g2, [i for i in legs if i not in legs1])],
                                          [("v1", "v2")])
                        m = compact_type_gm1_multidegree(graph)
                        ok = (sum(m.values()) == graph.g - 1
                              and check_stability(graph, pol, m, QSTABLE).ok)
                        yield "compact-type-gm1-rule", ok, f"{graph!r} -> {m}"


def _treelike_gm1_suite(rng: random.Random, graphs: int, max_v: int):
    pol = Polarization.trivial_gm1()
    for _ in range(graphs):
        graph = corpus.random_treelike_graph(rng, max_vertices=max_v)
        base = rng.choice(graph.ids)
        m = compact_type_gm1_multidegree(graph, basepoint=base)
        found = enumerate_stable(graph, pol, QSTABLE, basepoint=base)
        yield "treelike-gm1-rule", found == [m], f"{graph!r} base={base} -> {m}"


# (suite, check names in report order, {size: (small, full)}).  A new row goes
# last: the suites share one stream, so a row moves every later check's cases.
CHECKS = (
    (_theta_grid, ("theta-derive-vs-closed", "theta-hain-vs-closed-k0"),
     {"max_g": (3, 5), "max_n": (3, 4), "k_values": ((-1, 0, 1), range(-2, 3)),
      "samples": (3, 5)}),
    (_gm1_grid, ("theta-gm1-derive-vs-closed",),
     {"max_g": (3, 5), "max_n": (3, 4), "samples": (3, 5)}),
    (_twister_suite, ("twister-reduce-oracle",), {"graphs": (30, 120), "max_v": (8, 12)}),
    (_treelike_enumeration, ("treelike-unique-zero",), {"graphs": (25, 100), "max_v": (6, 10)}),
    (_banana_check, ("banana-enumeration",), {}),
    (_balanced_suite, ("balanced-iff-qstable",), {"graphs": (25, 80), "max_v": (6, 8)}),
    (_branch_identity, ("branch-coefficient-identity",), {"graphs": (20, 60), "max_v": (6, 8)}),
    (_enumeration_box, ("enumeration-vs-brute-force",), {"graphs": (5, 10), "max_v": (3, 4)}),
    (_exp_suite, ("exp-truncation-oracle",), {"max_g": (5, 8)}),
    (_compact_type_suite, ("compact-type-gm1-rule",), {"max_g": (4, 6)}),
    (_treelike_gm1_suite, ("treelike-gm1-rule",), {"graphs": (25, 120), "max_v": (6, 10)}),
)


def run(depth: str = SMALL, seed: int = 0) -> dict:
    """Run the suite; returns a JSON-ready report with per-check outcomes."""
    if depth not in (SMALL, FULL):
        raise ValueError(f"depth must be 'small' or 'full', got {depth!r}")
    rng = random.Random(seed)
    big = depth == FULL
    checks = []
    for suite, names, sizes in CHECKS:
        row = {name: {"name": name, "cases": 0, "ok": True, "failures": 0,
                      "counterexample": None} for name in names}
        checks += row.values()
        for name, ok, case in suite(rng, **{key: pair[big] for key, pair in sizes.items()}):
            check = row[name]
            check["cases"] += 1
            if not ok:
                if check["ok"]:
                    check["ok"], check["counterexample"] = False, case
                check["failures"] += 1
    return {"depth": depth, "seed": seed, "ok": all(c["ok"] for c in checks),
            "checks": checks}
