"""Seeded random corpora of valid dual graphs and twist data.

Everything is driven by a caller-supplied ``random.Random`` so that the CLI
selftest and the test suite are reproducible bit for bit.
"""

from __future__ import annotations

import random

from .graphs import DualGraph


def _random_tree(rng: random.Random, max_vertices: int) -> tuple[list[str], list[tuple[str, str]]]:
    """A random vertex count, its ids and a random tree on them: each vertex
    after the first joins one before it."""
    count = rng.randint(1, max_vertices)
    ids = [f"v{i:02d}" for i in range(1, count + 1)]
    return ids, [(ids[rng.randrange(i)], ids[i]) for i in range(1, count)]


def _finish_graph(rng: random.Random, ids: list[str], edges: list[tuple[str, str]],
                  loop_chance: float, max_genus: int, extra_legs: int,
                  legful: bool) -> DualGraph:
    """Add a loop at each vertex with ``loop_chance``, then assign genera and
    legs so that every vertex is stable."""
    edges += [(v, v) for v in ids if rng.random() < loop_chance]
    val = {v: 0 for v in ids}
    for (a, b) in edges:
        val[a] += 2 if a == b else 1
        if a != b:
            val[b] += 1
    genus = {v: rng.randint(0, max_genus) for v in ids}
    leg_count = {}
    for v in ids:
        need = max(0, 1 - (2 * genus[v] - 2 + val[v]))
        if legful:
            need = max(need, 1)
        leg_count[v] = need + rng.randint(0, extra_legs)
    total = sum(leg_count.values())
    if total == 0:
        leg_count[rng.choice(ids)] = 1
        total = 1
    labels = list(range(1, total + 1))
    rng.shuffle(labels)
    legs: dict[str, list[int]] = {v: [] for v in ids}
    pos = 0
    for v in ids:
        legs[v] = labels[pos:pos + leg_count[v]]
        pos += leg_count[v]
    graph = DualGraph([(v, genus[v], legs[v]) for v in ids], edges)
    assert not graph.validate(), graph.validate()
    return graph


def random_treelike_graph(rng: random.Random, max_vertices: int = 10,
                          max_genus: int = 2, loop_chance: float = 0.25,
                          extra_legs: int = 2, legful: bool = False) -> DualGraph:
    """Random valid treelike graph: a random tree plus optional loops."""
    ids, edges = _random_tree(rng, max_vertices)
    return _finish_graph(rng, ids, edges, loop_chance, max_genus, extra_legs, legful)


def random_connected_graph(rng: random.Random, max_vertices: int = 8,
                           max_extra_edges: int = 3, max_genus: int = 2,
                           loop_chance: float = 0.2, extra_legs: int = 2,
                           legful: bool = False) -> DualGraph:
    """Random valid connected multigraph: spanning tree plus extra edges."""
    ids, edges = _random_tree(rng, max_vertices)
    for _ in range(rng.randint(0, max_extra_edges)):
        if len(ids) == 1:
            break
        a, b = rng.sample(ids, 2)
        edges.append((a, b))
    return _finish_graph(rng, ids, edges, loop_chance, max_genus, extra_legs, legful)


def banana_graph(marking_on_first: bool = True) -> DualGraph:
    """Two components joined at two nodes; markings 1, 2 on one side."""
    legs = ([1, 2], []) if marking_on_first else ([], [1, 2])
    return DualGraph([("v1", 0 if marking_on_first else 1, legs[0]),
                      ("v2", 1 if marking_on_first else 0, legs[1])],
                     [("v1", "v2"), ("v1", "v2")])


def random_zero_sum(rng: random.Random, keys: list[str], bound: int = 8) -> dict[str, int]:
    """Random integer vector over ``keys`` with total zero."""
    values = {k: rng.randint(-bound, bound) for k in keys}
    drift = -sum(values.values())
    order = list(keys)
    rng.shuffle(order)
    i = 0
    while drift != 0:
        step = 1 if drift > 0 else -1
        values[order[i % len(order)]] += step
        drift -= step
        i += 1
    return values


def random_tau(rng: random.Random, n: int, target: int, bound: int = 5) -> list[int] | None:
    """Random integer n-vector with the given total, entries within +-bound."""
    if abs(target) > n * bound:
        return None
    tau = [rng.randint(-bound, bound) for _ in range(n)]
    drift = target - sum(tau)
    guard = 0
    while drift != 0:
        i = rng.randrange(n)
        step = 1 if drift > 0 else -1
        if -bound <= tau[i] + step <= bound:
            tau[i] += step
            drift -= step
        guard += 1
        if guard > 10000:
            return None
    return tau
