"""Twister (chip-firing) action on multidegrees and treelike reduction.

A twister supported on vertex components with integer coefficients gamma acts
on multidegrees by minus the graph Laplacian: m -> m - L.gamma.  On a treelike
graph the class group is trivial, so any total-zero multidegree is reduced to
the zero multidegree by repeatedly peeling leaves and pushing their degree
across their unique separating edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import JacstabError
from .graphs import DualGraph
from .stability import check_multidegree, check_tau, base_multidegree, resolve_basepoint


def laplacian(graph: DualGraph) -> dict[str, dict[str, int]]:
    """Vertex Laplacian: L[v][v] counts non-loop endpoints, L[v][w] = -#edges(v,w).

    Loops contribute nothing; rows sum to zero.
    """
    L: dict[str, dict[str, int]] = {v: {w: 0 for w in graph.ids} for v in graph.ids}
    for (a, b) in graph.edges:
        if a == b:
            continue
        L[a][a] += 1
        L[b][b] += 1
        L[a][b] -= 1
        L[b][a] -= 1
    return L


def twist_multidegree(graph: DualGraph, gamma: Mapping[str, int]) -> dict[str, int]:
    """Multidegree of the twister with coefficients ``gamma``: minus L.gamma."""
    g = check_multidegree(graph, gamma)
    L = laplacian(graph)
    return {v: -sum(L[v][w] * g[w] for w in graph.ids) for v in graph.ids}


@dataclass(frozen=True)
class PeelStep:
    leaf: str
    branch: tuple[str, ...]
    coefficient: int


@dataclass(frozen=True)
class ReduceResult:
    gamma: dict[str, int]
    final: dict[str, int]
    trace: tuple[PeelStep, ...]


def split_at_edge(graph: DualGraph, edge: tuple[str, str]) -> tuple[frozenset[str], frozenset[str]]:
    """Vertex sets of the two components obtained by deleting one separating edge.

    A pair that is not an edge is ``BAD_INPUT``; a loop, a multiple edge or an
    edge on a cycle is ``NOT_TREELIKE``.
    """
    a, b = edge
    if a not in graph._adj or b not in graph._adj:
        raise JacstabError("BAD_INPUT", f"edge {edge} has an endpoint that is not a vertex")
    copies = graph._loops[a] if a == b else graph._adj[a].get(b, 0)
    if not copies:
        raise JacstabError("BAD_INPUT", f"{edge} is not an edge of the graph")
    if a == b or copies > 1:
        raise JacstabError("NOT_TREELIKE", f"edge {edge} is a loop or a multiple edge")
    side: set[str] = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w in side:
                continue
            # the removed edge is its pair's only copy, so skip the pair
            if {u, w} == {a, b}:
                continue
            side.add(w)
            stack.append(w)
    if b in side:
        raise JacstabError("NOT_TREELIKE", f"edge {edge} is not separating")
    return frozenset(side), frozenset(graph.ids) - frozenset(side)


def reduce_treelike(graph: DualGraph, m: Mapping[str, int], root: str | None = None,
                    choose_leaf: Callable[[tuple[str, ...]], str] | None = None) -> ReduceResult:
    """Reduce a total-zero multidegree on a treelike graph to the zero one.

    Leaves of the loopless tree are peeled one at a time; peeling a leaf with
    current degree c twists by c on the whole branch hanging off it, which
    pushes c across the leaf's unique remaining edge.  The returned gamma is
    normalized to vanish at the root (the vertex carrying marking 1 unless
    overridden) and satisfies twist_multidegree(gamma) + m = 0.

    ``choose_leaf`` picks among the currently peelable leaves (sorted tuple);
    the result does not depend on the choice, which the tests exercise.
    """
    if not graph.classify().treelike:
        raise JacstabError("NOT_TREELIKE", "reduction is only defined for treelike graphs")
    degrees = check_multidegree(graph, m)
    if sum(degrees.values()) != 0:
        raise JacstabError("NONZERO_TOTAL", "multidegree must have total 0")
    if root is None:
        root = graph.marking_vertex(1) or graph.ids[0]
    elif root not in graph.ids:
        raise JacstabError("BAD_INPUT", f"unknown root vertex {root!r}")

    remaining = set(graph.ids)
    cur = dict(degrees)
    gamma = {v: 0 for v in graph.ids}
    trace: list[PeelStep] = []
    # peeled[v] = vertices absorbed into v's side so far (branch bookkeeping)
    absorbed: dict[str, set[str]] = {v: {v} for v in graph.ids}

    while len(remaining) > 1:
        leaves = tuple(sorted(
            v for v in remaining
            if v != root and sum(graph._adj[v].get(w, 0) for w in remaining if w != v) == 1
        ))
        if not leaves:
            raise JacstabError("NOT_TREELIKE", "no peelable leaf found")
        leaf = choose_leaf(leaves) if choose_leaf is not None else leaves[0]
        if leaf not in leaves:
            raise JacstabError("BAD_INPUT", f"{leaf!r} is not a peelable leaf")
        target = next(w for w in graph.neighbors(leaf) if w in remaining and w != leaf)
        branch = frozenset(absorbed[leaf])
        coeff = cur[leaf]
        if coeff:
            for w in branch:
                gamma[w] += coeff
            cur[target] += coeff
            cur[leaf] = 0
            trace.append(PeelStep(leaf=leaf, branch=tuple(sorted(branch)), coefficient=coeff))
        absorbed[target] |= branch
        remaining.discard(leaf)

    assert all(d == 0 for d in cur.values())
    assert gamma[root] == 0
    return ReduceResult(gamma=gamma, final=cur, trace=tuple(trace))


def branch_coefficients(graph: DualGraph, tau: Iterable[int], k: int,
                        basepoint: str | None = None) -> dict[tuple[str, str], int]:
    """Twist coefficient of each separating edge of a treelike graph.

    For an edge e let Z_e be the side not containing the basepoint (marking 1
    by default); the coefficient is the sum of tau over legs in Z_e minus
    k times the dualizing degree of Z_e.  On each edge this equals
    k(1-2h) + sum of tau over the branch legs, with h the branch genus.
    """
    if not graph.classify().treelike:
        raise JacstabError("NOT_TREELIKE", "branch coefficients need a treelike graph")
    t = check_tau(graph.g, tau, k, n=graph.n)
    base = resolve_basepoint(graph, basepoint)
    out: dict[tuple[str, str], int] = {}
    for edge in graph.nonloop_edges():
        side_a, side_b = split_at_edge(graph, edge)
        Z = side_b if base in side_a else side_a
        leg_sum = sum(t[i - 1] for v in Z for i in graph.legs_of[v])
        out[edge] = leg_sum - k * graph.omega_degree(Z)
    return out


def branch_side(graph: DualGraph, edge: tuple[str, str],
                basepoint: str | None = None) -> frozenset[str]:
    """Side of a separating edge not containing the basepoint."""
    base = resolve_basepoint(graph, basepoint)
    side_a, side_b = split_at_edge(graph, edge)
    return side_b if base in side_a else side_a


def boundary_multidegree(graph: DualGraph, tau: Iterable[int], k: int,
                         basepoint: str | None = None) -> dict[str, int]:
    """Fiberwise multidegree of the twisted bundle on a treelike graph.

    Base multidegree plus one twist per separating edge, supported on the side
    away from the basepoint.  Equals the zero multidegree; the tests assert
    this rather than the implementation.
    """
    coeffs = branch_coefficients(graph, tau, k, basepoint=basepoint)
    m = base_multidegree(graph, tau, k)
    for edge, c in coeffs.items():
        if c == 0:
            continue
        Z = branch_side(graph, edge, basepoint=basepoint)
        indicator = {v: (1 if v in Z else 0) for v in graph.ids}
        tw = twist_multidegree(graph, indicator)
        for v in graph.ids:
            m[v] += c * tw[v]
    return m
