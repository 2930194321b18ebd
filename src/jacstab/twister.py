"""Twister (chip-firing) action on multidegrees and treelike reduction.

A twister supported on vertex components with integer coefficients gamma acts
on multidegrees by minus the graph Laplacian: m -> m - L.gamma.  On a treelike
graph the class group is trivial, so any total-zero multidegree is reduced to
the zero multidegree by repeatedly peeling leaves: each pushes the degree c
summed over its branch across its unique separating edge.  There the degree
g-1 section has the multidegree :func:`compact_type_gm1_multidegree`.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import stats
from .errors import JacstabError
from .graphs import DualGraph
from .stability import check_multidegree, base_multidegree, resolve_basepoint


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
    """Twister multidegree: minus L.gamma, at v the sum of gamma(w) - gamma(v) over edges vw."""
    g = check_multidegree(graph, gamma)
    return {v: sum(c * (g[w] - g[v]) for w, c in graph._adj[v].items()) for v in graph.ids}


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
    side = graph._component(graph._id_set - {b}, a)
    if graph.kappa(side) != 1:
        raise JacstabError("NOT_TREELIKE", f"edge {edge} is not separating")
    return side, graph._id_set - side


def reduction_root(graph: DualGraph) -> str:
    """Where :func:`reduce_treelike` normalizes gamma by default: the vertex
    carrying marking 1, else the first vertex.

    The root only fixes gamma's additive constant, which the twister action
    ignores; it is not the stability basepoint of ``resolve_basepoint``.  So an
    unmarked curve of two components is reduced, while the twist answers,
    which orient each edge away from a basepoint, refuse it with NO_BASEPOINT.
    """
    v = graph.marking_vertex(1)
    return graph.ids[0] if v is None else v


def _peel(graph: DualGraph, m: Mapping[str, int], root: str,
          choose_leaf: Callable[[tuple[str, ...]], str] | None = None):
    """Peel leaves towards ``root``: steps (leaf, neighbour towards root, branch,
    sum of m over the branch), zero sums included, and gamma carrying each sum on
    its branch.  A branch is the leaf with all peeled into it, so its twist pushes
    the sum across the edge.  Each vertex carries its branch and its sum, and
    counts its neighbours not yet peeled; the peelable leaves are kept sorted."""
    left = dict(graph._nonloop_val)
    branch = {v: [v] for v in graph.ids}
    total = dict(m)
    leaves = sorted(v for v in graph.ids if v != root and left[v] == 1)
    gamma = dict.fromkeys(graph.ids, 0)
    steps = []
    for _ in range(len(graph.ids) - 1):
        leaf = choose_leaf(tuple(leaves)) if choose_leaf is not None else leaves[0]
        if leaf not in leaves:
            raise JacstabError("BAD_INPUT", f"{leaf!r} is not a peelable leaf")
        leaves.remove(leaf)
        left[leaf] = 0
        target = next(w for w in graph._adj[leaf] if left[w])
        c = total[leaf]
        for v in branch[leaf]:
            gamma[v] += c
        steps.append((leaf, target, branch[leaf], c))
        branch[target] += branch[leaf]
        total[target] += c
        left[target] -= 1
        if left[target] == 1 and target != root:
            insort(leaves, target)
    stats.COUNTS["twister.peel_steps"] += len(steps)
    return steps, gamma


def reduce_treelike(graph: DualGraph, m: Mapping[str, int], root: str | None = None,
                    choose_leaf: Callable[[tuple[str, ...]], str] | None = None) -> ReduceResult:
    """Reduce a total-zero multidegree on a treelike graph to the zero one.

    Leaves of the loopless tree are peeled one at a time; peeling a leaf with
    degree c summed over its branch twists by c on that branch, which pushes c
    across the leaf's unique remaining edge.  The returned gamma is normalized
    to vanish at the root (:func:`reduction_root` unless given) and satisfies
    twist_multidegree(gamma) + m = 0; the trace lists the non-zero twists.

    ``choose_leaf`` picks among the currently peelable leaves (sorted tuple);
    the result does not depend on the choice, which the tests exercise.
    """
    if not graph.classify().treelike:
        raise JacstabError("NOT_TREELIKE", "reduction is only defined for treelike graphs")
    degrees = check_multidegree(graph, m)
    if sum(degrees.values()) != 0:
        raise JacstabError("NONZERO_TOTAL", "multidegree must have total 0")
    if root is None:
        root = reduction_root(graph)
    elif root not in graph.ids:
        raise JacstabError("BAD_INPUT", f"unknown root vertex {root!r}")

    steps, gamma = _peel(graph, degrees, root, choose_leaf)
    final = {v: d + degrees[v] for v, d in twist_multidegree(graph, gamma).items()}
    assert not any(final.values()) and gamma[root] == 0
    trace = tuple(PeelStep(leaf=leaf, branch=tuple(sorted(branch)), coefficient=c)
                  for leaf, _, branch, c in steps if c)
    return ReduceResult(gamma=gamma, final=final, trace=trace)


def _branch_table(graph: DualGraph, tau: Iterable[int], k: int, basepoint: str | None):
    """Base multidegree, {edge: (branch, coefficient)} in sorted edge order and gamma,
    read from its peel towards the basepoint; refused in the order NOT_TREELIKE,
    tau, basepoint, even with no edge."""
    if not graph.classify().treelike:
        raise JacstabError("NOT_TREELIKE", "branch coefficients need a treelike graph")
    m = base_multidegree(graph, tau, k)
    steps, gamma = _peel(graph, m, resolve_basepoint(graph, basepoint))
    table = {(min(a, b), max(a, b)): (branch, c) for a, b, branch, c in steps}
    return m, dict(sorted(table.items())), gamma


def branch_coefficients(graph: DualGraph, tau: Iterable[int], k: int,
                        basepoint: str | None = None) -> dict[tuple[str, str], int]:
    """Twist coefficient of each separating edge of a treelike graph.

    The coefficient of an edge is :func:`base_multidegree` summed over its
    :func:`branch_side` (the side without the basepoint, marking 1 by
    default), which is k(1-2h) + sum of tau over the branch legs, with h the
    branch genus.
    """
    return {edge: c for edge, (_, c) in _branch_table(graph, tau, k, basepoint)[1].items()}


def branch_side(graph: DualGraph, edge: tuple[str, str],
                basepoint: str | None = None) -> frozenset[str]:
    """Side of a separating edge not containing the basepoint."""
    base = resolve_basepoint(graph, basepoint)
    side_a, side_b = split_at_edge(graph, edge)
    return side_b if base in side_a else side_a


def boundary_multidegree(graph: DualGraph, tau: Iterable[int], k: int,
                         basepoint: str | None = None) -> dict[str, int]:
    """Fiberwise multidegree of the twisted bundle on a treelike graph.

    :func:`base_multidegree` plus the twister carrying each edge's
    :func:`branch_coefficients` value on its :func:`branch_side`.  Equals zero
    for every basepoint; the tests assert this rather than the implementation.
    """
    m, _, gamma = _branch_table(graph, tau, k, basepoint)
    return {v: d + m[v] for v, d in twist_multidegree(graph, gamma).items()}


def compact_type_gm1_multidegree(graph: DualGraph, basepoint: str | None = None) -> dict[str, int]:
    """Multidegree of the degree g-1 section on a treelike fiber.

    m_v = g_v + loops_v + val'(v) - 2 + [v = base], val' counting non-loop
    edges, base from :func:`resolve_basepoint`: each branch away from the base
    gets its genus minus one, the total is g - 1, and this is the unique
    q-stable multidegree of degree g - 1 for the trivial polarization.
    """
    if not graph.classify().treelike:
        raise JacstabError("WRONG_SHAPE", "rule applies to treelike graphs only")
    base = resolve_basepoint(graph, basepoint)
    return {v: graph.genus_of[v] + graph._loops[v] + graph._nonloop_val[v] - 2 + (v == base)
            for v in graph.ids}
