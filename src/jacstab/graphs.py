"""Stable marked dual graphs.

A dual graph is a connected weighted multigraph with legs: vertices stand for
irreducible components of a nodal curve and carry a geometric genus and a set
of marking labels, edges stand for nodes (loops allowed, one loop = one
non-separating node on a single component).

Instances are immutable after construction.  Construction only checks that the
data is structurally well formed (known ids, sane types); the semantic
invariants (connectivity, per-vertex stability, leg partition, a leg listed
twice on one vertex included) are reported by :meth:`DualGraph.validate` as
data, so that invalid graphs can be inspected rather than refused.

The connected subsets of each size are built once per graph, on request, as
one :class:`Level` of flat integer records; id tuples are rendered from their
masks only when :meth:`DualGraph.connected_subsets` is called.

The library has one graph search, :meth:`DualGraph._component`: the vertices
of a set that one of them reaches inside it.  Connectivity counts components
with it, and ``twister.split_at_edge`` takes the side of a bridge from it.
The twister's peel searches nothing: it carries each leaf's branch itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, NamedTuple

from . import stats
from .errors import JacstabError, load_json, strict_int


@dataclass(frozen=True)
class ClassifyResult:
    """Topological type flags of a dual graph."""

    treelike: bool
    compact_type: bool
    banana_like: bool


class Level(NamedTuple):
    """The connected subsets of one size, in the lexicographic order of their
    sorted id tuples: per subset its mask, the position in the level below of
    the parent it was grown from (0 at size 1), the position in ``graph.ids``
    of the vertex it added, and kappa."""

    masks: tuple[int, ...]
    parents: tuple[int, ...]
    added: tuple[int, ...]
    kappas: tuple[int, ...]


class DualGraph:
    """Weighted multigraph with legs.

    Parameters
    ----------
    vertices:
        iterable of ``(id, genus, legs)`` with ``id`` a string, ``genus`` an
        integer and ``legs`` an iterable of integer marking labels.
    edges:
        iterable of ``(id, id)`` pairs of known vertex ids, each a list or a
        tuple; loops are ``(v, v)``.  Repeated pairs are kept (multiset).
    n:
        number of markings.  Defaults to the number of legs present.

    Integers must be ``int``, not ``bool``, ``float`` or ``str``.  These, and
    malformed vertices or edges, are refused with BAD_INPUT, never coerced.
    """

    def __init__(self, vertices, edges, n: int | None = None):
        verts, repeats = [], []
        for item in vertices:
            try:
                vid, genus, legs = item
                legs = tuple(legs)
            except (TypeError, ValueError) as exc:
                raise JacstabError("BAD_INPUT", f"malformed vertex {item!r}: {exc}") from exc
            genus, marks = strict_int(genus, "genus"), Counter(strict_int(x, "leg") for x in legs)
            verts.append((vid, genus, frozenset(marks)))
            repeats += [(vid, leg, k) for leg, k in marks.items() if k > 1]
        if n is not None:
            n = strict_int(n, "n")
        for vid, _, _ in verts:
            if not isinstance(vid, str) or not vid:
                raise JacstabError("BAD_INPUT", f"vertex id must be a non-empty string, got {vid!r}")
        ids = tuple(sorted(v[0] for v in verts))
        if len(set(ids)) != len(ids):
            raise JacstabError("BAD_INPUT", "duplicate vertex ids")
        if not ids:
            raise JacstabError("BAD_INPUT", "graph needs at least one vertex")
        by_id = {v[0]: v for v in verts}
        self.ids: tuple[str, ...] = ids
        # a subset's mask has bit V-1-i for ids[i]: the lexicographic order of
        # sorted id tuples of one size is the descending order of their masks
        self._bit = {v: 1 << (len(ids) - 1 - i) for i, v in enumerate(ids)}
        self._id_set = frozenset(ids)
        self.genus_of = {v: by_id[v][1] for v in ids}
        self.legs_of = {v: by_id[v][2] for v in ids}
        self._repeated_legs = sorted(repeats)  # (vertex, leg, times listed), reported by validate

        canon_edges = []
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise JacstabError("BAD_INPUT",
                                   f"malformed edge {edge!r}: not a list or tuple of two ids")
            a, b = edge
            if not (isinstance(a, str) and a in self._bit
                    and isinstance(b, str) and b in self._bit):
                raise JacstabError("BAD_INPUT", f"edge ({a!r},{b!r}) references unknown vertex")
            canon_edges.append((a, b) if a <= b else (b, a))
        self.edges: tuple[tuple[str, str], ...] = tuple(sorted(canon_edges))

        all_legs = [x for v in ids for x in sorted(self.legs_of[v])]
        self.n: int = len(all_legs) if n is None else n

        # per-vertex counts; a loop contributes 2 to val
        self._loops = {v: 0 for v in ids}
        self._nonloop_val = {v: 0 for v in ids}
        self._adj: dict[str, dict[str, int]] = {v: {} for v in ids}
        for (a, b) in self.edges:
            if a == b:
                self._loops[a] += 1
            else:
                self._nonloop_val[a] += 1
                self._nonloop_val[b] += 1
                self._adj[a][b] = self._adj[a].get(b, 0) + 1
                self._adj[b][a] = self._adj[b].get(a, 0) + 1

        # total genus: vertex genera plus first Betti number of the multigraph
        self.g: int = sum(self.genus_of.values()) + len(self.edges) - len(ids) + 1
        # level k at index k-1; the first call of _level also sets the
        # per-vertex growth tables and the last level's ESU frontier
        self._levels: list[Level] = []

    # ------------------------------------------------------------------
    # elementary queries

    def val(self, v: str) -> int:
        """Number of edge endpoints at ``v`` (a loop counts twice)."""
        return self._nonloop_val[v] + 2 * self._loops[v]

    def marking_vertex(self, label: int) -> str | None:
        """Vertex carrying the given marking label, if any."""
        for v in self.ids:
            if label in self.legs_of[v]:
                return v
        return None

    def nonloop_edges(self) -> tuple[tuple[str, str], ...]:
        return tuple(e for e in self.edges if e[0] != e[1])

    def _subset(self, Y: Iterable[str]) -> frozenset[str]:
        S = frozenset(Y)
        if not S <= self._id_set:
            raise JacstabError("BAD_INPUT",
                               f"unknown vertices in subcurve: {sorted(S - self._id_set)}")
        return S

    # ------------------------------------------------------------------
    # subcurve combinatorics

    def kappa(self, Y: Iterable[str]) -> int:
        """Number of edges with exactly one endpoint in ``Y``.  Loops never count."""
        S = self._subset(Y)
        if not S or len(S) == len(self.ids):
            raise JacstabError("EMPTY_OR_FULL", "kappa needs a proper non-empty subcurve")
        return sum(1 for (a, b) in self.edges if (a in S) != (b in S))

    def omega_degree(self, Y: Iterable[str]) -> int:
        """Degree of the dualizing sheaf on the subcurve ``Y``.

        Equals ``sum_{v in Y} (2 g(v) - 2 + val(v))``; additive over disjoint
        vertex sets, and equal to ``2g - 2`` on the full vertex set.
        """
        S = self._subset(Y)
        if not S:
            raise JacstabError("EMPTY", "omega_degree needs a non-empty subcurve")
        return sum(2 * self.genus_of[v] - 2 + self.val(v) for v in S)

    def subcurve_genus(self, Y: Iterable[str]) -> int:
        """Arithmetic genus of the induced subcurve: vertex genera plus b1."""
        S = self._subset(Y)
        if not S:
            raise JacstabError("EMPTY", "subcurve_genus needs a non-empty subcurve")
        internal = sum(1 for (a, b) in self.edges if a in S and b in S)
        comps = self._component_count(S)
        return sum(self.genus_of[v] for v in S) + internal - len(S) + comps

    def _component(self, S: frozenset[str], start: str) -> frozenset[str]:
        """The vertices of ``S`` that ``start`` reaches along edges inside ``S``."""
        seen, stack = {start}, [start]
        while stack:
            for w in self._adj[stack.pop()]:
                if w in S and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def _component_count(self, S: frozenset[str]) -> int:
        left, comps = set(S), 0
        while left:
            left -= self._component(S, min(left))
            comps += 1
        return comps

    def is_connected_subset(self, Y: Iterable[str]) -> bool:
        """One component: the empty subcurve has none, so it is not connected."""
        return self._component_count(self._subset(Y)) == 1

    def is_connected(self) -> bool:
        return self._component_count(frozenset(self.ids)) == 1

    def connected_subsets(self, size: int | None = None) -> tuple[tuple[str, ...], ...]:
        """Proper non-empty connected vertex subsets, as sorted tuples.

        With ``size``, the subsets of that many vertices, in lexicographic
        order; sizes 0, V and above have none.  Without it, every size from 1
        to V-1 in turn, the same subsets in the same order.  The tuples are
        rendered from the masks of :meth:`_level` on each call; the stability
        scans read the masks and never ask for them.
        """
        sizes = range(1, len(self.ids)) if size is None else (size,)
        return tuple(self._members(mask) for k in sizes for mask in self._level(k).masks)

    def _members(self, mask: int) -> tuple[str, ...]:
        """The sorted ids of a subset mask."""
        return tuple(v for v, bit in self._bit.items() if mask & bit)

    def _level(self, size: int) -> Level:
        """The connected subsets of ``size`` vertices, built on first request
        from the level below and cached, so a scan that stops at a small
        subset never builds the larger levels.  Each subset is grown once, from
        its parent, as in Wernicke's ESU (IEEE/ACM TCBB 3, 2006): it keeps its
        closed neighbourhood and an extension, the neighbours after its first
        vertex it may still add; adding w keeps the extension's later bits and
        adds w's neighbours after the first vertex not yet next to the subset.
        Adding u to S adds to kappa u's non-loop valence less twice the edges
        from u into S, a bit count of u's neighbour masks (one per edge
        multiplicity) and S.  The work follows the number of connected subsets.
        """
        if not 0 < size < len(self.ids):
            return Level((), (), (), ())
        levels, ids, V = self._levels, self.ids, len(self.ids)
        if not levels:
            # the vertices after a set's first are the bits below its highest;
            # per vertex: neighbours, those joined by 2, 3, ... edges, and
            # non-loop valence
            bit = self._bit
            self._growth = [
                (sum(bit[w] for w in self._adj[v]),
                 tuple(sum(bit[w] for w, k in self._adj[v].items() if k >= j)
                       for j in range(2, max(self._adj[v].values(), default=1) + 1)),
                 self._nonloop_val[v])
                for v in ids]
            pairs = [(near, b) for (near, _, _), b in zip(self._growth, bit.values())]
            self._frontier = [tuple(near & (b - 1) for near, b in pairs),
                              tuple(near | b for near, b in pairs)]
            levels.append(Level(tuple(bit.values()), (0,) * V, tuple(range(V)),
                                tuple(self._nonloop_val.values())))
            stats.COUNTS["graphs.subsets"] += V
        growth = self._growth
        while len(levels) < size:
            grown = []
            for p, (mask, kappa, ext, closed) in enumerate(zip(levels[-1].masks, levels[-1].kappas,
                                                               *self._frontier)):
                later = (1 << mask.bit_length() - 1) - 1
                while ext:
                    low = ext & -ext
                    ext ^= low
                    u = V - low.bit_length()
                    near, parallel, valence = growth[u]
                    shared = (near & mask).bit_count()
                    for more in parallel:
                        shared += (more & mask).bit_count()
                    grown.append((mask | low, p, u, kappa + valence - 2 * shared,
                                  ext | near & ~closed & later, closed | near))
            grown.sort(reverse=True)
            # a graph that is not connected may have no subset of this size
            masks, parents, added, kappas, *self._frontier = tuple(zip(*grown)) or ((),) * 6
            levels.append(Level(masks, parents, added, kappas))
            stats.COUNTS["graphs.subsets"] += len(masks)
        return levels[size - 1]

    def _sums(self, weights: list[int]) -> Iterator[tuple[Level, list[int]]]:
        """Each level from size 1 up, as asked, with the sum of ``weights`` (in
        ``ids`` order) over each subset: its parent's sum plus one weight."""
        sums = [0]
        for size in range(1, len(self.ids)):
            level = self._level(size)
            sums = [sums[p] + weights[u] for p, u in zip(level.parents, level.added)]
            yield level, sums

    def proper_subsets(self) -> Iterable[tuple[str, ...]]:
        """All proper non-empty vertex subsets (connected or not)."""
        V = len(self.ids)
        for mask in range(1, (1 << V) - 1):
            yield tuple(self.ids[i] for i in range(V) if mask & (1 << i))

    # ------------------------------------------------------------------
    # classification and validation

    def classify(self) -> ClassifyResult:
        """Treelike / compact type / banana flags.

        Treelike means every non-loop edge is separating, i.e. the loopless
        multigraph is a tree.  Compact type is treelike with no loops.  Banana
        means exactly two vertices joined by at least two edges, no loops.
        """
        nonloop = self.nonloop_edges()
        treelike = self.is_connected() and len(nonloop) == len(self.ids) - 1
        compact = treelike and sum(self._loops.values()) == 0
        banana = (
            len(self.ids) == 2
            and sum(self._loops.values()) == 0
            and len(nonloop) >= 2
        )
        return ClassifyResult(treelike=treelike, compact_type=compact, banana_like=banana)

    def validate(self) -> list[dict]:
        """Return the list of violated invariants (empty list means valid)."""
        violations: list[dict] = []
        for v in self.ids:
            if self.genus_of[v] < 0:
                violations.append({"code": "NEGATIVE_GENUS", "vertex": v,
                                   "message": f"vertex {v} has genus {self.genus_of[v]} < 0"})
        if not self.is_connected():
            violations.append({"code": "NOT_CONNECTED", "message": "graph is not connected"})
        for v, leg, k in self._repeated_legs:
            violations.append({"code": "LEGS_NOT_PARTITION", "leg": leg, "message":
                               f"leg {leg} appears {'twice' if k == 2 else f'{k} times'} on {v}"})
        seen: dict[int, str] = {}
        for v in self.ids:
            for leg in self.legs_of[v]:
                if leg in seen:
                    violations.append({"code": "LEGS_NOT_PARTITION", "leg": leg,
                                       "message": f"leg {leg} appears on {seen[leg]} and {v}"})
                seen[leg] = v
        # seen == {1..n}, without building 1..n: n comes from the input
        if len(seen) != max(self.n, 0) or not all(1 <= leg <= self.n for leg in seen):
            violations.append({"code": "LEGS_NOT_PARTITION",
                               "message": f"legs {sorted(seen)} do not partition 1..{self.n}"})
        for v in self.ids:
            score = 2 * self.genus_of[v] - 2 + self.val(v) + len(self.legs_of[v])
            if score <= 0:
                violations.append({"code": "VERTEX_UNSTABLE", "vertex": v,
                                   "message": f"vertex {v}: 2g-2+val+legs = {score} <= 0"})
        if 2 * self.g - 2 + self.n <= 0:
            violations.append({"code": "CURVE_UNSTABLE",
                               "message": f"2g-2+n = {2 * self.g - 2 + self.n} <= 0"})
        return violations

    # ------------------------------------------------------------------
    # JSON interface

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [
                {"id": v, "genus": self.genus_of[v], "legs": sorted(self.legs_of[v])}
                for v in self.ids
            ],
            "edges": [[a, b] for (a, b) in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping, check: bool = True) -> "DualGraph":
        """Build a graph from its JSON form.

        Genus, legs and ``n`` must be JSON integers, as the constructor
        requires: strings, booleans and fractional numbers are refused with
        BAD_INPUT rather than coerced.
        """
        try:
            verts = [(v["id"], v["genus"], list(v.get("legs", [])))
                     for v in data["vertices"]]
            edges = list(data["edges"])
            n = data.get("n")
        except (KeyError, TypeError, ValueError) as exc:
            raise JacstabError("BAD_INPUT", f"malformed graph JSON: {exc}") from exc
        graph = cls(verts, edges, n=n)
        if check:
            violations = graph.validate()
            if violations:
                raise JacstabError("INVALID_GRAPH", "graph violates invariants",
                                   violations=violations)
        return graph

    @classmethod
    def from_json(cls, text: str, check: bool = True) -> "DualGraph":
        return cls.from_json_dict(load_json(text, "graph JSON"), check=check)

    def __repr__(self) -> str:
        return f"DualGraph(g={self.g}, n={self.n}, V={len(self.ids)}, E={len(self.edges)})"
