"""Stable marked dual graphs.

A dual graph is a connected weighted multigraph with legs: vertices stand for
irreducible components of a nodal curve and carry a geometric genus and a set
of marking labels, edges stand for nodes (loops allowed, one loop = one
non-separating node on a single component).

Instances are immutable after construction.  Construction only checks that the
data is structurally well formed (known ids, sane types); the semantic
invariants (connectivity, per-vertex stability, leg partition, a leg listed
twice on one vertex included) are reported by :func:`validate` as data, so
that invalid graphs can be inspected rather than refused.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import JacstabError, load_json, strict_int


@dataclass(frozen=True)
class ClassifyResult:
    """Topological type flags of a dual graph."""

    treelike: bool
    compact_type: bool
    banana_like: bool


class DualGraph:
    """Weighted multigraph with legs.

    Parameters
    ----------
    vertices:
        iterable of ``(id, genus, legs)`` with ``id`` a string, ``genus`` an
        integer and ``legs`` an iterable of integer marking labels.
    edges:
        iterable of ``(id, id)`` pairs of known vertex ids; loops are
        ``(v, v)``.  Repeated pairs are kept (multiset).
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
        self._index = {v: i for i, v in enumerate(ids)}
        self.genus_of = {v: by_id[v][1] for v in ids}
        self.legs_of = {v: by_id[v][2] for v in ids}
        self._repeated_legs = sorted(repeats)  # (vertex, leg, times listed), reported by validate

        canon_edges = []
        for edge in edges:
            try:
                a, b = edge
            except (TypeError, ValueError) as exc:
                raise JacstabError("BAD_INPUT", f"malformed edge {edge!r}: {exc}") from exc
            if not (isinstance(a, str) and a in self._index
                    and isinstance(b, str) and b in self._index):
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
        self._connected_subsets_cache: tuple[tuple[str, ...], ...] | None = None

    # ------------------------------------------------------------------
    # elementary queries

    def val(self, v: str) -> int:
        """Number of edge endpoints at ``v`` (a loop counts twice)."""
        return self._nonloop_val[v] + 2 * self._loops[v]

    def neighbors(self, v: str) -> tuple[str, ...]:
        return tuple(sorted(self._adj[v]))

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
        unknown = S - set(self.ids)
        if unknown:
            raise JacstabError("BAD_INPUT", f"unknown vertices in subcurve: {sorted(unknown)}")
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

    def _component_count(self, S: frozenset[str]) -> int:
        seen: set[str] = set()
        comps = 0
        for start in sorted(S):
            if start in seen:
                continue
            comps += 1
            stack = [start]
            seen.add(start)
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w in S and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return comps

    def is_connected_subset(self, Y: Iterable[str]) -> bool:
        S = self._subset(Y)
        if not S:
            return False
        return self._component_count(S) == 1

    def is_connected(self) -> bool:
        return self._component_count(frozenset(self.ids)) == 1

    def connected_subsets(self) -> tuple[tuple[str, ...], ...]:
        """All proper non-empty connected vertex subsets, as sorted tuples.

        Ordered by size, then lexicographically.  The sets are grown one
        size at a time: each connected set of size k+1 is a connected set of
        size k plus one of its neighbours, so the bitmask of a set's
        neighbours (loops and edge multiplicities play no part) is all the
        search needs, and the work follows the number of connected subsets
        rather than 2^V.  Cached; intended for the small graphs this library
        works with.
        """
        if self._connected_subsets_cache is None:
            ids = self.ids
            index = self._index
            adj = [sum(1 << index[w] for w in self._adj[v]) for v in ids]
            full = (1 << len(ids)) - 1
            level = {1 << i: adj[i] for i in range(len(ids))}  # set -> neighbours
            out: list[tuple[str, ...]] = []
            while level and full not in level:
                out.extend(sorted(tuple(ids[i] for i in range(len(ids)) if mask >> i & 1)
                                  for mask in level))
                grown: dict[int, int] = {}
                for mask, around in level.items():
                    fresh = around & ~mask
                    while fresh:
                        low = fresh & -fresh
                        fresh ^= low
                        bigger = mask | low
                        if bigger not in grown:
                            grown[bigger] = around | adj[low.bit_length() - 1]
                level = grown
            self._connected_subsets_cache = tuple(out)
        return self._connected_subsets_cache

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
            edges = [(a, b) for (a, b) in data["edges"]]
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


def validate(graph: DualGraph) -> list[dict]:
    """Module-level alias for :meth:`DualGraph.validate`."""
    return graph.validate()
