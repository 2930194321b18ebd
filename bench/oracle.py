"""Answers computed without jacstab, from the definitions.

Graphs are the JSON dicts the CLI reads.  Subcurves are bitmasks over the
sorted vertex ids and every subcurve table is filled by one pass over all
``2^V`` masks, so the checks cover every proper subcurve, connected or not.
Classes are dicts ``{"psi": {i: Fraction}, "lambda1": Fraction,
"kappa1t": Fraction, "delta_irr": Fraction, "delta": {(h, A): Fraction}}``
with zero coefficients left out.

Nothing here imports jacstab, so a change to jacstab cannot change what the
benchmark counts as a right answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


class Mismatch(Exception):
    """An answer that disagrees with the independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


class Graph:
    """Dual graph read from its JSON dict, with per-subcurve tables."""

    def __init__(self, data: dict):
        verts = data["vertices"]
        self.ids = sorted(v["id"] for v in verts)
        self.index = {v: i for i, v in enumerate(self.ids)}
        by_id = {v["id"]: v for v in verts}
        self.genus = [by_id[v]["genus"] for v in self.ids]
        self.legs = [sorted(by_id[v].get("legs", [])) for v in self.ids]
        self.n = data.get("n", sum(len(x) for x in self.legs))
        V = len(self.ids)
        self.V = V
        self.full = (1 << V) - 1
        self.loops = [0] * V
        self.edges = []                      # non-loop edges as index pairs
        for a, b in data["edges"]:
            i, j = self.index[a], self.index[b]
            if i == j:
                self.loops[i] += 1
            else:
                self.edges.append((i, j))
        self.mult = [[0] * V for _ in range(V)]
        for i, j in self.edges:
            self.mult[i][j] += 1
            self.mult[j][i] += 1
        self.nonloop_val = [sum(row) for row in self.mult]
        self.val = [self.nonloop_val[i] + 2 * self.loops[i] for i in range(V)]
        self.g = sum(self.genus) + len(self.edges) + sum(self.loops) - V + 1
        self.marking_vertex = {leg: i for i in range(V) for leg in self.legs[i]}
        self._kappa = None
        self._omega = None

    # -- subcurve tables ---------------------------------------------------

    def _fill(self) -> None:
        size = 1 << self.V
        kappa = [0] * size
        omega = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            v = low.bit_length() - 1
            rest = mask ^ low
            inside = 0
            row = self.mult[v]
            r = rest
            while r:
                b = r & -r
                inside += row[b.bit_length() - 1]
                r ^= b
            kappa[mask] = kappa[rest] + self.nonloop_val[v] - 2 * inside
            omega[mask] = omega[rest] + 2 * self.genus[v] - 2 + self.val[v]
        self._kappa, self._omega = kappa, omega

    @property
    def kappa(self) -> list[int]:
        """Edges with exactly one end in the subcurve, per mask."""
        if self._kappa is None:
            self._fill()
        return self._kappa

    @property
    def omega(self) -> list[int]:
        """Degree of the dualizing sheaf on the subcurve, per mask."""
        if self._omega is None:
            self._fill()
        return self._omega

    def sums(self, values: list[int]) -> list[int]:
        """Per-mask sums of a per-vertex integer vector."""
        out = [0] * (1 << self.V)
        for mask in range(1, 1 << self.V):
            low = mask & -mask
            out[mask] = out[mask ^ low] + values[low.bit_length() - 1]
        return out

    def mask_of(self, names) -> int:
        mask = 0
        for v in names:
            mask |= 1 << self.index[v]
        return mask

    def names(self, mask: int) -> list[str]:
        return [v for i, v in enumerate(self.ids) if mask >> i & 1]

    # -- global properties ---------------------------------------------------

    def component_of(self, start: int, cut: tuple[int, int] | None = None) -> int:
        """Mask of the vertices reachable from ``start`` with one copy of edge ``cut`` deleted."""
        seen = 1 << start
        stack = [start]
        while stack:
            u = stack.pop()
            for w in range(self.V):
                edges = self.mult[u][w] - (1 if cut in ((u, w), (w, u)) else 0)
                if edges and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        return seen

    def connected(self) -> bool:
        return self.component_of(0) == self.full

    def classify(self) -> dict:
        treelike = self.connected() and len(self.edges) == self.V - 1
        return {"treelike": treelike,
                "compact_type": treelike and not any(self.loops),
                "banana_like": self.V == 2 and not any(self.loops) and len(self.edges) >= 2}

    def violation_codes(self) -> set[str]:
        codes = set()
        if any(x < 0 for x in self.genus):
            codes.add("NEGATIVE_GENUS")
        if not self.connected():
            codes.add("NOT_CONNECTED")
        labels = [leg for legs in self.legs for leg in legs]
        if len(labels) != len(set(labels)) or set(labels) != set(range(1, self.n + 1)):
            codes.add("LEGS_NOT_PARTITION")
        for i in range(self.V):
            if 2 * self.genus[i] - 2 + self.val[i] + len(self.legs[i]) <= 0:
                codes.add("VERTEX_UNSTABLE")
        if 2 * self.g - 2 + self.n <= 0:
            codes.add("CURVE_UNSTABLE")
        return codes

    def spanning_trees(self) -> int:
        """Kirchhoff: determinant of the Laplacian with row and column 0 deleted."""
        size = self.V - 1
        if size == 0:
            return 1
        a = [[(self.nonloop_val[i] if i == j else -self.mult[i][j])
              for j in range(1, self.V)] for i in range(1, self.V)]
        sign, prev = 1, 1
        for k in range(size - 1):                     # Bareiss elimination
            if a[k][k] == 0:
                swap = next((r for r in range(k + 1, size) if a[r][k]), None)
                if swap is None:
                    return 0
                a[k], a[swap] = a[swap], a[k]
                sign = -sign
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[size - 1][size - 1]

    def laplacian_apply(self, gamma: list[int]) -> list[int]:
        return [sum(self.mult[i][j] * (gamma[i] - gamma[j]) for j in range(self.V))
                for i in range(self.V)]


# ----------------------------------------------------------------------
# stability, from the subcurve inequalities

def stability_bounds(graph: Graph, pol: str) -> list[int]:
    """Twice the lower bound q_Y - kappa_Y/2 per mask, as integers."""
    if pol == "canonical0":
        return [-k for k in graph.kappa]
    if pol == "trivial-gm1":
        return [w - k for w, k in zip(graph.omega, graph.kappa)]
    raise ValueError(pol)


def target_degree(graph: Graph, pol: str) -> int:
    return 0 if pol == "canonical0" else graph.g - 1


class Inequalities:
    """The subcurve inequalities 2 * sum over Y of values >= bound_Y.

    Strict on the subcurves that meet ``strict_mask``, or on all of them.
    Bounds are doubled so that everything stays integral.
    """

    def __init__(self, graph: Graph, bounds: list[int], values: list[int],
                 strict_mask: int = 0, all_strict: bool = False):
        self.graph = graph
        self.bounds = bounds
        self.sums = graph.sums(values)
        self.strict_mask = graph.full if all_strict else strict_mask

    def violated(self, mask: int) -> bool:
        twice, bound = 2 * self.sums[mask], self.bounds[mask]
        return twice < bound or (bool(mask & self.strict_mask) and twice == bound)

    def first_violation(self) -> int | None:
        """First proper subcurve whose inequality fails, or None."""
        return next((mask for mask in range(1, self.graph.full) if self.violated(mask)), None)


def basepoint(graph: Graph) -> int:
    """Mask of the vertex carrying marking 1."""
    return 1 << graph.marking_vertex[1]


def stability(graph: Graph, pol: str, mode: str, m: dict) -> Inequalities:
    strict = basepoint(graph) if mode == "qstable" else 0
    return Inequalities(graph, stability_bounds(graph, pol), [m[v] for v in graph.ids],
                        strict, all_strict=(mode == "stable"))


def balanced(graph: Graph, tau: list[int], k: int) -> Inequalities:
    leg_sums = [sum(tau[i - 1] for i in legs) for legs in graph.legs]
    bounds = [2 * k * w - kap for w, kap in zip(graph.omega, graph.kappa)]
    return Inequalities(graph, bounds, leg_sums, basepoint(graph))


def locus(graph: Graph, tau: list[int], k: int) -> str:
    treelike = graph.classify()["treelike"]
    if balanced(graph, tau, k).first_violation() is None:
        return "BOTH" if treelike else "BALANCED"
    return "TREELIKE" if treelike else "INDETERMINACY"


def branch(graph: Graph, edge: tuple[int, int], base: int) -> int:
    """Side of the separating edge away from vertex ``base``."""
    return graph.full ^ graph.component_of(base, cut=edge)


def branch_genus(graph: Graph, side: int) -> int:
    """Arithmetic genus of a branch of a treelike graph: genera plus loops."""
    return sum(graph.genus[i] + graph.loops[i] for i in range(graph.V) if side >> i & 1)


# ----------------------------------------------------------------------
# closed divisor-class formulas

def canonical_index_list(g: int, n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(h, A) with 2h < g, or 2h = g and 1 in A, and 2 <= h + |A| <= g + n - 2."""
    out = []
    for h in range(g + 1):
        for r in range(n + 1):
            for A in combinations(range(1, n + 1), r):
                if not (2 * h < g or (2 * h == g and 1 in A)):
                    continue
                if 2 <= h + r <= g + n - 2:
                    out.append((h, A))
    return out


def _klass(psi=None, lambda1=0, kappa1t=0, delta=None) -> dict:
    return {"psi": {i: Fraction(c) for i, c in (psi or {}).items() if c},
            "lambda1": Fraction(lambda1), "kappa1t": Fraction(kappa1t),
            "delta_irr": Fraction(0),
            "delta": {key: Fraction(c) for key, c in (delta or {}).items() if c}}


def theta_closed(g: int, n: int, tau: list[int], k: int) -> dict:
    psi = {i: Fraction(t * t, 2) + k * t for i, t in enumerate(tau, start=1)}
    delta = {}
    for h, A in canonical_index_list(g, n):
        c = k * (1 - 2 * h) + sum(tau[i - 1] for i in A)
        delta[(h, A)] = Fraction(-c * c, 2)
    return _klass(psi=psi, kappa1t=Fraction(-k * k, 2), delta=delta)


def theta_gm1_closed(g: int, n: int, tau: list[int]) -> dict:
    psi = {i: Fraction(t * (t + 1), 2) for i, t in enumerate(tau, start=1)}
    delta = {}
    for h, A in canonical_index_list(g, n):
        s = sum(tau[i - 1] for i in A) - h
        delta[(h, A)] = Fraction(-s * (s + 1), 2)
    return _klass(psi=psi, lambda1=-1, delta=delta)


def mueller_closed(g: int, n: int, tau: list[int]) -> dict:
    """Degree g-1 theta class minus the effective-locus multiplicities."""
    out = theta_gm1_closed(g, n, tau)
    delta = dict(out["delta"])
    for h in range(g // 2 + 1):
        for r in range(n + 1):
            for A in combinations(range(1, n + 1), r):
                s = sum(tau[i - 1] for i in A)
                if not 2 <= h + r <= g + n - 2 or any(tau[i - 1] <= 0 for i in A) or h <= s:
                    continue
                key = (h, A)
                if 2 * h == g and 1 not in A:
                    key = (g - h, tuple(i for i in range(1, n + 1) if i not in A))
                delta[key] = delta.get(key, Fraction(0)) - (h - s)
    out["delta"] = {key: c for key, c in delta.items() if c}
    return out


def parse_class(payload: dict) -> dict:
    """The CLI's divisor-class JSON in the form used above.

    Zero coefficients and repeated boundary indices are answers in a form the
    CLI does not promise, so they are mismatches rather than folded away.
    """
    psi = {int(i): Fraction(c) for i, c in payload["psi"].items()}
    delta = {(d["h"], tuple(d["A"])): Fraction(d["c"]) for d in payload["delta"]}
    expect(len(delta) == len(payload["delta"]), "repeated boundary index")
    expect(all(psi.values()) and all(delta.values()), "zero coefficient listed")
    out = _klass(psi=psi, lambda1=payload["lambda1"], kappa1t=payload["kappa1t"], delta=delta)
    out["delta_irr"] = Fraction(payload["delta_irr"])
    return out
