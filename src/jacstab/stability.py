"""Semistability, stability and quasi-stability of multidegrees.

A polarization assigns every subcurve Y a rational value q_Y; a multidegree m
is semistable when deg_Y(m) >= q_Y - kappa_Y/2 for every proper non-empty
subcurve, stable when all inequalities are strict, and q-stable when the
inequality is strict exactly on subcurves containing a fixed basepoint
component (by default the component carrying marking 1).  The total degree is
q_V, derived by :meth:`Polarization.target_degree` and refused unless integral.

All arithmetic is exact: rows are tested in integers, and a threshold is a
``fractions.Fraction`` only where it is reported.

Since q_Y, deg_Y and kappa_Y are all additive over the connected components of
an induced subcurve, a violation on an arbitrary subcurve forces a violation
on one of its components; checkers therefore iterate over connected subcurves
only.  The equivalence with the exhaustive subset scan of ``oracles.py`` is
asserted by the test suite on small graphs.

The rows come one level of :meth:`DualGraph._level` at a time, so a scan that
stops early never builds the larger subcurves.  A per-vertex sum over a
subcurve (degree, q, omega, tau) is its parent's plus one term, strictness is
a bit test on its mask, and only a FAIL's witness is rendered as ids, with
its bound from :func:`threshold`.  :func:`_rows` states each inequality as an
integer gap, negative exactly when it fails, which :func:`check_stability`
scans and the search of :func:`_stable_degrees` reads as least degrees;
:func:`is_balanced` keeps its own inequalities, as their equivalence with
q-stability is a theorem the tests compare.  Each scan adds the rows it read
to ``stats.COUNTS["stability.rows"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from . import stats
from .errors import (CANONICAL_ZERO, MODES, QSTABLE, SEMISTABLE, STABLE, TRIVIAL_GM1,
                     JacstabError, check_tau, exact, strict_int)
from .graphs import DualGraph, Level


@dataclass(frozen=True)
class Polarization:
    """Per-vertex rational data; the total degree is derived: q_V = sum q_v + (g-1).

    ``canonical0`` is the degree-0 polarization whose thresholds reduce to
    -kappa_Y/2 (the dualizing-sheaf halves cancel); ``trivial-gm1`` is the
    trivial polarization in degree g-1; a custom q names exactly the vertices.
    """

    kind: str
    per_vertex_q: tuple[tuple[str, Fraction], ...] | None = None

    @classmethod
    def canonical_zero(cls) -> "Polarization":
        return cls(kind=CANONICAL_ZERO)

    @classmethod
    def trivial_gm1(cls) -> "Polarization":
        return cls(kind=TRIVIAL_GM1)

    @classmethod
    def custom(cls, per_vertex_q: Mapping[str, Fraction]) -> "Polarization":
        """Exact data only: each name a non-empty ``str``, each q an ``int`` or a ``Fraction``."""
        qs = {}
        for v, q in per_vertex_q.items():
            if not isinstance(v, str) or not v:
                raise JacstabError("BAD_INPUT", f"vertex id must be a non-empty string, got {v!r}")
            qs[v] = Fraction(exact(q, f"q of {v!r}"))
        return cls(kind="custom", per_vertex_q=tuple(sorted(qs.items())))

    @classmethod
    def preset(cls, name: str) -> "Polarization":
        if name == CANONICAL_ZERO:
            return cls.canonical_zero()
        if name == TRIVIAL_GM1:
            return cls.trivial_gm1()
        raise JacstabError("BAD_INPUT", f"unknown polarization preset {name!r}")

    def target_degree(self, graph: DualGraph) -> int:
        """The total degree q_V; BAD_INPUT unless it is an integer."""
        q = self.q_value(graph, graph.ids)
        if q.denominator != 1:
            raise JacstabError("BAD_INPUT", f"polarization degree q_V = {q} is not an integer")
        return int(q)

    def q_value(self, graph: DualGraph, Y: Iterable[str]) -> Fraction:
        S = frozenset(Y)
        omega = graph.omega_degree(S)
        if self.kind == CANONICAL_ZERO:
            # deg(P|Y)/r = -omega/2 for P = omega^-1 (+) O of rank 2
            return Fraction(0)
        if self.kind == TRIVIAL_GM1:
            return Fraction(omega, 2)
        qmap = self._q_map(graph)
        return sum((qmap[v] for v in S), Fraction(0)) + Fraction(omega, 2)

    def _q_map(self, graph: DualGraph) -> dict[str, Fraction]:
        """A custom q by vertex; BAD_INPUT unless it names exactly the graph's vertices."""
        qmap = dict(self.per_vertex_q or ())
        if set(qmap) != set(graph.ids):
            raise JacstabError("BAD_INPUT", f"custom polarization names {sorted(qmap)}, "
                               f"not the vertices {sorted(graph.ids)}")
        return qmap

    def _scaled(self, graph: DualGraph) -> tuple[int, list[int]]:
        """``(L, a)``: L the lcm of the q's denominators and the integers
        a_v = L*(2q_v + omega'_v) in ``graph.ids`` order, so that 2L times the
        threshold of Y is the sum of a over Y less L*kappa_Y."""
        q = self._q_map(graph) if self.kind == "custom" else dict.fromkeys(graph.ids, 0)
        scale = math.lcm(*(x.denominator for x in q.values()))
        halves = 0 if self.kind == CANONICAL_ZERO else scale
        return scale, [int(2 * scale * q[v]) + halves * (2 * graph.genus_of[v] - 2 + graph.val(v))
                       for v in graph.ids]


def threshold(graph: DualGraph, pol: Polarization, Y: Iterable[str]) -> Fraction:
    """Lower bound q_Y - kappa_Y/2 that deg_Y must meet, from the definitions
    :meth:`Polarization.q_value` and :meth:`DualGraph.kappa`, on any iterable
    of known vertex ids.  The scans call it only for a FAIL verdict's bound."""
    Y = graph._subset(Y)
    if not Y or len(Y) == len(graph.ids):
        raise JacstabError("EMPTY_OR_FULL", "threshold needs a proper non-empty subcurve")
    return pol.q_value(graph, Y) - Fraction(graph.kappa(Y), 2)


@dataclass(frozen=True)
class StabilityVerdict:
    ok: bool
    mode: str
    witness: tuple[str, ...] | None = None
    degree: int | None = None
    bound: Fraction | None = None
    strict: bool | None = None


def check_multidegree(graph: DualGraph, m: Mapping[str, int]) -> dict[str, int]:
    if set(m) != set(graph.ids):
        raise JacstabError("BAD_MULTIDEGREE", "multidegree keys must match the graph's vertices")
    return {v: strict_int(m[v], f"degree of {v}") for v in graph.ids}


def check_basepoint(graph: DualGraph, basepoint: str | None) -> None:
    """Refuse, with BAD_INPUT, a given basepoint that is not a vertex."""
    if basepoint is not None and basepoint not in graph.ids:
        raise JacstabError("BAD_INPUT", f"unknown basepoint vertex {basepoint!r}")


def resolve_basepoint(graph: DualGraph, basepoint: str | None) -> str:
    """Basepoint component: a given vertex (else BAD_INPUT), the only one of a curve with
    no proper subcurve and no edge to orient, or marking 1's (else NO_BASEPOINT)."""
    check_basepoint(graph, basepoint)
    if basepoint is not None:
        return basepoint
    v = graph.marking_vertex(1) if len(graph.ids) > 1 else graph.ids[0]
    if v is None:
        raise JacstabError("NO_BASEPOINT", "graph has no marking 1 and no basepoint was given")
    return v


def _rows(graph: DualGraph, pol: Polarization, mode: str, base: str | None,
          degrees: list[int]) -> Iterator[tuple[Level, list[int]]]:
    """Each level, one size at a time, with the gap of each subcurve Y under
    ``degrees`` (in ``graph.ids`` order): the sum over Y of 2L*d_v - a_v, with
    (L, a) from :meth:`Polarization._scaled`, plus L*kappa_Y, less 1 if strict,
    that is 2L*(deg_Y - threshold_Y) - strict, >= 0 exactly when the row holds.
    Rows are strict on every Y when stable and on those containing ``base``."""
    scale, a = pol._scaled(graph)
    strict = (1 << len(graph.ids)) - 1 if mode == STABLE else graph._bit.get(base, 0)
    for level, sums in graph._sums([2 * scale * d - a_v for d, a_v in zip(degrees, a)]):
        yield level, [s + scale * kappa - (mask & strict > 0)
                      for s, kappa, mask in zip(sums, level.kappas, level.masks)]


def _scan(graph: DualGraph, gaps: Iterable[tuple[Level, list[int]]]) -> tuple[str, ...] | None:
    """The ids of the first subcurve with a negative gap (a violated row),
    reading the levels in order; None when no gap is negative."""
    tested = 0
    for level, row_gaps in gaps:
        first = next(filter((0).__gt__, row_gaps), None)
        if first is not None:  # no earlier gap equals it, as none is negative
            stats.COUNTS["stability.rows"] += tested + row_gaps.index(first) + 1
            return graph._members(level.masks[row_gaps.index(first)])
        tested += len(row_gaps)
    stats.COUNTS["stability.rows"] += tested
    return None


def check_stability(graph: DualGraph, pol: Polarization, m: Mapping[str, int],
                    mode: str = QSTABLE, basepoint: str | None = None) -> StabilityVerdict:
    """Test a multidegree against every proper subcurve inequality.

    Returns a PASS verdict, or a FAIL verdict carrying the first violating
    connected subcurve together with the failed bound.  A basepoint that is
    not a vertex is refused in every mode; a known one has no effect outside
    q-stable mode, and a one-component curve needs none.
    """
    if mode not in MODES:
        raise JacstabError("BAD_INPUT", f"unknown mode {mode!r}")
    degrees = check_multidegree(graph, m)
    total = sum(degrees.values())
    target = pol.target_degree(graph)
    if total != target:
        raise JacstabError("DEGREE_MISMATCH",
                           f"multidegree total {total} != polarization degree {target}")
    check_basepoint(graph, basepoint)
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None
    Y = _scan(graph, _rows(graph, pol, mode, base, list(degrees.values())))
    if Y is None:
        return StabilityVerdict(ok=True, mode=mode)
    return StabilityVerdict(ok=False, mode=mode, witness=Y, degree=sum(degrees[v] for v in Y),
                            bound=threshold(graph, pol, Y), strict=mode == STABLE or base in Y)


def enumerate_stable(graph: DualGraph, pol: Polarization, mode: str = QSTABLE,
                     basepoint: str | None = None) -> list[dict[str, int]]:
    """Exhaustively enumerate every (semi/q-)stable multidegree.

    The results of :func:`_stable_degrees`, each as a map from vertex to
    degree, in the same order and with the same refusals.
    """
    return [dict(zip(graph.ids, t)) for t in _stable_degrees(graph, pol, mode, basepoint)]


def _stable_degrees(graph: DualGraph, pol: Polarization, mode: str,
                    basepoint: str | None) -> list[tuple[int, ...]]:
    """Every (semi/q-)stable multidegree, as its degrees in ``graph.ids`` order.

    The singleton rows confine each degree to a box: at least its own least
    and, the total being fixed, at most the target less the others'.  Each
    row of :func:`_rows` becomes a bound on a subset without the last vertex
    (the subcurve, or its complement when it holds the last vertex), so the
    search fixes the degrees one vertex at a time, each clamped to the
    interval that the box, the total and the bounds whose subset ends there
    allow, in lexicographic order; the last degree is forced.  The basepoint
    is taken as by :func:`check_stability`.
    """
    if mode not in MODES:
        raise JacstabError("BAD_INPUT", f"unknown mode {mode!r}")
    target = pol.target_degree(graph)
    ids = graph.ids
    check_basepoint(graph, basepoint)
    if len(ids) == 1:
        return [(target,)]
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None

    rows = list(_rows(graph, pol, mode, base, [0] * len(ids)))
    stats.COUNTS["stability.rows"] += sum(len(gaps) for _, gaps in rows)
    # Level 1 is the singletons, in ``graph.ids`` order; a row's least degree
    # is -(gap // 2L).  Every row bounds a mask S of the positions before
    # ``last`` (bit value 1): deg_S >= least for S = Y if ``last`` is not in
    # Y, else deg_S <= target - least for S = Y^c.  Open ends and the
    # prefixes' bounds are box sums.
    span = 2 * pol._scaled(graph)[0]
    los = [-(gap // span) for gap in rows[0][1]]
    spare = target - sum(los)
    last = len(ids) - 1

    def box(S: int) -> tuple[int, int]:
        lo = sum(los[j] for j in range(last) if S >> (last - j) & 1)
        return lo, lo + spare * S.bit_count()

    bounds: dict[int, tuple[int, int]] = {}
    for level, gaps in rows:
        for mask, gap in zip(level.masks, gaps):
            need, upper = -(gap // span), mask & 1
            S = mask ^ ((2 << last) - 1) if upper else mask
            lo, hi = bounds.get(S) or box(S)
            bounds[S] = (lo, min(hi, target - need)) if upper else (max(lo, need), hi)
    # a prefix of S drops its highest positions, the lowest bits
    for S in list(bounds):
        while S := S & (S - 1):
            bounds.setdefault(S, box(S))
    # each subset has a slot for its partial sum, written and tested at the
    # level of its largest member from the slot of the subset without it
    slot = {S: t for t, S in enumerate([0, *bounds])}
    levels: list[list[tuple[int, int, int, int]]] = [[] for _ in range(last)]
    for S, (lo, hi) in bounds.items():
        levels[len(ids) - (S & -S).bit_length()].append((slot[S], slot[S & (S - 1)], lo, hi))
    partial = [0] * len(slot)
    rest_lo = [sum(los[i + 1:]) for i in range(last)]
    results: list[tuple[int, ...]] = []
    stack = [0] * len(ids)

    def search(i: int, acc: int) -> None:
        # the degrees at level i that keep the total reachable and meet every
        # bound tested here (the singleton's holds the box) form one interval
        lo = target - acc - rest_lo[i] - spare * (last - i)
        hi = target - acc - rest_lo[i]
        for _, source, least, most in levels[i]:
            rest = partial[source]
            if least - rest > lo:
                lo = least - rest
            if most - rest < hi:
                hi = most - rest
        for d in range(lo, hi + 1):
            stack[i] = d
            if i + 1 == last:
                stack[last] = target - acc - d
                results.append(tuple(stack))
                continue
            for t, source, _, _ in levels[i]:
                partial[t] = partial[source] + d
            search(i + 1, acc + d)

    search(0, 0)
    # the recursive closure is a reference cycle that holds every result and
    # the bounds; break it, or they stay alive until the cyclic collector runs
    del search
    return results


# ----------------------------------------------------------------------
# balanced twist data

@dataclass(frozen=True)
class BalanceVerdict:
    ok: bool
    witness: tuple[str, ...] | None = None
    leg_sum: int | None = None
    bound: Fraction | None = None
    strict: bool | None = None


def _leg_sums(graph: DualGraph, tau: Iterable[int], k: int) -> dict[str, int]:
    """Sum of tau over each vertex's legs, after :func:`check_tau`'s refusals;
    BAD_INPUT for a leg outside 1..n, which an unchecked graph may hold."""
    t = check_tau(graph.g, tau, k, n=graph.n)
    for v in graph.ids:
        for i in sorted(graph.legs_of[v]):
            if not 1 <= i <= graph.n:
                raise JacstabError("BAD_INPUT", f"leg {i} on {v} is outside 1..{graph.n}")
    return {v: sum(t[i - 1] for i in graph.legs_of[v]) for v in graph.ids}


def is_balanced(graph: DualGraph, tau: Iterable[int], k: int) -> BalanceVerdict:
    """Test the balanced inequalities on every proper subcurve.

    PASS means: for every proper non-empty Z, the sum of tau over legs in Z is
    at least k*omega_degree(Z) - kappa_Z/2, strictly whenever marking 1 lies
    on Z.  This is checked directly from the definition, on the connected
    subcurves, independently of :func:`check_stability` and its rows; the
    equivalence with q-stability of the base multidegree is a tested theorem.
    Each inequality is doubled into integers; only a witness's bound is a
    ``Fraction``.
    """
    sums = _leg_sums(graph, tau, k)
    weights = [2 * sums[v] - 2 * k * (2 * graph.genus_of[v] - 2 + graph.val(v)) for v in graph.ids]
    marked = sum(graph._bit[v] for v in graph.ids if 1 in graph.legs_of[v])
    # 2*leg_sum - (2k*omega_Z - kappa_Z) - strict is negative when Z fails
    Z = _scan(graph, ((level, [s + kappa - (mask & marked > 0) for s, kappa, mask
                               in zip(doubled, level.kappas, level.masks)])
                      for level, doubled in graph._sums(weights)))
    if Z is None:
        return BalanceVerdict(ok=True)
    return BalanceVerdict(ok=False, witness=Z, leg_sum=sum(sums[v] for v in Z),
                          bound=k * graph.omega_degree(Z) - Fraction(graph.kappa(Z), 2),
                          strict=any(1 in graph.legs_of[v] for v in Z))


def base_multidegree(graph: DualGraph, tau: Iterable[int], k: int) -> dict[str, int]:
    """Fiberwise multidegree of the untwisted bundle: leg sums minus k*deg-omega."""
    sums = _leg_sums(graph, tau, k)
    return {v: sums[v] - k * graph.omega_degree((v,)) for v in graph.ids}


BALANCED = "BALANCED"
TREELIKE = "TREELIKE"
BOTH = "BOTH"
INDETERMINACY = "INDETERMINACY"


def locus_membership(graph: DualGraph, tau: Iterable[int], k: int) -> str:
    """Locate the graph relative to the balanced and treelike loci.

    INDETERMINACY means the topological type lies in neither locus, i.e. the
    extended section is undefined there.
    """
    balanced = is_balanced(graph, tau, k).ok
    treelike = graph.classify().treelike
    if balanced and treelike:
        return BOTH
    if balanced:
        return BALANCED
    if treelike:
        return TREELIKE
    return INDETERMINACY
