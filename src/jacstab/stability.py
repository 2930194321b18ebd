"""Semistability, stability and quasi-stability of multidegrees.

A polarization assigns every subcurve Y a rational value q_Y; a multidegree m
is semistable when deg_Y(m) >= q_Y - kappa_Y/2 for every proper non-empty
subcurve, stable when all inequalities are strict, and q-stable when the
inequality is strict exactly on subcurves containing a fixed basepoint
component (by default the component carrying marking 1).  The total degree is
q_V, derived by :meth:`Polarization.target_degree` and refused unless integral.

All arithmetic is exact: thresholds are ``fractions.Fraction`` values and no
floating point enters any verdict.

Since q_Y, deg_Y and kappa_Y are all additive over the connected components of
an induced subcurve, a violation on an arbitrary subcurve forces a violation
on one of its components; checkers therefore iterate over connected subcurves
only.  The equivalence with the exhaustive subset scan of ``oracles.py`` is
asserted by the test suite on small graphs.

Each inequality is one row: :func:`_rows` yields, lazily and one per
connected subcurve, the subcurve's tuple with its threshold, its strictness
and the least integer degree it may carry, so testing a multidegree against a
row is integer arithmetic only and stays exact for every polarization.  It
asks :meth:`DualGraph.connected_subsets` for one size at a time and keeps the
tuple that call returned.  The levels it builds carry kappa_Y and omega_Y
with each subcurve, grown in integers as the subcurve is, so a row's
:func:`threshold` reads the pair and builds one ``Fraction`` instead of
scanning the edges and the vertices again.  :func:`check_stability` sums the
degrees over each row's tuple and stops at its first violated row, which it
returns as the witness, so a check that fails early never computes the rows
after it, nor builds the subcurves larger than it; :func:`is_balanced` scans
its inequalities the same way.  :func:`_stable_degrees`, the search behind
:func:`enumerate_stable`, reads the rows once and computes no other
threshold (14 on K_4 with every edge doubled): its box comes from the V
singleton rows, each degree at least its own least and at most the target
less the others'.  As the degrees total the target, each row becomes a
bound on a subset without the last vertex, tested as soon as the subset's
largest member is fixed.  The search keeps each result as a tuple of degrees
in ``graph.ids`` order, which the CLI renders without a map per result;
:func:`enumerate_stable` turns each tuple into a vertex -> degree map.
The balanced inequalities of :func:`is_balanced` keep their own direct loop,
since their equivalence with q-stability is a theorem the tests compare; they
read the same carried kappa and omega, and compare doubled in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import JacstabError, check_tau, strict_int
from .graphs import DualGraph

SEMISTABLE = "semistable"
STABLE = "stable"
QSTABLE = "qstable"
MODES = (SEMISTABLE, STABLE, QSTABLE)

CANONICAL_ZERO = "canonical0"
TRIVIAL_GM1 = "trivial-gm1"


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
        """Exact data only: each q an ``int`` or a ``Fraction``."""
        exact = {v: q if type(q) is Fraction else Fraction(strict_int(q, f"q of {v!r}"))
                 for v, q in per_vertex_q.items()}
        return cls(kind="custom", per_vertex_q=tuple(sorted(exact.items())))

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
        return self._q_sum(graph, S) + Fraction(omega, 2)

    def _q_sum(self, graph: DualGraph, S: Iterable[str]) -> Fraction:
        """Sum of a custom q over the distinct vertices ``S``; BAD_INPUT unless
        q names exactly the graph's vertices."""
        qmap = dict(self.per_vertex_q or ())
        if set(qmap) != set(graph.ids):
            raise JacstabError("BAD_INPUT", f"custom polarization names {sorted(qmap)}, "
                               f"not the vertices {sorted(graph.ids)}")
        return sum((qmap[v] for v in S), Fraction(0))


def threshold(graph: DualGraph, pol: Polarization, Y: Iterable[str]) -> Fraction:
    """Lower bound q_Y - kappa_Y/2 that deg_Y must meet.

    Every polarization has q_Y = (sum of q_v over Y) + omega'_Y/2, with the
    sum for a custom one only and omega' = 0 for canonical0, omega_degree(Y)
    for the others; the bound is that sum plus (omega' - kappa_Y)/2.  kappa
    and omega are the pair carried with a tuple that
    :meth:`DualGraph.connected_subsets` returned, and for any other ``Y``
    come from :meth:`DualGraph.kappa` and :meth:`DualGraph.omega_degree`.
    """
    pair = graph._kappa_omega(Y)
    if pair is None:
        Y = frozenset(Y)
        if not Y or len(Y) == len(graph.ids):
            graph._subset(Y)  # an unknown vertex is BAD_INPUT, whatever the size
            raise JacstabError("EMPTY_OR_FULL", "threshold needs a proper non-empty subcurve")
        pair = graph.kappa(Y), graph.omega_degree(Y)
    kappa, omega = pair
    if pol.kind == CANONICAL_ZERO:
        return Fraction(-kappa, 2)
    bound = Fraction(omega - kappa, 2)
    return bound if pol.kind == TRIVIAL_GM1 else pol._q_sum(graph, Y) + bound


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


def _rows(graph: DualGraph, pol: Polarization, mode: str,
          base: str | None) -> Iterator[tuple[tuple[str, ...], int, Fraction, bool]]:
    """One ``(Y, least, bound, strict)`` per connected subcurve ``Y``.

    ``Y`` is the very tuple :meth:`DualGraph.connected_subsets` returned, read
    one size at a time, so a scan that stops early never builds the larger
    levels, and level 1 is the singletons in ``graph.ids`` order.  ``bound``
    is its threshold; the inequality is strict on every subcurve when stable
    and on those containing ``base`` (the basepoint when q-stable, else None),
    and ``least`` is the least integer degree ``Y`` may carry, so a
    multidegree violates the row exactly when its degree on ``Y`` is below it.
    """
    for size in range(1, len(graph.ids)):
        for Y in graph.connected_subsets(size):
            bound = threshold(graph, pol, Y)
            strict = mode == STABLE or base in Y
            yield Y, (math.floor(bound) + 1 if strict else math.ceil(bound)), bound, strict


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
    for Y, least, bound, strict in _rows(graph, pol, mode, base):
        degree = sum(map(degrees.__getitem__, Y))
        if degree < least:
            return StabilityVerdict(ok=False, mode=mode, witness=Y,
                                    degree=degree, bound=bound, strict=strict)
    return StabilityVerdict(ok=True, mode=mode)


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

    The singleton rows confine each vertex degree to a finite box: at least
    its own least and, the total being fixed, at most the target less the
    others'.  The box only seeds the search.  Each row of :func:`_rows` becomes
    a bound on a subset without the last vertex (the subcurve, or its
    complement when it holds the last vertex), so the search fixes the degrees
    one vertex at a time and clamps each to the interval that the box, the
    total and the bounds whose subset ends at that vertex allow; the last
    degree is forced.
    The search runs through the box in lexicographic order, so the output is
    sorted by the degrees in ``graph.ids`` order.  The basepoint is taken as
    by :func:`check_stability`.
    """
    if mode not in MODES:
        raise JacstabError("BAD_INPUT", f"unknown mode {mode!r}")
    target = pol.target_degree(graph)
    ids = graph.ids
    check_basepoint(graph, basepoint)
    if len(ids) == 1:
        return [(target,)]
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None

    rows = list(_rows(graph, pol, mode, base))
    # The first V rows are the singletons, in ``graph.ids`` order.  With the
    # total fixed, every row bounds a subset S of the positions before
    # ``last``: (Y, least) is deg_S >= least for S = Y if ``last`` is not in Y,
    # and deg_S <= target - least for S = Y^c if it is.  Rows on one S merge;
    # the open ends, and the bounds of the prefixes added below, are box sums.
    los = [least for _, least, _, _ in rows[:len(ids)]]
    spare = target - sum(los)
    his = [lo + spare for lo in los]
    last = len(ids) - 1

    def box(S: tuple[int, ...]) -> tuple[int, int]:
        return sum(los[j] for j in S), sum(his[j] for j in S)

    bounds: dict[tuple[int, ...], tuple[int, int]] = {}
    for Y, least, _, _ in rows:
        inside = set(Y)
        upper = ids[last] in inside
        S = tuple(j for j in range(last) if (ids[j] in inside) != upper)
        lo, hi = bounds.get(S) or box(S)
        bounds[S] = (lo, min(hi, target - least)) if upper else (max(lo, least), hi)
    for S in list(bounds):
        for k in range(1, len(S)):
            bounds.setdefault(S[:k], box(S[:k]))
    # each subset has a slot for its partial sum, written and tested at the
    # level of its largest member from the slot of the subset without it
    slot = {S: t for t, S in enumerate([(), *bounds])}
    levels: list[list[tuple[int, int, int, int]]] = [[] for _ in range(last)]
    for S, (lo, hi) in bounds.items():
        levels[S[-1]].append((slot[S], slot[S[:-1]], lo, hi))
    partial = [0] * len(slot)
    rest_lo = [sum(los[i + 1:]) for i in range(last)]
    rest_hi = [sum(his[i + 1:]) for i in range(last)]
    results: list[tuple[int, ...]] = []
    stack = [0] * len(ids)

    def search(i: int, acc: int) -> None:
        # the degrees at level i that keep the total reachable and meet every
        # bound tested here (the singleton's holds the box) form one interval
        lo = target - acc - rest_hi[i]
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
    equivalence with q-stability of the base multidegree is a tested theorem,
    not an implementation shortcut.  Each inequality is doubled into
    integers, 2*leg_sum against 2k*omega_Z - kappa_Z, from the tau sums per
    vertex and the kappa and omega the subsets carry; only a witness's bound
    is a ``Fraction``.
    """
    twice = {v: 2 * s for v, s in _leg_sums(graph, tau, k).items()}
    marked = {v for v in graph.ids if 1 in graph.legs_of[v]}
    for size in range(1, len(graph.ids)):
        for Z in graph.connected_subsets(size):
            kappa, omega = graph._kappa_omega(Z)
            doubled = sum(map(twice.__getitem__, Z))
            bound = 2 * k * omega - kappa
            strict = not marked.isdisjoint(Z)
            if doubled < bound or (strict and doubled == bound):
                return BalanceVerdict(ok=False, witness=Z, leg_sum=doubled // 2,
                                      bound=Fraction(bound, 2), strict=strict)
    return BalanceVerdict(ok=True)


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
