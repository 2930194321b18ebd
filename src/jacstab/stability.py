"""Semistability, stability and quasi-stability of multidegrees.

A polarization assigns every subcurve Y a rational value q_Y; a multidegree m
is semistable when deg_Y(m) >= q_Y - kappa_Y/2 for every proper non-empty
subcurve, stable when all inequalities are strict, and q-stable when the
inequality is strict exactly on subcurves containing a fixed basepoint
component (by default the component carrying marking 1).

All arithmetic is exact: thresholds are ``fractions.Fraction`` values and no
floating point enters any verdict.

Since q_Y, deg_Y and kappa_Y are all additive over the connected components of
an induced subcurve, a violation on an arbitrary subcurve forces a violation
on one of its components; checkers therefore iterate over connected subcurves
only.  The equivalence with the exhaustive subset scan of ``oracles.py`` is
asserted by the test suite on small graphs.

Each inequality is one row: :func:`_least` turns a subcurve's threshold and
strictness into the least integer degree the subcurve may carry, so testing a
multidegree against a row is integer arithmetic only and stays exact for every
polarization.  :func:`_rows` yields the rows lazily, one per connected
subcurve.  :func:`check_stability` stops at its first violated row, so a check
that fails early never computes the rows after its witness;
:func:`enumerate_stable` lists the rows once and tests every candidate of its
search against that list, so each threshold is computed once per search
instead of once per candidate, and takes its box bounds from :func:`_least`.
The balanced inequalities of :func:`is_balanced` keep their own direct loop,
since their equivalence with q-stability is a theorem the tests compare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import JacstabError, strict_int
from .graphs import DualGraph

SEMISTABLE = "semistable"
STABLE = "stable"
QSTABLE = "qstable"
MODES = (SEMISTABLE, STABLE, QSTABLE)

CANONICAL_ZERO = "canonical0"
TRIVIAL_GM1 = "trivial-gm1"


@dataclass(frozen=True)
class Polarization:
    """Per-vertex rational polarization data plus a target total degree.

    ``canonical0`` is the degree-0 polarization whose thresholds reduce to
    -kappa_Y/2 (the dualizing-sheaf halves cancel); ``trivial-gm1`` is the
    trivial polarization in degree g-1.
    """

    kind: str
    per_vertex_q: tuple[tuple[str, Fraction], ...] | None = None
    degree: int | None = None

    @classmethod
    def canonical_zero(cls) -> "Polarization":
        return cls(kind=CANONICAL_ZERO)

    @classmethod
    def trivial_gm1(cls) -> "Polarization":
        return cls(kind=TRIVIAL_GM1)

    @classmethod
    def custom(cls, per_vertex_q: Mapping[str, Fraction], degree: int) -> "Polarization":
        """Exact data only: each q an ``int`` or a ``Fraction``, the degree an ``int``."""
        exact = {v: q if type(q) is Fraction else Fraction(strict_int(q, f"q of {v!r}"))
                 for v, q in per_vertex_q.items()}
        return cls(kind="custom", per_vertex_q=tuple(sorted(exact.items())),
                   degree=strict_int(degree, "polarization degree"))

    @classmethod
    def preset(cls, name: str) -> "Polarization":
        if name == CANONICAL_ZERO:
            return cls.canonical_zero()
        if name == TRIVIAL_GM1:
            return cls.trivial_gm1()
        raise JacstabError("BAD_INPUT", f"unknown polarization preset {name!r}")

    def target_degree(self, graph: DualGraph) -> int:
        if self.kind == CANONICAL_ZERO:
            return 0
        if self.kind == TRIVIAL_GM1:
            return graph.g - 1
        assert self.degree is not None
        return self.degree

    def q_value(self, graph: DualGraph, Y: Iterable[str]) -> Fraction:
        S = frozenset(Y)
        omega = graph.omega_degree(S)
        if self.kind == CANONICAL_ZERO:
            # deg(P|Y)/r = -omega/2 for P = omega^-1 (+) O of rank 2
            return Fraction(0)
        if self.kind == TRIVIAL_GM1:
            return Fraction(omega, 2)
        qmap = dict(self.per_vertex_q or ())
        missing = S - set(qmap)
        if missing:
            raise JacstabError("BAD_INPUT", f"custom polarization misses vertices {sorted(missing)}")
        return sum((qmap[v] for v in sorted(S)), Fraction(0)) + Fraction(omega, 2)


def threshold(graph: DualGraph, pol: Polarization, Y: Iterable[str]) -> Fraction:
    """Lower bound q_Y - kappa_Y/2 that deg_Y must meet."""
    S = frozenset(Y)
    if not S or len(S) == len(graph.ids):
        raise JacstabError("EMPTY_OR_FULL", "threshold needs a proper non-empty subcurve")
    return pol.q_value(graph, S) - Fraction(graph.kappa(S), 2)


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


def resolve_basepoint(graph: DualGraph, basepoint: str | None) -> str:
    """Basepoint component for q-stability: explicit override or marking 1."""
    if basepoint is not None:
        if basepoint not in graph.ids:
            raise JacstabError("BAD_INPUT", f"unknown basepoint vertex {basepoint!r}")
        return basepoint
    v = graph.marking_vertex(1)
    if v is None:
        raise JacstabError("NO_BASEPOINT", "graph has no marking 1 and no basepoint was given")
    return v


def _least(graph: DualGraph, pol: Polarization, mode: str, base: str | None,
           Y: Iterable[str]) -> tuple[int, Fraction, bool]:
    """Least integer degree ``Y`` may carry, with its threshold and strictness.

    The inequality is strict on every subcurve when stable and on those
    containing the basepoint ``base`` when q-stable.
    """
    bound = threshold(graph, pol, Y)
    strict = mode == STABLE or (mode == QSTABLE and base in Y)
    return (math.floor(bound) + 1 if strict else math.ceil(bound)), bound, strict


def _rows(graph: DualGraph, pol: Polarization, mode: str,
          base: str | None) -> Iterator[tuple[tuple[int, ...], int, Fraction, bool]]:
    """One ``(members, least, bound, strict)`` per connected subcurve.

    Rows follow :meth:`DualGraph.connected_subsets`; ``members`` are the
    subcurve's positions in ``graph.ids``, and a multidegree violates the row
    exactly when its degree on them is below ``least``.
    """
    index = {v: i for i, v in enumerate(graph.ids)}
    for Y in graph.connected_subsets():
        yield (tuple(index[v] for v in Y), *_least(graph, pol, mode, base, Y))


def check_stability(graph: DualGraph, pol: Polarization, m: Mapping[str, int],
                    mode: str = QSTABLE, basepoint: str | None = None) -> StabilityVerdict:
    """Test a multidegree against every proper subcurve inequality.

    Returns a PASS verdict, or a FAIL verdict carrying the first violating
    connected subcurve together with the failed bound.
    """
    if mode not in MODES:
        raise JacstabError("BAD_INPUT", f"unknown mode {mode!r}")
    degrees = check_multidegree(graph, m)
    total = sum(degrees.values())
    target = pol.target_degree(graph)
    if total != target:
        raise JacstabError("DEGREE_MISMATCH",
                           f"multidegree total {total} != polarization degree {target}")
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None
    values = list(degrees.values())
    for members, least, bound, strict in _rows(graph, pol, mode, base):
        degree = sum(values[i] for i in members)
        if degree < least:
            return StabilityVerdict(ok=False, mode=mode,
                                    witness=tuple(graph.ids[i] for i in members),
                                    degree=degree, bound=bound, strict=strict)
    return StabilityVerdict(ok=True, mode=mode)


def enumerate_stable(graph: DualGraph, pol: Polarization, mode: str = QSTABLE,
                     basepoint: str | None = None) -> list[dict[str, int]]:
    """Exhaustively enumerate every (semi/q-)stable multidegree.

    The subcurve inequalities on singletons and their complements confine each
    vertex degree to a finite box; the box is searched with partial-sum
    pruning and every candidate is tested against one list of the rows of
    :func:`_rows`.  The search runs through the box in lexicographic order, so
    the output is sorted by the degrees in ``graph.ids`` order.
    """
    if mode not in MODES:
        raise JacstabError("BAD_INPUT", f"unknown mode {mode!r}")
    target = pol.target_degree(graph)
    ids = graph.ids
    if len(ids) == 1:
        return [{ids[0]: target}]
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None

    los, his = [], []
    for v in ids:
        lo = _least(graph, pol, mode, base, (v,))[0]
        hi = target - _least(graph, pol, mode, base, tuple(w for w in ids if w != v))[0]
        if hi < lo:
            return []
        los.append(lo)
        his.append(hi)
    rows = [(members, least) for members, least, _, _ in _rows(graph, pol, mode, base)]

    suffix_lo = [0] * (len(ids) + 1)
    suffix_hi = [0] * (len(ids) + 1)
    for i in range(len(ids) - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + los[i]
        suffix_hi[i] = suffix_hi[i + 1] + his[i]

    results: list[dict[str, int]] = []
    stack = [0] * len(ids)

    def search(i: int, acc: int) -> None:
        if i == len(ids):
            if acc != target:
                return
            # subtracting in place is several times faster than sum() over a
            # comprehension, and this is the search's inner loop
            for members, short in rows:
                for j in members:
                    short -= stack[j]
                if short > 0:
                    return
            results.append(dict(zip(ids, stack)))
            return
        rest_lo = suffix_lo[i + 1]
        rest_hi = suffix_hi[i + 1]
        for d in range(los[i], his[i] + 1):
            if acc + d + rest_lo <= target <= acc + d + rest_hi:
                stack[i] = d
                search(i + 1, acc + d)

    search(0, 0)
    # the recursive closure is a reference cycle that holds every result and
    # the rows; break it, or they stay alive until the cyclic collector runs
    del search
    return results


# ----------------------------------------------------------------------
# balanced twist data

def check_tau(graph_g: int, tau: Iterable[int], k: int, n: int) -> list[int]:
    """Validate an integer twist vector: n entries summing to k(2g-2)."""
    t = [strict_int(x, "tau entry") for x in tau]
    k = strict_int(k, "k")
    if len(t) != n:
        raise JacstabError("BAD_INPUT", f"tau has {len(t)} entries, expected {n}")
    want = k * (2 * graph_g - 2)
    if sum(t) != want:
        raise JacstabError("TAU_SUM", f"sum(tau) = {sum(t)}, expected k(2g-2) = {want}")
    return t


@dataclass(frozen=True)
class BalanceVerdict:
    ok: bool
    witness: tuple[str, ...] | None = None
    leg_sum: int | None = None
    bound: Fraction | None = None
    strict: bool | None = None


def is_balanced(graph: DualGraph, tau: Iterable[int], k: int) -> BalanceVerdict:
    """Test the balanced inequalities on every proper subcurve.

    PASS means: for every proper non-empty Z, the sum of tau over legs in Z is
    at least k*omega_degree(Z) - kappa_Z/2, strictly whenever marking 1 lies
    on Z.  This is checked directly from the definition, on the connected
    subcurves, independently of :func:`check_stability` and its rows; the
    equivalence with q-stability of the base multidegree is a tested theorem,
    not an implementation shortcut.
    """
    t = check_tau(graph.g, tau, k, n=graph.n)
    for Z in graph.connected_subsets():
        leg_sum = sum(t[i - 1] for v in Z for i in graph.legs_of[v])
        bound = k * graph.omega_degree(Z) - Fraction(graph.kappa(Z), 2)
        strict = any(1 in graph.legs_of[v] for v in Z)
        if leg_sum < bound or (strict and leg_sum == bound):
            return BalanceVerdict(ok=False, witness=tuple(sorted(Z)),
                                  leg_sum=leg_sum, bound=bound, strict=strict)
    return BalanceVerdict(ok=True)


def base_multidegree(graph: DualGraph, tau: Iterable[int], k: int) -> dict[str, int]:
    """Fiberwise multidegree of the untwisted bundle: leg sums minus k*deg-omega."""
    t = check_tau(graph.g, tau, k, n=graph.n)
    return {
        v: sum(t[i - 1] for i in graph.legs_of[v]) - k * graph.omega_degree((v,))
        for v in graph.ids
    }


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
