"""Independent oracles used by the selftest and the test suite.

These deliberately avoid the main code paths they check: the Laplacian solve
is exact Gaussian elimination instead of leaf peeling, the stable multidegrees
are the vectors of the box cut by the one-vertex inequalities that pass all
(not only connected) subcurves, the stability and balance verdicts test every
proper subcurve from the definition instead of the connected ones, and the
exponential truncation is plain multiply-and-truncate of the formal series.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Mapping

from .errors import JacstabError, check_tau
from .graphs import DualGraph
from .pushforward import FiberClass
from .stability import (Polarization, QSTABLE, STABLE, SEMISTABLE, BalanceVerdict,
                        StabilityVerdict, check_basepoint, resolve_basepoint)


def solve_twister(graph: DualGraph, m: Mapping[str, int], root: str) -> dict[str, int]:
    """Solve L.gamma = m with gamma(root) = 0 by exact Gaussian elimination.

    Requires a connected graph; the reduced Laplacian (root row and column
    removed) is invertible then.  Raises if the exact solution is not integral.
    """
    ids = [v for v in graph.ids if v != root]
    if not ids:
        return {root: 0}
    L: dict[str, dict[str, int]] = {v: {w: 0 for w in graph.ids} for v in graph.ids}
    for (a, b) in graph.edges:
        if a == b:
            continue
        L[a][a] += 1
        L[b][b] += 1
        L[a][b] -= 1
        L[b][a] -= 1
    size = len(ids)
    rows = [[Fraction(L[v][w]) for w in ids] + [Fraction(m[v])] for v in ids]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        pv = rows[col][col]
        rows[col] = [x / pv for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    gamma = {root: 0}
    for i, v in enumerate(ids):
        value = rows[i][size]
        if value.denominator != 1:
            raise JacstabError("NO_INTEGER_SOLUTION",
                               f"gamma({v}) = {value} is not an integer")
        gamma[v] = int(value)
    # the dropped root equation holds automatically (rows of L sum to zero and
    # m sums to zero), but verify anyway
    for v in graph.ids:
        lhs = sum(L[v][w] * gamma[w] for w in graph.ids)
        if lhs != m[v]:
            raise JacstabError("NO_INTEGER_SOLUTION", "system is inconsistent")
    return gamma


def _subset_profiles(graph: DualGraph, pol: Polarization, mode: str,
                     base: str | None) -> list[tuple[tuple[int, ...], Fraction, bool]]:
    """All proper subcurve inequalities, recomputed from the definition.

    Singletons come first so that a failing candidate dies early.
    """
    index = {v: i for i, v in enumerate(graph.ids)}
    profiles = []
    for Y in graph.proper_subsets():
        bound = pol.q_value(graph, Y) - Fraction(graph.kappa(Y), 2)
        if mode == STABLE:
            strict = True
        elif mode == QSTABLE:
            strict = base in Y
        else:
            strict = False
        profiles.append((tuple(index[v] for v in Y), bound, strict))
    profiles.sort(key=lambda p: len(p[0]))
    return profiles


def stability_exhaustive(graph: DualGraph, pol: Polarization, m: Mapping[str, int],
                         mode: str = QSTABLE,
                         basepoint: str | None = None) -> StabilityVerdict:
    """Stability verdict from every proper subcurve, connected or not.

    The witness is the first violated subcurve in :func:`_subset_profiles`
    order, which need not be the connected witness of ``check_stability``.
    """
    check_basepoint(graph, basepoint)
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None
    degrees = [m[v] for v in graph.ids]
    for members, bound, strict in _subset_profiles(graph, pol, mode, base):
        deg = sum(degrees[i] for i in members)
        if deg < bound or (strict and deg == bound):
            return StabilityVerdict(ok=False, mode=mode,
                                    witness=tuple(graph.ids[i] for i in members),
                                    degree=deg, bound=bound, strict=strict)
    return StabilityVerdict(ok=True, mode=mode)


def balanced_exhaustive(graph: DualGraph, tau: list[int], k: int) -> BalanceVerdict:
    """Balance verdict from every proper subcurve, connected or not."""
    t = check_tau(graph.g, tau, k, n=graph.n)
    for Z in graph.proper_subsets():
        leg_sum = sum(t[i - 1] for v in Z for i in graph.legs_of[v])
        bound = k * graph.omega_degree(Z) - Fraction(graph.kappa(Z), 2)
        strict = any(1 in graph.legs_of[v] for v in Z)
        if leg_sum < bound or (strict and leg_sum == bound):
            return BalanceVerdict(ok=False, witness=Z, leg_sum=leg_sum,
                                  bound=bound, strict=strict)
    return BalanceVerdict(ok=True)


def brute_force_stable(graph: DualGraph, pol: Polarization, mode: str = QSTABLE,
                       basepoint: str | None = None) -> list[dict[str, int]]:
    """Scan a box of multidegrees for the stable ones, in lexicographic order.

    The box is ceil(bound {v}) <= m_v <= floor(target - bound V-{v}) on each
    vertex v: two of the inequalities, rounded non-strictly, so it holds every
    stable vector.  Each vector in it is tested against every proper subcurve.
    """
    target = pol.target_degree(graph)
    ids = graph.ids
    check_basepoint(graph, basepoint)
    if len(ids) == 1:
        return [{ids[0]: target}]
    base = resolve_basepoint(graph, basepoint) if mode == QSTABLE else None
    profiles = _subset_profiles(graph, pol, mode, base)
    bounds = {members: bound for members, bound, _ in profiles}
    box = [range(math.ceil(bounds[(i,)]),
                 math.floor(target - bounds[tuple(j for j in range(len(ids)) if j != i)]) + 1)
           for i in range(len(ids))]
    results: list[dict[str, int]] = []
    for head in itertools.product(*box[:-1]):
        m = head + (target - sum(head),)
        if m[-1] in box[-1] and not any(
                (deg := sum(m[i] for i in members)) < bound or (strict and deg == bound)
                for members, bound, strict in profiles):
            results.append(dict(zip(ids, m)))
    return results


_MONOMIAL_DEGREE = {"const": 0, "D": 1, "K": 1, "B": 1,
                    "D2": 2, "K2": 2, "B2": 2, "DB": 2, "KB": 2}


def _mul_monomials(k1: tuple, k2: tuple) -> list[tuple]:
    """Product of two monomial keys as a list of (key, integer factor)."""
    if k1 == ("const",):
        return [(k2, 1)]
    if k2 == ("const",):
        return [(k1, 1)]
    d1, d2 = _MONOMIAL_DEGREE[k1[0]], _MONOMIAL_DEGREE[k2[0]]
    if d1 + d2 > 2:
        raise JacstabError("BAD_INPUT", "fiber classes only carry degrees up to 2")
    a, b = sorted((k1, k2))  # tag order: B < D < K
    if a[0] == "D" and b[0] == "D":
        return [(("D2", a[1]), 1)] if a[1] == b[1] else []
    if a[0] == "D" and b[0] == "K":
        return [(("D2", a[1]), -1)]  # K*D_i = -D_i^2
    if a[0] == "B" and b[0] == "D":  # section i lies on the other side when i is not in A
        return [(("DB", b[1], a[1], a[2]), 1)] if b[1] in a[2] else []
    if a[0] == "K" and b[0] == "K":
        return [(("K2",), 1)]
    if a[0] == "B" and b[0] == "K":
        return [(("KB", a[1], a[2]), 1)]
    if a[0] == "B" and b[0] == "B":
        return [(("B2", a[1], a[2]), 1)] if (a[1], a[2]) == (b[1], b[2]) else []
    raise JacstabError("BAD_INPUT", f"cannot multiply monomials {k1} and {k2}")


def fiber_product_pairwise(a: FiberClass, b: FiberClass) -> FiberClass:
    """Product of two fiber classes, one monomial pair at a time.

    The reference for ``FiberClass.mul_raw``: every pair of monomials goes
    through the ring rules one by one, raising on the first pair whose
    degrees exceed 2.
    """
    if (a.g, a.n) != (b.g, b.n):
        raise JacstabError("BAD_INPUT", "fiber classes live on different universal curves")
    out: dict[tuple, Fraction] = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            for key, f in _mul_monomials(k1, k2):
                out[key] = out.get(key, Fraction(0)) + c1 * c2 * f
    return FiberClass(a.g, a.n, out)


def exp_series_degree_part(g: int) -> dict[tuple[tuple[int, int], ...], Fraction]:
    """Degree-g part of exp(sum (-1)^s (s-1)! C_s) by series multiplication.

    Works with truncated polynomials keyed by atom multiplicity tuples; this
    is the brute-force route against which the closed truncation is checked.
    """
    def degree(key) -> int:
        return sum(s * m for s, m in key)

    def mul(p, q):
        out: dict = {}
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                if degree(k1) + degree(k2) > g:
                    continue
                merged: dict[int, int] = dict(k1)
                for s, m in k2:
                    merged[s] = merged.get(s, 0) + m
                key = tuple(sorted(merged.items()))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: c for k, c in out.items() if c}

    x = {(): Fraction(0)}
    for s in range(1, g + 1):
        x[((s, 1),)] = Fraction((-1) ** s * math.factorial(s - 1))
    x.pop((), None)

    total: dict = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for j in range(1, g + 1):
        power = mul(power, x)
        inv = Fraction(1, math.factorial(j))
        for k, c in power.items():
            total[k] = total.get(k, Fraction(0)) + inv * c
    return {k: c for k, c in total.items() if degree(k) == g and c}
