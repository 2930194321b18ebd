"""Degree <= 2 classes on the universal curve and their pushforwards.

Fiber classes are exact-rational polynomials in the marked-section classes
D_1..D_n, the relative canonical class K, and the vertical boundary symbols
B_{h,A} (the boundary divisor whose genus-h side carries the legs A together
with the moving point).  ``FiberClass`` and ``GradedAtomPoly`` are
``LinearClass``es (see ``divisors``): the monomials are keyed ("const",),
("D", i), ("K",), ("B", h, A), ("D2", i), ("K2",), ("KD", i), ("B2", h, A),
("DB", i, h, A) and ("KB", h, A), and a graded atom product by its sorted
(s, multiplicity) pairs.  The ring normalization used throughout:

* K * D_i = -D_i^2
* D_i * D_j = 0 for i != j (disjoint sections)
* B_{h,A} * B_{l,B} = 0 for distinct indices
* D_i * B_{h,A} stays symbolic until pushforward

A product of two degree-1 monomials is therefore non-zero only in six
families: D_i^2, K*D_i (kept raw until ``normalized``), K^2, B_{h,A}^2 (one
index on both sides), K*B_{h,A}, and D_i*B_{h,A} for every i.  The constant
multiplies every term, and every other pair exceeds degree 2.
``FiberClass.mul_raw`` splits each factor into its constant, D_i, K, B_{h,A}
and degree-2 parts and forms only these families, so its work grows with the
number of output terms, not with the number of monomial pairs.

Pushing forward along the universal curve kills degree <= 1 terms and sends
the degree-2 monomials to divisor classes on the base via ``PUSH_RULES``.
``pushforward`` applies the K*D rewrite itself, so the derivations push the
raw ``mul_raw`` products and each product is normalized once, there; the
rule table is module data so that corrupting it is observable (the selftest
must catch a corrupted table).  D_i*B_{h,A} with i not in A is dropped there,
not in the product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import JacstabError, strict_int
from .graphs import DualGraph
from .divisors import (DivisorClass, LinearClass, canonical_indices, canonicalize,
                       _check_gn, _check_tau_theta, _check_tau_gm1, _legs)
from .stability import resolve_basepoint

_DEGREE = {"const": 0, "D": 1, "K": 1, "B": 1,
           "D2": 2, "K2": 2, "B2": 2, "DB": 2, "KB": 2, "KD": 2}
# The indices after each tag: i a marking, h a genus, A a set of markings.
_INDICES = {"const": "", "D": "i", "K": "", "B": "hA",
            "D2": "i", "K2": "", "B2": "hA", "DB": "ihA", "KB": "hA", "KD": "i"}


def _monomial(g: int, n: int, key: tuple) -> tuple:
    """``key`` checked against its tag's indices and ranges, its legs sorted."""
    kinds = _INDICES.get(key[0]) if type(key) is tuple and key else None
    if kinds is None or len(key) != 1 + len(kinds):
        raise JacstabError("BAD_INPUT", f"unknown monomial {key}")
    out = [key[0]]
    for kind, x in zip(kinds, key[1:]):
        if kind == "A":
            x = _legs(x)
            ok = all(1 <= i <= n for i in x)
        else:
            x = strict_int(x, "monomial index")
            ok = 1 <= x <= n if kind == "i" else 0 <= x <= g
        if not ok:
            raise JacstabError("BAD_INPUT", f"monomial {key} has an index outside its range "
                                            f"for g={g}, n={n}")
        out.append(x)
    return tuple(out)


def _families(coeffs: Mapping[tuple, Fraction]) -> tuple:
    """Split coefficients into (constant, {i: D_i}, K, {(h, A): B_{h,A}}, degree-2 part)."""
    const = K = Fraction(0)
    D: dict[int, Fraction] = {}
    B: dict[tuple, Fraction] = {}
    quadratic: dict[tuple, Fraction] = {}
    for key, c in coeffs.items():
        tag = key[0]
        if tag == "B":
            B[key[1:]] = c
        elif tag == "D":
            D[key[1]] = c
        elif tag == "K":
            K = c
        elif tag == "const":
            const = c
        else:
            quadratic[key] = c
    return const, D, K, B, quadratic


class FiberClass(LinearClass):
    """Polynomial of degree <= 2 on the universal curve, exact coefficients."""

    __slots__ = ("g", "n")
    _space = ("g", "n")

    def __init__(self, g: int, n: int, coeffs: Mapping[tuple, Fraction] | None = None):
        _check_gn(g, n)
        self._fill_sum((g, n), ((_monomial(g, n, key), c) for key, c in (coeffs or {}).items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g: int, n: int) -> "FiberClass":
        return cls(g, n)

    @classmethod
    def section(cls, g: int, n: int, i: int) -> "FiberClass":
        return cls(g, n, {("D", i): Fraction(1)})

    @classmethod
    def canonical(cls, g: int, n: int) -> "FiberClass":
        return cls(g, n, {("K",): Fraction(1)})

    @classmethod
    def boundary(cls, g: int, n: int, h: int, A: Sequence[int]) -> "FiberClass":
        return cls(g, n, {("B", h, tuple(A)): Fraction(1)})

    # -- ring operations ----------------------------------------------------

    def mul_raw(self, other: "FiberClass") -> "FiberClass":
        """Product without the K*D rewrite; may contain raw KD monomials.

        Forms the surviving product families of the module docstring only.
        """
        self._check_same_space(other)
        a0, aD, aK, aB, a2 = _families(self.coeffs)
        b0, bD, bK, bB, b2 = _families(other.coeffs)
        if (a2 and (bD or bK or bB or b2)) or (b2 and (aD or aK or aB)):
            raise JacstabError("BAD_INPUT", "fiber classes only carry degrees up to 2")
        out: dict[tuple, Fraction] = {}

        def add(key: tuple, c: Fraction) -> None:
            out[key] = out[key] + c if key in out else c

        if a0:
            for key, c in other.coeffs.items():
                add(key, a0 * c)
        if b0:
            for key, c in self.coeffs.items():
                if key != ("const",):  # const * const is counted above
                    add(key, c * b0)
        for i, c in aD.items():
            if i in bD:
                add(("D2", i), c * bD[i])
            if bK:
                add(("KD", i), c * bK)
            for (h, A), b in bB.items():
                add(("DB", i, h, A), b * c)
        for i, c in bD.items():
            if aK:
                add(("KD", i), aK * c)
            for (h, A), a in aB.items():
                add(("DB", i, h, A), a * c)
        if aK and bK:
            add(("K2",), aK * bK)
        for (h, A), a in aB.items():
            if (h, A) in bB:
                add(("B2", h, A), a * bB[(h, A)])
            if bK:
                add(("KB", h, A), a * bK)
        if aK:
            for (h, A), b in bB.items():
                add(("KB", h, A), aK * b)
        return self._like({key: c for key, c in out.items() if c})

    def normalized(self) -> "FiberClass":
        """Rewrite KD monomials to -D^2."""
        out: dict[tuple, Fraction] = {}
        for key, c in self.coeffs.items():
            if key[0] == "KD":
                key, c = ("D2", key[1]), -c
            out[key] = out[key] + c if key in out else c
        return self._like({key: c for key, c in out.items() if c})

    def __mul__(self, other):
        return self.mul_raw(other).normalized()

    # -- presentation ------------------------------------------------------

    def _order(self, key: tuple) -> tuple:
        return _DEGREE[key[0]], self._symbol(key)

    @staticmethod
    def _symbol(key: tuple) -> str:
        tag = key[0]
        if tag == "const":
            return "1"
        if tag == "D":
            return f"D_{key[1]}"
        if tag == "K":
            return "K"
        if tag == "B":
            legs = ",".join(str(i) for i in key[2])
            return f"B_{{{key[1]},{{{legs}}}}}"
        if tag == "D2":
            return f"D_{key[1]}^2"
        if tag == "K2":
            return "K^2"
        if tag == "KD":
            return f"K*D_{key[1]}"
        if tag == "B2":
            legs = ",".join(str(i) for i in key[2])
            return f"B_{{{key[1]},{{{legs}}}}}^2"
        if tag == "DB":
            legs = ",".join(str(i) for i in key[3])
            return f"D_{key[1]}*B_{{{key[2]},{{{legs}}}}}"
        if tag == "KB":
            legs = ",".join(str(i) for i in key[2])
            return f"K*B_{{{key[1]},{{{legs}}}}}"
        raise ValueError(key)

    def to_json_dict(self) -> dict:
        return {"terms": [{"monomial": self._symbol(k), "c": str(self.coeffs[k])}
                          for k in self._sorted_keys()]}


# ----------------------------------------------------------------------
# pushforward rules

PUSH_RULES = {
    "D2": lambda i: [("psi", i, Fraction(-1))],
    "K2": lambda: [("kappa1t", Fraction(1))],
    "B2": lambda h, A: [("delta", h, A, Fraction(-1))],
    "DB": lambda i, h, A: ([("delta", h, A, Fraction(1))] if i in A else []),
    "KB": lambda h, A: [("delta", h, A, Fraction(2 * h - 1))],
}


def pushforward(fc: FiberClass) -> DivisorClass:
    """Push a fiber class down to the base.

    Linear; degree 0 and 1 monomials push to zero, degree-2 monomials follow
    ``PUSH_RULES`` after the K*D rewrite, the one normalization of a product.
    """
    terms: list[tuple] = []
    for key, c in fc.normalized().coeffs.items():
        if _DEGREE[key[0]] < 2:
            continue
        rule = PUSH_RULES[key[0]]
        for tag, *rest in rule(*key[1:]):
            terms.append((tag, *rest[:-1], c * rest[-1]))
    return canonicalize(fc.g, fc.n, terms)


# ----------------------------------------------------------------------
# first Chern classes of the extended sections and their theta pullbacks

def c1_twisted_bundle(g: int, n: int, tau: Sequence[int], k: int) -> FiberClass:
    """c1 of the twisted degree-0 bundle on the universal curve."""
    t = _check_tau_theta(g, n, tau, k)
    coeffs: dict[tuple, Fraction] = {}
    for i, ti in enumerate(t, start=1):
        if ti:
            coeffs[("D", i)] = Fraction(ti)
    if k:
        coeffs[("K",)] = Fraction(-k)
    for (h, A) in canonical_indices(g, n):
        c = k * (1 - 2 * h) + sum(t[i - 1] for i in A)
        if c:
            coeffs[("B", h, A)] = Fraction(c)
    return FiberClass(g, n, coeffs)


def theta_via_pushforward(g: int, n: int, tau: Sequence[int], k: int) -> DivisorClass:
    """Theta pullback computed from first principles: push down -c1^2/2.

    Tensoring the bundle by a pullback from the base would not change the
    answer (the extra c1 term has fiber degree 0, so its products die under
    the pushforward); no such term is ever introduced here, so this fact is
    recorded as documentation rather than as a code path.
    """
    c1 = c1_twisted_bundle(g, n, tau, k)
    return pushforward(c1.mul_raw(c1).scale(Fraction(-1, 2)))


def c1_gm1_bundle(g: int, n: int, tau: Sequence[int],
                  chi_convention: str = "complement") -> FiberClass:
    """c1 of the degree g-1 section bundle on the universal curve.

    The boundary coefficient carries an indicator for the basepoint side; the
    two readings ("complement": 1 when marking 1 is off A, "member": 1 when it
    is on A) give the same pushed-forward class, which the tests assert.
    """
    t = _check_tau_gm1(g, n, tau)
    if chi_convention not in ("complement", "member"):
        raise JacstabError("BAD_INPUT", f"unknown chi convention {chi_convention!r}")
    coeffs: dict[tuple, Fraction] = {}
    for i, ti in enumerate(t, start=1):
        if ti:
            coeffs[("D", i)] = Fraction(ti)
    for (h, A) in canonical_indices(g, n):
        s = sum(t[i - 1] for i in A)
        e = (1 not in A) if chi_convention == "complement" else (1 in A)
        c = s - h + int(e)
        if c:
            coeffs[("B", h, A)] = Fraction(c)
    return FiberClass(g, n, coeffs)


def theta_gm1_via_pushforward(g: int, n: int, tau: Sequence[int],
                              chi_convention: str = "complement") -> DivisorClass:
    """Degree g-1 theta pullback from first principles.

    Minus the class equals push(c1^2/2) - push(c1*K/2) + lambda1.
    """
    c1 = c1_gm1_bundle(g, n, tau, chi_convention=chi_convention)
    K = FiberClass.canonical(g, n)
    half = Fraction(1, 2)
    return (pushforward(c1.mul_raw(c1).scale(-half))
            + pushforward(c1.mul_raw(K).scale(half))
            + DivisorClass(g, n, lambda1=Fraction(-1)))


def compact_type_gm1_multidegree(graph: DualGraph, basepoint: str | None = None) -> dict[str, int]:
    """Multidegree of the degree g-1 section on a two-component compact-type fiber.

    Each component gets its genus, minus one on the component away from
    marking 1.  Totals g-1 and is q-stable for the trivial polarization.
    """
    cls = graph.classify()
    if len(graph.ids) != 2 or not cls.compact_type:
        raise JacstabError("WRONG_SHAPE",
                           "rule applies to two-vertex compact-type graphs only")
    base = resolve_basepoint(graph, basepoint)
    return {v: graph.genus_of[v] - (0 if v == base else 1) for v in graph.ids}


# ----------------------------------------------------------------------
# zero-section shape: graded exponential truncation

class GradedAtomPoly(LinearClass):
    """Polynomial in abstract graded atoms C_1..C_g (C_s has degree s)."""

    __slots__ = ("g",)
    _space = ("g",)

    def __init__(self, g: int, terms: Mapping[tuple[tuple[int, int], ...], Fraction] | None = None):
        if g < 1:
            raise JacstabError("BAD_INPUT", "graded truncation needs g >= 1")
        self._fill_sum((g,), ((tuple(sorted(key)), c) for key, c in (terms or {}).items()))

    terms = property(lambda self: self.coeffs)

    @staticmethod
    def _order(key: tuple[tuple[int, int], ...]) -> tuple:
        return key

    @staticmethod
    def _symbol(key: tuple[tuple[int, int], ...]) -> str:
        return "*".join(f"C{s}^{m}" if m > 1 else f"C{s}" for s, m in key)

    def to_json_dict(self) -> dict:
        return {"degree": self.g,
                "terms": [{"atoms": [[s, m] for s, m in key], "c": str(self.coeffs[key])}
                          for key in self._sorted_keys()]}


def _partitions(total: int, max_part: int | None = None):
    """Integer partitions as descending tuples."""
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def exp_truncate(g: int) -> GradedAtomPoly:
    """Degree-g part of exp(sum_{s>=1} (-1)^s (s-1)! C_s).

    One term per partition of g: the partition with multiplicities m_s
    contributes prod_s ((-1)^s (s-1)!)^{m_s} / m_s! on prod_s C_s^{m_s}.
    """
    if g < 1:
        raise JacstabError("BAD_INPUT", "exp truncation needs g >= 1")
    terms: dict[tuple[tuple[int, int], ...], Fraction] = {}
    for part in _partitions(g):
        mult: dict[int, int] = {}
        for s in part:
            mult[s] = mult.get(s, 0) + 1
        coeff = Fraction(1)
        for s, m in mult.items():
            base = Fraction((-1) ** s * math.factorial(s - 1))
            coeff *= base ** m / math.factorial(m)
        key = tuple(sorted(mult.items()))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return GradedAtomPoly(g, terms)
