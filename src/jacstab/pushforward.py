"""Degree <= 2 classes on the universal curve and their pushforwards.

Fiber classes are exact polynomials in the marked-section classes
D_1..D_n, the relative canonical class K, and the vertical boundary symbols
B_{h,A} (the boundary divisor whose genus-h side carries the legs A together
with the moving point).  ``FiberClass`` and ``GradedAtomPoly`` are
``LinearClass``es (see ``divisors``).  A fiber monomial is keyed by a tag
and its indices, ("const",), ("D", i), ("K",), ("B", h, A), ("D2", i),
("K2",), ("B2", h, A), ("DB", i, h, A) and ("KB", h, A), each declared once
in ``FiberClass._TAGS`` with its degree, index kinds and symbol; terms print
by degree, then by symbol text (so D_10 comes before D_2).  A graded atom
product is keyed by its sorted (s, multiplicity) pairs and prints by its own
rules.  The ring rules of the product:

* K * D_i = -D_i^2
* D_i * D_j = 0 for i != j (disjoint sections)
* B_{h,A} * B_{l,B} = 0 for distinct indices
* D_i * B_{h,A} = 0 for i not in A: on the universal curve, the space of
  (n+1)-marked curves with * the moving point, the two are delta_{0,{i,*}}
  and delta_{h,A+{*}}, boundary divisors that meet only when their sides
  nest, that is when i is in A (Arbarello-Cornalba's boundary calculus)

A product of two degree-1 monomials is therefore non-zero only in five
families: D_i^2 (K*D_i lands here), K^2, B_{h,A}^2 (one index on both sides),
K*B_{h,A}, and D_i*B_{h,A} for i in A.  The constant multiplies every term,
and every other pair exceeds degree 2.  The constructor drops a
D_i*B_{h,A} with i not in A, so every class is in normal form for all four
rules and ``==`` compares normal forms: ``FiberClass(2, 2, {("DB", 2, 1, (1,)): 1})``
and ``FiberClass.section(2, 2, 2) * FiberClass.boundary(2, 2, 1, (1,))`` are zero.

Pushing forward along the universal curve kills degree <= 1 terms and sends
each degree-2 monomial to the one term on the base that ``PUSH_RULES`` names
for its tag, with no rewriting of its own.  One walk, ``_walk(a, b, rules)``,
forms every term of a product: it splits each factor (a square once) into
its constant, D_i, K, B_{h,A} and degree-2 parts.  When both factors have a
degree-1 part it pairs their coefficients index by index in the factors' own
key order and sends each non-zero family term (D_i*B_{h,A} by a loop over
the legs i of each A) through its row of ``rules``.  The terms of one
B_{h,A} whose rows return the same head one after another form a run, which
the walk sums in a local and adds to that head's sum once, when a row
returns another head or the index ends; under ``PUSH_RULES`` all of them land
on delta_{h,A}, so each (h, A) costs one update of the sums instead of
2 + |A|.  Then each constant times each term of the other factor goes
through the row of that term's tag, or to zero when ``rules`` names no such
row, each term its own update.  A run that sums to 0 is still written, so
each head keeps the place of its first term, and the walk drops the sums
that cancel at the end.  Its work grows with the family terms, and with
the terms of a factor whose partner has a constant.  ``push_product(a, b)``
is the walk with ``PUSH_RULES`` and then the one fold,
``divisors._fold_checked``, which folds the summed heads to canonical keys
without checking them again: the fiber class's constructor already has.  It
equals ``pushforward(a.mul_raw(b))`` but never forms the product, and it
walks c1's canonical (h, lex A) order, so the fold and the printed order's
sort get their keys in order.  ``pushforward(fc)`` is ``fc`` times the
constant 1, pushed: no family term, one step per term of ``fc``.
``FiberClass.mul_raw`` is the walk with ``_IDENTITY``, a row for every tag
that sends each monomial to itself; it never reads ``PUSH_RULES``.  Each
derivation builds its c1, which has no constant, once and makes one push.
The rule table is module data so that corrupting it is observable (the
selftest must catch a corrupted table).

The derivations run on ``int``s: c1 has integer coefficients (tau and k are
integers), and so has every rule.  The halving of the pushed class,
``_minus_half``, is the one step that can leave them, once per output term.
It halves with ``divisors._half``, as the closed forms do: an even
coefficient stays an ``int`` and an odd one becomes a ``Fraction``, so the
derived and the closed class hold the same type for each value.  The walk,
the fold and the halving read a coefficient only through ring operations, a
zero test and ``_half``'s type test, so they run unchanged on polynomials in
the twist (see ``divisors``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence

from . import stats
from .errors import JacstabError, exact, strict_int
from .divisors import (DivisorClass, Exact, LinearClass, _check_gn, _check_tau_theta,
                       _check_tau_gm1, _closed, _fold_checked, _half, _joined, _legs)

def _families(coeffs: Mapping[tuple, Exact]) -> tuple:
    """Split coefficients into (constant, {i: D_i}, K, {(h, A): B_{h,A}}, degree-2 part)."""
    const = K = 0
    D: dict[int, Exact] = {}
    B: dict[tuple, Exact] = {}
    quadratic: dict[tuple, Exact] = {}
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


def _pair(x: dict, y: dict) -> dict:
    """{key: (x's coefficient, y's)} over x's keys in order, then y's other keys."""
    if x is y:
        return {key: (c, c) for key, c in x.items()}
    out = {key: (c, y.get(key, 0)) for key, c in x.items()}
    out.update((key, (0, c)) for key, c in y.items() if key not in x)
    return out


class FiberClass(LinearClass):
    """Polynomial of degree <= 2 on the universal curve, int or Fraction coefficients."""

    __slots__ = ("g", "n")
    _space = ("g", "n")
    _TAGS = {
        "const": (0, "", lambda: "1"),
        "D": (1, "i", lambda i: f"D_{i}"),
        "K": (1, "", lambda: "K"),
        "B": (1, "hA", lambda h, A: f"B_{{{h},{{{_joined(A)}}}}}"),
        "D2": (2, "i", lambda i: f"D_{i}^2"),
        "K2": (2, "", lambda: "K^2"),
        "B2": (2, "hA", lambda h, A: f"B_{{{h},{{{_joined(A)}}}}}^2"),
        "DB": (2, "ihA", lambda i, h, A: f"D_{i}*B_{{{h},{{{_joined(A)}}}}}"),
        "KB": (2, "hA", lambda h, A: f"K*B_{{{h},{{{_joined(A)}}}}}"),
    }

    def __init__(self, g: int, n: int, coeffs: Mapping[tuple, Exact] | None = None):
        _check_gn(g, n)
        terms = [(self._monomial(g, n, key), exact(c)) for key, c in (coeffs or {}).items()]
        # D_i*B_{h,A} = 0 for i not in A: every class is built in normal form
        self._fill_sum((g, n), [(key, c) for key, c in terms if key[0] != "DB" or key[1] in key[3]])

    @classmethod
    def _monomial(cls, g: int, n: int, key: tuple) -> tuple:
        """``key`` checked against its tag's index kinds and ranges, its legs sorted."""
        row = cls._TAGS.get(key[0]) if type(key) is tuple and key else None
        if row is None or len(key) != 1 + len(row[1]):
            raise JacstabError("BAD_INPUT", f"unknown monomial {key}")
        out = [key[0]]
        for kind, x in zip(row[1], key[1:]):
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, g: int, n: int) -> "FiberClass":
        return cls(g, n)

    @classmethod
    def section(cls, g: int, n: int, i: int) -> "FiberClass":
        return cls(g, n, {("D", i): 1})

    @classmethod
    def canonical(cls, g: int, n: int) -> "FiberClass":
        return cls(g, n, {("K",): 1})

    @classmethod
    def boundary(cls, g: int, n: int, h: int, A: Sequence[int]) -> "FiberClass":
        return cls(g, n, {("B", h, tuple(A)): 1})

    # -- ring operations ----------------------------------------------------

    # The product is the push's walk with ``_IDENTITY`` for the rule table:
    # each term lands on its own monomial, and a sum that cancels, as the
    # D_1 terms of (1 + D_1)*(1 - D_1) do, is dropped by the walk.
    def mul_raw(self, other: "FiberClass") -> "FiberClass":
        """Product in normal form, forming only the surviving families of the module docstring."""
        return self._like(_walk(self, other, _IDENTITY)[0])

    __mul__ = mul_raw

    # -- presentation ------------------------------------------------------

    def _printed(self) -> list[tuple[str, Exact]]:
        """Terms by degree, then by symbol text, each symbol rendered once."""
        return [(sym, c) for _, sym, c in sorted((self._TAGS[key[0]][0], self._symbol(key), c)
                                                 for key, c in self.coeffs.items())]

    def to_json_dict(self) -> dict:
        return {"terms": [{"monomial": sym, "c": str(c)} for sym, c in self._printed()]}


# ----------------------------------------------------------------------
# pushforward rules

# Each rule maps a degree-2 monomial's indices to one ``DivisorClass`` term
# head, which the fold folds, and its integer factor; the tags it does not
# name push to zero.
PUSH_RULES = {
    "D2": lambda i: (("psi", i), -1),
    "K2": lambda: (("kappa1t",), 1),
    "B2": lambda h, A: (("delta", h, A), -1),
    "DB": lambda i, h, A: (("delta", h, A), 1),
    "KB": lambda h, A: (("delta", h, A), 2 * h - 1),
}


# ``mul_raw``'s table: each monomial of every tag to itself, factor 1
_IDENTITY = {tag: lambda *index, tag=tag: ((tag, *index), 1) for tag in FiberClass._TAGS}


def _walk(a: FiberClass, b: FiberClass,
          rules: Mapping) -> tuple[dict[tuple, Exact], int, int]:
    """a*b through ``rules``: (the non-zero sums per head, number of terms,
    number of updates of the sums).

    Each non-zero term of the five families of the module docstring, then
    each constant times each term of the other factor (the two constants'
    product once), goes through its ``rules`` row, a (head, factor) pair,
    into a sum per head; a term whose tag ``rules`` does not name is zero.
    The family terms of one (h, A) are summed in runs of equal heads, each
    run added to its head's sum once, a run that sums to 0 included, so the
    sums keep the key order of a term-by-term accumulation; every other term
    is an update of its own.
    No family term is formed unless both factors have a degree-1 part, and
    the degree refusal comes before any term.  The family coefficients are
    paired index by index in a's key order, then b's (``_pair``), and
    ``a * a`` splits a once.
    """
    a._check_same_space(b)
    a0, aD, aK, aB, a2 = _families(a.coeffs)
    b0, bD, bK, bB, b2 = (a0, aD, aK, aB, a2) if b is a else _families(b.coeffs)
    a1, b1 = aD or aK or aB, bD or bK or bB
    if (a2 and (b1 or b2)) or (b2 and a1):
        raise JacstabError("BAD_INPUT", "fiber classes only carry degrees up to 2")
    sums: dict[tuple, Exact] = {}
    get = sums.get
    terms = updates = 0
    if a1 and b1:  # then neither factor has a degree-2 part
        D = _pair(aD, bD)
        in_D = D.get
        D2, K2, B2, DB, KB = (rules[tag] for tag in ("D2", "K2", "B2", "DB", "KB"))
        c = aK * bK
        if c:
            head, factor = K2()
            sums[head] = c * factor
            terms = updates = 1
        for i, (x, y) in D.items():
            c = x * y - x * bK - aK * y  # K*D_i = -D_i^2
            if c:
                head, factor = D2(i)
                sums[head] = get(head, 0) + c * factor
                terms += 1
                updates += 1
        for (h, A), (x, y) in _pair(aB, bB).items():
            # a run of terms with equal heads is summed here and written once
            run_head, run = None, 0
            for rule, c in ((B2, x * y), (KB, x * bK + aK * y)):
                if c:
                    head, factor = rule(h, A)
                    if head != run_head:
                        if run_head is not None:
                            sums[run_head] = get(run_head, 0) + run
                            updates += 1
                        run_head, run = head, 0
                    run += c * factor
                    terms += 1
            for i in A:  # D_i*B_{h,A} = 0 for i not in A
                st = in_D(i)
                if st:
                    c = st[0] * y + x * st[1]
                    if c:
                        head, factor = DB(i, h, A)
                        if head != run_head:
                            if run_head is not None:
                                sums[run_head] = get(run_head, 0) + run
                                updates += 1
                            run_head, run = head, 0
                        run += c * factor
                        terms += 1
            if run_head is not None:
                sums[run_head] = get(run_head, 0) + run
                updates += 1
    if a0:  # a's constant times each term of b
        for key, c in b.coeffs.items():
            rule = rules.get(key[0])
            if rule:
                head, factor = rule(*key[1:])
                sums[head] = get(head, 0) + a0 * c * factor
                terms += 1
                updates += 1
    if b0:  # b's constant times each term of a but a's constant, counted above
        for key, c in a.coeffs.items():
            rule = rules.get(key[0])
            if rule and key != ("const",):
                head, factor = rule(*key[1:])
                sums[head] = get(head, 0) + b0 * c * factor
                terms += 1
                updates += 1
    return {head: c for head, c in sums.items() if c}, terms, updates


def push_product(a: FiberClass, b: FiberClass) -> DivisorClass:
    """``pushforward(a.mul_raw(b))``, pushed family by family without forming the product.

    The walk with ``PUSH_RULES``, then the one fold; degree <= 1 terms push
    to zero.  The refusals are ``mul_raw``'s.
    """
    pushed, terms, updates = _walk(a, b, PUSH_RULES)
    stats.COUNTS["pushforward.pushed_terms"] += terms
    stats.COUNTS["pushforward.sum_updates"] += updates
    return _fold_checked(a.g, a.n, pushed.items())


def pushforward(fc: FiberClass) -> DivisorClass:
    """Push a fiber class down to the base: ``fc`` times the constant 1, pushed.

    Linear; degree 0 and 1 monomials push to zero, degree-2 monomials follow
    ``PUSH_RULES``, in ``fc``'s key order.
    """
    return push_product(fc, fc._like({("const",): 1}))


def _minus_half(cls: DivisorClass) -> DivisorClass:
    """-cls/2, each coefficient negated and halved by ``divisors._half``."""
    return cls._like({key: _half(-c) for key, c in cls.coeffs.items()})


# ----------------------------------------------------------------------
# first Chern classes of the extended sections and their theta pullbacks

def c1_twisted_bundle(g: int, n: int, tau: Sequence[int], k: int) -> FiberClass:
    """c1 of the twisted degree-0 bundle on the universal curve."""
    t = _check_tau_theta(g, n, tau, k)
    head = {("D", i): ti for i, ti in enumerate(t, start=1)} | {("K",): -k}
    return _counted(_closed(FiberClass, g, n, t, head, "B", lambda h, A, s: k * (1 - 2 * h) + s))


def _counted(c1: FiberClass) -> FiberClass:
    """``c1``, its terms added to ``stats.COUNTS``."""
    stats.COUNTS["pushforward.c1_terms"] += len(c1.coeffs)
    return c1


def theta_via_pushforward(g: int, n: int, tau: Sequence[int], k: int) -> DivisorClass:
    """Theta pullback computed from first principles: push down -c1^2/2.

    Tensoring the bundle by a pullback from the base would not change the
    answer (the extra c1 term has fiber degree 0, so its products die under
    the pushforward); no such term is ever introduced here, so this fact is
    recorded as documentation rather than as a code path.
    """
    c1 = c1_twisted_bundle(g, n, tau, k)
    return _minus_half(push_product(c1, c1))


def c1_gm1_bundle(g: int, n: int, tau: Sequence[int]) -> FiberClass:
    """c1 of the degree g-1 section bundle on the universal curve.

    The boundary coefficient carries an indicator for the basepoint side, 1
    when marking 1 is off A; reading it as 1 when marking 1 is on A gives
    the same pushed-forward class, which the tests assert.
    """
    t = _check_tau_gm1(g, n, tau)
    head = {("D", i): ti for i, ti in enumerate(t, start=1)}
    return _counted(_closed(FiberClass, g, n, t, head, "B", lambda h, A, s: s - h + int(1 not in A)))


def theta_gm1_via_pushforward(g: int, n: int, tau: Sequence[int]) -> DivisorClass:
    """Degree g-1 theta pullback from first principles.

    Minus the class equals push(c1*(c1 - K))/2 + lambda1: by bilinearity the
    one fused push stands for push(c1^2)/2 - push(c1*K)/2; it is pushed once, then halved.
    """
    c1 = c1_gm1_bundle(g, n, tau)
    pushed = push_product(c1, c1 - FiberClass.canonical(g, n))
    return _minus_half(pushed) + DivisorClass(g, n, lambda1=-1)


# ----------------------------------------------------------------------
# zero-section shape: graded exponential truncation

class GradedAtomPoly(LinearClass):
    """Polynomial in abstract graded atoms C_1..C_g (C_s has degree s)."""

    __slots__ = ("g",)
    _space = ("g",)

    def __init__(self, g: int, terms: Mapping[tuple[tuple[int, int], ...], Fraction] | None = None):
        if strict_int(g, "g") < 1:
            raise JacstabError("BAD_INPUT", "graded truncation needs g >= 1")
        self._fill_sum((g,), ((tuple(sorted(key)), c) for key, c in (terms or {}).items()))

    terms = property(lambda self: self.coeffs)

    _order = None  # the keys sort as themselves

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
    if strict_int(g, "g") < 1:
        raise JacstabError("BAD_INPUT", "exp truncation needs g >= 1")
    # each partition has its own key, sorted, and a non-zero Fraction coefficient
    terms = {}
    for part in _partitions(g):
        key = tuple(sorted(Counter(part).items()))
        terms[key] = math.prod(Fraction((-1) ** s * math.factorial(s - 1)) ** m / math.factorial(m)
                               for s, m in key)
    return GradedAtomPoly._of((g,), terms)
