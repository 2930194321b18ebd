"""Exact divisor classes on the moduli of stable n-marked genus-g curves.

Every class of the package is a ``LinearClass``: an immutable sparse rational
combination of monomials, ``coeffs`` mapping a monomial key to a non-zero
exact number: an ``int`` or a ``Fraction``, which print, compare and hash
alike when equal, so integral work stays on ``int``s without changing a byte
of output (``exact`` rejects anything else).  It carries the shared algebra
(``+``, ``-``, ``scale``, ``is_zero``, ``==``, ``hash``) and the ``a + b - c``
text; a subclass names its space fields, the order of its keys, its JSON form
and its validating constructor.  A subclass whose keys start with a tag
declares each tag once, in its ``_TAGS`` table: tag -> (rank, index kinds,
renderer), the kinds ``i`` a marking, ``h`` a genus and ``A`` a set of
markings, the renderer an f-string of the indices that ``_symbol`` calls.
Results of the algebra are built by the trusted ``_like``, which neither
re-validates nor converts coefficients.

One function halves a coefficient, ``_half``: the closed forms halve their
psi, kappa1t and delta coefficients with it, and ``pushforward._minus_half``
halves a pushed class with it, so a value has one representation whichever
route computed it, an ``int`` when it is integral and a ``Fraction`` when not.
``_half`` tests a coefficient's type, never its value.  The kernel --
``_closed``, the walk of ``pushforward``, ``_fold_checked``, the
``LinearClass`` algebra and ``_half`` -- reads a coefficient only through ring
operations, a zero test and that type test; printing and the twist checks
aside, no other code reads one.  So the kernel runs unchanged on any exact
ring whose elements mix with ``int``s, polynomials in the twist included: the
tests compare the derivations with the closed forms that way, for every twist
of a (g, n) at once.  ``theta_pullback_hain`` keeps its own quarters, as the
independent third route, and ``mueller_correction`` stays concrete: it
branches on the sign of each tau_i.

``DivisorClass`` lives in the rational span of psi_1..psi_n, lambda1, kappa1t
(the pushed-forward square of the relative canonical class), delta_irr and the
separating boundary divisors delta_{h,A}, keyed ("psi", i), ("lambda1",),
("kappa1t",), ("delta_irr",) and ("delta", h, A) -- the rows of its
``_TAGS``, in their printed order, and the term tags of ``canonicalize``.
Boundary indices are kept in a
canonical form under the identification delta_{h,A} = delta_{g-h,A^c}:
either 2h < g, or 2h = g and marking 1 lies in A.  The one fold,
``_fold_checked``, folds every boundary term first, then reads a folded
(0,{i}) as -psi_i.

An index is a genuine boundary divisor here exactly when
2 <= h + |A| <= g + n - 2, read through the identification; note this range
excludes the classes of shape delta_{1,empty} on purpose, matching the ranges
of all the closed formulas below.

Terms from outside are checked once, by ``canonicalize``: ``DivisorClass(...)``
and ``theta_pullback_hain`` (whose folding is its algorithm) go through it.
It checks each term, then hands them all to ``_fold_checked``; the pushes of
``pushforward`` hand it their sums per term head directly, since a fiber
class's keys were checked when it was built.  ``_closed`` builds the theta
closed forms and the c1 classes of ``pushforward``, after they check their
twist data, on trusted keys: those of ``canonical_indices`` are canonical, in
range and never of psi shape, and are built once per (g, n).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import stats
from .errors import JacstabError, check_tau, check_twist, exact, strict_int

Legs = tuple[int, ...]
Exact = int | Fraction


def _half(x):
    """x/2, the package's one halving of a coefficient (see the module docstring).

    It tests the type, never the value: an ``int`` stays an ``int`` when even
    and becomes a ``Fraction`` when odd; any other coefficient, a ``Fraction``
    or a ring element built by a trusted caller, is multiplied by 1/2.
    """
    if type(x) is int:
        return x // 2 if x % 2 == 0 else Fraction(x, 2)
    return x * Fraction(1, 2)


class LinearClass:
    """Immutable sparse combination of monomials with exact (int or Fraction) coefficients."""

    __slots__ = ("coeffs",)
    _space: tuple[str, ...] = ()  # the fields naming the space, e.g. ("g", "n")
    _TAGS: dict[str, tuple] = {}  # tag -> (rank, index kinds, renderer)

    def _fill(self, space: tuple, coeffs: dict[tuple, Exact]) -> None:
        for field, value in zip(self._space, space):
            object.__setattr__(self, field, value)
        object.__setattr__(self, "coeffs", coeffs)

    def _fill_sum(self, space: tuple, terms: Iterable[tuple[tuple, object]]) -> None:
        """Fill from checked keys and exact coefficients; equal keys add up."""
        coeffs: dict[tuple, Exact] = {}
        for key, c in terms:
            c = exact(c)
            coeffs[key] = coeffs[key] + c if key in coeffs else c
        self._fill(space, {key: c for key, c in coeffs.items() if c})

    @classmethod
    def _of(cls, space: tuple, coeffs: dict[tuple, Exact]) -> "LinearClass":
        """A class from trusted parts: valid keys and non-zero exact values."""
        out = object.__new__(cls)
        out._fill(space, coeffs)
        return out

    def _like(self, coeffs: dict[tuple, Exact]) -> "LinearClass":
        """A class on this space from trusted coefficients (see ``_of``)."""
        return self._of(self._where(), coeffs)

    def _where(self) -> tuple:
        return tuple(getattr(self, field) for field in self._space)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- algebra ---------------------------------------------------------

    def _check_same_space(self, other: "LinearClass") -> None:
        if type(other) is not type(self) or other._where() != self._where():
            raise JacstabError("BAD_INPUT", f"{type(self).__name__} operands live on different spaces")

    def _combine(self, other: "LinearClass", sign: int) -> "LinearClass":
        self._check_same_space(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            c = out.get(key, 0) + sign * c
            if c:
                out[key] = c
            else:
                out.pop(key, None)
        return self._like(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c: Exact) -> "LinearClass":
        c = exact(c, "scale factor")
        return self._like({key: c * v for key, v in self.coeffs.items()} if c else {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (type(other) is type(self) and other._where() == self._where()
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self._where(), frozenset(self.coeffs.items())))

    # -- presentation ----------------------------------------------------

    def _sorted_keys(self) -> list[tuple]:
        return sorted(self.coeffs, key=self._order)

    def _symbol(self, key: tuple) -> str:
        return self._TAGS[key[0]][2](*key[1:])

    def _printed(self) -> list[tuple[str, Exact]]:
        """(symbol, coefficient) per term, in printed order."""
        return [(self._symbol(key), self.coeffs[key]) for key in self._sorted_keys()]

    def text(self) -> str:
        parts = []
        for sym, c in self._printed():
            piece = sym if c == 1 else (f"-{sym}" if c == -1 else f"{c}*{sym}")
            if not parts:
                parts.append(piece)
            elif piece.startswith("-"):
                parts.append(f"- {piece[1:]}")
            else:
                parts.append(f"+ {piece}")
        return " ".join(parts) if parts else "0"

    def __repr__(self):
        space = ", ".join(f"{field}={value}" for field, value in zip(self._space, self._where()))
        return f"{type(self).__name__}({space}: {self.text()})"


def _check_gn(g: int, n: int) -> None:
    g, n = strict_int(g, "g"), strict_int(n, "n")
    if g < 1 or n < 1 or 2 * g - 2 + n <= 0:
        raise JacstabError("BAD_INPUT", f"divisor classes need g >= 1, n >= 1, 2g-2+n > 0 (got g={g}, n={n})")


def is_valid_index(g: int, n: int, h: int, A: Iterable[int]) -> bool:
    """Whether (h, A) names a boundary divisor in the working range.

    The bound 2 <= h+|A| <= g+n-2 is symmetric under (h,A) -> (g-h,A^c), so it
    can be tested on either representative.
    """
    size = h + len(A if type(A) is tuple else tuple(A))
    return 2 <= size <= g + n - 2


def _joined(A: Legs) -> str:
    return ",".join(map(str, A))


def _legs(A: Iterable[int]) -> Legs:
    """Sorted distinct markings, each an ``int``."""
    if type(A) is not tuple and not isinstance(A, Iterable):  # tuples skip the slow ABC check
        raise JacstabError("BAD_INPUT", f"legs must be a collection of markings, got {A!r}")
    return tuple(sorted({strict_int(i, "leg") for i in A}))


def canonical_pair(g: int, n: int, h: int, A: Iterable[int]) -> tuple[int, Legs]:
    """Canonical representative of a boundary index under complementation."""
    g, n, h, legs = strict_int(g, "g"), strict_int(n, "n"), strict_int(h, "h"), _legs(A)
    _check_range(g, n, h, legs)
    return _fold(g, n, h, legs)


def _check_range(g: int, n: int, h: int, legs: Legs) -> None:
    """INVALID_INDEX unless every leg lies in 1..n and h in 0..g."""
    if any(i < 1 or i > n for i in legs):
        raise JacstabError("INVALID_INDEX", f"legs {legs} not within 1..{n}")
    if not 0 <= h <= g:
        raise JacstabError("INVALID_INDEX", f"h = {h} outside 0..{g}")


def _fold(g: int, n: int, h: int, legs: Legs) -> tuple[int, Legs]:
    """``canonical_pair`` for legs already sorted, distinct, integer and in range."""
    if 2 * h > g or (2 * h == g and 1 not in legs):
        return g - h, tuple(i for i in range(1, n + 1) if i not in legs)
    return h, legs


def canonical_indices(g: int, n: int) -> list[tuple[int, Legs]]:
    """All valid canonical boundary indices, sorted by (h, lex A); valid by construction."""
    _check_gn(g, n)
    return list(_canonical_indices(g, n))


@cache
def _canonical_indices(g: int, n: int) -> tuple[tuple[int, Legs], ...]:
    """``canonical_indices`` built once per (g, n), for callers that checked (g, n)."""
    out = []
    for h in range(0, g // 2 + 1):
        half = 2 * h == g  # then A is (1,) and r - 1 of the markings 2..n
        for r in range(max(half, 2 - h), min(n, g + n - 2 - h) + 1):  # 2 <= h + r <= g + n - 2
            out += [(h, (1,) * half + A) for A in combinations(range(1 + half, n + 1), r - half)]
    return tuple(sorted(out))


class DivisorClass(LinearClass):
    """Rational combination of psi_i, lambda1, kappa1t, delta_irr and delta_{h,A}."""

    __slots__ = ("g", "n")
    _space = ("g", "n")
    _TAGS = {
        "psi": (0, "i", lambda i: f"psi_{i}"),
        "lambda1": (1, "", lambda: "lambda1"),
        "kappa1t": (2, "", lambda: "kappa1t"),
        "delta_irr": (3, "", lambda: "delta_irr"),
        "delta": (4, "hA", lambda h, A: f"delta_{{{h},{{{_joined(A)}}}}}"),
    }

    def __init__(self, g: int, n: int, psi=None, lambda1=0, kappa1t=0, delta_irr=0, delta=None):
        """By family; ``delta`` maps any representative (h, A) to its coefficient.

        The terms go through ``canonicalize``, so they are checked and folded
        the way every other class is.
        """
        terms = [("psi", i, c) for i, c in (psi or {}).items()]
        terms += [("lambda1", lambda1), ("kappa1t", kappa1t), ("delta_irr", delta_irr)]
        terms += [("delta", h, A, c) for (h, A), c in (delta or {}).items()]
        self._fill((g, n), canonicalize(g, n, terms).coeffs)

    # read-only views of ``coeffs`` by family
    psi = property(lambda self: {k[1]: c for k, c in self.coeffs.items() if k[0] == "psi"})
    delta = property(lambda self: {k[1:]: c for k, c in self.coeffs.items() if k[0] == "delta"})
    lambda1 = property(lambda self: self.coeffs.get(("lambda1",), 0))
    kappa1t = property(lambda self: self.coeffs.get(("kappa1t",), 0))
    delta_irr = property(lambda self: self.coeffs.get(("delta_irr",), 0))

    def _order(self, key: tuple) -> tuple:
        return self._TAGS[key[0]][0], key[1:]

    def to_json_dict(self) -> dict:
        keys = self._sorted_keys()
        return {
            "psi": {str(k[1]): str(self.coeffs[k]) for k in keys if k[0] == "psi"},
            "lambda1": str(self.lambda1),
            "kappa1t": str(self.kappa1t),
            "delta_irr": str(self.delta_irr),
            "delta": [{"h": k[1], "A": list(k[2]), "c": str(self.coeffs[k])}
                      for k in keys if k[0] == "delta"],
        }


def canonicalize(g: int, n: int, terms: Iterable[tuple]) -> DivisorClass:
    """Build a class from raw terms, applying the psi conventions and folding.

    Terms are tagged tuples: ("psi", i, c), ("lambda1", c), ("kappa1t", c),
    ("delta_irr", c), ("delta", h, A, c); without its coefficient a term is
    its key in ``DivisorClass.coeffs``.  Boundary entries may use any
    representative, including the psi conventions (0,{i}) and (g,[n]-{i}).
    A psi index, leg or h out of range is rejected whatever its coefficient, as
    is a term of unknown tag or length; a boundary index outside the valid
    range, only if its coefficient is non-zero once equal keys are summed.
    Each term is checked here, then ``_fold_checked`` folds them all.
    """
    _check_gn(g, n)
    checked: list[tuple[tuple, Exact]] = []
    tags = DivisorClass._TAGS
    for term in terms:
        tag = term[0] if type(term) in (tuple, list) and term else None
        row = tags.get(tag) if type(tag) is str else None
        if row is None or len(term) != len(row[1]) + 2:
            raise JacstabError("BAD_INPUT", f"malformed term {term!r}")
        if tag == "psi":
            _, i, c = term
            key = ("psi", strict_int(i, "psi index"))
            if not 1 <= key[1] <= n:
                raise JacstabError("BAD_INPUT", "psi index outside 1..n")
        elif tag == "delta":
            _, h, A, c = term
            key = ("delta", strict_int(h, "h"), _legs(A))
            _check_range(g, n, key[1], key[2])
        else:
            key, c = (tag,), term[1]
        checked.append((key, exact(c)))
    return _fold_checked(g, n, checked)


def _fold_checked(g: int, n: int, terms: Collection[tuple[tuple, Exact]]) -> DivisorClass:
    """The class of checked (key, coefficient) terms: each head is a key of
    ``DivisorClass``, boundary legs sorted and in range, h in 0..g, and each
    coefficient exact.  Folds every boundary term, reads a folded (0,{i}) as
    -psi_i, sums equal keys, drops zeros and refuses a non-zero boundary index
    outside the valid range.  ``canonicalize`` and the pushes end here.
    """
    stats.COUNTS["divisors.fold_terms"] += len(terms)
    coeffs: dict[tuple, Exact] = {}
    for key, c in terms:
        if key[0] == "delta":
            h, A = _fold(g, n, key[1], key[2])
            if h == 0 and len(A) == 1:  # for g >= 1, (g, [n] - {i}) folds here too
                key, c = ("psi", A[0]), -c
            elif A is not key[2]:  # _fold returns the very legs it was given unless it flips
                key = ("delta", h, A)
        coeffs[key] = coeffs[key] + c if key in coeffs else c
    coeffs = {key: c for key, c in coeffs.items() if c}
    for key in coeffs:
        if key[0] == "delta" and not 2 <= key[1] + len(key[2]) <= g + n - 2:  # is_valid_index, inlined
            A = key[2]
            raise JacstabError("INVALID_INDEX",
                               f"({key[1]},{set(A) if A else '{}'}) is not a boundary divisor for g={g}, n={n}")
    return DivisorClass._of((g, n), coeffs)


# ----------------------------------------------------------------------
# closed-form pullback classes

def _check_tau_theta(g: int, n: int, tau: Sequence[int], k: int) -> list[int]:
    _check_gn(g, n)
    t = check_tau(g, tau, k, n)
    if k == 0 and not any(t):
        raise JacstabError("TAU_SUM", "tau must be non-zero when k = 0")
    return t


def _check_tau_gm1(g: int, n: int, tau: Sequence[int]) -> list[int]:
    _check_gn(g, n)
    return check_twist(tau, n, lambda: ("g-1", g - 1))


def theta_pullback_hain(g: int, n: int, tau: Sequence[int]) -> DivisorClass:
    """Compact-type theta pullback (the k = 0 case), by exhaustive enumeration.

    Sums -(1/4)(sum of tau over A)^2 over all ordered pairs (h, A) with
    1 <= h+|A| <= g+n-1, then canonicalizes: complementary pairs merge and the
    psi conventions apply.
    """
    t = _check_tau_theta(g, n, tau, 0)
    terms = []
    for h in range(0, g + 1):
        for r in range(max(0, 1 - h), min(n, g + n - 1 - h) + 1):  # 1 <= h + r <= g + n - 1
            for A in combinations(range(1, n + 1), r):
                s = sum(t[i - 1] for i in A)
                if s:
                    terms.append(("delta", h, A, Fraction(-s * s, 4)))
    return canonicalize(g, n, terms)


def _closed(cls, g: int, n: int, t: list[int], head: dict[tuple, Exact], tag: str, boundary):
    """Non-zero ``head`` terms plus ``boundary(h, A, s)`` on each (tag, h, A), built by the
    trusted ``cls._of``: (h, A) is canonical and valid, s the sum of t over A."""
    coeffs = {key: c for key, c in head.items() if c}
    leg = [0, *t].__getitem__  # leg(i) = t[i - 1]
    for (h, A) in _canonical_indices(g, n):
        c = boundary(h, A, sum(map(leg, A)))
        if c:
            coeffs[(tag, h, A)] = c
    return cls._of((g, n), coeffs)


def theta_pullback(g: int, n: int, tau: Sequence[int], k: int) -> DivisorClass:
    """Closed-form theta pullback for twist data (tau, k).

    One boundary term per canonical divisor class; at 2h = g the summand is
    counted once, not once per representative.
    """
    t = _check_tau_theta(g, n, tau, k)
    head = {("psi", i): _half(ti * ti) + k * ti for i, ti in enumerate(t, start=1)}
    head[("kappa1t",)] = _half(-k * k)
    coeff = cache(lambda h, s: _half(-(k * (1 - 2 * h) + s) ** 2))  # few distinct (h, s)
    return _closed(DivisorClass, g, n, t, head, "delta", lambda h, A, s: coeff(h, s))


def theta_gm1_pullback(g: int, n: int, tau: Sequence[int]) -> DivisorClass:
    """Degree g-1 theta pullback for a total-degree g-1 twist vector."""
    t = _check_tau_gm1(g, n, tau)
    head = {("psi", i): _half(ti * (ti + 1)) for i, ti in enumerate(t, start=1)} | {("lambda1",): -1}
    coeff = cache(lambda h, s: _half(-(s - h) * (s - h + 1)))
    return _closed(DivisorClass, g, n, t, head, "delta", lambda h, A, s: coeff(h, s))


def mueller_correction(g: int, n: int, tau: Sequence[int],
                       include_empty: bool = True) -> dict[tuple[int, Legs], int]:
    """Multiplicity correction terms for the effective-locus class.

    Enumerates pairs (h, A) with 0 <= 2h <= g in the valid range such that
    every tau_i with i in A is positive and h >= sum of tau over A; each
    contributes multiplicity h - that sum.  ``include_empty`` controls whether
    A = empty set qualifies (its positivity condition is vacuous).
    """
    t = _check_tau_gm1(g, n, tau)
    positive = [i for i, ti in enumerate(t, start=1) if ti > 0]
    out: dict[tuple[int, Legs], int] = {}
    for h in range(0, g // 2 + 1):
        # 2 <= h + |A| <= g + n - 2, and |A| <= sum of tau over A < h
        for r in range(max(int(not include_empty), 2 - h), min(len(positive), g + n - 2 - h, h - 1) + 1):
            for A in combinations(positive, r):
                s = sum(t[i - 1] for i in A)
                if s < h:
                    key = _fold(g, n, h, A)  # A is sorted, distinct and in range
                    out[key] = out.get(key, 0) + h - s
    return out


def mueller_class(g: int, n: int, tau: Sequence[int],
                  include_empty: bool = True) -> DivisorClass:
    """Class of the closure of the effective-bundle locus in degree g-1.

    The degree g-1 theta pullback minus the multiplicity corrections along the
    boundary components where the restricted bundle stays effective.  Requires
    at least one negative twist entry.
    """
    t = _check_tau_gm1(g, n, tau)
    if not any(x < 0 for x in t):
        raise JacstabError("NO_NEGATIVE_ENTRY", "at least one tau entry must be negative")
    base = theta_gm1_pullback(g, n, t)
    corr = mueller_correction(g, n, t, include_empty=include_empty)
    return base - DivisorClass._of((g, n), {("delta", *hA): c for hA, c in corr.items()})
