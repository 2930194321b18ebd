import hashlib
import importlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from jacstab import stats
from jacstab import (DivisorClass, DualGraph, FiberClass, JacstabError,
                     Polarization, QSTABLE, check_stability, enumerate_stable,
                     pushforward, c1_twisted_bundle, theta_via_pushforward,
                     c1_gm1_bundle, theta_gm1_via_pushforward,
                     theta_pullback, theta_gm1_pullback,
                     compact_type_gm1_multidegree, exp_truncate)
from jacstab.divisors import (_closed, _fold_checked, canonical_indices, canonicalize,
                              is_valid_index)
from jacstab.pushforward import PUSH_RULES, GradedAtomPoly, push_product
from jacstab.oracles import exp_series_degree_part, fiber_product_pairwise
from jacstab.corpus import random_tau, random_treelike_graph
from common import banana, two_vertex_tree, path3


# ----------------------------------------------------------------------
# fiber classes and the rewrite rules

def test_c1_twisted_example_k0():
    fc = c1_twisted_bundle(2, 2, [1, -1], 0)
    assert fc.coeffs == {("D", 1): 1, ("D", 2): -1, ("B", 1, (1,)): 1}


def test_c1_twisted_example_k1():
    fc = c1_twisted_bundle(2, 2, [2, 0], 1)
    assert fc.coeffs == {("D", 1): 2, ("K",): -1,
                         ("B", 0, (1, 2)): 3, ("B", 1, (1,)): 1}


def test_c1_twisted_rejects_zero_tau_k0():
    with pytest.raises(JacstabError) as err:
        c1_twisted_bundle(2, 2, [0, 0], 0)
    assert err.value.code == "TAU_SUM"


def test_disjoint_sections_multiply_to_zero():
    D1 = FiberClass.section(2, 2, 1)
    D2 = FiberClass.section(2, 2, 2)
    assert (D1 * D2).coeffs == {}
    assert (D1 * D1).coeffs == {("D2", 1): 1}


def test_kd_rewrite():
    D1 = FiberClass.section(2, 2, 1)
    K = FiberClass.canonical(2, 2)
    assert (K * D1).coeffs == {("D2", 1): -1}
    # every product is in normal form, so == is equality of the classes
    assert K.mul_raw(D1) == (D1 * D1).scale(-1)
    # so K*D_1 pushes forward to +psi_1
    assert pushforward(K * D1) == DivisorClass(2, 2, psi={1: Fraction(1)})


def test_distinct_boundaries_multiply_to_zero():
    Ba = FiberClass.boundary(2, 2, 1, [1])
    Bb = FiberClass.boundary(2, 2, 0, [1, 2])
    assert (Ba * Bb).coeffs == {}


def test_push_rules_worked_examples():
    D1 = FiberClass.section(2, 2, 1)
    D2 = FiberClass.section(2, 2, 2)
    B = FiberClass.boundary(2, 2, 1, [1])
    K = FiberClass.canonical(2, 2)
    assert pushforward(D1 * B) == DivisorClass(2, 2, delta={(1, (1,)): Fraction(1)})
    assert pushforward(D2 * B).is_zero()          # 2 is not in A = {1}
    assert pushforward(B * B) == DivisorClass(2, 2, delta={(1, (1,)): Fraction(-1)})
    assert pushforward(K * B) == DivisorClass(2, 2, delta={(1, (1,)): Fraction(1)})
    assert pushforward(K * K) == DivisorClass(2, 2, kappa1t=Fraction(1))
    assert pushforward(D1 * D1) == DivisorClass(2, 2, psi={1: Fraction(-1)})


def test_pushforward_kills_low_degree_terms():
    fc = (FiberClass.section(3, 2, 1).scale(5)
          + FiberClass.canonical(3, 2)
          + FiberClass.boundary(3, 2, 1, [2])
          + FiberClass(3, 2, {("const",): Fraction(7)}))
    assert pushforward(fc).is_zero()


def test_pushforward_linear():
    a = c1_twisted_bundle(2, 2, [2, 0], 1)
    b = c1_twisted_bundle(2, 2, [1, -1], 0)
    lhs = pushforward((a + b) * (a + b))
    rhs = (pushforward(a * a) + pushforward(a * b).scale(2) + pushforward(b * b))
    assert lhs == rhs


def test_kd_normalization_confluence():
    # rewriting K*D inside each monomial product gives the product of the sums
    a = c1_twisted_bundle(4, 3, [3, 1, 2], 1) + FiberClass.canonical(4, 3).scale(2)
    b = c1_gm1_bundle(4, 3, [5, -1, -1]) + FiberClass.canonical(4, 3)
    pieces = FiberClass.zero(4, 3)
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            term = (FiberClass(4, 3, {k1: c1}) * FiberClass(4, 3, {k2: c2}))
            pieces = pieces + term
    assert pieces == a * b


def test_degree_two_class_times_section_is_rejected():
    D1 = FiberClass.section(2, 2, 1)
    square = D1 * D1
    for a, b in ((square, D1), (D1, square)):
        with pytest.raises(JacstabError) as err:
            a.mul_raw(b)
        assert err.value.code == "BAD_INPUT"
        assert "degrees up to 2" in str(err.value)


QUADRATIC_TAGS = {"D2", "K2", "B2", "KB", "DB"}


def random_fiber_class(rng: random.Random, g: int, n: int, indices=None) -> FiberClass:
    """A constant plus either degree-1 monomials, degree-2 ones, both or none,
    on the boundary ``indices`` (by default the canonical ones)."""
    indices = canonical_indices(g, n) if indices is None else indices
    linear = ([("D", i) for i in range(1, n + 1)] + [("K",)]
              + [("B", h, A) for h, A in indices])
    quadratic = ([("D2", i) for i in range(1, n + 1)] + [("K2",)] + [("B2", h, A) for h, A in indices]
                 + [("KB", h, A) for h, A in indices]
                 + [("DB", i, h, A) for i in range(1, n + 1) for h, A in indices])
    pools = rng.choice([[linear], [linear], [linear], [quadratic], [linear, quadratic], []])
    keys = [("const",)] if rng.random() < 0.5 else []
    for pool in pools:
        keys += rng.sample(pool, rng.randint(1, min(len(pool), 12)))
    return FiberClass(g, n, {key: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             for key in keys})


def test_mul_raw_matches_pairwise_reference():
    rng = random.Random(61)
    seen = Counter()
    for g, n in ((1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (5, 4)):
        for _ in range(80):
            a, b = random_fiber_class(rng, g, n), random_fiber_class(rng, g, n)
            try:
                want = fiber_product_pairwise(a, b)
            except JacstabError as exc:
                with pytest.raises(JacstabError) as err:
                    a.mul_raw(b)
                assert (err.value.code, str(err.value)) == (exc.code, str(exc))
                seen["error"] += 1
                continue
            got = a.mul_raw(b)
            assert got.coeffs == want.coeffs
            assert all(type(c) is Fraction for c in got.coeffs.values())
            seen["const"] += ("const",) in a.coeffs or ("const",) in b.coeffs
            seen["degree 2 input"] += any(key[0] in QUADRATIC_TAGS
                                          for key in (*a.coeffs, *b.coeffs))
            # a D_i of one factor against a B_{h,A} of the other, on both sides of the rule
            legs = [(d[1], x[2]) for f, f2 in ((a, b), (b, a)) for d in f.coeffs if d[0] == "D"
                    for x in f2.coeffs if x[0] == "B"]
            seen["D*B, i in A"] += any(i in A for i, A in legs)
            seen["D*B, i not in A"] += any(i not in A for i, A in legs)
    assert seen["error"] >= 100 and seen["const"] >= 100 and seen["degree 2 input"] >= 30, seen
    assert seen["D*B, i in A"] >= 30 and seen["D*B, i not in A"] >= 30, seen


def every_representative(g: int, n: int) -> list:
    """Both representatives of each valid boundary index, and the psi shapes
    (0,{i}) and (g,[n]-{i})."""
    return [(h, A) for h in range(g + 1) for r in range(n + 1)
            for A in combinations(range(1, n + 1), r)
            if is_valid_index(g, n, h, A) or (h, r) in ((0, 1), (g, n - 1))]


def test_push_product_matches_two_routes():
    rng = random.Random(62)
    seen = Counter()
    for g, n in ((1, 1), (1, 3), (2, 2), (3, 3), (4, 2), (5, 4)):
        indices = every_representative(g, n)
        for _ in range(80):
            a = random_fiber_class(rng, g, n, indices)
            if rng.random() < 0.2:  # a bare constant, against any class
                b = FiberClass(g, n, {("const",): Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))})
            else:
                b = random_fiber_class(rng, g, n, indices)
            if rng.random() < 0.5:
                a, b = b, a
            draw = rng.random()
            if draw < 0.15:  # one object on both sides: the split is taken once
                b = a
            elif draw < 0.3:  # no key of a in b: every index is paired from one side
                b = FiberClass(g, n, {key: c for key, c in b.coeffs.items() if key not in a.coeffs})
            try:
                want = pushforward(a.mul_raw(b))
            except JacstabError as exc:
                for route in (lambda: push_product(a, b), lambda: fiber_product_pairwise(a, b)):
                    with pytest.raises(JacstabError) as err:
                        route()
                    assert (err.value.code, str(err.value)) == (exc.code, str(exc))
                seen["refused"] += 1
                continue
            got = push_product(a, b)
            assert got.coeffs == want.coeffs == pushforward(fiber_product_pairwise(a, b)).coeffs
            # a route through no library walk: the rule rows applied term by term
            # to the pairwise product, folded by canonicalize
            terms = [(*head, c * factor) for key, c in fiber_product_pairwise(a, b).coeffs.items()
                     if key[0] in PUSH_RULES for head, factor in [PUSH_RULES[key[0]](*key[1:])]]
            assert got.coeffs == canonicalize(g, n, terms).coeffs
            seen["non-zero"] += not got.is_zero()
            keys = [*a.coeffs, *b.coeffs]
            seen["const"] += ("const",) in keys
            seen["Fraction"] += any(type(c) is Fraction for f in (a, b) for c in f.coeffs.values())
            seen["degree 2 against a constant"] += any(
                f.coeffs and set(f.coeffs) <= {("const",)} and any(key[0] in QUADRATIC_TAGS for key in f2.coeffs)
                for f, f2 in ((a, b), (b, a)))
            linear = [{key for key in f.coeffs if key[0] in ("D", "B")} for f in (a, b)]
            seen["a * a"] += b is a and bool(linear[0])
            seen["D, B keys disjoint"] += all(linear) and not linear[0] & linear[1]
            # keys of a, then keys only in b: the pairing walks a's order, then b's
            seen["D, B keys interleaved"] += bool(linear[0] & linear[1] and linear[1] - linear[0])
            boundary = {key[1:] for key in keys if key[0] == "B"}
            seen["both representatives"] += any(
                (g - h, tuple(i for i in range(1, n + 1) if i not in A)) in boundary for h, A in boundary)
            seen["B_{0,{i}}"] += any(h == 0 and len(A) == 1 for h, A in boundary)
            legs = [(d[1], x[2]) for f, f2 in ((a, b), (b, a)) for d in f.coeffs if d[0] == "D"
                    for x in f2.coeffs if x[0] == "B"]
            seen["D*B, i not in A"] += any(i not in A for i, A in legs)
    assert seen["refused"] >= 100 and seen["non-zero"] >= 100, seen
    assert min(seen[case] for case in ("const", "Fraction", "degree 2 against a constant",
                                       "both representatives", "B_{0,{i}}", "D*B, i not in A",
                                       "a * a", "D, B keys disjoint", "D, B keys interleaved")) >= 20, seen


def test_push_product_refuses_what_mul_raw_refuses():
    D1 = FiberClass.section(2, 2, 1)
    square = D1 * D1
    for a, b in ((square, D1), (D1, square), (square, square), (D1, FiberClass.section(2, 3, 1))):
        with pytest.raises(JacstabError) as want:
            a.mul_raw(b)
        with pytest.raises(JacstabError) as got:
            push_product(a, b)
        assert (got.value.code, str(got.value)) == (want.value.code, str(want.value))
        assert got.value.code == "BAD_INPUT"


def test_fiber_constructor_sorts_legs_and_adds_equal_keys():
    unsorted = FiberClass(2, 2, {("B", 1, (2, 1)): 1})
    assert unsorted == FiberClass.boundary(2, 2, 1, (1, 2))
    assert (unsorted + FiberClass.boundary(2, 2, 1, (1, 2))).text() == "2*B_{1,{1,2}}"
    both = FiberClass(2, 2, {("DB", 1, 1, (2, 1)): 1, ("DB", 1, 1, (1, 2)): 2})
    assert both.coeffs == {("DB", 1, 1, (1, 2)): 3}


def test_fiber_text_and_json_of_every_tag():
    # by degree, then by symbol text: D_10 sorts before D_2, B_{0,{}} before D
    fc = FiberClass(3, 12, {("const",): 2, ("D", 10): -1, ("D", 2): 1, ("K",): Fraction(1, 2),
                            ("B", 0, ()): 3, ("D2", 12): 1, ("K2",): -2,
                            ("B2", 1, (11, 2)): Fraction(-3, 4), ("DB", 10, 2, (12, 10)): 5,
                            ("KB", 1, ()): -1})
    assert fc.text() == ("2*1 + 3*B_{0,{}} - D_10 + D_2 + 1/2*K - 3/4*B_{1,{2,11}}^2"
                         " + 5*D_10*B_{2,{10,12}} + D_12^2 - K*B_{1,{}} - 2*K^2")
    assert fc.to_json_dict() == {"terms": [
        {"monomial": "1", "c": "2"}, {"monomial": "B_{0,{}}", "c": "3"},
        {"monomial": "D_10", "c": "-1"}, {"monomial": "D_2", "c": "1"},
        {"monomial": "K", "c": "1/2"}, {"monomial": "B_{1,{2,11}}^2", "c": "-3/4"},
        {"monomial": "D_10*B_{2,{10,12}}", "c": "5"}, {"monomial": "D_12^2", "c": "1"},
        {"monomial": "K*B_{1,{}}", "c": "-1"}, {"monomial": "K^2", "c": "-2"}]}


def test_product_term_order_at_n_12():
    c1 = c1_twisted_bundle(1, 12, [1, -1] * 6, 0)
    square = c1 * c1
    symbols = [term["monomial"] for term in square.to_json_dict()["terms"]]
    assert len(symbols) == 22192
    assert symbols[:4] == ["B_{0,{1,10,11}}^2", "B_{0,{1,10,12}}^2", "B_{0,{1,11,12}}^2",
                           "B_{0,{1,11}}^2"]
    assert symbols[-3:] == ["D_9*B_{0,{9,11,12}}", "D_9*B_{0,{9,11}}", "D_9^2"]
    assert (hashlib.sha256(square.text().encode()).hexdigest()
            == "deb1665cc698e748f2d321640574676296768a86026e251f98f93ad81f323d8d")
    # the product lacks exactly the D_i*B_{h,A} of c1's D_i and B_{h,A} with i not in
    # A: the 18,900 terms by which the 41,092 of the product before that rule entered
    # it exceed its 22,192; each of them, built by hand, is zero
    tau = {key[1]: c for key, c in c1.coeffs.items() if key[0] == "D"}
    boundary = {key[1:]: c for key, c in c1.coeffs.items() if key[0] == "B"}
    pairs = {("DB", i, h, A) for h, A in boundary for i in tau}
    off = {key for key in pairs if key[1] not in key[3]}
    assert len(off) == 41092 - len(square.coeffs) == 18900
    assert {key for key in square.coeffs if key[0] == "DB"} == pairs - off
    assert all(FiberClass(1, 12, {key: 1}) == FiberClass.zero(1, 12) for key in off)
    # so adding them back, with the 2 tau_i b_{h,A} they had, leaves the product
    dropped = FiberClass(1, 12, {(tag, i, h, A): 2 * tau[i] * boundary[h, A]
                                 for tag, i, h, A in off})
    assert dropped.is_zero() and square + dropped == square


@pytest.mark.parametrize("key", [
    ("D", 99), ("D", 0), ("D2",), ("K", 1), ("B", 1), ("B", 3, (1,)), ("B", 1, (5,)),
    ("DB", 1, 1), ("DB", 3, 1, (1,)), ("KD", 1.0), ("Q", 1), (), "D", ("KD", 1),
    ("B", 1, 5), ("DB", 1, 1, 5)])
def test_fiber_constructor_rejects_malformed_monomials(key):
    with pytest.raises(JacstabError) as err:
        FiberClass(2, 2, {key: 1})
    assert err.value.code == "BAD_INPUT"


def test_fiber_symbols_render_once_per_printout(monkeypatch):
    c1 = c1_twisted_bundle(2, 4, [2, -1, 2, -1], 1)
    square = c1 * c1
    calls = Counter()

    def counted(tag, render):
        def wrapper(*indices):
            calls[(tag, *indices)] += 1
            return render(*indices)
        return wrapper

    monkeypatch.setattr(FiberClass, "_TAGS", {tag: (rank, kinds, counted(tag, render))
                                              for tag, (rank, kinds, render) in FiberClass._TAGS.items()})
    for cls in (c1, square):
        for printout in (cls.text, cls.to_json_dict):
            calls.clear()
            printout()
            assert calls == Counter(cls.coeffs.keys()), printout


def test_section_boundary_product_is_zero_off_its_side():
    # D_i * B_{h,A} = 0 for i not in A is applied by the product itself
    off = FiberClass.section(2, 2, 2) * FiberClass.boundary(2, 2, 1, (1,))
    assert off == FiberClass.zero(2, 2) and off.text() == "0"
    assert pushforward(off).is_zero()
    # and by the constructor, so a class built by hand is in normal form too
    by_hand = FiberClass(2, 2, {("DB", 2, 1, (1,)): 1})
    assert by_hand == FiberClass.zero(2, 2) and by_hand.text() == "0"
    assert pushforward(by_hand).is_zero()
    on = FiberClass.section(2, 2, 1) * FiberClass.boundary(2, 2, 1, (1,))
    assert on.text() == "D_1*B_{1,{1}}"
    assert pushforward(on) == DivisorClass(2, 2, delta={(1, (1,)): 1})
    assert FiberClass(2, 2, {("DB", 2, 1, (1,)): 3, ("DB", 1, 1, (1,)): 1}) == on


def test_sign_relations_of_the_derivation():
    # c1 is linear in (tau, k), so c1(-tau, -k) = -c1(tau, k), its square is unchanged and
    # theta(-tau, -k) = theta(tau, k).  These hold for any bilinear product, so the derived
    # class at (-tau, -k) is also compared with the closed form at (tau, k), which a product
    # that formed the wrong D_i*B_{h,A} would miss.
    rng = random.Random(13)
    cases = 0
    for _ in range(60):
        g, n, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(-2, 2)
        tau = random_tau(rng, n, k * (2 * g - 2))
        if tau is None or not (k or any(tau)):
            continue
        neg = [-x for x in tau]
        c1, c1_neg = c1_twisted_bundle(g, n, tau, k), c1_twisted_bundle(g, n, neg, -k)
        assert c1_neg == c1.scale(-1)
        assert c1_neg.mul_raw(c1_neg) == c1.mul_raw(c1)
        derived = theta_via_pushforward(g, n, neg, -k)
        assert derived == theta_via_pushforward(g, n, tau, k) == theta_pullback(g, n, tau, k)
        cases += 1
    assert cases >= 40, cases


def test_graded_keys_that_sort_equal_add():
    poly = GradedAtomPoly(3, {((1, 1), (2, 1)): 1, ((2, 1), (1, 1)): 1})
    assert poly.terms == {((1, 1), (2, 1)): Fraction(2)}
    assert GradedAtomPoly(3, {((1, 1), (2, 1)): 1, ((2, 1), (1, 1)): -1}).is_zero()


# The three LinearClass kinds, each as (a, b, a class on another space).
LINEAR_CASES = {
    "divisor": lambda: (theta_gm1_pullback(2, 2, [3, -2]), theta_pullback(2, 2, [1, -1], 0),
                        DivisorClass(3, 2, lambda1=1)),
    "fiber": lambda: (c1_twisted_bundle(2, 2, [2, 0], 1), FiberClass.canonical(2, 2),
                      FiberClass.canonical(2, 3)),
    "graded": lambda: (exp_truncate(3), GradedAtomPoly(3, {((3, 1),): 2, ((1, 1), (2, 1)): 1}),
                       exp_truncate(2)),
}


@pytest.mark.parametrize("kind", sorted(LINEAR_CASES))
def test_shared_linear_algebra(kind):
    a, b, elsewhere = LINEAR_CASES[kind]()
    again = LINEAR_CASES[kind]()[0]
    assert a + b - b == a
    assert a.scale(0).is_zero() and not a.is_zero()
    assert again is not a and again == a and hash(again) == hash(a)
    assert hash(a + b - b) == hash(a)
    with pytest.raises(JacstabError) as exc:
        a + elsewhere
    assert exc.value.code == "BAD_INPUT"
    with pytest.raises(AttributeError):
        a.coeffs = {}
    with pytest.raises(AttributeError):
        a.g = 5
    assert a.scale(0).text() == "0"


def test_each_derivation_multiplies_and_pushes_once(monkeypatch):
    # Each derivation builds its c1 once and makes one fused push of c1*c1'
    # without forming it: the rules see exactly the product's terms, and the
    # fold gets each pushed head once (degree g-1's lambda1 adds the three
    # terms ``DivisorClass(g, n, lambda1=-1)`` hands canonicalize).
    c1, c1_gm1 = c1_twisted_bundle(3, 3, [2, -1, -1], 0), c1_gm1_bundle(3, 3, [2, 1, -1])
    cases = [(lambda: theta_via_pushforward(3, 3, [2, -1, -1], 0), c1, c1 * c1, 0),
             (lambda: theta_gm1_via_pushforward(3, 3, [2, 1, -1]), c1_gm1,
              c1_gm1 * (c1_gm1 - FiberClass.canonical(3, 3)), 3)]
    pushed = [pushforward(product) for _, _, product, _ in cases]

    def no_product(*args):
        raise AssertionError("a derivation formed a product")

    monkeypatch.setattr(FiberClass, "mul_raw", no_product)
    monkeypatch.setattr(FiberClass, "__mul__", no_product)
    names = ("pushforward.c1_terms", "pushforward.pushed_terms", "divisors.fold_terms")
    for (derive, c1, product, extra), push in zip(cases, pushed):
        before = {name: stats.COUNTS[name] for name in names}
        derive()
        counts = [stats.COUNTS[name] - before[name] for name in names]
        assert counts == [len(c1.coeffs), len(product.coeffs), len(push.coeffs) + extra]


def test_derived_classes_hold_their_delta_keys_in_printed_order():
    # The push walks c1's own canonical (h, lex A) order, so the fold, the
    # halving and the printed order's sort get the delta keys already sorted.
    for cls in (theta_via_pushforward(6, 7, [3, -1, 2, 0, 1, 4, 1], 1),
                theta_gm1_via_pushforward(8, 8, [3, 1, -1, 2, 0, 1, -1, 2])):
        keys = [key for key in cls.coeffs if key[0] == "delta"]
        assert len(keys) > 300 and keys == sorted(keys)


# The derivations' inputs: (g, n, tau, k) for theta, (g, n, tau) for degree g-1.
INTEGRAL_CASES = [((2, 2, [2, 0], 1), (2, 2, [3, -2])),
                  ((4, 3, [3, 1, 2], 1), (4, 3, [5, -1, -1])),
                  ((5, 4, [1, -3, 2, 0], 0), (5, 4, [2, 2, -1, 1]))]


@pytest.mark.parametrize("theta, gm1", INTEGRAL_CASES)
def test_derivations_multiply_and_push_on_ints(theta, gm1):
    c1 = c1_twisted_bundle(*theta)
    c1_gm1 = c1_gm1_bundle(*gm1)
    K = FiberClass.canonical(*gm1[:2])
    products = [c1 * c1, c1_gm1 * (c1_gm1 - K)]
    for cls in [c1, c1_gm1, *products, *map(pushforward, products)]:
        assert cls.coeffs and all(type(c) is int for c in cls.coeffs.values()), cls


@pytest.mark.parametrize("theta, gm1", INTEGRAL_CASES)
def test_pushforward_canonicalizes_one_term_per_key(monkeypatch, theta, gm1):
    module = importlib.import_module("jacstab.pushforward")
    seen = []

    def recording(g, n, terms):
        seen.append(list(terms))
        return _fold_checked(g, n, seen[-1])

    monkeypatch.setattr(module, "_fold_checked", recording)
    c1 = c1_twisted_bundle(*theta)
    c1_gm1 = c1_gm1_bundle(*gm1)
    K = FiberClass.canonical(*gm1[:2])
    for product in (c1 * c1, c1_gm1 * (c1_gm1 - K)):
        pushed = pushforward(product)
        terms = seen.pop()
        assert len(terms) == len({head for head, _ in terms}) == len(pushed.coeffs)
        assert len(terms) < len(product.coeffs)


# ----------------------------------------------------------------------
# derivations against the closed forms

def test_derive_theta_worked_example():
    cls = theta_via_pushforward(2, 2, [1, -1], 0)
    assert cls == DivisorClass(2, 2, psi={1: Fraction(1, 2), 2: Fraction(1, 2)},
                               delta={(1, (1,)): Fraction(-1, 2)})


def test_derive_theta_matches_closed_k1():
    assert theta_via_pushforward(2, 2, [2, 0], 1) == theta_pullback(2, 2, [2, 0], 1)


def test_derive_theta_k0_has_no_kappa():
    rng = random.Random(51)
    for _ in range(15):
        g = rng.randint(1, 4)
        n = rng.randint(1, 3)
        tau = random_tau(rng, n, 0, bound=4)
        if tau is None or not any(tau):
            continue
        assert theta_via_pushforward(g, n, tau, 0).kappa1t == 0


def test_derive_theta_grid():
    rng = random.Random(52)
    for g in range(1, 5):
        for n in range(1, 4):
            for k in (-1, 0, 1, 2):
                for _ in range(3):
                    tau = random_tau(rng, n, k * (2 * g - 2), bound=5)
                    if tau is None or (k == 0 and not any(tau)):
                        continue
                    assert theta_via_pushforward(g, n, tau, k) == theta_pullback(g, n, tau, k)


def test_derive_theta_gm1_worked_example():
    cls = theta_gm1_via_pushforward(2, 2, [3, -2])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(6), 2: Fraction(1)},
                               lambda1=Fraction(-1),
                               delta={(0, (1, 2)): Fraction(-1),
                                      (1, (1,)): Fraction(-3)})
    assert cls == theta_gm1_pullback(2, 2, [3, -2])


def test_derive_theta_gm1_psi_coefficients():
    # tau^2/2 from c1^2 plus tau/2 from c1*K combine to tau(tau+1)/2
    rng = random.Random(53)
    for _ in range(10):
        g = rng.randint(1, 5)
        n = rng.randint(1, 4)
        tau = random_tau(rng, n, g - 1, bound=5)
        if tau is None:
            continue
        cls = theta_gm1_via_pushforward(g, n, tau)
        for i, ti in enumerate(tau, start=1):
            assert cls.psi.get(i, Fraction(0)) == Fraction(ti * (ti + 1), 2)


def test_derive_theta_gm1_chi_convention_independent():
    rng = random.Random(54)
    cases = 0
    for _ in range(20):
        g = rng.randint(1, 5)
        n = rng.randint(1, 4)
        tau = random_tau(rng, n, g - 1, bound=5)
        if tau is None:
            continue
        # the library reads the indicator as "marking 1 is off A"; build the
        # "marking 1 is on A" reading here and push it the same way
        head = {("D", i): ti for i, ti in enumerate(tau, start=1)}
        c1 = _closed(FiberClass, g, n, tau, head, "B", lambda h, A, s: s - h + int(1 in A))
        member = pushforward(c1.mul_raw(c1 - FiberClass.canonical(g, n)))
        b = member.scale(Fraction(-1, 2)) + DivisorClass(g, n, lambda1=-1)
        assert theta_gm1_via_pushforward(g, n, tau) == b
        cases += 1
    assert cases >= 10


# ----------------------------------------------------------------------
# compact-type degree g-1 multidegree

def test_compact_type_rule_examples():
    g = two_vertex_tree(g1=1, g2=1)
    assert compact_type_gm1_multidegree(g) == {"v1": 1, "v2": 0}
    g = two_vertex_tree(g1=0, g2=2, legs1=(1, 2), legs2=(3,))
    assert compact_type_gm1_multidegree(g) == {"v1": 0, "v2": 1}


def test_compact_type_rule_outputs_are_qstable():
    pol = Polarization.trivial_gm1()
    for g1, g2, legs1, legs2 in ((1, 1, (1,), (2,)), (0, 2, (1, 2), (3,)),
                                 (2, 3, (1,), (2,)), (3, 0, (2,), (1, 3))):
        g = two_vertex_tree(g1=g1, g2=g2, legs1=legs1, legs2=legs2)
        assert g.validate() == []
        m = compact_type_gm1_multidegree(g)
        assert sum(m.values()) == g.g - 1
        assert check_stability(g, pol, m, QSTABLE).ok


def test_compact_type_rule_rejects_other_shapes():
    # the rule covers every treelike graph, and only those
    assert compact_type_gm1_multidegree(path3()) == {"v1": 0, "v2": 1, "v3": 1}
    triangle = DualGraph([("a", 0, [1]), ("b", 0, [2]), ("c", 0, [3])],
                         [("a", "b"), ("b", "c"), ("a", "c")])
    for graph in (banana(), triangle):
        with pytest.raises(JacstabError) as err:
            compact_type_gm1_multidegree(graph)
        assert err.value.code == "WRONG_SHAPE"
        assert str(err.value) == "rule applies to treelike graphs only"


def test_treelike_gm1_rule_is_the_qstable_multidegree():
    # on a treelike curve the trivial polarization in degree g-1 has one
    # q-stable multidegree per basepoint, and the rule must be it
    rng = random.Random(21)
    pol = Polarization.trivial_gm1()
    pairs = loops = 0
    for _ in range(80):
        graph = random_treelike_graph(rng, max_vertices=7, loop_chance=0.4)
        loops += any(a == b for a, b in graph.edges)
        for base in graph.ids:
            m = compact_type_gm1_multidegree(graph, basepoint=base)
            assert enumerate_stable(graph, pol, QSTABLE, basepoint=base) == [m], (graph, base)
            pairs += 1
        assert compact_type_gm1_multidegree(graph) == compact_type_gm1_multidegree(
            graph, basepoint=graph.marking_vertex(1))
    assert pairs >= 250 and loops >= 30


def test_compact_type_member_reading_breaks_strictness():
    # giving the marked component genus minus one instead fails strict
    # q-stability at the basepoint; this pins the indicator convention
    g = two_vertex_tree(g1=1, g2=1)
    wrong = {"v1": 0, "v2": 1}
    pol = Polarization.trivial_gm1()
    verdict = check_stability(g, pol, wrong, QSTABLE)
    assert not verdict.ok and verdict.witness == ("v1",)


# ----------------------------------------------------------------------
# graded exponential truncation

def test_exp_truncate_small_values():
    assert exp_truncate(1).terms == {((1, 1),): Fraction(-1)}
    assert exp_truncate(2).terms == {((1, 2),): Fraction(1, 2), ((2, 1),): Fraction(1)}
    assert exp_truncate(3).terms == {((1, 3),): Fraction(-1, 6),
                                     ((1, 1), (2, 1)): Fraction(-1),
                                     ((3, 1),): Fraction(-2)}


def test_exp_truncate_matches_series_oracle():
    for g in range(1, 9):
        assert exp_truncate(g).terms == exp_series_degree_part(g)


def test_exp_truncate_rejects_nonpositive_degree():
    with pytest.raises(JacstabError):
        exp_truncate(0)


def test_exp_truncate_text_and_json():
    poly = exp_truncate(3)
    assert poly.text() == "-C1*C2 - 1/6*C1^3 - 2*C3"
    assert poly.to_json_dict() == {
        "degree": 3,
        "terms": [{"atoms": [[1, 1], [2, 1]], "c": "-1"},
                  {"atoms": [[1, 3]], "c": "-1/6"},
                  {"atoms": [[3, 1]], "c": "-2"}],
    }
