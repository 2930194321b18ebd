import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from jacstab import (DivisorClass, JacstabError, canonicalize, canonical_pair,
                     canonical_indices, is_valid_index,
                     theta_pullback, theta_pullback_hain, theta_gm1_pullback,
                     mueller_class, mueller_correction)
from jacstab.corpus import random_tau
from jacstab.pushforward import FiberClass, GradedAtomPoly, c1_gm1_bundle, c1_twisted_bundle
from jacstab.stability import Polarization


def zero_sum_grid(n, bound=5):
    """Every integer vector with entries in [-bound, bound] summing to zero."""
    if n == 1:
        yield (0,)
        return
    def rec(prefix, left):
        if left == 1:
            if -bound <= -sum(prefix) <= bound:
                yield prefix + (-sum(prefix),)
            return
        for x in range(-bound, bound + 1):
            yield from rec(prefix + (x,), left - 1)
    yield from rec((), n)


# ----------------------------------------------------------------------
# canonical form

def test_canonical_pair_folds_to_marking_one_side():
    assert canonical_pair(2, 2, 1, [2]) == (1, (1,))
    assert canonical_pair(2, 2, 1, [1]) == (1, (1,))
    assert canonical_pair(4, 3, 3, [2]) == (1, (1, 3))


def test_valid_index_range():
    assert is_valid_index(2, 2, 0, (1, 2))
    assert is_valid_index(2, 2, 1, (1,))
    assert not is_valid_index(2, 2, 1, ())        # delta_{1,empty} excluded
    assert not is_valid_index(2, 2, 1, (1, 2))    # mirror of the above
    assert not is_valid_index(1, 2, 0, (1, 2))


def test_canonicalize_psi_conventions():
    cls = canonicalize(2, 2, [("delta", 0, (1,), Fraction(3))])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(-3)})
    cls = canonicalize(2, 2, [("delta", 0, (1,), 1), ("delta", 2, (2,), 1)])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(-2)})


def test_canonicalize_folds_complements():
    cls = canonicalize(2, 2, [("delta", 1, (2,), Fraction(1, 2)),
                              ("delta", 1, (1,), Fraction(1, 3))])
    assert cls.delta == {(1, (1,)): Fraction(5, 6)}


def test_canonicalize_rejects_invalid_nonzero_index():
    # every delta term is folded first, so a leg outside 1..n is caught there,
    # also in the shapes of the psi conventions, (g, [n] - {i}) and (0, {i})
    for term in (("delta", 1, (), 1), ("delta", 2, (5,), 1), ("delta", 0, (5,), 1)):
        with pytest.raises(JacstabError) as err:
            canonicalize(2, 2, [term])
        assert err.value.code == "INVALID_INDEX", term
    # cancelling coefficients are pruned before the validity check
    cls = canonicalize(2, 2, [("delta", 1, (), 1), ("delta", 1, (1, 2), -1)])
    assert cls.is_zero()


def test_canonicalize_idempotent_and_linear():
    terms_a = [("psi", 1, Fraction(1, 2)), ("delta", 1, (2,), 2), ("lambda1", -1)]
    terms_b = [("delta", 0, (1, 2), 3), ("kappa1t", Fraction(1, 4)), ("delta", 1, (1,), -2)]
    a = canonicalize(2, 2, terms_a)
    b = canonicalize(2, 2, terms_b)
    both = canonicalize(2, 2, terms_a + terms_b)
    assert both == a + b
    # idempotence: re-canonicalizing a canonical class changes nothing
    again = canonicalize(2, 2, [("psi", i, c) for i, c in a.psi.items()]
                         + [("lambda1", a.lambda1), ("kappa1t", a.kappa1t)]
                         + [("delta", h, A, c) for (h, A), c in a.delta.items()])
    assert again == a


def test_canonical_indices_deterministic_order():
    idx = canonical_indices(2, 2)
    assert idx == [(0, (1, 2)), (1, (1,))]
    idx = canonical_indices(3, 2)
    assert idx == [(0, (1, 2)), (1, (1,)), (1, (1, 2)), (1, (2,))]


# ----------------------------------------------------------------------
# Hain pullback (k = 0)

def test_hain_g2_n2():
    cls = theta_pullback_hain(2, 2, [1, -1])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(1, 2), 2: Fraction(1, 2)},
                               delta={(1, (1,)): Fraction(-1, 2)})


def test_hain_sign_flip_invariance():
    assert theta_pullback_hain(2, 2, [1, -1]) == theta_pullback_hain(2, 2, [-1, 1])
    assert theta_pullback_hain(3, 3, [2, -1, -1]) == theta_pullback_hain(3, 3, [-2, 1, 1])


def test_hain_g1_n2():
    # boundary coefficients vanish: the only pairs hitting delta_{0,{1,2}} are
    # (0,{1,2}) and (1,{}), both with zero tau-sum
    cls = theta_pullback_hain(1, 2, [1, -1])
    assert cls == DivisorClass(1, 2, psi={1: Fraction(1, 2), 2: Fraction(1, 2)})
    assert cls.delta == {}


def test_hain_requires_zero_sum_nonzero_tau():
    with pytest.raises(JacstabError) as err:
        theta_pullback_hain(2, 2, [1, 0])
    assert err.value.code == "TAU_SUM"
    with pytest.raises(JacstabError) as err:
        theta_pullback_hain(2, 2, [0, 0])
    assert err.value.code == "TAU_SUM"


# ----------------------------------------------------------------------
# closed-form theta pullback

def test_theta_closed_k0_matches_hain_example():
    assert theta_pullback(2, 2, [1, -1], 0) == theta_pullback_hain(2, 2, [1, -1])


def test_theta_closed_k1_worked_example():
    cls = theta_pullback(2, 2, [2, 0], 1)
    assert cls == DivisorClass(2, 2, psi={1: Fraction(4)},
                               kappa1t=Fraction(-1, 2),
                               delta={(0, (1, 2)): Fraction(-9, 2),
                                      (1, (1,)): Fraction(-1, 2)})


def test_theta_closed_rejects_zero_tau_at_k0():
    with pytest.raises(JacstabError) as err:
        theta_pullback(2, 2, [0, 0], 0)
    assert err.value.code == "TAU_SUM"


def test_theta_closed_tau_negation_invariance_at_k0():
    rng = random.Random(41)
    for _ in range(20):
        g = rng.randint(1, 4)
        n = rng.randint(1, 4)
        tau = random_tau(rng, n, 0, bound=5)
        if tau is None or not any(tau):
            continue
        assert theta_pullback(g, n, tau, 0) == theta_pullback(g, n, [-x for x in tau], 0)


def test_theta_closed_matches_hain_on_grid():
    for g in range(1, 5):
        for n in (1, 2):
            for tau in zero_sum_grid(n, bound=3):
                if not any(tau):
                    continue
                assert theta_pullback(g, n, tau, 0) == theta_pullback_hain(g, n, tau)


# ----------------------------------------------------------------------
# degree g-1 theta pullback

def test_theta_gm1_worked_examples():
    cls = theta_gm1_pullback(2, 2, [3, -2])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(6), 2: Fraction(1)},
                               lambda1=Fraction(-1),
                               delta={(0, (1, 2)): Fraction(-1),
                                      (1, (1,)): Fraction(-3)})
    cls = theta_gm1_pullback(2, 2, [1, 0])
    assert cls == DivisorClass(2, 2, psi={1: Fraction(1)}, lambda1=Fraction(-1),
                               delta={(0, (1, 2)): Fraction(-1)})


def test_theta_gm1_coefficient_complement_symmetric():
    # the raw coefficient map is invariant under (h, A) -> (g-h, A^c)
    g, n = 4, 3
    tau = [5, -1, -1]
    for h in range(0, g + 1):
        for r in range(0, n + 1):
            for A in combinations(range(1, n + 1), r):
                s = sum(tau[i - 1] for i in A)
                hc = g - h
                sc = sum(tau) - s
                assert (s - h) * (s - h + 1) == (sc - hc) * (sc - hc + 1)


def test_theta_gm1_tau_sum_enforced():
    with pytest.raises(JacstabError) as err:
        theta_gm1_pullback(2, 2, [1, 1])
    assert err.value.code == "TAU_SUM"


# ----------------------------------------------------------------------
# effective-locus class

def test_mueller_worked_example_both_conventions():
    g, n, tau = 4, 3, [1, 3, -1]
    base = theta_gm1_pullback(g, n, tau)
    # excluding A = {} the members are (1,{1}) with multiplicity 0 and
    # (2,{1}) with multiplicity 1
    assert mueller_correction(g, n, tau, include_empty=False) == {(2, (1,)): 1}
    narrow = mueller_class(g, n, tau, include_empty=False)
    assert base - narrow == canonicalize(g, n, [("delta", 2, (1,), 1)])
    # including A = {} adds (2,{}) with multiplicity 2, canonicalized onto
    # its marking-1 representative
    assert mueller_correction(g, n, tau, include_empty=True) == {
        (2, (1,)): 1, (2, (1, 2, 3)): 2}
    wide = mueller_class(g, n, tau, include_empty=True)
    assert base - wide == canonicalize(g, n, [("delta", 2, (1,), 1),
                                              ("delta", 2, (1, 2, 3), 2)])


def test_mueller_no_correction_when_branch_sums_exceed_h():
    g, n, tau = 2, 2, [3, -2]
    assert mueller_correction(g, n, tau) == {}
    assert mueller_class(g, n, tau) == theta_gm1_pullback(g, n, tau)


def test_mueller_empty_set_needs_reachable_h():
    # one huge positive entry: no (h, A) reaches h >= branch sum, and for
    # g <= 3 the A = {} indices are out of range entirely
    g, n, tau = 3, 2, [5, -3]
    assert mueller_correction(g, n, tau, include_empty=True) == {}
    assert mueller_correction(g, n, tau, include_empty=False) == {}
    assert mueller_class(g, n, tau) == theta_gm1_pullback(g, n, tau)


def test_mueller_requires_negative_entry():
    with pytest.raises(JacstabError) as err:
        mueller_class(2, 2, [1, 0])
    assert err.value.code == "NO_NEGATIVE_ENTRY"


def test_mueller_corrections_nonnegative_integers():
    rng = random.Random(42)
    cases = 0
    for _ in range(40):
        g = rng.randint(1, 5)
        n = rng.randint(1, 4)
        tau = random_tau(rng, n, g - 1, bound=5)
        if tau is None or not any(x < 0 for x in tau):
            continue
        for flag in (True, False):
            corr = mueller_correction(g, n, tau, include_empty=flag)
            assert all(isinstance(c, int) and c > 0 for c in corr.values())
        cases += 1
    assert cases >= 15


def test_closed_forms_build_only_canonical_terms():
    # the closed forms skip canonicalize: their keys must already be what it
    # would return, so re-canonicalizing their terms changes nothing
    rng = random.Random(61)
    seen = Counter()
    for g in range(1, 7):
        for n in range(1, 7):
            indices = {("delta", h, A) for h, A in canonical_indices(g, n)}
            classes = []
            fibers = []
            for k in (0, 1, -1):
                tau = random_tau(rng, n, k * (2 * g - 2), bound=4)
                if tau is not None and any(tau):
                    classes.append(("theta", theta_pullback(g, n, tau, k)))
                    fibers.append(("c1", c1_twisted_bundle(g, n, tau, k)))
            tau = random_tau(rng, n, g - 1, bound=4)
            if tau is not None:
                classes.append(("theta_gm1", theta_gm1_pullback(g, n, tau)))
                fibers.append(("c1_gm1", c1_gm1_bundle(g, n, tau)))
                if any(x < 0 for x in tau):
                    classes += [("mueller", mueller_class(g, n, tau, include_empty=flag))
                                for flag in (True, False)]
            for name, cls in classes:
                assert all(key in indices for key in cls.coeffs if key[0] == "delta")
                assert all(cls.coeffs.values())
                assert canonicalize(g, n, [(*key, c) for key, c in cls.coeffs.items()]) == cls
                seen[name] += 1
            for name, c1 in fibers:
                # the c1 classes are built the same way, through the trusted _of
                assert all(c1.coeffs.values())
                assert FiberClass(g, n, dict(c1.coeffs)) == c1
                seen[name] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("call", [
    lambda: theta_pullback(2, 2, [1.5, -1.5], 0),
    lambda: theta_gm1_pullback(2, 2, [2.9, -1.9]),
    lambda: Polarization.custom({"a": 0}, 2.7),
    lambda: Polarization.custom({"v1": 0.1, "v2": 0}, 0),
    lambda: Polarization.custom({"v1": Fraction(1, 2), "v2": True}, 0),
], ids=["theta-float-tau", "theta-gm1-float-tau", "custom-float-degree", "custom-float-q",
        "custom-bool-q"])
def test_library_tau_and_degree_are_not_truncated(call):
    with pytest.raises(JacstabError) as exc:
        call()
    assert exc.value.code == "BAD_INPUT"


def test_keyword_constructor_follows_canonicalize():
    # delta_{1,{2}} and delta_{1,{1}} are one divisor for g = 2, n = 2
    assert DivisorClass(2, 2, delta={(1, (2,)): 1}) == DivisorClass(2, 2, delta={(1, (1,)): 1})
    assert DivisorClass(2, 2, delta={(0, (1,)): 3}) == DivisorClass(2, 2, psi={1: -3})
    assert DivisorClass(2, 2, psi={1: 2, 2: 0}, lambda1=0).coeffs == {("psi", 1): 2}
    for kwargs, code in (({"delta": {(7, (9,)): 1}}, "INVALID_INDEX"),
                         ({"delta": {(2, (9,)): 1}}, "INVALID_INDEX"),
                         ({"delta": {(1, ()): 1}}, "INVALID_INDEX"),
                         ({"psi": {3: 1}}, "BAD_INPUT"),
                         ({"psi": {1.5: 1}}, "BAD_INPUT")):
        with pytest.raises(JacstabError) as err:
            DivisorClass(2, 2, **kwargs)
        assert err.value.code == code, kwargs


@pytest.mark.parametrize("call", [
    lambda: canonical_pair(2, 2, 1, [1.7]),
    lambda: canonical_pair(2, 2, 0.5, [1]),
    lambda: canonicalize(2, 2, [("psi", 1.5, 1)]),
    lambda: canonicalize(2, 2, [("delta", 1, (True,), 1)]),
    lambda: canonicalize(2, 2, [("delta", 1.0, (1,), 1)]),
    lambda: canonicalize(2, 2, [("delta", 1, 5, 1)]),
    lambda: canonical_pair(2, 2, 1, 5),
    lambda: FiberClass(2, 2, {("B", 1, 5): 1}),
], ids=["pair-float-leg", "pair-float-h", "psi-float-index", "delta-bool-leg", "delta-float-h",
        "delta-int-legs", "pair-int-legs", "fiber-int-legs"])
def test_library_indices_are_not_truncated(call):
    with pytest.raises(JacstabError) as exc:
        call()
    assert exc.value.code == "BAD_INPUT"


@pytest.mark.parametrize("term", [("psi", 1), ("lambda1",), ("lambda1", 1, 2),
                                  ("delta", 1, (1,)), ("delta_irr", 1, 1), ("KD", 1),
                                  5, (), [], "psi", ([1], 1), ["lambda1", 1, 2]])
def test_canonicalize_refuses_a_term_of_unknown_shape(term):
    # the length of a term is its tag's index kinds plus the coefficient
    with pytest.raises(JacstabError) as exc:
        canonicalize(2, 2, [term])
    assert exc.value.code == "BAD_INPUT"
    assert "malformed term" in str(exc.value)


@pytest.mark.parametrize("call", [
    lambda: FiberClass(2, 2, {("D", 1): 0.1}),
    lambda: DivisorClass(2, 2, lambda1=True),
    lambda: canonicalize(2, 2, [("psi", 1, 0.5)]),
    lambda: canonicalize(2, 2, [("delta", 0, (1,), 0.5)]),
    lambda: GradedAtomPoly(2, {((2, 1),): 1.0}),
    lambda: FiberClass.section(2, 2, 1).scale(0.1),
    lambda: theta_pullback(2, 2, [1, -1], 0).scale(True),
], ids=["fiber-float", "divisor-bool", "canonicalize-float", "psi-convention-float",
        "graded-float", "scale-float", "scale-bool"])
def test_coefficients_are_exact_only(call):
    with pytest.raises(JacstabError) as exc:
        call()
    assert exc.value.code == "BAD_INPUT"


def test_int_coefficients_stay_int():
    classes = [FiberClass(2, 2, {("D", 1): 3, ("B", 1, (2, 1)): 1, ("B", 1, (1, 2)): 1}),
               DivisorClass(2, 2, lambda1=2, delta={(0, (1,)): 3}),
               canonicalize(2, 2, [("psi", 1, 1), ("psi", 1, 4), ("kappa1t", -1)]),
               FiberClass.section(2, 2, 1).scale(-3)]
    for cls in classes:
        assert cls.coeffs and all(type(c) is int for c in cls.coeffs.values()), cls
    # an int and an equal Fraction print, compare and hash alike
    whole = DivisorClass(2, 2, lambda1=2, psi={1: -1})
    same = DivisorClass(2, 2, lambda1=Fraction(2), psi={1: Fraction(-1)})
    assert whole == same and hash(whole) == hash(same)
    assert whole.text() == same.text() and whole.to_json_dict() == same.to_json_dict()


# ----------------------------------------------------------------------
# presentation

def test_json_serialization_golden():
    cls = theta_pullback(2, 2, [1, -1], 0)
    assert cls.to_json_dict() == {
        "psi": {"1": "1/2", "2": "1/2"},
        "lambda1": "0",
        "kappa1t": "0",
        "delta_irr": "0",
        "delta": [{"h": 1, "A": [1], "c": "-1/2"}],
    }


def test_text_rendering_deterministic_order():
    cls = theta_gm1_pullback(2, 2, [3, -2])
    assert cls.text() == "6*psi_1 + psi_2 - lambda1 - delta_{0,{1,2}} - 3*delta_{1,{1}}"
    assert DivisorClass(2, 2).text() == "0"


def test_text_of_every_tag():
    # psi and delta indices sort as integers (psi_2 before psi_10), the tags
    # in the order psi, lambda1, kappa1t, delta_irr, delta
    cls = DivisorClass(2, 12, psi={10: 1, 2: -1}, lambda1=Fraction(1, 2), kappa1t=-1,
                       delta_irr=3,
                       delta={(1, (10, 2)): 2, (0, (11, 12)): -1, (0, (3, 4, 5)): Fraction(1, 3)})
    assert cls.text() == ("-psi_2 + psi_10 + 1/2*lambda1 - kappa1t + 3*delta_irr"
                          " + 1/3*delta_{0,{3,4,5}} - delta_{0,{11,12}}"
                          " + 2*delta_{1,{1,3,4,5,6,7,8,9,11,12}}")


def test_scale_and_subtract():
    a = theta_gm1_pullback(2, 2, [3, -2])
    assert (a - a).is_zero()
    assert a.scale(2) - a == a
