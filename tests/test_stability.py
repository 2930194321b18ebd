import gc
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from jacstab import (DualGraph, JacstabError, Polarization, QSTABLE, SEMISTABLE, STABLE,
                     threshold, check_stability, enumerate_stable, is_balanced,
                     base_multidegree, locus_membership,
                     BALANCED, TREELIKE, BOTH, INDETERMINACY)
from jacstab.corpus import random_connected_graph, random_treelike_graph, random_tau
from jacstab.oracles import balanced_exhaustive, brute_force_stable, stability_exhaustive
import jacstab.stability as stability
from jacstab import stats
from jacstab.stability import BalanceVerdict, StabilityVerdict
from jacstab.twister import boundary_multidegree, branch_coefficients, split_at_edge
from common import banana, two_vertex_tree, path3, multigraph

CAN0 = Polarization.canonical_zero()
GM1 = Polarization.trivial_gm1()


# ----------------------------------------------------------------------
# thresholds

def test_threshold_canonical_zero_banana():
    assert threshold(banana(), CAN0, ["v1"]) == Fraction(-1)


def test_threshold_trivial_gm1_two_vertex_tree():
    # q_Y = deg omega / 2 = 1/2, kappa = 1: threshold 0
    assert threshold(two_vertex_tree(g1=1, g2=1), GM1, ["v1"]) == 0


def test_threshold_canonical_zero_two_vertex_tree():
    assert threshold(two_vertex_tree(), CAN0, ["v1"]) == Fraction(-1, 2)


def test_threshold_rejects_empty_or_full():
    with pytest.raises(JacstabError) as err:
        threshold(banana(), CAN0, [])
    assert err.value.code == "EMPTY_OR_FULL"
    with pytest.raises(JacstabError) as err:
        threshold(banana(), CAN0, ["v1", "v2"])
    assert err.value.code == "EMPTY_OR_FULL"


@pytest.mark.parametrize("Y", [["v1", "zz"], ["zz"], ["v1", "v2", "zz"]])
def test_threshold_refuses_an_unknown_vertex_whatever_the_size(Y):
    # {v1, zz} has as many names as the banana has vertices: the unknown name
    # is the error, not the size
    with pytest.raises(JacstabError) as err:
        threshold(banana(), CAN0, Y)
    assert err.value.code == "BAD_INPUT"
    assert str(err.value) == "unknown vertices in subcurve: ['zz']"


SUBCURVE_FORMS = {
    "tuple": tuple,
    "unsorted": lambda Y: tuple(reversed(Y)),
    "list": list,
    "set": set,
    "generator": lambda Y: (v for v in Y),
    "repeated": lambda Y: tuple(Y) + tuple(Y[:1]),
}


def test_threshold_matches_the_definition_in_every_input_form():
    # On a graph whose levels are all built and on one with only its first
    # level built, every form of every subset gives the definition, and
    # threshold builds no level
    rng = random.Random(26)
    for _ in range(16):
        built = multigraph(rng, max_vertices=8)
        partial = DualGraph.from_json_dict(built.to_json_dict(), check=False)
        built.connected_subsets()
        partial.connected_subsets(1)
        subsets_before = stats.COUNTS["graphs.subsets"]
        thirds = Polarization.custom({v: Fraction(rng.randint(-5, 5), 3) for v in built.ids})
        for pol in (CAN0, GM1, thirds):
            for Y in built.proper_subsets():
                want = pol.q_value(built, Y) - Fraction(built.kappa(Y), 2)
                for g in (built, partial):
                    for name, form in SUBCURVE_FORMS.items():
                        got = threshold(g, pol, form(Y))
                        assert got == want and type(got) is Fraction, (g, pol, Y, name)
            ids = built.ids
            for Y, code in [((), "EMPTY_OR_FULL"), (ids, "EMPTY_OR_FULL"),
                            (ids[:1] + ("zz",), "BAD_INPUT"), (ids + ("zz",), "BAD_INPUT")]:
                for name, form in SUBCURVE_FORMS.items():
                    with pytest.raises(JacstabError) as err:
                        threshold(built, pol, form(Y))
                    assert err.value.code == code, (built, pol, Y, name)
        assert stats.COUNTS["graphs.subsets"] == subsets_before
        assert len(partial._levels) == (len(built.ids) > 1)


# ----------------------------------------------------------------------
# stability checks

def test_trivial_bundle_is_qstable_on_banana():
    verdict = check_stability(banana(), CAN0, {"v1": 0, "v2": 0}, QSTABLE)
    assert verdict.ok


def test_banana_one_minus_one_qstable_but_not_reversed():
    g = banana()
    assert check_stability(g, CAN0, {"v1": 1, "v2": -1}, QSTABLE).ok
    verdict = check_stability(g, CAN0, {"v1": -1, "v2": 1}, QSTABLE)
    assert not verdict.ok
    assert verdict.witness == ("v1",)
    assert verdict.degree == -1 and verdict.bound == Fraction(-1) and verdict.strict


def test_two_vertex_tree_semistable_fail():
    verdict = check_stability(two_vertex_tree(), CAN0, {"v1": 1, "v2": -1}, SEMISTABLE)
    assert not verdict.ok
    assert verdict.witness == ("v2",)
    assert verdict.bound == Fraction(-1, 2)


def test_degree_mismatch_raises():
    with pytest.raises(JacstabError) as err:
        check_stability(banana(), CAN0, {"v1": 1, "v2": 0}, QSTABLE)
    assert err.value.code == "DEGREE_MISMATCH"


def test_multidegree_keys_must_match():
    with pytest.raises(JacstabError) as err:
        check_stability(banana(), CAN0, {"v1": 0}, QSTABLE)
    assert err.value.code == "BAD_MULTIDEGREE"


def test_connected_only_verdict_matches_exhaustive():
    # violations on arbitrary subcurves shrink to connected ones
    rng = random.Random(21)
    cases = 0
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=6)
        for mode in (SEMISTABLE, QSTABLE):
            m = {v: rng.randint(-2, 2) for v in g.ids}
            drift = -sum(m.values())
            m[g.ids[0]] += drift
            fast = check_stability(g, CAN0, m, mode)
            slow = stability_exhaustive(g, CAN0, m, mode)
            assert fast.ok == slow.ok
            cases += 1
    assert cases


@pytest.mark.parametrize("call, message", [
    (lambda: check_stability(banana(), CAN0, {"v1": 0.5, "v2": -0.5}, QSTABLE),
     "degree of v1 must be an integer, got 0.5"),
    (lambda: check_stability(banana(), CAN0, {"v1": True, "v2": -1}, QSTABLE),
     "degree of v1 must be an integer, got True"),
    (lambda: is_balanced(banana(), [1.0, -1.0], 0), "tau entry must be an integer, got 1.0"),
    (lambda: is_balanced(banana(), ["1", "-1"], 0), "tau entry must be an integer, got '1'"),
    (lambda: locus_membership(banana(), [1, -1], 0.0), "k must be an integer, got 0.0"),
    (lambda: check_stability(banana(), CAN0, {"v1": 0, "v2": 0}, "bogus"),
     "unknown mode 'bogus'"),
    (lambda: enumerate_stable(banana(), CAN0, "bogus"), "unknown mode 'bogus'"),
    (lambda: Polarization.preset("bogus"), "unknown polarization preset 'bogus'"),
    (lambda: Polarization.custom({"v1": 0.5, "v2": 0}),
     "q of 'v1' must be an int or a Fraction, got 0.5"),
    (lambda: Polarization.custom({1: 0, "v2": 0}), "vertex id must be a non-empty string, got 1"),
], ids=["float-degree", "bool-degree", "float-tau", "str-tau", "float-k", "check-mode",
        "enumerate-mode", "preset", "float-q", "int-name-q"])
def test_multidegrees_and_tau_are_strict(call, message):
    # and so are the names of a mode and of a polarization preset, and a custom q
    with pytest.raises(JacstabError) as err:
        call()
    assert err.value.code == "BAD_INPUT" and str(err.value) == message


# ----------------------------------------------------------------------
# enumeration

def test_enumerate_banana_qstable():
    found = enumerate_stable(banana(), CAN0, QSTABLE)
    assert found == [{"v1": 0, "v2": 0}, {"v1": 1, "v2": -1}]


def test_enumerate_treelike_gives_zero_only():
    rng = random.Random(22)
    for _ in range(30):
        g = random_treelike_graph(rng, max_vertices=8)
        assert enumerate_stable(g, CAN0, QSTABLE) == [{v: 0 for v in g.ids}]


def test_enumerate_trivial_gm1_two_vertex_tree():
    found = enumerate_stable(two_vertex_tree(g1=1, g2=1), GM1, QSTABLE)
    assert found == [{"v1": 1, "v2": 0}]


def test_enumerate_single_vertex():
    g = DualGraph([("v1", 2, [1])], [])
    assert enumerate_stable(g, CAN0, QSTABLE) == [{"v1": 0}]
    assert enumerate_stable(g, GM1, QSTABLE) == [{"v1": 1}]


def test_enumerate_complete_on_larger_graphs():
    # the box scan, which tests every vector against every subset, finds
    # nothing beyond the pruned search on dense graphs of five vertices (extra
    # edges up to the vertex count, genus up to 1, loops) and a six-vertex path
    rng = random.Random(28)
    for _ in range(3):
        g = _graph_of_size(rng, 5, max_extra_edges=5, max_genus=1)
        assert enumerate_stable(g, CAN0, QSTABLE) == brute_force_stable(g, CAN0, QSTABLE)
    six = DualGraph([("a", 0, [1, 2]), ("b", 0, [3]), ("c", 0, [4]),
                     ("d", 0, [5]), ("e", 0, [6]), ("f", 0, [7, 8])],
                    [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
    assert six.validate() == []
    assert enumerate_stable(six, CAN0, QSTABLE) == brute_force_stable(six, CAN0, QSTABLE)


def _marking_one_last(g: DualGraph) -> DualGraph:
    """``g`` with the ids of its last vertex and of marking 1's vertex swapped,
    so that marking 1, the default basepoint, sits on the last vertex."""
    owner, last = g.marking_vertex(1), g.ids[-1]
    name = {owner: last, last: owner}.get
    return DualGraph([(name(v, v), g.genus_of[v], g.legs_of[v]) for v in g.ids],
                     [(name(a, a), name(b, b)) for a, b in g.edges], n=g.n)


def _graph_of_size(rng: random.Random, size: int, **shape) -> DualGraph:
    while True:
        g = random_connected_graph(rng, max_vertices=size, **shape)
        if len(g.ids) == size:
            return g


def _fractional_polarization(rng: random.Random, g: DualGraph) -> Polarization:
    """q_v = -omega_v/2 moved by halves and thirds; the degree q_V is the total
    move, made an integer by the last vertex's move (at most 1/2 in size)."""
    moves = [Fraction(rng.choice((-1, 1)), rng.choice((2, 3))) for _ in g.ids[1:]]
    moves.append(round(sum(moves)) - sum(moves))
    q = {v: move - Fraction(g.omega_degree((v,)), 2) for v, move in zip(g.ids, moves)}
    return Polarization.custom(q)


def test_enumerate_agrees_with_brute_force_box():
    # soundness and completeness against the box scan, which takes each
    # vertex's range from its own and its complement's inequality and tests
    # every vector in the box against every proper subset
    rng = random.Random(23)
    for _ in range(12):
        g = random_connected_graph(rng, max_vertices=4, max_extra_edges=2, max_genus=1)
        for pol in (CAN0, GM1):
            for mode in (SEMISTABLE, STABLE, QSTABLE):
                assert enumerate_stable(g, pol, mode) == brute_force_stable(g, pol, mode)
    # every size from 1 to 5 vertices, a fractional custom polarization and
    # explicit basepoints; marking 1 on the last vertex makes the strict rows
    # upper bounds in the search
    rng = random.Random(31)
    found = last_holds_1 = curved_large = 0
    for size, count, extra, genus, loops in ((1, 3, 2, 1, 0.2), (2, 8, 2, 1, 0.2),
                                             (3, 8, 2, 1, 0.2), (4, 6, 2, 1, 0.2),
                                             (5, 1, 0, 1, 0), (5, 2, 1, 0, 0)):
        for _ in range(count):
            g = _graph_of_size(rng, size, max_extra_edges=extra, max_genus=genus,
                               loop_chance=loops)
            if rng.random() < 0.5:
                g = _marking_one_last(g)
            last_holds_1 += g.marking_vertex(1) == g.ids[-1]
            curved_large += size >= 4 and any(g.genus_of.values())
            for pol in (CAN0, GM1, _fractional_polarization(rng, g)):
                base = rng.choice((None, rng.choice(g.ids)))
                for mode in (SEMISTABLE, STABLE, QSTABLE):
                    result = enumerate_stable(g, pol, mode, basepoint=base)
                    assert result == brute_force_stable(g, pol, mode, basepoint=base)
                    found += len(result)
    assert last_holds_1 >= 10 and curved_large >= 4 and found > 500
    # dense graphs of 5 and 6 vertices: extra edges up to the vertex count,
    # vertex genus up to 1 and loops
    rng = random.Random(41)
    found = multiple = looped = curved = 0
    for size, count in ((5, 6), (6, 4)):
        for _ in range(count):
            g = _graph_of_size(rng, size, max_extra_edges=size, max_genus=1, loop_chance=0.3)
            pairs = [frozenset(e) for e in g.edges if e[0] != e[1]]
            multiple += len(set(pairs)) < len(pairs)
            looped += any(a == b for a, b in g.edges)
            curved += any(g.genus_of.values())
            for pol in (CAN0, GM1, _fractional_polarization(rng, g)):
                base = rng.choice((None, rng.choice(g.ids)))
                for mode in (SEMISTABLE, STABLE, QSTABLE):
                    result = enumerate_stable(g, pol, mode, basepoint=base)
                    assert result == brute_force_stable(g, pol, mode, basepoint=base)
                    found += len(result)
    assert multiple >= 3 and looped >= 3 and curved >= 3 and found > 4000
    # cut vertices, where no complement row bounds a vertex's degree from above
    # and the box's upper ends come from the singleton rows alone: a star whose
    # centre holds marking 1, its edges single, doubled and tripled, and a path
    star = DualGraph([("c", 0, [1]), ("x", 1, []), ("y", 0, [2]), ("z", 0, [3])],
                     [("c", "x")] + [("c", "y")] * 2 + [("c", "z")] * 3)
    path = DualGraph([(f"p{i}", 1, [1] if i == 3 else []) for i in range(1, 6)],
                     [(f"p{i}", f"p{i + 1}") for i in range(1, 5)])
    rng = random.Random(43)
    cut = False
    counts = {}
    for g in (star, path):
        assert g.validate() == []
        cut |= any(not g.is_connected_subset(set(g.ids) - {v}) for v in g.ids)
        for pol in (CAN0, GM1, _fractional_polarization(rng, g)):
            for base in (None, g.ids[-1]):
                for mode in (SEMISTABLE, STABLE, QSTABLE):
                    result = enumerate_stable(g, pol, mode, basepoint=base)
                    assert result == brute_force_stable(g, pol, mode, basepoint=base)
                    if g is star and pol in (CAN0, GM1) and base is None:
                        counts[mode, pol.kind] = len(result)
    assert cut
    assert counts == {(SEMISTABLE, "canonical0"): 9, (SEMISTABLE, "trivial-gm1"): 24,
                      (STABLE, "canonical0"): 3, (STABLE, "trivial-gm1"): 0,
                      (QSTABLE, "canonical0"): 6, (QSTABLE, "trivial-gm1"): 6}


def test_enumerate_on_a_long_path_stays_small():
    # a 40-vertex path has 819 proper connected subcurves; the search stores one
    # partial sum per bounded subset and prefix, not one per subset of 2^40.
    # Its peak allocation (about 0.56 MB with the rows) is bounded, not its time
    ids = [f"v{i:02d}" for i in range(1, 41)]
    g = DualGraph([(v, 1, [1] if v == ids[-1] else []) for v in ids], list(zip(ids, ids[1:])))
    tracemalloc.start()
    try:
        assert enumerate_stable(g, CAN0, QSTABLE) == [{v: 0 for v in ids}]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_enumerate_stable_subset_of_qstable_subset_of_semistable():
    rng = random.Random(24)
    for _ in range(10):
        g = random_connected_graph(rng, max_vertices=5, max_extra_edges=2, max_genus=1)
        key = lambda m: tuple(m[v] for v in g.ids)
        stable = {key(m) for m in enumerate_stable(g, CAN0, STABLE)}
        qstable = {key(m) for m in enumerate_stable(g, CAN0, QSTABLE)}
        semi = {key(m) for m in enumerate_stable(g, CAN0, SEMISTABLE)}
        assert stable <= qstable <= semi


# ----------------------------------------------------------------------
# balanced twist data

def test_balanced_banana_with_both_legs_on_one_side():
    assert is_balanced(banana(), [5, -5], 0).ok


def test_unbalanced_two_vertex_tree():
    verdict = is_balanced(two_vertex_tree(), [5, -5], 0)
    assert not verdict.ok
    assert verdict.witness == ("v2",)
    assert verdict.leg_sum == -5 and verdict.bound == Fraction(-1, 2)


def test_zero_tau_is_balanced():
    g = two_vertex_tree()
    assert is_balanced(g, [0, 0], 0).ok
    assert is_balanced(banana(), [0, 0], 0).ok


def test_balanced_tau_sum_enforced():
    with pytest.raises(JacstabError) as err:
        is_balanced(banana(), [1, 0], 0)
    assert err.value.code == "TAU_SUM"


@pytest.mark.parametrize("stray", [0, 3, -1])
def test_a_leg_outside_1_to_n_is_refused(stray):
    # an unchecked graph may hold any leg; taken as an index into tau, a leg 0
    # would read tau_n (the doubled edge balanced, the tree's branch
    # coefficient -3) and a leg above n would index past tau
    tree = DualGraph([("a", 1, [1]), ("b", 1, [stray])], [("a", "b")], n=2)
    doubled = DualGraph([("a", 0, [1]), ("b", 0, [stray])], [("a", "b")] * 2, n=2)
    calls = (base_multidegree, is_balanced, locus_membership,
             branch_coefficients, boundary_multidegree)
    for graph, refusing in ((tree, calls), (doubled, calls[:3])):
        for call in refusing:
            with pytest.raises(JacstabError) as err:
                call(graph, [3, -3], 0)
            assert err.value.code == "BAD_INPUT", (graph, call)
            assert f"leg {stray} on b is outside 1..2" in str(err.value), (graph, call)
            # after check_tau's refusals
            with pytest.raises(JacstabError) as err:
                call(graph, [3, -2], 0)
            assert err.value.code == "TAU_SUM", (graph, call)


def test_locus_membership_examples():
    assert locus_membership(banana(), [5, -5], 0) == BALANCED
    assert locus_membership(two_vertex_tree(), [5, -5], 0) == TREELIKE
    split_banana = DualGraph([("v1", 1, [1]), ("v2", 1, [2])],
                             [("v1", "v2"), ("v1", "v2")])
    assert split_banana.validate() == []
    assert locus_membership(split_banana, [5, -5], 0) == INDETERMINACY
    assert locus_membership(two_vertex_tree(), [0, 0], 0) == BOTH


def test_balanced_iff_qstable_base_multidegree():
    rng = random.Random(25)
    cases = 0
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=6)
        k = rng.randint(-1, 1)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=5)
        if tau is None:
            continue
        m0 = base_multidegree(g, tau, k)
        assert sum(m0.values()) == 0
        assert is_balanced(g, tau, k).ok == check_stability(g, CAN0, m0, QSTABLE).ok
        cases += 1
    assert cases >= 40


def test_balanced_forces_zero_branch_sums():
    # legful treelike graphs with per-vertex leg sums k*deg-omega are balanced
    # and every separating edge's branch sum must vanish
    rng = random.Random(26)
    for _ in range(25):
        g = random_treelike_graph(rng, max_vertices=7, legful=True, extra_legs=1)
        k = rng.randint(-2, 2)
        tau = [0] * g.n
        for v in g.ids:
            legs = sorted(g.legs_of[v])
            want = k * g.omega_degree((v,))
            tau[legs[0] - 1] = want
            for other in legs[1:]:
                shift = rng.randint(-3, 3)
                tau[other - 1] += shift
                tau[legs[0] - 1] -= shift
        assert is_balanced(g, tau, k).ok
        for edge in g.nonloop_edges():
            for side in split_at_edge(g, edge):
                branch_sum = (sum(tau[i - 1] for v in side for i in g.legs_of[v])
                              - k * g.omega_degree(side))
                assert branch_sum == 0


def test_basepoint_override():
    # q-stability strictness follows the chosen component, default marking 1
    g = banana()
    assert check_stability(g, CAN0, {"v1": 1, "v2": -1}, QSTABLE).ok
    assert not check_stability(g, CAN0, {"v1": 1, "v2": -1}, QSTABLE,
                               basepoint="v2").ok
    found = enumerate_stable(g, CAN0, QSTABLE, basepoint="v2")
    assert found == [{"v1": -1, "v2": 1}, {"v1": 0, "v2": 0}]


def test_qstable_requires_a_basepoint():
    unmarked = DualGraph([("v1", 2, []), ("v2", 2, [])], [("v1", "v2")], n=0)
    assert unmarked.validate() == []
    with pytest.raises(JacstabError) as err:
        enumerate_stable(unmarked, CAN0, QSTABLE)
    assert err.value.code == "NO_BASEPOINT"
    assert enumerate_stable(unmarked, CAN0, QSTABLE, basepoint="v1") == [
        {"v1": 0, "v2": 0}]
    # a one-component curve has no proper subcurves, so no basepoint is needed
    single = DualGraph([("v1", 2, [])], [], n=0)
    assert enumerate_stable(single, CAN0, QSTABLE) == [{"v1": 0}]


def test_custom_polarization_reproduces_canonical_zero():
    g = banana()
    q = {v: -Fraction(g.omega_degree((v,)), 2) for v in g.ids}
    custom = Polarization.custom(q)
    for Y in (("v1",), ("v2",)):
        assert threshold(g, custom, Y) == threshold(g, CAN0, Y)
    assert enumerate_stable(g, custom, QSTABLE) == enumerate_stable(g, CAN0, QSTABLE)


def _spanning_tree_count(g: DualGraph) -> int:
    """Spanning trees by brute force: the (V-1)-subsets of the non-loop edges
    that join every vertex, each tested with union-find."""
    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    edges = [(a, b) for a, b in g.edges if a != b]
    count = 0
    for chosen in combinations(edges, len(g.ids) - 1):
        parent = {v: v for v in g.ids}
        for a, b in chosen:
            ra, rb = root(a), root(b)
            if ra == rb:
                break
            parent[ra] = rb
        else:
            count += 1
    return count


def _banana3() -> DualGraph:
    """Two genus-0 components joined at three nodes, marking 1 on one, 2 on the other."""
    return DualGraph([("v1", 0, [1]), ("v2", 0, [2])], [("v1", "v2")] * 3)


def test_qstable_count_is_the_spanning_tree_count():
    # Kirchhoff: in the degree q_V that the polarization fixes, the q-stable
    # multidegrees are as many as the spanning trees, whatever q and basepoint
    ids = ("a", "b", "c", "d")
    k4 = DualGraph([(v, 0, [1] if v == "a" else []) for v in ids],
                   [(v, w) for i, v in enumerate(ids) for w in ids[i + 1:]] + [("a", "a")])
    assert _spanning_tree_count(k4) == 16 and _spanning_tree_count(_banana3()) == 3
    rng = random.Random(7)
    sizes = set()
    for _ in range(80):
        g = random_connected_graph(rng, max_vertices=7)
        trees = _spanning_tree_count(g)
        sizes.add(len(g.ids))
        for pol in (CAN0, GM1, _fractional_polarization(rng, g)):
            base = rng.choice(g.ids)
            assert len(enumerate_stable(g, pol, QSTABLE, basepoint=base)) == trees, (g, pol, base)
    assert sizes == set(range(1, 8))


@pytest.mark.parametrize("q", [{"v1": Fraction(1, 2), "v2": 0}, {"v1": 0, "v2": 0, "v3": 0},
                               {"v1": 0}],
                         ids=["fractional-degree", "extra-vertex", "missing-vertex"])
@pytest.mark.parametrize("call", [
    lambda g, pol: check_stability(g, pol, {"v1": 1, "v2": 0}, QSTABLE),
    lambda g, pol: enumerate_stable(g, pol, QSTABLE),
    lambda g, pol: brute_force_stable(g, pol, QSTABLE),
], ids=["check", "enumerate", "brute-force"])
def test_bad_custom_polarization_is_refused_before_any_row(monkeypatch, call, q):
    # q_V = 1/2 + (g - 1) = 3/2 on the first; the others do not name V.
    # Every row of check and enumerate reads a level of DualGraph._level, a
    # FAIL's bound calls threshold, and every inequality of the brute force
    # reads kappa; the degree reads none of them, so no row may be computed
    g = _banana3()

    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(DualGraph, "_level", no_rows)
    monkeypatch.setattr(stability, "threshold", no_rows)
    monkeypatch.setattr(DualGraph, "kappa", no_rows)
    with pytest.raises(JacstabError) as err:
        call(g, Polarization.custom(q))
    assert err.value.code == "BAD_INPUT"


def test_custom_degree_is_q_of_the_whole_curve():
    g = _banana3()
    assert Polarization.custom({"v1": 0, "v2": 0}).target_degree(g) == 1
    assert Polarization.custom({"v1": Fraction(1, 2), "v2": Fraction(-5, 2)}).target_degree(g) == -1
    assert CAN0.target_degree(g) == 0 and GM1.target_degree(g) == g.g - 1 == 1
    assert enumerate_stable(g, Polarization.custom({"v1": 0, "v2": 0}), QSTABLE) == [
        {"v1": 0, "v2": 1}, {"v1": 1, "v2": 0}, {"v1": 2, "v2": -1}]


def test_first_witness_matches_reference_loops_for_every_polarization():
    # check_stability against a loop over connected_subsets() order with
    # threshold, and is_balanced against one from kappa and omega_degree, on
    # multigraphs of up to 8 vertices, in every mode, with both presets and a
    # custom q in thirds and in sevenths; each multidegree is moved so that a
    # random connected subcurve meets its bound's ceiling, often with equality
    rng = random.Random(31)
    seen = Counter()
    for _ in range(70):
        g = multigraph(rng, max_vertices=8)
        subsets = g.connected_subsets()
        pols = [CAN0, GM1]
        for den in (3, 7):
            q = {v: Fraction(rng.randint(-9, 9), den) for v in g.ids}
            q[g.ids[0]] -= sum(q.values()) % 1
            pols.append(Polarization.custom(q))
        for pol in pols:
            bounds = {Y: threshold(g, pol, Y) for Y in subsets}
            for mode in (SEMISTABLE, STABLE, QSTABLE):
                basepoint = rng.choice([None, rng.choice(g.ids)])
                base = stability.resolve_basepoint(g, basepoint) if mode == QSTABLE else None
                for _ in range(4):
                    m = {v: rng.randint(-2, 2) for v in g.ids}
                    m[g.ids[-1]] += pol.target_degree(g) - sum(m.values())
                    if subsets:
                        Y = rng.choice(subsets)
                        out = rng.choice([v for v in g.ids if v not in Y])
                        shift = math.ceil(bounds[Y]) - sum(m[v] for v in Y)
                        m[Y[0]] += shift
                        m[out] -= shift
                    want = StabilityVerdict(ok=True, mode=mode)
                    for Y in subsets:
                        degree, strict = sum(m[v] for v in Y), mode == STABLE or base in Y
                        if degree < bounds[Y] or strict and degree == bounds[Y]:
                            want = StabilityVerdict(False, mode, Y, degree, bounds[Y], strict)
                            break
                    got = check_stability(g, pol, m, mode, basepoint=basepoint)
                    assert got == want, (g, pol, m, mode, basepoint)
                    seen[pol.kind, "pass" if got.ok else "tie" if got.degree == got.bound
                         else "fail"] += 1
        for _ in range(4):
            k = rng.randint(-1, 1)
            tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=3)
            if tau is None:
                k, tau = 0, [0] * g.n
            if subsets and rng.random() < 0.5:
                Z = rng.choice(subsets)
                legs = [i for v in Z for i in g.legs_of[v]]
                if legs and len(legs) < g.n:
                    bound = k * g.omega_degree(Z) - Fraction(g.kappa(Z), 2)
                    shift = math.ceil(bound) - sum(tau[i - 1] for i in legs)
                    tau[legs[0] - 1] += shift
                    tau[next(i for i in range(1, g.n + 1) if i not in legs) - 1] -= shift
            want = BalanceVerdict(ok=True)
            for Z in subsets:
                leg_sum = sum(tau[i - 1] for v in Z for i in g.legs_of[v])
                bound = k * g.omega_degree(Z) - Fraction(g.kappa(Z), 2)
                strict = any(1 in g.legs_of[v] for v in Z)
                if leg_sum < bound or strict and leg_sum == bound:
                    want = BalanceVerdict(False, Z, leg_sum, bound, strict)
                    break
            verdict = is_balanced(g, tau, k)
            assert verdict == want, (g, tau, k)
            seen["balanced", "pass" if verdict.ok else "tie" if verdict.leg_sum == verdict.bound
                 else "fail"] += 1
    for kind in (CAN0.kind, GM1.kind, "custom"):
        assert min(seen[kind, "pass"], seen[kind, "tie"], seen[kind, "fail"]) >= 50, seen
    assert min(seen["balanced", "pass"], seen["balanced", "tie"], seen["balanced", "fail"]) >= 5, seen


def test_a_refused_polarization_reads_no_row_and_builds_no_subset():
    # a custom q that does not name the vertices, or whose degree is not an
    # integer, is refused before any level is built
    g = _banana3()
    for q in ({"v1": Fraction(1, 2), "v2": 0}, {"v1": 0}):
        for call in (lambda pol: check_stability(g, pol, {"v1": 1, "v2": 0}, QSTABLE),
                     lambda pol: enumerate_stable(g, pol, QSTABLE)):
            before = Counter(stats.COUNTS)
            with pytest.raises(JacstabError) as err:
                call(Polarization.custom(q))
            assert err.value.code == "BAD_INPUT" and stats.COUNTS == before and not g._levels


def test_scans_on_a_disconnected_graph_match_the_exhaustive_oracles():
    # two components of two vertices: the level of size 3 is empty
    g = DualGraph([("a", 0, [1]), ("b", 1, []), ("c", 0, [2]), ("d", 1, [])],
                  [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")], n=2)
    assert not g.is_connected() and g.connected_subsets(3) == () and g._level(3).masks == ()
    for pol in (CAN0, GM1):
        for mode in (SEMISTABLE, STABLE, QSTABLE):
            for d in range(-3, 4):
                m = {"a": d, "b": -d, "c": 0, "d": pol.target_degree(g)}
                assert (check_stability(g, pol, m, mode).ok
                        == stability_exhaustive(g, pol, m, mode).ok), (pol, mode, m)
    for tau in ([1, -1], [0, 0], [-2, 2]):
        assert is_balanced(g, tau, 0).ok == balanced_exhaustive(g, tau, 0).ok, tau


def test_balanced_fail_fields_match_the_definitions():
    # the witness is the first connected subcurve whose inequality, computed
    # from kappa and omega_degree, fails; leg_sum, bound and strict are its own
    rng = random.Random(28)
    fails = strict_ties = passes = 0
    for _ in range(150):
        g = multigraph(rng, max_vertices=8)
        k = rng.randint(-1, 1)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=4)
        if tau is None:
            continue
        verdict = is_balanced(g, tau, k)
        for Z in g.connected_subsets():
            leg_sum = sum(tau[i - 1] for v in Z for i in g.legs_of[v])
            bound = k * g.omega_degree(Z) - Fraction(g.kappa(Z), 2)
            strict = any(1 in g.legs_of[v] for v in Z)
            if leg_sum < bound or (strict and leg_sum == bound):
                assert verdict == stability.BalanceVerdict(False, Z, leg_sum, bound, strict), (g, tau, k)
                assert type(verdict.bound) is Fraction
                fails += 1
                strict_ties += leg_sum == bound
                break
        else:
            assert verdict == stability.BalanceVerdict(True), (g, tau, k)
            passes += 1
    assert fails >= 30 and strict_ties >= 3 and passes >= 30, (fails, strict_ties, passes)


def test_balanced_strict_on_any_vertex_with_leg_1():
    # an unvalidated graph with leg 1 on a and on c: (c) meets its bound -1
    # exactly and is strict, though a, the first vertex with leg 1, is not in it
    g = DualGraph([("a", 0, [1]), ("b", 0, [2]), ("c", 0, [1, 3])],
                  [("a", "b"), ("a", "b"), ("b", "c"), ("b", "c")], n=3)
    assert g.validate()
    assert is_balanced(g, [0, 1, -1], 0) == stability.BalanceVerdict(
        ok=False, witness=("c",), leg_sum=-1, bound=Fraction(-1), strict=True)
    assert is_balanced(g, [0, 1, -1], 0) == balanced_exhaustive(g, [0, 1, -1], 0)


def test_balanced_connected_only_matches_exhaustive():
    rng = random.Random(27)
    cases = 0
    for _ in range(40):
        g = random_connected_graph(rng, max_vertices=6)
        k = rng.randint(-1, 1)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=4)
        if tau is None:
            continue
        assert is_balanced(g, tau, k).ok == balanced_exhaustive(g, tau, k).ok
        cases += 1
    assert cases >= 25


def test_table_verdicts_match_exhaustive_oracle():
    # every mode, both presets and explicit basepoints; a FAIL witness is a
    # connected subcurve whose inequality really fails
    rng = random.Random(29)
    outcomes = set()
    for _ in range(60):
        g = random_connected_graph(rng, max_vertices=6, max_genus=1)
        for pol in (CAN0, GM1):
            mode = rng.choice((SEMISTABLE, STABLE, QSTABLE))
            base = rng.choice(g.ids) if rng.random() < 0.3 else None
            m = {v: rng.randint(-2, 2) for v in g.ids}
            m[rng.choice(g.ids)] += pol.target_degree(g) - sum(m.values())
            verdict = check_stability(g, pol, m, mode, basepoint=base)
            assert verdict.ok == stability_exhaustive(g, pol, m, mode, basepoint=base).ok
            outcomes.add(verdict.ok)
            if not verdict.ok:
                assert g.is_connected_subset(verdict.witness)
                assert verdict.degree == sum(m[v] for v in verdict.witness)
                assert verdict.bound == threshold(g, pol, verdict.witness)
                assert verdict.degree <= verdict.bound
    assert outcomes == {True, False}


def test_is_balanced_matches_exhaustive_oracle():
    rng = random.Random(30)
    outcomes = set()
    for _ in range(80):
        g = random_connected_graph(rng, max_vertices=6)
        k = rng.randint(-2, 2)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=6)
        if tau is None:
            continue
        verdict = is_balanced(g, tau, k)
        assert verdict.ok == balanced_exhaustive(g, tau, k).ok
        outcomes.add(verdict.ok)
    assert outcomes == {True, False}


def test_enumerate_does_not_call_check_stability(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_stable called check_stability")

    expected = enumerate_stable(banana(), CAN0, QSTABLE)
    monkeypatch.setattr(stability, "check_stability", refuse)
    assert stability.enumerate_stable(banana(), CAN0, QSTABLE) == expected


def test_enumerate_leaves_no_cyclic_garbage():
    graph = banana()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert enumerate_stable(graph, CAN0, QSTABLE)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def count_thresholds(monkeypatch) -> list:
    """Record every call of ``stability.threshold`` from now on."""
    calls = []
    real = stability.threshold

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "threshold", counted)
    return calls


def work_of(action) -> tuple:
    """``action()`` and the counts it added to ``stats.COUNTS``."""
    before = Counter(stats.COUNTS)
    return action(), stats.COUNTS - before


def test_check_computes_rows_up_to_its_witness_only(monkeypatch):
    g = path3()
    calls = count_thresholds(monkeypatch)
    # v1 = -5 breaks the first row, the singleton v1: one row read, one level
    # built, and one threshold, the witness's bound
    verdict, work = work_of(lambda: check_stability(g, CAN0, {"v1": -5, "v2": 2, "v3": 3}, QSTABLE))
    assert verdict.witness == ("v1",) and len(calls) == 1
    assert work == {"stability.rows": 1, "graphs.subsets": 3}


def test_passing_check_computes_one_threshold_per_connected_subset(monkeypatch):
    # one integer row per connected subset, no threshold, and no subset
    # rendered as a tuple of ids, in a passing check and a passing balanced
    g = path3()
    rows = len(path3().connected_subsets())
    calls = count_thresholds(monkeypatch)

    def render(*args):
        raise AssertionError("a subset was rendered as ids")

    monkeypatch.setattr(DualGraph, "_members", render)
    monkeypatch.setattr(DualGraph, "connected_subsets", render)
    verdict, work = work_of(lambda: check_stability(g, CAN0, {"v1": 0, "v2": 0, "v3": 0}, QSTABLE))
    assert verdict.ok and not calls and work == {"stability.rows": rows, "graphs.subsets": rows}
    verdict, work = work_of(lambda: is_balanced(g, [0], 0))
    assert verdict.ok and work == {"stability.rows": rows}


def test_enumerate_computes_each_row_once(monkeypatch):
    # K_4 with every edge doubled: each row read once and no threshold, for
    # the box (the singleton rows give it) or for any candidate
    ids = ("a", "b", "c", "d")
    g = DualGraph([(v, 0, [1] if v == "a" else []) for v in ids],
                  [(v, w) for i, v in enumerate(ids) for w in ids[i + 1:]] * 2)
    calls = count_thresholds(monkeypatch)
    found, work = work_of(lambda: enumerate_stable(g, CAN0, QSTABLE))
    assert len(found) > 1 and not calls
    assert work["stability.rows"] == len(g.connected_subsets()) == 14


def _star13() -> DualGraph:
    """Genus-1 leaves around a genus-0 centre holding marking 1: 13 vertices."""
    leaves = [f"l{i:02d}" for i in range(12)]
    return DualGraph([("c", 0, [1])] + [(v, 1, []) for v in leaves],
                     [("c", v) for v in leaves])


def test_a_singleton_witness_builds_only_the_first_level():
    # the 13 singletons are built and the first two read: l00 is the second
    g = _star13()
    m = {v: 0 for v in g.ids}
    m["l00"], m["l11"] = -4, 4
    verdict, work = work_of(lambda: check_stability(g, CAN0, m, QSTABLE))
    assert verdict.witness == ("l00",) and len(g._levels) == 1
    assert work == {"graphs.subsets": 13, "stability.rows": 2}
    g = _star13()
    # k = 1 asks each leaf for a leg sum of at least 1/2, and leaves have no legs
    verdict, work = work_of(lambda: is_balanced(g, [2 * g.g - 2], 1))
    assert verdict.witness == ("l00",) and len(g._levels) == 1
    assert work == {"graphs.subsets": 13, "stability.rows": 2}


def test_a_pass_reads_every_level_once():
    # each subset is built once, by the first scan, and read once per scan
    subsets = len(_star13().connected_subsets())
    g = _star13()
    verdict, work = work_of(lambda: check_stability(g, CAN0, {v: 0 for v in g.ids}, QSTABLE))
    assert verdict.ok and work == {"graphs.subsets": subsets, "stability.rows": subsets}
    verdict, work = work_of(lambda: is_balanced(g, [0] * g.n, 0))
    assert verdict.ok and work == {"stability.rows": subsets}
    assert len(g._levels) == 12


@pytest.mark.parametrize("mode", [SEMISTABLE, STABLE, QSTABLE])
def test_unknown_basepoint_is_refused_in_every_mode(mode):
    g = two_vertex_tree()
    m = {"v1": 0, "v2": 0}
    single = DualGraph([("v1", 2, [1])], [])
    calls = [lambda: check_stability(g, CAN0, m, mode, basepoint="zz"),
             lambda: enumerate_stable(g, CAN0, mode, basepoint="zz"),
             lambda: enumerate_stable(single, CAN0, mode, basepoint="zz"),
             lambda: stability_exhaustive(g, CAN0, m, mode, basepoint="zz"),
             lambda: brute_force_stable(g, CAN0, mode, basepoint="zz"),
             lambda: brute_force_stable(single, CAN0, mode, basepoint="zz")]
    for call in calls:
        with pytest.raises(JacstabError) as err:
            call()
        assert err.value.code == "BAD_INPUT" and "unknown basepoint vertex 'zz'" in str(err.value)
    # a known basepoint is accepted, and only q-stability reads it
    for base in g.ids:
        assert (check_stability(g, CAN0, m, mode, basepoint=base)
                == stability_exhaustive(g, CAN0, m, mode, basepoint=base))
        assert (enumerate_stable(g, CAN0, mode, basepoint=base)
                == brute_force_stable(g, CAN0, mode, basepoint=base))
        if mode != QSTABLE:
            assert (check_stability(g, CAN0, m, mode, basepoint=base)
                    == check_stability(g, CAN0, m, mode))
            assert enumerate_stable(g, CAN0, mode, basepoint=base) == enumerate_stable(g, CAN0, mode)


@pytest.mark.parametrize("mode", [SEMISTABLE, STABLE, QSTABLE])
def test_one_component_curve_needs_no_basepoint(mode):
    # no proper subcurve, so no inequality reads a basepoint: check and
    # enumerate agree without one, and an unknown one is still refused
    single = DualGraph([("a", 2, [])], [], n=0)
    m = {"a": 0}
    for check in (check_stability, stability_exhaustive):
        for base in (None, "a"):
            verdict = check(single, CAN0, m, mode, basepoint=base)
            assert verdict.ok and verdict.mode == mode and verdict.witness is None
        with pytest.raises(JacstabError) as err:
            check(single, CAN0, m, mode, basepoint="zz")
        assert err.value.code == "BAD_INPUT"
    assert enumerate_stable(single, CAN0, mode) == [m]
    # two components still need one in q-stable mode
    unmarked = DualGraph([("v1", 2, []), ("v2", 2, [])], [("v1", "v2")], n=0)
    if mode == QSTABLE:
        for check in (check_stability, stability_exhaustive):
            with pytest.raises(JacstabError) as err:
                check(unmarked, CAN0, {"v1": 0, "v2": 0}, mode)
            assert err.value.code == "NO_BASEPOINT"


def _answer(call):
    """What ``call()`` returns, or ``("refused", code)`` when it refuses."""
    try:
        return call()
    except JacstabError as err:
        return "refused", err.code


def test_answers_survive_a_vertex_renaming():
    # a renaming that changes the sorted order of the ids moves every mask,
    # parent position and the search's vertex order: enumerate gives the
    # renamed set, check, balanced and locus the same verdicts, a FAIL a
    # violated connected subcurve (not always the renamed one) and a refusal
    # the same code; a fifth of the custom q's have no integral degree
    rng = random.Random(43)
    seen = Counter()
    while seen["graphs"] < 60:
        g = multigraph(rng, max_vertices=6)
        if len(g.ids) == 1:
            continue  # one id has only one order
        new = sorted(g.ids)
        while new == sorted(new):
            new = [f"v{i}" for i in rng.sample(range(10, 100), len(g.ids))]
        name = dict(zip(g.ids, new))
        h = DualGraph([(name[v], g.genus_of[v], g.legs_of[v]) for v in g.ids],
                      [(name[a], name[b]) for a, b in g.edges], n=g.n)
        q = {v: Fraction(rng.randint(-9, 9), 7) for v in g.ids}
        if rng.random() < 0.8:
            q[g.ids[0]] -= sum(q.values()) % 1
        pols = [(CAN0, CAN0), (GM1, GM1),
                (Polarization.custom(q), Polarization.custom({name[v]: x for v, x in q.items()}))]
        for pol, renamed in pols:
            for mode in (SEMISTABLE, STABLE, QSTABLE):
                basepoint = rng.choice([None, rng.choice(g.ids)])
                moved = None if basepoint is None else name[basepoint]
                found = _answer(lambda: enumerate_stable(g, pol, mode, basepoint))
                got = _answer(lambda: enumerate_stable(h, renamed, mode, moved))
                if isinstance(found, list):
                    assert ({frozenset((name[v], d) for v, d in r.items()) for r in found}
                            == {frozenset(r.items()) for r in got}), (g, pol, mode, basepoint)
                    seen["enumerate"] += 1
                else:
                    assert got == found, (g, pol, mode, basepoint)
                m = {v: rng.randint(-2, 2) for v in g.ids}
                if isinstance(found, list) and found and rng.random() < 0.5:
                    m = rng.choice(found)
                elif isinstance(found, list):
                    m[g.ids[-1]] += pol.target_degree(g) - sum(m.values())
                m_h = {name[v]: d for v, d in m.items()}
                verdict = _answer(lambda: check_stability(g, pol, m, mode, basepoint))
                after = _answer(lambda: check_stability(h, renamed, m_h, mode, moved))
                if isinstance(verdict, tuple):
                    assert after == verdict, (g, pol, m, mode, basepoint)
                    seen["refused"] += 1
                    continue
                assert after.ok == verdict.ok, (g, pol, m, mode, basepoint)
                seen["pass" if after.ok else "fail"] += 1
                if not after.ok:
                    W = after.witness
                    base = stability.resolve_basepoint(h, moved) if mode == QSTABLE else None
                    degree, bound = sum(m_h[v] for v in W), threshold(h, renamed, W)
                    strict = mode == STABLE or base in W
                    assert W in h.connected_subsets(len(W)), (h, W)
                    assert degree < bound or strict and degree == bound, (h, W, m_h, mode)
                    assert (after.degree, after.bound, after.strict) == (degree, bound, strict)
                    seen["other witness"] += W != tuple(sorted(name[v] for v in verdict.witness))
        for _ in range(4):
            k = rng.randint(-1, 1)
            tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=3)
            if tau is None:
                k, tau = 0, [0] * g.n
            if rng.random() < 0.2:
                tau[0] += 1  # refused: the sum is off
            balanced = _answer(lambda: is_balanced(g, tau, k).ok)
            assert _answer(lambda: is_balanced(h, tau, k).ok) == balanced, (g, tau, k)
            assert (_answer(lambda: locus_membership(h, tau, k))
                    == _answer(lambda: locus_membership(g, tau, k))), (g, tau, k)
            seen["balanced", balanced] += 1
        seen["graphs"] += 1
    assert seen["enumerate"] >= 450 and min(seen["pass"], seen["fail"]) >= 200, seen
    assert seen["refused"] >= 20 and seen["other witness"] >= 20, seen
    assert min(seen["balanced", True], seen["balanced", False]) >= 20, seen
    assert seen["balanced", ("refused", "TAU_SUM")] >= 20, seen
