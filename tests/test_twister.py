import random

import pytest

from jacstab import (DualGraph, JacstabError, Polarization, QSTABLE,
                     laplacian, twist_multidegree, reduce_treelike,
                     branch_coefficients, branch_side, boundary_multidegree,
                     base_multidegree, is_balanced, check_stability, enumerate_stable)
from jacstab.corpus import (random_connected_graph, random_treelike_graph,
                            random_zero_sum, random_tau)
from jacstab.oracles import solve_twister
from jacstab.twister import reduction_root, split_at_edge
from common import banana, two_vertex_tree, path3, star, tree_with_loop


def test_laplacian_shape():
    g = tree_with_loop()
    L = laplacian(g)
    for v in g.ids:
        assert sum(L[v].values()) == 0
        for w in g.ids:
            assert L[v][w] == L[w][v]
    # the loop at b contributes nothing
    assert L["b"]["b"] == 1
    assert L["a"]["b"] == -1


def test_twist_two_vertex_tree():
    got = twist_multidegree(two_vertex_tree(), {"v1": 0, "v2": 1})
    assert got == {"v1": 1, "v2": -1}


def test_twist_all_ones_is_zero():
    for g in (banana(), path3(), star(), tree_with_loop()):
        assert twist_multidegree(g, {v: 1 for v in g.ids}) == {v: 0 for v in g.ids}


def test_twist_banana_doubles_flow():
    assert twist_multidegree(banana(), {"v1": 0, "v2": 1}) == {"v1": 2, "v2": -2}


def test_twist_matches_laplacian_oracle():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected_graph(rng, max_vertices=6)
        gamma = {v: rng.randint(-3, 3) for v in g.ids}
        L = laplacian(g)
        expected = {v: -sum(L[v][w] * gamma[w] for w in g.ids) for v in g.ids}
        got = twist_multidegree(g, gamma)
        assert got == expected
        assert sum(got.values()) == 0


def test_reduce_path_example():
    g = path3()
    result = reduce_treelike(g, {"v1": 2, "v2": -3, "v3": 1})
    assert result.gamma == {"v1": 1, "v2": -1, "v3": 0}
    assert result.final == {"v1": 0, "v2": 0, "v3": 0}
    assert [s.leaf for s in result.trace] == ["v1", "v2"]
    assert [s.coefficient for s in result.trace] == [2, -1]
    assert [s.branch for s in result.trace] == [("v1",), ("v1", "v2")]
    # replaying the trace gives the intermediate degrees (2,-3,1)->(0,-1,1)->(0,0,0)
    m = {"v1": 2, "v2": -3, "v3": 1}
    seen = [dict(m)]
    for step in result.trace:
        tw = twist_multidegree(g, {v: (step.coefficient if v in step.branch else 0)
                                   for v in g.ids})
        m = {v: m[v] + tw[v] for v in g.ids}
        seen.append(dict(m))
    assert seen == [{"v1": 2, "v2": -3, "v3": 1},
                    {"v1": 0, "v2": -1, "v3": 1},
                    {"v1": 0, "v2": 0, "v3": 0}]


def test_reduce_zero_multidegree_is_trivial():
    g = path3()
    result = reduce_treelike(g, {v: 0 for v in g.ids})
    assert result.gamma == {v: 0 for v in g.ids}
    assert result.trace == ()


def test_reduce_star_example():
    g = star()
    result = reduce_treelike(g, {"a": 1, "b": 1, "d": -2, "c": 0}, root="c")
    assert result.gamma == {"a": 1, "b": 1, "d": -2, "c": 0}


def test_reduction_root_is_not_the_stability_basepoint():
    # marking 1's vertex, else the first vertex: gamma's constant, not a basepoint
    assert reduction_root(path3()) == "v3"
    unmarked = DualGraph([("a", 1, []), ("b", 1, [])], [("a", "b")])
    assert reduction_root(unmarked) == "a"
    assert reduce_treelike(unmarked, {"a": 1, "b": -1}).gamma == {"a": 0, "b": -1}
    with pytest.raises(JacstabError) as err:
        branch_coefficients(unmarked, [], 0)
    assert err.value.code == "NO_BASEPOINT"


def test_reduce_rejects_non_treelike_and_nonzero_total():
    with pytest.raises(JacstabError) as err:
        reduce_treelike(banana(), {"v1": 0, "v2": 0})
    assert err.value.code == "NOT_TREELIKE"
    with pytest.raises(JacstabError) as err:
        reduce_treelike(path3(), {"v1": 1, "v2": 0, "v3": 0})
    assert err.value.code == "NONZERO_TOTAL"


def test_reduce_refuses_a_chosen_vertex_that_is_not_a_leaf():
    # v2 is the middle of the path: peeling it would split the remaining tree
    with pytest.raises(JacstabError) as err:
        reduce_treelike(path3(), {"v1": 1, "v2": 0, "v3": -1}, choose_leaf=lambda leaves: "v2")
    assert err.value.code == "BAD_INPUT" and str(err.value) == "'v2' is not a peelable leaf"


def test_reduce_matches_exact_solve_and_order_independent():
    rng = random.Random(32)
    for _ in range(40):
        g = random_treelike_graph(rng, max_vertices=12)
        m = random_zero_sum(rng, list(g.ids))
        root = g.marking_vertex(1) or g.ids[0]
        result = reduce_treelike(g, m)
        expected = solve_twister(g, m, root)
        assert result.gamma == expected
        assert all(v == 0 for v in result.final.values())
        # twisting by gamma cancels m exactly
        tw = twist_multidegree(g, result.gamma)
        assert {v: tw[v] + m[v] for v in g.ids} == {v: 0 for v in g.ids}
        # any peeling order gives the same normalized gamma
        last = reduce_treelike(g, m, choose_leaf=lambda leaves: leaves[-1])
        shuffled = reduce_treelike(g, m, choose_leaf=lambda leaves: rng.choice(leaves))
        assert last.gamma == expected and shuffled.gamma == expected


def test_reduction_trace_replays_on_random_trees():
    # each step twists by its coefficient on a connected branch that hangs off
    # one edge, holds its leaf but not the root, and carries the current degree
    rng = random.Random(36)
    steps = 0
    for _ in range(60):
        g = random_treelike_graph(rng, max_vertices=12)
        m = random_zero_sum(rng, list(g.ids))
        root = reduction_root(g)
        for choose in (None, lambda leaves: leaves[-1], lambda leaves: rng.choice(leaves)):
            cur = dict(m)
            for step in reduce_treelike(g, m, choose_leaf=choose).trace:
                assert step.leaf in step.branch and root not in step.branch
                assert g.is_connected_subset(step.branch) and g.kappa(step.branch) == 1
                assert step.coefficient == sum(cur[v] for v in step.branch)
                tw = twist_multidegree(g, {v: (step.coefficient if v in step.branch else 0)
                                           for v in g.ids})
                cur = {v: cur[v] + tw[v] for v in g.ids}
                steps += 1
            assert cur == dict.fromkeys(g.ids, 0)
    assert steps > 500


def test_treelike_orbit_contains_every_total_zero_multidegree():
    # class group of a treelike graph is trivial: the twister orbit of the
    # base multidegree covers every total-zero vector, so uniqueness of the
    # q-stable representative is exactly enumerate_stable == {0}
    rng = random.Random(33)
    pol = Polarization.canonical_zero()
    for _ in range(10):
        g = random_treelike_graph(rng, max_vertices=4)
        for _ in range(10):
            m = random_zero_sum(rng, list(g.ids), bound=2)
            gamma = solve_twister(g, m, g.ids[0])  # integral for treelike graphs
            assert twist_multidegree(g, gamma) == {v: -m[v] for v in g.ids}
        assert enumerate_stable(g, pol, QSTABLE) == [{v: 0 for v in g.ids}]


def test_branch_coefficients_two_vertex_examples():
    g = two_vertex_tree(g1=1, g2=1)
    coeffs = branch_coefficients(g, [5, -3], 1)
    assert coeffs == {("v1", "v2"): -4}
    # matches k(1-2h) + sum of tau over branch legs with (h, A) = (1, {2})
    assert -4 == 1 * (1 - 2 * 1) + (-3)
    coeffs = branch_coefficients(g, [1, -1], 0)
    assert coeffs == {("v1", "v2"): -1}


def test_branch_coefficients_balanced_graph_all_zero():
    g = two_vertex_tree(g1=1, g2=1)
    # per-vertex leg sums equal k*deg-omega: balanced, so branch sums vanish
    assert is_balanced(g, [1, 1], 1).ok
    assert branch_coefficients(g, [1, 1], 1) == {("v1", "v2"): 0}


def test_branch_coefficient_identity_random():
    rng = random.Random(34)
    cases = 0
    for _ in range(60):
        g = random_treelike_graph(rng, max_vertices=8, max_genus=1)
        if g.g > 5:
            continue
        k = rng.randint(-2, 2)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=5)
        if tau is None:
            continue
        coeffs = branch_coefficients(g, tau, k)
        # every vertex as the basepoint, the default one (None) first
        for base in (None, *g.ids):
            for edge, c in branch_coefficients(g, tau, k, basepoint=base).items():
                Z = branch_side(g, edge, basepoint=base)
                h = g.subcurve_genus(Z)
                legs = [i for v in Z for i in g.legs_of[v]]
                assert c == k * (1 - 2 * h) + sum(tau[i - 1] for i in legs)
                assert g.omega_degree(Z) == 2 * h - 1
                # the branch flips, and the coefficient with it, exactly when
                # the basepoint crosses the edge from the default one
                flipped = base is not None and base in branch_side(g, edge)
                assert c == (-coeffs[edge] if flipped else coeffs[edge])
            assert boundary_multidegree(g, tau, k, basepoint=base) == dict.fromkeys(g.ids, 0)
        cases += 1
    assert cases >= 30


def test_branch_coefficients_errors():
    with pytest.raises(JacstabError) as err:
        branch_coefficients(banana(), [0, 0], 0)
    assert err.value.code == "NOT_TREELIKE"
    with pytest.raises(JacstabError) as err:
        branch_coefficients(two_vertex_tree(), [1, 0], 0)
    assert err.value.code == "TAU_SUM"


TRIANGLE = DualGraph([("a", 1, [1]), ("b", 1, []), ("c", 1, [])],
                     [("a", "b"), ("b", "c"), ("a", "c")])


@pytest.mark.parametrize("graph, edge, code", [
    (two_vertex_tree(), ("v1", "v3"), "BAD_INPUT"),
    (path3(), ("v1", "v3"), "BAD_INPUT"),
    (banana(), ("v1", "v2"), "NOT_TREELIKE"),
    (tree_with_loop(), ("b", "b"), "NOT_TREELIKE"),
    (TRIANGLE, ("a", "b"), "NOT_TREELIKE"),
], ids=["endpoint-not-a-vertex", "not-an-edge", "doubled-edge", "loop", "cycle-edge"])
def test_split_needs_one_separating_edge(graph, edge, code):
    for split in (split_at_edge, branch_side):
        with pytest.raises(JacstabError) as err:
            split(graph, edge)
        assert err.value.code == code

def test_boundary_multidegree_is_zero():
    g = two_vertex_tree(g1=1, g2=1)
    assert boundary_multidegree(g, [5, -3], 1) == {"v1": 0, "v2": 0}
    p = path3()
    for tau, k in (([0], 0), ([4], 1), ([-4], -1)):
        assert boundary_multidegree(p, tau, k) == {v: 0 for v in p.ids}


def test_boundary_multidegree_balanced_case_needs_no_twists():
    g = two_vertex_tree(g1=1, g2=1)
    assert base_multidegree(g, [1, 1], 1) == {"v1": 0, "v2": 0}
    assert boundary_multidegree(g, [1, 1], 1) == {"v1": 0, "v2": 0}


def test_boundary_multidegree_random_treelike():
    rng = random.Random(35)
    cases = 0
    for _ in range(40):
        g = random_treelike_graph(rng, max_vertices=8)
        k = rng.randint(-2, 2)
        tau = random_tau(rng, g.n, k * (2 * g.g - 2), bound=6)
        if tau is None:
            continue
        assert boundary_multidegree(g, tau, k) == {v: 0 for v in g.ids}
        cases += 1
    assert cases >= 25
