import json
import random

import pytest

from jacstab import DualGraph, JacstabError
from common import banana, two_vertex_tree, path3, tree_with_loop, single_vertex, multigraph

from jacstab.corpus import random_connected_graph, random_treelike_graph


def test_validate_two_vertex_tree_ok():
    g = two_vertex_tree(g1=1, g2=1)
    assert g.validate() == []
    assert g.g == 2


def test_validate_unstable_single_vertex():
    g = DualGraph([("v1", 0, [])], [], n=0)
    codes = {v["code"] for v in g.validate()}
    assert "VERTEX_UNSTABLE" in codes


def test_validate_banana_ok_and_genus():
    g = banana()
    assert g.validate() == []
    # total genus = vertex genera plus first Betti number
    assert g.g == 1 + (2 - 2 + 1) == 2


def test_validate_reports_negative_genus():
    g = DualGraph([("a", -1, [1]), ("b", 1, [])], [("a", "b")], n=1)
    assert [v for v in g.validate() if v["code"] == "NEGATIVE_GENUS"] == [
        {"code": "NEGATIVE_GENUS", "vertex": "a", "message": "vertex a has genus -1 < 0"}]


def test_validate_reports_disconnected_and_bad_legs():
    g = DualGraph([("a", 1, [1]), ("b", 1, [1])], [], n=2)
    codes = {v["code"] for v in g.validate()}
    assert "NOT_CONNECTED" in codes
    assert "LEGS_NOT_PARTITION" in codes


def test_leg_listed_twice_on_one_vertex_is_reported():
    # legs are kept as a set, so the repeat is counted at construction and
    # reported by validate, not merged away
    g = DualGraph([("a", 1, [1, 1])], [])
    assert g.n == 1
    assert g.validate() == [{"code": "LEGS_NOT_PARTITION", "leg": 1,
                             "message": "leg 1 appears twice on a"}]
    g = DualGraph([("a", 1, [2, 1, 2, 2]), ("b", 1, [3, 3])], [("a", "b")])
    assert [v["message"] for v in g.validate()] == ["leg 2 appears 3 times on a",
                                                    "leg 3 appears twice on b"]
    with pytest.raises(JacstabError) as err:
        DualGraph.from_json_dict({"vertices": [{"id": "a", "genus": 1, "legs": [1, 1]}],
                                  "edges": []})
    assert err.value.code == "INVALID_GRAPH"
    # the leg types are checked before the repeats are counted
    with pytest.raises(JacstabError) as err:
        DualGraph([("a", 1, [1, 2, []])], [])
    assert err.value.code == "BAD_INPUT"


def test_leg_partition_check_matches_the_set_rule_for_every_n():
    # validate compares the legs with 1..n without building 1..n; its
    # violations must be those of the plain set comparison, n <= 0 included
    for legs_a, legs_b in (([1], [2]), ([1, 2], []), ([2], [3]), ([], []), ([1], [1])):
        seen = set(legs_a) | set(legs_b)
        for n in range(-2, 5):
            graph = DualGraph([("a", 1, legs_a), ("b", 1, legs_b)], [("a", "b")], n=n)
            found = [v for v in graph.validate()
                     if v["code"] == "LEGS_NOT_PARTITION" and "leg" not in v]
            want = ([{"code": "LEGS_NOT_PARTITION",
                      "message": f"legs {sorted(seen)} do not partition 1..{n}"}]
                    if seen != set(range(1, n + 1)) else [])
            assert found == want, (legs_a, legs_b, n)


def test_kappa_banana():
    assert banana().kappa(["v1"]) == 2


def test_kappa_path_middle():
    assert path3().kappa(["v2"]) == 2


def test_kappa_ignores_loops():
    assert tree_with_loop().kappa(["b"]) == 1


def test_levels_carry_kappa_and_omega():
    # each level record renders to connected_subsets' tuples, its kappa equals
    # the definition, its parent is itself less the added vertex, and omega
    # summed by parent equals omega_degree, on graphs with loops and edges of
    # multiplicity up to 3
    rng = random.Random(25)
    sizes, multiplicities, loops = set(), set(), 0
    for _ in range(100):
        g = multigraph(rng)
        sizes.add(len(g.ids))
        multiplicities.update(g.edges.count(e) for e in g.nonloop_edges())
        loops += len(g.edges) - len(g.nonloop_edges())
        omega = [g.omega_degree([v]) for v in g.ids]
        below = (0,)
        for k, (level, omegas) in enumerate(g._sums(omega), 1):
            subsets = g.connected_subsets(k)
            assert tuple(map(g._members, level.masks)) == subsets
            for Y, mask, parent, u, kappa, om in zip(subsets, *level, omegas):
                assert kappa == g.kappa(Y) and om == g.omega_degree(Y), (g, Y)
                added = 1 << (len(g.ids) - 1 - u)
                assert mask & added and below[parent] == mask ^ added, (g, Y)
            below = level.masks
    assert sizes == set(range(1, 10)) and multiplicities == {1, 2, 3} and loops


def test_kappa_rejects_empty_and_full():
    g = banana()
    with pytest.raises(JacstabError) as err:
        g.kappa([])
    assert err.value.code == "EMPTY_OR_FULL"
    with pytest.raises(JacstabError) as err:
        g.kappa(["v1", "v2"])
    assert err.value.code == "EMPTY_OR_FULL"


def test_omega_degree_banana_component():
    assert banana().omega_degree(["v1"]) == 0  # 2*0 - 2 + 2


def test_omega_degree_full_graph_is_2g_minus_2():
    for g in (banana(), two_vertex_tree(), path3(), tree_with_loop()):
        assert g.omega_degree(g.ids) == 2 * g.g - 2


def test_omega_degree_two_vertex_tree():
    assert two_vertex_tree(g1=1, g2=1).omega_degree(["v1"]) == 1


def test_omega_degree_rejects_empty():
    with pytest.raises(JacstabError) as err:
        banana().omega_degree([])
    assert err.value.code == "EMPTY"


def test_empty_subcurve_has_no_genus_and_is_not_connected():
    with pytest.raises(JacstabError) as err:
        banana().subcurve_genus([])
    assert err.value.code == "EMPTY"
    assert banana().is_connected_subset([]) is False


def test_classify_tree_with_loop():
    c = tree_with_loop().classify()
    assert c.treelike and not c.compact_type and not c.banana_like


def test_classify_banana():
    c = banana().classify()
    assert not c.treelike and c.banana_like


def test_classify_single_vertex():
    c = single_vertex(genus=2, legs=[1]).classify()
    assert c.treelike and c.compact_type and not c.banana_like


def test_kappa_symmetric_under_complement():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=6)
        for Y in g.proper_subsets():
            comp = tuple(v for v in g.ids if v not in Y)
            assert g.kappa(Y) == g.kappa(comp)


def test_omega_degree_additive_and_connected_identity():
    rng = random.Random(12)
    for _ in range(25):
        g = random_connected_graph(rng, max_vertices=6)
        assert g.omega_degree(g.ids) == 2 * g.g - 2
        for Y in g.connected_subsets():
            # deg omega on a connected proper subcurve: 2*genus(Y) - 2 + kappa(Y)
            assert g.omega_degree(Y) == 2 * g.subcurve_genus(Y) - 2 + g.kappa(Y)
            assert g.omega_degree(Y) == sum(g.omega_degree((v,)) for v in Y)


def test_random_corpus_is_valid():
    rng = random.Random(13)
    for _ in range(40):
        assert random_connected_graph(rng, max_vertices=8).validate() == []
        assert random_treelike_graph(rng, max_vertices=10).validate() == []


def test_total_genus_identity_on_corpus():
    # recompute through the subcurve-genus route: vertex genera plus b1
    rng = random.Random(15)
    for _ in range(30):
        g = random_connected_graph(rng, max_vertices=8)
        assert g.subcurve_genus(g.ids) == g.g
        assert g.g == sum(g.genus_of.values()) + len(g.edges) - len(g.ids) + 1


def test_treelike_generator_is_treelike():
    rng = random.Random(14)
    for _ in range(40):
        assert random_treelike_graph(rng, max_vertices=10).classify().treelike


def test_json_round_trip():
    g = banana()
    data = g.to_json_dict()
    again = DualGraph.from_json_dict(data)
    assert again.to_json_dict() == data
    assert DualGraph.from_json(json.dumps(data)).to_json_dict() == data


def test_json_rejects_invalid_graph_with_structured_errors():
    bad = {"n": 0, "vertices": [{"id": "a", "genus": 0, "legs": []}], "edges": []}
    with pytest.raises(JacstabError) as err:
        DualGraph.from_json_dict(bad)
    assert err.value.code == "INVALID_GRAPH"
    assert err.value.details["violations"]


def test_json_rejects_malformed_payload():
    with pytest.raises(JacstabError) as err:
        DualGraph.from_json("{not json")
    assert err.value.code == "BAD_INPUT"
    with pytest.raises(JacstabError) as err:
        DualGraph.from_json_dict({"vertices": [{"id": "a"}]})
    assert err.value.code == "BAD_INPUT"


@pytest.mark.parametrize("edge", ["ab", {"a": 0, "b": 1}, "a", 7])
def test_json_edge_is_a_list_of_two_ids(edge):
    # the JSON route hands each edge to the constructor as written
    data = {"vertices": [{"id": "a", "genus": 0, "legs": [1, 2, 3]},
                         {"id": "b", "genus": 0, "legs": []}],
            "edges": [["a", "b"], edge, ["a", "b"]]}
    with pytest.raises(JacstabError) as err:
        DualGraph.from_json(json.dumps(data))
    assert err.value.code == "BAD_INPUT" and "malformed edge" in str(err.value)
    data["edges"] = [["a", "b"]] * 3
    assert len(DualGraph.from_json(json.dumps(data)).edges) == 3


def test_unknown_edge_vertex_rejected():
    with pytest.raises(JacstabError):
        DualGraph([("a", 1, [1])], [("a", "zz")])


def _mask_scan(g: DualGraph) -> tuple:
    """Connected subsets the slow way: every mask, filtered, then sorted."""
    V = len(g.ids)
    found = [tuple(g.ids[i] for i in range(V) if mask >> i & 1)
             for mask in range(1, (1 << V) - 1)]
    found = [Y for Y in found if g.is_connected_subset(Y)]
    return tuple(sorted(found, key=lambda Y: (len(Y), Y)))


def _subset_graphs() -> list:
    ids5 = ["a", "b", "c", "d", "e"]
    named = [
        single_vertex(),
        banana(),
        tree_with_loop(),
        path3(),
        DualGraph([(v, 1, []) for v in ids5],                        # K_5
                  [(a, b) for i, a in enumerate(ids5) for b in ids5[i + 1:]]),
        DualGraph([(v, 1, []) for v in ids5],                        # path
                  [(ids5[i], ids5[i + 1]) for i in range(4)]),
        DualGraph([("a", 0, [1]), ("b", 0, [2]), ("c", 1, [])],      # multi-edges, loops
                  [("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"), ("b", "c"),
                   ("c", "c"), ("a", "a")]),
        DualGraph([("a", 1, [1]), ("b", 1, []), ("c", 1, []), ("d", 1, [])],
                  [("a", "b"), ("c", "d"), ("c", "c")]),             # disconnected
    ]
    rng = random.Random(16)
    for V in range(2, 11):
        ids = [f"v{i}" for i in range(V)]
        for _ in range(6):
            edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, V)]
            edges += [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 2 * V))]
            edges += [(v, v) for v in ids if rng.random() < 0.2]
            named.append(DualGraph([(v, 1, []) for v in ids], edges))
    return named


def test_connected_subsets_match_mask_scan():
    for g in _subset_graphs():
        assert g.connected_subsets() == _mask_scan(g), g


def test_levels_concatenate_to_all_connected_subsets():
    # per-size calls first on one copy of each graph, the whole call first on
    # another: either way the levels join up into the mask scan
    for g in _subset_graphs():
        V = len(g.ids)
        fresh = DualGraph([(v, g.genus_of[v], g.legs_of[v]) for v in g.ids], g.edges)
        levels = [fresh.connected_subsets(k) for k in range(1, V)]
        assert all(len(Y) == k for k, level in enumerate(levels, 1) for Y in level)
        assert tuple(Y for level in levels for Y in level) == _mask_scan(g), g
        assert fresh.connected_subsets() == g.connected_subsets()
        assert [g.connected_subsets(k) for k in range(1, V)] == levels
        for k in (-1, 0, V, V + 1, V + 9):
            assert g.connected_subsets(k) == fresh.connected_subsets(k) == (), (g, k)


@pytest.mark.parametrize("vertices, edges, n, message", [
    ([("a", 1.5, [1])], [], None, "genus must be an integer, got 1.5"),
    ([("a", True, [1])], [], None, "genus must be an integer, got True"),
    ([("a", "1", [1])], [], None, "genus must be an integer, got '1'"),
    ([("a", 1, [1.7])], [], None, "leg must be an integer, got 1.7"),
    ([("a", 1, [1])], [], "1", "n must be an integer, got '1'"),
    ([("a", 1, [1])], [], False, "n must be an integer, got False"),
    ([("a", 1, 1)], [], None, "malformed vertex ('a', 1, 1)"),
    ([("a", 1)], [], None, "malformed vertex ('a', 1)"),
    ([("a", 1, [1])], [(["a"], "a")], None, "references unknown vertex"),
    ([("a", 1, [1])], [("a", 1)], None, "references unknown vertex"),
    ([("a", 1, [1])], [("a",)], None, "not a list or tuple of two ids"),
    ([("a", 1, [1]), ("b", 1, [])], ["ab"], None, "not a list or tuple of two ids"),
    ([("a", 1, [1]), ("b", 1, [])], [{"a": 0, "b": 1}], None, "not a list or tuple of two ids"),
    ([("a", 1, [1]), ("b", 1, [])], [{"a", "b"}], None, "not a list or tuple of two ids"),
    ([("a", 1, [1]), ("b", 1, [])], [iter(("a", "b"))], None, "not a list or tuple of two ids"),
    ([("a", 1, [1]), ("b", 1, [])], [("a", "b", "a")], None, "not a list or tuple of two ids"),
    ([("", 1, [1])], [], None, "vertex id must be a non-empty string, got ''"),
    ([(1, 1, [1])], [], None, "vertex id must be a non-empty string, got 1"),
    ([("a", 1, [1]), ("a", 0, [])], [], None, "duplicate vertex ids"),
    ([], [], None, "graph needs at least one vertex"),
], ids=["float-genus", "bool-genus", "str-genus", "float-leg", "str-n", "bool-n",
        "legs-not-iterable", "short-vertex", "unhashable-endpoint", "int-endpoint",
        "short-edge", "str-edge", "dict-edge", "set-edge", "iterator-edge", "long-edge",
        "empty-id", "int-id", "duplicate-ids", "no-vertices"])
def test_constructor_is_strict(vertices, edges, n, message):
    with pytest.raises(JacstabError) as err:
        DualGraph(vertices, edges, n=n)
    assert err.value.code == "BAD_INPUT" and message in str(err.value)
