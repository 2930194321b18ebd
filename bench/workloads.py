"""Seeded inputs for the three workloads, each paired with its answer check.

A workload is a sequence of rounds.  Round ``r`` of seed ``s`` is drawn from
``random.Random(f"<workload>/<s>/<r>")``, so the same seed gives the same
inputs, and every round has the same make-up (the same commands and size
classes in the same order); only the drawn graphs and twist data differ.
A run therefore measures whole rounds and its mix does not depend on how many
rounds fit into it.  Rounds are generators: each input and the data its check
needs are made just before the operation and dropped after it, so the
benchmark's own memory stays out of the workload's peak RSS.

jacstab's own corpus generators are not used, so a change to jacstab cannot
change the inputs.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import oracle
from oracle import Graph, expect

PRESETS = ("canonical0", "trivial-gm1")


@dataclass
class Op:
    """One CLI call: ``jacstab.cli.main(argv)``.

    ``exits`` are the exit codes that carry the expected kind of answer.
    ``check(exit_code, payload)`` raises :class:`Mismatch` when the answer is
    wrong.  Another exit code, an exception or output that is not JSON is a
    failed operation when ``known_fault`` is set (an input jacstab is known to
    mishandle) and a wrong answer otherwise.
    """

    command: str
    argv: list[str]
    exits: tuple[int, ...]
    check: Callable[[int, dict], None]
    known_fault: bool = False


# ----------------------------------------------------------------------
# random graphs

def vertex_ids(count: int) -> list[str]:
    return [f"v{i}" for i in range(count)]


def make_graph(rng: random.Random, V: int, extra: int, loops: int, n: int,
               max_genus: int = 1) -> dict:
    """Connected multigraph: random tree, ``extra`` more edges, ``loops`` loops.

    Legs 1..n go to random vertices; a vertex that would be unstable gets
    genus one more.  Returns the graph JSON dict.
    """
    ids = vertex_ids(V)
    edges = [[ids[rng.randrange(i)], ids[i]] for i in range(1, V)]
    for _ in range(extra):
        a, b = rng.sample(ids, 2)
        edges.append([a, b])
    for _ in range(loops):
        v = rng.choice(ids)
        edges.append([v, v])
    rng.shuffle(edges)
    legs = {v: [] for v in ids}
    for label in range(1, n + 1):
        legs[rng.choice(ids)].append(label)
    val = {v: 0 for v in ids}
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    verts = []
    for v in ids:
        genus = rng.randint(0, max_genus)
        if 2 * genus - 2 + val[v] + len(legs[v]) <= 0:
            genus += 1
        verts.append({"id": v, "genus": genus, "legs": legs[v]})
    return {"n": n, "vertices": verts, "edges": edges}


def dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def random_vector(rng: random.Random, size: int, total: int, spread: int) -> list[int]:
    """Integers in about [-spread, spread] with the given total."""
    vec = [rng.randint(-spread, spread) for _ in range(size)]
    vec[rng.randrange(size)] += total - sum(vec)
    return vec


def csv(values) -> str:
    return ",".join(str(x) for x in values)


class Unique:
    """Draws again until the input has not been seen in this run.

    Keeps CRC-32 checksums, not the inputs: a checksum collision only makes a
    generator draw again, the same way in every run, since CRC-32 (unlike
    ``hash``) does not change between processes.
    """

    def __init__(self):
        self.seen: set[int] = set()

    def fresh(self, key: str) -> bool:
        h = zlib.crc32(key.encode())
        if h in self.seen:
            return False
        self.seen.add(h)
        return True


# ----------------------------------------------------------------------
# enumerate: q-stable multidegrees of multigraphs with 4-6 vertices

# Cells of one round: (vertices, least and most spanning trees, graphs).  The
# results number the spanning trees and the search's work grows with them and
# with the 2^V subcurves, so fixed cells keep the cost mix of a round fixed.
# 40% of the operations sit in the middle cell and 20% in the heavy one, so
# the median and the 90th percentile each fall inside a cell, not between two.
ENUMERATE_CELLS = ((4, 20, 60, 3), (5, 120, 145, 4), (6, 250, 350, 1), (6, 1100, 1300, 2))


def enumerate_graph(rng: random.Random, V: int, lo: int, hi: int) -> tuple[dict, int]:
    while True:
        data = make_graph(rng, V, rng.randint(1, 3 * V), rng.choice((0, 0, 1)),
                          rng.randint(1, 3))
        trees = Graph(data).spanning_trees()
        if lo <= trees <= hi:
            return data, trees


def check_enumerate(data: dict, pol: str, trees: int):
    graph = Graph(data)
    target = oracle.target_degree(graph, pol)

    def check(code: int, payload: dict) -> None:
        found = payload["multidegrees"]
        expect(payload["count"] == len(found), "count differs from the list length")
        expect(len(found) == trees, f"{len(found)} results, {trees} spanning trees")
        seen = set()
        for m in found:
            expect(sorted(m) == graph.ids, f"keys {sorted(m)}")
            degrees = tuple(m[v] for v in graph.ids)
            expect(sum(degrees) == target, f"degree {sum(degrees)} != {target}")
            expect(oracle.stability(graph, pol, "qstable", m).first_violation() is None,
                   f"{m} is not q-stable")
            seen.add(degrees)
        expect(len(seen) == len(found), "repeated multidegree")
    return check


def enumerate_round(seed: int, r: int, unique: Unique) -> Iterator[Op]:
    rng = random.Random(f"enumerate/{seed}/{r}")
    cells = [cell[:3] for cell in ENUMERATE_CELLS for _ in range(cell[3])]
    for i, (V, lo, hi) in enumerate(cells):
        pol = PRESETS[(i + r) % 2]
        while True:
            data, trees = enumerate_graph(rng, V, lo, hi)
            text = dump(data)
            if unique.fresh(pol + text):
                break
        yield Op("stability enumerate",
                 ["stability", "enumerate", "--graph", text, "--pol", pol, "--mode", "qstable"],
                 (0,), check_enumerate(data, pol, trees))


# ----------------------------------------------------------------------
# derive: theta classes pushed forward from the universal curve

# (g, n) cells of one round, lightest first.  Pushforward work grows with
# |c1|^2, and |c1| grows like (g/2 + 1) 2^n.  Seven light cells at n = 4, nine
# at n = 6 (75-100 ms; the median falls among them), six at n = 7 (the 90th
# percentile falls among them) and g = 8, n = 8, the largest, once.
DERIVE_CELLS = ((2, 4), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4), (8, 4),
                (6, 6), (7, 6), (8, 6), (6, 6), (7, 6), (8, 6), (6, 6), (7, 6), (8, 6),
                (6, 7), (7, 7), (8, 7), (6, 7), (7, 7), (8, 7),
                (8, 8))


def theta_data(rng: random.Random, g: int, n: int) -> tuple[list[int], int]:
    while True:
        k = rng.randint(-2, 2)
        tau = random_vector(rng, n, k * (2 * g - 2), 3)
        if k or any(tau):
            return tau, k


def gm1_data(rng: random.Random, g: int, n: int, negative: bool = False) -> list[int]:
    while True:
        tau = random_vector(rng, n, g - 1, 3)
        if not negative or min(tau) < 0:
            return tau


def class_check(want: dict):
    def check(code: int, payload: dict) -> None:
        got = oracle.parse_class(payload)
        expect(got == want, "class differs from the closed formula")
    return check


def theta_op(g: int, n: int, tau: list[int], k: int, method: str) -> Op:
    return Op("class theta",
              ["class", "theta", "--g", str(g), "--n", str(n), f"--tau={csv(tau)}",
               f"--k={k}", "--method", method],
              (0,), class_check(oracle.theta_closed(g, n, tau, k)))


def gm1_op(g: int, n: int, tau: list[int], method: str) -> Op:
    return Op("class theta-gm1",
              ["class", "theta-gm1", "--g", str(g), "--n", str(n), f"--tau={csv(tau)}",
               "--method", method],
              (0,), class_check(oracle.theta_gm1_closed(g, n, tau)))


def derive_round(seed: int, r: int, unique: Unique) -> Iterator[Op]:
    rng = random.Random(f"derive/{seed}/{r}")
    for i, (g, n) in enumerate(DERIVE_CELLS):
        while True:
            if (i + r) % 2 == 0:
                tau, k = theta_data(rng, g, n)
                op = theta_op(g, n, tau, k, "derive")
            else:
                op = gm1_op(g, n, gm1_data(rng, g, n), "derive")
            if unique.fresh(" ".join(op.argv)):
                break
        yield op


# ----------------------------------------------------------------------
# query: one-answer commands on fresh small inputs

# Graph sizes: every command runs once on a small and once on a large graph;
# check, balanced and locus run twice more on 13 vertices, where generating the
# connected subcurves (a scan of all 2^13 vertex sets) dominates.  Those six
# are 20% of a round, so the 90th percentile falls among them.
SMALL, LARGE, HUGE = (3, 7), (8, 12), (13, 13)


def treelike_graph(rng: random.Random, size: tuple[int, int]) -> dict:
    V = rng.randint(*size)
    return make_graph(rng, V, 0, rng.randint(0, 2), rng.randint(1, 4), max_genus=2)


def cyclic_graph(rng: random.Random, size: tuple[int, int]) -> dict:
    V = rng.randint(*size)
    return make_graph(rng, V, rng.randint(1, V), rng.randint(0, 1), rng.randint(1, 4))


def any_graph(rng: random.Random, size: tuple[int, int]) -> dict:
    return (treelike_graph if rng.random() < 0.5 else cyclic_graph)(rng, size)


def verdict_check(inequalities: oracle.Inequalities, what: str):
    """PASS/FAIL must match the definition; a FAIL witness must violate it."""
    passes = inequalities.first_violation() is None

    def check(code: int, payload: dict) -> None:
        expect(payload["ok"] == passes and code == (0 if passes else 1),
               f"{what}: got ok={payload['ok']} exit {code}")
        if not passes:
            witness = inequalities.graph.mask_of(payload["witness"])
            expect(inequalities.violated(witness), f"{what}: {payload['witness']} does not violate")
    return check


def stability_check_op(rng: random.Random, size) -> Op:
    data = any_graph(rng, size)
    graph = Graph(data)
    pol = rng.choice(PRESETS)
    mode = rng.choice(("qstable", "qstable", "stable", "semistable"))
    # zero is q-stable for canonical0; nudges of it pass or fail
    m = [0] * graph.V if pol == "canonical0" else random_vector(rng, graph.V, graph.g - 1, 1)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(graph.V), 2)
        m[a] += 1
        m[b] -= 1
    md = dict(zip(graph.ids, m))
    return Op("stability check",
              ["stability", "check", "--graph", dump(data), "--pol", pol, "--mode", mode,
               "--m", ",".join(f"{v}={d}" for v, d in md.items())],
              (0, 1), verdict_check(oracle.stability(graph, pol, mode, md), "stability check"))


def twist_data(rng: random.Random, graph: Graph) -> tuple[list[int], int]:
    k = rng.randint(-1, 2)
    return random_vector(rng, graph.n, k * (2 * graph.g - 2), 3), k


def balanced_op(rng: random.Random, size) -> Op:
    data = any_graph(rng, size)
    graph = Graph(data)
    tau, k = twist_data(rng, graph)
    return Op("stability balanced",
              ["stability", "balanced", "--graph", dump(data), f"--tau={csv(tau)}", f"--k={k}"],
              (0, 1), verdict_check(oracle.balanced(graph, tau, k), "balanced"))


def locus_op(rng: random.Random, size) -> Op:
    data = any_graph(rng, size)
    graph = Graph(data)
    tau, k = twist_data(rng, graph)
    want = oracle.locus(graph, tau, k)

    def check(code: int, payload: dict) -> None:
        expect(payload["locus"] == want and code == (1 if want == "INDETERMINACY" else 0),
               f"locus {payload['locus']} exit {code}, want {want}")
    return Op("stability locus",
              ["stability", "locus", "--graph", dump(data),
               "--data", dump({"tau": tau, "k": k})],
              (0, 1), check)


def reduce_op(rng: random.Random, size) -> Op:
    data = treelike_graph(rng, size)
    graph = Graph(data)
    m = random_vector(rng, graph.V, 0, 4)
    root = graph.marking_vertex[1]

    def check(code: int, payload: dict) -> None:
        gamma = [payload["gamma"][v] for v in graph.ids]
        expect(gamma[root] == 0, "gamma does not vanish at the root")
        expect(graph.laplacian_apply(gamma) == m, "L.gamma != m")
        expect(all(d == 0 for d in payload["final"].values()), "final multidegree not zero")
    return Op("twist reduce",
              ["twist", "reduce", "--graph", dump(data),
               "--m", ",".join(f"{v}={d}" for v, d in zip(graph.ids, m))],
              (0,), check)


def coefficients_op(rng: random.Random, size) -> Op:
    data = treelike_graph(rng, size)
    graph = Graph(data)
    tau, k = twist_data(rng, graph)
    base = graph.marking_vertex[1]
    want = {}
    for i, j in graph.edges:
        side = oracle.branch(graph, (i, j), base)
        legs = sum(tau[leg - 1] for x in range(graph.V) if side >> x & 1 for leg in graph.legs[x])
        edge = tuple(sorted((graph.ids[i], graph.ids[j])))
        want[edge] = (graph.names(side), k * (1 - 2 * oracle.branch_genus(graph, side)) + legs)

    def check(code: int, payload: dict) -> None:
        got = {tuple(e["edge"]): (e["branch"], e["coefficient"]) for e in payload["coefficients"]}
        expect(got == want, "branch coefficients differ from k(1-2h) + leg sum")
    return Op("twist coefficients",
              ["twist", "coefficients", "--graph", dump(data), f"--tau={csv(tau)}", f"--k={k}"],
              (0,), check)


def boundary_op(rng: random.Random, size) -> Op:
    data = treelike_graph(rng, size)
    graph = Graph(data)
    tau, k = twist_data(rng, graph)

    def check(code: int, payload: dict) -> None:
        expect(sorted(payload["multidegree"]) == graph.ids, "multidegree keys")
        expect(all(d == 0 for d in payload["multidegree"].values()) and payload["zero"] is True,
               "boundary multidegree is not zero")
    return Op("twist boundary",
              ["twist", "boundary", "--graph", dump(data), f"--tau={csv(tau)}", f"--k={k}"],
              (0,), check)


def closed_theta_op(rng: random.Random, size) -> Op:
    g, n = rng.randint(2, 4 if size == SMALL else 6), rng.randint(2, 4 if size == SMALL else 6)
    tau, k = theta_data(rng, g, n)
    return theta_op(g, n, tau, k, "closed")


def closed_gm1_op(rng: random.Random, size) -> Op:
    g, n = rng.randint(2, 4 if size == SMALL else 6), rng.randint(2, 4 if size == SMALL else 6)
    return gm1_op(g, n, gm1_data(rng, g, n), "closed")


def mueller_op(rng: random.Random, size) -> Op:
    g, n = rng.randint(2, 4 if size == SMALL else 6), rng.randint(2, 4 if size == SMALL else 6)
    tau = gm1_data(rng, g, n, negative=True)
    return Op("class mueller",
              ["class", "mueller", "--g", str(g), "--n", str(n), f"--tau={csv(tau)}"],
              (0,), class_check(oracle.mueller_closed(g, n, tau)))


def validate_op(rng: random.Random, size) -> Op:
    data = any_graph(rng, size)
    if rng.random() < 0.5:                   # break an invariant half of the time
        vert = rng.choice(data["vertices"])
        flaw = rng.randrange(3)
        if flaw == 0:
            vert["genus"] = -1
        elif flaw == 1:
            vert["legs"].append(data["n"] + 1)
        else:
            data["edges"] = [e for e in data["edges"] if vert["id"] not in e]
    graph = Graph(data)
    codes = graph.violation_codes()

    def check(code: int, payload: dict) -> None:
        got = {v["code"] for v in payload["violations"]}
        expect(got == codes and payload["ok"] == (not codes) and code == (1 if codes else 0),
               f"violations {sorted(got)}, want {sorted(codes)}")
        expect(payload["g"] == graph.g and payload["n"] == graph.n, "g or n")
    return Op("graph validate", ["graph", "validate", "--graph", dump(data)], (0, 1), check)


def classify_op(rng: random.Random, size) -> Op:
    data = any_graph(rng, size)
    graph = Graph(data)
    want = dict(graph.classify(), g=graph.g, n=graph.n)

    def check(code: int, payload: dict) -> None:
        expect(payload == want, f"classify {payload}, want {want}")
    return Op("graph classify", ["graph", "classify", "--graph", dump(data)], (0,), check)


def rejected(command: str, argv: list[str], error: str, known_fault: bool = False) -> Op:
    def check(code: int, payload: dict) -> None:
        expect(payload.get("error") == error, f"error {payload.get('error')}, want {error}")
    return Op(command, argv, (2,), check, known_fault)


def tau_sum_op(rng: random.Random) -> Op:
    data = cyclic_graph(rng, SMALL)
    tau, k = twist_data(rng, Graph(data))
    tau[0] += 1
    return rejected("stability balanced",
                    ["stability", "balanced", "--graph", dump(data), f"--tau={csv(tau)}",
                     f"--k={k}"],
                    "TAU_SUM")


def unstable_op(rng: random.Random) -> Op:
    data = make_graph(rng, rng.randint(3, 6), 0, 0, 1)
    leaf = next(v for v in data["vertices"]
                if sum(v["id"] in e for e in data["edges"]) == 1 and not v["legs"])
    leaf["genus"] = 0
    return rejected("graph classify", ["graph", "classify", "--graph", dump(data)],
                    "INVALID_GRAPH")


def unknown_vertex_op(rng: random.Random) -> Op:
    data = cyclic_graph(rng, SMALL)
    unknown = ",".join(f"{v}=0" for v in Graph(data).ids[:-1]) + ",zz=0"
    return rejected("stability check",
                    ["stability", "check", "--graph", dump(data), "--m", unknown],
                    "BAD_MULTIDEGREE")


def genus_text_op(rng: random.Random, r: int) -> Op:
    data = make_graph(rng, 3 + r % 5, r % 3, 0, 2)
    data["vertices"][0]["genus"] = "x"
    return rejected("graph classify", ["graph", "classify", "--graph", dump(data)],
                    "BAD_INPUT", known_fault=True)


def genus_half_op(rng: random.Random, r: int) -> Op:
    data = make_graph(rng, 3 + r % 5, r % 3, 0, 2)
    data["edges"].append(["v0", "v0"])          # v0 stays stable at genus 0
    data["vertices"][0]["genus"] = 0.5
    return rejected("graph classify", ["graph", "classify", "--graph", dump(data)],
                    "BAD_INPUT", known_fault=True)


def fresh_op(unique: Unique, make: Callable[[], Op]) -> Op:
    """make() again until its command line has not been seen in this run."""
    while True:
        op = make()
        if unique.fresh(" ".join(op.argv)):
            return op


def malformed_ops(rng: random.Random, r: int, unique: Unique) -> list[Op]:
    """Inputs jacstab must reject with exit 2 and a JSON error.

    The last two fail today: a string genus escapes as a ValueError and a
    fractional genus is truncated and accepted.  They are drawn from a
    generator seeded by the round only, and no other input has such a genus,
    so they are the same in every run of any seed and fail the same way.
    """
    fixed = random.Random(f"malformed/{r}")
    return [fresh_op(unique, lambda: tau_sum_op(rng)),
            fresh_op(unique, lambda: unstable_op(rng)),
            fresh_op(unique, lambda: unknown_vertex_op(rng)),
            fresh_op(unique, lambda: genus_text_op(fixed, r)),
            fresh_op(unique, lambda: genus_half_op(fixed, r))]


SUBCURVE_MAKERS = (stability_check_op, balanced_op, locus_op)
QUERY_MAKERS = (stability_check_op, balanced_op, locus_op, reduce_op, coefficients_op,
                boundary_op, closed_theta_op, closed_gm1_op, mueller_op, validate_op,
                classify_op)


def query_round(seed: int, r: int, unique: Unique) -> Iterator[Op]:
    rng = random.Random(f"query/{seed}/{r}")
    plan = [(maker, size) for size in (SMALL, LARGE) for maker in QUERY_MAKERS]
    plan += [(maker, HUGE) for maker in SUBCURVE_MAKERS for _ in range(2)]
    for maker, size in plan:
        yield fresh_op(unique, lambda: maker(rng, size))
    yield from malformed_ops(rng, r, unique)


ROUNDS = {"enumerate": enumerate_round, "derive": derive_round, "query": query_round}
