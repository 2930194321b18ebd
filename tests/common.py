"""Small named graphs used across the test modules, and a capped child process."""

import os
import random
import subprocess
import sys
from pathlib import Path

from jacstab import DualGraph

SRC = str(Path(__file__).resolve().parent.parent / "src")
CAP_BYTES = 1 << 30
# Lowers the child's address-space limit before anything else runs, so that
# unbounded allocation ends in MemoryError there instead of growing the runner.
_CAP = ("import resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"cap = {CAP_BYTES} if hard == resource.RLIM_INFINITY else min({CAP_BYTES}, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n")


def run_capped(code: str, *args: str, stdin: str = "",
               timeout: float = 120) -> subprocess.CompletedProcess:
    """Run Python ``code`` with ``args`` in a child with ``src`` on its path
    and at most ``CAP_BYTES`` of address space."""
    return subprocess.run([sys.executable, "-c", _CAP + code, *args], input=stdin,
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=SRC))


def banana(marking_on_first: bool = True) -> DualGraph:
    """Two components joined at two nodes, markings 1,2 on one side."""
    if marking_on_first:
        verts = [("v1", 0, [1, 2]), ("v2", 1, [])]
    else:
        verts = [("v1", 1, []), ("v2", 0, [1, 2])]
    return DualGraph(verts, [("v1", "v2"), ("v1", "v2")])


def two_vertex_tree(g1: int = 1, g2: int = 1, legs1=(1,), legs2=(2,)) -> DualGraph:
    return DualGraph([("v1", g1, list(legs1)), ("v2", g2, list(legs2))],
                     [("v1", "v2")])


def path3() -> DualGraph:
    """Genus-1 chain v1-v2-v3 with marking 1 on v3."""
    return DualGraph([("v1", 1, []), ("v2", 1, []), ("v3", 1, [1])],
                     [("v1", "v2"), ("v2", "v3")])


def star() -> DualGraph:
    """Center c with leaves a, b, d; marking 1 on the center."""
    return DualGraph([("a", 1, []), ("b", 1, []), ("c", 0, [1]), ("d", 1, [])],
                     [("a", "c"), ("b", "c"), ("c", "d")])


def tree_with_loop() -> DualGraph:
    """Edge a-b plus a loop at b; marking 1 on a."""
    return DualGraph([("a", 1, [1]), ("b", 0, [])],
                     [("a", "b"), ("b", "b")])


def single_vertex(genus: int = 2, legs=(1,)) -> DualGraph:
    return DualGraph([("v1", genus, list(legs))], [])


def multigraph(rng: random.Random, max_vertices: int = 9) -> DualGraph:
    """Seeded connected multigraph: a spanning tree and a few extra pairs, each
    pair joined by 1-3 parallel edges, loops on some vertices, genus 0-2 and
    the markings 1..n on random vertices.  Not validated: a vertex may be
    unstable."""
    count = rng.randint(1, max_vertices)
    ids = [f"v{i}" for i in rng.sample(range(10, 100), count)]
    pairs = {tuple(sorted((ids[rng.randrange(i)], ids[i]))) for i in range(1, count)}
    pairs |= {tuple(sorted(rng.sample(ids, 2))) for _ in range(rng.randint(0, 3)) if count > 1}
    edges = [pair for pair in sorted(pairs) for _ in range(rng.randint(1, 3))]
    edges += [(v, v) for v in ids for _ in range(rng.choice((0, 0, 1, 2)))]
    legs = {v: [] for v in ids}
    for label in range(1, rng.randint(1, 4) + 1):
        legs[rng.choice(ids)].append(label)
    return DualGraph([(v, rng.randint(0, 2), legs[v]) for v in ids], edges)
