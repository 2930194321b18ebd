"""Byte-identity gate for the stability commands.

About 300 seeded ``stability enumerate`` and ``stability check`` command
lines are run through ``cli.main``; the SHA-256 of their exit codes and
standard output must equal a digest recorded before the stability layer was
rewritten around a shared inequality table.  The command lines cover every
mode, both polarization presets, explicit basepoints, PASS and FAIL verdicts
(with their witnesses), rejected input and text output.

The graphs are built here from the seed alone, so the digest does not depend
on any other module's random corpus.  If an intended output change ever
breaks the digest, regenerate it with ``python tests/test_golden.py`` from
the repository root, with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import hashlib
import io
import json
import random

from jacstab.cli import main

SEED = 20261018
# Re-recorded when an unknown --basepoint came to be refused in every mode:
# the six check lines that name "nowhere" outside qstable mode now exit 2 with
# BAD_INPUT, and the other 294 lines answer as before.
EXPECTED = "15ee3c0323e0ee6fe1cf62462656a420adb95e073b2ec37dd3ea1cc883adf48f"
MODES = ("semistable", "stable", "qstable")
PRESETS = ("canonical0", "trivial-gm1")


def _graph(rng: random.Random) -> dict:
    """A valid dual graph on 1-5 vertices: spanning tree, extra edges, loops."""
    count = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 4, 5))
    ids = [f"v{i}" for i in range(1, count + 1)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, count)]
    if count > 1:
        for _ in range(rng.randint(0, 3)):
            edges.append(tuple(rng.sample(ids, 2)))
    for v in ids:
        if rng.random() < 0.2:
            edges.append((v, v))
    val = {v: 0 for v in ids}
    for a, b in edges:
        val[a] += 1
        val[b] += 1
    genus = {v: rng.randint(0, 1) for v in ids}
    legs: dict[str, list[int]] = {v: [] for v in ids}
    label = 1
    for v in ids:
        need = max(0, 1 - (2 * genus[v] - 2 + val[v])) + rng.randint(0, 1)
        legs[v] = list(range(label, label + need))
        label += need
    if label == 1:
        legs[ids[-1]] = [1]
        label = 2
    # swap marking 1 onto a random legged component, so the default
    # basepoint varies while every component keeps its number of legs
    holder = rng.choice(ids)
    owner = next(v for v in ids if 1 in legs[v])
    if holder != owner and legs[holder]:
        other = legs[holder][0]
        legs[owner] = [other if x == 1 else x for x in legs[owner]]
        legs[holder] = [1 if x == other else x for x in legs[holder]]
    return {"n": label - 1,
            "vertices": [{"id": v, "genus": genus[v], "legs": sorted(legs[v])} for v in ids],
            "edges": [list(e) for e in edges]}


def _target(graph: dict, pol: str) -> int:
    if pol == "canonical0":
        return 0
    genus = (sum(v["genus"] for v in graph["vertices"]) + len(graph["edges"])
             - len(graph["vertices"]) + 1)
    return genus - 1


def command_lines(seed: int = SEED) -> list[list[str]]:
    rng = random.Random(seed)
    lines = []
    for i in range(150):
        graph = _graph(rng)
        text = json.dumps(graph)
        ids = [v["id"] for v in graph["vertices"]]
        pol = PRESETS[i % 2]
        mode = MODES[(i // 2) % 3]
        tail = []
        if rng.random() < 0.25:
            tail += ["--basepoint", rng.choice(ids)]
        if rng.random() < 0.15:
            tail += ["--output", "text"]
        lines.append(["stability", "enumerate", "--graph", text, "--pol", pol,
                      "--mode", mode] + tail)
        m = {v: rng.randint(-2, 2) for v in ids}
        m[rng.choice(ids)] += _target(graph, pol) - sum(m.values())
        if rng.random() < 0.05:
            m[ids[0]] += 1  # degree mismatch: exit 2
        check_tail = []
        if rng.random() < 0.25:
            check_tail += ["--basepoint", rng.choice(ids + ["nowhere"])]
        if rng.random() < 0.15:
            check_tail += ["--output", "text"]
        spec = ",".join(f"{v}={d}" for v, d in m.items())
        lines.append(["stability", "check", "--graph", text, "--pol", pol,
                      "--mode", MODES[rng.randrange(3)], "--m", spec] + check_tail)
    return lines


def digest(lines: list[list[str]]) -> str:
    h = hashlib.sha256()
    for argv in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        h.update(f"{code}\n".encode())
        h.update(out.getvalue().encode())
    return h.hexdigest()


def test_stability_commands_byte_identical():
    lines = command_lines()
    assert len(lines) == 300
    assert digest(lines) == EXPECTED


if __name__ == "__main__":
    print(digest(command_lines()))
