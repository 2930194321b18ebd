"""Byte-identity gate for every command, help text and usage error.

``tests/test_golden.py`` pins ``stability enumerate`` and ``stability
check``.  This file pins the rest of the command line: seeded command lines of
every other command, ``--help`` for the root, every group and every leaf, and
usage errors (unknown subcommand, missing required flag, bad choice, missing
command, non-integer ``--g``).  Each case is run through ``cli.main``; the
SHA-256 of its exit code, standard output and standard error must equal a
digest recorded before the parser was rebuilt from a command table.

The command lines have one digest (``EXPECTED``) on every Python version.  The
``--help`` texts, wrapped at ``COLUMNS=80``, and the usage errors are laid out
by argparse, whose layout changed in Python 3.13, so they are pinned per
Python minor version (``ARGPARSE``); a version with no pin fails and names
itself.

It also pins the SHA-256 of ``stability enumerate`` on K_7, the 10-cycle with
doubled edges and the 3x4 grid (``ENUMERATED``), of the full-depth selftest
report for seed 1, its first eleven checks (``SELFTEST_FULL``), and of
``stability check``, ``balanced`` and ``locus`` on seeded 10-13-vertex graphs,
whose FAIL verdicts carry witnesses of one vertex and of several
(``WITNESSES``).

Payloads are integers only, so rejecting non-integer payloads does not move
the digest.  If an intended output change ever breaks a digest, print the
current ones with ``python tests/test_golden_cli.py`` from the repository
root, with ``src`` on ``PYTHONPATH``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys

from jacstab import selftest
from jacstab.cli import _json, main
from test_golden import _graph

SEED = 20261019
EXPECTED = "6d918da7de86394aefcbc4854054eeac9cb4e22cc857b9654fc54a8967ca6b84"
# Python minor version -> SHA-256 of the --help lines and of the usage errors
_UP_TO_3_12 = ("9b04a72c62c8c75bcb1a430dfaf3c93327c8aa9fa59a809bf993dc2ffb808703",
               "9a86f270d4320275ad4fe006592887b123605549871832f5324a83acd2adf4aa")
ARGPARSE = {
    "3.10": _UP_TO_3_12,
    "3.11": _UP_TO_3_12,
    "3.12": _UP_TO_3_12,
    "3.13": ("05bca8ce975020ce24232326d6ceee499729b56e4be45145192713ef74da748f",
             "eca4b4e94ce3022efeb29a0353f425c49db7498dfdc02e9d36b1edd4a85aa68e"),
}
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
PRESETS = ("canonical0", "trivial-gm1")

GROUPS = {
    "graph": ("validate", "classify", "query"),
    "stability": ("threshold", "check", "enumerate", "balanced", "locus"),
    "twist": ("apply", "reduce", "coefficients", "boundary"),
    "class": ("theta", "theta-gm1", "mueller", "c1", "compact-type-gm1",
              "zero-section-shape"),
}

BANANA = json.dumps({"n": 2, "vertices": [{"id": "v1", "genus": 0, "legs": [1]},
                                          {"id": "v2", "genus": 0, "legs": [2]}],
                     "edges": [["v1", "v2"], ["v1", "v2"], ["v1", "v2"]]})


def _tree(rng: random.Random) -> dict:
    """A stable dual graph of compact type: a tree on 2-4 vertices, no loops."""
    count = rng.choice((2, 2, 3, 4))
    ids = [f"v{i}" for i in range(1, count + 1)]
    edges = [[ids[rng.randrange(i)], ids[i]] for i in range(1, count)]
    val = {v: sum(e.count(v) for e in edges) for v in ids}
    vertices, label = [], 1
    for v in ids:
        genus = rng.randint(0, 2)
        need = max(0, 1 - (2 * genus - 2 + val[v])) + rng.randint(0, 1)
        vertices.append({"id": v, "genus": genus, "legs": list(range(label, label + need))})
        label += need
    if label == 1:
        vertices[0]["legs"] = [1]
        label = 2
    return {"n": label - 1, "vertices": vertices, "edges": edges}


def _genus(graph: dict) -> int:
    return (sum(v["genus"] for v in graph["vertices"]) + len(graph["edges"])
            - len(graph["vertices"]) + 1)


def _vector(rng: random.Random, size: int, total: int) -> list[int]:
    """``size`` small integers summing to ``total``."""
    out = [rng.randint(-3, 3) for _ in range(size)]
    out[rng.randrange(size)] += total - sum(out)
    return out


def _joined(values: list[int]) -> str:
    return ",".join(str(x) for x in values)


def _tau_flags(rng: random.Random, tau: list[int], k: int) -> list[str]:
    """``--tau``/``--k`` in one of their spellings, or a ``--data`` payload."""
    pick = rng.randrange(3)
    if pick == 0:
        return ["--data", json.dumps({"tau": tau, "k": k})]
    if pick == 1:
        return [f"--tau={_joined(tau)}", f"--k={k}"]
    return ["--tau", _joined(tau), "--k", str(k)]


def _tail(rng: random.Random, ids: list[str] | None = None,
          flag: str = "--basepoint") -> list[str]:
    out = []
    if ids is not None and rng.random() < 0.3:
        out += [flag, rng.choice(ids + ["nowhere"])]
    if rng.random() < 0.25:
        out += ["--output", "text"]
    return out


def _graph_lines(rng: random.Random, graph: dict) -> list[list[str]]:
    text = json.dumps(graph)
    ids = [v["id"] for v in graph["vertices"]]
    g, n = _genus(graph), graph["n"]
    subcurve = ",".join(rng.sample(ids, rng.randint(1, max(1, len(ids) - 1))))
    m = _vector(rng, len(ids), 0)
    k = rng.randint(0, 2)
    tau = _vector(rng, n, k * (2 * g - 2))
    if rng.random() < 0.1:
        tau[0] += 1  # TAU_SUM: exit 2
    spec = {v: d for v, d in zip(ids, m)}
    gamma = {v: rng.randint(-2, 2) for v in ids}
    return [
        ["graph", "validate", "--graph", text] + _tail(rng),
        ["graph", "classify", "--graph", text] + _tail(rng),
        ["graph", "query", "--graph", text, "--subcurve", subcurve] + _tail(rng),
        ["stability", "threshold", "--graph", text, "--pol", rng.choice(PRESETS),
         "--subcurve", subcurve] + _tail(rng),
        ["stability", "balanced", "--graph", text] + _tau_flags(rng, tau, k) + _tail(rng),
        ["stability", "locus", "--graph", text] + _tau_flags(rng, tau, k) + _tail(rng),
        ["twist", "apply", "--graph", text, "--gamma",
         json.dumps(gamma) if rng.random() < 0.5
         else ",".join(f"{v}={d}" for v, d in gamma.items())] + _tail(rng),
        ["twist", "reduce", "--graph", text, "--m",
         ",".join(f"{v}={d}" for v, d in spec.items())] + _tail(rng, ids, "--root"),
        ["twist", "coefficients", "--graph", text]
        + _tau_flags(rng, tau, k) + _tail(rng, ids),
        ["twist", "boundary", "--graph", text] + _tau_flags(rng, tau, k) + _tail(rng, ids),
        ["class", "compact-type-gm1", "--graph", text] + _tail(rng, ids),
    ]


def _class_lines(rng: random.Random) -> list[list[str]]:
    g, n = rng.randint(1, 4), rng.randint(1, 4)
    k = rng.randint(0, 2)
    tau = _vector(rng, n, k * (2 * g - 2))
    tau0 = _vector(rng, n, 0)
    gm1 = _vector(rng, n, g - 1)
    small_g, small_n = rng.randint(1, 2), rng.randint(1, 3)
    small = _vector(rng, small_n, 0)
    small_gm1 = _vector(rng, small_n, small_g - 1)
    return [
        ["class", "theta", "--g", str(g), "--n", str(n), f"--tau={_joined(tau)}",
         "--k", str(k)] + _tail(rng),
        ["class", "theta", "--g", str(g), "--n", str(n), f"--tau={_joined(tau0)}",
         "--method", "hain"] + _tail(rng),
        ["class", "theta", "--g", str(small_g), "--n", str(small_n),
         "--tau", _joined(small), "--k", "0", "--method", "derive"] + _tail(rng),
        ["class", "theta-gm1", "--g", str(g), "--n", str(n),
         f"--tau={_joined(gm1)}"] + _tail(rng),
        ["class", "theta-gm1", "--g", str(small_g), "--n", str(small_n),
         f"--tau={_joined(small_gm1)}", "--method", "derive"] + _tail(rng),
        ["class", "mueller", "--g", str(g), "--n", str(n), f"--tau={_joined(gm1)}"]
        + (["--exclude-empty"] if rng.random() < 0.5 else []) + _tail(rng),
        ["class", "c1", "--g", str(g), "--n", str(n), f"--tau={_joined(tau)}",
         f"--k={k}"] + _tail(rng),
        ["class", "zero-section-shape", "--g", str(rng.randint(1, 5))] + _tail(rng),
    ]


def _help_lines() -> list[list[str]]:
    lines = [["--help"], ["selftest", "--help"]]
    for group, leaves in GROUPS.items():
        lines.append([group, "--help"])
        lines += [[group, leaf, "--help"] for leaf in leaves]
    return lines


def _usage_error_lines() -> list[list[str]]:
    return [
        [],
        ["nosuch"],
        ["graph"],
        ["graph", "nosuch"],
        ["class", "theta-gm2", "--g", "2"],
        ["graph", "classify"],
        ["graph", "query", "--graph", BANANA],
        ["twist", "apply", "--graph", BANANA],
        ["class", "theta", "--g", "2", "--n", "2"],
        ["stability", "check", "--graph", BANANA, "--m", "v1=0,v2=0", "--mode", "bogus"],
        ["stability", "enumerate", "--graph", BANANA, "--pol", "bogus"],
        ["class", "theta", "--g", "x", "--n", "2", "--tau", "1,-1"],
        ["stability", "check", "--graph", BANANA, "--m", "v1=0,v2=0", "--output", "xml"],
        ["graph", "classify", "--graph", BANANA, "--bogus"],
    ]


def cases(seed: int = SEED) -> list[list[str]]:
    rng = random.Random(seed)
    lines = []
    for i in range(16):
        lines += _graph_lines(rng, _tree(rng) if i % 2 else _graph(rng))
    for _ in range(10):
        lines += _class_lines(rng)
    unstable = json.dumps({"n": 0, "vertices": [{"id": "a", "genus": 0, "legs": []}],
                           "edges": []})
    lines += [["graph", "validate", "--graph", unstable],
              ["graph", "validate", "--graph", unstable, "--output", "text"],
              ["selftest", "--depth", "small"],
              ["selftest", "--depth", "small", "--seed", "3", "--output", "text"]]
    return lines


def digest(lines: list[list[str]]) -> str:
    h = hashlib.sha256()
    saved = {key: os.environ.get(key) for key in ("COLUMNS", "JACSTAB_SEED")}
    os.environ["COLUMNS"] = "80"
    os.environ.pop("JACSTAB_SEED", None)
    try:
        for argv in lines:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            h.update(f"{code}\n".encode())
            h.update(out.getvalue().encode())
            h.update(b"\0")
            h.update(err.getvalue().encode())
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return h.hexdigest()


def test_cli_surface_byte_identical():
    lines = cases()
    assert len(lines) == 16 * 11 + 10 * 8 + 4
    assert digest(lines) == EXPECTED


def test_help_and_usage_errors_byte_identical():
    assert VERSION in ARGPARSE, f"no pinned --help and usage digests for Python {VERSION}"
    lines = _help_lines(), _usage_error_lines()
    assert [len(x) for x in lines] == [24, 14]
    assert tuple(digest(x) for x in lines) == ARGPARSE[VERSION]


# The number of checks pinned, and the SHA-256 of ``cli._json`` of the first
# that many entries of ``selftest.run("full", 1)["checks"]``, recorded before
# the checks became rows of one table: it fixes their case counts at full depth
# and the order in which their suites draw from the shared random stream.  A
# new check is a new last row, after the pinned entries, so it leaves this pin
# as it is.
SELFTEST_FULL = (11, "87e7b07a1416c9ddbb3efca98c679c06a5f4bc80e4c812839b86e5118b0e3099")


def _selftest_full_digest() -> str:
    count = SELFTEST_FULL[0]
    return hashlib.sha256(_json(selftest.run("full", 1)["checks"][:count]).encode()).hexdigest()


def test_selftest_full_depth_report_pinned():
    assert _selftest_full_digest() == SELFTEST_FULL[1]


def _complete(count: int) -> dict:
    ids = [f"v{i}" for i in range(1, count + 1)]
    return {"vertices": [{"id": v, "genus": 0, "legs": [1] if v == "v1" else []} for v in ids],
            "edges": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]}


def _doubled_cycle(count: int) -> dict:
    ids = [f"v{i}" for i in range(1, count + 1)]
    return {"vertices": [{"id": v, "genus": 0, "legs": [1] if v == "v1" else []} for v in ids],
            "edges": [[ids[i], ids[(i + 1) % count]] for i in range(count)] * 2}


def _grid(rows: int, cols: int) -> dict:
    """A genus-0 grid with markings 1-4 on its corners, 1 on the top left."""
    ids = [[f"v{r}{c}" for c in range(1, cols + 1)] for r in range(1, rows + 1)]
    corners = [ids[0][0], ids[0][-1], ids[-1][0], ids[-1][-1]]
    vertices = [{"id": v, "genus": 0, "legs": [corners.index(v) + 1] if v in corners else []}
                for row in ids for v in row]
    edges = [[row[c], row[c + 1]] for row in ids for c in range(cols - 1)]
    edges += [[ids[r][c], ids[r + 1][c]] for r in range(rows - 1) for c in range(cols)]
    return {"n": 4, "vertices": vertices, "edges": edges}


# SHA-256 of ``stability enumerate --graph <graph>`` standard output (q-stable,
# canonical0), recorded before the search tested rows level by level: the
# inputs on which that pruning cuts the most candidates.
ENUMERATED = {
    "K_7": (_complete(7), 16807,
            "e9fc9e01160d6606cf25947994de0a5ba92bd9f53eb991bf0a9073036e9e5b04"),
    "doubled 10-cycle": (_doubled_cycle(10), 5120,
                         "384365454a6bf234625fb6ce5f7efe701e02821d3b3593445c7775dfc4c46f11"),
    "3x4 grid": (_grid(3, 4), 2415,
                 "11b7bddf7f37c45079914e533a6b5a87d8820a13741e75ca96632be74c5c43ef"),
}


def test_enumerate_output_pinned_where_pruning_matters(capsys):
    for name, (graph, count, expected) in ENUMERATED.items():
        assert main(["stability", "enumerate", "--graph", json.dumps(graph)]) == 0, name
        out = capsys.readouterr().out
        assert f'"count": {count},' in out, name
        assert hashlib.sha256(out.encode()).hexdigest() == expected, name


def _large(rng: random.Random) -> dict:
    """A stable dual graph on 10-13 vertices with marking i on the i-th vertex:
    a random spanning tree, up to V more edges and a few loops."""
    count = rng.randint(10, 13)
    ids = [f"w{i:02d}" for i in range(1, count + 1)]
    edges = [[ids[rng.randrange(i)], ids[i]] for i in range(1, count)]
    edges += [rng.sample(ids, 2) for _ in range(rng.randint(0, count))]
    edges += [[v, v] for v in ids if rng.random() < 0.1]
    val = {v: sum(e.count(v) for e in edges) for v in ids}
    vertices = [{"id": v, "genus": rng.randint(0 if val[v] > 1 else 1, 1), "legs": [i + 1]}
                for i, v in enumerate(ids)]
    return {"n": count, "vertices": vertices, "edges": edges}


def _witness_lines(rng: random.Random) -> list[list[str]]:
    """``stability check`` (canonical0), ``balanced`` and ``locus`` on one graph.

    Three degree vectors x of total 0: zero, which passes every row; every
    vertex at its singleton bound -floor(kappa_v/2) with the surplus spread
    at random, which tends to fail on a larger subcurve; and one vertex below
    its singleton bound.  ``balanced`` and ``locus`` read x as tau_v - k
    omega_v, marking i being the only leg on vertex i.
    """
    graph = _large(rng)
    text = json.dumps(graph)
    ids = [v["id"] for v in graph["vertices"]]
    kappa = {v: sum(1 for a, b in graph["edges"] if a != b and v in (a, b)) for v in ids}
    omega = {v["id"]: 2 * v["genus"] - 2 + sum(e.count(v["id"]) for e in graph["edges"])
             for v in graph["vertices"]}
    zero = {v: 0 for v in ids}
    tight = {v: -(kappa[v] // 2) for v in ids}
    for _ in range(-sum(tight.values())):
        tight[rng.choice(ids)] += 1
    low = dict(zero)
    a, b = rng.sample(ids, 2)
    drop = kappa[a] // 2 + rng.randint(1, 3)
    low[a] -= drop
    low[b] += drop
    lines = []
    for x in (zero, tight, low):
        spec = ",".join(f"{v}={d}" for v, d in x.items())
        lines.append(["stability", "check", "--graph", text, "--m", spec,
                      "--mode", rng.choice(("semistable", "stable", "qstable"))])
        k = rng.randint(0, 1)
        tau = _joined([k * omega[v] + x[v] for v in ids])
        lines.append(["stability", "balanced", "--graph", text, f"--tau={tau}", f"--k={k}"])
        if x is tight:
            lines.append(["stability", "locus", "--graph", text, f"--tau={tau}", f"--k={k}"])
    return lines


def witness_cases(seed: int = SEED) -> list[list[str]]:
    rng = random.Random(seed)
    return [line for _ in range(12) for line in _witness_lines(rng)]


# SHA-256 of the exit codes and standard output of ``witness_cases()``,
# recorded before the subcurve levels were built on demand.
WITNESSES = "4d7c7d02ca4bd99060b54712a7becaafbfe0cbb744ab7470b7214343595c57fe"


def test_verdicts_and_witnesses_on_large_graphs_pinned(capsys):
    lines = witness_cases()
    assert len(lines) == 12 * 7
    sizes = {"check": [], "balanced": []}
    for argv in lines:
        main(argv)
        answer = json.loads(capsys.readouterr().out)
        if "ok" in answer:
            sizes[argv[1]].append(len(answer.get("witness", ())))
    # PASS verdicts (no witness), and FAIL verdicts at one vertex and at more
    for found in sizes.values():
        assert 0 in found and 1 in found and max(found) >= 2, found
    assert digest(lines) == WITNESSES


if __name__ == "__main__":
    print("command lines", digest(cases()))
    print(f"Python {VERSION} --help", digest(_help_lines()))
    print(f"Python {VERSION} usage errors", digest(_usage_error_lines()))
    print("selftest full 1, pinned checks", _selftest_full_digest())
    print("verdicts and witnesses on large graphs", digest(witness_cases()))
