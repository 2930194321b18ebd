"""Seeded fuzz of the JSON that command lines carry.

Golden-style command lines (those of ``test_golden_cli`` plus ``stability
check`` and ``enumerate``) get one of their JSON inputs mutated: the graph,
the JSON form of ``--m`` or ``--gamma``, or the ``--data`` payload.  The
mutations put wrong types, unknown ids, missing and extra keys and huge
integers (``10**30``, and literals over Python's 4,300-digit conversion
limit) anywhere in the document.  Every answer must exit 0, 1 or 2 with one
JSON document on stdout and no traceback on stderr; exit 3, an internal
error, fails.  A second test gives each line one JSON object that names one
of its keys twice, written into the text since a dict cannot hold it; every
such line must answer BAD_INPUT with exit 2.

All cases run in one child process under an address-space cap, so that an
input which makes the CLI allocate without bound fails here instead of
exhausting the machine that runs the tests.
"""

import json
import random

from common import run_capped
from test_golden import _graph
from test_golden_cli import _graph_lines, _tree

SEED = 20261020
HUGE = 10 ** 30
DIGITS = "__DIGITS__"  # stands for an integer literal of 5,000 digits
JUNK = ("x", "", 1.5, True, None, [], {}, -1, 0, HUGE, -HUGE, "v1", "nowhere", DIGITS)
TARGETS = ("--graph", "--m", "--gamma", "--data")

CHILD = """
import contextlib, io, json, sys
from jacstab.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def _slots(value, parent=None, key=None):
    """(parent, key) of every place in a JSON value; (None, None) is the root."""
    yield parent, key
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _slots(v, value, k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _slots(v, value, i)


def _mutate(rng: random.Random, value):
    """``value`` with one random slot replaced, deleted or given a sibling."""
    parent, key = rng.choice(list(_slots(value)))
    junk = rng.choice(JUNK)
    if parent is None:
        return junk
    action = rng.randrange(3)
    if action == 0:
        parent[key] = junk
    elif action == 1:
        del parent[key]
    elif isinstance(parent, dict):
        parent[rng.choice(("nowhere", "n", "genus", "tau", "k", "v1"))] = junk
    else:
        parent.append(junk)
    return value


def _as_json(flag: str, text: str):
    """The JSON value behind a target flag's argument."""
    if flag in ("--m", "--gamma") and not text.startswith("{"):
        return {k: int(v) for k, v in (piece.split("=") for piece in text.split(","))}
    return json.loads(text)


def _lines(rng: random.Random) -> list[list[str]]:
    """The golden-style command lines, JSON output only."""
    lines = []
    for i in range(24):
        graph = _tree(rng) if i % 2 else _graph(rng)
        text = json.dumps(graph)
        ids = [v["id"] for v in graph["vertices"]]
        m = {v: 0 for v in ids}
        lines += _graph_lines(rng, graph)
        lines += [["stability", "check", "--graph", text, "--m", json.dumps(m)],
                  ["stability", "enumerate", "--graph", text,
                   "--pol", rng.choice(("canonical0", "trivial-gm1"))]]
    out = []
    for argv in lines:
        while "--output" in argv:  # only the JSON form is checked here
            at = argv.index("--output")
            argv = argv[:at] + argv[at + 2:]
        out.append(argv)
    return out


def cases(seed: int = SEED) -> list[list[str]]:
    rng = random.Random(seed)
    out = []
    for argv in _lines(rng):
        targets = [i for i, arg in enumerate(argv) if arg in TARGETS]
        for _ in range(3):
            at = rng.choice(targets) + 1
            value = _mutate(rng, _as_json(argv[at - 1], argv[at]))
            text = json.dumps(value).replace(json.dumps(DIGITS), "9" * 5000)
            out.append(argv[:at] + [text] + argv[at + 1:])
    return out


REPEAT = "__REPEAT__"  # a key that stands for a second copy of an existing key


def _repeat_key(rng: random.Random, value) -> str:
    """JSON text of ``value`` with one object naming one of its keys twice.

    A Python dict cannot hold the repeat, so the copy goes in under a
    stand-in key that is renamed in the text.
    """
    objects = [parent[key] if parent is not None else value
               for parent, key in _slots(value)]
    target = rng.choice([obj for obj in objects if isinstance(obj, dict) and obj])
    key = rng.choice(list(target))
    target[REPEAT] = rng.choice((target[key], rng.choice(JUNK)))
    text = json.dumps(value).replace(json.dumps(REPEAT), json.dumps(key))
    return text.replace(json.dumps(DIGITS), "9" * 5000)


def repeat_cases(seed: int = SEED) -> list[list[str]]:
    """One line per golden-style line, one of its JSON inputs given a repeated key."""
    rng = random.Random(seed)
    out = []
    for argv in _lines(rng):
        targets = [i + 1 for i, arg in enumerate(argv) if arg in TARGETS]
        at = rng.choice(targets)
        out.append(argv[:at] + [_repeat_key(rng, _as_json(argv[at - 1], argv[at]))]
                   + argv[at + 1:])
    return out


def test_mutated_json_inputs_get_an_answer():
    lines = cases()
    assert len(lines) == 24 * 13 * 3
    proc = run_capped(CHILD, stdin=json.dumps(lines), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    failures = []
    for argv, (code, out, err) in zip(lines, results):
        try:
            json.loads(out)
            parsed = True
        except ValueError:
            parsed = False
        if code not in (0, 1, 2) or not parsed or "Traceback" in err:
            failures.append((code, out[-300:], err[-300:], argv))
    assert len(results) == len(lines)
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"


def test_repeated_json_keys_answer_bad_input():
    lines = repeat_cases()
    assert len(lines) == 24 * 13
    proc = run_capped(CHILD, stdin=json.dumps(lines), timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(lines)
    failures = [(code, out[-300:], argv) for argv, (code, out, _) in zip(lines, results)
                if code != 2 or json.loads(out)["error"] != "BAD_INPUT"]
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"
