import functools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from jacstab import (DualGraph, Polarization, c1_twisted_bundle, enumerate_stable,
                     theta_via_pushforward)
from jacstab.corpus import random_connected_graph, random_tau
from jacstab.pushforward import PUSH_RULES
from jacstab import cli, selftest, stats, twister
from jacstab.cli import main
from jacstab.selftest import run as selftest_run
from common import banana, two_vertex_tree, path3, tree_with_loop, single_vertex
from common import SRC, run_capped

BANANA = json.dumps(banana().to_json_dict())
TREE = json.dumps(two_vertex_tree().to_json_dict())
PATH3 = json.dumps(path3().to_json_dict())


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# ----------------------------------------------------------------------
# worked end-to-end examples

def test_enumerate_banana_payload(capsys):
    code, payload = run_json(capsys, "stability", "enumerate", "--graph", BANANA,
                             "--pol", "canonical0", "--mode", "qstable")
    assert code == 0
    assert payload == {"count": 2, "multidegrees": [{"v1": 0, "v2": 0},
                                                    {"v1": 1, "v2": -1}]}


def test_class_theta_derive_payload(capsys):
    code, payload = run_json(capsys, "class", "theta", "--g", "2", "--n", "2",
                             "--tau", "1,-1", "--k", "0", "--method", "derive")
    assert code == 0
    assert payload == {
        "psi": {"1": "1/2", "2": "1/2"},
        "lambda1": "0", "kappa1t": "0", "delta_irr": "0",
        "delta": [{"h": 1, "A": [1], "c": "-1/2"}],
    }
    assert payload == theta_via_pushforward(2, 2, [1, -1], 0).to_json_dict()


def test_twist_reduce_payload(capsys):
    code, payload = run_json(capsys, "twist", "reduce", "--graph", PATH3,
                             "--m", "v1=2,v2=-3,v3=1")
    assert code == 0
    assert payload["gamma"] == {"v1": 1, "v2": -1, "v3": 0}
    assert len(payload["trace"]) == 2


# ----------------------------------------------------------------------
# golden coverage of library examples through the CLI

def test_graph_validate_and_classify(capsys):
    code, payload = run_json(capsys, "graph", "validate", "--graph", BANANA)
    assert code == 0 and payload["ok"] and payload["g"] == 2
    bad = json.dumps(single_vertex(genus=0, legs=[]).to_json_dict())
    code, payload = run_json(capsys, "graph", "validate", "--graph", bad)
    assert code == 1 and not payload["ok"]
    assert any(v["code"] == "VERTEX_UNSTABLE" for v in payload["violations"])
    code, payload = run_json(capsys, "graph", "classify", "--graph", BANANA)
    assert code == 0 and payload["banana_like"] and not payload["treelike"]


def test_graph_query_kappa_and_omega(capsys):
    code, payload = run_json(capsys, "graph", "query", "--graph", BANANA,
                             "--subcurve", "v1")
    assert code == 0
    assert payload["kappa"] == 2 and payload["omega_degree"] == 0
    loopy = json.dumps(tree_with_loop().to_json_dict())
    code, payload = run_json(capsys, "graph", "query", "--graph", loopy,
                             "--subcurve", "b")
    assert payload["kappa"] == 1


def test_stability_threshold_and_check(capsys):
    code, payload = run_json(capsys, "stability", "threshold", "--graph", BANANA,
                             "--pol", "canonical0", "--subcurve", "v1")
    assert code == 0 and payload["threshold"] == "-1"
    code, payload = run_json(capsys, "stability", "threshold", "--graph", TREE,
                             "--pol", "trivial-gm1", "--subcurve", "v1")
    assert payload["threshold"] == "0"
    code, payload = run_json(capsys, "stability", "check", "--graph", BANANA,
                             "--pol", "canonical0", "--mode", "qstable",
                             "--m", "v1=-1,v2=1")
    assert code == 1 and payload["witness"] == ["v1"]
    code, payload = run_json(capsys, "stability", "check", "--graph", BANANA,
                             "--pol", "canonical0", "--mode", "qstable",
                             "--m", '{"v1": 0, "v2": 0}')
    assert code == 0 and payload["ok"]


def test_stability_balanced_and_locus(capsys):
    code, payload = run_json(capsys, "stability", "balanced", "--graph", BANANA,
                             "--tau", "5,-5", "--k", "0")
    assert code == 0 and payload["ok"]
    code, payload = run_json(capsys, "stability", "balanced", "--graph", TREE,
                             "--tau", "5,-5", "--k", "0")
    assert code == 1 and payload["witness"] == ["v2"]
    code, payload = run_json(capsys, "stability", "locus", "--graph", TREE,
                             "--tau", "5,-5", "--k", "0")
    assert code == 0 and payload["locus"] == "TREELIKE"
    split = json.dumps({"n": 2, "vertices": [
        {"id": "v1", "genus": 1, "legs": [1]}, {"id": "v2", "genus": 1, "legs": [2]}],
        "edges": [["v1", "v2"], ["v1", "v2"]]})
    code, payload = run_json(capsys, "stability", "locus", "--graph", split,
                             "--tau", "5,-5", "--k", "0")
    assert code == 1 and payload["locus"] == "INDETERMINACY"


@pytest.mark.parametrize("argv, code, payload", [
    (["stability", "check", "--graph", BANANA, "--m", "v1=0,v2=0"], 0,
     {"ok": True, "mode": "qstable"}),
    (["stability", "check", "--graph", BANANA, "--m", "v1=0,,v2=0"], 0,
     {"ok": True, "mode": "qstable"}),
    (["stability", "check", "--graph", BANANA, "--m", "v1=-1,v2=1"], 1,
     {"ok": False, "mode": "qstable", "witness": ["v1"], "degree": -1, "bound": "-1",
      "strict": True}),
    (["stability", "check", "--graph", BANANA, "--m", "v1=-3,v2=3", "--mode", "semistable"], 1,
     {"ok": False, "mode": "semistable", "witness": ["v1"], "degree": -3, "bound": "-1",
      "strict": False}),
    (["stability", "balanced", "--graph", BANANA, "--tau", "5,-5"], 0, {"ok": True}),
    (["stability", "balanced", "--graph", TREE, "--tau", "5,-5"], 1,
     {"ok": False, "witness": ["v2"], "leg_sum": -5, "bound": "-1/2", "strict": False}),
    (["graph", "classify", "--graph", BANANA], 0,
     {"g": 2, "n": 2, "treelike": False, "compact_type": False, "banana_like": True}),
    (["graph", "classify", "--graph", TREE], 0,
     {"g": 2, "n": 2, "treelike": True, "compact_type": True, "banana_like": False}),
    (["twist", "reduce", "--graph", PATH3, "--m", "v1=2,v2=-3,v3=1"], 0,
     {"gamma": {"v1": 1, "v2": -1, "v3": 0}, "final": {"v1": 0, "v2": 0, "v3": 0},
      "trace": [{"leaf": "v1", "branch": ["v1"], "coefficient": 2},
                {"leaf": "v2", "branch": ["v1", "v2"], "coefficient": -1}]}),
], ids=["check-pass", "check-pass-empty-piece", "check-fail-strict", "check-fail-semistable", "balanced-pass",
        "balanced-fail", "classify-banana", "classify-tree", "reduce"])
def test_result_record_payloads(capsys, argv, code, payload):
    assert run_json(capsys, *argv) == (code, payload)


def test_tau_k_json_payload(capsys, tmp_path):
    code, payload = run_json(capsys, "stability", "balanced", "--graph", BANANA,
                             "--data", '{"tau": [5, -5], "k": 0}')
    assert code == 0 and payload["ok"]
    data = tmp_path / "tau.json"
    data.write_text('{"tau": [5, -3], "k": 1}')
    code, payload = run_json(capsys, "twist", "coefficients", "--graph", TREE,
                             "--data", str(data))
    assert code == 0 and payload["coefficients"][0]["coefficient"] == -4
    code, payload = run_json(capsys, "stability", "locus", "--graph", TREE)
    assert code == 2 and payload["error"] == "BAD_INPUT"


def test_twist_apply_coefficients_boundary(capsys):
    code, payload = run_json(capsys, "twist", "apply", "--graph", TREE,
                             "--gamma", "v1=0,v2=1")
    assert code == 0 and payload["multidegree"] == {"v1": 1, "v2": -1}
    code, payload = run_json(capsys, "twist", "coefficients", "--graph", TREE,
                             "--tau", "5,-3", "--k", "1")
    assert code == 0
    assert payload["coefficients"] == [{"edge": ["v1", "v2"], "branch": ["v2"],
                                        "coefficient": -4}]
    code, payload = run_json(capsys, "twist", "boundary", "--graph", TREE,
                             "--tau", "5,-3", "--k", "1")
    assert payload == {"multidegree": {"v1": 0, "v2": 0}, "zero": True}


@pytest.mark.parametrize("g, n", [(6, 7), (7, 7), (8, 8)])
def test_derive_and_closed_print_the_same_bytes(capsys, g, n):
    # the derive workload's largest cells, both classes, both output forms
    rng = random.Random(f"derive-bytes/{g}/{n}")
    lines = []
    for _ in range(2):
        k = rng.choice((-1, 1, 2))
        tau = random_tau(rng, n, k * (2 * g - 2), bound=3 * abs(k) + 2)
        lines.append(["class", "theta", "--g", str(g), "--n", str(n),
                      f"--tau={','.join(map(str, tau))}", "--k", str(k)])
        tau = random_tau(rng, n, g - 1, bound=3)
        lines.append(["class", "theta-gm1", "--g", str(g), "--n", str(n),
                      f"--tau={','.join(map(str, tau))}"])
    for argv in lines:
        for output in ("json", "text"):
            answers = [run_cli(capsys, *argv, "--method", method, "--output", output)
                       for method in ("derive", "closed")]
            assert answers[0] == answers[1] and answers[0][0] == 0, argv
            assert len(answers[0][1]) > 100


def test_class_commands(capsys):
    code, payload = run_json(capsys, "class", "theta-gm1", "--g", "2", "--n", "2",
                             "--tau", "3,-2", "--method", "derive")
    assert code == 0
    assert payload["psi"] == {"1": "6", "2": "1"} and payload["lambda1"] == "-1"
    code, payload = run_json(capsys, "class", "mueller", "--g", "4", "--n", "3",
                             "--tau", "1,3,-1", "--exclude-empty")
    assert code == 0
    code, payload = run_json(capsys, "class", "c1", "--g", "2", "--n", "2",
                             "--tau", "2,0", "--k", "1")
    assert payload["terms"] == [{"monomial": "B_{0,{1,2}}", "c": "3"},
                                {"monomial": "B_{1,{1}}", "c": "1"},
                                {"monomial": "D_1", "c": "2"},
                                {"monomial": "K", "c": "-1"}]
    code, payload = run_json(capsys, "class", "compact-type-gm1", "--graph", TREE)
    assert payload["multidegree"] == {"v1": 1, "v2": 0}
    code, out = run_cli(capsys, "class", "zero-section-shape", "--g", "3",
                        "--output", "text")
    assert code == 0 and out.strip() == "-C1*C2 - 1/6*C1^3 - 2*C3"


# ----------------------------------------------------------------------
# error handling and determinism

def test_input_errors_exit_2(capsys):
    code, payload = run_json(capsys, "stability", "balanced", "--graph", BANANA,
                             "--tau", "1,0", "--k", "0")
    assert code == 2 and payload["error"] == "TAU_SUM"
    code, payload = run_json(capsys, "twist", "reduce", "--graph", BANANA,
                             "--m", "v1=0,v2=0")
    assert code == 2 and payload["error"] == "NOT_TREELIKE"
    code, payload = run_json(capsys, "graph", "classify", "--graph", "{broken")
    assert code == 2 and payload["error"] == "BAD_INPUT"
    bad = json.dumps(single_vertex(genus=0, legs=[]).to_json_dict())
    code, payload = run_json(capsys, "stability", "enumerate", "--graph", bad)
    assert code == 2 and payload["error"] == "INVALID_GRAPH"
    # a repeated vertex key is refused, not resolved to its last value
    for m in ("v1=5,v1=1,v2=-1", '{"v1": 5, "v1": 1, "v2": -1}'):
        code, payload = run_json(capsys, "stability", "check", "--graph", BANANA,
                                 "--pol", "canonical0", "--m", m)
        assert code == 2 and payload["error"] == "BAD_INPUT"
    code, payload = run_json(capsys, "twist", "apply", "--graph", TREE,
                             "--gamma", "v1=0,v2=1,v2=0")
    assert code == 2 and payload["error"] == "BAD_INPUT"
    # a leg listed twice on one vertex is a leg-partition fault, not one leg
    twice = '{"vertices": [{"id": "a", "genus": 1, "legs": [1, 1]}], "edges": []}'
    code, payload = run_json(capsys, "twist", "coefficients", "--graph", twice,
                             "--tau=0", "--k=0")
    assert code == 2 and payload["error"] == "INVALID_GRAPH"
    assert payload["details"]["violations"][0]["message"] == "leg 1 appears twice on a"
    code, payload = run_json(capsys, "graph", "validate", "--graph", twice)
    assert code == 1 and payload["ok"] is False


def test_repeated_json_keys_are_refused(capsys):
    # every JSON input goes through one loader, which refuses a repeated key
    # instead of keeping its last value (tau = (1, -1), an edgeless graph)
    code, payload = run_json(capsys, "twist", "coefficients", "--graph", TREE,
                             "--data", '{"tau":[5,-5],"k":0,"tau":[1,-1]}')
    assert code == 2 and payload["error"] == "BAD_INPUT"
    assert "repeats key 'tau'" in payload["message"]
    assert TREE.endswith(', "edges": [["v1", "v2"]]}')
    code, payload = run_json(capsys, "graph", "classify", "--graph", TREE[:-1] + ', "edges": []}')
    assert code == 2 and payload["error"] == "BAD_INPUT"
    assert "repeats key 'edges'" in payload["message"]
    nested = TREE.replace('"genus": 1,', '"genus": 1, "genus": 0,', 1)
    code, payload = run_json(capsys, "graph", "validate", "--graph", nested)
    assert code == 2 and payload["error"] == "BAD_INPUT"


@pytest.mark.parametrize("command", [["graph", "query"], ["stability", "threshold"]])
def test_repeated_subcurve_vertex_is_refused(capsys, command):
    # {v1} is a proper subcurve; "v1,v1" must not be read as the whole curve
    code, payload = run_json(capsys, *command, "--graph", TREE, "--subcurve", "v1,v1")
    assert code == 2 and payload["error"] == "BAD_INPUT"
    assert "repeats key 'v1'" in payload["message"]
    code, payload = run_json(capsys, *command, "--graph", TREE, "--subcurve", "v1")
    assert code == 0


@pytest.mark.parametrize("flags", [["--tau=5,-5"], ["--tau=5,-5", "--k", "0"], ["--k=1"],
                                   ["--k", "-1"]])
@pytest.mark.parametrize("command", [["stability", "balanced"], ["stability", "locus"],
                                     ["twist", "coefficients"], ["twist", "boundary"]])
def test_data_excludes_tau_and_k(capsys, command, flags):
    # the tree is FAIL for tau = (5, -5) and PASS for the payload's (0, 0):
    # neither source of twist data may win silently
    code, payload = run_json(capsys, *command, "--graph", TREE, *flags,
                             "--data", '{"tau": [0, 0], "k": 0}')
    assert code == 2 and payload["error"] == "BAD_INPUT"
    assert "--tau" in payload["message"] and "--k" in payload["message"]


@pytest.mark.parametrize("argv, seed, message", [
    (["stability", "balanced", "--graph", BANANA, "--tau=1,-1,0"], None,
     "tau has 3 entries, expected 2"),
    (["stability", "balanced", "--graph", BANANA, "--tau=1,x"], None,
     "malformed tau vector '1,x'"),
    (["class", "theta", "--g", "2", "--n", "2", "--tau=2,0", "--k", "1", "--method", "hain"],
     None, "the hain method is the k = 0 case"),
    (["selftest"], "x", "JACSTAB_SEED must be an integer: 'x'"),
    (["graph", "query", "--graph", BANANA, "--subcurve", "v1,zz"], None,
     "unknown vertices in subcurve: ['zz']"),
    (["stability", "threshold", "--graph", BANANA, "--subcurve", "v1,zz"], None,
     "unknown vertices in subcurve: ['zz']"),
    (["graph", "validate", "--graph", json.dumps(
        {"vertices": [{"id": "a", "genus": 0, "legs": [1, 2, 3]}, {"id": "b", "genus": 0}],
         "edges": [["a", "b"], "ab", ["a", "b"]]})], None,
     "malformed edge 'ab': not a list or tuple of two ids"),
    (["graph", "classify", "--graph", "/no/such/file.json"], None,
     "graph file not found: /no/such/file.json"),
    (["stability", "balanced", "--graph", BANANA, "--data", '{"k": 0}'], None,
     "malformed tau/k payload: 'tau'"),
    (["stability", "balanced", "--graph", BANANA, "--data", '{"tau": 3}'], None,
     "malformed tau/k payload: 'int' object is not iterable"),
    (["stability", "check", "--graph", BANANA, "--m", "v1"], None,
     "malformed multidegree entry 'v1'"),
    (["stability", "check", "--graph", BANANA, "--m", "v1=1=2"], None,
     "malformed multidegree entry 'v1=1=2'"),
    (["twist", "apply", "--graph", BANANA, "--gamma", "v1=x,v2=0"], None,
     "malformed gamma entry 'v1=x'"),
], ids=["tau-length", "tau-not-integer", "hain-nonzero-k", "seed-not-integer",
        "subcurve-unknown-vertex", "threshold-unknown-vertex", "edge-not-a-pair",
        "graph-file-not-found", "data-without-tau", "data-tau-not-a-list",
        "m-without-value", "m-two-values", "gamma-not-integer"])
def test_refusal_names_the_bad_input(capsys, monkeypatch, argv, seed, message):
    if seed is not None:
        monkeypatch.setenv("JACSTAB_SEED", seed)
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "BAD_INPUT" and payload["message"] == message


def test_data_with_k_zero_is_the_data(capsys):
    code, payload = run_json(capsys, "stability", "balanced", "--graph", TREE, "--k", "0",
                             "--data", '{"tau": [5, -5], "k": 0}')
    assert (code, payload["ok"]) == (1, False)


def test_bad_genus_gets_one_error_code_from_every_method(capsys):
    # g = 0 is outside every class command's range, and tau = (1, 1) has the
    # wrong sum too: the range check comes first, whichever method runs
    data = ["--g", "0", "--n", "2", "--tau=1,1"]
    lines = [["class", "theta", *data, "--k", "0", "--method", method]
             for method in ("closed", "derive", "hain")]
    lines += [["class", "theta-gm1", *data, "--method", method] for method in ("closed", "derive")]
    lines += [["class", "c1", *data, "--k", "0"], ["class", "mueller", *data]]
    answers = []
    for argv in lines:
        code, payload = run_json(capsys, *argv)
        answers.append((code, payload["error"]))
    assert answers == [(2, "BAD_INPUT")] * len(lines)


@pytest.mark.parametrize("where, value", [
    ("genus", "x"), ("genus", 0.5), ("genus", True), ("legs", [1, 1.7]), ("n", "x")])
def test_graph_json_integer_fields_are_strict(capsys, where, value):
    data = banana().to_json_dict()
    if where == "n":
        data["n"] = value
    else:
        data["vertices"][0][where] = value
    code, payload = run_json(capsys, "graph", "classify", "--graph", json.dumps(data))
    assert code == 2 and payload["error"] == "BAD_INPUT"


@pytest.mark.parametrize("argv", [
    ["stability", "check", "--graph", BANANA, "--m", '{"v1": 0.7, "v2": -0.2}'],
    ["stability", "balanced", "--graph", BANANA, "--data", '{"tau": [1.9, -1.9], "k": 0}'],
    ["twist", "apply", "--graph", TREE, "--gamma", '{"v1": 0.5, "v2": true}'],
], ids=["float-multidegree", "float-tau", "float-and-bool-gamma"])
def test_json_payloads_take_integers_only(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "BAD_INPUT"


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_stable_degrees", broken)
    code = main(["stability", "enumerate", "--graph", BANANA, "--output", "text"])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {"error": "INTERNAL", "message": "RuntimeError: boom"}
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    for argv in (["graph", "classify", "--graph", BANANA],
                 ["stability", "check", "--graph", BANANA, "--m", "v1=0,v2=0"],
                 ["class", "zero-section-shape", "--g", "2", "--output", "text"],
                 ["twist", "apply", "--graph", TREE, "--gamma", "v1=0,v2=1"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert len(built) <= 1


def test_shared_parser_keeps_no_state(capsys, monkeypatch):
    argv = ("stability", "check", "--graph", BANANA, "--m", "v1=-1,v2=1")
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    flagged = run_cli(capsys, *argv, "--basepoint", "v2", "--output", "text")
    after = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    fresh = run_cli(capsys, *argv)
    assert after == fresh and flagged != fresh


def test_unhashable_edge_endpoint_is_bad_input(capsys):
    data = {"vertices": [{"id": "a", "genus": 1, "legs": [1]}], "edges": [[["a"], "a"]]}
    code, payload = run_json(capsys, "graph", "classify", "--graph", json.dumps(data))
    assert code == 2 and payload["error"] == "BAD_INPUT"


def test_huge_n_is_rejected_without_building_1_to_n():
    data = banana().to_json_dict()
    data["n"] = 10 ** 30
    proc = run_capped("import sys\nfrom jacstab.cli import main\nsys.exit(main(sys.argv[1:]))",
                      "graph", "classify", "--graph", json.dumps(data))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["error"] == "INVALID_GRAPH"
    assert [v["code"] for v in payload["details"]["violations"]] == ["LEGS_NOT_PARTITION"]


@pytest.mark.parametrize("argv", [
    ["graph", "classify", "--graph", '{"n": ' + "9" * 5000 + "}"],
    ["stability", "check", "--graph", BANANA, "--m", '{"v1": ' + "9" * 5000 + "}"],
    ["stability", "balanced", "--graph", BANANA, "--data", '{"tau": [' + "9" * 5000 + "]}"],
], ids=["graph", "multidegree", "data"])
def test_integer_over_the_digit_limit_is_bad_input(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "BAD_INPUT"


def test_cli_import_leaves_selftest_unloaded():
    probe = ("import sys, jacstab.cli; "
             "print([m for m in ('jacstab.selftest', 'jacstab.oracles', 'jacstab.corpus') "
             "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, tau", [
    (["class", "theta", "--g", "2", "--n", "2", "--k", "0"], "-1,1"),
    (["stability", "balanced", "--graph", BANANA, "--k", "0"], "-5,5"),
], ids=["class-theta", "stability-balanced"])
def test_tau_with_negative_first_entry(capsys, argv, tau):
    spaced = run_cli(capsys, *argv, "--tau", tau)
    joined = run_cli(capsys, *argv, f"--tau={tau}")
    assert spaced == joined
    assert spaced[0] == 0 and "error" not in json.loads(spaced[1])


def test_byte_identical_output(capsys):
    argv = ("class", "theta", "--g", "3", "--n", "2", "--tau", "2,-2", "--k", "0")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second


def _payloads(rng, depth=0):
    """A random nested payload; containers are empty at every depth now and then."""
    text = "aZ09 \"\\/\x00\x1f\x7f\t\n\u00e9\u2028\u2029\ud800\U0001f600\u4e2d"
    leaves = (lambda: "".join(rng.choice(text) for _ in range(rng.randint(0, 6))),
              lambda: rng.randint(-10, 10), lambda: rng.choice((-1, 1)) * 7 ** rng.randint(20, 400),
              lambda: rng.choice((True, False, None)))
    kind = rng.randrange(4) if depth < 4 else 2
    if kind == 0:
        return {leaves[0](): _payloads(rng, depth + 1) for _ in range(rng.choice((0, 1, 3)))}
    if kind == 1:
        return [_payloads(rng, depth + 1) for _ in range(rng.choice((0, 1, 4)))]
    return rng.choice(leaves)()


def test_renderer_matches_the_stdlib_encoder():
    rng = random.Random(14)
    corpus = [_payloads(rng) for _ in range(2000)]
    corpus += [{}, [], [[]], {"": {}}, [{"a": []}, {}], {"b": 1, "a": [True, None, ""]}]
    for value in corpus:
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2), value


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, (1, 2), [{"a": (1,)}], {1: "a"},
                                   {"a": 1, 2: "b"}, [{None: 1}], {"a": set()}])
def test_renderer_refuses_what_is_not_a_payload(capsys, monkeypatch, value):
    with pytest.raises(TypeError):
        cli._json(value)
    # an answer that is not a payload is a defect: exit 3, rendered by the same function
    monkeypatch.setattr(cli, "locus_membership", lambda *args, **kwargs: value)
    code, payload = run_json(capsys, "stability", "locus", "--graph", BANANA,
                             "--tau", "0,0", "--k", "0")
    assert code == 3 and payload["error"] == "INTERNAL"


def test_text_is_built_only_for_text_output(capsys, monkeypatch):
    from jacstab.divisors import LinearClass

    calls = {"text": 0, "text_row": 0, "json": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(LinearClass, "text", counted("text", LinearClass.text))
    monkeypatch.setattr(cli, "_text_row", counted("text_row", cli._text_row))
    monkeypatch.setattr(cli, "_divisor_json", counted("json", cli._divisor_json))
    theta = ("class", "theta", "--g", "3", "--n", "2", "--tau", "2,-2", "--k", "0",
             "--method", "derive")
    assert run_cli(capsys, *theta)[0] == 0
    assert run_cli(capsys, "stability", "enumerate", "--graph", BANANA)[0] == 0
    assert calls == {"text": 0, "text_row": 0, "json": 1}
    assert run_cli(capsys, *theta, "--output", "text")[0] == 0
    assert run_cli(capsys, "stability", "enumerate", "--graph", BANANA, "--output", "text")[0] == 0
    assert calls == {"text": 1, "text_row": 1, "json": 1}


def _enumerate_answers(graph, pol, mode, basepoint):
    """The enumerate answer as JSON and as text, rendered from enumerate_stable's maps."""
    found = enumerate_stable(graph, pol, mode, basepoint=basepoint)
    payload = json.dumps({"count": len(found), "multidegrees": found}, sort_keys=True, indent=2)
    text = "\n".join(cli._multidegree_text(m) for m in found) or "(none)"
    return payload + "\n", text + "\n"


def _fractional(graph):
    """A custom polarization with thirds and halves whose total is an integer."""
    q = {v: Fraction((-1) ** i * (i + 1), 2 + i % 2) for i, v in enumerate(graph.ids)}
    q[graph.ids[-1]] -= sum(q.values()) - round(sum(q.values()))
    return Polarization.custom(q)


# ids that need quoting in JSON, or that a %-template would misread
ODD_IDS = DualGraph([("%d", 0, [1]), ('q"%s', 0, []), ("\u00e9\\", 0, [2]), ("x%%", 1, [])],
                    [("%d", 'q"%s'), ("%d", 'q"%s'), ('q"%s', "\u00e9\\"), ("\u00e9\\", "x%%"),
                     ("%d", "x%%")])


@pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
def test_chunked_enumerate_answer_is_the_rendered_maps(capsys, monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    rng = random.Random(22)
    graphs = [random_connected_graph(rng, max_vertices=5) for _ in range(5)]
    graphs += [single_vertex(), ODD_IDS]
    chosen = {}
    # --pol names a preset; its converter returns the polarization under test
    monkeypatch.setitem(cli.OPTIONS["--pol"], "convert", lambda name: chosen["pol"])
    monkeypatch.setattr(cli, "_parser", None, raising=False)
    for graph in graphs:
        text = json.dumps(graph.to_json_dict())
        for pol in (Polarization.canonical_zero(), Polarization.trivial_gm1(),
                    _fractional(graph)):
            chosen["pol"] = pol
            for mode in ("semistable", "stable", "qstable"):
                basepoint = rng.choice((None, rng.choice(graph.ids)))
                flags = ["--basepoint", basepoint] if basepoint else []
                expected = _enumerate_answers(graph, pol, mode, basepoint)
                for output, want in zip(("json", "text"), expected):
                    assert run_cli(capsys, "stability", "enumerate", "--graph", text,
                                   "--mode", mode, "--output", output, *flags) == (0, want)


@functools.cache
def _divisor_answers() -> tuple:
    """(argv, class) of every divisor-class command on seeded (g, n), n >= 10 included,
    a class whose delta list and psi map are empty, and one of more than 4,096 rows."""
    return tuple(_divisor_cases(random.Random(23)))


def _divisor_cases(rng):
    from jacstab import (theta_pullback, theta_gm1_pullback, theta_gm1_via_pushforward,
                         mueller_class)
    from jacstab.divisors import theta_pullback_hain

    yield ("theta-gm1", "--g", "1", "--n", "1", "--tau=0"), theta_gm1_pullback(1, 1, [0])
    tau = [1, -1] * 6
    yield (("theta", "--g", "3", "--n", "12", f"--tau={_csv(tau)}"),
           theta_pullback(3, 12, tau, 0))
    for g, n in ((1, 2), (2, 3), (3, 4), (4, 5), (2, 10), (3, 10)):
        k = rng.choice((-1, 1))
        tau, zero_sum, gm1 = (random_tau(rng, n, total) for total in (k * (2 * g - 2), 0, g - 1))
        gm1[0] = -abs(gm1[0]) - 1  # a negative entry, as mueller needs
        gm1[1] += g - 1 - sum(gm1)
        head = ("--g", str(g), "--n", str(n))
        for flags, cls in [
                (("theta", f"--tau={_csv(tau)}", "--k", str(k)), theta_pullback(g, n, tau, k)),
                (("theta", f"--tau={_csv(tau)}", "--k", str(k), "--method", "derive"),
                 theta_via_pushforward(g, n, tau, k)),
                (("theta", f"--tau={_csv(zero_sum)}", "--method", "hain"),
                 theta_pullback_hain(g, n, zero_sum)),
                (("theta-gm1", f"--tau={_csv(gm1)}"), theta_gm1_pullback(g, n, gm1)),
                (("theta-gm1", f"--tau={_csv(gm1)}", "--method", "derive"),
                 theta_gm1_via_pushforward(g, n, gm1)),
                (("mueller", f"--tau={_csv(gm1)}"), mueller_class(g, n, gm1)),
                (("mueller", f"--tau={_csv(gm1)}", "--exclude-empty"),
                 mueller_class(g, n, gm1, include_empty=False))]:
            yield (flags[0], *head, *flags[1:]), cls


def _csv(values):
    return ",".join(map(str, values))


@pytest.mark.parametrize("chunk_rows", [None, 1, 2, 3])
def test_chunked_class_answer_is_the_rendered_payload(capsys, monkeypatch, chunk_rows):
    if chunk_rows is not None:
        monkeypatch.setattr(cli, "CHUNK_ROWS", chunk_rows)
    seen = {"empty": 0, "psi key 10": 0, "rows": 0}
    for argv, cls in _divisor_answers():
        payload = cls.to_json_dict()
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert run_cli(capsys, "class", *argv) == (0, want), argv
        seen["empty"] += not payload["delta"] and not payload["psi"]
        seen["psi key 10"] += "10" in payload["psi"]
        seen["rows"] = max(seen["rows"], len(payload["delta"]))
    assert seen["empty"] == 1 and seen["psi key 10"] >= 8 and seen["rows"] > 4096, seen


def test_empty_enumerate_answer(capsys):
    bridge = DualGraph([("a", 1, [1]), ("b", 1, [])], [("a", "b")])
    argv = ("stability", "enumerate", "--graph", json.dumps(bridge.to_json_dict()),
            "--pol", "trivial-gm1", "--mode", "stable")
    json_answer, text_answer = _enumerate_answers(bridge, Polarization.trivial_gm1(),
                                                  "stable", None)
    assert run_cli(capsys, *argv) == (0, json_answer)
    assert json.loads(json_answer) == {"count": 0, "multidegrees": []}
    assert run_cli(capsys, *argv, "--output", "text") == (0, text_answer) == (0, "(none)\n")


def test_graph_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "banana.json"
    path.write_text(BANANA)
    code, payload = run_json(capsys, "graph", "classify", "--graph", str(path))
    assert code == 0 and payload["banana_like"]
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(BANANA))
    code, payload = run_json(capsys, "graph", "classify", "--graph", "-")
    assert code == 0 and payload["banana_like"]


@pytest.mark.parametrize("case", ["graph-directory", "graph-not-utf8", "data-directory",
                                  "graph-name-too-long"])
def test_unreadable_path_is_bad_input(tmp_path, capsys, case):
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b"\xff\xfe{}")
    argv = {"graph-directory": ["graph", "classify", "--graph", str(tmp_path)],
            "graph-not-utf8": ["graph", "classify", "--graph", str(latin)],
            "data-directory": ["stability", "balanced", "--graph", BANANA,
                               "--data", str(tmp_path)],
            "graph-name-too-long": ["graph", "classify", "--graph", "9" * 5000]}[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and json.loads(captured.out)["error"] == "BAD_INPUT"
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# selftest

def test_selftest_small_passes_quickly(capsys):
    start = time.monotonic()
    code, payload = run_json(capsys, "selftest", "--depth", "small")
    elapsed = time.monotonic() - start
    assert code == 0 and payload["ok"]
    assert elapsed < 10.0
    assert {c["name"] for c in payload["checks"]} >= {
        "theta-derive-vs-closed", "twister-reduce-oracle", "treelike-unique-zero",
        "banana-enumeration", "balanced-iff-qstable", "exp-truncation-oracle"}


def test_selftest_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("JACSTAB_SEED", "1234")
    code, payload = run_json(capsys, "selftest", "--depth", "small", "--seed", "7")
    assert code == 0 and payload["seed"] == 1234


def test_selftest_deterministic_for_fixed_seed():
    a = selftest_run(depth="small", seed=5)
    b = selftest_run(depth="small", seed=5)
    assert a == b


def test_selftest_treelike_gm1_row_catches_the_two_vertex_rule(monkeypatch):
    # each genus, minus one away from the basepoint: right on two components
    # of compact type only, so the new row fails and the two-vertex row holds
    def two_vertex_rule(graph, basepoint=None):
        base = graph.marking_vertex(1) if basepoint is None else basepoint
        return {v: graph.genus_of[v] - (v != base) for v in graph.ids}

    monkeypatch.setattr(selftest, "compact_type_gm1_multidegree", two_vertex_rule)
    report = selftest_run(depth="small", seed=0)
    assert {c["name"] for c in report["checks"] if not c["ok"]} == {"treelike-gm1-rule"}


# each row of the push rule table with a wrong factor
WRONG_RULES = {
    "D2": lambda i: (("psi", i), 1),
    "K2": lambda: (("kappa1t",), -1),
    "B2": lambda h, A: (("delta", h, A), 1),
    "DB": lambda i, h, A: (("delta", h, A), -1),
    "KB": lambda h, A: (("delta", h, A), 2 * h + 1),
}


@pytest.mark.parametrize("tag", list(WRONG_RULES))
def test_selftest_detects_corrupted_rule_table(capsys, monkeypatch, tag):
    # a wrong factor in any row must be caught; degree g-1's c1 has no K
    # term, so its push never reads the K^2 row
    c1 = c1_twisted_bundle(2, 3, [1, -1, 2], 1)  # D, K and B terms
    square = c1 * c1
    monkeypatch.setitem(PUSH_RULES, tag, WRONG_RULES[tag])
    code, payload = run_json(capsys, "selftest", "--depth", "small")
    assert code == 1 and not payload["ok"]
    broken = {c["name"] for c in payload["checks"] if not c["ok"]}
    assert "theta-derive-vs-closed" in broken
    assert ("theta-gm1-derive-vs-closed" in broken) == (tag != "K2")
    # the product never reads the push table
    assert c1 * c1 == square


def test_selftest_detects_wrong_side_branch_coefficients(monkeypatch):
    # read on the basepoint's side, each coefficient changes sign: only the
    # row that checks the peel against branch_side's own split may fail
    coefficients = selftest.branch_coefficients
    monkeypatch.setattr(selftest, "branch_coefficients",
                        lambda *args: {e: -c for e, c in coefficients(*args).items()})
    report = selftest_run("small", 0)
    assert {c["name"] for c in report["checks"] if not c["ok"]} == {"branch-coefficient-identity"}


@pytest.mark.parametrize("mode", ["semistable", "stable", "qstable"])
def test_unknown_basepoint_is_bad_input_in_every_mode(capsys, mode):
    graph = json.dumps({"n": 1, "vertices": [{"id": "a", "genus": 1, "legs": [1]},
                                             {"id": "b", "genus": 1, "legs": []}],
                        "edges": [["a", "b"]]})
    for argv in (["stability", "check", "--graph", graph, "--m", "a=0,b=0"],
                 ["stability", "enumerate", "--graph", graph]):
        code, payload = run_json(capsys, *argv, "--mode", mode, "--basepoint", "zz")
        assert code == 2 and payload == {"error": "BAD_INPUT",
                                         "message": "unknown basepoint vertex 'zz'"}
        code, payload = run_json(capsys, *argv, "--mode", mode, "--basepoint", "b")
        assert code == 0 and "error" not in payload


@pytest.mark.parametrize("mode", ["semistable", "stable", "qstable"])
def test_one_component_curve_needs_no_basepoint(capsys, mode):
    graph = '{"vertices":[{"id":"a","genus":2,"legs":[]}],"edges":[]}'
    check = ["stability", "check", "--graph", graph, "--m", "a=0", "--mode", mode]
    enum = ["stability", "enumerate", "--graph", graph, "--mode", mode]
    assert run_json(capsys, *check) == (0, {"mode": mode, "ok": True})
    code, payload = run_json(capsys, *enum)
    assert code == 0 and payload["count"] == 1
    # the treelike commands take the same basepoint rule: no edge to orient
    coefficients = ["twist", "coefficients", "--graph", graph, "--tau", "", "--k", "0"]
    boundary = ["twist", "boundary", "--graph", graph, "--tau", "", "--k", "0"]
    gm1 = ["class", "compact-type-gm1", "--graph", graph]
    assert run_json(capsys, *coefficients) == (0, {"coefficients": []})
    assert run_json(capsys, *boundary) == (0, {"multidegree": {"a": 0}, "zero": True})
    assert run_json(capsys, *gm1) == (0, {"multidegree": {"a": 1}})  # g - 1
    for argv in (check, enum, coefficients, boundary, gm1):
        code, payload = run_json(capsys, *argv, "--basepoint", "zz")
        assert code == 2 and payload["error"] == "BAD_INPUT"


@pytest.mark.parametrize("command", ["coefficients", "boundary"])
def test_twist_answer_splits_each_edge_once(capsys, monkeypatch, command):
    # a 4-edge path of genus-1 components, marking 1 at one end, no other leg:
    # each coefficient k(1 - 2h), h the branch genus, is odd, so non-zero
    ids = [f"v{i}" for i in range(1, 6)]
    path = json.dumps({"vertices": [{"id": v, "genus": 1, "legs": [1] if v == "v1" else []}
                                    for v in ids],
                       "edges": [[a, b] for a, b in zip(ids, ids[1:])]})
    splits = []
    monkeypatch.setattr(twister, "split_at_edge", lambda graph, edge: splits.append(edge))
    before = stats.COUNTS["twister.peel_steps"]
    code, payload = run_json(capsys, "twist", command, "--graph", path, "--tau", "8", "--k", "1")
    assert code == 0
    if command == "coefficients":
        assert [e["coefficient"] for e in payload["coefficients"]] == [-7, -5, -3, -1]
    else:
        assert payload["zero"] is True
    # the answer reads one peel towards the basepoint, one step per edge
    assert splits == [] and stats.COUNTS["twister.peel_steps"] - before == 4


K7 = json.dumps({"vertices": [{"id": f"v{i}", "genus": 0, "legs": [1] if i == 0 else []}
                              for i in range(7)],
                 "edges": [[f"v{i}", f"v{j}"] for i in range(7) for j in range(i + 1, 7)]})


@pytest.mark.parametrize("argv", [
    ["class", "theta", "--g", "8", "--n", "10", "--tau=1,-1,1,-1,1,-1,1,-1,1,-1", "--k", "0"],
    ["graph", "classify", "--graph", BANANA],
    ["stability", "enumerate", "--graph", K7],
    ["class", "theta", "--g", "8", "--n", "12", "--tau=" + ",".join(["1,-1"] * 6), "--k", "0"],
], ids=["large-answer", "small-answer", "chunked-answer", "chunked-class-answer"])
def test_closed_stdout_exits_141_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)  # no reader before the child starts, so its first write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "jacstab", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


# ----------------------------------------------------------------------
# the table parse of plain lines and the argparse fallback

# A valid plain line of every command: the flags with their values
PLAIN = {
    ("graph", "validate"): {"--graph": BANANA},
    ("graph", "classify"): {"--graph": BANANA},
    ("graph", "query"): {"--graph": BANANA, "--subcurve": "v1"},
    ("stability", "threshold"): {"--graph": BANANA, "--subcurve": "v1"},
    ("stability", "check"): {"--graph": BANANA, "--m": "v1=0,v2=0"},
    ("stability", "enumerate"): {"--graph": BANANA},
    ("stability", "balanced"): {"--graph": BANANA, "--tau": "1,-1"},
    ("stability", "locus"): {"--graph": BANANA, "--tau": "1,-1"},
    ("twist", "apply"): {"--graph": TREE, "--gamma": "v1=0,v2=1"},
    ("twist", "reduce"): {"--graph": PATH3, "--m": "v1=2,v2=-3,v3=1"},
    ("twist", "coefficients"): {"--graph": TREE, "--tau": "5,-3", "--k": "1"},
    ("twist", "boundary"): {"--graph": TREE, "--tau": "5,-3", "--k": "1"},
    ("class", "theta"): {"--g": "2", "--n": "2", "--tau": "1,-1"},
    ("class", "theta-gm1"): {"--g": "2", "--n": "2", "--tau": "3,-2"},
    ("class", "mueller"): {"--g": "2", "--n": "2", "--tau": "3,-2"},
    ("class", "c1"): {"--g": "2", "--n": "2", "--tau": "2,0", "--k": "1"},
    ("class", "compact-type-gm1"): {"--graph": TREE},
    ("class", "zero-section-shape"): {"--g": "3"},
    (None, "selftest"): {"--depth": "small"},
}
ROWS = [(group, name, cli._row_options(options))
        for group, name, _, _, options in cli.COMMANDS]


def _head(group, name):
    return [group, name] if group else [name]


def _parsed(parser, argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it exits."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def _plain_line(rng, group, name, rows, j):
    """A plain line of a command: random order, both value forms, the ``j``-th of every
    choice, negative integers and values argparse keeps as they are."""
    items = []
    for flag, _, keywords, _ in rows:
        if not keywords.get("required") and rng.random() < 0.5:
            continue
        if keywords.get("action") == "store_true":
            items.append([flag])
            continue
        if "choices" in keywords:
            value = keywords["choices"][j % len(keywords["choices"])]
        elif "type" in keywords:
            value = str(rng.randint(-20, 20))
        else:
            value = rng.choice(("v1=0,v2=1", BANANA, "", "x y", "-1,2", "-", "a=b=c", "+3",
                                "-x"))
        separate = value[:1] != "-" and rng.random() < 0.5
        items.append([flag, value] if separate else [f"{flag}={value}"])
    rng.shuffle(items)
    return _head(group, name) + [item for pair in items for item in pair]


def test_table_parse_equals_argparse_on_plain_lines():
    parser, rng = cli.build_parser(), random.Random(32)
    for group, name, rows in ROWS:
        for j in range(24):
            argv = _plain_line(rng, group, name, rows, j)
            table = cli._table_parse(argv)
            assert table is not None, argv
            assert vars(table) == _parsed(parser, argv), argv


def _unusual(rng, argv, rows):
    """``argv`` with one change that may take it off the plain form."""
    head = 1 if argv[0] == "selftest" else 2
    at = rng.randint(head, len(argv))
    valued = [flag for flag, _, keywords, _ in rows if keywords.get("action") != "store_true"]
    typed = [flag for flag, _, keywords, _ in rows if "type" in keywords] or valued
    chosen = [flag for flag, _, keywords, _ in rows if "choices" in keywords]
    required = [flag for flag, _, keywords, _ in rows if keywords.get("required")]
    flag = rng.choice(valued)
    pick = rng.randrange(13)
    if pick == 0:
        return argv[:at] + [rng.choice(("--help", "-h"))] + argv[at:]
    if pick == 1:  # an abbreviation, which argparse may resolve, refuse or read exactly
        return argv + [f"{flag[:rng.randint(3, len(flag) - 1)]}=1"] if len(flag) > 3 else argv
    if pick == 2:
        item = argv[rng.randrange(head, len(argv))] if len(argv) > head else "--output=text"
        return argv + [item if item[:2] == "--" else f"{flag}={item}"]
    if pick == 3:
        return argv[:at] + rng.choice((["--bogus", "x"], ["--bogus=x"], ["--bogus"])) + argv[at:]
    if pick == 4 and required:
        gone = rng.choice(required)
        out, skip = [], False
        for item in argv:
            if skip:
                skip = False
            elif item == gone:
                skip = True
            elif not item.startswith(gone + "="):
                out.append(item)
        return out
    if pick == 5 and chosen:
        return argv + [f"{rng.choice(chosen)}={rng.choice(('bogus', 'JSON', ' json', ''))}"]
    if pick == 6:
        value = rng.choice((" 3", "+3", "1_0", "²", "x", "-0", "3 "))
        flag = rng.choice(typed)
        return argv + ([f"{flag}={value}"] if rng.random() < 0.5 else [flag, value])
    if pick == 7:
        value = rng.choice(("--", "--x", "---"))
        return argv + ([f"{flag}={value}"] if rng.random() < 0.5 else [flag, value])
    if pick == 8:
        return argv + [flag, rng.choice(("-1", "-1,1", "-", "-x", "-5,5"))]
    if pick == 9:
        return argv + [rng.choice(("--exclude-empty=x", "--exclude-empty=", "--exclude-empty"))]
    if pick == 10:
        return argv[:at] + [rng.choice(("stray", "", "x=1"))] + argv[at:]
    if pick == 11:
        return argv[:at] + ["--"] + argv[at:]
    return rng.choice((["stability", "chek"], ["graph"], ["class", "theta-gm2"], [], ["nosuch"],
                       ["selftest", "graph"], ["Graph", "classify"])) + argv[head:]


def test_table_parse_leaves_unusual_lines_to_argparse(capsys):
    parser, rng = cli.build_parser(), random.Random(33)
    taken = refused = 0
    for group, name, rows in ROWS:
        for j in range(48):  # 912 lines
            argv = _unusual(rng, _plain_line(rng, group, name, rows, j), rows)
            line = cli._attach_tau(argv)
            table, expected = cli._table_parse(line), _parsed(parser, line)
            capsys.readouterr()
            assert table is None or vars(table) == expected, line
            taken += table is not None
            refused += expected is None
    # lines that stay plain (" 3", "+3", an exact flag) and usage errors both occur
    assert taken > 10 and refused > 600


def test_argparse_parses_are_counted(capsys, monkeypatch):
    # the selftest row's handler answers at once: only the parse is under test
    monkeypatch.setattr(selftest, "run", lambda depth, seed: {"ok": True, "checks": []})

    def parses(argv):
        before = stats.COUNTS["cli.argparse_parses"]
        try:
            main(argv)
        except SystemExit:
            pass
        capsys.readouterr()
        return stats.COUNTS["cli.argparse_parses"] - before

    assert list(PLAIN) == [(group, name) for group, name, _ in ROWS]
    for (group, name), flags in PLAIN.items():
        argv = _head(group, name) + [f"{flag}={value}" for flag, value in flags.items()]
        assert parses(argv) == 0, argv
        assert parses(argv + ["--output", "text"]) == 0, argv
    assert parses(["graph", "classify", "--help"]) == 1
    assert parses(["graph", "classify", "--graph", BANANA, "--graph", BANANA]) == 1
    assert parses(["class", "theta", "--g", "2", "--n", "2"]) == 1


@pytest.mark.parametrize("group, name, flag", [
    (group, name, flag) for group, name, rows in ROWS for flag, _, _, _ in rows])
def test_option_written_dash_dash_exits_2(capsys, group, name, flag):
    flags = {f: v for f, v in PLAIN[group, name].items() if f != flag}
    argv = _head(group, name) + [f"{f}={v}" for f, v in flags.items()] + [f"{flag}=--"]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and "Traceback" not in captured.err, captured
    parsed = _parsed(cli.build_parser(), argv)
    capsys.readouterr()
    if parsed is not None and type(parsed[flag[2:].replace("-", "_")]) is list:
        # argparse read '--' as no value at all, past its type and choices
        assert json.loads(captured.out) == {
            "error": "BAD_INPUT", "message": f"{flag} takes one value, not '--'"}


def test_first_option_written_dash_dash_in_row_order_is_named(capsys):
    argv = ["stability", "balanced", "--tau=--", "--graph=--"]
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "BAD_INPUT"
    if type(vars(cli.build_parser().parse_args(argv))["graph"]) is list:
        assert payload["message"] == "--graph takes one value, not '--'"
