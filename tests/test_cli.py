import json
import os
import random
import subprocess
import sys
import time

import pytest

from jacstab import theta_via_pushforward
from jacstab.corpus import random_tau
from jacstab.pushforward import PUSH_RULES
from jacstab import cli
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
], ids=["check-pass", "check-fail-strict", "check-fail-semistable", "balanced-pass",
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

    monkeypatch.setattr(cli, "enumerate_stable", broken)
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


def test_selftest_detects_corrupted_rule_table(capsys, monkeypatch):
    # flipping the sign of the boundary self-intersection rule must be caught
    monkeypatch.setitem(PUSH_RULES, "B2", lambda h, A: [("delta", h, A, 1)])
    code, payload = run_json(capsys, "selftest", "--depth", "small")
    assert code == 1 and not payload["ok"]
    broken = {c["name"] for c in payload["checks"] if not c["ok"]}
    assert "theta-derive-vs-closed" in broken
