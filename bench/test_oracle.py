"""Each answer check accepts jacstab's answer and rejects a corrupted one.

    python3 bench/test_oracle.py        (from the repository root)

Standard library only.  Every case draws a real input from workloads.py, runs
it through jacstab's CLI, checks that the answer passes, then corrupts the
answer and checks that the same check raises Mismatch.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jacstab.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from oracle import Graph, Mismatch  # noqa: E402


def answer(op: W.Op) -> tuple[int, dict]:
    code, out, _, _ = run.call(jacstab.cli, op.argv)
    return code, json.loads(out)


def flags(op: W.Op) -> dict[str, str]:
    """The --flag value pairs of an op's command line (after the two command words)."""
    args = {}
    for item in op.argv[2:]:
        if item.startswith("--") and "=" in item:
            key, value = item.split("=", 1)
            args[key] = value
        elif item.startswith("--"):
            args[item] = None
            last = item
        else:
            args[last] = item
    return args


def class_args(op: W.Op) -> tuple[int, int, list[int]]:
    args = flags(op)
    return int(args["--g"]), int(args["--n"]), [int(x) for x in args["--tau"].split(",")]


class CheckerTest(unittest.TestCase):

    def assert_rejects(self, op: W.Op, corrupt, code_change=None) -> None:
        """The real answer passes; corrupt(payload) makes the check fail."""
        code, payload = answer(op)
        self.assertIn(code, op.exits)
        op.check(code, payload)
        bad = copy.deepcopy(payload)
        corrupt(bad)
        bad_code = code if code_change is None else code_change(code)
        with self.assertRaises(Mismatch):
            op.check(bad_code, bad)

    def first(self, maker, size=W.SMALL, want=None, seed=0):
        """First op the maker draws (optionally whose answer satisfies want)."""
        rng = random.Random(f"test/{maker.__name__}/{seed}")
        for _ in range(200):
            op = maker(rng, size)
            if want is None or want(*answer(op)):
                return op
        self.fail(f"no suitable input for {maker.__name__}")

    # -- enumerate -----------------------------------------------------------

    def enumerate_op(self) -> W.Op:
        return list(W.enumerate_round(1, 0, W.Unique()))[4]

    def test_enumerate_dropped_result(self):
        def drop(p):
            p["multidegrees"].pop()
            p["count"] -= 1
        self.assert_rejects(self.enumerate_op(), drop)

    def test_enumerate_unstable_result(self):
        def shift(p):
            m = p["multidegrees"][0]
            a, b = sorted(m)[:2]
            m[a] += 5
            m[b] -= 5
        self.assert_rejects(self.enumerate_op(), shift)

    def test_enumerate_repeated_result(self):
        def repeat(p):
            p["multidegrees"][1] = dict(p["multidegrees"][0])
        self.assert_rejects(self.enumerate_op(), repeat)

    def test_enumerate_wrong_degree(self):
        def bump(p):
            m = p["multidegrees"][-1]
            m[sorted(m)[0]] += 1
        self.assert_rejects(self.enumerate_op(), bump)

    def test_spanning_trees(self):
        def complete(V):
            ids = W.vertex_ids(V)
            return Graph({"vertices": [{"id": v, "genus": 0, "legs": []} for v in ids],
                          "edges": [[a, b] for i, a in enumerate(ids) for b in ids[i + 1:]]})
        self.assertEqual([complete(V).spanning_trees() for V in (2, 3, 4, 5, 6)],
                         [1, 3, 16, 125, 1296])
        banana = Graph({"vertices": [{"id": "a", "genus": 0, "legs": [1]},
                                     {"id": "b", "genus": 0, "legs": []}],
                        "edges": [["a", "b"]] * 3 + [["b", "b"]]})
        self.assertEqual(banana.spanning_trees(), 3)

    # -- classes -------------------------------------------------------------

    def test_derived_theta_wrong_boundary_coefficient(self):
        op = W.theta_op(3, 4, [1, -2, 3, 2], 1, "derive")

        def nudge(p):
            p["delta"][0]["c"] = str(oracle.Fraction(p["delta"][0]["c"]) + 1)
        self.assert_rejects(op, nudge)

    def test_derived_gm1_wrong_lambda(self):
        self.assert_rejects(W.gm1_op(3, 4, [1, 2, -1, 0], "derive"),
                            lambda p: p.update(lambda1="0"))

    def test_closed_theta_missing_psi(self):
        op = self.first(W.closed_theta_op, W.LARGE)
        self.assert_rejects(op, lambda p: p["psi"].pop(sorted(p["psi"])[0]))

    def test_closed_gm1_extra_boundary_term(self):
        op = self.first(W.closed_gm1_op, W.LARGE)
        self.assert_rejects(op, lambda p: p["delta"].append({"h": 0, "A": [1, 2], "c": "7"}))

    def test_mueller_without_correction(self):
        rng = random.Random("test/mueller")
        while True:
            op = W.mueller_op(rng, W.LARGE)
            g, n, tau = class_args(op)
            plain = oracle.theta_gm1_closed(g, n, tau)
            if oracle.mueller_closed(g, n, tau) != plain:
                break

        def uncorrected(p):
            p["delta"] = [{"h": h, "A": list(A), "c": str(c)}
                          for (h, A), c in sorted(plain["delta"].items())]
        self.assert_rejects(op, uncorrected)

    # -- query ---------------------------------------------------------------

    def test_check_flipped_verdict(self):
        flip = {0: 1, 1: 0}
        for want_code in (0, 1):
            op = self.first(W.stability_check_op, want=lambda c, p: c == want_code)
            self.assert_rejects(op, lambda p: p.update(ok=not p["ok"]), flip.get)

    def test_check_false_witness(self):
        op = self.first(W.stability_check_op, want=lambda c, p: c == 1)
        args = flags(op)
        graph = Graph(json.loads(args["--graph"]))
        m = {v: int(d) for v, d in (x.split("=") for x in args["--m"].split(","))}
        inequalities = oracle.stability(graph, args["--pol"], args["--mode"], m)
        innocent = next(mask for mask in range(1, graph.full) if not inequalities.violated(mask))
        self.assert_rejects(op, lambda p: p.update(witness=graph.names(innocent)))

    def test_balanced_flipped_verdict(self):
        flip = {0: 1, 1: 0}
        for want_code in (0, 1):
            op = self.first(W.balanced_op, want=lambda c, p: c == want_code)
            self.assert_rejects(op, lambda p: p.update(ok=not p["ok"]), flip.get)

    def test_locus_wrong_answer(self):
        op = self.first(W.locus_op)
        self.assert_rejects(op, lambda p: p.update(
            locus="BOTH" if p["locus"] != "BOTH" else "BALANCED"))

    def test_reduce_wrong_gamma(self):
        op = self.first(W.reduce_op, want=lambda c, p: len(p["gamma"]) > 2)

        def bump(p):
            v = sorted(p["gamma"])[-1]
            p["gamma"][v] += 1
        self.assert_rejects(op, bump)

    def test_reduce_gamma_not_zero_at_root(self):
        op = self.first(W.reduce_op)
        self.assert_rejects(op, lambda p: p.update(gamma={v: c + 1 for v, c in p["gamma"].items()}))

    def test_coefficients_off_by_one(self):
        op = self.first(W.coefficients_op, want=lambda c, p: p["coefficients"])

        def bump(p):
            p["coefficients"][0]["coefficient"] += 1
        self.assert_rejects(op, bump)

    def test_boundary_not_zero(self):
        op = self.first(W.boundary_op)

        def bump(p):
            p["multidegree"][sorted(p["multidegree"])[0]] = 1
        self.assert_rejects(op, bump)

    def test_validate_missed_violation(self):
        op = self.first(W.validate_op, want=lambda c, p: c == 1)
        self.assert_rejects(op, lambda p: p["violations"].pop())

    def test_classify_wrong_flag(self):
        op = self.first(W.classify_op)
        self.assert_rejects(op, lambda p: p.update(treelike=not p["treelike"]))

    def test_rejection_with_another_code(self):
        op = W.malformed_ops(random.Random("test/malformed"), 0, W.Unique())[0]
        self.assert_rejects(op, lambda p: p.update(error="BAD_INPUT"))


class AccountingTest(unittest.TestCase):
    """Which operations count as failed and which as wrong answers."""

    def setUp(self):
        ops = W.malformed_ops(random.Random("test/malformed"), 0, W.Unique())
        self.valid, self.known = ops[0], ops[-2:]

    def test_only_the_genus_inputs_are_known_faults(self):
        self.assertFalse(self.valid.known_fault)
        self.assertTrue(all(op.known_fault for op in self.known))

    def test_outcome_without_an_answer(self):
        for op in self.known + [self.valid]:
            self.assertEqual(run.outcome(op, None, ""), (True, "exception"))
            self.assertTrue(run.outcome(op, 0, "{}")[0])
            self.assertTrue(run.outcome(op, 2, "usage")[0])

    def test_tally(self):
        tally = run.Tally()
        for op in self.known:
            tally.record(op, None, "")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 2, 0))
        tally.record(self.valid, None, "")
        tally.record(self.valid, 0, "{}")
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (4, 2, 2))
        tally.record(self.valid, 2, json.dumps({"error": "TAU_SUM"}))
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (5, 2, 2))

if __name__ == "__main__":
    unittest.main()
