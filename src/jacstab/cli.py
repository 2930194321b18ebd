"""Command-line surface: deterministic JSON/text reports over the library.

Exit codes: 0 for PASS/success payloads, 1 for FAIL verdicts (not stable, not
balanced, indeterminate locus, failed selftest), 2 for input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .divisors import theta_pullback, theta_pullback_hain, theta_gm1_pullback, mueller_class
from .errors import JacstabError
from .graphs import DualGraph
from .pushforward import (c1_twisted_bundle, theta_via_pushforward,
                          theta_gm1_via_pushforward, compact_type_gm1_multidegree,
                          exp_truncate)
from .stability import (Polarization, check_stability, enumerate_stable,
                        is_balanced, locus_membership, threshold, INDETERMINACY)
from .twister import (twist_multidegree, reduce_treelike, branch_coefficients,
                      branch_side, boundary_multidegree)


def _load_graph(source: str, check: bool = True) -> DualGraph:
    text = source
    if source == "-":
        text = sys.stdin.read()
    elif not source.lstrip().startswith("{"):
        path = Path(source)
        if not path.exists():
            raise JacstabError("BAD_INPUT", f"graph file not found: {source}")
        text = path.read_text()
    return DualGraph.from_json(text, check=check)


def _parse_int_map(value: str, what: str) -> dict[str, int]:
    value = value.strip()
    if value.startswith("{"):
        try:
            data = json.loads(value)
            return {str(k): int(v) for k, v in data.items()}
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise JacstabError("BAD_INPUT", f"malformed {what}: {exc}") from exc
    out: dict[str, int] = {}
    for piece in value.split(","):
        if not piece:
            continue
        try:
            key, num = piece.split("=")
            out[key.strip()] = int(num)
        except ValueError as exc:
            raise JacstabError("BAD_INPUT", f"malformed {what} entry {piece!r}") from exc
    return out


def _parse_tau(value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise JacstabError("BAD_INPUT", f"malformed tau vector {value!r}") from exc


def _resolve_tau_k(args) -> tuple[list[int], int]:
    """Twist data from --tau/--k flags or a --data JSON payload."""
    if getattr(args, "data", None):
        text = args.data
        if not text.lstrip().startswith("{"):
            path = Path(text)
            if not path.exists():
                raise JacstabError("BAD_INPUT", f"data file not found: {text}")
            text = path.read_text()
        try:
            payload = json.loads(text)
            tau = [int(x) for x in payload["tau"]]
            k = int(payload.get("k", 0))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise JacstabError("BAD_INPUT", f"malformed tau/k payload: {exc}") from exc
        return tau, k
    if args.tau is None:
        raise JacstabError("BAD_INPUT", "either --tau or --data is required")
    return _parse_tau(args.tau), args.k


def _parse_subcurve(value: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in value.split(",") if x.strip())


def _emit(args, payload: dict, text: str | None = None) -> None:
    if getattr(args, "output", "json") == "text" and text is not None:
        print(text)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _multidegree_text(m: dict[str, int]) -> str:
    return " ".join(f"{v}={m[v]}" for v in sorted(m))


# ----------------------------------------------------------------------
# graph commands

def cmd_graph_validate(args) -> int:
    graph = _load_graph(args.graph, check=False)
    violations = graph.validate()
    payload = {"ok": not violations, "g": graph.g, "n": graph.n,
               "violations": violations}
    _emit(args, payload, "ok" if not violations else
          "\n".join(v["message"] for v in violations))
    return 0 if not violations else 1


def cmd_graph_classify(args) -> int:
    graph = _load_graph(args.graph)
    result = graph.classify()
    payload = {"g": graph.g, "n": graph.n, **result.to_json_dict()}
    _emit(args, payload, " ".join(f"{k}={v}" for k, v in sorted(payload.items())))
    return 0


def cmd_graph_query(args) -> int:
    graph = _load_graph(args.graph)
    Y = _parse_subcurve(args.subcurve)
    payload = {
        "subcurve": sorted(Y),
        "omega_degree": graph.omega_degree(Y),
        "genus": graph.subcurve_genus(Y),
        "connected": graph.is_connected_subset(Y),
    }
    if 0 < len(Y) < len(graph.ids):
        payload["kappa"] = graph.kappa(Y)
    _emit(args, payload, " ".join(f"{k}={payload[k]}" for k in sorted(payload)))
    return 0


# ----------------------------------------------------------------------
# stability commands

def cmd_stability_threshold(args) -> int:
    graph = _load_graph(args.graph)
    pol = Polarization.preset(args.pol)
    value = threshold(graph, pol, _parse_subcurve(args.subcurve))
    _emit(args, {"threshold": str(value)}, str(value))
    return 0


def cmd_stability_check(args) -> int:
    graph = _load_graph(args.graph)
    pol = Polarization.preset(args.pol)
    m = _parse_int_map(args.m, "multidegree")
    verdict = check_stability(graph, pol, m, args.mode, basepoint=args.basepoint)
    _emit(args, verdict.to_json_dict(),
          "PASS" if verdict.ok else f"FAIL witness={','.join(verdict.witness)}")
    return 0 if verdict.ok else 1


def cmd_stability_enumerate(args) -> int:
    graph = _load_graph(args.graph)
    pol = Polarization.preset(args.pol)
    found = enumerate_stable(graph, pol, args.mode, basepoint=args.basepoint)
    payload = {"count": len(found), "multidegrees": found}
    _emit(args, payload, "\n".join(_multidegree_text(m) for m in found) or "(none)")
    return 0


def cmd_stability_balanced(args) -> int:
    graph = _load_graph(args.graph)
    tau, k = _resolve_tau_k(args)
    verdict = is_balanced(graph, tau, k)
    _emit(args, verdict.to_json_dict(),
          "PASS" if verdict.ok else f"FAIL witness={','.join(verdict.witness)}")
    return 0 if verdict.ok else 1


def cmd_stability_locus(args) -> int:
    graph = _load_graph(args.graph)
    tau, k = _resolve_tau_k(args)
    result = locus_membership(graph, tau, k)
    _emit(args, {"locus": result}, result)
    return 0 if result != INDETERMINACY else 1


# ----------------------------------------------------------------------
# twister commands

def cmd_twist_apply(args) -> int:
    graph = _load_graph(args.graph)
    gamma = _parse_int_map(args.gamma, "gamma")
    m = twist_multidegree(graph, gamma)
    _emit(args, {"multidegree": m}, _multidegree_text(m))
    return 0


def cmd_twist_reduce(args) -> int:
    graph = _load_graph(args.graph)
    m = _parse_int_map(args.m, "multidegree")
    result = reduce_treelike(graph, m, root=args.root)
    _emit(args, result.to_json_dict(),
          "gamma: " + _multidegree_text(result.gamma) + "\n"
          + "\n".join(f"peel {s.leaf} coeff={s.coefficient} branch={','.join(s.branch)}"
                      for s in result.trace))
    return 0


def cmd_twist_coefficients(args) -> int:
    graph = _load_graph(args.graph)
    tau, k = _resolve_tau_k(args)
    coeffs = branch_coefficients(graph, tau, k, basepoint=args.basepoint)
    entries = []
    for edge in sorted(coeffs):
        Z = branch_side(graph, edge, basepoint=args.basepoint)
        entries.append({"edge": list(edge), "branch": sorted(Z),
                        "coefficient": coeffs[edge]})
    _emit(args, {"coefficients": entries},
          "\n".join(f"{e['edge'][0]}--{e['edge'][1]}: {e['coefficient']}"
                    for e in entries) or "(no separating edges)")
    return 0


def cmd_twist_boundary(args) -> int:
    graph = _load_graph(args.graph)
    tau, k = _resolve_tau_k(args)
    m = boundary_multidegree(graph, tau, k, basepoint=args.basepoint)
    payload = {"multidegree": m, "zero": all(v == 0 for v in m.values())}
    _emit(args, payload, _multidegree_text(m))
    return 0


# ----------------------------------------------------------------------
# class commands

def cmd_class_theta(args) -> int:
    tau = _parse_tau(args.tau)
    if args.method == "closed":
        cls = theta_pullback(args.g, args.n, tau, args.k)
    elif args.method == "derive":
        cls = theta_via_pushforward(args.g, args.n, tau, args.k)
    else:
        if args.k != 0:
            raise JacstabError("BAD_INPUT", "the hain method is the k = 0 case")
        cls = theta_pullback_hain(args.g, args.n, tau)
    _emit(args, cls.to_json_dict(), cls.text())
    return 0


def cmd_class_theta_gm1(args) -> int:
    tau = _parse_tau(args.tau)
    if args.method == "closed":
        cls = theta_gm1_pullback(args.g, args.n, tau)
    else:
        cls = theta_gm1_via_pushforward(args.g, args.n, tau)
    _emit(args, cls.to_json_dict(), cls.text())
    return 0


def cmd_class_mueller(args) -> int:
    cls = mueller_class(args.g, args.n, _parse_tau(args.tau),
                        include_empty=not args.exclude_empty)
    _emit(args, cls.to_json_dict(), cls.text())
    return 0


def cmd_class_c1(args) -> int:
    fc = c1_twisted_bundle(args.g, args.n, _parse_tau(args.tau), args.k)
    _emit(args, fc.to_json_dict(), fc.text())
    return 0


def cmd_class_compact_type(args) -> int:
    graph = _load_graph(args.graph)
    m = compact_type_gm1_multidegree(graph, basepoint=args.basepoint)
    _emit(args, {"multidegree": m}, _multidegree_text(m))
    return 0


def cmd_class_zero_section_shape(args) -> int:
    poly = exp_truncate(args.g)
    _emit(args, poly.to_json_dict(), poly.text())
    return 0


# ----------------------------------------------------------------------
# selftest

def cmd_selftest(args) -> int:
    # imported here so that no other command loads the suite, its oracles
    # and its corpus
    from .selftest import run

    seed = args.seed
    env = os.environ.get("JACSTAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise JacstabError("BAD_INPUT", f"JACSTAB_SEED must be an integer: {env!r}") from exc
    report = run(depth=args.depth, seed=seed)
    lines = [f"{c['name']}: {'ok' if c['ok'] else 'FAIL'} ({c['cases']} cases)"
             + (f" first counterexample: {c['counterexample']}" if c["counterexample"] else "")
             for c in report["checks"]]
    _emit(args, report, "\n".join(lines + ["ok" if report["ok"] else "FAILED"]))
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
# parser assembly

def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=("json", "text"), default="json",
                   help="payload format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacstab",
        description="dual-graph stability, twister reduction and divisor-class calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="dual graph queries").add_subparsers(
        dest="subcommand", required=True)
    p = graph.add_parser("validate", help="report invariant violations")
    p.add_argument("--graph", required=True, help="path, '-' for stdin, or inline JSON")
    _add_output(p)
    p.set_defaults(func=cmd_graph_validate)
    p = graph.add_parser("classify", help="treelike / compact-type / banana flags")
    p.add_argument("--graph", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_graph_classify)
    p = graph.add_parser("query", help="kappa, dualizing degree and genus of a subcurve")
    p.add_argument("--graph", required=True)
    p.add_argument("--subcurve", required=True, help="comma-separated vertex ids")
    _add_output(p)
    p.set_defaults(func=cmd_graph_query)

    stab = sub.add_parser("stability", help="multidegree stability").add_subparsers(
        dest="subcommand", required=True)
    p = stab.add_parser("threshold", help="subcurve threshold for a polarization")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", default="canonical0", choices=("canonical0", "trivial-gm1"))
    p.add_argument("--subcurve", required=True)
    _add_output(p)
    p.set_defaults(func=cmd_stability_threshold)
    p = stab.add_parser("check", help="test one multidegree")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", default="canonical0", choices=("canonical0", "trivial-gm1"))
    p.add_argument("--mode", default="qstable", choices=("semistable", "stable", "qstable"))
    p.add_argument("--m", required=True, help="multidegree: 'v1=0,v2=1' or JSON object")
    p.add_argument("--basepoint", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_stability_check)
    p = stab.add_parser("enumerate", help="all stable multidegrees")
    p.add_argument("--graph", required=True)
    p.add_argument("--pol", default="canonical0", choices=("canonical0", "trivial-gm1"))
    p.add_argument("--mode", default="qstable", choices=("semistable", "stable", "qstable"))
    p.add_argument("--basepoint", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_stability_enumerate)
    p = stab.add_parser("balanced", help="balanced inequalities for (tau, k)")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", default=None, help="comma-separated integers")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--data", default=None,
                   help="JSON payload {\"tau\": [...], \"k\": int} (path or inline)")
    _add_output(p)
    p.set_defaults(func=cmd_stability_balanced)
    p = stab.add_parser("locus", help="balanced / treelike locus membership")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--data", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_stability_locus)

    twist = sub.add_parser("twist", help="twister action and reduction").add_subparsers(
        dest="subcommand", required=True)
    p = twist.add_parser("apply", help="multidegree of a twister")
    p.add_argument("--graph", required=True)
    p.add_argument("--gamma", required=True, help="'v1=0,v2=1' or JSON object")
    _add_output(p)
    p.set_defaults(func=cmd_twist_apply)
    p = twist.add_parser("reduce", help="treelike reduction to the zero multidegree")
    p.add_argument("--graph", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--root", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_twist_reduce)
    p = twist.add_parser("coefficients", help="per-edge twist coefficients")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--data", default=None)
    p.add_argument("--basepoint", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_twist_coefficients)
    p = twist.add_parser("boundary", help="fiber multidegree of the twisted bundle")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--data", default=None)
    p.add_argument("--basepoint", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_twist_boundary)

    cls = sub.add_parser("class", help="divisor classes").add_subparsers(
        dest="subcommand", required=True)
    p = cls.add_parser("theta", help="theta pullback for (tau, k)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--method", default="closed", choices=("closed", "derive", "hain"))
    _add_output(p)
    p.set_defaults(func=cmd_class_theta)
    p = cls.add_parser("theta-gm1", help="degree g-1 theta pullback")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--method", default="closed", choices=("closed", "derive"))
    _add_output(p)
    p.set_defaults(func=cmd_class_theta_gm1)
    p = cls.add_parser("mueller", help="effective-locus class in degree g-1")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--exclude-empty", action="store_true",
                   help="drop A = empty terms from the correction")
    _add_output(p)
    p.set_defaults(func=cmd_class_mueller)
    p = cls.add_parser("c1", help="first Chern class of the twisted bundle")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("--k", type=int, default=0)
    _add_output(p)
    p.set_defaults(func=cmd_class_c1)
    p = cls.add_parser("compact-type-gm1", help="degree g-1 multidegree rule")
    p.add_argument("--graph", required=True)
    p.add_argument("--basepoint", default=None)
    _add_output(p)
    p.set_defaults(func=cmd_class_compact_type)
    p = cls.add_parser("zero-section-shape", help="graded exponential truncation")
    p.add_argument("--g", type=int, required=True)
    _add_output(p)
    p.set_defaults(func=cmd_class_zero_section_shape)

    p = sub.add_parser("selftest", help="cross-formula consistency suite")
    p.add_argument("--depth", default="small", choices=("small", "full"))
    p.add_argument("--seed", type=int, default=0,
                   help="corpus seed (JACSTAB_SEED overrides)")
    _add_output(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def _attach_tau(argv: list[str]) -> list[str]:
    """Rewrite ``--tau -1,1`` as ``--tau=-1,1``.

    argparse reads a separate value that starts with a minus sign and is not
    a plain number as an option, so a tau vector with a negative first entry
    would otherwise be refused.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--tau" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--tau={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_tau(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except JacstabError as exc:
        print(json.dumps(exc.to_json_dict(), sort_keys=True, indent=2))
        return 2


if __name__ == "__main__":
    sys.exit(main())
