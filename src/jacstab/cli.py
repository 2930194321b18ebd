"""Command-line surface: deterministic JSON/text reports over the library.

Exit codes: 0 for PASS/success payloads, 1 for FAIL verdicts (not stable, not
balanced, indeterminate locus, failed selftest), 2 for input errors, 3 for an
internal error (``{"error": "INTERNAL", ...}`` on stdout, the traceback on
stderr), so that a crash is never read as a FAIL verdict.

Multidegree, twister and tau/k JSON payloads take JSON integers only; a float,
a boolean or a string is rejected with BAD_INPUT.  The comma form ``v1=1,v2=-1``
is read as text.  Every JSON input, the graph included, is read by
``errors.load_json``, so a key repeated in one object is BAD_INPUT, as is a
vertex repeated in the comma form or in ``--subcurve``.  ``--data`` replaces
``--tau`` and ``--k``, so naming it with either (a non-zero ``--k``) is
BAD_INPUT.

Every command is one row of ``COMMANDS`` and every option one entry of
``OPTIONS``, which also names the function converting its string;
``build_parser`` turns them into an argparse tree, which ``main`` builds on its
first call and reuses.  ``main`` converts the options, calls the handler and
prints the (exit code, payload, text) answer it returns in the --output form.
A result record of the library enters a payload through ``_payload``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .divisors import theta_pullback, theta_pullback_hain, theta_gm1_pullback, mueller_class
from .errors import JacstabError, load_json, strict_int, _unique_keys
from .graphs import DualGraph
from .pushforward import (c1_twisted_bundle, theta_via_pushforward,
                          theta_gm1_via_pushforward, compact_type_gm1_multidegree,
                          exp_truncate)
from .stability import (Polarization, check_stability, enumerate_stable,
                        is_balanced, locus_membership, threshold, INDETERMINACY)
from .twister import (twist_multidegree, reduce_treelike, branch_coefficients,
                      branch_side, boundary_multidegree)


def _read_json_arg(value: str, what: str) -> str:
    """Inline JSON as given, else the text of the file it names.

    A missing file, one that cannot be read (a directory, say), one that is
    not UTF-8 and a name the system refuses (too long, say) are all BAD_INPUT.
    """
    if value.lstrip().startswith("{"):
        return value
    path = Path(value)
    try:
        if not path.exists():
            raise JacstabError("BAD_INPUT", f"{what} file not found: {value}")
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise JacstabError("BAD_INPUT", f"cannot read {what} file {value}: {exc}") from exc


def _load_graph(source: str, check: bool = True) -> DualGraph:
    text = sys.stdin.read() if source == "-" else _read_json_arg(source, "graph")
    return DualGraph.from_json(text, check=check)


def _parse_int_map(value: str, what: str) -> dict[str, int]:
    value = value.strip()
    if value.startswith("{"):
        data = load_json(value, what)
        return {str(k): strict_int(v, f"{what} entry {k!r}") for k, v in data.items()}
    pairs = []
    for piece in value.split(","):
        if not piece:
            continue
        try:
            key, num = piece.split("=")
            pairs.append((key.strip(), int(num)))
        except ValueError as exc:
            raise JacstabError("BAD_INPUT", f"malformed {what} entry {piece!r}") from exc
    return _unique_keys(pairs, what)


def _parse_tau(value: str) -> list[int]:
    try:
        return [int(x) for x in value.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise JacstabError("BAD_INPUT", f"malformed tau vector {value!r}") from exc


def _resolve_tau_k(args) -> tuple[list[int], int]:
    """Twist data from --tau/--k flags or a --data JSON payload, not both."""
    if args.data:
        if args.tau is not None or args.k != 0:
            raise JacstabError("BAD_INPUT", "--data excludes --tau and a non-zero --k")
        payload = load_json(_read_json_arg(args.data, "data"), "tau/k payload")
        try:
            tau = [strict_int(x, "tau entry") for x in payload["tau"]]
            k = strict_int(payload.get("k", 0), "k")
        except (KeyError, TypeError) as exc:
            raise JacstabError("BAD_INPUT", f"malformed tau/k payload: {exc}") from exc
        return tau, k
    if args.tau is None:
        raise JacstabError("BAD_INPUT", "either --tau or --data is required")
    return _parse_tau(args.tau), args.k


def _parse_subcurve(value: str) -> tuple[str, ...]:
    names = (x.strip() for x in value.split(","))
    return tuple(_unique_keys(((x, None) for x in names if x), "subcurve"))


def _multidegree_text(m: dict[str, int]) -> str:
    return " ".join(f"{v}={m[v]}" for v in sorted(m))


# ----------------------------------------------------------------------
# Each handler gets its options already converted by their OPTIONS entries
# and returns (exit code, JSON payload, text form); ``main`` prints one form.

def _payload(value):
    """A result record's JSON form: a dataclass as its fields that are not
    None, a tuple as a list, a Fraction as its text, recursively."""
    if dataclasses.is_dataclass(value):
        return {field.name: _payload(getattr(value, field.name))
                for field in dataclasses.fields(value) if getattr(value, field.name) is not None}
    if type(value) is tuple:
        return [_payload(x) for x in value]
    return str(value) if type(value) is Fraction else value


def _verdict(verdict) -> tuple[int, dict, str]:
    return (0 if verdict.ok else 1, _payload(verdict),
            "PASS" if verdict.ok else f"FAIL witness={','.join(verdict.witness)}")


def _class(cls) -> tuple[int, dict, str]:
    return 0, cls.to_json_dict(), cls.text()


# ----------------------------------------------------------------------
# graph commands

def cmd_graph_validate(args):
    violations = args.graph.validate()
    payload = {"ok": not violations, "g": args.graph.g, "n": args.graph.n,
               "violations": violations}
    return (1 if violations else 0, payload,
            "\n".join(v["message"] for v in violations) if violations else "ok")


def cmd_graph_classify(args):
    payload = {"g": args.graph.g, "n": args.graph.n, **_payload(args.graph.classify())}
    return 0, payload, " ".join(f"{k}={v}" for k, v in sorted(payload.items()))


def cmd_graph_query(args):
    graph, Y = args.graph, args.subcurve
    payload = {
        "subcurve": sorted(Y),
        "omega_degree": graph.omega_degree(Y),
        "genus": graph.subcurve_genus(Y),
        "connected": graph.is_connected_subset(Y),
    }
    if 0 < len(Y) < len(graph.ids):
        payload["kappa"] = graph.kappa(Y)
    return 0, payload, " ".join(f"{k}={payload[k]}" for k in sorted(payload))


# ----------------------------------------------------------------------
# stability commands

def cmd_stability_threshold(args):
    value = str(threshold(args.graph, args.pol, args.subcurve))
    return 0, {"threshold": value}, value


def cmd_stability_check(args):
    return _verdict(check_stability(args.graph, args.pol, args.m, args.mode,
                                    basepoint=args.basepoint))


def cmd_stability_enumerate(args):
    found = enumerate_stable(args.graph, args.pol, args.mode, basepoint=args.basepoint)
    return (0, {"count": len(found), "multidegrees": found},
            "\n".join(_multidegree_text(m) for m in found) or "(none)")


def cmd_stability_balanced(args):
    return _verdict(is_balanced(args.graph, *_resolve_tau_k(args)))


def cmd_stability_locus(args):
    result = locus_membership(args.graph, *_resolve_tau_k(args))
    return (0 if result != INDETERMINACY else 1), {"locus": result}, result


# ----------------------------------------------------------------------
# twister commands

def cmd_twist_apply(args):
    m = twist_multidegree(args.graph, args.gamma)
    return 0, {"multidegree": m}, _multidegree_text(m)


def cmd_twist_reduce(args):
    result = reduce_treelike(args.graph, args.m, root=args.root)
    return (0, _payload(result),
            "gamma: " + _multidegree_text(result.gamma) + "\n"
            + "\n".join(f"peel {s.leaf} coeff={s.coefficient} branch={','.join(s.branch)}"
                        for s in result.trace))


def cmd_twist_coefficients(args):
    graph, basepoint = args.graph, args.basepoint
    coeffs = branch_coefficients(graph, *_resolve_tau_k(args), basepoint=basepoint)
    entries = [{"edge": list(edge), "branch": sorted(branch_side(graph, edge, basepoint=basepoint)),
                "coefficient": coeffs[edge]} for edge in sorted(coeffs)]
    return (0, {"coefficients": entries},
            "\n".join(f"{e['edge'][0]}--{e['edge'][1]}: {e['coefficient']}"
                      for e in entries) or "(no separating edges)")


def cmd_twist_boundary(args):
    m = boundary_multidegree(args.graph, *_resolve_tau_k(args), basepoint=args.basepoint)
    return (0, {"multidegree": m, "zero": all(v == 0 for v in m.values())},
            _multidegree_text(m))


# ----------------------------------------------------------------------
# class commands

def cmd_class_theta(args):
    if args.method == "closed":
        return _class(theta_pullback(args.g, args.n, args.tau, args.k))
    if args.method == "derive":
        return _class(theta_via_pushforward(args.g, args.n, args.tau, args.k))
    if args.k != 0:
        raise JacstabError("BAD_INPUT", "the hain method is the k = 0 case")
    return _class(theta_pullback_hain(args.g, args.n, args.tau))


def cmd_class_theta_gm1(args):
    method = theta_gm1_pullback if args.method == "closed" else theta_gm1_via_pushforward
    return _class(method(args.g, args.n, args.tau))


def cmd_class_mueller(args):
    return _class(mueller_class(args.g, args.n, args.tau, include_empty=not args.exclude_empty))


def cmd_class_c1(args):
    return _class(c1_twisted_bundle(args.g, args.n, args.tau, args.k))


def cmd_class_compact_type(args):
    m = compact_type_gm1_multidegree(args.graph, basepoint=args.basepoint)
    return 0, {"multidegree": m}, _multidegree_text(m)


def cmd_class_zero_section_shape(args):
    return _class(exp_truncate(args.g))


# ----------------------------------------------------------------------
# selftest

def cmd_selftest(args):
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
    return (0 if report["ok"] else 1, report,
            "\n".join(lines + ["ok" if report["ok"] else "FAILED"]))


# ----------------------------------------------------------------------
# command table

# Every option once, as ``add_argument`` keywords plus, under "convert", the
# function that turns its string into the value the handlers read.
OPTIONS = {
    "--graph": {"required": True, "convert": _load_graph},
    "--subcurve": {"required": True, "convert": _parse_subcurve},
    "--pol": {"default": "canonical0", "choices": ("canonical0", "trivial-gm1"),
              "convert": Polarization.preset},
    "--mode": {"default": "qstable", "choices": ("semistable", "stable", "qstable")},
    "--m": {"required": True, "convert": lambda value: _parse_int_map(value, "multidegree")},
    "--gamma": {"required": True, "help": "'v1=0,v2=1' or JSON object",
                "convert": lambda value: _parse_int_map(value, "gamma")},
    "--root": {"default": None},
    "--basepoint": {"default": None},
    "--tau": {"default": None},
    "--k": {"type": int, "default": 0},
    "--data": {"default": None},
    "--g": {"type": int, "required": True},
    "--n": {"type": int, "required": True},
    "--method": {"default": "closed", "choices": ("closed", "derive")},
    "--exclude-empty": {"action": "store_true",
                        "help": "drop A = empty terms from the correction"},
    "--depth": {"default": "small", "choices": ("small", "full")},
    "--seed": {"type": int, "default": 0, "help": "corpus seed (JACSTAB_SEED overrides)"},
    "--output": {"choices": ("json", "text"), "default": "json",
                 "help": "payload format (default json)"},
}

GROUPS = (
    ("graph", "dual graph queries"),
    ("stability", "multidegree stability"),
    ("twist", "twister action and reduction"),
    ("class", "divisor classes"),
)

TAU_K = ("--tau", "--k", "--data")
CLASS_TAU = ("--g", "--n", ("--tau", {"required": True, "convert": _parse_tau}))

# (group or None for a top-level command, name, help, handler, options).  An
# option is a flag of OPTIONS, or (flag, keywords) where the keywords replace
# that flag's shared ones for this command.  Every command also takes --output.
COMMANDS = (
    ("graph", "validate", "report invariant violations", cmd_graph_validate,
     (("--graph", {"help": "path, '-' for stdin, or inline JSON",
                   "convert": lambda source: _load_graph(source, check=False)}),)),
    ("graph", "classify", "treelike / compact-type / banana flags", cmd_graph_classify,
     ("--graph",)),
    ("graph", "query", "kappa, dualizing degree and genus of a subcurve", cmd_graph_query,
     ("--graph", ("--subcurve", {"help": "comma-separated vertex ids"}))),
    ("stability", "threshold", "subcurve threshold for a polarization",
     cmd_stability_threshold, ("--graph", "--pol", "--subcurve")),
    ("stability", "check", "test one multidegree", cmd_stability_check,
     ("--graph", "--pol", "--mode",
      ("--m", {"help": "multidegree: 'v1=0,v2=1' or JSON object"}), "--basepoint")),
    ("stability", "enumerate", "all stable multidegrees", cmd_stability_enumerate,
     ("--graph", "--pol", "--mode", "--basepoint")),
    ("stability", "balanced", "balanced inequalities for (tau, k)", cmd_stability_balanced,
     ("--graph", ("--tau", {"help": "comma-separated integers"}), "--k",
      ("--data", {"help": "JSON payload {\"tau\": [...], \"k\": int} (path or inline)"}))),
    ("stability", "locus", "balanced / treelike locus membership", cmd_stability_locus,
     ("--graph",) + TAU_K),
    ("twist", "apply", "multidegree of a twister", cmd_twist_apply, ("--graph", "--gamma")),
    ("twist", "reduce", "treelike reduction to the zero multidegree", cmd_twist_reduce,
     ("--graph", "--m", "--root")),
    ("twist", "coefficients", "per-edge twist coefficients", cmd_twist_coefficients,
     ("--graph",) + TAU_K + ("--basepoint",)),
    ("twist", "boundary", "fiber multidegree of the twisted bundle", cmd_twist_boundary,
     ("--graph",) + TAU_K + ("--basepoint",)),
    ("class", "theta", "theta pullback for (tau, k)", cmd_class_theta,
     CLASS_TAU + ("--k", ("--method", {"choices": ("closed", "derive", "hain")}))),
    ("class", "theta-gm1", "degree g-1 theta pullback", cmd_class_theta_gm1,
     CLASS_TAU + ("--method",)),
    ("class", "mueller", "effective-locus class in degree g-1", cmd_class_mueller,
     CLASS_TAU + ("--exclude-empty",)),
    ("class", "c1", "first Chern class of the twisted bundle", cmd_class_c1,
     CLASS_TAU + ("--k",)),
    ("class", "compact-type-gm1", "degree g-1 multidegree rule", cmd_class_compact_type,
     ("--graph", "--basepoint")),
    ("class", "zero-section-shape", "graded exponential truncation",
     cmd_class_zero_section_shape, ("--g",)),
    (None, "selftest", "cross-formula consistency suite", cmd_selftest,
     ("--depth", "--seed")),
)


def build_parser() -> argparse.ArgumentParser:
    """A fresh argparse tree for every command of COMMANDS."""
    parser = argparse.ArgumentParser(
        prog="jacstab",
        description="dual-graph stability, twister reduction and divisor-class calculator")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {name: top.add_parser(name, help=text).add_subparsers(dest="subcommand",
                                                                    required=True)
              for name, text in GROUPS}
    for group, name, text, func, options in COMMANDS:
        p = (groups[group] if group else top).add_parser(name, help=text)
        converters = []
        for option in options + ("--output",):
            flag, override = (option, {}) if isinstance(option, str) else option
            keywords = {**OPTIONS[flag], **override}
            convert = keywords.pop("convert", None)
            dest = p.add_argument(flag, **keywords).dest
            if convert is not None:
                converters.append((dest, convert))
        p.set_defaults(func=func, converters=converters)
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


# Built by the first main() call, not at import, and never changed afterwards:
# parse_args reads the tree and returns a new namespace for each call.
_parser: argparse.ArgumentParser | None = None
# json.dumps(payload, sort_keys=True, indent=2), without a new encoder per call
_json = json.JSONEncoder(sort_keys=True, indent=2).encode


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_attach_tau(sys.argv[1:] if argv is None else list(argv)))
    try:
        # in the order of the command's row, which fixes which bad option is reported
        for dest, convert in args.converters:
            setattr(args, dest, convert(getattr(args, dest)))
        code, payload, text = args.func(args)
        if args.output == "json":
            text = _json(payload)
    except JacstabError as exc:
        code, text = 2, _json(exc.to_json_dict())
    except Exception as exc:  # a defect, not a verdict: report it apart from exit 1
        import traceback  # here, so that no answer pays for importing it
        traceback.print_exc()
        internal = JacstabError("INTERNAL", f"{type(exc).__name__}: {exc}")
        code, text = 3, _json(internal.to_json_dict())
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
