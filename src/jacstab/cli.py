"""Command-line surface: deterministic JSON/text reports over the library.

Exit codes: 0 for PASS/success payloads, 1 for FAIL verdicts (not stable, not
balanced, indeterminate locus, failed selftest), 2 for input errors, 3 for an
internal error (``{"error": "INTERNAL", ...}`` on stdout, the traceback on
stderr), so that a crash is never read as a FAIL verdict, and 141 (128 +
SIGPIPE) when stdout is closed before the answer is written.

Multidegree, twister and tau/k JSON payloads take JSON integers only; a float,
a boolean or a string is rejected with BAD_INPUT.  The comma form ``v1=1,v2=-1``
is read as text.  Every JSON input, the graph included, is read by
``errors.load_json``, so a key repeated in one object is BAD_INPUT, as is a
vertex repeated in the comma form or in ``--subcurve``.  A ``--graph`` or
``--data`` value that starts with ``{`` or ``[`` is inline JSON, any other
the name of a file (``--graph -`` reads standard input).  ``--data`` replaces
``--tau`` and ``--k``, so naming it with either (a non-zero ``--k``) is
BAD_INPUT.  Its payload is a JSON object whose only keys are ``tau`` and,
optionally, ``k``: any other key is BAD_INPUT, so a misspelt ``"K"`` is
refused instead of being read as k = 0.

Every command is one row of ``COMMANDS`` and every option one entry of
``OPTIONS``, which also names the function converting its string;
``_row_options`` reads a row as its flags, keywords and converters.  ``main``
reads a plain line (a command, then only its own flags, each once, with
ordinary values) straight from the table with ``_table_parse``, which gives
the attributes of the namespace argparse would.  Any other line, help and
usage errors included, goes to the argparse tree that ``build_parser`` makes
from the same rows, built on the first such line and reused; it alone prints
help and usage messages.  Either parse carries the command's rows in the
namespace (``rows``); ``main`` runs their converters in row order and calls the
handler, which returns its exit code, a function building its JSON payload
and one building its text.  ``main`` builds only the form it prints: the
text under ``--output text``, else ``_json`` of the payload, the bytes of
``json.dumps(payload, sort_keys=True, indent=2)``.
A result record of the library enters a payload through ``_payload``.

A form function may instead return an iterator of chunks already rendered,
which ``main`` writes one at a time.  ``stability enumerate`` does so: its
search finishes, so every refusal is raised, before the first chunk is made;
then each result, a tuple of degrees, fills one row template built once per
answer (the bytes ``_json`` or the text line would give), and the rows are
joined ``CHUNK_ROWS`` at a time.  K_8's 262,144 rows (35.5 MB) thus never
exist as one string or as a map per row.  The JSON of a divisor class
(``class theta``, ``theta-gm1`` and ``mueller``) is chunked the same way: the
class is computed first, then each delta term fills ``_DELTA_ROW``, so the
106,480 delta terms of the closed theta at (12,14) never exist as maps
(``DivisorClass.to_json_dict``) or as one string.  A row's leg list comes
from ``_LEG_LISTS``, which renders each list A once per process: at most
2^n texts for the largest n printed, fewer than the boundary indices the
same answer leaves in ``divisors._canonical_indices``.  Text answers, ``c1``
and ``zero-section-shape`` keep the single-string path.

The import rule: this module imports only ``errors`` and ``stats`` of the
package, and neither argparse nor dataclasses, so that a one-shot command
pays only for what it runs.  Each handler and converter imports its layer
inside the function, when it runs: ``--graph`` loads ``graphs``, ``--pol``
``stability``, a closed class ``divisors`` and a derived one ``pushforward``
too.  argparse is imported by ``build_parser`` alone, on the first line that
is not plain; ``_payload`` imports dataclasses, already loaded by the layer
that made the record.  The option names ``OPTIONS`` reads (the modes and the
polarization presets) come from ``errors``, which ``stability`` re-exports.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # the C function where built
from pathlib import Path
from types import SimpleNamespace

from . import stats
from .errors import (CANONICAL_ZERO, MODES, QSTABLE, TRIVIAL_GM1, JacstabError, load_json,
                     strict_int, _unique_keys)


def _read_json_arg(value: str, what: str) -> str:
    """Inline JSON (a value starting with ``{`` or ``[``) as given, else the text of
    the file it names.

    A missing file, one that cannot be read (a directory, say), one that is
    not UTF-8 and a name the system refuses (too long, say) are all BAD_INPUT.
    """
    if value.lstrip()[:1] in ("{", "["):
        return value
    path = Path(value)
    try:
        if not path.exists():
            raise JacstabError("BAD_INPUT", f"{what} file not found: {value}")
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise JacstabError("BAD_INPUT", f"cannot read {what} file {value}: {exc}") from exc


def _load_graph(source: str, check: bool = True):
    from .graphs import DualGraph

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
        if type(payload) is dict and (unknown := sorted(payload.keys() - {"tau", "k"})):
            raise JacstabError("BAD_INPUT", f"unknown key {unknown[0]!r} in tau/k payload")
        try:
            return ([strict_int(x, "tau entry") for x in payload["tau"]],
                    strict_int(payload.get("k", 0), "k"))
        except (KeyError, TypeError) as exc:
            raise JacstabError("BAD_INPUT", f"malformed tau/k payload: {exc}") from exc
    if args.tau is None:
        raise JacstabError("BAD_INPUT", "either --tau or --data is required")
    return _parse_tau(args.tau), args.k


def _parse_subcurve(value: str) -> tuple[str, ...]:
    names = (x.strip() for x in value.split(","))
    return tuple(_unique_keys(((x, None) for x in names if x), "subcurve"))


def _multidegree_text(m: dict[str, int]) -> str:
    return " ".join(f"{v}={m[v]}" for v in sorted(m))


# Rows of a chunked answer joined into one write: a few hundred kB of text.
CHUNK_ROWS = 4096


def _json_row(ids: tuple[str, ...]) -> str:
    """``_json`` of a multidegree on the sorted ``ids`` as an item of a payload's list,
    as a %-template of its degrees in ``ids`` order."""
    return "{" + ",".join("\n      " + _quote(v).replace("%", "%%") + ": %d"
                          for v in ids) + "\n    }"


def _text_row(ids: tuple[str, ...]) -> str:
    """``_multidegree_text`` of a multidegree on the sorted ``ids``, as a %-template of
    its degrees in ``ids`` order."""
    return " ".join(v.replace("%", "%%") + "=%d" for v in ids)


def _chunks(head: str, row: str, sep: str, tail: str,
            found: list[tuple[int, ...]]) -> Iterator[str]:
    """``head + sep.join(row % t for t in found) + tail``, ``CHUNK_ROWS`` rows at a time."""
    yield head
    for start in range(0, len(found), CHUNK_ROWS):
        yield (sep if start else "") + sep.join(map(row.__mod__,
                                                    found[start:start + CHUNK_ROWS]))
    yield tail


# ----------------------------------------------------------------------
# Each handler gets its options already converted by their OPTIONS entries
# and returns (exit code, a function of no arguments -> JSON payload, one -> text).

# Types that are never a dataclass, which ``_payload`` passes on as they are.
_JSON_LEAVES = frozenset((str, int, bool, type(None), dict, list))


def _payload(value):
    """A result record's JSON form: a dataclass as its fields that are not
    None, a tuple as a list, a Fraction as its text, recursively."""
    kind = type(value)
    if kind is tuple:
        return [_payload(x) for x in value]
    if kind is Fraction:
        return str(value)
    if kind in _JSON_LEAVES:  # never a dataclass; most values of a record end here
        return value
    import dataclasses  # loaded already by the layer that made the record

    if dataclasses.is_dataclass(value):
        return {field.name: _payload(getattr(value, field.name))
                for field in dataclasses.fields(value) if getattr(value, field.name) is not None}
    return value


def _verdict(verdict) -> tuple[int, Callable[[], dict], Callable[[], str]]:
    return (0 if verdict.ok else 1, lambda: _payload(verdict),
            lambda: "PASS" if verdict.ok else f"FAIL witness={','.join(verdict.witness)}")


def _class(cls) -> tuple[int, Callable[[], dict], Callable[[], str]]:
    return 0, cls.to_json_dict, cls.text


def _divisor_class(cls) -> tuple[int, Callable[[], Iterator[str]], Callable[[], str]]:
    """``_class`` of a ``DivisorClass``, its JSON written by ``_divisor_json``."""
    return 0, lambda: _divisor_json(cls), cls.text


# A delta term of DivisorClass.to_json_dict as an item of its list, filled
# with the legs rendered as a list, the coefficient and h.  The coefficient is
# an int or a Fraction, whose text (digits, "-" and "/") needs no escape; it is
# made as the row is filled, so the rows hold no copy of it.
_DELTA_ROW = '{\n      "A": %s,\n      "c": "%s",\n      "h": %d\n    }'


# The JSON text of each leg list A printed so far, as an item of a delta row,
# kept for the process: at most 2^n entries for the largest n printed.
_LEG_LISTS: dict[tuple[int, ...], str] = {}


def _divisor_json(cls) -> Iterator[str]:
    """``_json(cls.to_json_dict())`` in chunks: each delta term, in printed order, fills
    ``_DELTA_ROW``, its leg list rendered once per process (``_LEG_LISTS``)."""
    legs, coeffs = _LEG_LISTS, cls.coeffs
    rows = []
    for key in sorted(key for key in coeffs if key[0] == "delta"):
        _, h, A = key
        text = legs.get(A)
        if text is None:
            text = legs[A] = ("[\n        " + ",\n        ".join(map(str, A)) + "\n      ]"
                              if A else "[]")
        rows.append((text, coeffs[key], h))
    # "delta" sorts before the other keys, so the rest of the payload is the tail
    rest = _json({"delta_irr": str(cls.delta_irr), "kappa1t": str(cls.kappa1t),
                  "lambda1": str(cls.lambda1), "psi": {str(i): str(c) for i, c in cls.psi.items()}})
    return _chunks('{\n  "delta": [' + ("\n    " if rows else ""), _DELTA_ROW, ",\n    ",
                   ("\n  ]," if rows else "],") + rest[1:], rows)


# ----------------------------------------------------------------------
# graph commands

def cmd_graph_validate(args):
    violations = args.graph.validate()
    payload = {"ok": not violations, "g": args.graph.g, "n": args.graph.n,
               "violations": violations}
    return (1 if violations else 0, lambda: payload,
            lambda: "\n".join(v["message"] for v in violations) if violations else "ok")


def cmd_graph_classify(args):
    payload = {"g": args.graph.g, "n": args.graph.n, **_payload(args.graph.classify())}
    return 0, lambda: payload, lambda: " ".join(f"{k}={v}" for k, v in sorted(payload.items()))


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
    return 0, lambda: payload, lambda: " ".join(f"{k}={payload[k]}" for k in sorted(payload))


# ----------------------------------------------------------------------
# stability commands

def cmd_stability_threshold(args):
    from .stability import threshold

    value = str(threshold(args.graph, args.pol, args.subcurve))
    return 0, lambda: {"threshold": value}, lambda: value


def cmd_stability_check(args):
    from .stability import check_stability

    return _verdict(check_stability(args.graph, args.pol, args.m, args.mode,
                                    basepoint=args.basepoint))


def cmd_stability_enumerate(args):
    from .stability import _stable_degrees

    found = _stable_degrees(args.graph, args.pol, args.mode, args.basepoint)
    if not found:
        return 0, lambda: {"count": 0, "multidegrees": []}, lambda: "(none)"
    ids = args.graph.ids  # sorted, so a row's keys are in _json's order
    return (0, lambda: _chunks('{\n  "count": %d,\n  "multidegrees": [\n    ' % len(found),
                               _json_row(ids), ",\n    ", "\n  ]\n}", found),
            lambda: _chunks("", _text_row(ids), "\n", "", found))


def cmd_stability_balanced(args):
    from .stability import is_balanced

    return _verdict(is_balanced(args.graph, *_resolve_tau_k(args)))


def cmd_stability_locus(args):
    from .stability import INDETERMINACY, locus_membership

    result = locus_membership(args.graph, *_resolve_tau_k(args))
    return (0 if result != INDETERMINACY else 1), lambda: {"locus": result}, lambda: result


# ----------------------------------------------------------------------
# twister commands

def cmd_twist_apply(args):
    from .twister import twist_multidegree

    m = twist_multidegree(args.graph, args.gamma)
    return 0, lambda: {"multidegree": m}, lambda: _multidegree_text(m)


def cmd_twist_reduce(args):
    from .twister import reduce_treelike

    result = reduce_treelike(args.graph, args.m, root=args.root)
    return (0, lambda: _payload(result),
            lambda: "gamma: " + _multidegree_text(result.gamma) + "\n"
                    + "\n".join(f"peel {s.leaf} coeff={s.coefficient} branch={','.join(s.branch)}"
                                for s in result.trace))


def cmd_twist_coefficients(args):
    from .twister import _branch_table

    _, table, _ = _branch_table(args.graph, *_resolve_tau_k(args), args.basepoint)
    entries = [{"edge": list(edge), "branch": sorted(side), "coefficient": c}
               for edge, (side, c) in table.items()]  # in sorted edge order
    return (0, lambda: {"coefficients": entries},
            lambda: "\n".join(f"{e['edge'][0]}--{e['edge'][1]}: {e['coefficient']}"
                              for e in entries) or "(no separating edges)")


def cmd_twist_boundary(args):
    from .twister import boundary_multidegree

    m = boundary_multidegree(args.graph, *_resolve_tau_k(args), basepoint=args.basepoint)
    return (0, lambda: {"multidegree": m, "zero": all(v == 0 for v in m.values())},
            lambda: _multidegree_text(m))


# ----------------------------------------------------------------------
# class commands

def cmd_class_theta(args):
    if args.method == "closed":
        from .divisors import theta_pullback
        return _divisor_class(theta_pullback(args.g, args.n, args.tau, args.k))
    if args.method == "derive":
        from .pushforward import theta_via_pushforward
        return _divisor_class(theta_via_pushforward(args.g, args.n, args.tau, args.k))
    if args.k != 0:
        raise JacstabError("BAD_INPUT", "the hain method is the k = 0 case")
    from .divisors import theta_pullback_hain
    return _divisor_class(theta_pullback_hain(args.g, args.n, args.tau))


def cmd_class_theta_gm1(args):
    if args.method == "closed":
        from .divisors import theta_gm1_pullback as method
    else:
        from .pushforward import theta_gm1_via_pushforward as method
    return _divisor_class(method(args.g, args.n, args.tau))


def cmd_class_mueller(args):
    from .divisors import mueller_class

    return _divisor_class(mueller_class(args.g, args.n, args.tau,
                                        include_empty=not args.exclude_empty))


def cmd_class_c1(args):
    from .pushforward import c1_twisted_bundle

    return _class(c1_twisted_bundle(args.g, args.n, args.tau, args.k))


def cmd_class_compact_type(args):
    from .twister import compact_type_gm1_multidegree

    m = compact_type_gm1_multidegree(args.graph, basepoint=args.basepoint)
    return 0, lambda: {"multidegree": m}, lambda: _multidegree_text(m)


def cmd_class_zero_section_shape(args):
    from .pushforward import exp_truncate

    return _class(exp_truncate(args.g))


# ----------------------------------------------------------------------
# selftest

def cmd_selftest(args):
    from .selftest import run

    seed = args.seed
    env = os.environ.get("JACSTAB_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise JacstabError("BAD_INPUT", f"JACSTAB_SEED must be an integer: {env!r}") from exc
    report = run(depth=args.depth, seed=seed)
    return 0 if report["ok"] else 1, lambda: report, lambda: "\n".join(
        [f"{c['name']}: {'ok' if c['ok'] else 'FAIL'} ({c['cases']} cases)"
         + (f" first counterexample: {c['counterexample']}" if c["counterexample"] else "")
         for c in report["checks"]] + ["ok" if report["ok"] else "FAILED"])


# ----------------------------------------------------------------------
# command table

def _polarization(name: str):
    from .stability import Polarization

    return Polarization.preset(name)


# Every option once, as ``add_argument`` keywords plus, under "convert", the
# function that turns its string into the value the handlers read.
OPTIONS = {
    "--graph": {"required": True, "convert": _load_graph},
    "--subcurve": {"required": True, "convert": _parse_subcurve},
    "--pol": {"default": CANONICAL_ZERO, "choices": (CANONICAL_ZERO, TRIVIAL_GM1),
              "convert": _polarization},
    "--mode": {"default": QSTABLE, "choices": MODES},
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


def _row_options(options) -> list[tuple[str, str, dict, Callable | None]]:
    """(flag, dest, ``add_argument`` keywords, converter) of each option of a command's
    row, ``--output`` last: the one reading of a row that ``build_parser`` and
    ``_table_parse`` share."""
    out = []
    for option in options + ("--output",):
        flag, override = (option, {}) if isinstance(option, str) else option
        keywords = {**OPTIONS[flag], **override}
        convert = keywords.pop("convert", None)
        out.append((flag, flag[2:].replace("-", "_"), keywords, convert))
    return out


def build_parser():
    """A fresh argparse tree for every command of COMMANDS."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="jacstab",
        description="dual-graph stability, twister reduction and divisor-class calculator")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {name: top.add_parser(name, help=text).add_subparsers(dest="subcommand",
                                                                    required=True)
              for name, text in GROUPS}
    for group, name, text, func, options in COMMANDS:
        p = (groups[group] if group else top).add_parser(name, help=text)
        rows = _row_options(options)
        for flag, dest, keywords, _ in rows:
            p.add_argument(flag, dest=dest, **keywords)
        p.set_defaults(func=func, rows=rows)
    return parser


def _table_parse(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` of a plain line, read from COMMANDS, as a
    ``SimpleNamespace`` of the same attributes; else None.

    A line is plain when it is a command of COMMANDS followed only by flags of
    its row (``--output`` included), each at most once, as ``--flag value`` or
    ``--flag=value``, where no separate value starts with ``-``, no value
    starts with ``--`` and a ``store_true`` flag has no value; where each
    ``type`` converts its value and each value is one of its ``choices``; and
    where every required flag is given.  argparse reads such a line the same
    way on every Python version.  Help, usage errors and every other form
    (abbreviations, repeats, ``--``, a separate negative value) are left to
    argparse, whose messages and exits are the CLI's.
    """
    for group, name, _, func, options in COMMANDS:
        if (argv[:2] == [group, name]) if group else (argv[:1] == [name]):
            break
    else:
        return None
    rows = _row_options(options)
    by_flag = {row[0]: row for row in rows}
    given: dict[str, object] = {}
    items = iter(argv[2 if group else 1:])
    for item in items:
        flag, sep, value = item.partition("=")
        row = by_flag.get(flag)
        if row is None or row[1] in given:
            return None
        _, dest, keywords, _ = row
        if keywords.get("action") == "store_true":
            if sep:
                return None
            given[dest] = True
            continue
        if not sep:
            value = next(items, "-")  # a missing value is not plain either
            if value[:1] == "-":
                return None
        if value[:2] == "--":
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except Exception:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[dest] = value
    if any(keywords.get("required") and dest not in given for _, dest, keywords, _ in rows):
        return None
    names = {"command": group, "subcommand": name} if group else {"command": name}
    for _, dest, keywords, _ in rows:
        names[dest] = given.get(dest, keywords.get(
            "default", False if keywords.get("action") == "store_true" else None))
    return SimpleNamespace(**names, func=func, rows=rows)


def _fallback_parse(argv: list[str]):
    """``parse_args`` of a line that is not plain, on the tree built once.

    argparse (Python 3.11 among others) hands an option written ``--opt=--``
    over as an empty list, past its ``type`` and ``choices``; such a value is
    BAD_INPUT, the first one in the row's order named.  A version that keeps
    the string ``--`` leaves it to the type, the choices or the converter.
    """
    global _parser
    stats.COUNTS["cli.argparse_parses"] += 1
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    for flag, dest, _, _ in args.rows:
        if type(getattr(args, dest)) is list:
            raise JacstabError("BAD_INPUT", f"{flag} takes one value, not '--'")
    return args


def _attach_tau(argv: list[str]) -> list[str]:
    """Rewrite ``--tau -1,1`` as ``--tau=-1,1``, before either parse reads the line.

    argparse reads a separate value that starts with a minus sign and is not
    a plain number as an option, so a tau vector with a negative first entry
    would otherwise be refused; ``_table_parse`` takes no separate value that
    starts with a minus sign, so the rewritten line stays plain.
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
_parser = None


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` of a payload: a dict with str keys,
    a list, a str, an int, a bool or None, nested; anything else is a TypeError.  (That
    encoder is pure Python when it indents; this quotes with the C function it uses.)"""
    kind, inner = type(value), indent + "  "
    if kind is dict:  # sorted by key; _quote refuses a key that is not a str
        parts = [_quote(key) + ": " + (_quote(x) if type(x) is str else str(x) if type(x) is int
                 else "true" if x is True else "false" if x is False else "null" if x is None
                 else _json(x, inner)) for key, x in sorted(value.items())]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    if kind is list:  # the leaves as in a dict, without a call each
        parts = [_quote(x) if type(x) is str else str(x) if type(x) is int
                 else "true" if x is True else "false" if x is False else "null" if x is None
                 else _json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if kind is str or kind is int:
        return _quote(value) if kind is str else str(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    raise TypeError(f"{kind.__name__} is not a payload type")


def main(argv=None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit code."""
    argv = _attach_tau(sys.argv[1:] if argv is None else list(argv))
    try:
        # argparse exits on help and usage errors: SystemExit is no Exception
        args = _table_parse(argv)
        if args is None:
            args = _fallback_parse(argv)
        # in the order of the command's row, which fixes which bad option is reported
        for _, dest, _, convert in args.rows:
            if convert is not None:
                setattr(args, dest, convert(getattr(args, dest)))
        code, payload, text = args.func(args)
        form = payload() if args.output == "json" else text()
        chunks = form if isinstance(form, Iterator) else (
            _json(form) if args.output == "json" else form,)
    except JacstabError as exc:
        code, chunks = 2, (_json(exc.to_json_dict()),)
    except Exception as exc:  # a defect, not a verdict: report it apart from exit 1
        import traceback  # here, so that no answer pays for importing it
        traceback.print_exc()
        internal = JacstabError("INTERNAL", f"{type(exc).__name__}: {exc}")
        code, chunks = 3, (_json(internal.to_json_dict()),)
    # a chunk iterator only fills templates with the integers of a finished
    # search, so what can refuse or fail has run before the first write
    write = sys.stdout.write
    try:
        for chunk in chunks:
            write(chunk)
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send the interpreter's last flush to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
