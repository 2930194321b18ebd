"""Seeded equivalence sweeps: one SHA-256 per area of the library's answers.

Each area is a seeded generator of records, a record being one call and its
outcome.  A refactor that promises the same answers runs the sweep on the
parent checkout and on the change and quotes both digests; a change that
moves an area on purpose names the area and the reason.  Run it from
anywhere, with no pytest and nothing on ``PYTHONPATH``: it imports the
``jacstab`` of the tree it lives in.

    python tests/sweep.py [--types] [area ...]      # every area when none is named

It prints each area's SHA-256 and its record count.  The areas:

* ``class``: seeded ``cli.main`` lines (g <= 5, n <= 6, tau entries in
  [-3, 3], k in [-2, 2]) of ``class theta`` by ``closed``, ``derive`` and,
  at k = 0, ``hain``; ``theta-gm1`` by ``closed`` and ``derive``;
  ``mueller`` with and without ``--exclude-empty``; ``c1``; and
  ``zero-section-shape`` (g <= 8).  Each line runs in JSON and in text.  A
  record is the argv, the exit code and stdout, refusals included.
* ``product``: seeded fiber classes through ``mul_raw``, ``push_product``
  and ``pushforward``: ``int`` and ``Fraction`` coefficients; constant,
  degree-1, degree-2, mixed and empty classes; (c + L)*(c - L) pairs whose
  terms cancel; squares; and the refusals of degree and space.  A record is
  the result's text, its JSON and its sorted (key, coefficient text) pairs,
  or the refusal's code and message.

Only printed text is hashed, so an ``int`` and an equal ``Fraction`` hash
alike.  ``--types`` also hashes the type name of each coefficient, with the
classes' keys in their order in ``coeffs``: in ``product``, of every result;
in ``class``, of the library class behind each ``theta`` and ``theta-gm1``
line (``theta_pullback``, ``theta_pullback_hain``, ``theta_via_pushforward``,
``theta_gm1_pullback`` and ``theta_gm1_via_pushforward``), one record per
line after its two outputs.  Without the flag the records are those of the
plain sweep.  The digests do not depend on ``PYTHONHASHSEED`` or on the
Python version (3.10 to 3.13).
pytest does not collect this file: its name does not match ``test_*``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from jacstab import (JacstabError, theta_gm1_pullback, theta_gm1_via_pushforward,  # noqa: E402
                     theta_pullback, theta_pullback_hain, theta_via_pushforward)
from jacstab.cli import main  # noqa: E402
from jacstab.pushforward import FiberClass, push_product, pushforward  # noqa: E402

SEED = 2036

# Set by ``--types``: the records also carry each coefficient's type and key order.
TYPES = False


def _typed(cls) -> list:
    """(key, coefficient type name) of each term of ``cls``, in its ``coeffs`` order."""
    return [[repr(key), type(c).__name__] for key, c in cls.coeffs.items()]


# ----------------------------------------------------------------------
# class: command lines through cli.main

def _tau(rng: random.Random, n: int, total: int) -> list[int]:
    """n entries in [-3, 3], summing to ``total`` when a few draws find one."""
    for _ in range(40):
        tau = [rng.randint(-3, 3) for _ in range(n)]
        if sum(tau) == total:
            break
    return tau


def _class_lines(rng: random.Random) -> list[tuple[list[str], tuple | None]]:
    """(argv, the library call behind a theta or theta-gm1 line as (function,
    arguments), else None)."""
    lines = []
    for _ in range(400):
        g, n, k = rng.randint(0, 5), rng.randint(0, 6), rng.randint(-2, 2)
        space = ["--g", str(g), "--n", str(n)]
        tau, tau0, gm1 = (_tau(rng, n, total) for total in (k * (2 * g - 2), 0, g - 1))
        arg_tau, arg_tau0, arg_gm1 = ("--tau=" + ",".join(map(str, t)) for t in (tau, tau0, gm1))
        lines += [(["class", "theta", *space, arg_tau, f"--k={k}", "--method", method],
                   (function, (g, n, tau, k)))
                  for method, function in (("closed", theta_pullback),
                                           ("derive", theta_via_pushforward))]
        lines.append((["class", "theta", *space, arg_tau0, "--method", "hain"],
                      (theta_pullback_hain, (g, n, tau0))))
        lines += [(["class", "theta-gm1", *space, arg_gm1, "--method", method],
                   (function, (g, n, gm1)))
                  for method, function in (("closed", theta_gm1_pullback),
                                           ("derive", theta_gm1_via_pushforward))]
        lines += [(["class", "mueller", *space, arg_gm1], None),
                  (["class", "mueller", *space, arg_gm1, "--exclude-empty"], None)]
        lines.append((["class", "c1", *space, arg_tau, f"--k={k}"], None))
    lines += [(["class", "zero-section-shape", "--g", str(g)], None) for g in range(0, 9)]
    return lines


def _class_records():
    for argv, call in _class_lines(random.Random(SEED)):
        for output in ("json", "text"):
            line = [*argv, "--output", output]
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(line)
            yield [line, code, out.getvalue()]
        if TYPES and call:
            function, args = call
            try:
                yield [argv, "types", _typed(function(*args))]
            except JacstabError as exc:
                yield [argv, "types", "refused", exc.code]


# ----------------------------------------------------------------------
# product: fiber-class products and pushes

def _coefficient(rng: random.Random):
    """A non-zero int, or a Fraction that is integral one time in three."""
    if rng.random() < 0.6:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(rng.choice([-5, -3, -1, 1, 2, 3, 4]), rng.choice([1, 2, 3, 4]))


def _boundary(rng: random.Random, g: int, n: int) -> tuple:
    A = rng.choice([A for r in range(n + 1) for A in combinations(range(1, n + 1), r)])
    return rng.randint(0, g), A


def _monomial(rng: random.Random, g: int, n: int, degree: int) -> tuple:
    if degree == 0:
        return ("const",)
    tag = rng.choice(("D", "K", "B") if degree == 1 else ("D2", "K2", "B2", "DB", "KB"))
    if tag in ("K", "K2"):
        return (tag,)
    if tag in ("D", "D2"):
        return (tag, rng.randint(1, n))
    h, A = _boundary(rng, g, n)
    return (tag, rng.choice(A or (1,)), h, A) if tag == "DB" else (tag, h, A)


def _fiber(rng: random.Random, g: int, n: int, degrees: tuple[int, ...]) -> FiberClass:
    """A class with terms of the given degrees; equal keys add up, and may cancel."""
    coeffs = {}
    for degree in degrees:
        key = _monomial(rng, g, n, degree)
        coeffs[key] = coeffs.get(key, 0) + _coefficient(rng)
    return FiberClass(g, n, coeffs)


SHAPES = {
    "empty": (),
    "constant": (0,),
    "degree-1": (1, 1, 1, 1),
    "degree-2": (2, 2, 2),
    "mixed-01": (0, 1, 1, 1),
    "mixed-02": (0, 2, 2),
    "mixed-012": (0, 1, 2, 2),
}


def _outcome(compute) -> list:
    """A result's text, JSON and sorted (key, coefficient) pairs, or the refusal."""
    try:
        cls = compute()
    except JacstabError as exc:
        return ["refused", exc.code, str(exc)]
    return [cls.text(), json.dumps(cls.to_json_dict(), sort_keys=True),
            [[repr(key), str(c)] for key, c in sorted(cls.coeffs.items())],
            *([_typed(cls)] if TYPES else [])]


def _pair_records(name: str, a: FiberClass, b: FiberClass):
    yield [name, "mul_raw", _outcome(lambda: a.mul_raw(b))]
    yield [name, "push_product", _outcome(lambda: push_product(a, b))]
    yield [name, "pushforward of mul_raw", _outcome(lambda: pushforward(a.mul_raw(b)))]


def _product_records():
    rng = random.Random(SEED)
    for _ in range(200):
        g, n = rng.randint(1, 4), rng.randint(1, 5)
        a_shape, b_shape = rng.choice(sorted(SHAPES)), rng.choice(sorted(SHAPES))
        a, b = _fiber(rng, g, n, SHAPES[a_shape]), _fiber(rng, g, n, SHAPES[b_shape])
        yield ["class", g, n, a_shape, _outcome(lambda: a)]
        yield ["pushforward", g, n, a_shape, _outcome(lambda: pushforward(a))]
        yield from _pair_records(f"{a_shape}*{b_shape} at ({g},{n})", a, b)
        yield from _pair_records(f"square of {a_shape} at ({g},{n})", a, a)
        c, L = _fiber(rng, g, n, (0,)), _fiber(rng, g, n, SHAPES["degree-1"])
        yield from _pair_records(f"(c+L)*(c-L) at ({g},{n})", c + L, c - L)
        other = FiberClass(g + 1, n, {("const",): 1})
        yield from _pair_records(f"across spaces at ({g},{n})", a, other)


AREAS = {"class": _class_records, "product": _product_records}


def digest(area: str) -> tuple[str, int]:
    """(SHA-256 of the area's records, one JSON line each, and their count)."""
    sha, count = hashlib.sha256(), 0
    for record in AREAS[area]():
        sha.update(json.dumps(record).encode() + b"\n")
        count += 1
    return sha.hexdigest(), count


def run(names: list[str]) -> int:
    global TYPES
    TYPES = "--types" in names
    names = [name for name in names if name != "--types"]
    unknown = [name for name in names if name not in AREAS]
    if unknown:
        print(f"unknown area {unknown[0]!r}; the areas are {', '.join(AREAS)}", file=sys.stderr)
        return 2
    for name in names or list(AREAS):
        sha, count = digest(name)
        print(f"{name:8s} {sha}  {count} records")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
