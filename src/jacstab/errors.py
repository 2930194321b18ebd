"""Shared error type and the checks at the input boundary.

A domain failure carries a stable machine-readable code.  ``strict_int``
accepts a genuine ``int`` only, never coerced, and ``exact`` an ``int`` or a
``Fraction``.  ``load_json`` reads every JSON input of the package, and
``_unique_keys`` is its rule that no object, and no comma-form map, names a
key twice.  ``check_twist`` reads a twist vector against a total,
``check_tau`` against k(2g-2), for graphs and classes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Iterable


class JacstabError(Exception):
    """Domain error with a stable ``code`` string and optional JSON-safe details."""

    def __init__(self, code: str, message: str, **details):
        super().__init__(message)
        self.code = code
        self.details = details

    def to_json_dict(self) -> dict:
        out = {"error": self.code, "message": str(self)}
        if self.details:
            out["details"] = self.details
        return out


def strict_int(value, what: str) -> int:
    """``value`` itself if it is an ``int`` (not a ``bool``), else BAD_INPUT."""
    if type(value) is not int:
        raise JacstabError("BAD_INPUT", f"{what} must be an integer, got {value!r}")
    return value


def exact(c, what: str = "coefficient") -> int | Fraction:
    """``c`` itself if its type is ``int`` or ``Fraction``, else BAD_INPUT (bools and floats too)."""
    if type(c) is int or type(c) is Fraction:
        return c
    raise JacstabError("BAD_INPUT", f"{what} must be an int or a Fraction, got {c!r}")


def _unique_keys(pairs, what: str) -> dict:
    """A dict of ``(key, value)`` pairs, BAD_INPUT if a key repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise JacstabError("BAD_INPUT", f"{what} repeats key {key!r}")
        out[key] = value
    return out


def load_json(text: str, what: str):
    """The value of JSON ``text``; malformed JSON and a repeated key are BAD_INPUT."""
    try:
        return json.loads(text, object_pairs_hook=lambda pairs: _unique_keys(pairs, what))
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise JacstabError("BAD_INPUT", f"malformed {what}: {exc}") from exc


def check_tau(graph_g: int, tau: Iterable[int], k: int, n: int) -> list[int]:
    """Validate an integer twist vector: n entries summing to k(2g-2)."""
    return check_twist(tau, n, lambda: ("k(2g-2)", strict_int(k, "k") * (2 * graph_g - 2)))


def check_twist(tau: Iterable[int], n: int, total: Callable[[], tuple[str, int]]) -> list[int]:
    """n integer entries summing to the total named by ``total()``, which is
    called after the entries are read, so it may check its own inputs."""
    t = [strict_int(x, "tau entry") for x in tau]
    name, want = total()
    if len(t) != n:
        raise JacstabError("BAD_INPUT", f"tau has {len(t)} entries, expected {n}")
    if sum(t) != want:
        raise JacstabError("TAU_SUM", f"sum(tau) = {sum(t)}, expected {name} = {want}")
    return t
