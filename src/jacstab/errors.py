"""Shared error type and the checks at the input boundary.

A domain failure carries a stable machine-readable code.  ``strict_int``
accepts a genuine ``int`` only, never coerced.  ``load_json`` reads every
JSON input of the package, and ``_unique_keys`` is its rule that no object,
and no comma-form map, names a key twice.
"""

from __future__ import annotations

import json


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
