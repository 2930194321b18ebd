"""Shared error type: domain failures carry a stable machine-readable code.

``strict_int`` is the integer check at the input boundary: JSON and library
input is accepted only as a genuine ``int``, never coerced.
"""

from __future__ import annotations


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
