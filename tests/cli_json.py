"""Strict parsing of CLI output.  README promises that no NaN or Infinity
token is printed, and Python's json module would read one by default."""

import json


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def strict_loads(text):
    """json.loads that raises on NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
