"""Parser for the plain-text ``key = value`` grammar used by model, config and
context files.  Lines are either blank, ``# comment``, or ``key = value``;
values keep their raw string form for the caller to interpret.  Numeric
entries of every input file go through `finite_floats` or `integer`."""

from __future__ import annotations

import math


def finite_floats(tokens: list[str], where: str) -> list[float]:
    """Parse number tokens, rejecting anything that is not a finite float
    (``nan`` and ``inf`` included) with a ValueError prefixed by ``where``."""
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    for tok, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ValueError(f"{where}: non-finite entry {tok.strip()!r}")
    return values


def integer(raw: str, where: str) -> int:
    """Parse an integer value, raising ValueError prefixed by ``where``
    (the file and the key) when ``raw`` is not one."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {raw!r}") from None


def read_pairs(text: str, source: str = "<string>") -> dict[str, str]:
    """Parse key/value lines, rejecting duplicates and malformed lines."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"{source}:{lineno}: empty key")
        if key in pairs:
            raise ValueError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs
