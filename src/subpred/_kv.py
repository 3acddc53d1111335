"""Parser for the plain-text ``key = value`` grammar used by model, config and
context files.  Lines are either blank, ``# comment``, or ``key = value``;
values keep their raw string form for the caller to interpret.  Numeric
entries are read by `floats` or `integer` and checked by what a file builds."""

from __future__ import annotations

from contextlib import contextmanager


def floats(tokens: list[str], where: str) -> list[float]:
    """Parse number tokens with `float` (``nan``, ``inf`` and ``1e400`` too),
    with a ValueError prefixed by ``where`` for a token that is no number."""
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


@contextmanager
def named(source):
    """Prefix ``source: `` to a ValueError raised in the block, keeping its type."""
    try:
        yield
    except ValueError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def integer(raw: str, where: str) -> int:
    """Parse an integer value, raising ValueError prefixed by ``where``
    (the file and the key) when ``raw`` is not one."""
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{where} must be an integer, got {raw!r}") from None


def read_pairs(text: str, source: str = "<string>", required: tuple[str, ...] = (),
               optional: tuple[str, ...] = ()) -> dict[str, str]:
    """Parse key/value lines into a dict, with ValueErrors prefixed by
    ``source``: a malformed line, an empty key or a duplicate key names its
    line; then every ``required`` key that is absent, in declared order
    (``missing keys: a, b``); then every key in neither ``required`` nor
    ``optional``, sorted (``unknown keys: w, x``)."""
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
    missing = [k for k in required if k not in pairs]
    if missing:
        raise ValueError(f"{source}: missing keys: {', '.join(missing)}")
    unknown = sorted(pairs.keys() - {*required, *optional})
    if unknown:
        raise ValueError(f"{source}: unknown keys: {', '.join(unknown)}")
    return pairs
