"""Flat file formats: instance files (JSON or CSV) and matching files (JSON).

Floats are serialized with 17 significant digits so IEEE doubles round-trip
exactly; matching-file keys always appear in the same order. An instance
file parses to an (n, 2) float64 array: the JSON form is checked in C-level
passes over the decoded lists (types, then point lengths) and converted in
one more, so the parse adds no Python object per point to json's lists.
"""
from __future__ import annotations

import json
import math
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import NonFiniteValueError
from .structure import _index


class ParseError(Exception):
    """Unreadable or malformed input file."""


# what a JSON number decodes to; bool is a subclass of int but not a number here
_NUMBER_TYPES = frozenset((int, float))


def _numbers_only(values, what: str) -> None:
    """Raise ParseError unless every value is a JSON number (not a bool or string)."""
    bad = set(map(type, values)) - _NUMBER_TYPES
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ParseError(f"{what} must be numbers, got {names}")


def fmt17(v: float) -> str:
    """17 significant digits; -0.0 keeps its point, as JSON reads "-0" as 0."""
    s = format(float(v), ".17g")
    return "-0.0" if s == "-0" else s


def instance_to_json(points: Sequence[tuple[float, float]]) -> str:
    rows = ",\n  ".join(f"[{fmt17(x)}, {fmt17(y)}]" for x, y in points)
    return '{"points": [\n  ' + rows + "\n]}\n"


def instance_to_csv(points: Sequence[tuple[float, float]]) -> str:
    return "".join(f"{fmt17(x)},{fmt17(y)}\n" for x, y in points)


def parse_instance(text: str) -> np.ndarray:
    """Read the JSON form or bare "x,y" CSV lines into an (n, 2) float64 array.

    JSON coordinates must be numbers (not bools, strings or null) and every
    point a pair; CSV cells are anything ``float`` reads. Each coordinate
    is converted once, by one ``np.fromiter`` pass over the flattened
    points, so no per-point tuple is built. Raises ParseError for an empty
    file, bad JSON, a missing "points" key, a point that is not a pair, a
    CSV line that is not "x,y", and a coordinate that is not a float
    (including an integer past the float range).
    """
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty instance file")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e}") from e
        if not isinstance(obj, dict) or "points" not in obj:
            raise ParseError('instance JSON must be an object with a "points" key')
        raw = obj["points"]
        try:
            _numbers_only(chain.from_iterable(raw), "point coordinates")
        except TypeError as e:
            raise ParseError(f"bad point entry: {e}") from e
        # each point was iterated above, so it is a JSON list, object or string
        if set(map(len, raw)) - {2}:
            raise ParseError("bad point entry: a point is not an (x, y) pair")
        coords = chain.from_iterable(raw)
    else:
        raw = []
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ParseError(f"line {ln}: expected 'x,y', got {line!r}")
            raw.append(cells)
        coords = map(float, chain.from_iterable(raw))
    try:
        return np.fromiter(coords, np.float64, 2 * len(raw)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad point entry: {e}") from e


def matching_to_json(
    n: int,
    value: float,
    pairs: Sequence[tuple[int, int]],
    structure: str,
    cascades: int,
    candidates: int | None,
) -> str:
    """Raises NonFiniteValueError for an inf or nan value, which JSON cannot hold."""
    if not math.isfinite(value):
        raise NonFiniteValueError(f"value {value!r} is not a JSON number")
    pair_rows = ", ".join(f"[{int(a)}, {int(b)}]" for a, b in pairs)
    cand = "null" if candidates is None else str(int(candidates))
    return (
        "{"
        f'"n": {int(n)}, '
        f'"value": {fmt17(value)}, '
        f'"pairs": [{pair_rows}], '
        f'"structure": "{structure}", '
        f'"cascades": {int(cascades)}, '
        f'"candidates": {cand}'
        "}\n"
    )


def parse_matching(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ParseError("matching file must be a JSON object")
    for key in ("n", "value", "pairs"):
        if key not in obj:
            raise ParseError(f"matching file missing key {key!r}")
    _numbers_only((obj["value"],), "value")
    try:
        obj["n"] = _index(obj["n"])
        obj["value"] = float(obj["value"])
        obj["pairs"] = [(_index(a), _index(b)) for a, b in obj["pairs"]]
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad matching entry: {e}") from e
    return obj
