"""Reading subset distributions from JSON documents.

The on-disk shape is

    {
      "n": 3,
      "coefficients": {
        "": "2/11",
        "1": "3/22",
        "1,2": "3/22",
        "mask:6": "3/22"
      }
    }

Both fields are required and no other is allowed.  A key names a subset:

    key     = ws* [indices | "mask:" ws* digits] ws*
    indices = index ("," index)*
    index   = ws* digits ws*

where digits are ASCII decimal digits and ws is ASCII whitespace (space,
tab, newline, carriage return, form feed, vertical tab).  Indices are
1-based, at most n and strictly increasing; a key of whitespace alone, or
"", is the empty set.  The "mask:" form gives the subset bitmask directly,
an unsigned integer below 2**n.  Values are exact rationals written as
ASCII strings with no "_": "3/22", "5", or a decimal literal like "0.15".
Unlisted subsets are zero.  Weights must be nonnegative, and no key may
repeat within a JSON object.  Anything else is refused with a
DistributionFormatError.
"""

from __future__ import annotations

import json
import math
import re

from .poly import MAX_VARS, SubsetPoly, as_fraction, format_subset


class DistributionFormatError(ValueError):
    """Raised for any malformed distribution document."""


# The bit of each index as str() writes it: the pieces of a canonical key.
_BITS = {str(i): 1 << (i - 1) for i in range(1, MAX_VARS + 1)}
# The whitespace a key may hold: str.strip() alone would also take a
# non-ASCII space such as U+00A0 from around it, which _KEY_CHARS refuses.
_ASCII_SPACE = " \t\n\r\f\v"
# What int() reads in a key is limited to ASCII digits and a minus sign (read
# only to refuse a negative index by value): alone it would also read "1_0"
# as 10, "+3" as 3 and a non-ASCII digit by its value.
_KEY_CHARS = re.compile(r"(mask:)?[-0-9,\s]*", re.ASCII)


def parse_subset_key(key: str, n: int) -> int:
    """The bitmask a subset key names; DistributionFormatError if it names none.

    A canonical key, indices as str() writes them joined by "," (strictly
    increasing, at most n), is read by one split and a table lookup per
    index; an index is past all those before it exactly when its bit
    exceeds their mask.  Any other key, and every error message, goes
    through _parse_spelled_key.
    """
    mask, top = 0, 1 << n
    for piece in key.split(",") if key else ():
        bit = _BITS.get(piece, 0)
        if not mask < bit < top:
            return _parse_spelled_key(key, n)
        mask |= bit
    return mask


def _parse_spelled_key(key: str, n: int) -> int:
    """parse_subset_key for any key but a canonical one, and its error messages."""
    key = key.strip(_ASCII_SPACE)
    if not _KEY_CHARS.fullmatch(key):
        raise DistributionFormatError(f"bad subset key {key!r}")
    if key.startswith("mask:"):
        body = key[len("mask:") :].strip(_ASCII_SPACE)
        try:
            mask = int(body)
        except ValueError:
            raise DistributionFormatError(f"bad bitmask key {key!r}") from None
        if not 0 <= mask < (1 << n):
            raise DistributionFormatError(f"bitmask {mask} out of range for n={n}")
        if body.startswith("-"):  # "-0", which int() reads as 0
            raise DistributionFormatError(f"bad bitmask key {key!r}")
        return mask
    if key == "":
        return 0
    mask = 0
    last = 0
    for piece in key.split(","):
        try:
            idx = int(piece.strip(_ASCII_SPACE))
        except ValueError:
            raise DistributionFormatError(f"bad subset key {key!r}") from None
        if not 1 <= idx <= n:
            raise DistributionFormatError(f"index {idx} out of range 1..{n} in key {key!r}")
        if idx <= last:
            raise DistributionFormatError(
                f"subset key {key!r} must list strictly increasing indices"
            )
        mask |= 1 << (idx - 1)
        last = idx
    return mask


def _parse_weight(value: str) -> tuple[int, int]:
    """A weight string as (numerator, denominator) in lowest terms, as Fraction reduces it.

    ASCII digits, or digits "/" digits, are read by int(); any other
    spelling, a zero denominator or a number past the integer digit limit
    goes through as_fraction, which reads or refuses it.
    """
    try:
        if value.isdigit() and value.isascii():
            return int(value), 1
        num, slash, den = value.partition("/")
        if num.isdigit() and den.isdigit() and value.isascii():
            a, b = int(num), int(den)
            if b:
                g = math.gcd(a, b)
                return a // g, b // g
    except ValueError:  # past the integer digit limit
        pass
    q = as_fraction(value)
    return q.numerator, q.denominator


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; raises DistributionFormatError on a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DistributionFormatError(f"key {key!r} given twice in one JSON object")
        doc[key] = value
    return doc


def loads_distribution(text: str) -> SubsetPoly:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except DistributionFormatError:  # a repeated key (`_unique_keys`)
        raise
    except (ValueError, RecursionError) as exc:  # bad JSON, an overlong integer, deep nesting
        raise DistributionFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DistributionFormatError("top level must be a JSON object")
    for field in doc:
        if field not in ("n", "coefficients"):
            raise DistributionFormatError(f"unknown field {field!r}, not 'n' or 'coefficients'")
    if "n" not in doc:
        raise DistributionFormatError("missing integer field 'n'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise DistributionFormatError(f"'n' must be an integer, got {n!r}")
    if not 1 <= n <= MAX_VARS:
        raise DistributionFormatError(f"'n' must be in 1..{MAX_VARS}, got {n}")
    if "coefficients" not in doc:
        raise DistributionFormatError("missing object field 'coefficients'")
    raw = doc["coefficients"]
    if not isinstance(raw, dict):
        raise DistributionFormatError("'coefficients' must be an object")
    values: dict[int, str] = {}  # the weight string of each subset
    weights: dict[str, tuple[int, int]] = {}  # each distinct weight string, read once
    for key, value in raw.items():
        mask = parse_subset_key(key, n)
        if mask in values:
            raise DistributionFormatError(f"subset {format_subset(mask)} given twice")
        if not isinstance(value, str):
            raise DistributionFormatError(
                f"value for key {key!r} must be a rational string, got {value!r}"
            )
        if value not in weights:
            try:
                a, b = _parse_weight(value)
            except ValueError as exc:
                raise DistributionFormatError(f"bad rational {value!r}: {exc}") from None
            if a < 0:
                raise DistributionFormatError(f"negative weight {value!r} for key {key!r}")
            weights[value] = a, b
        values[mask] = value
    den = math.lcm(*(b for _, b in weights.values()))
    cleared = {value: a * (den // b) for value, (a, b) in weights.items()}
    w = [0] * (1 << n)
    for mask, value in values.items():
        w[mask] = cleared[value]
    return SubsetPoly(n, (tuple(w), den))


def load_distribution(path: str) -> SubsetPoly:
    with open(path, "r") as fh:
        return loads_distribution(fh.read())
