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

Both fields are required and no other is allowed.  Keys are strictly
increasing comma-separated 1-based indices ("" is the empty set); the
alternative "mask:<int>" spelling gives the subset bitmask directly.  An
index or a bitmask is written in ASCII decimal digits, with spaces allowed
around it.  Values are exact rationals written as strings: "3/22", "5", or
a decimal literal like "0.15".  Unlisted subsets are zero.  Weights must be
nonnegative, and no key may repeat within a JSON object.  Anything else is
refused with a DistributionFormatError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .poly import MAX_VARS, SubsetPoly, as_fraction, format_subset


class DistributionFormatError(ValueError):
    """Raised for any malformed distribution document."""


# What int() reads in a key is limited to ASCII digits and a minus sign (read
# only to refuse a negative index by value): alone it would also read "1_0"
# as 10, "+3" as 3 and a non-ASCII digit by its value.
_KEY_CHARS = re.compile(r"(mask:)?[-0-9,\s]*", re.ASCII)


def parse_subset_key(key: str, n: int) -> int:
    key = key.strip()
    if not _KEY_CHARS.fullmatch(key):
        raise DistributionFormatError(f"bad subset key {key!r}")
    if key.startswith("mask:"):
        body = key[len("mask:") :].strip()
        try:
            mask = int(body)
        except ValueError:
            raise DistributionFormatError(f"bad bitmask key {key!r}") from None
        if not 0 <= mask < (1 << n):
            raise DistributionFormatError(f"bitmask {mask} out of range for n={n}")
        return mask
    if key == "":
        return 0
    mask = 0
    last = 0
    for piece in key.split(","):
        try:
            idx = int(piece.strip())
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
    weights: dict[int, Fraction] = {}
    for key, value in raw.items():
        mask = parse_subset_key(key, n)
        if mask in weights:
            raise DistributionFormatError(f"subset {format_subset(mask)} given twice")
        if not isinstance(value, str):
            raise DistributionFormatError(
                f"value for key {key!r} must be a rational string, got {value!r}"
            )
        try:
            weight = as_fraction(value)
        except ValueError as exc:
            raise DistributionFormatError(f"bad rational {value!r}: {exc}") from None
        if weight < 0:
            raise DistributionFormatError(f"negative weight {value!r} for key {key!r}")
        weights[mask] = weight
    return SubsetPoly.from_weights(n, weights)


def load_distribution(path: str) -> SubsetPoly:
    with open(path, "r") as fh:
        return loads_distribution(fh.read())
