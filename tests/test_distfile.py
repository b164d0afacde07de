"""The distribution reader against the reference reader in conftest."""

from __future__ import annotations

import json
import random

import pytest

from slcheck import distfile
from slcheck.cli import main
from slcheck.distfile import DistributionFormatError, loads_distribution
from conftest import reference_loads_distribution

ASCII_SPACE = " \t\n\r\f\v"


def outcome(read, text: str):
    """(n, cleared) of what read makes of text, or ("refused", the error text)."""
    try:
        p = read(text)
    except DistributionFormatError as exc:
        return "refused", str(exc)
    return p.n, p.cleared


def document(n: int, coefficients: dict) -> str:
    return json.dumps({"n": n, "coefficients": coefficients})


def spaces(rng: random.Random) -> str:
    return "".join(rng.choice(ASCII_SPACE) for _ in range(rng.randint(0, 2)))


def spell_key(rng: random.Random, mask: int, n: int) -> str:
    indices = [i + 1 for i in range(n) if mask >> i & 1]
    form = rng.random()
    if form < 0.5:
        return ",".join(map(str, indices))
    if form < 0.75:
        return spaces(rng) + ",".join(
            f"{spaces(rng)}{'0' * rng.randint(0, 2)}{i}{spaces(rng)}" for i in indices
        )
    return f"{spaces(rng)}mask:{spaces(rng)}{'0' * rng.randint(0, 2)}{mask}{spaces(rng)}"


def spell_weight(rng: random.Random) -> str:
    a, b = rng.randint(0, 60), rng.randint(1, 40)
    kind = rng.random()
    if kind < 0.3:
        return str(a)
    if kind < 0.55:
        k = rng.randint(1, 6)
        return f"{a * k}/{b * k}"  # unreduced, or reduced when k = 1
    if kind < 0.65:
        return f"{a}.{rng.randint(0, 999):03d}"
    if kind < 0.72:
        return f"{a}{rng.choice('eE')}{rng.randint(-6, 6)}"
    if kind < 0.8:
        return rng.choice(["0", "0/7", "0.0", "00", "0e5"])
    if kind < 0.88:  # the 10^-400 scale
        return rng.choice([f"{a}e-400", f"{a}/1{'0' * 400}", f"{a}.5e-401"])
    if kind < 0.9:  # 3001-digit denominators
        return f"{a}/{10**3000 + rng.randint(1, 99)}"
    return rng.choice([f" {a}/{b} ", f"+{a}", f"{a}.5E1", f"{a} ", "-0", f".{a}"])


FAULTS = [
    lambda n: ("mask:1", "1"),  # with key "1": the subset {1} twice
    lambda n: (f"{n},1" if n > 1 else "1,1", "1"),
    lambda n: (str(n + 1), "1"),
    lambda n: ("0", "1"),
    lambda n: (f"mask:{1 << n}", "1"),
    lambda n: ("mask:-1", "1"),
    lambda n: ("1,,", "1"),
    lambda n: ("1", "-1/2"),
    lambda n: ("1", "1/0"),
    lambda n: ("1", "abc"),
    lambda n: ("1", "1_0"),
    lambda n: ("1", "\u0663"),
    lambda n: ("1", "1" * 5000),
    lambda n: ("1", "1/" + "7" * 5000),
    lambda n: ("1", "1e-100000000"),
    lambda n: ("1", 0.5),
]


def random_document(rng: random.Random) -> str:
    n = rng.randint(1, 10) if rng.random() < 0.1 else rng.randint(1, 5)
    masks = [m for m in range(1 << n) if rng.random() < 0.6]
    if n > 6:
        masks = rng.sample(range(1 << n), rng.randint(0, 40))
    coefficients = {spell_key(rng, m, n): spell_weight(rng) for m in masks}
    if rng.random() < 0.15:
        items = list(coefficients.items())
        items.insert(rng.randint(0, len(items)), rng.choice(FAULTS)(n))
        return '{"n": %d, "coefficients": {%s}}' % (
            n, ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items)
        )
    return document(n, coefficients)


def test_random_documents_read_as_the_reference_reads_them():
    rng = random.Random(27)
    refused = 0
    for _ in range(2400):
        text = random_document(rng)
        expected = outcome(reference_loads_distribution, text)
        assert outcome(loads_distribution, text) == expected, text[:300]
        refused += expected[0] == "refused"
    assert 200 < refused < 600  # both the readings and the refusals are exercised


MALFORMED = [
    "not json",
    "[1, 2]",
    "{}",
    '{"coefficients": {}}',
    '{"n": true, "coefficients": {}}',
    '{"n": 1.0, "coefficients": {}}',
    '{"n": 0, "coefficients": {}}',
    '{"n": 17, "coefficients": {}}',
    '{"n": ' + "1" * 5000 + ', "coefficients": {}}',
    "[" * 100_000,
    '{"n": 2}',
    '{"n": 2, "coefficients": []}',
    '{"n": 2, "coefficients": {"": "1"}, "note": "x"}',
    '{"n": 2, "n": 3, "coefficients": {"": "1"}}',
    '{"n": 2, "coefficients": {"1": "1/2", "1": "1/3", "": "1"}}',
    '{"n": 2, "coefficients": {"1": "1", "mask:1": "2"}}',
    '{"n": 2, "coefficients": {"1,2": "1", " 1 , 2 ": "2"}}',
    '{"n": 2, "coefficients": {"1": 0.5}}',
    '{"n": 2, "coefficients": {"1": 1}}',
    '{"n": 2, "coefficients": {"1": null}}',
    '{"n": 2, "coefficients": {"1": "-1/2"}}',
    '{"n": 2, "coefficients": {"1": "-3"}}',
    '{"n": 2, "coefficients": {"1": "1/0"}}',
    '{"n": 2, "coefficients": {"1": "0/0"}}',
    '{"n": 2, "coefficients": {"1": "abc"}}',
    '{"n": 2, "coefficients": {"1": ""}}',
    '{"n": 2, "coefficients": {"1": "1/"}}',
    '{"n": 2, "coefficients": {"1": "/2"}}',
    '{"n": 2, "coefficients": {"1": "1/2/3"}}',
    '{"n": 2, "coefficients": {"1": "1_000"}}',
    '{"n": 2, "coefficients": {"1": "1/1_0"}}',
    '{"n": 2, "coefficients": {"1": "\\u0663"}}',
    '{"n": 2, "coefficients": {"1": "1/\\u0663"}}',
    '{"n": 2, "coefficients": {"1": "\\u00b2"}}',
    '{"n": 2, "coefficients": {"1": "1e-100000000"}}',
    '{"n": 2, "coefficients": {"1": "' + "9" * 5000 + '"}}',
    '{"n": 2, "coefficients": {"1": "1/' + "9" * 5000 + '"}}',
    '{"n": 3, "coefficients": {"3,1": "1"}}',
    '{"n": 3, "coefficients": {"1,1": "1"}}',
    '{"n": 3, "coefficients": {"1,01": "1"}}',
    '{"n": 3, "coefficients": {"4": "1"}}',
    '{"n": 3, "coefficients": {"0": "1"}}',
    '{"n": 3, "coefficients": {"-1": "1"}}',
    '{"n": 3, "coefficients": {"2,5": "1"}}',
    '{"n": 3, "coefficients": {"5,x": "1"}}',
    '{"n": 3, "coefficients": {"3,1x": "1"}}',
    '{"n": 3, "coefficients": {"x": "1"}}',
    '{"n": 3, "coefficients": {",": "1"}}',
    '{"n": 3, "coefficients": {"1,": "1"}}',
    '{"n": 3, "coefficients": {"1,,2": "1"}}',
    '{"n": 3, "coefficients": {"1 2": "1"}}',
    '{"n": 3, "coefficients": {"mask:8": "1"}}',
    '{"n": 3, "coefficients": {"mask:-1": "1"}}',
    '{"n": 3, "coefficients": {"mask:x": "1"}}',
    '{"n": 3, "coefficients": {"mask:": "1"}}',
    '{"n": 3, "coefficients": {"mask:1,2": "1"}}',
    '{"n": 3, "coefficients": {"mask :1": "1"}}',
    '{"n": 3, "coefficients": {"mask:0_1": "1"}}',
    '{"n": 3, "coefficients": {"mask:+1": "1"}}',
    '{"n": 3, "coefficients": {"1_0": "1"}}',
    '{"n": 3, "coefficients": {"+3": "1"}}',
    '{"n": 3, "coefficients": {"\\u0663": "1"}}',
    '{"n": 3, "coefficients": {"1,\\u00a02": "1"}}',
    '{"n": 3, "coefficients": {"' + "1" * 5000 + '": "1"}}',
    '{"n": 3, "coefficients": {"mask:' + "1" * 5000 + '": "1"}}',
]

# Spellings off the fast path that both readers accept.
ODD_BUT_VALID = [
    '{"n": 3, "coefficients": {}}',
    '{"n": 3, "coefficients": {"": "0"}}',
    '{"n": 3, "coefficients": {" ": "1", "\\t1 , 3\\n": "2", "mask: 06 ": "3"}}',
    '{"n": 3, "coefficients": {"01,002": "1", "mask:0": "2"}}',
    '{"n": 3, "coefficients": {"1": "-0", "2": " 5 ", "3": "+3", "1,2": "0.15"}}',
    '{"n": 3, "coefficients": {"1": "1E2", "2": "2e-3", "3": ".5", "1,3": "3/22 "}}',
    '{"n": 16, "coefficients": {"16": "1", "1,16": "7/' + "3" * 3001 + '"}}',
]


@pytest.mark.parametrize("text", MALFORMED + ODD_BUT_VALID, ids=lambda text: text[:40])
def test_odd_documents_read_as_the_reference_reads_them(text):
    expected = outcome(reference_loads_distribution, text)
    assert (expected[0] == "refused") == (text in MALFORMED)
    assert outcome(loads_distribution, text) == expected


# The two spellings the reference reader accepts and loads_distribution refuses.
@pytest.mark.parametrize(
    "key, mask", [("\xa01", 0b1), ("1\u3000", 0b1), ("\x851", 0b1), ("\xa01,2", 0b11)]
)
def test_non_ascii_space_around_a_key_is_refused(key, mask, tmp_path, capsys):
    text = document(3, {key: "1"})
    assert reference_loads_distribution(text).nonzero_masks == (mask,)
    with pytest.raises(DistributionFormatError, match="^bad subset key"):
        loads_distribution(text)
    path = tmp_path / "key.json"
    path.write_text(text)
    assert main(["check", str(path), "nlc"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad subset key"), err


@pytest.mark.parametrize("key", ["mask:-0", "mask: -0", " mask:-00 "])
def test_minus_zero_bitmask_is_refused(key, tmp_path, capsys):
    text = document(3, {key: "1", "1": "1"})
    assert reference_loads_distribution(text).nonzero_masks == (0, 1)
    with pytest.raises(DistributionFormatError, match="^bad bitmask key"):
        loads_distribution(text)
    path = tmp_path / "key.json"
    path.write_text(text)
    assert main(["check", str(path), "nlc"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: bad bitmask key"), err


def canonical_document(n: int) -> str:
    rng = random.Random(n)
    coefficients = {}
    for mask in range(1 << n):
        key = ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
        a, b = rng.randint(0, 99), rng.randint(1, 99)
        coefficients[key] = str(a) if mask % 3 else f"{a}/{b}"
    return document(n, coefficients)


def test_canonical_document_reads_without_the_slow_parsers(monkeypatch):
    text = canonical_document(10)
    expected = reference_loads_distribution(text)

    def refuse(value, *args):
        raise AssertionError(f"slow parser reached with {value!r}")

    monkeypatch.setattr(distfile, "as_fraction", refuse)
    monkeypatch.setattr(distfile, "_parse_spelled_key", refuse)
    assert loads_distribution(text) == expected
    # Any other spelling still reaches the slow parser.
    with pytest.raises(AssertionError, match="'0.5'"):
        loads_distribution(document(2, {"1": "0.5"}))
    with pytest.raises(AssertionError, match="'1 '"):
        loads_distribution(document(2, {"1 ": "1"}))


def test_each_distinct_weight_string_is_read_once_per_call(monkeypatch):
    read = []
    parse = distfile._parse_weight

    def counted(value):
        read.append(value)
        return parse(value)

    monkeypatch.setattr(distfile, "_parse_weight", counted)
    text = document(3, {"": "1", "1": "1/2", "2": "1/2", "1,2": "1", "mask:4": "1/2"})
    expected = reference_loads_distribution(text)
    assert loads_distribution(text) == expected
    assert loads_distribution(text) == expected
    assert read == ["1", "1/2"] * 2  # nothing is kept from one call to the next
