"""JSON distribution files and the command line interface."""

from __future__ import annotations

import ast
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slcheck import SubsetPoly, calculus, checkers, cli, counterexample
from slcheck.calculus import m_form
from slcheck.cli import main
from slcheck.distfile import (
    DistributionFormatError,
    load_distribution,
    loads_distribution,
    parse_subset_key,
)
from slcheck.family import SweepConfig, make_family
from conftest import product_measure, random_subset_poly


def document(p: SubsetPoly) -> str:
    """p as a distribution document with index-list keys, written by json.dumps."""
    coefficients = {
        ",".join(str(k + 1) for k in range(p.n) if mask >> k & 1): str(c)
        for mask, c in enumerate(p.coeffs)
        if c
    }
    return json.dumps({"n": p.n, "coefficients": coefficients})


COUNTEREXAMPLE_DOC = """
{
  "n": 3,
  "coefficients": {
    "": "2/11",
    "1": "3/22",
    "2": "3/22",
    "3": "3/22",
    "1,2": "3/22",
    "1,3": "3/22",
    "mask:6": "3/22"
  }
}
"""


@pytest.fixture
def counterexample_file(tmp_path: Path) -> str:
    path = tmp_path / "counterexample.json"
    path.write_text(COUNTEREXAMPLE_DOC)
    return str(path)


@pytest.fixture
def xy_file(tmp_path: Path) -> str:
    path = tmp_path / "one_plus_xy.json"
    path.write_text('{"n": 2, "coefficients": {"": "1", "1,2": "1"}}')
    return str(path)


class TestSubsetKeys:
    def test_parse_forms(self):
        assert parse_subset_key("", 3) == 0
        assert parse_subset_key("1", 3) == 0b001
        assert parse_subset_key("1,3", 3) == 0b101
        assert parse_subset_key(" 1, 3 ", 3) == 0b101
        assert parse_subset_key("mask:6", 3) == 6
        assert parse_subset_key("mask: 0", 3) == 0

    def test_parse_errors(self):
        digits = "1" * 5000  # past int()'s digit limit: still a format error
        for key in ("3,1", "1,1", "4", "0", "x", "1,,2", "mask:8", "mask:-1", "mask:x",
                    digits, "mask:" + digits):
            with pytest.raises(DistributionFormatError):
                parse_subset_key(key, 3)

    def test_index_out_of_range_is_named(self):
        for key, idx in (("0", 0), ("4", 4), ("1,0", 0), ("-1", -1), ("2,5", 5)):
            with pytest.raises(DistributionFormatError, match=f"index {idx} out of range 1..3"):
                parse_subset_key(key, 3)


class TestDistributionFiles:
    def test_counterexample_document(self, counterexample):
        p = loads_distribution(COUNTEREXAMPLE_DOC)
        assert p == counterexample
        assert p.coeffs[0b111] == 0  # unlisted subsets default to zero

    def test_accepts_decimal_and_integer_strings(self):
        p = loads_distribution('{"n": 1, "coefficients": {"": "0.15", "1": "2"}}')
        assert p.coeffs[0] == Fraction(3, 20)
        assert p.coeffs[1] == 2
        p = loads_distribution(
            '{"n": 2, "coefficients": {"": "3/22", "1": " 0.15 ", "2": "1e-3", "1,2": "+3"}}'
        )
        assert p == SubsetPoly.from_weights(2, {0: "3/22", 1: "3/20", 2: "1/1000", 3: 3})

    def test_rejects_malformed_documents(self):
        bad = [
            "not json",
            "[1, 2]",
            '{"coefficients": {}}',
            '{"n": true, "coefficients": {}}',
            '{"n": 0, "coefficients": {}}',
            '{"n": 17, "coefficients": {}}',
            '{"n": 2, "coefficients": []}',
            '{"n": 2, "coefficients": {"1": 0.5}}',
            '{"n": 2, "coefficients": {"1": "-1/2"}}',
            '{"n": 2, "coefficients": {"1": "1/0"}}',
            '{"n": 2, "coefficients": {"1": "abc"}}',
            '{"n": 2, "coefficients": {"1": "1", "mask:1": "2"}}',
            # json.loads alone would keep the last value: p({1}) = 1/3, or n = 3.
            '{"n": 2, "coefficients": {"1": "1/2", "1": "1/3", "": "1"}}',
            '{"n": 2, "n": 3, "coefficients": {"": "1"}}',
            # Only the two documented fields, both required: a misspelled one
            # would otherwise read as the zero polynomial.
            '{"n": 3, "coeffs": {"": "1", "1": "1", "2": "5", "1,2": "1"}}',
            '{"n": 2, "coefficients": {"": "1"}, "note": "x"}',
            '{"n": 2}',
            # Indices and bitmasks are ASCII decimal digits, which int() alone
            # would widen to {10}, {3}, {3} and {1}.
            '{"n": 16, "coefficients": {"1_0": "1"}}',
            '{"n": 3, "coefficients": {"\\u0663": "1"}}',
            '{"n": 3, "coefficients": {"+3": "1"}}',
            '{"n": 3, "coefficients": {"mask:0_1": "1"}}',
            '{"n": 3, "coefficients": {"mask:+1": "1"}}',
        ]
        for doc in bad:
            with pytest.raises(DistributionFormatError):
                loads_distribution(doc)

    def test_round_trip_exact(self, tmp_path: Path):
        rng = np.random.default_rng(61)
        for k in range(50):
            n = int(rng.integers(1, 5))
            p = random_subset_poly(rng, n)
            path = tmp_path / f"rt{k}.json"
            path.write_text(document(p))
            assert load_distribution(str(path)) == p


class TestCheckCommand:
    def test_nlc_violated(self, counterexample_file, capsys):
        code = main(["check", counterexample_file, "nlc"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: VIOLATED" in out
        assert "9/484 < 12/484" in out
        assert "S = {1}, T = {2}" in out

    def test_nlc_holds(self, tmp_path, capsys):
        path = tmp_path / "prod.json"
        path.write_text(document(product_measure([Fraction(1, 2), Fraction(1, 3)])))
        code = main(["check", str(path), "nlc"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[-1] == "verdict: HOLDS (LocalDiamonds)"

    def test_nlc_report_counts_pairs(self, counterexample_file, tmp_path, capsys):
        # A holds entry names its certificate and the comparisons it made;
        # a violated one has no count.
        cases = {
            # Positive: one diamond at S = {} for the one pair {1, 2}.
            "prod": (product_measure([Fraction(1, 2), Fraction(1, 3)]), "LocalDiamonds", 1),
            # Zeros: every set but {1,2,3}, so 3 diamonds at S = {} and 1 at each singleton.
            "sparse": (SubsetPoly.from_weights(3, dict.fromkeys(range(7), 1)), "LocalDiamonds", 6),
        }
        for name, (p, certificate, pairs) in cases.items():
            path, report = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
            path.write_text(document(p))
            assert main(["check", str(path), "nlc", "--report", str(report)]) == 0, name
            assert capsys.readouterr().out.splitlines()[-1] == f"verdict: HOLDS ({certificate})"
            assert json.loads(report.read_text()) == {
                "property": "nlc", "n": p.n, "verdict": "holds",
                "certificate": certificate, "pairs_checked": pairs,
            }, name
        report = tmp_path / "violated-report.json"
        assert main(["check", counterexample_file, "nlc", "--report", str(report)]) == 1
        capsys.readouterr()
        assert sorted(json.loads(report.read_text())) == ["n", "property", "verdict", "witness"]

    def test_rationals_past_the_digit_limit(self, tmp_path, capsys):
        # The weight sum and the witness products have more digits than Python
        # writes in decimal: each such integer is printed as its digit count.
        big = 10**3000
        path = tmp_path / "n1.json"
        path.write_text(json.dumps(
            {"n": 1, "coefficients": {"": f"1/{big + 1}", "1": f"1/{big + 3}"}}
        ))
        verdicts = {
            "nlc": "verdict: HOLDS (LocalDiamonds)",
            "lc": "verdict: HOLDS (product of affine factors)",
            "slc": "aggregate: HOLDS (every derivative subset carries an exact certificate)",
        }
        for prop, verdict in verdicts.items():
            assert main(["check", str(path), prop, "--samples", "10"]) == 0, prop
            out = capsys.readouterr().out
            assert f"sum = {2 * big + 4}/<6001 digits>)" in out.splitlines()[0], prop
            assert out.splitlines()[-1] == verdict, prop
        # p({1}) p({2}) < p({1,2}) p({}): the lattice condition fails.
        big = 10**2500
        path = tmp_path / "n2.json"
        path.write_text(json.dumps({"n": 2, "coefficients": {
            "": f"1/{big + 1}", "1": f"1/{big + 3}", "2": f"1/{big + 7}", "1,2": "1"}}))
        report = tmp_path / "report.json"
        assert main(["check", str(path), "nlc", "--report", str(report)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == (
            f"witness: S = {{1}}, T = {{2}}: p(S)*p(T) = {big + 1}/<7501 digits> "
            "< <5001 digits>/<7501 digits> = p(S|T)*p(S&T)"
        )
        witness = json.loads(report.read_text())["witness"]
        assert witness["lhs"] == "1/<5001 digits>" and witness["rhs"] == f"1/{big + 1}"

    def test_lc_no_violation(self, counterexample_file, capsys):
        code = main(["check", counterexample_file, "lc", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: NO VIOLATION FOUND" in out
        assert "points tested: 225" in out  # 125 grid + 100 draws
        # One parser serves every call: an option given once is not kept.
        assert main(["check", counterexample_file, "lc", "--samples", "0"]) == 0
        assert "points tested: 125" in capsys.readouterr().out
        assert main(["check", counterexample_file, "lc"]) == 0
        assert "points tested: 2125" in capsys.readouterr().out

    def test_lc_violated(self, xy_file, capsys):
        code = main(["check", xy_file, "lc", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == 1
        assert "verdict: VIOLATED" in out
        assert "max log-Hessian eigenvalue" in out

    def test_slc_counterexample(self, counterexample_file, capsys):
        code = main(["check", counterexample_file, "slc", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "A = {}: holds (diagonal dominance certificate)" in out
        assert "A = {1}: holds (trivially log-concave: affine)" in out
        assert "A = {1,2}: holds (trivially log-concave: constant)" in out
        assert "A = {1,2,3}: holds (trivially log-concave: zero)" in out
        assert "aggregate: HOLDS" in out

    def test_slc_coefficient_matrix_certificate(self, tmp_path, capsys):
        # ad = 7/2 <= 2bc = 4: strongly log-concave, though dominance fails
        # (|bc - ad| = 3/2 > b^2 = 1) and the lattice condition too (ad > bc).
        path = tmp_path / "n2.json"
        path.write_text('{"n": 2, "coefficients": {"": "1", "1": "1", "2": "2", "1,2": "7/2"}}')
        report_path = tmp_path / "n2-report.json"
        assert main(["check", str(path), "slc", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "A = {}: holds (coefficient matrix certificate)" in out
        assert out[-1] == "aggregate: HOLDS (every derivative subset carries an exact certificate)"
        doc = json.loads(report_path.read_text())
        assert doc["subsets"]["{}"]["certificate"] == "coefficient matrix certificate"
        assert main(["check", str(path), "nlc"]) == 1
        capsys.readouterr()
        path.write_text('{"n": 2, "coefficients": {"1,2": "3"}}')  # g = 3xy
        assert main(["check", str(path), "slc"]) == 0
        assert "A = {}: holds (trivially log-concave: monomial)" in capsys.readouterr().out

    def test_lorentzian_certificate(self, tmp_path, capsys):
        # Every pair under the external field (1, 2, 3, 4): the bases of U(2, 4).
        path = tmp_path / "rank2.json"
        path.write_text('{"n": 4, "coefficients": {"1,2": "2", "1,3": "3", "1,4": "4",'
                        ' "2,3": "6", "2,4": "8", "3,4": "12"}}')
        report_path = tmp_path / "rank2-report.json"
        assert main(["check", str(path), "lc", "--report", str(report_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: HOLDS (Lorentzian certificate)"
        assert json.loads(report_path.read_text()) == {
            "property": "lc", "n": 4, "verdict": "holds", "certificate": "Lorentzian certificate",
        }
        assert main(["check", str(path), "slc", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "A = {}: holds (Lorentzian certificate)" in out
        assert out[-1] == "aggregate: HOLDS (every derivative subset carries an exact certificate)"
        subsets = json.loads(report_path.read_text())["subsets"]
        assert subsets["{}"]["certificate"] == "Lorentzian certificate"
        assert subsets["{1}"]["certificate"] == "trivially log-concave: affine"
        # x1 x2 + x3 x4: its support is no matroid, and lc finds a violation.
        path.write_text('{"n": 4, "coefficients": {"1,2": "1", "3,4": "1"}}')
        assert main(["check", str(path), "lc"]) == 1
        assert "verdict: VIOLATED" in capsys.readouterr().out.splitlines()

    def test_every_certificate_kind_has_a_name(self):
        # The kinds are the string literals that construct a LogConcavityCertificate
        # in the checkers; a kind without a printed name raises.
        tree = ast.parse(Path(checkers.__file__).read_text())
        kinds = {
            node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LogConcavityCertificate"
        }
        assert kinds == set(cli._CERTIFICATE_NAMES), kinds
        for kind in kinds:
            assert cli._certificate_name(checkers.LogConcavityCertificate(kind))
        with pytest.raises(KeyError):
            cli._certificate_name(checkers.LogConcavityCertificate("unnamed"))

    def test_slc_violated(self, xy_file, capsys):
        code = main(["check", xy_file, "slc", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == 1
        assert "A = {}: VIOLATED" in out
        assert "aggregate: VIOLATED" in out

    def test_normalize_flag(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        path.write_text(
            '{"n": 3, "coefficients": {"": "4", "1": "3", "2": "3", "3": "3",'
            ' "1,2": "3", "1,3": "3", "2,3": "3"}}'
        )
        code = main(["check", str(path), "nlc", "--normalize"])
        out = capsys.readouterr().out
        assert code == 1
        assert "sum = 1" in out
        assert "9/484 < 12/484" in out

    def test_report_file(self, counterexample_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(["check", counterexample_file, "nlc", "--report", str(report_path)])
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert doc["verdict"] == "violated"
        assert doc["witness"] == {"s": "{1}", "t": "{2}", "lhs": "9/484", "rhs": "3/121"}

        main(["check", counterexample_file, "nlc", "--report", str(tmp_path / "again.json")])
        capsys.readouterr()
        assert (tmp_path / "again.json").read_bytes() == report_path.read_bytes()

    def test_slc_report_is_json(self, counterexample_file, tmp_path, capsys):
        report_path = tmp_path / "slc.json"
        main(["check", counterexample_file, "slc", "--samples", "60", "--report", str(report_path)])
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert doc["aggregate"]["verdict"] == "holds"
        assert doc["subsets"]["{}"]["certificate"] == "diagonal dominance certificate"

    def test_report_without_points_is_strict_json(self, tmp_path, capsys):
        # No grid past n = 6, so --samples 0 tests no point and the closest
        # margin is inf: the text says so, the report writes null.
        path = tmp_path / "n7.json"
        weights = {0: 4, **{1 << i: 1 for i in range(7)}, **{3 << i: 4 for i in range(6)}}
        path.write_text(document(SubsetPoly.from_weights(7, weights)))

        def strict(report: Path) -> dict:
            return json.loads(report.read_text(), parse_constant=pytest.fail)

        assert main(["check", str(path), "lc", "--samples", "0", "--report",
                     str(tmp_path / "lc.json")]) == 0
        assert "closest margin: inf" in capsys.readouterr().out
        assert strict(tmp_path / "lc.json")["stats"]["min_margin"] is None
        assert main(["check", str(path), "slc", "--samples", "0", "--report",
                     str(tmp_path / "slc.json")]) == 0
        capsys.readouterr()
        doc = strict(tmp_path / "slc.json")
        assert doc["aggregate"]["stats"]["min_margin"] is None
        assert doc["subsets"]["{}"]["stats"]["min_margin"] is None

    def test_point_witness_report_reverifies(self, xy_file, tmp_path, capsys):
        report_path = tmp_path / "lc.json"
        assert main(["check", xy_file, "lc", "--samples", "10", "--report", str(report_path)]) == 1
        capsys.readouterr()
        w = json.loads(report_path.read_text())["witness"]
        assert set(w) == {"subset", "point", "max_eigenvalue", "threshold", "vector"}
        assert w["subset"] == "{}"
        assert m_form(load_distribution(xy_file), w["point"], w["vector"]) < 0

    def test_affine_is_one_factor_for_lc_and_trivial_for_slc(self, tmp_path, capsys):
        # 1 + 2x + 3y is one affine block: lc proves it by the factor route and
        # never prints the affine class that slc does.
        path = tmp_path / "affine.json"
        path.write_text('{"n": 2, "coefficients": {"": "1", "1": "2", "2": "3"}}')
        assert main(["check", str(path), "lc"]) == 0
        assert "verdict: HOLDS (product of affine factors)" in capsys.readouterr().out.splitlines()
        assert main(["check", str(path), "slc"]) == 0
        assert "A = {}: holds (trivially log-concave: affine)" in capsys.readouterr().out.splitlines()

    def test_lc_product_holds_by_factors(self, tmp_path, capsys):
        p = product_measure([Fraction(1, 3), Fraction(1, 2), Fraction(2, 7), Fraction(3, 4)])
        path = tmp_path / "product.json"
        path.write_text(document(p))
        report_path = tmp_path / "product-report.json"
        assert main(["check", str(path), "lc", "--report", str(report_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "verdict: HOLDS (product of affine factors)"
        assert json.loads(report_path.read_text()) == {
            "property": "lc", "n": 4, "verdict": "holds",
            "certificate": "product of affine factors",
        }
        assert main(["check", str(path), "lc", "--normalize"]) == 0
        assert capsys.readouterr().out.splitlines()[2:] == out[2:]

    def test_lc_affine_on_two_blocks_is_no_trivial_kind(self, tmp_path, capsys):
        # 1 + 2x in two variables splits into {x} and {y}: the factor route
        # decides it, and lc never prints the affine class that slc does.
        path = tmp_path / "affine-x.json"
        path.write_text('{"n": 2, "coefficients": {"": "1", "1": "2"}}')
        assert main(["check", str(path), "lc"]) == 0
        out = capsys.readouterr().out
        assert "verdict: HOLDS (product of affine factors)" in out.splitlines()
        assert "trivially log-concave:" not in out

    def test_lc_product_at_sixteen_variables_builds_no_table(self, tmp_path, capsys,
                                                             monkeypatch):
        # p(S) = prod_{i in S} (i + 1), that is g = prod_i (1 + (i + 1) x_i).
        w = [1] * (1 << 16)
        for m in range(1, 1 << 16):
            low = m & -m
            w[m] = w[m ^ low] * low.bit_length()
        path = tmp_path / "p16.json"
        path.write_text(json.dumps({"n": 16, "coefficients": {f"mask:{m}": str(c)
                                                                for m, c in enumerate(w)}}))

        def refuse(*args, **kwargs):
            raise AssertionError("a derivative table was built")

        monkeypatch.setattr(calculus, "log_hessian_many", refuse)
        monkeypatch.setattr(checkers, "log_hessian_many", refuse)
        assert main(["check", str(path), "lc"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "verdict: HOLDS (product of affine factors)"
        )

    def test_seed_and_box_accepted(self, counterexample_file, capsys):
        code = main(
            ["check", counterexample_file, "lc", "--samples", "20", "--seed", "3", "--box", "0.5", "2.0"]
        )
        capsys.readouterr()
        assert code == 0

    def test_negative_zero_tolerance_reads_as_zero(self, xy_file, counterexample_file,
                                                   tmp_path, capsys):
        # -0.0 passes the range check, but must not echo as "-0.0" or "-0.000000e+00":
        # in a violated point's threshold, or in the sampling stats of a clean run.
        for path, prop in ((xy_file, "lc"), (xy_file, "slc"), (counterexample_file, "lc")):
            runs = []
            for tol in ("0", "-0.0"):
                report = tmp_path / "report.json"
                argv = ["check", path, prop, "--samples", "10", "--tolerance", tol]
                code = main([*argv, "--report", str(report)])
                runs.append((code, capsys.readouterr().out, report.read_bytes()))
            assert runs[0] == runs[1], (path, prop)


class TestErrorPaths:
    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code = main(["check", str(path), "nlc"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")

    def test_missing_file(self, tmp_path, capsys):
        code = main(["check", str(tmp_path / "nope.json"), "nlc"])
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        capsys.readouterr()
        assert main(["check"]) == 2
        capsys.readouterr()
        assert main(["check", "file.json", "bogus"]) == 2
        capsys.readouterr()
        assert main(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: slcheck") and err == ""

    def test_unallocatable_sample_count(self, xy_file, counterexample_file, capsys, monkeypatch):
        # A --samples value whose point array cannot be allocated is refused
        # like a bad value, not reported as a violation; slc builds its points
        # before the first subset, so an input whose subsets are all certified
        # is refused too.  numpy's failure to allocate is simulated, so
        # nothing large is ever asked for.
        empty = np.empty

        def refuse_large(shape, *args, **kwargs):
            if math.prod(shape if isinstance(shape, tuple) else (shape,)) > 10**9:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse_large)
        for path, prop in itertools.product((xy_file, counterexample_file), ("lc", "slc")):
            code = main(["check", path, prop, "--samples", str(10**12)])
            out, err = capsys.readouterr()
            assert code == 2, (path, prop)
            assert out == "" and err.startswith(f"error: cannot hold {10**12} sample points")
            assert err.count("\n") == 1
        assert main(["check", xy_file, "lc", "--samples", "10"]) == 1  # violated, as unpatched

    def test_bad_sweep_step(self, tmp_path, capsys):
        code = main(["sweep", "--step", "0", "--out", "unused"])
        err = capsys.readouterr().err
        assert code == 2
        assert "step" in err
        out_dir = tmp_path / "neg"
        assert main(["sweep", "--b-max", "-1", "--out", str(out_dir)]) == 2
        assert capsys.readouterr() == ("", "error: parameter ranges must be nonnegative\n")
        assert not out_dir.exists()

    def test_non_finite_sampling_options(self, tmp_path, capsys):
        path = tmp_path / "violated.json"
        path.write_text(
            '{"n": 3, "coefficients": {"": "4", "1": "1", "2": "1", "3": "1",'
            ' "1,2": "4", "1,3": "4", "2,3": "4"}}'
        )
        assert main(["check", str(path), "lc"]) == 1  # violated at the first grid point
        capsys.readouterr()
        for prop in ("nlc", "lc", "slc"):
            for extra in (["--tolerance", "nan"], ["--tolerance", "inf"], ["--box", "0.01", "inf"]):
                code = main(["check", str(path), prop, *extra])
                out, err = capsys.readouterr()
                assert code == 2, (prop, extra)
                assert out == "" and err.startswith("error:") and err.count("\n") == 1, err

    def test_nlc_validates_sampling_options(self, xy_file, capsys):
        code = main(["check", xy_file, "nlc", "--samples", "-5", "--tolerance", "nan",
                     "--box", "5", "1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err

    def test_negative_seed(self, tmp_path, capsys):
        # (1 + x)(1 + y): slc and nlc decide it without drawing a point.
        path = tmp_path / "product.json"
        path.write_text('{"n": 2, "coefficients": {"": "1", "1": "1", "2": "1", "1,2": "1"}}')
        runs = [["check", str(path), prop, "--seed", "-1"] for prop in ("nlc", "lc", "slc")]
        # A one-cell grid whose only member is constant, so nothing is sampled.
        runs.append(["sweep", "--b-max", "0", "--c-max", "0", "--seed", "-1",
                     "--out", str(tmp_path / "tables")])
        for argv in runs:
            code = main(argv)
            out, err = capsys.readouterr()
            assert code == 2, argv
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
            assert "seed" in err
        assert not (tmp_path / "tables").exists()

    def test_zero_denominator_in_sweep_options(self, tmp_path, capsys):
        for option in ("--step", "--b-max", "--c-max"):
            code = main(["sweep", option, "1/0", "--out", str(tmp_path / "tables")])
            out, err = capsys.readouterr()
            assert code == 2, option
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
            assert "zero denominator" in err

    def test_repeated_json_key_file(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text('{"n": 2, "coefficients": {"1": "1/2", "1": "1/3", "": "1"}}')
        assert main(["check", str(path), "nlc"]) == 2
        assert "key '1' given twice" in capsys.readouterr().err

    def test_box_beyond_the_floats(self, counterexample_file, capsys):
        # Far out the log-Hessian leaves the floats: one error line, no numpy
        # warnings, no eigen solve on its inf and nan entries.  Near 1e80 g
        # is finite but g^2 is not, and must not read as a zero log-Hessian.
        for box in (["1e150", "1e160"], ["1e300", "1e308"], ["1e80", "1e100"]):
            code = main(["check", counterexample_file, "lc", "--box", *box])
            out, err = capsys.readouterr()
            assert code == 2, box
            assert out == "" and err.count("\n") == 1, err
            assert err.startswith("error: points overflow the floats"), err

    def test_misspelled_field_file(self, tmp_path, capsys):
        # Read as the zero polynomial, this would hold on every subset and exit 0.
        path = tmp_path / "coeffs.json"
        path.write_text('{"n": 3, "coeffs": {"": "1", "1": "1", "2": "5", "1,2": "1"}}')
        assert main(["check", str(path), "slc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unknown field 'coeffs'"), err

    def test_deeply_nested_json_file(self, tmp_path, capsys):
        # json.loads raises RecursionError, not JSONDecodeError, which would
        # pass main by and exit 1, the code of a found violation.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        assert main(["check", str(path), "nlc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: not valid JSON") and err.count("\n") == 1

    def test_json_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer longer than
        # sys.get_int_max_str_digits(); a repeated key keeps its own message.
        path = tmp_path / "digits.json"
        path.write_text('{"n": ' + "1" * 5000 + ', "coefficients": {}}')
        assert main(["check", str(path), "nlc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: not valid JSON") and err.count("\n") == 1
        path.write_text('{"n": 1, "n": 1, "coefficients": {}}')
        assert main(["check", str(path), "nlc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: key 'n' given twice in one JSON object\n", err

    def test_exponent_past_the_digit_limit(self, tmp_path, capsys):
        # Refused before 10**100000000 is built, in a file and in every sweep option.
        path = tmp_path / "exponent.json"
        path.write_text('{"n": 1, "coefficients": {"": "1", "1": "1e-100000000"}}')
        assert main(["check", str(path), "nlc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: bad rational '1e-100000000': exponent -100000000 exceeds")
        for option in ("--step", "--b-max", "--c-max"):
            code = main(["sweep", option, "1e-100000000", "--out", str(tmp_path / "tables")])
            out, err = capsys.readouterr()
            assert code == 2, option
            assert out == "" and err.startswith("error: exponent -100000000 exceeds"), err
        assert not (tmp_path / "tables").exists()

    def test_weights_and_sweep_options_in_ascii_without_underscores(self, tmp_path, capsys):
        # Fraction alone reads any Unicode digit by its value, and "1_000" as 1000.
        path = tmp_path / "digits.json"
        for weight in ("\u0663", "1_000", "\uff13/2"):
            path.write_text(json.dumps({"n": 1, "coefficients": {"": "1", "1": weight}}))
            assert main(["check", str(path), "nlc"]) == 2, weight
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: bad rational") and err.count("\n") == 1
        for option, value in (("--b-max", "1_0"), ("--step", "\u0660.\u0660\u0665")):
            code = main(["sweep", option, value, "--out", str(tmp_path / "tables")])
            out, err = capsys.readouterr()
            assert code == 2, option
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert not (tmp_path / "tables").exists()

    def test_sweep_bounds_outside_the_floats(self, tmp_path, capsys):
        # The tables write grid values as floats: one that overflows, or a
        # step that rounds to zero, is refused before any cell is computed.
        out_dir = tmp_path / "tables"
        for options in (["--b-max", "1", "--c-max", "1", "--step", "1e400"],
                        ["--b-max", "1e400", "--step", "1e399", "--c-max", "0"],
                        ["--b-max", "2e-400", "--c-max", "0", "--step", "1e-400"]):
            code = main(["sweep", *options, "--out", str(out_dir)])
            out, err = capsys.readouterr()
            assert code == 2, options
            assert out == "" and err.startswith("error:") and err.count("\n") == 1, err
        assert not out_dir.exists()
        with pytest.raises(ValueError, match="step"):
            SweepConfig(step="1e400")

    def test_unwritable_report_prints_nothing(self, counterexample_file, tmp_path, capsys):
        report = tmp_path / "missing" / "r.json"
        assert main(["check", counterexample_file, "nlc", "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: [Errno 2]") and err.count("\n") == 1, err

    def test_unwritable_sweep_directory_runs_no_sweep(self, tmp_path, capsys, monkeypatch):
        def refuse(cfg):
            raise AssertionError("sweep ran before its output directory was made")

        monkeypatch.setattr(cli, "sweep", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["sweep", "--out", str(blocker / "x")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1, err

    def test_negative_weight_file(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text('{"n": 1, "coefficients": {"1": "-1"}}')
        code = main(["check", str(path), "nlc"])
        assert code == 2
        assert "negative" in capsys.readouterr().err


REPRO_OUTPUT = """\
reproduction of the built-in counterexample
ok   lattice-condition-violated: S = {1}, T = {2}: p(S)*p(T) = 9/484 < 12/484 = p(S|T)*p(S&T)
ok   dominance-certificate: dominance certificate found for the undifferentiated polynomial; \
aggregate over 8 derivative subsets: Holds
ok   first-derivative-eigenvalues: d1 g = 3/22 * (1 + y + z), \
M(d1 g) = 9/484 * E with E = [[0,0,0],[0,1,1],[0,1,1]], so -(1+y+z)^2 H(d1 g) = E: \
eigenvalues {0, 0, 2}, exactly
ok   reference-proportionality: M = 3/484 * reference matrix, entry for entry
ok   row-gap-form: row-1 gap = 3/484 * (1 + 3*y + 3*z + 6*y*z)
result: all expectations met
"""


class TestReproCommand:
    def test_passes(self, capsys):
        code = main(["repro-counterexample"])
        assert code == 0
        assert capsys.readouterr().out == REPRO_OUTPUT

    def test_fails_on_another_distribution(self, capsys, monkeypatch):
        # At (1, 1) the lattice witness has other products, and no check holds;
        # at (2, 1) the lattice condition holds.
        monkeypatch.setattr(counterexample, "counterexample_distribution",
                            lambda: make_family(1, 1))
        assert main(["repro-counterexample"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line[:4] for line in lines[1:-1]] == ["FAIL"] * 5
        assert lines[-1] == "result: EXPECTATIONS FAILED"
        monkeypatch.setattr(counterexample, "counterexample_distribution",
                            lambda: make_family(2, 1))
        assert main(["repro-counterexample"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "FAIL lattice-condition-violated: expected a violation, got Holds"
        assert lines[-1] == "result: EXPECTATIONS FAILED"

    def test_seed_option(self, capsys):
        # The replay is exact and draws no points, so it takes no seed.
        assert main(["repro-counterexample", "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


class TestSweepCommand:
    def test_small_sweep(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(
            [
                "sweep",
                "--b-max", "1",
                "--c-max", "1",
                "--step", "0.5",
                "--samples", "30",
                "--seed", "1",
                "--out", str(out_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cells: 9" in out
        # Only the c = 0 cells meet 8c <= 3b^2 on this grid.
        assert "exact certificates: 3" in out
        assert "containment (lattice true implies no violation): ok" in out
        for name in ("nlc_boundary.txt", "slc_boundary.txt", "sweep_full.csv"):
            assert (out_dir / name).exists()
