"""Two-parameter family: exact region law, sweeps, and emitted tables."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slcheck import Holds, SubsetPoly, Violated, check_nlc
from slcheck.family import SweepConfig, emit_region_tables, make_family, sweep


def nlc_holds(b, c) -> bool:
    return isinstance(check_nlc(make_family(b, c)), Holds)


class TestFamilyConstruction:
    def test_member_three_three_is_the_counterexample(self, counterexample):
        assert make_family(3, 3) == counterexample

    def test_member_with_no_pair_weight(self):
        p = make_family(4, 0)
        assert p.coeffs[0] == Fraction(1, 4)
        assert p.coeffs[0b001] == Fraction(1, 4)
        assert p.coeffs[0b011] == 0
        assert p.coeffs[0b111] == 0

    def test_string_parameters_are_exact(self):
        assert make_family("0.05", "1/3") == make_family(Fraction(1, 20), Fraction(1, 3))

    def test_is_always_a_distribution(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            b = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 10)))
            c = Fraction(int(rng.integers(0, 50)), int(rng.integers(1, 10)))
            assert make_family(b, c).coeff_sum() == 1

    def test_matches_normalized_weights_on_the_default_grid(self):
        # make_family forms its weights over 4 + 3b + 3c in one step; at every
        # default cell that must be the normalized weights, Fractions and integers.
        cfg = SweepConfig()
        for b in cfg.grid_b():
            for c in cfg.grid_c():
                got = make_family(b, c)
                weights = {0: 4, 0b001: b, 0b010: b, 0b100: b, 0b011: c, 0b101: c, 0b110: c}
                want = SubsetPoly.from_weights(3, weights).normalize()
                assert got.coeffs == want.coeffs and got.cleared == want.cleared, (b, c)
        assert len(cfg.grid_b()) * len(cfg.grid_c()) == 6561

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            make_family(-1, 2)
        with pytest.raises(ValueError, match="family parameters"):
            make_family(1, "-1/2")
        with pytest.raises(ValueError, match="family parameters"):
            make_family(Fraction(-1, 10**400), 0)


class TestRegionLaw:
    def test_closed_form_matches_enumeration(self):
        # Quarter-integer grid hits the boundary b^2 = 4c exactly at several
        # cells, which is where a float version would get this wrong.
        grid = [Fraction(k, 4) for k in range(0, 17)]
        for b in grid:
            for c in grid:
                assert nlc_holds(b, c) == (b * b >= 4 * c)

    def test_boundary_cells(self):
        assert nlc_holds(2, 1)
        assert not nlc_holds(2, "1.0625")
        assert nlc_holds(3, "9/4")
        assert not nlc_holds(3, "2.26")

    def test_counterexample_cell_is_outside(self):
        assert isinstance(check_nlc(make_family(3, 3)), Violated)


def small_config(**overrides) -> SweepConfig:
    base = dict(b_max=2, c_max=1, step="1/4", samples_per_cell=40, seed=7)
    base.update(overrides)
    return SweepConfig(**base)


class TestSweep:
    def test_grids(self):
        cfg = small_config()
        assert cfg.grid_b() == tuple(Fraction(k, 4) for k in range(9))
        assert cfg.grid_c() == tuple(Fraction(k, 4) for k in range(5))
        assert SweepConfig("4", "4", "0.05") == SweepConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(step=0)
        with pytest.raises(ValueError):
            SweepConfig(step="1/100000")  # over the cell cap
        with pytest.raises(ValueError):
            SweepConfig(samples_per_cell=-1)
        with pytest.raises(ValueError, match="seed"):
            SweepConfig(seed=-1)
        for field in ("b_max", "c_max", "step"):
            with pytest.raises(ValueError, match="zero denominator"):
                SweepConfig(**{field: "1/0"})
        for field in ("samples_per_cell", "seed"):
            for value in (2.5, "3", None):
                with pytest.raises(ValueError, match=field):
                    SweepConfig(**{field: value})
        cfg = SweepConfig(samples_per_cell=np.int64(20), seed=np.int64(3))
        assert cfg == SweepConfig(samples_per_cell=20, seed=3)
        assert type(cfg.samples_per_cell) is int and type(cfg.seed) is int

    def test_cells_and_flags(self):
        result = sweep(small_config())
        assert len(result.cells) == 9 * 5
        for cell in result.cells:
            assert cell.nlc == (cell.b * cell.b >= 4 * cell.c)
        cells = {(cell.b, cell.c): cell for cell in result.cells}
        # (2, 1) sits exactly on the lattice boundary.
        assert cells[2, 1].nlc
        assert cells[Fraction(7, 4), 1].nlc is False

    def test_containment_on_small_grid(self):
        result = sweep(small_config())
        assert result.containment_failures() == []
        assert result.count_slc() >= result.count_nlc()

    def test_certified_cells_are_clean(self):
        result = sweep(small_config())
        for cell in result.cells:
            if cell.certified:
                assert cell.slc_no_violation

    def test_deterministic_across_runs(self):
        a = sweep(small_config())
        b = sweep(small_config())
        assert a == b

    def test_seed_changes_streams_not_exact_flags(self):
        a = sweep(small_config(seed=7))
        b = sweep(small_config(seed=8))
        for ca, cb in zip(a.cells, b.cells):
            assert ca.nlc == cb.nlc
            assert ca.certified == cb.certified


class TestRegionTables:
    def test_files_and_shape(self, tmp_path: Path):
        result = sweep(small_config())
        nlc_path, slc_path, csv_path = emit_region_tables(result, str(tmp_path / "out"))
        nlc_lines = Path(nlc_path).read_text().splitlines()
        assert nlc_lines[0].startswith("# grid: b, c in 0..2.0 x 0..1.0 step 0.25")
        assert sum(1 for ln in nlc_lines if not ln.startswith("#")) <= 9

        csv_lines = Path(csv_path).read_text().splitlines()
        assert csv_lines[0] == "b,c,nlc,slc_no_violation,certified"
        assert len(csv_lines) == 1 + 9 * 5
        assert csv_lines[1] == "0.0,0.0,1,1,1"
        # b = 7/4, c = 1: b^2 < 4c fails the lattice condition, 8c <= 3b^2 certifies.
        assert "1.75,1.0,0,1,1" in csv_lines

    def test_boundary_rows_match_law(self, tmp_path: Path):
        result = sweep(small_config())
        nlc_path, _, _ = emit_region_tables(result, str(tmp_path / "out"))
        rows = [
            ln.split() for ln in Path(nlc_path).read_text().splitlines() if not ln.startswith("#")
        ]
        for b_str, c_str in rows:
            b, c = Fraction(b_str), Fraction(c_str)
            assert b * b >= 4 * c
            above = c + Fraction(1, 4)
            if above <= 1:
                assert b * b < 4 * above
        # At b = 2 the largest lattice-true c on this grid is c = 1 exactly.
        assert ["2.0", "1.0"] in rows

    def test_byte_identical_reruns(self, tmp_path: Path):
        result = sweep(small_config())
        paths_a = emit_region_tables(result, str(tmp_path / "a"))
        paths_b = emit_region_tables(result, str(tmp_path / "b"))
        for pa, pb in zip(paths_a, paths_b):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()

    def test_slc_boundary_dominates_nlc_boundary(self, tmp_path: Path):
        result = sweep(small_config())
        nlc_path, slc_path, _ = emit_region_tables(result, str(tmp_path / "out"))

        def rows(path: str) -> dict[str, float]:
            out = {}
            for ln in Path(path).read_text().splitlines():
                if not ln.startswith("#"):
                    b, c = ln.split()
                    out[b] = float(c)
            return out

        nlc_rows, slc_rows = rows(nlc_path), rows(slc_path)
        for b, c in nlc_rows.items():
            assert slc_rows[b] >= c
