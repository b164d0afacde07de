"""A two-parameter family of subset distributions on three elements.

The family weights the empty set 4, each singleton b, each pair c, and the
full set 0, then normalizes:

    g(x, y, z) = (4 + b(x + y + z) + c(xy + xz + yz)) / (4 + 3b + 3c).

Exact analysis of the lattice condition on this family reduces to a single
inequality, b^2 >= 4c: singleton-singleton pairs are the only incomparable
pairs whose products are not automatically ordered.  `sweep` walks a (b, c)
grid and records, per cell, the exact lattice verdict next to the strong
log-concavity verdict of `check_slc`, which is the data behind the region
tables: a cell is clean when no violation was found, and certified when
every derivative carries an exact certificate.  On the default grid the
dominance and coefficient-matrix certificates between them certify exactly
the cells with 8c <= 3b^2; the other clean cells were sampled.
Negative parameters and invalid sweep settings are refused on conversion.
"""

from __future__ import annotations

import csv
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .checkers import (
    Holds,
    SampleConfig,
    Violated,
    check_nlc,
    check_slc,
)
from .poly import RationalLike, SubsetPoly, as_fraction

CELL_CAP = 250_000


def make_family(b: RationalLike, c: RationalLike) -> SubsetPoly:
    """The normalized family member at (b, c); raises ValueError if either is negative."""
    b, c = as_fraction(b), as_fraction(c)
    if b < 0 or c < 0:
        raise ValueError(f"family parameters must be nonnegative, got ({b}, {c})")
    bd, cd = b.denominator, c.denominator
    # 4, b and c over their common denominator bd * cd, all over the sum.
    empty, single, pair = 4 * bd * cd, b.numerator * cd, c.numerator * bd
    total = empty + 3 * single + 3 * pair
    return SubsetPoly(3, ((empty, single, single, pair, single, pair, pair, 0), total))


# ----- grid sweep -------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Grid and sampling parameters for a (b, c) sweep.

    b and c run over {0, step, 2*step, ...} up to b_max and c_max.  The grid
    values are exact rationals; b_max, c_max and step are converted with
    as_fraction, so pass steps like '0.05' as strings.  Construction refuses
    an invalid grid, sample count or seed.  Each cell is sampled in
    SampleConfig's default box at its default tolerance.
    """

    b_max: Fraction = Fraction(4)
    c_max: Fraction = Fraction(4)
    step: Fraction = Fraction(1, 20)
    samples_per_cell: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("b_max", "c_max", "step"):
            object.__setattr__(self, name, as_fraction(getattr(self, name)))
        for name in ("samples_per_cell", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.b_max < 0 or self.c_max < 0:
            raise ValueError("parameter ranges must be nonnegative")
        if self.samples_per_cell < 0:
            raise ValueError("samples_per_cell must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if (self.b_max // self.step + 1) * (self.c_max // self.step + 1) > CELL_CAP:
            raise ValueError(f"sweep would exceed the {CELL_CAP} cell cap")

    def grid_b(self) -> tuple[Fraction, ...]:
        return _grid_values(self.b_max, self.step)

    def grid_c(self) -> tuple[Fraction, ...]:
        return _grid_values(self.c_max, self.step)


def _grid_values(upper: Fraction, step: Fraction) -> tuple[Fraction, ...]:
    count = int(upper / step)
    return tuple(step * k for k in range(count + 1))


@dataclass(frozen=True)
class SweepCell:
    b: Fraction
    c: Fraction
    nlc: bool
    slc_no_violation: bool
    certified: bool


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[SweepCell, ...]

    def count_nlc(self) -> int:
        return sum(1 for cell in self.cells if cell.nlc)

    def count_slc(self) -> int:
        return sum(1 for cell in self.cells if cell.slc_no_violation)

    def count_certified(self) -> int:
        return sum(1 for cell in self.cells if cell.certified)

    def containment_failures(self) -> list[SweepCell]:
        """Cells satisfying the lattice condition but with a sampled violation."""
        return [cell for cell in self.cells if cell.nlc and not cell.slc_no_violation]


def sweep(cfg: SweepConfig = SweepConfig()) -> SweepResult:
    """Exact lattice flag, strong log-concavity flag and certified flag for every grid cell.

    Each cell gets its own deterministic random stream derived from the
    sweep seed and the cell's grid indices, so results are reproducible and
    independent of iteration order.
    """
    cells = []
    for bi, b in enumerate(cfg.grid_b()):
        for ci, c in enumerate(cfg.grid_c()):
            p = make_family(b, c)
            nlc = isinstance(check_nlc(p), Holds)
            sample_cfg = SampleConfig(points=cfg.samples_per_cell, seed=(cfg.seed, bi, ci))
            aggregate = check_slc(p, sample_cfg).aggregate
            slc = not isinstance(aggregate, Violated)
            cells.append(SweepCell(b, c, nlc, slc, certified=isinstance(aggregate, Holds)))
    return SweepResult(config=cfg, cells=tuple(cells))


# ----- output files -------------------------------------------------------------


def emit_region_tables(result: SweepResult, out_dir: str) -> tuple[str, str, str]:
    """Write nlc_boundary.txt, slc_boundary.txt, and sweep_full.csv.

    Boundary files hold one 'b c' row per grid column: the largest c at that
    b for which the flag is true.  A b with no true cell is omitted, as the
    header says.  sweep_full.csv has one row per cell with its three flags.
    Byte-identical output for identical sweeps.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    box, tolerance = SampleConfig.box, SampleConfig.tolerance
    header = [
        f"# grid: b, c in 0..{_fmt(cfg.b_max)} x 0..{_fmt(cfg.c_max)} step {_fmt(cfg.step)}",
        f"# samples per cell: {cfg.samples_per_cell}, box: [{box[0]!r}, {box[1]!r}]"
        f", tolerance: {tolerance!r}, seed: {cfg.seed}",
        "# columns: b, largest c with the flag true; b omitted when no cell qualifies",
    ]
    nlc_path = os.path.join(out_dir, "nlc_boundary.txt")
    slc_path = os.path.join(out_dir, "slc_boundary.txt")
    csv_path = os.path.join(out_dir, "sweep_full.csv")

    _write_boundary(nlc_path, header, result, flag="nlc")
    _write_boundary(slc_path, header, result, flag="slc_no_violation")

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["b", "c", "nlc", "slc_no_violation", "certified"])
        for cell in result.cells:
            writer.writerow(
                [
                    _fmt(cell.b),
                    _fmt(cell.c),
                    int(cell.nlc),
                    int(cell.slc_no_violation),
                    int(cell.certified),
                ]
            )
    return nlc_path, slc_path, csv_path


def _write_boundary(path: str, header: Sequence[str], result: SweepResult, flag: str) -> None:
    by_b: dict[Fraction, Fraction] = {}
    for cell in result.cells:
        if getattr(cell, flag) and (cell.b not in by_b or cell.c > by_b[cell.b]):
            by_b[cell.b] = cell.c
    with open(path, "w") as fh:
        for line in header:
            fh.write(line + "\n")
        for b in result.config.grid_b():
            if b in by_b:
                fh.write(f"{_fmt(b)} {_fmt(by_b[b])}\n")


def _fmt(value: Fraction) -> str:
    """Grid values as shortest round-trip floats: 2 -> '2.0', 3/20 -> '0.15'."""
    return repr(float(value))
