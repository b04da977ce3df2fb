"""Independent references the benchmark checks the program's outputs against.

None of these call into ``sublex``: they are exact integer sums, the Gamma
closed form, and values recorded at an earlier commit (``golden.json``).
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

#: Relative tolerance for deterministic dynamic-program outputs.
DP_RTOL = 1e-12

#: Absolute tolerance for a G-heat value against its closed form.  It is the
#: CLI's own ``pde_moment_tol``; the measured errors are 1e-4 at nx = 801.
HEAT_ATOL = 1e-3

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@lru_cache(maxsize=None)
def srw_abs_moment(n: int, p: int) -> float:
    """E|S_n|^p for the simple random walk (steps +-1 with probability 1/2).

    This is the canonical family's upper expectation of the convex payoff
    |S_n|^p: every step picks the measure with the larger variance.
    """
    total = sum(math.comb(n, k) * abs(2 * k - n) ** p for k in range(n + 1))
    return float(Fraction(total, 2**n))


def lazy_abs_moment(n: int, p: int) -> float:
    """E|S_n|^p for the lazy walk (+-1 with probability 1/4, 0 with 1/2).

    One lazy step is half the sum of two fair +-1 steps, so
    S_n = SRW_{2n} / 2; this is the canonical lower expectation.
    """
    return float(Fraction(srw_abs_moment(2 * n, p)) / 2**p)


def normal_abs_moment(p: float, sigma_sq: float) -> float:
    """E|N(0, sigma^2)|^p by the Gamma closed form."""
    return sigma_sq ** (p / 2) * 2 ** (p / 2) * math.gamma((p + 1) / 2) / math.sqrt(math.pi)


def heat_closed_forms(sigma_lo_sq: float, sigma_hi_sq: float) -> dict[str, float]:
    """G-normal expectations of the battery payoffs with a closed form.

    A convex payoff takes the classical expectation at the upper variance,
    a concave one at the lower variance.
    """
    return {
        "square": normal_abs_moment(2.0, sigma_hi_sq),
        "abs": normal_abs_moment(1.0, sigma_hi_sq),
        "abs_cubed": normal_abs_moment(3.0, sigma_hi_sq),
        "neg_square": -normal_abs_moment(2.0, sigma_lo_sq),
    }


def close(value: float, expected: float, rtol: float = DP_RTOL, scale: float = 0.0) -> bool:
    """|value - expected| <= rtol * max(|expected|, scale); exact when both are 0."""
    return abs(value - expected) <= rtol * max(abs(expected), scale)


def compare_columns(
    got: dict[str, list], expected: dict[str, list], rtol: float = DP_RTOL
) -> str | None:
    """First mismatch between recorded columns, or None when all agree."""
    for col, want in expected.items():
        have = got.get(col)
        if have is None or len(have) != len(want):
            return f"column {col!r}: {len(have or [])} values, expected {len(want)}"
        for i, (h, w) in enumerate(zip(have, want)):
            if isinstance(w, str):
                ok = h == w
            else:
                ok = close(float(h), w, rtol)
            if not ok:
                return f"column {col!r} row {i}: {h!r} differs from recorded {w!r}"
    return None


def read_csv(path: Path) -> dict[str, list[str]]:
    """A CSV file as a dict of column name to the column's cells."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def numeric(cells: list[str]) -> list:
    """Cells as floats, keeping the ones that are not numbers as strings."""
    out: list = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def load_golden() -> dict:
    """The recorded outputs, or nothing before they were first recorded."""
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())
