"""Computed work counts: lattice nodes a dynamic program visits, PDE cell-steps.

Counts are derived from a call's inputs alone, never from the program's
own data structures, so they repeat exactly and a later kernel cannot move
them by changing how it stores the lattice.  Two regimes:

* commensurable offsets (every offset an integer multiple of the smallest
  nonzero one, as on the canonical grid): the reachable sums are counted
  exactly by boolean reachability on the integer lattice;
* generic offsets (random float atoms): sums of distinct multisets never
  coincide, so ``k`` draws from ``m`` distinct offsets reach
  ``C(k + m - 1, m - 1)`` states.

Both are checked against ``len(sum_lattice(...).states)`` in the self-tests.
"""

from __future__ import annotations

import math

import numpy as np

#: Bytes one explicit G-heat step must move per grid cell: read and write
#: the float64 state once.  ``gnormal.bytes_moved`` is this floor times the
#: cell-steps, a computed figure that ignores temporaries and cache misses.
BYTES_PER_CELL_STEP = 16


def _integer_steps(offsets: np.ndarray) -> np.ndarray | None:
    """Offsets as integers in units of the smallest nonzero one, or None."""
    nonzero = np.abs(offsets[offsets != 0.0])
    if nonzero.size == 0:
        return np.zeros(1, dtype=np.int64)
    ratios = offsets / nonzero.min()
    steps = np.round(ratios)
    if np.max(np.abs(ratios - steps)) > 1e-9:
        return None
    return np.unique(steps.astype(np.int64))


def level_sizes(offsets, n: int, at_most: bool = False) -> list[int]:
    """Lattice sizes after 0..n draws of ``offsets`` (sums of at most k draws
    when ``at_most``), as the program's lattices would hold them."""
    offsets = np.unique(np.asarray(offsets, dtype=float))
    if at_most:
        offsets = np.unique(np.append(offsets, 0.0))
    steps = _integer_steps(offsets)
    if steps is None:
        m = offsets.size
        return [math.comb(k + m - 1, m - 1) for k in range(n + 1)]
    lo, hi = int(steps.min()), int(steps.max())
    reach = np.ones(1, dtype=bool)  # reach[i] <=> sum k*lo + i is reachable
    sizes = [1]
    for _ in range(n):
        nxt = np.zeros(reach.size + hi - lo, dtype=bool)
        for s in steps:
            nxt[s - lo : s - lo + reach.size] |= reach
        reach = nxt
        sizes.append(int(reach.sum()))
    return sizes


def maxabs_level_sizes(offsets, n: int) -> list[int]:
    """Sizes of the (sum, running max of |sum|) lattices after 0..n draws.

    Only commensurable offsets occur in the benchmark's maximal-moment
    calls; generic offsets raise ValueError.
    """
    offsets = np.unique(np.asarray(offsets, dtype=float))
    steps = _integer_steps(offsets)
    if steps is None:
        raise ValueError("the running-max count needs commensurable offsets")
    reach = {(0, 0)}
    sizes = [1]
    for _ in range(n):
        reach = {(s + int(o), max(m, abs(s + int(o)))) for s, m in reach for o in steps}
        sizes.append(len(reach))
    return sizes


def heat_steps(t: float, dt: float) -> int:
    """Time steps the explicit stepper takes to march for time ``t``."""
    if t == 0.0:
        return 0
    return max(1, math.ceil(t / dt))


class LatticeCounter:
    """Memoized prefix sums of lattice sizes, keyed by offsets and kind."""

    def __init__(self) -> None:
        self._cache: dict[tuple, list[int]] = {}

    def visited(self, kind: str, offsets, n: int) -> int:
        """Nodes on lattice levels 0..n for ``kind`` in {"exact", "at_most", "maxabs"}."""
        key = (kind, tuple(np.unique(np.asarray(offsets, dtype=float)).tolist()))
        prefix = self._cache.get(key)
        if prefix is None or len(prefix) <= n:
            if kind == "maxabs":
                sizes = maxabs_level_sizes(offsets, n)
            else:
                sizes = level_sizes(offsets, n, at_most=(kind == "at_most"))
            prefix = list(np.cumsum(sizes, dtype=np.int64).tolist())
            self._cache[key] = prefix
        return int(prefix[n])
