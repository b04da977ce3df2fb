"""Exact functionals of i.i.d. sequences under sublinear expectations.

Independence is realized computationally: the upper expectation of a
functional of ``S_n = X_1 + ... + X_n`` is the value of a backward
maximization over per-step measure choices from the ambiguity set,

    V_n(s) = phi(s),   V_k(s) = max_theta sum_j theta_j V_{k+1}(s + atom_j),

evaluated on the lattice of reachable partial sums, one of two.  The dense
integer lattice serves commensurable offsets (decimals whose differences
are integer multiples of one unit, as on the canonical grid) while its
nodes do not outnumber the multisets of draws: a node is an index, its
value the correctly rounded exact sum, and successors are slices.  All
other offsets run on the composition lattice: a node is a multiset of
draws, ranked in the combinatorial number system, with closed-form
successor ranks computed once and sliced per level; it needs no sort, no
tolerance and no per-step maps.  On commensurable offsets it counts the
integer shifts and values a node as the dense lattice would.  Functionals
of the running maximum run on one chain of merged (sum, running max)
pairs.  Every lattice, with the arrays its sweep holds, stays under a
memory budget.  A brute-force enumerator over *all* history-dependent
measure assignments provides an independent oracle for this recursion at
small sizes, and an argmax policy extracted from the recursion drives
adversarial path sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import AmbiguitySet, _on_states
from .errors import CapacityError, ParameterError

#: Offsets whose common unit is at most this are not commensurable, float
#: (sum, running max) pairs are merged at this resolution, and
#: ``sum_lattice`` reports states closer than this as one.
MERGE_TOL = 1e-9

#: Bytes one lattice may hold: the reachability masks of a gapped integer
#: lattice, the widest level of a dense one with its successors, the ranks,
#: values and successor ranks of a composition lattice with the temporaries
#: that build them, or the maxima and transition maps of the pair chain with
#: the temporaries of its widest merge; each with the arrays a sweep of it
#: holds (``_sweep_bytes``).  Also a selection policy's picks (a byte per
#: reachable state for up to 256 measures) with that lattice and sweep.
CHAIN_BUDGET_BYTES = 512 * 2**20

#: Working arrays of a sweep step, in words per node of the widest level,
#: beside its candidates and gathered successors: the level above, the
#: running best and its predecessor, a weighted successor, the picks with
#: their tie mask, a stage's or terminal's states, its values and the staged
#: sum; the tenth word is slack, kept so that no budget admission moves.
_SWEEP_WORDS = 10

#: Peak bytes per candidate pair of one ``_pair_chain`` step, its outputs
#: included: ten words and a flag, the sums, maxima, their integer keys,
#: their sorted copies, the sort order, the group ids and their running
#: counts, or, at its end, the kept sums and maxima.
_PAIR_MERGE_BYTES = 10 * 8 + 1

#: Integers below this are exact in float64.
_EXACT_INT = 2**53

#: The most measure assignments the enumeration oracle visits.
_MAX_ASSIGNMENTS = 10_000_000


@dataclass(frozen=True)
class SumLattice:
    """Reachable partial-sum values after ``step`` increments."""

    step: int
    states: tuple[float, ...]

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.states, dtype=float)
        arr.flags.writeable = False
        return arr


class _Lattice:
    """Levels of nodes a recursion sweeps: level k holds the states after k
    steps, and ``successors(k, V)`` gives, per move, the values ``V`` holds on
    level k+1 at the successors of the nodes of level k; ``gathered()`` of
    those are new arrays, the others views."""

    def reach(self, k: int) -> np.ndarray | None:
        """Which nodes of level k are reachable; None when all of them are."""
        return None

    def states(self, k: int) -> np.ndarray:
        """The values of the reachable nodes of level k, in node order: sums
        on a sum lattice, running maxima on the pair chain."""
        return self.reachable(k, self.nodes(k))

    def size(self, k: int) -> int:
        """The number of nodes of level k."""
        return self.nodes(k).size

    def count(self, k: int) -> int:
        """The number of reachable states of level k."""
        mask = self.reach(k)
        return self.size(k) if mask is None else int(np.count_nonzero(mask))

    def on_nodes(self, k: int, values: np.ndarray) -> np.ndarray:
        """Values given on the reachable nodes of level k, in node order, put
        on all its nodes (0 elsewhere)."""
        mask = self.reach(k)
        if mask is None:
            return values
        out = np.zeros(mask.shape + values.shape[1:], dtype=values.dtype)
        out[mask] = values
        return out

    def reachable(self, k: int, node_values: np.ndarray) -> np.ndarray:
        """The entries of ``node_values`` at the reachable nodes of level k, in node order."""
        mask = self.reach(k)
        return node_values if mask is None else node_values[mask]


@dataclass(frozen=True)
class _Units:
    """Offsets ``(lo_num + shift * unit_num) / den`` exactly, shifts integer.

    Offsets are read as the shortest decimals that round-trip (``repr``), so
    atoms written 0.1 and 0.2 share the unit 1/10.
    """

    lo_num: int
    unit_num: int
    den: int
    shifts: tuple[int, ...]

    @property
    def span(self) -> int:
        return max(self.shifts)

    def values(self, k: int, index: np.ndarray) -> np.ndarray:
        """The sums ``k*lo + index*unit``: the floats nearest the exact sums
        while the numerators stay exact in float64, float arithmetic beyond.
        A float ``index`` is overwritten with them."""
        out = np.asarray(index, dtype=float)
        top = k * abs(self.lo_num) + int(out.max(initial=0.0)) * self.unit_num
        if self.den < _EXACT_INT and top < _EXACT_INT:
            # integers below 2**53 multiply and add exactly in float64
            out *= self.unit_num
            out += k * self.lo_num
            out /= self.den
        else:
            out *= self.unit_num / self.den
            out += k * (self.lo_num / self.den)
        return out


@dataclass(frozen=True, eq=False)
class _IntLattice(_Lattice):
    """Dense sums of commensurable offsets.

    Node i of level k is the sum ``k*lo + i*unit``, i = 0..k*span, and move j
    takes node i to node ``i + moves[j]``.  Unreachable nodes (gapped grids)
    carry values no reachable node ever reads: a successor of a reachable
    node is reachable.
    """

    units: _Units
    moves: np.ndarray
    zero: int  # node shift of the zero offset of an at-most lattice
    masks: tuple[np.ndarray | None, ...]  # levels before the first full one

    def size(self, k: int) -> int:
        return k * self.units.span + 1

    def reach(self, k: int) -> np.ndarray | None:
        return self.masks[k] if k < len(self.masks) else None

    def nodes(self, k: int) -> np.ndarray:
        return self.units.values(k, np.arange(self.size(k), dtype=float))

    def successors(self, k: int, values: np.ndarray) -> list[np.ndarray]:
        width = self.size(k)
        return [values[s : s + width] for s in self.moves]

    def gathered(self) -> int:
        return 0  # the successors are views

    def origin(self, k: int) -> int:
        return k * self.zero

    def step(self, k: int, nodes: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """The nodes of level k+1 that ``moves`` take ``nodes`` of level k to."""
        return nodes + self.moves[moves]


@dataclass(frozen=True, eq=False)
class _MergedLattice(_Lattice):
    """Merged nodes, as the pair chain builds them: ``levels[k]`` holds the
    values of level k (the running maxima of its (sum, running max) pairs)
    and ``maps[k][i, j]`` is the node of level k+1 that move j reaches from
    node i of level k."""

    levels: list[np.ndarray]
    maps: list[np.ndarray]

    def nodes(self, k: int) -> np.ndarray:
        return self.levels[k]

    def successors(self, k: int, values: np.ndarray) -> list[np.ndarray]:
        return [values[step_map] for step_map in self.maps[k].T]

    def gathered(self) -> int:
        return self.maps[0].shape[1] if self.maps else 0


@dataclass(frozen=True, eq=False)
class _CompositionLattice(_Lattice):
    """Sums of k draws from distinct offsets a_0..a_e, one node per multiset.

    A node of level k is the tail t = (c_1..c_e) of a count vector, |t| <= k,
    the free count c_0 being k - |t|; its value is
    ``(k - |t|)*a_0 + sum_i t_i a_i``, the sum precomputed in index order.
    Ranks are graded colex (by |t|, then recursively by the rank of
    (t_2..t_e)), the combinatorial number system, so they do not depend on
    k: level k is the first C(k+e, e) ranks of level k+1.  Adding offset j
    takes rank r to ``succ[j-1][r]``; adding the free offset keeps the rank.
    The states of a level are its node values in rank order.  An at-most
    lattice has the zero offset as a_0, so its origin is rank 0.  With
    ``units``, the offsets are its integer shifts and a node is valued
    ``units.values(k, index)`` at its index sum, as on the dense lattice;
    distinct multisets of equal sum stay distinct nodes of equal value.
    """

    free: float  # a_0
    moves: tuple[int, ...]  # the offset index of each move, 0 the free one
    grade: np.ndarray  # |t| by rank, levels 0..n
    base: np.ndarray  # sum_i t_i a_i by rank, levels 0..n
    succ: tuple[np.ndarray, ...]  # ranks of t + e_j by rank, levels 0..n-1
    units: _Units | None = None

    def size(self, k: int) -> int:
        return math.comb(k + len(self.succ), len(self.succ))

    def nodes(self, k: int) -> np.ndarray:
        width = self.size(k)
        out = (k - self.grade[:width]) * self.free
        out += self.base[:width]
        return out if self.units is None else self.units.values(k, out)

    def successors(self, k: int, values: np.ndarray) -> list[np.ndarray]:
        width = self.size(k)
        moved = [values[:width]] + [values[ranks[:width]] for ranks in self.succ]
        return [moved[j] for j in self.moves]

    def gathered(self) -> int:
        return len(self.succ)  # the free move is a view

    def origin(self, k: int) -> int:
        return 0

    def step(self, k: int, nodes: np.ndarray, moves: np.ndarray) -> np.ndarray:
        ranks = np.stack([nodes] + [succ[nodes] for succ in self.succ])
        return ranks[np.asarray(self.moves)[moves], np.arange(nodes.size)]


@dataclass(frozen=True, eq=False)
class SelectionPolicy:
    """Argmax (argmin, for a lower recursion) certificate: a measure index per node.

    ``choices[k][i]`` is the measure selected at step ``k`` at the i-th
    reachable node of level k of ``lattice``, in its node order; ties were
    broken toward the lowest index.  Picks are read-only, a byte each for up
    to 256 measures.  ``step_states[k]``, the values of those nodes, is
    derived from the lattice when read (8 bytes per state), not stored.
    """

    lattice: _Lattice
    choices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        picks = []
        for k, p in enumerate(self.choices):
            if not isinstance(p, np.ndarray) or p.flags.writeable:
                p = np.array(p)
                p.flags.writeable = False
            if p.dtype.kind not in "ui" or p.shape != (self.lattice.count(k),):
                raise ParameterError("choices must pick a measure at every state of their step")
            picks.append(p)
        object.__setattr__(self, "choices", tuple(picks))

    @property
    def horizon(self) -> int:
        return len(self.choices)

    @property
    def step_states(self) -> tuple[np.ndarray, ...]:
        return tuple(self.lattice.states(k) for k in range(self.horizon))

    def measure_at(self, step: int, state: float) -> int:
        """The measure picked at step ``step`` in the state of exactly this value."""
        if not 0 <= step < self.horizon:
            raise ParameterError(f"policy defines steps 0..{self.horizon - 1}, got {step}")
        at = np.flatnonzero(self.lattice.states(step) == float(state))
        if not at.size:
            raise ParameterError(f"state {float(state)!r} is not on the step-{step} lattice")
        return int(self.choices[step][at[0]])


def _merge(flat: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Sort values and fuse runs closer than ``tol``.

    Returns the representatives (first member of each run) and, for every
    input element, the index of its representative.
    """
    order = np.argsort(flat, kind="stable")
    sv = flat[order]
    new = np.empty(sv.size, dtype=bool)
    new[0] = True
    np.greater(np.diff(sv), tol, out=new[1:])
    gids = np.empty(sv.size, dtype=np.int64)
    gids[order] = np.cumsum(new) - 1
    return sv[new], gids


def _over_budget(what: str, held: int, step: int) -> CapacityError:
    return CapacityError(
        f"{what} would hold {held} bytes by step {step}, "
        f"past the budget of {CHAIN_BUDGET_BYTES} bytes"
    )


def _sweep_bytes(width: int, measures: int, gathered: int, words: int = _SWEEP_WORDS) -> int:
    """Bytes a sweep of a lattice holds beside it, from the ``width`` of its
    widest level: a candidate array per measure, ``gathered`` successor or
    index arrays and ``words`` working arrays (``_SWEEP_WORDS`` unless the
    caller derives fewer); 0 when ``measures`` is 0, for a lattice that is
    not swept."""
    return 8 * width * (measures + gathered + words) if measures else 0


def _held(lattice: _Lattice) -> int:
    """Bytes of the arrays ``lattice`` keeps."""
    groups = [v if isinstance(v, (list, tuple)) else [v] for v in vars(lattice).values()]
    return sum(a.nbytes for group in groups for a in group if isinstance(a, np.ndarray))


def _commensurable(offsets: np.ndarray, tol: float) -> _Units | None:
    """The exact integer form of ``offsets``, or None when their unit is at
    most ``tol``, too fine to tell nodes apart.  Generic floats land here:
    their 17-digit decimals share a unit near 1e-17."""
    exact = [Fraction(repr(float(x))) for x in offsets]
    den = math.lcm(*(f.denominator for f in exact))
    nums = [f.numerator * (den // f.denominator) for f in exact]
    lo_num = min(nums)
    unit_num = math.gcd(*(v - lo_num for v in nums)) or den
    if unit_num / den <= tol:
        return None
    shifts = tuple((v - lo_num) // unit_num for v in nums)
    common = math.gcd(lo_num, unit_num, den)
    return _Units(lo_num // common, unit_num // common, den // common, shifts)


def _reach_masks(shifts: np.ndarray, span: int, n: int) -> tuple[np.ndarray | None, ...]:
    """Reachability of levels 0..n up to the first full level k >= 1.

    Every later level is full too: it contains the previous one moved by the
    shifts 0 and ``span``, which overlap once a level is wider than ``span``.
    """
    masks: list[np.ndarray | None] = [None]
    reach = np.ones(1, dtype=bool)
    held = 0
    for k in range(1, n + 1):
        held += k * span + 1
        if held > CHAIN_BUDGET_BYTES:
            raise _over_budget(f"the reachability of a gapped {n}-step lattice", held, k)
        nxt = np.zeros(k * span + 1, dtype=bool)
        for s in set(shifts.tolist()):
            nxt[s : s + reach.size] |= reach
        if nxt.all():
            break
        masks.append(nxt)
        reach = nxt
    return tuple(masks)


def _dense_lattice(
    units: _Units, n: int, at_most: bool = False, measures: int = 0
) -> _IntLattice:
    """The dense integer lattice of ``units`` over levels 0..n, budgeted with
    a sweep over ``measures``; with ``at_most``, shift 0 is the zero offset
    that keeps shorter sums."""
    span = units.span
    shifts = np.array(units.shifts, dtype=np.intp)
    width = n * span + 1
    held = width * 8 * (1 + shifts.size) + _sweep_bytes(width, measures, 0)
    if held > CHAIN_BUDGET_BYTES:
        raise _over_budget(f"the widest level of a dense {n}-step lattice", held, n)
    masks = _reach_masks(shifts, span, n)
    if at_most:
        return _IntLattice(units, shifts[1:], int(shifts[0]), masks)
    return _IntLattice(units, shifts, 0, masks)


def _binomial(x: np.ndarray, m: int) -> np.ndarray:
    """``C(x + m, m)`` elementwise for nonnegative integers ``x``, exactly."""
    out = np.ones_like(x)
    for i in range(1, m + 1):
        out *= x + i
        out //= i  # out was C(x + i - 1, i - 1), so this divides exactly
    return out


def _tail_sums(e: int, n: int) -> list[np.ndarray]:
    """The suffix sums ``g_i = t_i + ... + t_e`` of every tail t of e counts
    with |t| <= n, one array per i, in rank order.

    Built from the last coordinate up: the tails of m coordinates are, for
    each g_1 = h in turn, h prepended to the tails of m-1 coordinates with
    |.| <= h, which are the first C(h+m-1, m-1) of them.
    """
    grades = np.arange(n + 1)
    sums: list[np.ndarray] = []
    for m in range(1, e + 1):
        counts = _binomial(grades, m - 1)
        rows = np.arange(int(counts.sum()))
        rows -= np.repeat(np.cumsum(counts) - counts, counts)
        sums = [np.repeat(grades, counts)] + [g[rows] for g in sums]
    return sums


def _composition_lattice(
    offsets: np.ndarray,
    n: int,
    at_most: bool = False,
    measures: int = 0,
    units: _Units | None = None,
) -> _CompositionLattice:
    """Levels 0..n of the k-draw multisets of ``offsets``, at least two of
    them distinct; with ``at_most``, offset 0 is the zero offset that keeps
    shorter sums.  With ``units``, ``offsets`` are its shifts as floats and
    the nodes are valued by it.

    Before anything is allocated, the bytes are projected from the C(n+e, e)
    nodes of level n: the suffix sums and row indices that build the ranks,
    or the grades, base values and successor ranks kept with the arrays a
    sweep over ``measures`` holds; past ``CHAIN_BUDGET_BYTES`` CapacityError
    is raised.
    """
    atoms: list[float] = []
    for x in offsets.tolist():
        if x not in atoms:
            atoms.append(x)
    e = len(atoms) - 1
    size = math.comb(n + e, e)
    held = 8 * size * (2 + e)
    projected = max(8 * size * (2 * e + 4), held + _sweep_bytes(size, measures, e))
    if projected > CHAIN_BUDGET_BYTES:
        what = f"the composition lattice of {n} steps over {e + 1} offsets"
        raise _over_budget(what, projected, n)
    sums = _tail_sums(e, n)
    base = np.zeros(size)
    for i, a in enumerate(atoms[1:]):
        base += (sums[i] - sums[i + 1] if i + 1 < e else sums[i]) * a
    width = math.comb(n - 1 + e, e)
    succ = []
    ranks = np.arange(width)
    for i in range(e):
        # rank(t) = sum_i C(g_i + e - i, e - i + 1), so raising g_1..g_j by one
        # adds sum_{i <= j} C(g_i + e - i, e - i)
        ranks = ranks + _binomial(sums[i][:width], e - 1 - i)
        succ.append(ranks)
    moves = tuple(atoms.index(x) for x in offsets.tolist())
    moves = moves[1:] if at_most else moves
    return _CompositionLattice(atoms[0], moves, sums[0], base, tuple(succ), units)


def _lattice(
    offsets: np.ndarray, n: int, at_most: bool = False, measures: int = 0
) -> _IntLattice | _CompositionLattice:
    """Levels 0..n of the k-step sums of ``offsets`` (sums of at most k steps
    when ``at_most``), budgeted with a sweep over ``measures`` (0: not swept).

    Commensurable offsets run on the dense integer lattice unless its levels
    would hold more nodes than there are k-draw multisets of the distinct
    offsets (few offsets over a wide span); then on the composition lattice
    of their integer shifts, which gives each sum the same value.  Other
    offsets, whose unit is at most ``MERGE_TOL``, and integer indices too
    wide for float64 run on the composition lattice of the offsets themselves.
    """
    if n < 0:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    grown = np.concatenate([np.zeros(1), offsets]) if at_most else offsets
    units = _commensurable(grown, MERGE_TOL)
    if units is None or n * units.span >= _EXACT_INT:
        return _composition_lattice(grown, n, at_most, measures)
    distinct = len(set(units.shifts))
    dense = units.span * n * (n + 1) // 2 + n  # nodes on levels 1..n
    if dense <= math.comb(n + distinct, distinct) - 1:  # multisets of 1..n draws
        return _dense_lattice(units, n, at_most, measures)
    shifts = np.array(units.shifts, dtype=float)
    return _composition_lattice(shifts, n, at_most, measures, units)


def sum_lattice(ambiguity: AmbiguitySet, step: int) -> SumLattice:
    """Reachable partial-sum states after ``step`` draws from the grid;
    states closer than ``MERGE_TOL`` are reported as one, the lowest."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    states, _ = _merge(_lattice(ambiguity.grid.array, step).states(step), MERGE_TOL)
    return SumLattice(step, tuple(states.tolist()))


def _sweep(
    weights: np.ndarray,
    lattice: _Lattice,
    n: int,
    values: np.ndarray,
    maximize: bool = True,
    stage: Callable[[int, np.ndarray], np.ndarray] | None = None,
    fixed: Callable[[int], np.ndarray] | None = None,
    with_picks: bool = False,
) -> Iterator[tuple[int, np.ndarray, np.ndarray | None]]:
    """The backward recursion: the only code that applies the one-step operator.

    From ``values`` on the nodes of level n, yields ``(k, V_k, picks)`` for
    k = n-1..0, where ``V_k(s) = max_theta sum_j theta_j V_{k+1}(succ_j(s))``
    (min if not ``maximize``), the successors coming from
    ``lattice.successors``; the products are summed in move order,
    elementwise.  ``picks``, the optimal measure indices with ties broken
    toward the lowest, are derived only ``with_picks`` (None otherwise).
    ``values`` may carry trailing columns, each swept independently.  Picks
    are of the smallest unsigned type that holds every measure index.
    For k >= 1, ``stage(k, V_k)`` replaces ``V_k`` (a stage cost added, or a
    column started).  With ``fixed(k)`` giving the picks of step k, the sweep
    evaluates that policy instead; replaying the optimal picks reproduces
    ``V_k`` bit for bit.
    """
    best = np.maximum if maximize else np.minimum
    for k in range(n - 1, -1, -1):
        succ = lattice.successors(k, values)
        scored = []
        for row in weights:
            acc = succ[0] * row[0]
            for nxt, w in zip(succ[1:], row[1:]):
                acc += nxt * w
            scored.append(acc)
        picks = None
        if fixed is not None:
            picks = fixed(k)
            values = np.take_along_axis(np.stack(scored, axis=-1), picks[..., None], -1)[..., 0]
        else:
            values = scored[0]
            for candidate in scored[1:]:
                values = best(values, candidate)  # a tie keeps the earlier measure's value
            if with_picks:
                last = len(scored) - 1
                picks = np.full(values.shape, last, dtype=np.min_scalar_type(last))
                for i in range(last - 1, -1, -1):
                    picks = np.where(scored[i] == values, i, picks)
        if stage is not None and k >= 1:
            values = stage(k, values)
        yield k, values, picks


def _chain_dp(
    ambiguity: AmbiguitySet,
    lattice: _Lattice,
    n: int,
    terminal: np.ndarray,
    maximize: bool = True,
    stage: Callable[[int], np.ndarray] | None = None,
    want_policy: bool = False,
    replay: SelectionPolicy | None = None,
) -> tuple[float, SelectionPolicy | None]:
    """The n-step recursion on ``lattice`` from ``terminal``, the values on the
    reachable states of level n; ``stage(k)``, values on the reachable states
    of level k, is added at every level k = 1..n.

    With a ``replay`` policy built on this lattice object, returns that
    policy's exact expected value (policy evaluation) instead of the optimum.
    A policy keeps one pick (a byte for up to 256 measures) per reachable
    node of levels 0..n-1 and no states; with the lattice and its sweep past
    ``CHAIN_BUDGET_BYTES``, it raises CapacityError before the sweep.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    if want_policy:
        # the policy fills up while the lattice and the sweep's arrays are held
        per_state = np.min_scalar_type(len(ambiguity.measures) - 1).itemsize
        held = per_state * sum(lattice.count(k) for k in range(n)) + _held(lattice)
        held += _sweep_bytes(lattice.size(n), len(ambiguity.measures), lattice.gathered())
        if held > CHAIN_BUDGET_BYTES:
            raise _over_budget(f"the selection policy of {n} steps", held, n - 1)
    fixed = None
    if replay is not None:
        if replay.horizon != n or replay.lattice is not lattice:
            raise ParameterError(f"the replayed policy is not built on this {n}-step lattice")
        fixed = lambda k: lattice.on_nodes(k, replay.choices[k])
    values = lattice.on_nodes(n, terminal)
    add_stage = None
    if stage is not None:
        add_stage = lambda k, v: v + lattice.on_nodes(k, stage(k))
        values = add_stage(n, values)
    choices: list[np.ndarray] = [np.empty(0, dtype=np.uint8)] * n
    for k, values, picks in _sweep(
        ambiguity.weight_matrix, lattice, n, values, maximize, add_stage, fixed, want_policy
    ):
        if want_policy:
            choices[k] = lattice.reachable(k, picks)
            choices[k].flags.writeable = False
    policy = SelectionPolicy(lattice, tuple(choices)) if want_policy else None
    return float(values[0]), policy


def _horizons_dp(
    ambiguity: AmbiguitySet,
    lattice: _Lattice,
    horizons: Sequence[int],
    terminal: Callable[[int], np.ndarray],
) -> np.ndarray:
    """Upper expectations for several horizons from one sweep of ``lattice``.

    ``terminal(n)`` gives the payoff on the reachable states of level n; for
    each n of the increasing ``horizons`` a column starts from it at level n,
    and level 0 holds every column's value, returned in horizon order.
    Before the sweep, the arrays of ``lattice`` and a sweep of its level
    with the most values, nodes times the columns alive there, gathering the
    lattice's successor arrays, are projected; past ``CHAIN_BUDGET_BYTES``
    CapacityError is raised.
    """
    top = horizons[-1]
    if horizons[0] < 1:
        raise ParameterError(f"horizons must be >= 1, got {horizons[0]}")
    alive = len(horizons) - np.searchsorted(horizons, np.arange(top + 1))
    widest = max(lattice.size(k) * int(columns) for k, columns in enumerate(alive))
    # of the _SWEEP_WORDS, a sweep that derives no picks and adds no stage
    # cost holds the level above, the running best with its predecessor and
    # a weighted successor, not the picks, their tie mask, the three stage
    # arrays or the slack word; starting a column adds the stacked copy of
    # the values.  A level's successors are gathered while the previous
    # level's are held
    words = _SWEEP_WORDS - 2 - 4 + 1
    gathered = 2 * lattice.gathered()
    held = _held(lattice) + _sweep_bytes(widest, len(ambiguity.measures), gathered, words)
    if held > CHAIN_BUDGET_BYTES:
        raise _over_budget(f"the sweep of {len(horizons)} horizons", held, top)
    starts = set(horizons)
    values = lattice.on_nodes(top, terminal(top))[:, None]

    def start(k: int, v: np.ndarray) -> np.ndarray:
        return np.column_stack([v, lattice.on_nodes(k, terminal(k))]) if k in starts else v

    for _, values, _ in _sweep(ambiguity.weight_matrix, lattice, top, values, stage=start):
        pass
    return values[0, ::-1]


def eval_sum_functional(
    ambiguity: AmbiguitySet,
    n: int,
    terminal: Callable[[np.ndarray], np.ndarray],
    maximize: bool = True,
) -> tuple[float, SelectionPolicy]:
    """Upper expectation of ``terminal(S_n)`` with its argmax selection policy;
    ``terminal`` maps the array of states of S_n to their values.

    With ``maximize=False``: the lower expectation and its argmin policy.
    """
    lattice = _lattice(ambiguity.grid.array, n, measures=len(ambiguity.measures))
    values = _on_states(terminal, lattice.states(n), "terminal")
    value, policy = _chain_dp(ambiguity, lattice, n, values, maximize, want_policy=True)
    assert policy is not None
    return value, policy


def eval_additive_functional(
    ambiguity: AmbiguitySet,
    n: int,
    stage_costs: Sequence[Callable[[np.ndarray], np.ndarray]],
) -> float:
    """Upper expectation of ``sum_{k=1..n} g_k(S_k)`` for per-step costs g_k,
    ``stage_costs[k-1]`` mapping the array of states of S_k to their g_k."""
    costs = list(stage_costs)
    if len(costs) != n:
        raise ParameterError(f"expected {n} stage costs, got {len(costs)}")
    lattice = _lattice(ambiguity.grid.array, n, measures=len(ambiguity.measures))
    stage = lambda k: _on_states(costs[k - 1], lattice.states(k), f"stage cost {k}")
    value, _ = _additive_dp(ambiguity, n, lattice, stage)
    return value


def _additive_dp(
    ambiguity: AmbiguitySet,
    n: int,
    lattice: _Lattice,
    stage: Callable[[int], np.ndarray],
    want_policy: bool = False,
    replay: SelectionPolicy | None = None,
) -> tuple[float, SelectionPolicy | None]:
    """The recursion of ``sum_{k=1..n} g_k(S_k)`` on the grid's ``lattice``, with
    ``stage(k)`` the values of g_k on the reachable states of level k."""
    zero = np.zeros(lattice.count(n))
    return _chain_dp(
        ambiguity, lattice, n, zero, stage=stage, want_policy=want_policy, replay=replay
    )


def capacity_sum_event(
    ambiguity: AmbiguitySet,
    n: int,
    predicate: Callable[[np.ndarray], np.ndarray],
    maximize: bool = True,
) -> float:
    """Upper capacity of ``{predicate(S_n)}``: the recursion with an indicator
    terminal, ``predicate``'s values on the array of states of S_n read by ``bool``.

    With ``maximize=False``: the lower capacity (min-recursion).
    """
    lattice = _lattice(ambiguity.grid.array, n, measures=len(ambiguity.measures))
    values = _on_states(predicate, lattice.states(n), "predicate", bool).astype(float)
    value, _ = _chain_dp(ambiguity, lattice, n, values, maximize)
    return min(1.0, max(0.0, value))


def _pair_merge(
    s: np.ndarray, m: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate (sum, runningmax) pairs quantized at resolution ``tol``."""
    ks = np.round(s / tol).astype(np.int64)
    km = np.round(m / tol).astype(np.int64)
    order = np.lexsort((km, ks))
    ks_s, km_s = ks[order], km[order]
    new = np.empty(ks_s.size, dtype=bool)
    new[0] = True
    new[1:] = (np.diff(ks_s) != 0) | (np.diff(km_s) != 0)
    gids = np.empty(ks_s.size, dtype=np.int64)
    gids[order] = np.cumsum(new) - 1
    keep = order[new]
    return s[keep], m[keep], gids


def _pair_chain(
    offsets: np.ndarray, n: int, tol: float, measures: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Running maxima per level and per-step maps of the merged (sum, running
    max) pairs, keeping a running byte total of what is stored: a step whose
    merge (``_PAIR_MERGE_BYTES`` per candidate pair) would take that total
    past ``CHAIN_BUDGET_BYTES`` raises CapacityError before it is built, and
    so does a level whose sweep over ``measures`` would."""
    s_cur, m_cur = np.zeros(1, dtype=offsets.dtype), np.zeros(1, dtype=offsets.dtype)
    levels, maps = [m_cur], []
    held = 0
    for k in range(1, n + 1):
        projected = held + s_cur.size * offsets.size * _PAIR_MERGE_BYTES
        if projected > CHAIN_BUDGET_BYTES:
            raise _over_budget(f"the merged pair lattice of {n} steps", projected, k)
        s_next = (s_cur[:, None] + offsets[None, :]).ravel()
        m_next = np.maximum(np.repeat(m_cur, offsets.size), np.abs(s_next))
        s_new, m_cur, gids = _pair_merge(s_next, m_next, tol)
        maps.append(gids.reshape(s_cur.size, offsets.size))
        levels.append(m_cur)
        s_cur = s_new
        held += s_cur.nbytes + m_cur.nbytes + gids.nbytes
        projected = held + _sweep_bytes(s_cur.size, measures, offsets.size)
        if projected > CHAIN_BUDGET_BYTES:
            raise _over_budget(f"the merged pair lattice of {n} steps", projected, k)
    return levels, maps


def _pair_lattice(offsets: np.ndarray, n: int, measures: int = 0) -> _MergedLattice:
    """Levels 0..n of the (sum, running max of |sum|) states of centered
    offsets on the pair chain, budgeted with a sweep over ``measures`` (0:
    not swept).  Commensurable offsets merge their integer shifts exactly,
    each maximum valued by ``units``; other offsets merge floats at
    ``MERGE_TOL``.
    """
    units = _commensurable(np.concatenate([np.zeros(1), offsets]), MERGE_TOL)
    if units is None or n * units.span >= _EXACT_INT:
        return _MergedLattice(*_pair_chain(offsets, n, MERGE_TOL, measures))
    shifts = np.array(units.shifts, dtype=np.int64)
    maxima, maps = _pair_chain(shifts[1:] - shifts[0], n, 1, measures)
    return _MergedLattice([units.values(0, m) for m in maxima], maps)


def eval_maxabs_functional(
    ambiguity: AmbiguitySet,
    n: int,
    phi: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Upper expectation of ``phi(max_{k<=n} |S~_k|)`` for a mean-certain set,
    ``phi`` mapping an array of running maxima to their values.

    Runs on the augmented state (centered sum, running max of its absolute
    value) on the pair chain, whose maps take about n^3 bytes in all; the
    chain raises CapacityError before it would pass ``CHAIN_BUDGET_BYTES``.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    mu = ambiguity.require_mean_certain("eval_maxabs_functional")
    lattice = _pair_lattice(ambiguity.grid.array - mu, n, len(ambiguity.measures))
    value, _ = _chain_dp(ambiguity, lattice, n, _on_states(phi, lattice.states(n), "phi"))
    return value


def eval_sumsq_functional(
    ambiguity: AmbiguitySet, n: int, phi: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Upper expectation of ``phi(sum_{k<=n} X~_k^2)`` for a mean-certain set,
    ``phi`` mapping an array of sums of squares to their values.

    The running sum of squared centered atoms forms its own lattice; the
    per-atom squared increments stay aligned with the measure weights.
    """
    mu = ambiguity.require_mean_certain("eval_sumsq_functional")
    lattice = _lattice((ambiguity.grid.array - mu) ** 2, n, measures=len(ambiguity.measures))
    value, _ = _chain_dp(ambiguity, lattice, n, _on_states(phi, lattice.states(n), "phi"))
    return value


def brute_force_oracle(
    ambiguity: AmbiguitySet,
    n: int,
    path_payoff: Callable[[np.ndarray], float],
) -> float:
    """Independent oracle: enumerate every history-dependent measure assignment.

    Every partial increment history of length < n is one decision node; an
    assignment picks a measure for each node and induces a path measure.
    The maximum expectation over all ``|measures| ** nodes`` assignments is
    returned; past ``_MAX_ASSIGNMENTS`` of them CapacityError is raised.
    Unlike the backward recursion this never interchanges max and
    expectation, which is exactly what makes it a useful oracle.
    """
    return _brute_force_many(ambiguity, n, [path_payoff])[0]


def _brute_force_many(
    ambiguity: AmbiguitySet, n: int, path_payoffs: Sequence[Callable[[np.ndarray], float]]
) -> list[float]:
    if not 1 <= n <= 4:
        raise CapacityError(f"brute force enumeration supports 1 <= n <= 4, got {n}")
    n_atoms = len(ambiguity.grid)
    n_meas = len(ambiguity.measures)
    n_nodes = sum(n_atoms**k for k in range(n))
    n_assign = n_meas**n_nodes
    if n_assign > _MAX_ASSIGNMENTS:
        raise CapacityError(
            f"{n_meas}^{n_nodes} = {n_assign} assignments exceed the budget {_MAX_ASSIGNMENTS}"
        )

    atoms = ambiguity.grid.array
    weights = ambiguity.weight_matrix
    depth_offset = [sum(n_atoms**j for j in range(k)) for k in range(n)]  # first node per depth

    # axis i of an assignment array is the measure picked at decision node i;
    # a single measure needs no axes
    axes = n_nodes if n_meas > 1 else 0
    totals = [np.zeros((n_meas,) * axes) for _ in path_payoffs]
    path = np.zeros(n)

    def walk(depth: int, prefix_code: int, prob: np.ndarray) -> None:
        node = depth_offset[depth] + prefix_code
        column = tuple(n_meas if axis == node else 1 for axis in range(axes))
        for a in range(n_atoms):
            branch = prob * weights[:, a].reshape(column)  # over the nodes on the path
            path[depth] = atoms[a]
            if depth + 1 == n:
                for total, payoff in zip(totals, path_payoffs):
                    total += float(payoff(path)) * branch
            else:
                walk(depth + 1, prefix_code * n_atoms + a, branch)

    walk(0, 0, np.ones(()))
    # walk refers to itself through its closure; dropping the name breaks that
    # cycle, so its arrays are freed now rather than at the next cyclic
    # garbage collection
    del walk
    return [float(t.max()) for t in totals]


def _sample_steps(
    ambiguity: AmbiguitySet,
    policy: SelectionPolicy,
    n: int,
    rng: np.random.Generator,
    n_paths: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance ``n_paths`` paths together, yielding ``(X_k, S_k)`` for k = 1..n.

    Every path carries its node on the policy's lattice, built on this grid.
    A step takes the measure picked at that node, inverts one uniform draw
    per path against its cumulative weights, and moves the node along the
    drawn atom; no state is looked up by value.  Callers that fold the
    yielded arrays into a running statistic hold O(n_paths) memory, whatever
    ``n``.
    """
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    if policy.horizon < n:
        raise ParameterError(f"policy covers {policy.horizon} steps, {n} were requested")
    lattice = policy.lattice
    atoms = ambiguity.grid.array
    first = lattice.states(1)  # the atoms, on the lattice of this grid
    if first.shape != atoms.shape or not np.allclose(first, atoms, 0.0, MERGE_TOL):
        raise ParameterError("the policy is not built on the lattice of this grid")
    cumw = np.cumsum(ambiguity.weight_matrix, axis=1)
    node = np.zeros(n_paths, dtype=np.intp)
    s = np.zeros(n_paths)
    for k in range(n):
        picks = lattice.on_nodes(k, policy.choices[k])[node]
        u = rng.random(n_paths)
        j = np.minimum(sum(column[picks] <= u for column in cumw.T), atoms.size - 1)
        x = atoms[j]
        s = s + x
        node = lattice.step(k, node, j)
        yield x, s


def sum_functional_series(
    ambiguity: AmbiguitySet,
    horizon: int,
    psi: Callable[[np.ndarray], np.ndarray],
    centered: bool = False,
    maximize: bool = True,
) -> np.ndarray:
    """Values of the recursion for a fixed terminal across all horizons 1..N.

    Because the sequence is i.i.d., the value with r remaining steps from
    state s is the same function U_r(s) at every calendar step, so one
    sweep of the one-step operator yields E-hat[psi(S_n)] (read at s = 0)
    for every n <= N.  ``psi`` maps an array of states to their values.  With
    ``centered=True`` the recursion runs on atoms shifted by the certified
    mean, producing functionals of the centered sums.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    offsets = ambiguity.grid.array
    if centered:
        offsets = offsets - ambiguity.require_mean_certain("sum_functional_series")

    # level j holds every sum of at most j offsets, so the origin stays on it
    lattice = _lattice(offsets, horizon, at_most=True, measures=len(ambiguity.measures))
    values = lattice.on_nodes(horizon, _on_states(psi, lattice.states(horizon), "psi"))
    out = np.empty(horizon)
    for k, values, _ in _sweep(ambiguity.weight_matrix, lattice, horizon, values, maximize):
        out[horizon - 1 - k] = values[lattice.origin(k)]
    return out
