"""Exact functionals of i.i.d. sequences under sublinear expectations.

Independence is realized computationally: the upper expectation of a
functional of ``S_n = X_1 + ... + X_n`` is the value of a backward
maximization over per-step measure choices from the ambiguity set,

    V_n(s) = phi(s),   V_k(s) = max_theta sum_j theta_j V_{k+1}(s + atom_j),

evaluated on a lattice of partial sums, one of two, whose every node is a
state.  The dense integer lattice serves commensurable offsets (decimals
whose differences are integer multiples of one unit, as on the canonical
grid) while its nodes do not outnumber the multisets of draws: a node is
an index, its value the correctly rounded exact sum, and successors are
slices.  All other offsets run on the composition lattice: a node is a
multiset of draws, ranked in the combinatorial number system, with
closed-form successor ranks computed once and sliced per level; it needs
no sort, no tolerance and no per-step maps.  On commensurable offsets it
counts the integer shifts and values a node as the dense lattice would.
A functional of the running maximum carries it as a trailing value axis
of a sum lattice: a node holds a value per running max.  One memory budget
admits every sweep before any of its levels exists: the lattice's bytes,
one sweep step's working arrays over its widest level of values and the
picks it keeps.  A brute-force enumerator of the expectation of *every*
history-dependent measure assignment is an independent oracle for this
recursion at small sizes, and an argmax policy extracted from the
recursion drives adversarial sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import AmbiguitySet, _on_states, _shifted
from .errors import CapacityError, ParameterError

#: Offsets whose common unit is at most this are not commensurable, and
#: ``sum_lattice`` reports states closer than this as one.
MERGE_TOL = 1e-9

#: Bytes one recursion may hold: its lattice, one sweep step's working arrays
#: over its widest level of values and the picks it keeps, checked by
#: ``_admit`` before any level exists.  Building a composition lattice is
#: checked against it too, for the temporaries that build it.
CHAIN_BUDGET_BYTES = 512 * 2**20

#: Bytes a kept array holds beside its data: the ndarray object (112 bytes
#: on 64-bit CPython) with its shape and strides, and the slot that keeps it.
_ARRAY_BYTES = 128

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
    steps, one per node, and ``successors(k, V)`` gives, per move, the values
    ``V`` holds on level k+1 at the successors of the nodes of level k;
    ``gathered()`` of those are new arrays, the others views.  ``states(k)``
    are the values of the nodes of level k, their sums, in node order.
    ``nbytes()`` are the bytes of the arrays it keeps, built or not."""

    def size(self, k: int) -> int:
        """The number of nodes of level k."""
        return self.states(k).size


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

    @cached_property
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
    takes node i to node ``i + moves[j]``.  On a gapped grid some nodes hold
    sums that k draws never reach; they carry values that no reached node
    reads, since every successor of a reached node is reached.
    """

    units: _Units
    moves: np.ndarray
    zero: int  # node shift of the zero offset of an at-most lattice

    def size(self, k: int) -> int:
        return k * self.units.span + 1

    def states(self, k: int) -> np.ndarray:
        return self.units.values(k, np.arange(self.size(k), dtype=float))

    def successors(self, k: int, values: np.ndarray) -> list[np.ndarray]:
        width = self.size(k)
        return [values[s : s + width] for s in self.moves]

    def gathered(self) -> int:
        return 0  # the successors are views

    def nbytes(self) -> int:
        return self.moves.nbytes

    def origin(self, k: int) -> int:
        return k * self.zero

    def step(self, k: int, nodes: np.ndarray, moves: np.ndarray) -> np.ndarray:
        """The nodes of level k+1 that ``moves`` take ``nodes`` of level k to."""
        return nodes + self.moves[moves]


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
    The states of a level are its node values in rank order.  With
    ``units``, the offsets are its integer shifts and a node is valued
    ``units.values(k, index)`` at its index sum, as on the dense lattice;
    distinct multisets of equal sum stay distinct nodes of equal value.  The
    grades, base values and successor ranks of levels 0..n are built on
    first use, so a sweep is admitted before they exist.
    """

    atoms: tuple[float, ...]  # a_0..a_e
    moves: tuple[int, ...]  # the offset index of each move, 0 the free one
    n: int
    units: _Units | None = None

    grade = property(lambda self: self._ranks[0])  # |t| by rank, levels 0..n
    base = property(lambda self: self._ranks[1])  # sum_i t_i a_i by rank, levels 0..n
    succ = property(lambda self: self._ranks[2])  # ranks of t + e_j by rank, levels 0..n-1

    @cached_property
    def _ranks(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
        e = len(self.atoms) - 1
        sums = _tail_sums(e, self.n)
        base = np.zeros(self.size(self.n))
        for i, a in enumerate(self.atoms[1:]):
            base += (sums[i] - sums[i + 1] if i + 1 < e else sums[i]) * a
        width = self.size(self.n - 1)
        succ = []
        ranks = np.arange(width)
        for i in range(e):
            # rank(t) = sum_i C(g_i + e - i, e - i + 1), so raising g_1..g_j by one
            # adds sum_{i <= j} C(g_i + e - i, e - i)
            ranks = ranks + _binomial(sums[i][:width], e - 1 - i)
            succ.append(ranks)
        return sums[0], base, tuple(succ)

    def size(self, k: int) -> int:
        return math.comb(k + len(self.atoms) - 1, len(self.atoms) - 1)

    def nbytes(self) -> int:
        return 8 * (2 * self.size(self.n) + self.gathered() * self.size(self.n - 1))

    def states(self, k: int) -> np.ndarray:
        width = self.size(k)
        out = (k - self.grade[:width]) * self.atoms[0]
        out += self.base[:width]
        return out if self.units is None else self.units.values(k, out)

    def successors(self, k: int, values: np.ndarray) -> list[np.ndarray]:
        width = self.size(k)
        moved = [values[:width]] + [values[ranks[:width]] for ranks in self.succ]
        return [moved[j] for j in self.moves]

    def gathered(self) -> int:
        return len(self.atoms) - 1  # the free move is a view

    def step(self, k: int, nodes: np.ndarray, moves: np.ndarray) -> np.ndarray:
        ranks = np.stack([nodes] + [succ[nodes] for succ in self.succ])
        return np.take_along_axis(ranks, np.asarray(self.moves)[moves][None], 0)[0]


@dataclass(frozen=True, eq=False)
class SelectionPolicy:
    """Argmax (argmin, for a lower recursion) certificate: a measure index per node.

    ``choices[k][i]`` is the measure selected at step ``k`` at node i of
    level k of ``lattice``, whose ``states(k)`` are their values; ties were
    broken toward the lowest index.  Picks are read-only, a byte each for up
    to 256 measures; no states are stored.
    """

    lattice: _Lattice
    choices: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        picks = []
        for k, p in enumerate(self.choices):
            if not isinstance(p, np.ndarray) or p.flags.writeable:
                p = np.array(p)
                p.flags.writeable = False
            if p.dtype.kind not in "ui" or p.shape != (self.lattice.size(k),):
                raise ParameterError("choices must pick a measure at every state of their step")
            picks.append(p)
        object.__setattr__(self, "choices", tuple(picks))

    @property
    def horizon(self) -> int:
        return len(self.choices)


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


def _over_budget(what: str, held: int) -> CapacityError:
    return CapacityError(
        f"{what} would hold {held} bytes, past the budget of {CHAIN_BUDGET_BYTES} bytes"
    )


def _admit(
    lattice: _Lattice,
    horizons: Sequence[int],
    measures: int,
    staged: bool = False,
    picks: bool = False,
    replay: bool = False,
    axis: np.ndarray | None = None,
) -> int:
    """The bytes a sweep of ``lattice`` holds, a column starting at each of
    the increasing ``horizons``; past ``CHAIN_BUDGET_BYTES`` CapacityError
    is raised.  Callers admit a sweep before any of its levels exists.

    The bytes are the lattice's own, built or not, and one step's working
    arrays over the widest level of values (nodes times the columns alive
    there).  Per value a step holds: a candidate per measure; the gathered
    successors of its level and of the previous one, which ``_sweep`` holds
    across its yield; four words, the level above, the running best with its
    predecessor and a weighted successor; a stacked copy when it starts
    columns; three words when ``staged``, a stage's states, its values and
    the staged sum; two words when it derives ``picks``, the picks and their
    tie mask, or a candidate per measure stacked to ``replay`` policies, a
    column each.  Either keeps one policy's pick per node of levels
    0..top-1, an array per level.
    A running-max ``axis`` gives every node a value per entry and column,
    and its stage three words more per value: the raised entries, the
    values they gather and the level's states with their entries.
    """
    top = horizons[-1]
    sizes = [lattice.size(k) for k in range(top + 1)]
    alive = len(horizons) - np.searchsorted(horizons, np.arange(top + 1))
    widest = max(size * columns for size, columns in zip(sizes, alive.tolist()))
    words = measures + 2 * lattice.gathered() + 4 + (len(horizons) > 1) + 3 * staged
    if axis is not None:
        widest *= axis.size
        words += 3
    held = lattice.nbytes()
    if picks or replay:
        words += measures if replay else 2
        held += _policy_bytes(sizes[:top], measures)
    held += 8 * widest * words
    if held > CHAIN_BUDGET_BYTES:
        what = "the selection policy" if picks or replay else "the sweep"
        if axis is not None:
            what += " of the (sum, running max) pair lattice"
        raise _over_budget(f"{what} of {top} steps, with its lattice and widest level,", held)
    return held


def _policy_bytes(sizes: Sequence[int], measures: int) -> int:
    """The bytes of a policy's picks on levels of ``sizes`` nodes: a pick of
    the smallest type that holds every measure index per node, an array per
    level."""
    per_node = np.min_scalar_type(measures - 1).itemsize
    return per_node * sum(sizes) + _ARRAY_BYTES * len(sizes)


def _admit_paths(lattice: _Lattice, n: int, measures: int, rows: int, n_paths: int) -> int:
    """The bytes of sampling ``n_paths`` paths of n steps for each of ``rows``
    policies (``_sample_steps``), one of them kept on ``lattice``; past
    ``CHAIN_BUDGET_BYTES`` CapacityError is raised.  Callers admit the paths
    before the first draw, and before the recursion that finds the policy.

    Beside the lattice and the kept policy, a path holds per row: its node,
    sum, uniform and pick; a step's atom index, drawn atom, new sum and new
    node, and a gathered cumulative weight with its comparison; the moved
    nodes of every gathered move; and the caller's running statistic with
    two temporaries.
    """
    words = 14 + 2 * lattice.gathered()
    picks = _policy_bytes([lattice.size(k) for k in range(n)], measures)
    held = lattice.nbytes() + picks + 8 * rows * n_paths * words
    if held > CHAIN_BUDGET_BYTES:
        raise _over_budget(f"{rows} x {n_paths} sampled paths of {n} steps", held)
    return held


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


def _dense_lattice(units: _Units, n: int, at_most: bool = False) -> _IntLattice:
    """The dense integer lattice of ``units`` over levels 0..n, which
    allocates no level; with ``at_most``, shift 0 is the zero offset that
    keeps shorter sums."""
    shifts = np.array(units.shifts, dtype=np.intp)
    if at_most:
        return _IntLattice(units, shifts[1:], int(shifts[0]))
    return _IntLattice(units, shifts, 0)


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
    offsets: np.ndarray, n: int, units: _Units | None = None
) -> _CompositionLattice:
    """Levels 0..n of the k-draw multisets of ``offsets``, at least two of
    them distinct.  With ``units``, ``offsets`` are its shifts as floats and
    the nodes are valued by it.

    Building the ranks, on first use, holds the suffix sums and row indices
    of the C(n+e, e) nodes of level n beside what it keeps; past
    ``CHAIN_BUDGET_BYTES`` CapacityError is raised here, before anything is
    allocated.
    """
    atoms = tuple(dict.fromkeys(offsets.tolist()))  # distinct, in order
    e = len(atoms) - 1
    built = 8 * math.comb(n + e, e) * (2 * e + 4)
    if built > CHAIN_BUDGET_BYTES:
        raise _over_budget(f"the composition lattice of {n} steps over {e + 1} offsets", built)
    return _CompositionLattice(atoms, tuple(atoms.index(x) for x in offsets.tolist()), n, units)


def _lattice(
    offsets: np.ndarray, n: int, at_most: bool = False
) -> _IntLattice | _CompositionLattice | None:
    """Levels 0..n of the k-step sums of ``offsets``.

    Commensurable offsets run on the dense integer lattice unless its levels
    would hold more nodes than there are k-draw multisets of the distinct
    offsets (few offsets over a wide span); then on the composition lattice
    of their integer shifts, which gives each sum the same value.  Other
    offsets, whose unit is at most ``MERGE_TOL``, and integer indices too
    wide for float64 run on the composition lattice of the offsets themselves.
    With ``at_most``, the sums of at most k steps (zero offset first) on the
    dense lattice, or None: on a composition lattice it would add a dimension.
    """
    if n < 0:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    grown = np.concatenate([np.zeros(1), offsets]) if at_most else offsets
    units = _commensurable(grown, MERGE_TOL)
    if units is None or n * units.span >= _EXACT_INT:
        return None if at_most else _composition_lattice(offsets, n)
    distinct = len(set(units.shifts))
    dense = units.span * n * (n + 1) // 2 + n  # nodes on levels 1..n
    if dense <= math.comb(n + distinct, distinct) - 1:  # multisets of 1..n draws
        return _dense_lattice(units, n, at_most)
    return None if at_most else _composition_lattice(np.array(units.shifts, float), n, units)


def sum_lattice(ambiguity: AmbiguitySet, step: int) -> SumLattice:
    """Reachable partial-sum states after ``step`` draws from the grid;
    states closer than ``MERGE_TOL`` are reported as one, the lowest.  Its
    states, reach masks and merge arrays are admitted as a sweep's words."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    lattice = _lattice(ambiguity.grid.array, step)
    _admit(lattice, (step,), 0)
    states = lattice.states(step)
    if isinstance(lattice, _IntLattice):
        # the nodes k draws reach, one level at a time; once a level k >= 1
        # is full, so is every later one: it holds the previous one moved by
        # the shifts 0 and span, which overlap
        reach = np.ones(1, dtype=bool)
        for k in range(1, step + 1):
            nxt = np.zeros(lattice.size(k), dtype=bool)
            for s in set(lattice.moves.tolist()):
                nxt[s : s + reach.size] |= reach
            reach = nxt
            if reach.all():
                break
        else:
            states = states[reach]
    states, _ = _merge(states, MERGE_TOL)
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
    column started).  With ``fixed(k)`` giving the picks of step k, a
    column per value column, the sweep evaluates those policies instead;
    replaying the optimal picks reproduces ``V_k`` bit for bit.
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
    terminal: Callable[[int], np.ndarray],
    maximize: bool = True,
    stage: Callable[[int], np.ndarray] | None = None,
    want_policy: bool = False,
    replay: Sequence[SelectionPolicy | int] = (),
) -> tuple[float | np.ndarray, SelectionPolicy | None]:
    """The n-step recursion on ``lattice`` from ``terminal(n)``, the values on
    the states of level n; ``stage(k)``, values on the states of level k, is
    added at every level k = 1..n.

    With ``replay`` policies, each built on this lattice object or a
    measure index that every node picks, returns their exact expected
    values (policy evaluation), an array in their order, instead of the
    optimum.  One sweep carries a value column per policy; step k's picks, a
    column per policy, are stacked when the sweep reaches it, so a constant
    policy keeps no picks.  A policy keeps one pick (a byte for up to 256
    measures) per node of levels 0..n-1 and no states.  The sweep is
    admitted (``_admit``) before the terminal is evaluated.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    kept = [p for p in replay if isinstance(p, SelectionPolicy)]
    if any(policy.horizon != n or policy.lattice is not lattice for policy in kept):
        raise ParameterError(f"the replayed policy is not built on this {n}-step lattice")
    measures = len(ambiguity.weight_matrix)
    columns = (n,) * max(len(replay), 1)
    _admit(lattice, columns, measures, stage is not None, want_policy, bool(replay))
    values = terminal(n)
    fixed = None
    lift = lambda costs: costs
    if replay:
        pick = np.min_scalar_type(measures - 1)

        def fixed(k: int) -> np.ndarray:
            picks = np.empty((lattice.size(k), len(replay)), dtype=pick)
            for i, policy in enumerate(replay):
                picks[:, i] = policy.choices[k] if isinstance(policy, SelectionPolicy) else policy
            return picks

        lift = lambda costs: costs[:, None]  # the same costs in every policy's column
        values = np.broadcast_to(lift(values), (values.size, len(replay)))
    add_stage = None
    if stage is not None:
        add_stage = lambda k, v: v + lift(stage(k))
        values = add_stage(n, values)
    choices: list[np.ndarray] = [np.empty(0, dtype=np.uint8)] * n
    for k, values, picks in _sweep(
        ambiguity.weight_matrix, lattice, n, values, maximize, add_stage, fixed, want_policy
    ):
        if want_policy:
            picks.flags.writeable = False
            choices[k] = picks
    if replay:
        return values[0], None
    policy = SelectionPolicy(lattice, tuple(choices)) if want_policy else None
    return float(values[0]), policy


def _maxima(lattice: _Lattice, top: int) -> np.ndarray:
    """The running-max axis of ``lattice``: the distinct |s| over the states
    of levels 0..top, ascending.  A sweep over it holds at least the nodes
    of level top per entry, so an axis whose entries alone would take those
    past ``CHAIN_BUDGET_BYTES`` raises CapacityError while it grows."""
    axis = np.zeros(1)
    for k in range(1, top + 1):
        axis = np.union1d(axis, np.abs(lattice.states(k)))
        held = 8 * lattice.size(top) * axis.size
        if held > CHAIN_BUDGET_BYTES:
            raise _over_budget(
                f"the (sum, running max) pair lattice of {top} steps, by step {k},", held
            )
    return axis


def _raise_maxima(
    lattice: _Lattice, axis: np.ndarray | None, k: int, values: np.ndarray
) -> np.ndarray:
    """``values`` of level k, a row per node, a row per entry m of the
    running-max ``axis`` within it and a column per horizon, with V(s, m)
    set to V(s, max(m, |s|)): the running max that the move to s leaves.  A
    state with m < |s|, which no path reaches, then holds its reached
    state's value.  Without an axis, ``values`` themselves."""
    if axis is None:
        return values
    at = np.searchsorted(axis, np.abs(lattice.states(k)))  # |s| is an entry
    raised = np.maximum(np.arange(axis.size), at[:, None])
    return np.take_along_axis(values, raised[..., None], axis=1)


def _horizons_dp(
    ambiguity: AmbiguitySet,
    lattice: _Lattice,
    horizons: Sequence[int],
    terminal: Callable[[int], np.ndarray],
    maximize: bool = True,
    axis: np.ndarray | None = None,
) -> np.ndarray:
    """Upper expectations for several horizons from one sweep of ``lattice``,
    admitted (``_admit``) before it runs; lower ones if not ``maximize``.

    ``terminal(n)`` gives the payoff on the states of level n, a row per
    node (and a column per entry of a running-max ``axis``, raised by
    ``_raise_maxima`` at every level); for each n of the increasing
    ``horizons`` a column starts from it at level n, and level 0 holds
    every column's value (at running max 0), returned in horizon order.
    """
    top = horizons[-1]
    if horizons[0] < 1:
        raise ParameterError(f"horizons must be >= 1, got {horizons[0]}")
    _admit(lattice, horizons, len(ambiguity.weight_matrix), axis=axis)
    starts = set(horizons)
    values = _raise_maxima(lattice, axis, top, terminal(top)[..., None])

    def stage(k: int, v: np.ndarray) -> np.ndarray:
        if k in starts:
            v = np.concatenate([v, terminal(k)[..., None]], axis=-1)
        return _raise_maxima(lattice, axis, k, v)

    for _, values, _ in _sweep(ambiguity.weight_matrix, lattice, top, values, maximize, stage):
        pass
    return values[0].reshape(-1, len(horizons))[0, ::-1]


def _series(
    ambiguity: AmbiguitySet,
    offsets: np.ndarray,
    horizons: Sequence[int],
    psi: Callable[[np.ndarray], np.ndarray],
    maximize: bool = True,
    running_max: bool = False,
) -> np.ndarray:
    """E-hat[psi(S_n)] for each n of the increasing ``horizons``, S_n the sum
    of n draws of ``offsets``; with ``running_max``, E-hat[psi(max_{k<=n}
    |S_k|)].  Lower expectations if not ``maximize``; ``psi`` maps an array
    of states (of running maxima) to their values.

    Because the sequence is i.i.d., the value with r remaining steps from
    state s is the same function U_r(s) at every calendar step, so one
    sweep of the one-step operator serves every horizon: at s = 0 of the
    dense lattice of sums of at most N draws, or else at level 0 of the
    k-draw lattice, a value column per horizon (``_horizons_dp``).  A running
    max m is a trailing value axis of the distinct |s| over levels 0..N
    (``_maxima``): each node holds V(s, m) for every m, ``_raise_maxima``
    applies the move's new maximum after every level, and level 0 is read
    at m = 0.
    """
    top = horizons[-1]
    if horizons[0] < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizons[0]}")
    # level j holds every sum of at most j offsets, so the origin stays on it
    lattice = _lattice(offsets, top, at_most=True)
    on_origin = lattice is not None
    if not on_origin:
        lattice = _lattice(offsets, top)
    if running_max:
        axis = _maxima(lattice, top)
        on_axis = _on_states(psi, axis, "payoff")
        payoff = lambda k: np.broadcast_to(on_axis, (lattice.size(k), axis.size))
    else:
        axis = None
        payoff = lambda k: _on_states(psi, lattice.states(k), "payoff")
    if not on_origin:
        return _horizons_dp(ambiguity, lattice, horizons, payoff, maximize, axis)
    _admit(lattice, (top,), len(ambiguity.weight_matrix), axis=axis)
    values = _raise_maxima(lattice, axis, top, payoff(top)[..., None])
    stage = lambda k, v: _raise_maxima(lattice, axis, k, v)
    out = np.empty(len(horizons))
    read = 0
    for k, values, _ in _sweep(ambiguity.weight_matrix, lattice, top, values, maximize, stage):
        if top - k == horizons[read]:
            out[read] = values[lattice.origin(k)].flat[0]  # at running max 0
            read += 1
    return out


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
    lattice = _lattice(ambiguity.grid.array, n)
    payoff = lambda k: _on_states(terminal, lattice.states(k), "terminal")
    value, policy = _chain_dp(ambiguity, lattice, n, payoff, maximize, want_policy=True)
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
    lattice = _lattice(ambiguity.grid.array, n)
    stage = lambda k: _on_states(costs[k - 1], lattice.states(k), f"stage cost {k}")
    value, _ = _additive_dp(ambiguity, n, lattice, stage)
    return value


def _additive_dp(
    ambiguity: AmbiguitySet,
    n: int,
    lattice: _Lattice,
    stage: Callable[[int], np.ndarray],
    want_policy: bool = False,
    replay: Sequence[SelectionPolicy | int] = (),
) -> tuple[float | np.ndarray, SelectionPolicy | None]:
    """The recursion of ``sum_{k=1..n} g_k(S_k)`` on the grid's ``lattice``, with
    ``stage(k)`` the values of g_k on the states of level k."""
    zero = lambda k: np.zeros(lattice.size(k))
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
    lattice = _lattice(ambiguity.grid.array, n)
    event = lambda k: _on_states(predicate, lattice.states(k), "predicate", bool).astype(float)
    value, _ = _chain_dp(ambiguity, lattice, n, event, maximize)
    return min(1.0, max(0.0, value))


def eval_maxabs_functional(
    ambiguity: AmbiguitySet,
    n: int,
    phi: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Upper expectation of ``phi(max_{k<=n} |S~_k|)`` for a mean-certain set,
    ``phi`` mapping an array of running maxima to their values.

    Runs on the lattice of sums of the set shifted by its mean (``_shifted``)
    with the running max of their absolute value as a trailing value axis
    (``_series``): a value per node and distinct |s| of levels 0..n, about
    2n^2 words of a dense level on the canonical grid.
    """
    centred = _shifted(ambiguity, ambiguity.require_mean_certain("eval_maxabs_functional"))
    return float(_series(centred, centred.grid.array, [n], phi, running_max=True)[0])


def eval_sumsq_functional(
    ambiguity: AmbiguitySet, n: int, phi: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Upper expectation of ``phi(sum_{k<=n} X~_k^2)`` for a mean-certain set,
    ``phi`` mapping an array of sums of squares to their values.

    The running sum of the squared atoms of the set shifted by its mean
    (``_shifted``) forms its own lattice; the per-atom squared increments
    stay aligned with the measure weights.
    """
    centred = _shifted(ambiguity, ambiguity.require_mean_certain("eval_sumsq_functional"))
    return float(_series(centred, centred.grid.array**2, [n], phi)[0])


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
    By the tower property each subtree's expectations, one per assignment of
    its nodes, are weighted into its parent's, the root's one root measure at
    a time.  Unlike the backward recursion this never interchanges max and
    expectation, which is exactly what makes it a useful oracle.
    """
    return _brute_force_many(ambiguity, n, [path_payoff])[0]


def _brute_force_many(
    ambiguity: AmbiguitySet, n: int, path_payoffs: Sequence[Callable[[np.ndarray], float]]
) -> list[float]:
    if not 1 <= n <= 4:
        raise CapacityError(f"brute force enumeration supports 1 <= n <= 4, got {n}")
    n_meas = len(ambiguity.weight_matrix)
    n_nodes = sum(len(ambiguity.grid) ** k for k in range(n))
    n_assign = n_meas**n_nodes
    if n_assign > _MAX_ASSIGNMENTS:
        raise CapacityError(
            f"{n_meas}^{n_nodes} = {n_assign} assignments exceed the budget {_MAX_ASSIGNMENTS}"
        )
    below = _subtrees(ambiguity, path_payoffs, np.zeros(n), 0)
    # one root measure's slice of the assignments at a time
    return np.max([_tower(r, below).max(axis=1) for r in ambiguity.weight_matrix], axis=0).tolist()


def _subtrees(
    ambiguity: AmbiguitySet, payoffs: Sequence[Callable], path: np.ndarray, depth: int
) -> list[np.ndarray]:
    """Per atom drawn at ``depth`` after ``path[:depth]``: each payoff's (row)
    expectation under each assignment (column) of measures to the nodes below."""
    out = []
    for x in ambiguity.grid.array:
        path[depth] = x
        if depth + 1 == path.size:
            out.append(np.array([[float(payoff(path))] for payoff in payoffs]))
        else:
            below = _subtrees(ambiguity, payoffs, path, depth + 1)
            out.append(np.hstack([_tower(row, below) for row in ambiguity.weight_matrix]))
    return out


def _tower(row: np.ndarray, below: list[np.ndarray]) -> np.ndarray:
    """A node's expectations under ``row``: ``sum_a row[a] * below[a]``, per choice of columns."""
    acc = row[0] * below[0]
    for w, subtree in zip(row[1:], below[1:]):
        acc = (acc[:, :, None] + w * subtree[:, None, :]).reshape(len(acc), -1)
    return acc


def _sample_steps(
    ambiguity: AmbiguitySet,
    policies: Sequence[SelectionPolicy | int],
    n: int,
    rngs: Sequence[np.random.Generator],
    n_paths: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance ``n_paths`` paths under each of ``policies`` together, yielding
    ``(X_k, S_k)``, a row per policy, for k = 1..n.

    A policy is a ``SelectionPolicy`` on the lattice of this grid, all of
    them on one lattice object, or a measure index that every step picks.
    Row i draws ``n_paths`` uniforms per step from ``rngs[i]``, so it is
    the path run of ``policies[i]`` alone with that generator, bit for bit.
    Every path carries its node on the lattice.  A step takes the measure
    picked at that node, counts the first J-1 cumulative weights of that
    measure at or below the path's uniform to draw atom j, and moves the
    node along it; no state is looked up by value.  Callers that fold the
    yielded arrays into a running statistic hold O(policies x n_paths)
    memory, whatever ``n`` (``_admit_paths``).
    """
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    kept = [(i, p) for i, p in enumerate(policies) if isinstance(p, SelectionPolicy)]
    if len(rngs) != len(policies):
        raise ParameterError(f"{len(policies)} policies need as many generators, got {len(rngs)}")
    if any(policy.horizon < n for _, policy in kept):
        raise ParameterError(f"a policy covers fewer than the {n} steps requested")
    atoms = ambiguity.grid.array
    lattice = kept[0][1].lattice if kept else None
    if lattice is not None:
        moves = np.arange(atoms.size)
        # on the lattice of this grid, move j takes the origin to the node of atom j
        if (
            any(policy.lattice is not lattice for _, policy in kept)
            or len(lattice.moves) != atoms.size
            or not np.allclose(
                lattice.states(1)[lattice.step(0, np.zeros_like(moves), moves)], atoms, 0.0,
                MERGE_TOL,
            )
        ):
            raise ParameterError("the policies are not built on the lattice of this grid")
    below = np.cumsum(ambiguity.weight_matrix, axis=1).T[:-1]  # the first J-1, by measure
    shape = (len(policies), n_paths)
    picks = np.empty(shape, dtype=np.intp)
    for i, policy in enumerate(policies):
        if not isinstance(policy, SelectionPolicy):
            picks[i] = policy
    node = np.zeros(shape, dtype=np.intp)
    s = np.zeros(shape)
    u = np.empty(shape)
    for k in range(n):
        for i, policy in kept:
            picks[i] = policy.choices[k][node[i]]
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        j = np.zeros(shape, dtype=np.intp)
        for column in below:
            j += np.take(column, picks) <= u
        x = np.take(atoms, j)
        s = s + x
        if lattice is not None:
            node = lattice.step(k, node, j)
        yield x, s


def sum_functional_series(
    ambiguity: AmbiguitySet,
    horizon: int,
    psi: Callable[[np.ndarray], np.ndarray],
    *,
    maximize: bool = True,
) -> np.ndarray:
    """Values of the recursion for a fixed terminal across all horizons 1..N,
    E-hat[psi(S_n)] for every n <= N from one sweep (``_series``).  ``psi``
    maps an array of states to their values.  A walk with drift, such as the
    centred sums S_n - n mu, is the series of the set with shifted atoms,
    ``AmbiguitySet.from_rows(grid.array - mu, weight_matrix)``.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    return _series(ambiguity, ambiguity.grid.array, range(1, horizon + 1), psi, maximize)
