"""Exact functionals of i.i.d. sequences under sublinear expectations.

Independence is realized computationally: the upper expectation of a
functional of ``S_n = X_1 + ... + X_n`` is the value of a backward
maximization over per-step measure choices from the ambiguity set,

    V_n(s) = phi(s),   V_k(s) = max_theta sum_j theta_j V_{k+1}(s + atom_j),

evaluated on the lattice of reachable partial sums.  A brute-force
enumerator over *all* history-dependent measure assignments provides an
independent oracle for this recursion at small sizes, and an argmax
policy extracted from the recursion drives adversarial path sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import AmbiguitySet, TabulatedPayoff
from .errors import CapacityError, DomainError, ParameterError

#: Partial-sum states closer than this are merged into one lattice node.
MERGE_TOL = 1e-9

#: Tolerance when locating a state on an already-built lattice.
LOOKUP_TOL = 1e-6


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


@dataclass(frozen=True)
class SelectionPolicy:
    """Argmax (argmin, for a lower recursion) certificate: a measure index per node.

    ``choices[k][i]`` is the measure selected at step ``k`` in state
    ``step_states[k][i]``; ties were broken toward the lowest index.
    """

    step_states: tuple[tuple[float, ...], ...]
    choices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.step_states) != len(self.choices):
            raise ParameterError("one choice vector is required per step")
        for states, picks in zip(self.step_states, self.choices):
            if len(states) != len(picks):
                raise ParameterError("choices must cover every state of their step")

    @property
    def horizon(self) -> int:
        return len(self.choices)

    @cached_property
    def _state_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(np.asarray(s, dtype=float) for s in self.step_states)

    def measure_at(self, step: int, state: float) -> int:
        if not 0 <= step < self.horizon:
            raise DomainError(f"policy defines steps 0..{self.horizon - 1}, got {step}")
        states = self._state_arrays[step]
        i = int(np.searchsorted(states, state))
        for j in (i - 1, i):
            if 0 <= j < states.size and abs(states[j] - state) <= LOOKUP_TOL:
                return self.choices[step][j]
        raise DomainError(f"state {state!r} is not on the step-{step} lattice")


@dataclass(frozen=True)
class PathSample:
    """One simulated increment path and its prefix sums."""

    increments: tuple[float, ...]
    partial_sums: tuple[float, ...]
    seed: int


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


def _build_chain(
    offsets: np.ndarray, n: int, tol: float = MERGE_TOL
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Lattices of k-step sums of ``offsets`` plus per-step transition maps.

    ``trans[k][i, a]`` is the index in lattice ``k+1`` of state
    ``lattices[k][i] + offsets[a]``.
    """
    lattices = [np.zeros(1)]
    trans: list[np.ndarray] = []
    for _ in range(n):
        cur = lattices[-1]
        cand = (cur[:, None] + offsets[None, :]).ravel()
        reps, gids = _merge(cand, tol)
        lattices.append(reps)
        trans.append(gids.reshape(cur.size, offsets.size))
    return lattices, trans


def sum_lattice(ambiguity: AmbiguitySet, step: int, tol: float = MERGE_TOL) -> SumLattice:
    """Reachable partial-sum states after ``step`` draws from the grid."""
    if step < 0:
        raise ParameterError(f"step must be >= 0, got {step}")
    lattices, _ = _build_chain(ambiguity.grid.array, step, tol)
    return SumLattice(step, tuple(float(s) for s in lattices[step]))


def _terminal_values(
    states: np.ndarray, terminal: TabulatedPayoff | Callable[[float], float]
) -> np.ndarray:
    if isinstance(terminal, TabulatedPayoff):
        idx = np.searchsorted(terminal.state_array, states)
        out = np.empty(states.size)
        for pos, (s, i) in enumerate(zip(states, idx)):
            for j in (i - 1, i):
                if 0 <= j < len(terminal.states) and abs(terminal.states[j] - s) <= LOOKUP_TOL:
                    out[pos] = terminal.values[j]
                    break
            else:
                raise DomainError(f"terminal payoff is missing reachable state {s!r}")
        return out
    return np.asarray([float(terminal(s)) for s in states], dtype=float)


def _sweep(
    weights: np.ndarray,
    trans: Sequence[np.ndarray],
    values: np.ndarray,
    maximize: bool = True,
    stage: Callable[[int], np.ndarray] | None = None,
    fixed: Callable[[int], np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The backward recursion: the only code that applies the one-step operator.

    From terminal ``values`` on the last lattice, yields ``(k, V_k, picks)`` for
    k = n-1..0, where ``V_k(s) = max_theta sum_j theta_j V_{k+1}(trans[k][s, j])``
    (min if not ``maximize``) and ``picks`` are the optimal measure indices,
    ties broken toward the lowest.  ``stage(k)`` is added to ``V_k`` for k >= 1.
    With ``fixed(k)`` giving the picks of step k, the sweep evaluates that
    policy instead; replaying the optimal picks reproduces ``V_k`` bit for bit.
    """
    for k in range(len(trans) - 1, -1, -1):
        scored = values[trans[k]] @ weights.T  # (states, measures)
        if fixed is not None:
            picks = fixed(k)
        else:
            picks = np.argmax(scored, axis=1) if maximize else np.argmin(scored, axis=1)
        values = scored[np.arange(scored.shape[0]), picks]
        if stage is not None and k >= 1:
            values = values + stage(k)
        yield k, values, picks


def _chain_dp(
    ambiguity: AmbiguitySet,
    n: int,
    terminal: TabulatedPayoff | Callable[[float], float],
    maximize: bool = True,
    want_policy: bool = False,
    stage_costs: Sequence[Callable[[float], float]] | None = None,
    offsets: np.ndarray | None = None,
    replay: SelectionPolicy | None = None,
) -> tuple[float, SelectionPolicy | None]:
    """The recursion on the k-step sums of ``offsets`` (default: the grid atoms).

    With a ``replay`` policy built on the same lattices, returns that policy's
    exact expected value (policy evaluation) instead of the optimum.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    lattices, trans = _build_chain(ambiguity.grid.array if offsets is None else offsets, n)
    fixed = None
    if replay is not None:
        if replay.horizon != n or not all(
            np.array_equal(replay.step_states[k], lattices[k]) for k in range(n)
        ):
            raise DomainError(f"the replayed policy is not built on this {n}-step lattice")
        fixed = lambda k: np.asarray(replay.choices[k], dtype=np.intp)
    values = _terminal_values(lattices[n], terminal)
    stage = None
    if stage_costs is not None:
        if len(stage_costs) != n:
            raise DomainError(f"expected {n} stage costs, got {len(stage_costs)}")
        stage = lambda k: _stage_values(lattices[k], stage_costs[k - 1], k)
        values = values + stage(n)
    choices: list[tuple[int, ...]] = [()] * n
    for k, values, picks in _sweep(ambiguity.weight_matrix, trans, values, maximize, stage, fixed):
        if want_policy:
            choices[k] = tuple(int(p) for p in picks)
    policy = None
    if want_policy:
        states = tuple(tuple(float(s) for s in lattices[k]) for k in range(n))
        policy = SelectionPolicy(states, tuple(choices))
    return float(values[0]), policy


def _stage_values(states: np.ndarray, cost: Callable[[float], float], step: int) -> np.ndarray:
    try:
        return np.asarray([float(cost(s)) for s in states], dtype=float)
    except TypeError as exc:
        raise DomainError(f"stage cost for step {step} is not evaluable") from exc


def eval_sum_functional(
    ambiguity: AmbiguitySet,
    n: int,
    terminal: TabulatedPayoff | Callable[[float], float],
    maximize: bool = True,
) -> tuple[float, SelectionPolicy]:
    """Upper expectation of ``terminal(S_n)`` with its argmax selection policy.

    With ``maximize=False``: the lower expectation and its argmin policy.
    """
    value, policy = _chain_dp(ambiguity, n, terminal, maximize, want_policy=True)
    assert policy is not None
    return value, policy


def eval_additive_functional(
    ambiguity: AmbiguitySet,
    n: int,
    stage_costs: Sequence[Callable[[float], float]],
) -> float:
    """Upper expectation of ``sum_{k=1..n} g_k(S_k)`` for per-step costs g_k."""
    value, _ = _additive_dp(ambiguity, n, stage_costs, want_policy=False)
    return value


def _additive_dp(
    ambiguity: AmbiguitySet,
    n: int,
    stage_costs: Sequence[Callable[[float], float]],
    want_policy: bool,
    replay: SelectionPolicy | None = None,
) -> tuple[float, SelectionPolicy | None]:
    return _chain_dp(
        ambiguity,
        n,
        lambda s: 0.0,
        want_policy=want_policy,
        stage_costs=list(stage_costs),
        replay=replay,
    )


def capacity_sum_event(
    ambiguity: AmbiguitySet,
    n: int,
    predicate: Callable[[float], bool],
    maximize: bool = True,
) -> float:
    """Upper capacity of ``{predicate(S_n)}``: the recursion with an indicator terminal.

    With ``maximize=False``: the lower capacity (min-recursion).
    """
    value, _ = _chain_dp(ambiguity, n, lambda s: 1.0 if predicate(s) else 0.0, maximize)
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


def eval_maxabs_functional(
    ambiguity: AmbiguitySet,
    n: int,
    phi: Callable[[float], float],
    max_horizon: int = 64,
) -> float:
    """Upper expectation of ``phi(max_{k<=n} |S~_k|)`` for a mean-certain set.

    Runs on the augmented state (centered sum, running max of its absolute
    value); the state count grows ~n^2, so the horizon is gated.
    """
    if n < 1:
        raise ParameterError(f"horizon must be >= 1, got {n}")
    if n > max_horizon:
        raise CapacityError(f"maxabs DP is gated to n <= {max_horizon}, got {n}")
    mu = ambiguity.require_mean_certain("eval_maxabs_functional")
    offsets = ambiguity.grid.array - mu

    s_states = [np.zeros(1)]
    m_states = [np.zeros(1)]
    trans: list[np.ndarray] = []
    for _ in range(n):
        s_cur, m_cur = s_states[-1], m_states[-1]
        s_next = (s_cur[:, None] + offsets[None, :]).ravel()
        m_next = np.maximum(np.repeat(m_cur, offsets.size), np.abs(s_next))
        s_reps, m_reps, gids = _pair_merge(s_next, m_next, MERGE_TOL)
        s_states.append(s_reps)
        m_states.append(m_reps)
        trans.append(gids.reshape(s_cur.size, offsets.size))

    values = np.asarray([float(phi(m)) for m in m_states[n]], dtype=float)
    for _, values, _ in _sweep(ambiguity.weight_matrix, trans, values):
        pass
    return float(values[0])


def eval_sumsq_functional(
    ambiguity: AmbiguitySet, n: int, phi: Callable[[float], float]
) -> float:
    """Upper expectation of ``phi(sum_{k<=n} X~_k^2)`` for a mean-certain set.

    The running sum of squared centered atoms forms its own lattice; the
    per-atom squared increments stay aligned with the measure weights.
    """
    mu = ambiguity.require_mean_certain("eval_sumsq_functional")
    value, _ = _chain_dp(ambiguity, n, phi, offsets=(ambiguity.grid.array - mu) ** 2)
    return value


def brute_force_oracle(
    ambiguity: AmbiguitySet,
    n: int,
    path_payoff: Callable[[np.ndarray], float],
    max_assignments: int = 10_000_000,
) -> float:
    """Independent oracle: enumerate every history-dependent measure assignment.

    Every partial increment history of length < n is one decision node; an
    assignment picks a measure for each node and induces a path measure.
    The maximum expectation over all ``|measures| ** nodes`` assignments is
    returned.  Unlike the backward recursion this never interchanges max
    and expectation, which is exactly what makes it a useful oracle.
    """
    return _brute_force_many(ambiguity, n, [path_payoff], max_assignments)[0]


def _brute_force_many(
    ambiguity: AmbiguitySet,
    n: int,
    path_payoffs: Sequence[Callable[[np.ndarray], float]],
    max_assignments: int = 10_000_000,
) -> list[float]:
    if not 1 <= n <= 4:
        raise CapacityError(f"brute force enumeration supports 1 <= n <= 4, got {n}")
    n_atoms = len(ambiguity.grid)
    n_meas = len(ambiguity.measures)
    n_nodes = sum(n_atoms**k for k in range(n))
    n_assign = n_meas**n_nodes
    if n_assign > max_assignments:
        raise CapacityError(
            f"{n_meas}^{n_nodes} = {n_assign} assignments exceed the budget {max_assignments}"
        )

    atoms = ambiguity.grid.array
    weights = ambiguity.weight_matrix
    depth_offset = [0]
    for k in range(1, n):
        depth_offset.append(depth_offset[-1] + n_atoms ** (k - 1))

    assign_ids = np.arange(n_assign, dtype=np.int64)
    totals = [np.zeros(n_assign) for _ in path_payoffs]
    path = np.zeros(n)

    def walk(depth: int, prefix_code: int, prob: np.ndarray) -> None:
        node = depth_offset[depth] + prefix_code
        radix = n_meas ** (n_nodes - 1 - node)
        selected = (assign_ids // radix) % n_meas  # measure index per assignment
        for a in range(n_atoms):
            branch = prob * weights[selected, a]
            path[depth] = atoms[a]
            if depth + 1 == n:
                for total, payoff in zip(totals, path_payoffs):
                    total += float(payoff(path)) * branch
            else:
                walk(depth + 1, prefix_code * n_atoms + a, branch)

    walk(0, 0, np.ones(n_assign))
    return [float(t.max()) for t in totals]


def _sample_steps(
    ambiguity: AmbiguitySet,
    policy: SelectionPolicy,
    n: int,
    rng: np.random.Generator,
    n_paths: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance ``n_paths`` paths together, yielding ``(X_k, S_k)`` for k = 1..n.

    Each step locates every path's partial sum on the policy's lattice, takes
    the selected measure, and inverts one uniform draw per path against its
    cumulative weights.  Callers that fold the yielded arrays into a running
    statistic hold O(n_paths) memory, whatever ``n``.
    """
    if n < 1:
        raise ParameterError(f"path length must be >= 1, got {n}")
    if policy.horizon < n:
        raise DomainError(f"policy covers {policy.horizon} steps, {n} were requested")
    atoms = ambiguity.grid.array
    cumw = np.cumsum(ambiguity.weight_matrix, axis=1)
    s = np.zeros(n_paths)
    for k in range(n):
        states = np.asarray(policy.step_states[k], dtype=float)
        hi = np.searchsorted(states, s)
        lo = np.maximum(hi - 1, 0)
        hi = np.minimum(hi, states.size - 1)
        use_lo = np.abs(states[lo] - s) <= LOOKUP_TOL
        found = use_lo | (np.abs(states[hi] - s) <= LOOKUP_TOL)
        if not found.all():
            state = float(s[np.argmin(found)])
            raise DomainError(f"state {state!r} is not on the step-{k} lattice")
        rows = cumw[np.asarray(policy.choices[k], dtype=np.intp)[np.where(use_lo, lo, hi)]]
        u = rng.random(n_paths)
        j = np.minimum(np.sum(rows <= u[:, None], axis=1), atoms.size - 1)
        x = atoms[j]
        s = s + x
        yield x, s


def sample_path(
    ambiguity: AmbiguitySet, policy: SelectionPolicy, n: int, seed: int
) -> PathSample:
    """Simulate ``n`` increments, drawing each step from the policy-selected measure.

    A batch of one path from ``default_rng(seed)``, one uniform draw per
    step: deterministic for a fixed seed.  Many paths are cheaper drawn as
    one batch from one generator, as ``sqs_empirical`` does per policy.
    """
    rng = np.random.default_rng(seed)
    steps = list(_sample_steps(ambiguity, policy, n, rng, 1))
    return PathSample(
        tuple(float(x[0]) for x, _ in steps), tuple(float(s[0]) for _, s in steps), seed
    )


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
    for every n <= N.  ``psi`` must accept an ndarray of states.  With
    ``centered=True`` the recursion runs on atoms shifted by the certified
    mean, producing functionals of the centered sums.
    """
    if horizon < 1:
        raise ParameterError(f"horizon must be >= 1, got {horizon}")
    offsets = ambiguity.grid.array
    if centered:
        offsets = offsets - ambiguity.require_mean_certain("sum_functional_series")

    # lattice j holds every sum of at most j offsets: column 0 of each map
    # is the zero offset, which keeps the origin reachable at every step
    lattices, trans = _build_chain(np.concatenate([np.zeros(1), offsets]), horizon)
    zero_at = [0]
    for step_map in trans[:-1]:
        zero_at.append(int(step_map[zero_at[-1], 0]))
    values = np.asarray(psi(lattices[horizon]), dtype=float)
    if values.shape != lattices[horizon].shape:
        raise DomainError("psi must map a state array to an equally shaped value array")
    out = np.empty(horizon)
    moves = [step_map[:, 1:] for step_map in trans]
    for k, values, _ in _sweep(ambiguity.weight_matrix, moves, values, maximize):
        out[horizon - 1 - k] = values[zero_at[k]]
    return out
