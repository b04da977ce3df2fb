"""Sublinear expectation algebra on finite ambiguity sets.

An ambiguity set is a finite family of finitely supported probability
measures sharing one atom grid.  The upper expectation of a payoff is the
maximum of its linear expectations over the family; the lower expectation
is the conjugate ``-E[-X]``.  Because everything is finite, indicators and
arbitrary tabulated payoffs are admissible and every quantity is exactly
computable (up to double-precision round-off).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ParameterError

#: Absolute tolerance for scalar comparisons throughout the package.
ATOL = 1e-12


def _as_float_tuple(values: Iterable[float], field: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if not all(np.isfinite(out)):
        raise ParameterError(f"{field}: all entries must be finite, got {out}")
    return out


@dataclass(frozen=True)
class SupportGrid:
    """Ordered atoms a one-step random variable can take."""

    atoms: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _as_float_tuple(self.atoms, "atoms"))
        if len(self.atoms) == 0:
            raise ParameterError("atoms: grid must be nonempty")
        if any(b <= a for a, b in zip(self.atoms, self.atoms[1:])):
            raise ParameterError(f"atoms: must be strictly increasing, got {self.atoms}")

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.atoms, dtype=float)
        arr.flags.writeable = False
        return arr

    def index_of(self, atom: float) -> int:
        """Index of ``atom`` on the grid, within ``ATOL``; ParameterError otherwise."""
        i = int(np.searchsorted(self.array, atom))
        for j in (i - 1, i):
            if 0 <= j < len(self.atoms) and abs(self.atoms[j] - atom) <= ATOL:
                return j
        raise ParameterError(f"value {atom!r} is not an atom of the grid {self.atoms}")


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability weights aligned with a SupportGrid."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _as_float_tuple(self.weights, "weights"))
        if any(w < 0.0 for w in self.weights):
            raise ParameterError(f"weights: must be nonnegative, got {self.weights}")
        total = float(np.sum(self.weights))
        if abs(total - 1.0) > ATOL:
            raise ParameterError(f"weights: must sum to 1 within {ATOL}, got sum {total!r}")


@dataclass(frozen=True)
class TabulatedPayoff:
    """A real function given by its values on a finite, increasing state grid."""

    states: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", _as_float_tuple(self.states, "states"))
        object.__setattr__(self, "values", _as_float_tuple(self.values, "values"))
        if any(b <= a for a, b in zip(self.states, self.states[1:])):
            raise ParameterError("states: must be strictly increasing")
        if len(self.states) != len(self.values):
            raise ParameterError(
                f"states/values: length mismatch {len(self.states)} != {len(self.values)}"
            )

    @classmethod
    def from_callable(cls, states: Sequence[float], fn: Callable[[float], float]) -> "TabulatedPayoff":
        return cls(tuple(states), tuple(float(fn(s)) for s in states))

    @classmethod
    def constant(cls, states: Sequence[float], c: float) -> "TabulatedPayoff":
        return cls(tuple(states), (float(c),) * len(states))

    @cached_property
    def value_array(self) -> np.ndarray:
        arr = np.asarray(self.values, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def state_array(self) -> np.ndarray:
        arr = np.asarray(self.states, dtype=float)
        arr.flags.writeable = False
        return arr

    def __neg__(self) -> "TabulatedPayoff":
        return TabulatedPayoff(self.states, tuple(-v for v in self.values))


@dataclass(frozen=True)
class AmbiguitySet:
    """A finite family of measures on one grid; the carrier of the upper expectation."""

    grid: SupportGrid
    measures: tuple[FiniteMeasure, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "measures", tuple(self.measures))
        if len(self.measures) == 0:
            raise ParameterError("measures: family must be nonempty")
        for k, m in enumerate(self.measures):
            if len(m.weights) != len(self.grid):
                raise ParameterError(
                    f"measures[{k}]: {len(m.weights)} weights for a grid of {len(self.grid)} atoms"
                )

    @classmethod
    def from_rows(cls, atoms: Sequence[float], rows: Sequence[Sequence[float]]) -> "AmbiguitySet":
        return cls(SupportGrid(tuple(atoms)), tuple(FiniteMeasure(tuple(r)) for r in rows))

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Measure weights stacked as a (n_measures, n_atoms) array."""
        mat = np.asarray([m.weights for m in self.measures], dtype=float)
        mat.flags.writeable = False
        return mat

    @cached_property
    def per_measure_means(self) -> np.ndarray:
        arr = self.weight_matrix @ self.grid.array
        arr.flags.writeable = False
        return arr

    @cached_property
    def mean_interval(self) -> tuple[float, float]:
        means = self.per_measure_means
        return float(means.min()), float(means.max())

    @cached_property
    def is_mean_certain(self) -> bool:
        lo, hi = self.mean_interval
        return hi - lo <= ATOL

    @property
    def mean(self) -> float:
        """The certified common mean: the upper one-step mean of a mean-certain set."""
        return self.mean_interval[1]

    @cached_property
    def variance_interval(self) -> tuple[float, float]:
        # About the certified mean when mean-certain, else about each
        # measure's own mean (the two coincide in the mean-certain case).
        if self.is_mean_certain:
            centered = self.grid.array - self.mean
            second = self.weight_matrix @ (centered * centered)
        else:
            second = np.array(
                [
                    w @ ((self.grid.array - m) ** 2)
                    for w, m in zip(self.weight_matrix, self.per_measure_means)
                ]
            )
        return float(second.min()), float(second.max())

    def require_mean_certain(self, op: str) -> float:
        if not self.is_mean_certain:
            lo, hi = self.mean_interval
            raise ParameterError(
                f"{op}: ambiguity set is not mean-certain (per-measure means span [{lo}, {hi}])"
            )
        return self.mean


def _payoff_on_grid(ambiguity: AmbiguitySet, payoff: TabulatedPayoff) -> np.ndarray:
    if len(payoff.states) != len(ambiguity.grid) or np.max(
        np.abs(payoff.state_array - ambiguity.grid.array)
    ) > ATOL:
        raise ParameterError(
            "payoff states must coincide with the grid atoms "
            f"(payoff on {payoff.states}, grid {ambiguity.grid.atoms})"
        )
    return payoff.value_array


def upper_expect(ambiguity: AmbiguitySet, payoff: TabulatedPayoff) -> float:
    """Upper expectation: the maximum of E_P[payoff] over the measure family."""
    values = _payoff_on_grid(ambiguity, payoff)
    return float(np.max(ambiguity.weight_matrix @ values))


def lower_expect(ambiguity: AmbiguitySet, payoff: TabulatedPayoff) -> float:
    """Lower expectation ``-upper_expect(-payoff)``; never exceeds the upper one."""
    values = _payoff_on_grid(ambiguity, payoff)
    return -float(np.max(ambiguity.weight_matrix @ (-values)))


def indicator_payoff(grid: SupportGrid, event: Iterable[float]) -> TabulatedPayoff:
    """Indicator of a set of atoms, as a payoff on the grid."""
    values = [0.0] * len(grid)
    for atom in event:
        values[grid.index_of(atom)] = 1.0
    return TabulatedPayoff(grid.atoms, tuple(values))


def capacity_pair(ambiguity: AmbiguitySet, event: Iterable[float]) -> tuple[float, float]:
    """Upper and lower capacity (V, v) of a set of atoms.

    V is the upper expectation of the indicator.  v is computed as
    ``1 - V(complement)``, which equals the lower expectation of the
    indicator and keeps ``V(A) + v(A^c) = 1`` exact in floating point.
    """
    event_atoms = {ambiguity.grid.index_of(a) for a in event}
    ind = indicator_payoff(ambiguity.grid, [ambiguity.grid.atoms[i] for i in event_atoms])
    complement = TabulatedPayoff(ind.states, tuple(1.0 - v for v in ind.values))
    upper = upper_expect(ambiguity, ind)
    lower = 1.0 - upper_expect(ambiguity, complement)
    return upper, lower


def seminorm(ambiguity: AmbiguitySet, payoff: TabulatedPayoff, p: float) -> float:
    """The p-seminorm ``(upper_expect(|payoff|^p))**(1/p)`` for p >= 1."""
    if p < 1.0:
        raise ParameterError(f"seminorm order must satisfy p >= 1, got {p}")
    values = np.abs(_payoff_on_grid(ambiguity, payoff)) ** p
    moment = float(np.max(ambiguity.weight_matrix @ values))
    return moment ** (1.0 / p)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True)
class AxiomReport:
    """Result of checking the four defining properties of a sublinear expectation.

    Residuals follow the convention "violation > 0": inequality checks
    report their signed slack, equality checks their absolute defect.
    """

    monotonicity: AxiomCheck
    constant_preserving: AxiomCheck
    subadditivity: AxiomCheck
    positive_homogeneity: AxiomCheck
    tolerance: float

    @property
    def checks(self) -> tuple[AxiomCheck, ...]:
        return (
            self.monotonicity,
            self.constant_preserving,
            self.subadditivity,
            self.positive_homogeneity,
        )

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)


def axiom_report(
    ambiguity: AmbiguitySet,
    payoff_a: TabulatedPayoff,
    payoff_b: TabulatedPayoff,
    lam: float,
    c: float,
    tolerance: float = ATOL,
) -> AxiomReport:
    """Check monotonicity, constant preservation, sub-additivity and positive
    homogeneity of the upper expectation on a concrete pair of payoffs.

    Monotonicity is checked on (a, b) when a >= b pointwise; otherwise on the
    dominating pair (max(a, b), b) so the check is never vacuous.
    """
    if lam < 0.0:
        raise ParameterError(f"positive homogeneity requires lambda >= 0, got {lam}")
    va = _payoff_on_grid(ambiguity, payoff_a)
    vb = _payoff_on_grid(ambiguity, payoff_b)
    states = ambiguity.grid.atoms

    def eup(values: np.ndarray) -> float:
        return float(np.max(ambiguity.weight_matrix @ values))

    if np.all(va >= vb):
        hi, lo = va, vb
    else:
        hi, lo = np.maximum(va, vb), vb
    mono = eup(lo) - eup(hi)

    const = abs(eup(np.full(len(states), float(c))) - float(c))
    subadd = eup(va + vb) - (eup(va) + eup(vb))
    homog = abs(eup(lam * va) - lam * eup(va))

    def check(name: str, residual: float) -> AxiomCheck:
        return AxiomCheck(name, residual, residual <= tolerance)

    return AxiomReport(
        monotonicity=check("monotonicity", mono),
        constant_preserving=check("constant_preserving", const),
        subadditivity=check("subadditivity", subadd),
        positive_homogeneity=check("positive_homogeneity", homog),
        tolerance=tolerance,
    )


def canonical_set() -> AmbiguitySet:
    """The canonical test family: atoms {-1, 0, 1}, measures P_q(+-1) = q/2,
    P_q(0) = 1 - q for q in {1/2, 1}.

    Mean-certain with mean 0 and variance interval [1/2, 1]; the smallest
    family with genuine variance uncertainty and integer lattice sums.
    """
    return AmbiguitySet.from_rows(
        (-1.0, 0.0, 1.0),
        ((0.25, 0.5, 0.25), (0.5, 0.0, 0.5)),
    )
