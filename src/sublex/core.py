"""Sublinear expectation algebra on finite ambiguity sets.

An ambiguity set is a finite family of finitely supported probability
measures sharing one atom grid.  The upper expectation of a payoff is the
maximum of its linear expectations over the family; the lower expectation
is the conjugate ``-E[-X]``.  A payoff, and an event's predicate, is a
function of the whole array of atoms, applied once by ``_on_states``: the
rule for every payoff in the package.  Because everything is finite, every
quantity is exactly computable (up to double-precision round-off).
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


def _on_states(
    payoff: Callable[[np.ndarray], np.ndarray], states: np.ndarray, what: str, dtype: type = float
) -> np.ndarray:
    """The values of ``payoff`` on ``states`` from one call on the whole array,
    the convention of every payoff in the package, broadcast to its shape as
    ``dtype`` (so a constant serves); ParameterError if ``payoff`` cannot
    take an array or its values do not broadcast."""
    try:
        return np.broadcast_to(np.asarray(payoff(states), dtype=dtype), states.shape)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{what} must map an array of states to values of its shape") from exc


def _upper(ambiguity: AmbiguitySet, values: np.ndarray) -> float:
    return float(np.max(ambiguity.weight_matrix @ values))


def upper_expect(ambiguity: AmbiguitySet, payoff: Callable[[np.ndarray], np.ndarray]) -> float:
    """Upper expectation: the maximum of E_P[payoff] over the measure family,
    ``payoff`` mapping the array of atoms to its values."""
    return _upper(ambiguity, _on_states(payoff, ambiguity.grid.array, "payoff"))


def lower_expect(ambiguity: AmbiguitySet, payoff: Callable[[np.ndarray], np.ndarray]) -> float:
    """Lower expectation ``-upper_expect(-payoff)``; never exceeds the upper one."""
    return -_upper(ambiguity, -_on_states(payoff, ambiguity.grid.array, "payoff"))


def capacity_pair(
    ambiguity: AmbiguitySet, event: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Upper and lower capacity (V, v) of the atoms where ``event``, a
    predicate on the array of atoms read by ``bool``, holds.

    V is the upper expectation of the indicator.  v is computed as
    ``1 - V(complement)``, which equals the lower expectation of the
    indicator and keeps ``V(A) + v(A^c) = 1`` exact in floating point.
    """
    mask = _on_states(event, ambiguity.grid.array, "event", bool)
    return _upper(ambiguity, mask.astype(float)), 1.0 - _upper(ambiguity, (~mask).astype(float))


def seminorm(
    ambiguity: AmbiguitySet, payoff: Callable[[np.ndarray], np.ndarray], p: float
) -> float:
    """The p-seminorm ``(upper_expect(|payoff|^p))**(1/p)`` for p >= 1."""
    if p < 1.0:
        raise ParameterError(f"seminorm order must satisfy p >= 1, got {p}")
    values = np.abs(_on_states(payoff, ambiguity.grid.array, "payoff")) ** p
    return _upper(ambiguity, values) ** (1.0 / p)


#: The four defining properties, in the order ``AxiomReport`` checks them.
_AXIOMS = ("monotonicity", "constant_preserving", "subadditivity", "positive_homogeneity")


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
        return tuple(getattr(self, name) for name in _AXIOMS)

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)


def axiom_report(
    ambiguity: AmbiguitySet,
    payoff_a: Callable[[np.ndarray], np.ndarray],
    payoff_b: Callable[[np.ndarray], np.ndarray],
    lam: float,
    c: float,
) -> AxiomReport:
    """Check monotonicity, constant preservation, sub-additivity and positive
    homogeneity of the upper expectation on a concrete pair of payoffs, each
    residual against ``ATOL``.

    Monotonicity is checked on (a, b) when a >= b pointwise; otherwise on the
    dominating pair (max(a, b), b) so the check is never vacuous.
    """
    if lam < 0.0:
        raise ParameterError(f"positive homogeneity requires lambda >= 0, got {lam}")
    va = _on_states(payoff_a, ambiguity.grid.array, "payoff_a")
    vb = _on_states(payoff_b, ambiguity.grid.array, "payoff_b")
    scalars = np.array([[lam], [c]], dtype=float)
    residuals = _axiom_residuals(ambiguity.weight_matrix[None], va[None], vb[None], *scalars)[0]
    checks = [AxiomCheck(name, r, r <= ATOL) for name, r in zip(_AXIOMS, residuals.tolist())]
    return AxiomReport(*checks, tolerance=ATOL)


def _upper_many(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Upper expectations of T instances of one shape at once: ``weights``
    (T, M, A) their stacked measure weights, ``values`` (T, A) a payoff each.

    Each instance's product is the matrix-vector product ``upper_expect``
    makes, bit for bit.  Padding the atoms or stacking payoffs as columns
    would change the BLAS call and with it the low bits.
    """
    return np.matmul(weights, values[..., None])[..., 0].max(axis=1)


def _axiom_residuals(
    weights: np.ndarray, va: np.ndarray, vb: np.ndarray, lam: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """The residuals of the ``_AXIOMS`` of T stacked instances, (T, 4): payoffs
    ``va``, ``vb`` (T, A), scalars ``lam``, ``c`` (T,), conventions as in
    ``AxiomReport``."""
    eup = lambda values: _upper_many(weights, values)
    hi = np.where(np.all(va >= vb, axis=1, keepdims=True), va, np.maximum(va, vb))
    ea, eb = eup(va), eup(vb)
    mono, subadd = eb - eup(hi), eup(va + vb) - (ea + eb)
    const = np.abs(eup(np.repeat(c[:, None], va.shape[1], axis=1)) - c)
    return np.column_stack([mono, const, subadd, np.abs(eup(lam[:, None] * va) - lam * ea)])


def _check_stacked(atoms: np.ndarray, weights: np.ndarray) -> None:
    """The checks ``AmbiguitySet.from_rows`` makes, on T stacked instances:
    atoms (T, A) finite and strictly increasing, weights (T, M, A) finite and
    nonnegative, each measure summing to 1 within ``ATOL``."""
    if not (np.isfinite(atoms).all() and np.isfinite(weights).all()):
        raise ParameterError("atoms, weights: all entries must be finite")
    if np.any(atoms[:, 1:] <= atoms[:, :-1]):
        raise ParameterError("atoms: must be strictly increasing")
    if np.any(weights < 0.0):
        raise ParameterError("weights: must be nonnegative")
    if np.any(np.abs(weights.sum(axis=2) - 1.0) > ATOL):
        raise ParameterError(f"weights: must sum to 1 within {ATOL}")


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
