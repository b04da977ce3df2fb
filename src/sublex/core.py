"""Sublinear expectation algebra on finite ambiguity sets.

An ambiguity set is one atom grid and one weight matrix, a row of
probability weights per measure, checked once by the array checks the
batched axiom runs share.  The upper expectation of a payoff is the
maximum of its linear expectations over the rows; the lower expectation
is the conjugate ``-E[-X]``.  A payoff, and an event's predicate, is a
function of the whole array of atoms, applied once by ``_on_states``: the
rule for every payoff in the package.  Because everything is finite, every
quantity is exactly computable (up to double-precision round-off).
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

#: Absolute tolerance for scalar comparisons throughout the package.
ATOL = 1e-12


@dataclass(frozen=True)
class SupportGrid:
    """Ordered atoms a one-step random variable can take; the ambiguity set
    that holds the grid checks them."""

    atoms: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(map(float, self.atoms)))

    def __len__(self) -> int:
        return len(self.atoms)

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.atoms, dtype=float)
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True, eq=False)
class AmbiguitySet:
    """A finite family of probability measures on one grid, the carrier of the
    upper expectation: row k of the read-only ``weight_matrix`` (measures x
    atoms) holds measure k's weights.  Checked once, on construction, by
    ``_check_stacked``."""

    grid: SupportGrid
    weight_matrix: np.ndarray

    def __post_init__(self) -> None:
        weights = np.array(self.weight_matrix, dtype=float)
        if len(self.grid) == 0:
            raise ParameterError("atoms: grid must be nonempty")
        if weights.ndim != 2 or len(weights) == 0:
            raise ParameterError("measures: family must be nonempty, one row per measure")
        if weights.shape[1] != len(self.grid):
            raise ParameterError(
                f"measures: {weights.shape[1]} weights for a grid of {len(self.grid)} atoms"
            )
        _check_stacked(self.grid.array[None], weights[None])
        weights.flags.writeable = False
        object.__setattr__(self, "weight_matrix", weights)

    @classmethod
    def from_rows(cls, atoms: Sequence[float], rows: Sequence[Sequence[float]]) -> "AmbiguitySet":
        """The set with one measure per row of weights on ``atoms``."""
        grid = SupportGrid(atoms)
        for k, row in enumerate(rows):
            if len(row) != len(grid):
                raise ParameterError(
                    f"measures[{k}]: {len(row)} weights for a grid of {len(grid)} atoms"
                )
        return cls(grid, np.array(rows, dtype=float).reshape(len(rows), len(grid)))

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


def _shifted(ambiguity: AmbiguitySet, c: float) -> AmbiguitySet:
    """The same weights on the atoms ``grid.array - c``, the steps of the walk
    S_n - nc; ParameterError if the shift rounds two atoms to one value."""
    try:
        return AmbiguitySet.from_rows(ambiguity.grid.array - c, ambiguity.weight_matrix)
    except ParameterError as exc:
        raise ParameterError(f"atoms {ambiguity.grid.atoms} shifted by {c}: {exc}") from exc


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


#: The four defining properties, in the order ``AxiomReport`` holds them.
_AXIOMS = ("monotonicity", "constant_preserving", "subadditivity", "positive_homogeneity")


@dataclass(frozen=True)
class AxiomReport:
    """The residuals of the four defining properties of a sublinear
    expectation, each passing within ``ATOL``.

    Residuals follow the convention "violation > 0": inequality checks
    report their signed slack, equality checks their absolute defect.
    """

    monotonicity: float
    constant_preserving: float
    subadditivity: float
    positive_homogeneity: float

    @property
    def all_pass(self) -> bool:
        return all(r <= ATOL for r in astuple(self))

    @property
    def max_residual(self) -> float:
        return max(astuple(self))


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
    return AxiomReport(*residuals.tolist())


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
    """The checks of every ``AmbiguitySet``, on T stacked instances: atoms
    (T, A) finite and strictly increasing, weights (T, M, A) finite and
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
