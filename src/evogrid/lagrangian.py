"""Lagrangians: per-time densities that integrate to actions.

A Lagrangian assigns to each admissible subset T and each point alpha over T
a real function of the times in T.  The defining consistency law says the
assignment only ever looks at the coordinates it is given:

    L_{T, alpha}(t) = L_{T', alpha|_{T'}}(t)   for t in T' subset of T.

Summing against the time weights produces the action
S_T(alpha) = sum_{t in T} weight(t) * L_{T, alpha}(t), and the exponential
exp(i S_T) is an action weight: additivity of the sum over measure-disjoint
subsets gives the cocycle law, and weight-zero subsets contribute exactly
zero action, hence weight functions exactly one.  A two-point Lipschitz
estimate bounds action differences by the sup of the density difference
times the subset measure.  All three statements are suite checks.

Local Lagrangians, where L_{T, alpha}(t) depends only on (t, alpha_t),
satisfy the consistency law by construction; the general constructor exists
so that tests can build counterexamples and watch the verifier flag them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics import ActionWeight
from .errors import DataError, DomainError
from .evolution import GridEvolutionSpace, GridFunction, GridPoint
from .rng import SplitMix64

__all__ = [
    "Lagrangian",
    "LagrangianReport",
    "action_from_lagrangian",
    "weight_from_lagrangian",
    "verify_lagrangian",
]


@dataclass(frozen=True, eq=False)
class Lagrangian:
    """Evaluator (T, point over T, t in T) -> real density value."""

    space: GridEvolutionSpace
    evaluator: Callable[[frozenset, GridPoint, object], float]
    local: bool = False

    @classmethod
    def from_local(cls, space: GridEvolutionSpace, term: Callable) -> "Lagrangian":
        """Build from a per-time term(t, grid_index, grid_map) -> real."""

        def evaluator(subset: frozenset, point: GridPoint, t) -> float:
            index = point.index_at(t)
            return term(t, index, space.map_at(t, index))

        return cls(space, evaluator, local=True)

    @classmethod
    def from_table(cls, space: GridEvolutionSpace, table: Mapping) -> "Lagrangian":
        """Build from explicit per-(time, grid index) values."""
        frozen = {t: tuple(float(v) for v in row) for t, row in dict(table).items()}
        for t in space.frame.times:
            if t not in frozen or len(frozen[t]) != space.grid_size(t):
                raise DomainError(f"table must list one value per grid entry at time {t!r}")

        def term(t, index, _map):
            return frozen[t][index]

        return cls.from_local(space, term)

    def evaluate(self, subset, point: GridPoint, t) -> float:
        target = frozenset(subset)
        if point.subset != target:
            raise DomainError("point lies over a different subset")
        if t not in target:
            raise DomainError(f"time {t!r} is not in the evaluated subset")
        raw = self.evaluator(target, point, t)
        value = complex(raw)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DataError(f"density evaluator returned non-finite value at time {t!r}")
        return value.real


def action_from_lagrangian(lagrangian: Lagrangian, subset) -> GridFunction:
    """S_T(alpha) = sum over t in T of weight(t) * L_{T, alpha}(t).

    The empty subset gets the empty sum, identically zero; weight-zero times
    contribute exactly zero because the float product 0.0 * x is exact.
    """
    space = lagrangian.space
    frame = space.frame
    target = frozenset(subset)
    if not frame.is_admissible(target):
        raise DomainError(f"subset {sorted(map(str, target))} is not admissible")
    labels = frame.ordered(target)
    points = space.enumerate_points(target)
    values = np.zeros(len(points), dtype=np.float64)
    for k, alpha in enumerate(points):
        total = 0.0
        for t in labels:
            density = lagrangian.evaluate(target, alpha, t)
            total += frame.weight(t) * density
        if not math.isfinite(total):
            raise DataError(f"action is non-finite at point index {k} of subset {list(map(str, labels))}")
        values[k] = total
    return GridFunction(space, target, values)


def weight_from_lagrangian(lagrangian: Lagrangian) -> ActionWeight:
    """Exponentiate: u_T = exp(i S_T), one unimodular function per admissible subset."""
    space = lagrangian.space
    functions = {
        subset: GridFunction(space, subset, np.exp(1j * action_from_lagrangian(lagrangian, subset).values))
        for subset in space.frame.admissible()
    }
    return ActionWeight(space, functions)


@dataclass(frozen=True)
class LagrangianReport:
    """Outcome of the consistency sweep."""

    restriction_deviation: float
    realness_deviation: float
    evaluations: int
    sampled: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.restriction_deviation, self.realness_deviation) <= self.tolerance


def verify_lagrangian(
    lagrangian: Lagrangian,
    tol: float = 1e-12,
    budget: int = 10_000,
    seed: int = 0,
) -> LagrangianReport:
    """Check restriction consistency and realness across admissible subsets.

    Every admissible pair T' subset of T is swept; within a pair, all points
    over T are used when the total evaluation count stays inside `budget`,
    otherwise a seeded sample of points is drawn per pair.
    """
    space = lagrangian.space
    frame = space.frame
    domain = frame.admissible()
    pairs = [
        (big, small)
        for big in domain
        for small in domain
        if small < big and len(small) > 0
    ]
    total = sum(space.npoints(big) * len(small) for big, small in pairs)
    sampled = total > budget
    rng = SplitMix64(seed)

    restriction = 0.0
    realness = 0.0
    evaluations = 0
    for big, small in pairs:
        n_big = space.npoints(big)
        if sampled:
            per_pair = max(1, budget // max(1, len(pairs)))
            indices = [rng.integer(n_big) for _ in range(min(per_pair, n_big))]
        else:
            indices = range(n_big)
        for k in indices:
            alpha = space.point_from_index(big, k)
            beta = space.restrict_point(alpha, small)
            for t in frame.ordered(small):
                raw = complex(lagrangian.evaluator(big, alpha, t))
                realness = max(realness, abs(raw.imag))
                other = lagrangian.evaluate(small, beta, t)
                restriction = max(restriction, abs(raw.real - other))
                evaluations += 1
    return LagrangianReport(restriction, realness, evaluations, sampled, tol)
