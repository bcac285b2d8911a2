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
`verify_lagrangian` measures the consistency law and judges nothing; the
suites compare its deviations with the scenario's `tolerances`.

A Lagrangian is stored extensionally, like an action weight: the
constructor takes one complex (npoints(T), |T|) table per admissible T, one
row per point in linear-index order and one column per time in frame order,
checks that every admissible subset has a finite table of that shape, and
keeps the tables read-only; every later consumer reads them.  Local
Lagrangians, where L_{T, alpha}(t) depends only on (t, alpha_t), call their
term once per grid entry and fill column t of each table by gathering those
values with the digits of the subset's points from `np.unravel_index`, so
they satisfy the consistency law by construction; explicit tables let tests
build counterexamples and watch the verifier measure their deviations.  The
empty subset has one point and a (1, 0) table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .dynamics import ActionWeight, _pair_max
from .errors import DataError, DomainError, StructureError
from .evolution import GridEvolutionSpace, GridFunction

__all__ = [
    "Lagrangian",
    "LagrangianReport",
    "action_from_lagrangian",
    "weight_from_lagrangian",
    "verify_lagrangian",
]


@dataclass(frozen=True, eq=False)
class Lagrangian:
    """One density table per admissible subset, stored extensionally."""

    space: GridEvolutionSpace
    tables: Mapping[frozenset, np.ndarray]

    def __post_init__(self):
        frame = self.space.frame
        given = {frozenset(k): v for k, v in dict(self.tables).items()}
        for subset in given:
            if not frame.is_admissible(subset):
                raise DomainError(f"density table on inadmissible subset {sorted(map(str, subset))}")
        tables = {}
        for subset in frame.admissible():
            name = sorted(map(str, subset))
            if subset not in given:
                raise StructureError(f"density table missing for admissible subset {name}")
            table = np.array(given[subset], dtype=np.complex128)
            expected = (self.space.npoints(subset), len(subset))
            if table.shape != expected:
                raise StructureError(f"density table of subset {name} has shape {table.shape}, expected {expected}")
            if not np.all(np.isfinite(table)):
                raise DataError(f"density table of subset {name} has non-finite values")
            table.setflags(write=False)
            tables[subset] = table
        object.__setattr__(self, "tables", tables)

    @classmethod
    def from_local(cls, space: GridEvolutionSpace, term: Callable) -> "Lagrangian":
        """Build from a per-time term(t, grid_index, grid_map) -> real, called once per grid entry."""
        frame = space.frame
        values = {
            t: np.array([term(t, index, space.map_at(t, index)) for index in range(space.grid_size(t))],
                        dtype=np.complex128)
            for t in frame.times
        }
        tables = {}
        for subset in frame.admissible():
            labels = frame.ordered(subset)
            table = tables[subset] = np.empty((space.npoints(subset), len(labels)), dtype=np.complex128)
            # one digit array per time of the subset; the empty subset has no column
            digits = np.unravel_index(np.arange(len(table)), space.shape(subset)) if labels else ()
            for column, (t, digit) in enumerate(zip(labels, digits)):
                table[:, column] = values[t][digit]
        return cls(space, tables)

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

    def table(self, subset) -> np.ndarray:
        """Densities over `subset`: one row per point, one column per time in frame order."""
        key = frozenset(subset)
        try:
            return self.tables[key]
        except KeyError:
            raise DomainError(f"subset {sorted(map(str, key))} is not admissible") from None


def action_from_lagrangian(lagrangian: Lagrangian, subset) -> GridFunction:
    """S_T(alpha) = sum over t in T of weight(t) * L_{T, alpha}(t).

    Columns are added into zeros in frame order, bit for bit a running sum.
    The empty subset gets the empty sum, identically zero; weight-zero times
    contribute exactly zero because the float product 0.0 * x is exact.
    """
    space = lagrangian.space
    frame = space.frame
    target = frozenset(subset)
    densities = lagrangian.table(target).real
    labels = frame.ordered(target)
    values = np.zeros(space.npoints(target), dtype=np.float64)
    for j, t in enumerate(labels):
        values += frame.weight(t) * densities[:, j]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(f"action is non-finite at point index {bad[0]} of subset {list(map(str, labels))}")
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
    """Max deviations of the consistency sweep."""

    restriction_deviation: float
    realness_deviation: float
    pairs: int


def verify_lagrangian(lagrangian: Lagrangian) -> LagrangianReport:
    """Measure restriction consistency and realness on every admissible subset.

    Every pair T' < T of the frame's `nested_pairs()` is compared on every
    full point: each table is pulled back once, a stack row per (subset,
    time) column, and one `_pair_max` reads (superset row, subset row) for
    each time of T'.  Realness is the largest imaginary part in any table.
    """
    space = lagrangian.space
    frame = space.frame
    columns = [np.empty((0, space.dimension))]
    realness = 0.0
    for subset in frame.admissible():
        table = lagrangian.table(subset)
        columns.append(table.real[space.restricted_index_array(subset)].T)
        realness = max(realness, float(np.max(np.abs(table.imag), initial=0.0)))
    member = np.unpackbits(frame._rows, axis=1, count=len(frame.times)).view(bool)
    # slot[i, p]: the stack row of subset i's time at frame position p, as the columns were stacked
    slot = np.cumsum(member).reshape(member.shape) - 1
    big, small = frame.nested_pairs().T
    pair, time = np.nonzero(member[small])
    shared = np.column_stack((slot[big[pair], time], slot[small[pair], time]))
    restriction = _pair_max(np.concatenate(columns), shared, np.subtract)
    return LagrangianReport(restriction, realness, len(big))
