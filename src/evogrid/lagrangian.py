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

A Lagrangian is stored extensionally, like an action weight, in one
read-only flat buffer of densities: for each admissible T in `admissible()`
order, its complex (npoints(T), |T|) table in row-major order, one row per
point in linear-index order and one column per time in frame order, so
`table(T)` is a C-contiguous view.  The constructor takes one table per
admissible T, checks that every admissible subset has a table of that shape
and flattens them; local Lagrangians fill the buffer directly, and both
reach one storage path that checks it is finite.  Local Lagrangians, where
L_{T, alpha}(t) depends only on (t, alpha_t), call their term once per grid
entry and write time t's values with one scatter into t's column of every
subset holding it, by each point's digit along t's axis, the mixed-radix
digit `np.unravel_index` gives, so they satisfy the consistency law by
construction; explicit tables let tests build counterexamples and watch the
verifier measure their deviations.  The empty subset has one point and a
(1, 0) table.

The actions of all admissible subsets are one flat family table
(`GridEvolutionSpace.family_offsets`), `Lagrangian.actions`, formed at
first read by one running sum over the times in frame order: time t adds
weight(t) times its density to the action of every point of every subset
holding t, which for each point is its subset's frame-ordered sum into
zeros.
`weight_from_lagrangian` exponentiates that table once, and the suites'
action laws read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

from .dynamics import ActionWeight, _chunk_rows, _pair_max
from .errors import DataError, DomainError, StructureError
from .evolution import GridEvolutionSpace, GridFunction

__all__ = [
    "Lagrangian",
    "LagrangianReport",
    "action_from_lagrangian",
    "weight_from_lagrangian",
    "verify_lagrangian",
]


def _density_offsets(space: GridEvolutionSpace) -> np.ndarray:
    """(m + 1,) offsets of each admissible subset's (npoints, |T|) table in a flat density buffer."""
    extents = np.diff(space.family_offsets()) * space.frame.members().sum(axis=1)
    return np.concatenate(([0], np.cumsum(extents)))


def _time_columns(space: GridEvolutionSpace) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per time in frame order, over every point of every admissible subset holding it
    (subsets in family order, points in linear order): the point's place in a flat
    family table, the place of its density at that time in a flat density buffer,
    and its digit along the time's axis, (index // place value) % size.  Each time's
    arrays are formed from its per-subset values, repeated once per point."""
    holds = np.ascontiguousarray(space.frame.members().T)  # [time, subset]
    sizes = space.full_shape()
    retained = np.where(holds, np.array(sizes)[:, None], 1)
    starts = _density_offsets(space)[:-1] + np.cumsum(holds, axis=0) - 1  # where column t of T starts
    place = np.cumprod(retained[::-1], axis=0)[::-1] // retained  # the retained sizes after each axis
    points, widths = space.family_offsets(), holds.sum(axis=0)  # widths: |T|, each table's column count
    npoints = np.diff(points)
    for t, size in enumerate(sizes):
        subset = np.flatnonzero(holds[t])
        n = npoints[subset]
        point = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        yield (
            np.repeat(points[subset], n) + point,
            np.repeat(starts[t, subset], n) + point * np.repeat(widths[subset], n),
            point // np.repeat(place[t, subset], n) % size,
        )


def _require_finite_actions(space: GridEvolutionSpace, actions: np.ndarray, first: int = 0) -> None:
    """DataError naming the first non-finite action of a family table's slice starting at `first`."""
    bad = np.flatnonzero(~np.isfinite(actions))
    if bad.size:
        subset, point = space.locate(first + int(bad[0]))
        labels = list(map(str, space.frame.ordered(subset)))
        raise DataError(f"action is non-finite at point index {point} of subset {labels}")


@dataclass(frozen=True, eq=False, init=False)
class Lagrangian:
    """One density table per admissible subset, stored extensionally in one flat buffer (module docstring)."""

    space: GridEvolutionSpace
    densities: np.ndarray

    def __init__(self, space: GridEvolutionSpace, tables: Mapping[frozenset, np.ndarray]):
        frame = space.frame
        given = {frozenset(k): v for k, v in dict(tables).items()}
        for subset in given:
            if not frame.is_admissible(subset):
                raise DomainError(f"density table on inadmissible subset {sorted(map(str, subset))}")
        flat = [np.empty(0, dtype=np.complex128)]
        for subset in frame.admissible():
            name = sorted(map(str, subset))
            if subset not in given:
                raise StructureError(f"density table missing for admissible subset {name}")
            table = np.asarray(given[subset], dtype=np.complex128)
            expected = (space.npoints(subset), len(subset))
            if table.shape != expected:
                raise StructureError(f"density table of subset {name} has shape {table.shape}, expected {expected}")
            flat.append(table.ravel())
        self._adopt(space, np.concatenate(flat))

    def _adopt(self, space: GridEvolutionSpace, densities: np.ndarray) -> None:
        """The one storage path: check the flat buffer is finite, naming the first subset
        whose table is not, and keep it read-only."""
        offsets = _density_offsets(space)
        bad = np.flatnonzero(~np.isfinite(densities))
        if bad.size:
            subset, _ = space.locate(bad[0], offsets)
            raise DataError(f"density table of subset {sorted(map(str, subset))} has non-finite values")
        densities.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "_offsets", offsets.tolist())

    @classmethod
    def from_local(cls, space: GridEvolutionSpace, term: Callable) -> "Lagrangian":
        """Build from a per-time term(t, grid_index, grid_map) -> real, called once per grid entry."""
        columns = _time_columns(space)
        densities = np.empty(_density_offsets(space)[-1], dtype=np.complex128)
        for t, (_, entries, digits) in zip(space.frame.times, columns):
            values = np.array([term(t, index, space.map_at(t, index)) for index in range(space.grid_size(t))],
                              dtype=np.complex128)
            densities[entries] = values[digits]
        lagrangian = object.__new__(cls)
        lagrangian._adopt(space, densities)
        return lagrangian

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
        i = self.space.frame.index(key)
        return self.densities[self._offsets[i] : self._offsets[i + 1]].reshape(self.space.npoints(key), len(key))

    @cached_property
    def actions(self) -> np.ndarray:
        """The read-only flat family table of actions (module docstring), formed at first
        read: each time adds weight(t) * density into the points holding it, in frame
        order, so a point's action is its subset's running sum into zeros bit for bit;
        weight-zero times add exactly zero, as the float product 0.0 * x is exact.  A
        non-finite action is left for its reader to report."""
        space, real = self.space, self.densities.real
        actions = np.zeros(space.family_offsets()[-1])
        for weight, (points, entries, _) in zip(space.frame.weights, _time_columns(space)):
            actions[points] += weight * real[entries]
        actions.setflags(write=False)
        return actions


def action_from_lagrangian(lagrangian: Lagrangian, subset) -> GridFunction:
    """S_T(alpha) = sum over t in T of weight(t) * L_{T, alpha}(t), T's slice of `Lagrangian.actions`.

    The empty subset gets the empty sum, identically zero.  A non-finite
    action raises DataError naming the subset and the first such point.
    """
    space = lagrangian.space
    i = space.frame.index(subset)
    lo, hi = space.family_offsets()[i : i + 2]
    values = lagrangian.actions[lo:hi]
    _require_finite_actions(space, values, lo)
    return GridFunction(space, space.frame.admissible()[i], values)


def weight_from_lagrangian(lagrangian: Lagrangian) -> ActionWeight:
    """Exponentiate: u_T = exp(i S_T) for every admissible subset, one `exp` of `Lagrangian.actions`.

    A non-finite action raises DataError naming the first subset, in family
    order, that has one, and its first such point.
    """
    space = lagrangian.space
    actions = lagrangian.actions
    _require_finite_actions(space, actions)
    return ActionWeight._stored(space, np.exp(1j * actions))


@dataclass(frozen=True)
class LagrangianReport:
    """Max deviations of the consistency sweep."""

    restriction_deviation: float
    realness_deviation: float
    pairs: int


def _restriction_range(lagrangian: Lagrangian) -> float:
    """The largest range, max - min, of L_T(t)(x|T) over the admissible T holding t,
    over every time t and full point x: `verify_lagrangian`'s certificate.

    Per time, the subsets holding it are read in chunks of at most PAIR_ENTRIES
    values, each row gathered from the flat density buffer through the subset's
    row of the restriction table, and folded into a running max and min per full
    point, so memory stays O(N) beside one chunk and time O(sum |T| N).
    """
    space = lagrangian.space
    holds = space.frame.members().T  # [time, subset]
    # where column t of each subset's table starts in the buffer, and each table's row width |T|
    starts = _density_offsets(space)[:-1] + np.cumsum(holds, axis=0) - 1
    widths = holds.sum(axis=0)
    table, real = space.restriction_table(), lagrangian.densities.real
    step = _chunk_rows(np.empty((0, space.dimension)))  # rows of N values
    spread = 0.0
    for t, holding in enumerate(holds):
        subsets = np.flatnonzero(holding)
        # a time no subset holds leaves -inf - inf, no range
        high, low = np.full(space.dimension, -np.inf), np.full(space.dimension, np.inf)
        for lo in range(0, len(subsets), step):
            rows = subsets[lo : lo + step]
            values = real[starts[t, rows, None] + table[rows] * widths[rows, None]]
            np.maximum(high, values.max(axis=0), out=high)
            np.minimum(low, values.min(axis=0), out=low)
        spread = max(spread, float(np.max(high - low)))
    return spread


def verify_lagrangian(lagrangian: Lagrangian) -> LagrangianReport:
    """Measure restriction consistency and realness on every admissible subset.

    The restriction law's maximum D is over every pair T' < T of the frame's
    `nested_pairs()`, every time t of T' and every full point x, of
    |L_T(t)(x|T) - L_T'(t)(x|T')|.  It is first bounded by a range certificate
    (`_restriction_range`): R, the largest max - min of L_S(t)(x|S) over the
    admissible S holding t, for fixed t and x.  D <= R, as both subsets of a
    nested pair hold t.  R <= 2 D: for any two S1, S2 holding t, the family is
    closed under unions, so S1 u S2 is admissible and nested over both (or
    equal to one), and |L_S1 - L_S2| <= |L_S1 - L_S1uS2| + |L_S1uS2 - L_S2| <= 2 D.
    So R is 0.0 exactly when D is, and then no pair is walked.  Otherwise the
    exact walk runs: each table is pulled back once, a stack row per (subset,
    time) column, and one `_pair_max` reads (superset row, subset row) for
    each time of T'.  The pair count is read off the boolean containment
    product either way.  Realness is the largest imaginary part in any table.
    """
    space = lagrangian.space
    frame = space.frame
    member = frame.members()
    nonempty = member.any(axis=1)
    # (superset, subset) with the subset nonempty: all but the pairs whose subset has a time outside the superset
    pairs = int(np.count_nonzero(nonempty)) * (len(member) - 1) - int(np.count_nonzero(~member @ member[nonempty].T))
    realness = float(np.max(np.abs(lagrangian.densities.imag), initial=0.0))
    if _restriction_range(lagrangian) == 0.0:
        return LagrangianReport(0.0, realness, pairs)
    columns = [np.empty((0, space.dimension))]
    for subset, restricted in zip(frame.admissible(), space.restriction_table()):
        columns.append(lagrangian.table(subset).real[restricted].T)
    # slot[i, p]: the stack row of subset i's time at frame position p, as the columns were stacked
    slot = np.cumsum(member).reshape(member.shape) - 1
    big, small = frame.nested_pairs().T
    pair, time = np.nonzero(member[small])
    shared = np.column_stack((slot[big[pair], time], slot[small[pair], time]))
    return LagrangianReport(_pair_max(np.concatenate(columns), shared, np.subtract), realness, pairs)
