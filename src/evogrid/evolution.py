"""Finite-grid evolution spaces.

A time frame fixes an ordered list of time labels, a nonnegative weight per
label (the measure of a subset of labels is the sum of its weights), and a
union-closed family of admissible label subsets.  For each time the space
carries a finite grid of linear contractions on a fixed block algebra; grid
points stand in for evolutions of the algebra, automorphisms being the main
case and unit-ball limit points (convex mixtures, trace averaging) the rest.

A point of the space over a subset T of times is a choice of one grid entry
per time in T, and it is named by one integer, its linear index in
mixed-radix order: times ascend in frame order and the earliest time is the
most significant digit.  With sizes (2, 3, 2) over times (1, 2, 3), the
point with per-time grid indices (1, 2, 0) has linear index 1*6 + 2*2 + 0 =
10; the digits of an index are `np.unravel_index(index, space.shape(T))`.
The empty subset has exactly one point, index 0, so every construction below
degenerates gracefully instead of special-casing T = {}.

Complex functions on the finite point set over T are stored as value vectors
in that linear order.  Restriction of points, read off a restriction table,
and pullback of functions along restriction are the two moves everything
later builds on.

Subset geometry is derived once per space and subset.  A frame maps labels
to positions through one dict, memoises the frame-ordered labels of each
subset and the measure-disjoint pairs, and builds with itself the sorted
admissible family and its read-only (m, T) boolean membership table; the
loader bounds the family by the cap first.  Both pair tables are boolean
matrix products over that table; packed rows and a byte trie serve only
the lookup of a union's position.  A space keeps the axes, shape and point
count of each subset it has been asked about, and builds from that table
on first read one read-only (m, N) restriction table: row i maps each
full-set point index to the linear index of its restriction to
`admissible()[i]`, below k <= N, so uint16 holds it up to N = 2^16; a row
outside the family is built alone, uncached.  A flat family table holds one
value per point of every admissible subset, the subsets in `admissible()`
order and each one's points in linear order; the space builds its (m + 1,)
`family_offsets()` once, `locate` names the subset and point of a flat
index, and `pullback_family` reads such a table through the restriction
table, a chunk of rows at a time, into the (m, N) stack of pulled-back
rows.  `pullback_along` reads rows over the flat slice of a run of subsets
through restriction rows its caller built, never through the table.  No
record, table or memo is a dataclass field: equality, hashing and
fingerprints see only frame and grids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .algebra import Automorphism, AlgebraElement, WStarAlgebra, _cstar_norms
from .errors import DomainError, StructureError
from .rng import SplitMix64

__all__ = [
    "TimeFrame",
    "GridPointMap",
    "GridEvolutionSpace",
    "GridFunction",
    "pullback",
    "pullback_rows",
    "pullback_along",
    "pullback_family",
    "named_contraction",
    "contraction_norm_estimate",
]

CONTRACTION_TOL = 1e-10  # slack allowed on the unit-ball membership check
_GATHER_ENTRIES = 1 << 16  # flat indices each `pullback_family` chunk forms at most, 512 KiB of int64


def _as_frozenset(subset) -> frozenset:
    if isinstance(subset, frozenset):
        return subset
    return frozenset(subset)


@dataclass(frozen=True)
class TimeFrame:
    """Ordered time labels with weights and an admissible subset family.

    `weights` maps every label to a nonnegative float.  `sigma0` is the
    family of admissible subsets; None means all subsets of the label set.
    The family must be closed under unions so that joint evolutions of two
    admissible subsets are again admissible.
    """

    times: tuple
    weights: tuple[float, ...]
    sigma0: tuple[frozenset, ...] | None = None

    def __post_init__(self):
        times = tuple(self.times)
        if len(set(times)) != len(times) or not times:
            raise StructureError("time labels must be nonempty and distinct")
        weights = tuple(float(w) for w in self.weights)
        if len(weights) != len(times):
            raise StructureError("one weight per time label is required")
        if any(w < 0 or not math.isfinite(w) for w in weights):
            raise StructureError("weights must be finite and nonnegative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)
        if self.sigma0 is not None:
            family = tuple(_as_frozenset(s) for s in self.sigma0)
            known = set(times)
            for s in family:
                if not s <= known:
                    raise DomainError(f"admissible subset {sorted(map(str, s))} uses unknown time labels")
            if len(set(family)) != len(family):
                raise StructureError("admissible family contains duplicates")
            object.__setattr__(self, "sigma0", family)
        # lookup caches, not fields: equality and hashing ignore them
        object.__setattr__(self, "_positions", {t: i for i, t in enumerate(times)})
        object.__setattr__(self, "_ordered", {})
        object.__setattr__(self, "_pairs", None)
        # the family in (size, position) order, its membership table (a column per time in frame order) and,
        # for `_find` alone, its packed rows and their byte trie: level j holds 256 * (code of j bytes) + byte j
        if self.sigma0 is None:
            # combinations of the frame-ordered times come in (size, position) order, a size at a time
            sizes = range(len(times) + 1)
            keyed = tuple(frozenset(c) for r in sizes for c in itertools.combinations(times, r))
            members = np.zeros((len(keyed), len(times)), dtype=bool)
            start = 0
            for r in sizes:
                count = math.comb(len(times), r)
                chosen = itertools.chain.from_iterable(itertools.combinations(range(len(times)), r))
                columns = np.fromiter(chosen, dtype=np.intp, count=count * r).reshape(count, r)
                members[np.arange(start, start + count)[:, None], columns] = True
                start += count
        else:
            keyed = tuple(sorted(self.sigma0, key=lambda s: (len(s), tuple(sorted(self.position(t) for t in s)))))
            members = np.array([[t in s for t in times] for s in keyed], dtype=bool).reshape(len(keyed), len(times))
        members.setflags(write=False)
        rows = np.packbits(members, axis=1)
        code, levels = np.zeros(len(rows), dtype=np.int64), []
        for column in rows.T:
            prefixes, code = np.unique(code * 256 + column, return_inverse=True)
            levels.append(np.append(prefixes, np.iinfo(np.int64).max))  # a sentinel no code reaches
        object.__setattr__(self, "_admissible", keyed)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(keyed)})
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_trie", (levels, np.append(np.argsort(code), len(rows))))
        if self.sigma0 is not None:
            for i, row in enumerate(rows):  # unions with every later subset: union is symmetric, row | row is row
                if np.any(self._find(row | rows[i + 1 :]) == len(rows)):
                    raise StructureError("admissible family is not closed under unions")

    @property
    def full(self) -> frozenset:
        return frozenset(self.times)

    def position(self, t) -> int:
        try:
            return self._positions[t]
        except KeyError:
            raise DomainError(f"unknown time label {t!r}") from None

    def weight(self, t) -> float:
        return self.weights[self.position(t)]

    def ordered(self, subset) -> tuple:
        """Labels of `subset` in frame order; validates membership."""
        s = _as_frozenset(subset)
        labels = self._ordered.get(s)
        if labels is None:
            positions = sorted(self.position(t) for t in s)
            labels = self._ordered[s] = tuple(self.times[i] for i in positions)
        return labels

    def mu(self, subset) -> float:
        """Measure of a label subset: sum of weights in frame order."""
        return float(sum(self.weight(t) for t in self.ordered(subset)))

    def admissible(self) -> tuple[frozenset, ...]:
        """The admissible family in a deterministic (size, position) order, built with the frame."""
        return self._admissible

    def members(self) -> np.ndarray:
        """The read-only (m, T) membership table: row i marks the times of `admissible()[i]`, in frame order."""
        return self._members

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """The position in `admissible()` of each packed membership row, len(admissible()) for one outside it."""
        levels, positions = self._trie
        code = np.zeros(len(rows), dtype=np.int64)
        for prefixes, column in zip(levels, rows.T):
            key = code * 256 + column
            at = np.searchsorted(prefixes, key)
            code = np.where(prefixes[at] == key, at, -1)  # then keys are negative: a missed row stays missed
        return positions[code]

    def disjoint_pairs(self) -> np.ndarray:
        """(first, second, union) positions into `admissible()` of every ordered
        pair with mu(first & second) == 0.0, first-subset-major; read-only.

        A sum of nonnegative weights is 0.0 exactly when every term is, so a
        pair is measure-disjoint when it shares no time of positive weight.
        """
        if self._pairs is None:
            heavy, rows = self._members[:, np.array(self.weights) > 0.0], self._rows
            first, second = np.nonzero(~(heavy @ heavy.T))
            pairs = np.column_stack((first, second, self._find(rows[first] | rows[second])))
            pairs.setflags(write=False)
            object.__setattr__(self, "_pairs", pairs)
        return self._pairs

    def nested_pairs(self) -> np.ndarray:
        """(superset, subset) positions into `admissible()` of every pair whose subset
        is nonempty and proper, superset-major; built on each call, as one law reads it."""
        members = self._members
        big, small = np.nonzero(~(~members @ members.T))
        keep = (big != small) & members.any(axis=1)[small]
        return np.column_stack((big[keep], small[keep]))

    def null_subsets(self) -> np.ndarray:
        """Mask over `admissible()` of mu(subset) == 0.0: no time of positive weight, as in `disjoint_pairs`."""
        return ~self._members[:, np.array(self.weights) > 0.0].any(axis=1)

    def is_admissible(self, subset) -> bool:
        return _as_frozenset(subset) in self._index

    def index(self, subset) -> int:
        """The position of `subset` in `admissible()`; DomainError for a subset outside the family."""
        s = _as_frozenset(subset)
        try:
            return self._index[s]
        except KeyError:
            raise DomainError(f"subset {sorted(map(str, s))} is not admissible") from None


@dataclass(frozen=True, eq=False)
class GridPointMap:
    """A linear map on the algebra used as a grid entry.

    Backed either by an automorphism (applied blockwise, exactly norm one)
    or by a dense matrix on coordinate vectors.
    """

    algebra: WStarAlgebra
    automorphism: Automorphism | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        if (self.automorphism is None) == (self.dense is None):
            raise StructureError("exactly one backing (automorphism or dense) is required")
        if self.dense is not None:
            d = self.algebra.dimension
            m = np.array(self.dense, dtype=np.complex128, order="C")
            if m.shape != (d, d):
                raise StructureError(f"dense backing must be {d}x{d}, got {m.shape}")
            # a non-finite entry would reach the SVD of a norm estimate, which does not converge
            if not np.isfinite(m).all():
                raise StructureError("dense backing has non-finite entries")
            m.setflags(write=False)
            object.__setattr__(self, "dense", m)
        elif self.automorphism.algebra != self.algebra:
            raise StructureError("automorphism acts on a different algebra")
        elif self.automorphism.stack:
            raise StructureError("a grid map is one automorphism, not a stack")

    @classmethod
    def from_automorphism(cls, alpha: Automorphism) -> "GridPointMap":
        return cls(alpha.algebra, automorphism=alpha)

    @classmethod
    def from_matrix(cls, algebra: WStarAlgebra, matrix) -> "GridPointMap":
        return cls(algebra, dense=matrix)

    @classmethod
    def identity(cls, algebra: WStarAlgebra) -> "GridPointMap":
        return cls.from_automorphism(Automorphism.identity(algebra))

    def apply_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Images of stacked blocks (..., n_i, n_i); a dense backing maps the
        coordinates of every stack entry by one matrix-vector product."""
        if self.automorphism is not None:
            return self.automorphism.apply_blocks(blocks)
        self.algebra._own_blocks(blocks)
        coordinates = self.algebra._join(blocks)
        return self.algebra._split((self.dense @ coordinates[..., None])[..., 0])

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        self.algebra._own(a)
        return self.algebra.element(self.apply_blocks(a.blocks))


def _trace_average_matrix(algebra: WStarAlgebra) -> np.ndarray:
    """Coordinate matrix of a |-> (+)_i (trace(a_i)/n_i) * identity.

    Each diagonal coordinate of block i feeds 1/n_i into every diagonal
    coordinate of the same block; all other entries are zero.
    """
    d = algebra.dimension
    out = np.zeros((d, d), dtype=np.complex128)
    start = 0
    for n in algebra.block_dims:
        diagonal = start + (n + 1) * np.arange(n)
        out[np.ix_(diagonal, diagonal)] = 1.0 / n
        start += n * n
    return out


# fixed table: a scenario's fingerprint records only the name
_NAMED_CONTRACTIONS: dict[str, Callable[[WStarAlgebra], GridPointMap]] = {
    "identity": GridPointMap.identity,
    "trace_average": lambda algebra: GridPointMap.from_matrix(algebra, _trace_average_matrix(algebra)),
}


def named_contraction(name: str, algebra: WStarAlgebra) -> GridPointMap:
    try:
        builder = _NAMED_CONTRACTIONS[name]
    except KeyError:
        raise DomainError(f"unknown named contraction {name!r}") from None
    return builder(algebra)


def contraction_norm_estimate(phi: GridPointMap, seed: int = 0, samples: int = 32) -> float:
    """Lower bound for the C*-operator norm of a grid map.

    Automorphism-backed maps have norm exactly one.  For dense-backed maps
    the supremum over the unit ball is attained at tuples of per-block
    unitaries (the extreme points), so the estimate maximizes over the
    identity plus seeded Haar tuples.  Being a lower bound, a value above
    1 + tol certifies a violation; a value below it cannot certify
    membership, which is the honest trade at this scale.
    """
    if phi.automorphism is not None:
        return 1.0
    algebra = phi.algebra
    draws = algebra._haar_blocks(SplitMix64(seed), samples)
    # per block one stack: the identity, then the drawn tuples in order
    stacks = [np.concatenate([np.eye(n, dtype=np.complex128)[None], u]) for n, u in zip(algebra.block_dims, draws)]
    return float(np.max(_cstar_norms(phi.apply_blocks(stacks))))


@dataclass(frozen=True, eq=False)
class GridEvolutionSpace:
    """Per-time grids of maps over a time frame, with subset geometry."""

    frame: TimeFrame
    grids: tuple[tuple[GridPointMap, ...], ...]

    def __post_init__(self):
        if isinstance(self.grids, Mapping):
            aligned = tuple(tuple(self.grids[t]) for t in self.frame.times)
        else:
            aligned = tuple(tuple(g) for g in self.grids)
        if len(aligned) != len(self.frame.times):
            raise StructureError("one grid per time label is required")
        if any(len(g) == 0 for g in aligned):
            raise StructureError("every per-time grid must be nonempty")
        algebras = {m.algebra for g in aligned for m in g}
        if len(algebras) != 1:
            raise StructureError("all grid maps must act on the same algebra")
        object.__setattr__(self, "grids", aligned)
        object.__setattr__(self, "_full_shape", tuple(len(g) for g in aligned))
        object.__setattr__(self, "_geometries", {})
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_offsets", None)

    @property
    def full(self) -> frozenset:
        return self.frame.full

    # -- subset geometry -------------------------------------------------

    def _geometry(self, subset) -> tuple:
        """The subset's (axes, shape, point count) record, built on first use; validates labels."""
        s = _as_frozenset(subset)
        geometry = self._geometries.get(s)
        if geometry is None:
            axes = tuple(self.frame.position(t) for t in self.frame.ordered(s))
            shape = tuple(len(self.grids[i]) for i in axes)
            geometry = self._geometries[s] = (axes, shape, math.prod(shape))
        return geometry

    def axes(self, subset) -> tuple[int, ...]:
        return self._geometry(subset)[0]

    def shape(self, subset) -> tuple[int, ...]:
        return self._geometry(subset)[1]

    def npoints(self, subset) -> int:
        return self._geometry(subset)[2]

    def full_shape(self) -> tuple[int, ...]:
        return self._full_shape

    @property
    def dimension(self) -> int:
        """Number of points over the full label set."""
        return math.prod(self._full_shape)

    def grid_size(self, t) -> int:
        return len(self.grids[self.frame.position(t)])

    def map_at(self, t, index: int) -> GridPointMap:
        grid = self.grids[self.frame.position(t)]
        if not 0 <= index < len(grid):
            raise DomainError(f"grid index {index} out of range at time {t!r}")
        return grid[index]

    def restriction_table(self) -> np.ndarray:
        """The family's read-only (m, N) restriction table, built on first read:
        row i holds, for each full-set point index, the linear index of its
        restriction to `frame.admissible()[i]`."""
        if self._table is None:
            object.__setattr__(self, "_table", self._restriction_rows(self.frame.members()))
        return self._table

    def family_offsets(self) -> np.ndarray:
        """The read-only (m + 1,) offsets of a flat family table, built on first read:
        the values of `frame.admissible()[i]`, one per point in linear-index order,
        sit at [offsets[i], offsets[i + 1])."""
        if self._offsets is None:
            npoints = np.where(self.frame.members(), self._full_shape, 1).prod(axis=1)
            offsets = np.concatenate(([0], np.cumsum(npoints)))
            offsets.setflags(write=False)
            object.__setattr__(self, "_offsets", offsets)
        return self._offsets

    def locate(self, at: int, offsets: np.ndarray | None = None) -> tuple[frozenset, int]:
        """The admissible subset whose slice of a flat table holds flat index `at`, and
        `at`'s place within that slice.  The slices are those of `family_offsets()`, or
        of the given (m + 1,) `offsets` of another table with one slice per subset in
        `admissible()` order."""
        offsets = self.family_offsets() if offsets is None else offsets
        i = int(np.searchsorted(offsets, at, side="right")) - 1
        return self.frame.admissible()[i], int(at - offsets[i])

    def restricted_index_array(self, subset) -> np.ndarray:
        """For each full-set point index, the linear index of its restriction:
        the subset's row of `restriction_table()`, or for a subset outside the
        family its row built alone, uncached."""
        s = _as_frozenset(subset)
        i = self.frame._index.get(s)
        if i is not None:
            return self.restriction_table()[i]
        return self._restriction_rows(np.isin(np.arange(len(self.grids)), self.axes(s))[None])[0]

    def _restriction_rows(self, members: np.ndarray) -> np.ndarray:
        """Read-only restriction rows of the subsets with boolean membership rows
        `members` over the times: per axis, its place value (the product of the
        retained sizes after it) times each full point's digit, from
        `np.indices`, summed by one `einsum` into the rows with no (m, N)
        temporary; every partial sum is below k, so none overflows."""
        sizes = np.where(members, self._full_shape, 1)
        place = np.cumprod(sizes[:, ::-1], axis=1)[:, ::-1] // sizes * members
        dtype = np.uint16 if self.dimension <= 1 << 16 else np.int64
        digits = np.indices(self._full_shape, dtype).reshape(len(self.grids), -1)
        out = np.einsum("ia,an->in", place.astype(dtype), digits)
        out.setflags(write=False)
        return out

    # -- functions on point sets ------------------------------------------

    def function(self, subset, values) -> "GridFunction":
        return GridFunction(self, _as_frozenset(subset), np.asarray(values))

    def constant(self, subset, value) -> "GridFunction":
        n = self.npoints(subset)
        return self.function(subset, np.full(n, value, dtype=np.complex128))

    def random_function(self, subset, rng: SplitMix64) -> "GridFunction":
        """Complex normal values.

        The values are one row of `rng.complex_matrix`, so the rows of one
        `complex_matrix(S, npoints(subset))` draw are S calls' values, with
        the same end state.
        """
        return self.function(subset, rng.complex_matrix(1, self.npoints(subset))[0])


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Function on the points over one subset, stored in linear-index order."""

    space: GridEvolutionSpace
    subset: frozenset
    values: np.ndarray

    def __post_init__(self):
        subset = _as_frozenset(self.subset)
        vals = np.array(self.values, order="C")
        if vals.dtype not in (np.float64, np.complex128):
            vals = vals.astype(np.complex128)
        expected = self.space.npoints(subset)
        if vals.shape != (expected,):
            raise StructureError(f"value vector has shape {vals.shape}, expected ({expected},)")
        vals.setflags(write=False)
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "values", vals)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def _peer(self, other: "GridFunction") -> None:
        if other.space is not self.space or other.subset != self.subset:
            raise StructureError("grid functions live over different point sets")

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._peer(other)
            return GridFunction(self.space, self.subset, self.values * other.values)
        return GridFunction(self.space, self.subset, self.values * other)

    __rmul__ = __mul__

    def conjugate(self) -> "GridFunction":
        return GridFunction(self.space, self.subset, np.conj(self.values))


def pullback(f: GridFunction) -> GridFunction:
    """Extend `f` to the full label set by composing with restriction.

    The one-row case of `pullback_rows`: values are copied bit for bit and
    the sup norm is preserved exactly.
    """
    return GridFunction(f.space, f.space.full, pullback_rows(f.space, f.subset, f.values[None])[0])


def pullback_family(space: GridEvolutionSpace, values: np.ndarray) -> np.ndarray:
    """Pull back a flat family table (`family_offsets`) to the (m, N) stack of its rows.

    Row i holds the value of `frame.admissible()[i]` at the restriction of
    each full-set point, read through its row of the restriction table and
    copied bit for bit.  The rows are gathered in chunks whose flat indices
    hold at most _GATHER_ENTRIES entries (one row's when a row is larger), so
    no (m, N) index array sits beside the stack.
    """
    table, starts = space.restriction_table(), space.family_offsets()[:-1, None]
    stack = np.empty(table.shape, dtype=values.dtype)
    step = max(_GATHER_ENTRIES // max(space.dimension, 1), 1)
    for lo in range(0, len(table), step):
        np.take(values, starts[lo : lo + step] + table[lo : lo + step], out=stack[lo : lo + step])
    return stack


def pullback_along(space: GridEvolutionSpace, values: np.ndarray, image: np.ndarray, lo: int) -> np.ndarray:
    """Pull back value rows over the flat family slice of the admissible subsets
    lo, ..., lo + c - 1 along restriction rows the caller built, (s, c, N).

    `values` is (s, P), the subsets' points side by side on the flat family
    axis (`family_offsets`), the slice's own first point at column 0, and
    `image` is (c, N): row i gives each full point's restriction to subset
    lo + i.  Entry (r, i, x) is row r's value at that restriction, copied bit
    for bit with the input's dtype; the restriction table is never read.
    """
    starts = space.family_offsets()[lo : lo + len(image) + 1]
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != starts[-1] - starts[0]:
        raise StructureError(f"value rows have shape {values.shape}, expected (s, {starts[-1] - starts[0]})")
    return np.take(values, (starts[:-1] - starts[0])[:, None] + image, axis=1)


def pullback_rows(space: GridEvolutionSpace, subset, values: np.ndarray) -> np.ndarray:
    """Pull back an (m, npoints(subset)) block of value rows to (m, N).

    Each row, in linear-index order over the subset, is reshaped onto the
    subset's axes and broadcast over the remaining axes; the restriction
    table is never read.  The result is C-ordered with the input's dtype.
    """
    values = np.asarray(values)
    subset = _as_frozenset(subset)
    if values.ndim != 2 or values.shape[1] != space.npoints(subset):
        raise StructureError(f"value rows have shape {values.shape}, expected (m, {space.npoints(subset)})")
    full_shape = space.full_shape()
    shape = [1] * len(full_shape)
    for ax in space.axes(subset):
        shape[ax] = full_shape[ax]
    m = values.shape[0]
    cube = np.broadcast_to(values.reshape(m, *shape), (m, *full_shape))
    return np.ascontiguousarray(cube).reshape(m, math.prod(full_shape))
