"""Diagonal-form representations and projection-valued measures.

The Hilbert space attached to a grid evolution space is the direct sum of
one copy of the complex line per full-set grid point, so its dimension N is
the product of the per-time grid sizes.  In the distinguished basis, indexed
by the linear indices of full-set points, a bounded function f on the full
point set acts as the diagonal operator with entries f(x); the spectral
measure of that action assigns to each point subset V the diagonal
projection onto the basis vectors it contains.

Measures over a smaller time subset T arise by pushing the full measure
forward along restriction: the projection of V, a set of points over T, is
diagonal with a one at each full point whose restriction lies in V.  The
library builds every such diagonal one way, by a gather through the
subset's row of the space's restriction table: each full point takes the
value at the point of T it restricts to.  Spectral integrals and the batch `diagonals` of many
point sets are that gather; `integrate` is the one-row case of
`integrate_rows`, and `projection` (so `atom`) the one-row case of `diagonals`.

`pullback_rows`, with `pullback` and `embed_eta` as its one-row cases, is
the independent second route: it broadcasts the values over the axes
outside T and never reads the table.  The checks pair the two routes on
stacks of sampled rows: `factorization` compares `integrate_rows` with
`pullback_rows` of the same rows, and `embedding` and `embedding-measure`
compare lifted rows and projections with integrals and measure diagonals.
`spectral-sum` pins the gather to the explicit sum of value-scaled atoms,
read off the atom that holds each full point, and `pushforward` and
`matrix-elements` test it against an image table built from the full
points' mixed-radix digits.

Conjugation acts on representations: `conjugate(W, rep)` is the
representation f -> W* rep(f) W, unitarily equivalent to rep.  W is checked
for unitarity once, when the conjugated `PureRepresentation` is constructed,
which keeps g = ||W W* - I||_F as `gram_defect` and forms W*
(`conjugator_adjoint`) and the row Gram diag(W W*) (`row_gram`) read-only
at first use; its measures and operators read all three there without
checking W again, under a configurable dimension cap.

There are two operator kinds.  `DiagonalOperator` is the exact diagonal
algebra: products, differences and adjoints act on the diagonal entries.
`ConjugatedDiagonalOperator` is the (conjugated representation, d) pair
with `columns`, `to_dense`, `trace` and `entry`, and no
arithmetic: mixing the kinds raises TypeError, so every product with W the
library forms is an explicit call.  Only a conjugated representation can
hold one, so its W is always a checked one.  `columns(cols)` is the one
formula, W* (d * W[:, cols]), and `to_dense()` is `columns` over every
index; `trace()` reads the row Gram in O(N).  `conjugated_columns` is the
route those methods are checked against; it takes a W* its caller formed,
never the representation's.

The d of a conjugated operator may be an (m, N) stack of diagonals: m
operators of one representation.  `columns` forms all m c of their
columns in one W* product of width m c, which reads W* once instead of m
times, and `entry` and `trace` return one value per row;
`conjugated_columns` takes the same stacks, m = 0 included.  One diagonal
is the m = 1 case, and `to_dense` reads one operator only.  At
one BLAS thread a product of width m c equals the m products of width c
bit for bit (a test pins this at N = 12, 125 and 512), so a stacked read
leaves the report bytes as they were.  The suites read stacks only: the
covariance checks wrap the plain diagonals they gathered, which are the
conjugated measure's bits, as `diagonals` and `integrate_rows` never read
the representation, and `to_dense` is left to `compute` and the commutant
witness, which need one operator's whole matrix.  They read a measure
through those two gathers only, its atoms as one (k, N) boolean table;
`projection`, `atom`, `empty`, `total` and `projection_rank` build one
operator at a time, for library callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from .algebra import _frozen_matrix, unitary_defect
from .errors import CapExceededError, DomainError, PreconditionError, StructureError
from .evolution import GridEvolutionSpace, GridFunction, pullback_rows

__all__ = [
    "DENSE_CAP_DEFAULT",
    "DiagonalOperator",
    "ConjugatedDiagonalOperator",
    "RepresentationSpace",
    "check_cap",
    "PureRepresentation",
    "SpectralMeasure",
    "pushforward",
    "integrate",
    "integrate_rows",
    "conjugate",
    "embed_eta",
    "matrix_element",
    "theta_represent",
    "theta_projection",
    "identity_operator",
    "projection_rank",
]

DENSE_CAP_DEFAULT = 4096

Operator = Union["DiagonalOperator", "ConjugatedDiagonalOperator"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_unitary(u: np.ndarray) -> float:
    """Accept u when ||u u* - I||_2 <= 1e-10 and return ||u u* - I||_F."""
    tol = 1e-10
    u = np.asarray(u)
    if not np.isfinite(u).all():
        raise PreconditionError("matrix has non-finite entries")
    frobenius, defect = unitary_defect(u, tol)
    if defect > tol:
        raise PreconditionError(f"matrix is not unitary within {tol:g} (defect {defect:.3e})")
    return frobenius


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Operator that is diagonal in the distinguished basis.

    `@` and `-` accept only another diagonal operator; any other operand
    returns NotImplemented, so Python raises TypeError.  The guard matters:
    a `ConjugatedDiagonalOperator` also has a `.diag`, and reading it here
    would silently drop its conjugator.
    """

    diag: np.ndarray

    def __post_init__(self):
        # a copy of the caller's array; a fresh result takes `_fresh` instead
        object.__setattr__(self, "diag", _frozen(np.array(self.diag, dtype=np.complex128, order="C").ravel()))

    @classmethod
    def _fresh(cls, diag: np.ndarray) -> "DiagonalOperator":
        """Wrap a complex128 vector that no caller holds, frozen in place, not copied."""
        op = object.__new__(cls)
        object.__setattr__(op, "diag", _frozen(diag))
        return op

    @property
    def dimension(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diag)

    def norm(self) -> float:
        """Exact operator norm, the largest entry modulus."""
        return float(np.max(np.abs(self.diag))) if self.diag.size else 0.0

    def adjoint(self) -> "DiagonalOperator":
        return DiagonalOperator._fresh(np.conj(self.diag))

    def entry(self, i: int, j: int) -> complex:
        return complex(self.diag[i]) if i == j else 0.0 + 0.0j

    def trace(self) -> complex:
        return complex(np.sum(self.diag))

    def __matmul__(self, other) -> "DiagonalOperator":
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        return DiagonalOperator._fresh(self.diag * other.diag)

    def __sub__(self, other) -> "DiagonalOperator":
        if not isinstance(other, DiagonalOperator):
            return NotImplemented
        return DiagonalOperator._fresh(self.diag - other.diag)


@dataclass(frozen=True, eq=False)
class ConjugatedDiagonalOperator:
    """The operator W* diag(d) W of a conjugated representation, kept as the
    (representation, d) pair until needed.

    `diag` is one diagonal of N entries, or an (m, N) stack of them: m
    operators read together.  W, W* and the row Gram are the
    representation's.  It has no arithmetic; a caller reads the columns it
    needs with `columns(cols)`, every row's at once for a stack, as both
    covariance checks do, or one operator's whole matrix with `to_dense()`,
    which only `compute` and the commutant witness need.
    """

    representation: PureRepresentation
    diag: np.ndarray

    def __post_init__(self):
        rep = self.representation
        if not isinstance(rep, PureRepresentation) or rep.conjugator is None:
            raise StructureError("a conjugated operator is built on a conjugated representation")
        d = _frozen(np.array(self.diag, dtype=np.complex128, order="C"))
        if d.ndim not in (1, 2) or d.shape[-1] != rep.dimension:
            raise StructureError(f"diagonal of shape {d.shape} does not fit a conjugator of size {rep.dimension}")
        object.__setattr__(self, "diag", d)

    @property
    def conjugator(self) -> np.ndarray:
        return self.representation.conjugator

    @property
    def dimension(self) -> int:
        return self.diag.shape[-1]

    def _per_row(self, values: np.ndarray) -> complex | np.ndarray:
        # one complex for one diagonal, one value per row for a stack
        return values if self.diag.ndim == 2 else complex(values)

    def columns(self, cols) -> np.ndarray:
        """Columns `cols` of W* diag(d) W, as W* (d * W[:, cols]): O(N^2) per column.

        A stack of m diagonals is read in one W* product of width m c, whose
        columns are row-major over (row, column); the result is (m, N, c),
        and (N, c) for one diagonal.
        """
        n = self.dimension
        w = self.conjugator[:, cols]
        # C order, as BLAS may round a product in another layout differently
        block = np.multiply(self.diag.reshape(-1, n).T[:, :, None], w[:, None, :], order="C")
        product = self.representation.conjugator_adjoint @ block.reshape(n, -1)
        stack = product.reshape(block.shape).transpose(1, 0, 2)
        return stack if self.diag.ndim == 2 else stack[0]

    def to_dense(self) -> np.ndarray:
        if self.diag.ndim != 1:
            raise StructureError("to_dense forms one operator's matrix, not a stack's")
        # W[:, :] is a view of W, so this is the product W* (d * W) itself
        return self.columns(slice(None))

    def entry(self, i: int, j: int) -> complex | np.ndarray:
        w = self.conjugator
        return self._per_row(np.sum(np.conj(w[:, i]) * self.diag * w[:, j], axis=-1))

    def trace(self) -> complex | np.ndarray:
        # trace is basis independent: sum_i d_i (W W*)_ii, from the representation's row Gram
        return self._per_row(np.sum(self.diag * self.representation.row_gram, axis=-1))


def conjugated_columns(adjoint: np.ndarray, conjugator: np.ndarray, diag: np.ndarray, columns) -> np.ndarray:
    """Columns of W* diag(d) W formed as W* (d * W e_j) in O(N^2) each, from the caller's own W*.

    An (m, N) stack of diagonals is formed in one product of width m c, its
    column blocks side by side; the result is (m, N, c), (0, N, c) for an
    empty stack, and (N, c) for one diagonal.
    """
    w = conjugator[:, columns]
    rows = np.atleast_2d(diag)
    # the reshape copies the (N, m, c) view into the C order BLAS gets from `columns`
    block = (rows[:, :, None] * w).transpose(1, 0, 2).reshape(len(w), -1)
    stack = (adjoint @ block).reshape(len(w), len(rows), w.shape[1]).transpose(1, 0, 2)
    return stack if np.ndim(diag) == 2 else stack[0]


def _member_row(npoints: int, members: Iterable) -> np.ndarray:
    """Boolean row over `npoints` points marking the linear indices `members`; one out of range is a DomainError."""
    row = np.zeros(npoints, dtype=bool)
    for i in map(int, members):
        if not 0 <= i < npoints:
            raise DomainError(f"point index {i} outside the subset's point set")
        row[i] = True
    return row


def identity_operator(n: int) -> DiagonalOperator:
    return DiagonalOperator(np.ones(n, dtype=np.complex128))


def projection_rank(op: DiagonalOperator, tol: float = 1e-8) -> int:
    """Rank of a projection, read off the trace; sanity-checks idempotency."""
    defect = (op @ op - op).norm()
    if defect > tol:
        raise PreconditionError(f"operator is not a projection (idempotency defect {defect:.3e})")
    return int(round(op.trace().real))


def check_cap(dimension: int, cap: int, what: str = "representation dimension") -> None:
    """CapExceededError when `dimension`, a representation's basis paths by default, would exceed `cap`."""
    if dimension > cap:
        # past Python's int-to-str digit limit a dimension is named by its bit length
        size = str(dimension) if dimension.bit_length() <= 4096 else f"of {dimension.bit_length()} bits"
        raise CapExceededError(f"{what} {size} exceeds the cap {cap}")


@dataclass(frozen=True, eq=False)
class RepresentationSpace:
    """Hilbert space data: the dimension and the dense cap."""

    space: GridEvolutionSpace
    cap: int = DENSE_CAP_DEFAULT

    def __post_init__(self):
        check_cap(self.space.dimension, self.cap)

    @property
    def dimension(self) -> int:
        return self.space.dimension


@dataclass(frozen=True, eq=False)
class PureRepresentation:
    """Diagonal-form representation, optionally conjugated by a unitary.

    The only place a conjugator is checked for unitarity: everything built
    from the representation reads the checked matrix, and `gram_defect`
    keeps that check's ||W W* - I||_F (0.0 without a conjugator).  Every
    operator it wraps reads W* and the row Gram here, so each is formed
    once per representation, at first use.
    """

    rep_space: RepresentationSpace
    conjugator: np.ndarray | None = None
    gram_defect: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.conjugator is not None:
            w = _frozen_matrix(self.conjugator)
            if w.shape[0] != self.rep_space.dimension:
                raise StructureError("conjugator dimension does not match the space")
            object.__setattr__(self, "gram_defect", check_unitary(w))
            object.__setattr__(self, "conjugator", w)

    @cached_property
    def conjugator_adjoint(self) -> np.ndarray:
        """W*, formed at first use and read-only."""
        return _frozen(self.conjugator.conj().T)

    @cached_property
    def row_gram(self) -> np.ndarray:
        """The row Gram diag(W W*), the row sums of W times conj(W), formed at first use and read-only."""
        w = self.conjugator
        return _frozen(np.sum(w * np.conj(w), axis=1))

    @property
    def space(self) -> GridEvolutionSpace:
        return self.rep_space.space

    @property
    def dimension(self) -> int:
        return self.rep_space.dimension

    def _wrap(self, diag: np.ndarray) -> Operator:
        if self.conjugator is None:
            return DiagonalOperator(diag)
        return ConjugatedDiagonalOperator(self, diag)

    def represent(self, f: GridFunction) -> Operator:
        """The action of a function on the full point set, diagonal entry f(x)."""
        if f.subset != self.space.full:
            raise DomainError("represent expects a function over the full time set")
        return self._wrap(f.values.astype(np.complex128))

    def spectral_measure(self, subset=None) -> "SpectralMeasure":
        subset = self.space.full if subset is None else frozenset(subset)
        if not subset <= self.space.full:
            raise DomainError("measure subset contains unknown time labels")
        return SpectralMeasure(self, subset)


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Projection-valued measure over the points of one time subset.

    For the full subset this is the spectral resolution of the diagonal
    representation; for smaller subsets it is the pushforward along
    restriction.  `projection` accepts a set of points over the subset,
    given as linear indices; `diagonals` takes many point sets at once as
    boolean membership rows.
    """

    representation: PureRepresentation
    subset: frozenset

    @property
    def space(self) -> GridEvolutionSpace:
        return self.representation.space

    @property
    def npoints(self) -> int:
        return self.space.npoints(self.subset)

    def diagonals(self, rows: np.ndarray) -> np.ndarray:
        """Boolean diagonals of E(V), one per boolean membership row over points(T).

        Full point x lies in V exactly when its restriction restricted[x] is a
        member, so one gather through the restriction table builds every row.
        The result is C-ordered: BLAS sums in an order that depends on layout.
        """
        rows = np.asarray(rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.npoints:
            raise StructureError(f"membership rows have shape {rows.shape}, expected (m, {self.npoints})")
        return np.take(rows, self.space.restricted_index_array(self.subset), axis=1)

    def projection(self, members: Iterable) -> Operator:
        """Projection onto the basis vectors restricting into V (linear indices): the one-row case of `diagonals`."""
        return self.representation._wrap(self.diagonals(_member_row(self.npoints, members)[None])[0])

    def atom(self, index: int) -> Operator:
        return self.projection([index])

    def total(self) -> Operator:
        return self.projection(range(self.npoints))

    def empty(self) -> Operator:
        return self.projection([])


def pushforward(E: SpectralMeasure, subset) -> SpectralMeasure:
    """Measure over a smaller subset, E composed with restriction preimage."""
    target = frozenset(subset)
    if E.subset != E.space.full:
        raise DomainError("pushforward starts from the measure over the full time set")
    if not target <= E.space.full:
        raise DomainError("pushforward subset contains unknown time labels")
    return SpectralMeasure(E.representation, target)


def integrate_rows(E: SpectralMeasure, values: np.ndarray) -> np.ndarray:
    """Diagonals of the spectral integrals of an (m, npoints(T)) block of value rows, as (m, N).

    The atom b of E is the projection onto the full points restricting to b,
    so an integral's diagonal at a full point x is the row's value at the
    restriction of x: one gather through the restriction table for the whole
    block.  Each full point lies in exactly one atom, so the gather equals
    the sum of value-scaled atoms bit for bit; adding it into zeros keeps
    that sum's 0.0 + (-0.0) = +0.0.  The result is C-ordered complex128.
    The `spectral-sum` check pins the atom-sum identity and `factorization`
    the agreement with `pullback_rows`.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[1] != E.npoints:
        raise StructureError(f"value rows have shape {values.shape}, expected (m, {E.npoints})")
    restricted = E.space.restricted_index_array(E.subset)
    out = np.zeros((values.shape[0], E.space.dimension), dtype=np.complex128)
    out += np.take(values, restricted, axis=1)
    return out


def integrate(f: GridFunction, E: SpectralMeasure) -> Operator:
    """Spectral integral of f against E: the one-row case of `integrate_rows`,
    wrapped as an operator of E's representation."""
    if f.subset != E.subset:
        raise DomainError("function and measure live over different subsets")
    return E.representation._wrap(integrate_rows(E, f.values[None])[0])


def conjugate(u: np.ndarray, rep: PureRepresentation) -> PureRepresentation:
    """The representation f -> u* rep(f) u; constructing it checks u once."""
    if not isinstance(rep, PureRepresentation):
        raise StructureError(f"conjugate acts on representations, not {type(rep).__name__}")
    u = np.asarray(u, dtype=np.complex128)
    return PureRepresentation(rep.rep_space, u if rep.conjugator is None else rep.conjugator @ u)


def theta_represent(f: GridFunction) -> DiagonalOperator:
    """Diagonal action of f on the small space spanned by points(subset)."""
    return DiagonalOperator(f.values.astype(np.complex128))


def theta_projection(space: GridEvolutionSpace, subset, members: Iterable) -> DiagonalOperator:
    """Spectral projection of the small-space action for V subset points(T)."""
    return DiagonalOperator(_member_row(space.npoints(subset), members))


def embed_eta(rep_space: RepresentationSpace, subset, op: DiagonalOperator) -> DiagonalOperator:
    """Embed a small-space diagonal operator into the full space.

    Sends the diagonal entry at a point of the subset to every full point
    restricting to it; unital, injective, norm preserving, and a
    *-homomorphism, all of which the suites check.  Only diagonal input is
    meaningful here; anything else is a domain error.
    """
    space = rep_space.space
    target = frozenset(subset)
    if not isinstance(op, DiagonalOperator):
        raise DomainError("embedding is defined on diagonal operators of the small space")
    if op.dimension != space.npoints(target):
        raise DomainError("operator dimension does not match the subset's point count")
    return DiagonalOperator(pullback_rows(space, target, op.diag[None])[0])


def matrix_element(E: SpectralMeasure, x: int, y: int, members: Iterable) -> complex:
    """Entry <e_x, E(V) e_y> of a measure projection, for basis indices x and y."""
    i, j = int(x), int(y)
    for index in (i, j):
        if not 0 <= index < E.space.dimension:
            raise DomainError(f"basis index {index} out of range")
    return E.projection(members).entry(i, j)
