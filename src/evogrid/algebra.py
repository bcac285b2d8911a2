"""Finite-dimensional W*-algebras and their automorphisms.

An algebra here is a finite direct sum of full complex matrix blocks,

    A = M_{n_1} (+) M_{n_2} (+) ... (+) M_{n_k},

stored blockwise.  The C*-norm of an element is the largest spectral norm
over its blocks, and every normal linear functional is a trace pairing
against a tuple of density matrices, one per block.

Automorphisms of such an algebra are exactly the maps that permute blocks of
equal dimension and conjugate each block by a unitary.  They are stored that
way: a permutation plus one unitary per source block.  A stack of m
automorphisms with one permutation holds an (m, n_i, n_i) stack of unitaries
per block; entry k of the stack axis, just before the matrix axes, is the
k-th automorphism, and `entries()` splits a checked stack into its m
automorphisms without checking them again.  Haar automorphisms are drawn as
such stacks (`WStarAlgebra._haar_blocks`): one complex_matrix draw of m
rows, one phase-normalized QR per block (`rng.haar_qr`), the bits and stream
end state of m `Automorphism.haar` calls, which is its one-entry case.  General linear maps on
the algebra (convex mixtures, trace averaging) appear elsewhere as dense
matrices acting on the coordinate vector; this module only needs them to
expose `algebra` and `apply_blocks`.

`apply_blocks(blocks)` maps per-block arrays of shape (..., n_i, n_i), with
any leading stack axes, to the per-block arrays of their images, so one call
applies a map to a whole stack of elements; `apply(a)` is its one-element
case.  A stack of m automorphisms maps blocks (..., m, n_i, n_i), entry k of
that axis by automorphism k, and composes and inverts entrywise, all by
broadcasting.  Every stack entry goes through the same matrix products as a
single element would, so a stacked image has the bits of the per-element
ones.

`verify_automorphism` measures the four *-automorphism laws, of one map or
of a stack of automorphisms in one pass, and returns their deviations; it
judges nothing.  The verification suites compare them
with the scenario's `tolerances`.

Duality probes are elementary tensors: finite lists of (element, functional)
pairs.  Pairing one against a linear map phi gives the scalar
sum_j g_j(phi(a_j)), the value that separates points of the unit ball of
bounded maps on A in its natural weak topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StructureError
from .rng import SplitMix64, haar_qr, normals, raw_streams

__all__ = [
    "WStarAlgebra",
    "AlgebraElement",
    "NormalFunctional",
    "Automorphism",
    "ElementaryTensor",
    "AutomorphismReport",
    "compose_automorphisms",
    "linear_map_matrix",
    "unitary_defect",
    "verify_automorphism",
    "weakstar_pairing",
]

UNITARY_TOL = 1e-8  # construction-time sanity bound; laws are verified separately


def _star(blocks: np.ndarray) -> np.ndarray:
    """Adjoints of stacked blocks (..., n, n)."""
    return np.conj(blocks).swapaxes(-2, -1)


def unitary_defect(u: np.ndarray, tol: float) -> tuple:
    """||u u* - I||_F of a square u, and a defect <= tol exactly when ||u u* - I||_2 is: the
    Frobenius norm if it accepts, as it bounds the 2-norm above, else one SVD, or inf for a
    Gram that is not finite, on which the SVD would not converge.

    Floats for one matrix; for a stack u (m, n, n), two arrays of m, one pair per entry,
    each with the bits of that entry's own call.
    """
    n = u.shape[-1]
    gram = (u @ _star(u) - np.eye(n)).reshape(-1, n, n)
    # np.linalg.norm's Frobenius norm is sqrt(re.re + im.im) by two BLAS dots; a row
    # times a column is that dot on a stack too
    flat = gram.reshape(-1, 1, n * n)
    sq = flat.real @ flat.real.swapaxes(-2, -1) + flat.imag @ flat.imag.swapaxes(-2, -1)
    frobenius = np.sqrt(sq[:, 0, 0])
    defect = frobenius.copy()
    for k in np.flatnonzero(~(frobenius <= tol)):
        defect[k] = np.linalg.norm(gram[k], 2) if np.isfinite(frobenius[k]) else np.inf
    if u.ndim == 2:
        return float(frobenius[0]), float(defect[0])
    return frobenius, defect


def _frozen_matrix(m, dim: int | None = None, stacked: bool = False) -> np.ndarray:
    """A read-only C-ordered complex copy of a square matrix, or with `stacked`
    also of a stack (m, n, n) of them."""
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim not in ((2, 3) if stacked else (2,)) or a.shape[-2] != a.shape[-1]:
        raise StructureError(f"expected a square matrix, got shape {a.shape}")
    if dim is not None and a.shape[-1] != dim:
        raise StructureError(f"expected a {dim}x{dim} block, got {a.shape[-2]}x{a.shape[-1]}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class WStarAlgebra:
    """Direct sum of full matrix blocks, identified by its block dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if not dims or any(n < 1 for n in dims):
            raise StructureError("block dimensions must be a nonempty tuple of positive integers")
        object.__setattr__(self, "block_dims", dims)

    @property
    def nblocks(self) -> int:
        return len(self.block_dims)

    @property
    def dimension(self) -> int:
        """Linear dimension sum of n_i^2, the length of coordinate vectors."""
        return sum(n * n for n in self.block_dims)

    def element(self, blocks: Sequence) -> "AlgebraElement":
        if len(blocks) != self.nblocks:
            raise StructureError(f"expected {self.nblocks} blocks, got {len(blocks)}")
        mats = tuple(_frozen_matrix(b, n) for b, n in zip(blocks, self.block_dims))
        return AlgebraElement(self, mats)

    def _join(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates of stacked blocks (..., n, n), along the last axis."""
        return np.concatenate([b.reshape(*b.shape[:-2], b.shape[-1] ** 2) for b in blocks], axis=-1)

    def _split(self, v: np.ndarray) -> list[np.ndarray]:
        """The n x n blocks of vectors of length `dimension` along the last
        axis, row-major, in order; leading axes stay stack axes."""
        blocks, k = [], 0
        for n in self.block_dims:
            blocks.append(v[..., k : k + n * n].reshape(*v.shape[:-1], n, n))
            k += n * n
        return blocks

    def _random_blocks(self, rng: SplitMix64, scale: float, count: int) -> list[np.ndarray]:
        """Per-block stacks of `count` random elements.  One draw for all of
        them: the same stream as a complex_matrix per block of each element
        in turn, so entry k has the bits of the k-th `random_element` call."""
        return self._split(rng.complex_matrix(count, self.dimension) * scale)

    def _haar_blocks(self, rng: SplitMix64, count: int) -> list[np.ndarray]:
        """Per-block stacks (count, n, n) of the unitaries of `count` Haar
        automorphisms: one complex_matrix(count, dimension) draw, split per
        block, one `haar_qr` per block.  Entry k has the bits of the k-th of
        `count` `Automorphism.haar` calls, and the stream ends where theirs does."""
        return [haar_qr(g) for g in self._split(rng.complex_matrix(count, self.dimension))]

    def random_element(self, rng: SplitMix64, scale: float = 1.0) -> "AlgebraElement":
        """Blocks with independent scaled complex Gaussian entries."""
        return self.element([b[0] for b in self._random_blocks(rng, scale, 1)])

    def _own(self, a: "AlgebraElement") -> None:
        if a.algebra != self:
            raise StructureError("element belongs to a different algebra")

    def _own_blocks(self, blocks: Sequence[np.ndarray]) -> None:
        """Require one stack of n x n blocks per block of this algebra."""
        if len(blocks) != self.nblocks or any(b.shape[-2:] != (n, n) for b, n in zip(blocks, self.block_dims)):
            raise StructureError(f"expected stacks of blocks of dimensions {self.block_dims}")


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Immutable element of a block algebra; arithmetic is blockwise."""

    algebra: WStarAlgebra
    blocks: tuple[np.ndarray, ...]

    def _check_peer(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise StructureError("operands live in different algebras")

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_peer(other)
        return self.algebra.element([x - y for x, y in zip(self.blocks, other.blocks)])

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Algebra product, blockwise matrix multiplication."""
        self._check_peer(other)
        return self.algebra.element([x @ y for x, y in zip(self.blocks, other.blocks)])

    def star(self) -> "AlgebraElement":
        """Adjoint, conjugate transpose on every block."""
        return self.algebra.element([b.conj().T for b in self.blocks])

    def norm(self) -> float:
        """C*-norm: the largest spectral norm over the blocks."""
        return float(_cstar_norms(self.blocks))


@dataclass(frozen=True, eq=False)
class NormalFunctional:
    """Normal functional a |-> sum_i trace(rho_i a_i) with one density per block."""

    algebra: WStarAlgebra
    densities: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(
            _frozen_matrix(d, n) for d, n in zip(self.densities, self.algebra.block_dims)
        )
        if len(self.densities) != self.algebra.nblocks:
            raise StructureError("one density matrix per block is required")
        object.__setattr__(self, "densities", mats)

    def __call__(self, a: AlgebraElement) -> complex:
        self.algebra._own(a)
        return complex(_trace_pairings(self.densities, a.blocks))


def _trace_pairings(densities: Sequence[np.ndarray], blocks: Sequence[np.ndarray]):
    """sum_i trace(rho_i a_i) per entry of stacked densities and blocks
    (..., n_i, n_i).  The sum starts from the int 0, which turns a -0.0 into
    +0.0, so an entry has the bits of a `NormalFunctional` call."""
    return sum(np.trace(d @ b, axis1=-2, axis2=-1) for d, b in zip(densities, blocks))


def _cstar_norms(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """C*-norms of stacked elements: per stack entry, the largest spectral
    norm over the blocks, from one stacked SVD per block."""
    return np.max([np.linalg.norm(b, 2, axis=(-2, -1)) for b in blocks], axis=0)


def _identity_perm(k: int) -> tuple[int, ...]:
    return tuple(range(k))


@dataclass(frozen=True, eq=False)
class Automorphism:
    """Block permutation combined with per-block unitary conjugation.

    Block i of the argument is conjugated by `unitaries[i]` and lands in
    block `perm[i]` of the result; the permutation may only connect blocks
    of equal dimension.  With unitaries of shape (m, n_i, n_i) the object is
    a stack of m automorphisms sharing `perm` (module docstring).
    """

    algebra: WStarAlgebra
    unitaries: tuple[np.ndarray, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        dims = self.algebra.block_dims
        perm = tuple(int(p) for p in self.perm)
        if sorted(perm) != list(range(len(dims))):
            raise StructureError("perm is not a permutation of the block indices")
        if any(dims[i] != dims[p] for i, p in enumerate(perm)):
            raise StructureError("perm may only connect blocks of equal dimension")
        if len(self.unitaries) != len(dims):
            raise StructureError("one unitary per block is required")
        mats = tuple(_frozen_matrix(u, n, stacked=True) for u, n in zip(self.unitaries, dims))
        if len({u.shape[:-2] for u in mats}) != 1:
            raise StructureError("every block needs a stack of unitaries of the same length")
        for u in mats:
            if not np.isfinite(u).all():
                raise StructureError("block matrix has non-finite entries")
            defect = np.atleast_1d(unitary_defect(u, UNITARY_TOL)[1])
            bad = np.flatnonzero(defect > UNITARY_TOL)
            if bad.size:
                raise StructureError(f"block matrix is not unitary (defect {defect[bad[0]]:.2e})")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "unitaries", mats)

    @property
    def stack(self) -> tuple[int, ...]:
        """() for one automorphism, (m,) for a stack of m."""
        return self.unitaries[0].shape[:-2]

    @classmethod
    def identity(cls, algebra: WStarAlgebra) -> "Automorphism":
        return cls(algebra, tuple(np.eye(n) for n in algebra.block_dims), _identity_perm(algebra.nblocks))

    @classmethod
    def conjugation(cls, algebra: WStarAlgebra, unitaries: Sequence, perm: Sequence[int] | None = None) -> "Automorphism":
        if perm is None:
            perm = _identity_perm(algebra.nblocks)
        return cls(algebra, tuple(unitaries), tuple(perm))

    @classmethod
    def haar(cls, algebra: WStarAlgebra, rng: SplitMix64) -> "Automorphism":
        """Trivial permutation, independent Haar unitary on every block: the
        one-entry case of `WStarAlgebra._haar_blocks`."""
        return cls.conjugation(algebra, [u[0] for u in algebra._haar_blocks(rng, 1)])

    def entries(self) -> tuple["Automorphism", ...]:
        """The automorphisms of a stack, in order: entry k holds read-only views of
        entry k of the unitary stacks and shares `perm`.  The stack checked every
        entry when it was built, so no entry is checked again."""
        out = []
        for k in range(self.stack[0]):
            alpha = object.__new__(Automorphism)
            object.__setattr__(alpha, "algebra", self.algebra)
            object.__setattr__(alpha, "unitaries", tuple(u[k] for u in self.unitaries))
            object.__setattr__(alpha, "perm", self.perm)
            out.append(alpha)
        return tuple(out)

    def apply_blocks(self, blocks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Images of stacked blocks (..., n_i, n_i): block i, conjugated by
        `unitaries[i]`, lands in block `perm[i]`."""
        self.algebra._own_blocks(blocks)
        out: list[np.ndarray | None] = [None] * self.algebra.nblocks
        for i, (u, b) in enumerate(zip(self.unitaries, blocks)):
            out[self.perm[i]] = u @ b @ _star(u)
        return out

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        self.algebra._own(a)
        return self.algebra.element(self.apply_blocks(a.blocks))

    def inverse(self) -> "Automorphism":
        k = self.algebra.nblocks
        inv_perm = [0] * k
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        # block m of the inverse is conjugated by the adjoint of the unitary
        # that produced it, then sent back where it came from
        unitaries = tuple(_star(self.unitaries[inv_perm[m]]) for m in range(k))
        return Automorphism(self.algebra, unitaries, tuple(inv_perm))


def compose_automorphisms(alpha: Automorphism, beta: Automorphism) -> Automorphism:
    """The automorphism a |-> alpha(beta(a))."""
    if alpha.algebra != beta.algebra:
        raise StructureError("cannot compose automorphisms of different algebras")
    perm = tuple(alpha.perm[q] for q in beta.perm)
    unitaries = tuple(alpha.unitaries[beta.perm[i]] @ beta.unitaries[i] for i in range(alpha.algebra.nblocks))
    return Automorphism(alpha.algebra, unitaries, perm)


def linear_map_matrix(phi) -> np.ndarray:
    """Dense coordinate matrix of any linear map exposing algebra/apply_blocks.

    Column j is the image of the j-th coordinate basis element; the whole
    basis is applied as one stack.  A stack of m automorphisms gives the
    (m, d, d) stack of its entries' matrices.
    """
    algebra = phi.algebra
    d = algebra.dimension
    stack = phi.stack if isinstance(phi, Automorphism) else ()
    basis = np.eye(d, dtype=np.complex128).reshape(d, *(1,) * len(stack), d)
    images = algebra._join(phi.apply_blocks(algebra._split(basis)))
    return np.ascontiguousarray(np.moveaxis(images, 0, -1))


@dataclass(frozen=True)
class AutomorphismReport:
    """Max deviation per automorphism law over the sampled elements."""

    multiplicative: float
    star_preserving: float
    unital: float
    isometric: float
    samples: int


def verify_automorphism(phi, sample_count: int = 20, seed: int | Sequence[int] = 0) -> AutomorphismReport:
    """Measure the *-automorphism laws on seeded random elements.

    `phi` may be any linear map exposing `algebra` and `apply_blocks`; maps
    that are not automorphisms (e.g. trace averaging) show up as a large
    deviation in the report rather than as an exception.

    Sample k of a seed is the pair (a_k, b_k) of rows 2k and 2k + 1 of one
    draw of 2 * sample_count elements, the stream of that many
    `random_element` calls, and the draws of all seeds are one read of their
    substreams.  A stack of m automorphisms takes m seeds and judges entry k
    on the samples of seed k; the report holds each law's largest deviation
    over the stack.  Per block, a, b, ab, a* and the identity go through
    `phi` as one stack, and the four laws are judged from one stacked
    spectral norm.
    """
    algebra = phi.algebra
    s = sample_count
    seeds = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    z = np.empty((len(seeds), 2 * s, algebra.dimension), dtype=np.complex128)
    normals(raw_streams(seeds, [4 * s * algebra.dimension] * len(seeds)), z.reshape(-1))
    stacks = []  # per block: a, b, ab and a* (s entries each), then 1; axis 1 is the seed
    # random_element's scale of 1.0, a complex product that can flip a zero's sign
    for n, blocks in zip(algebra.block_dims, algebra._split(z * 1.0)):
        x = np.ascontiguousarray(blocks.swapaxes(0, 1))
        a, b = x[0::2], x[1::2]
        one = np.broadcast_to(np.eye(n, dtype=np.complex128), (1, *x.shape[1:]))
        stacks.append(np.concatenate([a, b, a @ b, _star(a), one]))
    # per block, what the laws take norms of: phi(ab) - phi(a)phi(b),
    # phi(a*) - phi(a)*, phi(a) and a (s entries each), then phi(1) - 1
    laws = []
    for x, y in zip(stacks, phi.apply_blocks(stacks)):
        pa, pb, pab, pstar, pone = np.split(y, [s, 2 * s, 3 * s, 4 * s])
        laws.append(np.concatenate([pab - pa @ pb, pstar - _star(pa), pa, x[:s], pone - x[4 * s :]]))
    norms = _cstar_norms(laws)
    mult, star, image, source = np.split(norms[:-1], 4)
    return AutomorphismReport(
        multiplicative=float(np.max(mult, initial=0.0)),
        star_preserving=float(np.max(star, initial=0.0)),
        unital=float(np.max(norms[-1])),
        isometric=float(np.max(np.abs(image - source), initial=0.0)),
        samples=sample_count,
    )


@dataclass(frozen=True, eq=False)
class ElementaryTensor:
    """Finite list of (element, functional) pairs used as a duality probe."""

    algebra: WStarAlgebra
    pairs: tuple[tuple[AlgebraElement, NormalFunctional], ...]

    def __post_init__(self):
        for a, g in self.pairs:
            if a.algebra != self.algebra or g.algebra != self.algebra:
                raise StructureError("tensor pairs must live in the declared algebra")


def weakstar_pairing(phi, tensor: ElementaryTensor) -> complex:
    """Duality value sum_j g_j(phi(a_j)) of a linear map against a probe."""
    if phi.algebra != tensor.algebra:
        raise StructureError("map and tensor live over different algebras")
    total = 0.0 + 0.0j
    for a, g in tensor.pairs:
        total += g(phi.apply(a))
    return total
