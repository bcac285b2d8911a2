"""The unitaries that action weights integrate to.

An action weight assigns to every admissible time subset T a unimodular
function u_T on the points over T, subject to two laws: u_T is identically
one whenever T has measure zero, and for measure-disjoint T1, T2 the weight
of the union factors pointwise through restriction,

    u_{T1 u T2}(x|_{T1 u T2}) = u_{T1}(x|_{T1}) * u_{T2}(x|_{T2}).

Integrating u_T against the spectral measure over T yields one unitary U_T
per admissible subset, whose diagonal is u_T pulled back along restriction.
A weight keeps those diagonals as its `stack`, which every law below reads;
`evolution_unitary` integrates one subset.  The factorization
law above turns into the group law U_{T1} U_{T2} = U_{T1 u T2} for
measure-disjoint subsets; both range over the frame's `disjoint_pairs()`.
All of these unitaries commute within one representation, and conjugating the
representation conjugates every U_T along with it.  Each of those statements
is a check in the verification suites, not an assumption; the covariance
under conjugation is the suites' `conjugated-dynamics` check.
`validate_action_weight` measures deviations and judges nothing; the suites
compare them with the scenario's `tolerances`.
`commutant_witness` bounds the commutators across a conjugation, which a
scenario judges only when it sets a `witness_threshold`; without one the
suites form no witness and record an unjudged 0.0.

The module also names the real-valued post-maps g_t of the probe-difference
Lagrangian that scenarios build, L_t(alpha) = g_t(f_t(alpha_t - tau_t)) with
f_t an elementary tensor and tau_t a reference grid map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

from .errors import DataError, DomainError, StructureError
from .evolution import GridEvolutionSpace, GridFunction, pullback_family
from .representation import ConjugatedDiagonalOperator, Operator, PureRepresentation, _frozen, integrate
from .rng import SplitMix64, derive_seed

__all__ = [
    "ActionWeight",
    "ActionWeightReport",
    "CommutantReport",
    "validate_action_weight",
    "evolution_unitary",
    "commutant_witness",
    "resolve_g",
]

WITNESS_POWER_STEPS = 8  # power steps on A*A behind each witness lower bound
_WITNESS_START_SEED = derive_seed(0, "commutant-witness")  # fixed start block of the power steps
_UNIT_ROUNDOFF = 2.0**-53
PAIR_ENTRIES = 1 << 16  # stack entries each `_pair_max` operand holds at most, 1 MiB of complex128

# real-valued post-maps applied to probe values; fixed, because a scenario's
# fingerprint records only the name
_G_REGISTRY: dict[str, Callable[[complex], float]] = {
    "abs": lambda z: abs(z),
    "abs2": lambda z: abs(z) ** 2,
    "re": lambda z: z.real,
}


def nan_max(*values: float) -> float:
    """The largest value, or NaN when any value is NaN.

    Built-in `max` keeps its running value whenever a comparison with NaN is
    false, so a NaN deviation after the first vanishes from the maximum.
    Without NaN this returns exactly what `max` returns.
    """
    worst = values[0]
    for value in values[1:]:
        if value > worst or value != value:
            worst = value
    return worst


def _chunk_rows(stack: np.ndarray) -> int:
    """Stack rows per chunk: at most PAIR_ENTRIES entries, one row when a row is larger."""
    return max(PAIR_ENTRIES // max(math.prod(stack.shape[1:]), 1), 1)


def _pair_max(stack: np.ndarray, table: np.ndarray, law: Callable[..., np.ndarray]) -> float:
    """The largest modulus of law(stack[i], stack[j], ...) over the rows (i, j, ...) of `table`, 0.0 for none.

    The table is read `_chunk_rows(stack)` rows at a time, so each operand
    holds at most PAIR_ENTRIES stack entries (one row's worth when a row is
    larger); a maximum does not depend on the chunking, and a NaN reaches it
    through `nan_max`.
    """
    worst = 0.0
    step = _chunk_rows(stack)
    for start in range(0, len(table), step):
        worst = nan_max(worst, float(np.max(np.abs(law(*stack[table[start : start + step].T])))))
    return worst


def resolve_g(spec) -> Callable[[complex], float]:
    """Accepts a post-map name or a mapping {name, scale, offset}."""
    if isinstance(spec, str):
        try:
            return _G_REGISTRY[spec]
        except KeyError:
            raise DomainError(f"unknown post-map {spec!r}") from None
    if isinstance(spec, Mapping):
        if "name" not in spec:
            raise DomainError(f"post-map spec {dict(spec)!r} has no name")
        extra = set(spec) - {"name", "scale", "offset"}
        if extra:
            raise DomainError(f"post-map spec has unknown keys {sorted(extra)}")
        base = resolve_g(spec["name"])
        try:
            scale = float(spec.get("scale", 1.0))
            offset = float(spec.get("offset", 0.0))
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"post-map scale and offset must be numbers, got {dict(spec)!r}") from None
        return lambda z: scale * base(z) + offset
    raise DomainError(f"cannot interpret post-map spec {spec!r}")


@dataclass(frozen=True, eq=False, init=False)
class ActionWeight:
    """One unimodular function per admissible subset, stored extensionally in one flat table.

    `values` is a read-only flat family table (`GridEvolutionSpace.family_offsets`):
    u_T for each T of `domain()` in turn, one complex value per point in
    linear-index order, and `function(T)` wraps T's slice.  The constructor
    takes one `GridFunction` per admissible subset, checks the family and
    flattens them; `weight_from_lagrangian` hands over its table as it is.
    Both reach one storage path that checks the values are finite.
    """

    space: GridEvolutionSpace
    values: np.ndarray

    def __init__(self, space: GridEvolutionSpace, functions: Mapping[frozenset, GridFunction]):
        frame = space.frame
        table = {frozenset(k): v for k, v in dict(functions).items()}
        for subset, f in table.items():
            if not frame.is_admissible(subset):
                raise DomainError(f"weight defined on inadmissible subset {sorted(map(str, subset))}")
            if f.space is not space or f.subset != subset:
                raise StructureError("weight function does not match its subset")
        missing = set(frame.admissible()) - set(table)
        if missing:
            names = sorted(sorted(map(str, s)) for s in missing)
            raise StructureError(f"weight missing admissible subsets: {names}")
        self._adopt(space, np.concatenate([np.empty(0, np.complex128), *(table[s].values for s in frame.admissible())]))

    @classmethod
    def _stored(cls, space: GridEvolutionSpace, values: np.ndarray) -> "ActionWeight":
        """A weight over a flat family table of complex values that no caller holds, kept, not copied."""
        weight = object.__new__(cls)
        weight._adopt(space, values)
        return weight

    def _adopt(self, space: GridEvolutionSpace, values: np.ndarray) -> None:
        """The one storage path: check the table is finite, naming the first subset
        whose function is not, and keep it read-only."""
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            subset, _ = space.locate(bad[0])
            raise DataError(f"weight on subset {sorted(map(str, subset))} has non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "values", values)

    def domain(self) -> tuple[frozenset, ...]:
        return self.space.frame.admissible()

    def function(self, subset) -> GridFunction:
        i = self.space.frame.index(subset)  # raises DomainError off the admissible family
        lo, hi = self.space.family_offsets()[i : i + 2]
        return GridFunction(self.space, self.domain()[i], self.values[lo:hi])

    @cached_property
    def stack(self) -> np.ndarray:
        """Read-only (m, N) diagonals of U_T, a row per subset of `domain()`, formed at first read:
        `values` gathered through the restriction table by `pullback_family`, then added to
        zeros as `integrate_rows` does, with the bits of `evolution_unitary(self, T, rep).diag`."""
        stack = pullback_family(self.space, self.values)
        stack += 0.0  # as a sum into zeros: -0.0 becomes +0.0
        return _frozen(stack)


@dataclass(frozen=True)
class ActionWeightReport:
    """Max deviation per action-weight law."""

    unimodular: float
    cocycle: float
    null_subset: float
    pairs_checked: int


def validate_action_weight(weight: ActionWeight) -> ActionWeightReport:
    """Measure unimodularity, the null-subset law, and the cocycle law.

    Every law reads the weight's `stack`, whose row holds every value of its
    function, as restriction is onto; the cocycle law is checked on every
    full-set point for every pair of the frame's `disjoint_pairs()`.
    """
    stack, frame = weight.stack, weight.space.frame
    unimodular = _pair_max(stack, np.arange(len(stack))[:, None], lambda rows: np.abs(rows) - 1.0)
    null_subset = float(np.max(np.abs(stack[frame.null_subsets()] - 1.0), initial=0.0))
    pairs = frame.disjoint_pairs()
    cocycle = _pair_max(stack, pairs, lambda t1, t2, union: union - t1 * t2)
    return ActionWeightReport(unimodular, cocycle, null_subset, len(pairs))


def evolution_unitary(weight: ActionWeight, subset, rep: PureRepresentation) -> Operator:
    """Integrate the subset's weight function against its spectral measure."""
    f = weight.function(subset)  # raises DomainError off the admissible family
    return integrate(f, rep.spectral_measure(f.subset))


@dataclass(frozen=True, eq=False)
class CommutantReport:
    """The commutant witness, an interval.

    `witness` is the largest certified lower bound on a cross-representation
    commutator's 2-norm and `witness_upper` the largest upper bound, so every
    commutator's norm lies below `witness_upper` and the largest one lies in
    between.
    """

    witness: float
    witness_upper: float
    witness_pair: tuple


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff of float64."""
    nu = n * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _commutators(t: np.ndarray, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Column j is [diag(p_j), t] x_j = p_j * (t x_j) - t (p_j * x_j), from one GEMM."""
    k = x.shape[1]
    both = t @ np.concatenate((x, p * x), axis=1)
    return p * both[:, :k] - both[:, k:]


def _commutator_lower_bounds(t: np.ndarray, p: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Certified lower bounds on ||[diag(q), t]||_2, one per column q of p.

    `WITNESS_POWER_STEPS` power steps on A*A, A = [diag(q), t], from the
    columns of `start`; A* is the commutator of conj(q) with t*, up to a
    sign the normalization absorbs.  ||A x|| / ||x|| <= ||A||_2 holds for
    every x, so rounding in the steps only costs tightness.  The last
    ratio is lowered by an a-priori allowance and floored at 0, so a
    commuting pair gives 0.0 and a column that reaches zero does not
    divide into NaN.  The allowance, 8 gamma_{2N+8} max|q| ||t||_F,
    covers the computed A x, within 2 sqrt(2) gamma_{2N+2} max|q| |t||x|
    of the exact one entrywise (complex products, length-N sums), the two
    norms and the division, a relative gamma_{2N+8} of a ratio at most
    2 max|q| ||t||_F, and the final subtraction.
    """
    adjoint, conj = t.conj().T, p.conj()
    x = start
    for _ in range(WITNESS_POWER_STEPS):
        x = _commutators(adjoint, conj, _commutators(t, p, x))
        scale = np.linalg.norm(x, axis=0)
        x = x / np.where(scale > 0.0, scale, 1.0)
    image, scale = np.linalg.norm(_commutators(t, p, x), axis=0), np.linalg.norm(x, axis=0)
    ratio = np.divide(image, scale, out=np.zeros_like(image), where=scale > 0.0)
    allowance = 8.0 * _gamma(2 * t.shape[0] + 8) * np.max(np.abs(p), axis=0) * np.linalg.norm(t)
    return np.maximum(ratio - allowance, 0.0)


def _commutator_upper_bounds(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Upper bounds ||[diag(q), t]||_F >= ||[diag(q), t]||_2, one per column q of p.

    With M = |t|^2 entrywise and a = |q|^2, the squared Frobenius norm
    sum_ij |q_i - q_j|^2 M_ij is a.(M 1) + a.(M^T 1) - 2 Re(q . (M conj q)),
    and one real GEMM of width 2k gives M conj(q) for every column.  Each
    term is at most S = a.(M 1) + a.(M^T 1), so 4 gamma_{3N+8} S, added
    before the square root, covers the rounding of the sum and of the root.
    """
    m = t.real**2 + t.imag**2
    a = p.real**2 + p.imag**2
    s = m.sum(axis=1) @ a + m.sum(axis=0) @ a
    cross = (m @ np.conj(p).view(np.float64)).view(np.complex128)
    square = s - 2.0 * np.sum((p * cross).real, axis=0)
    return np.sqrt(np.maximum(square, 0.0) + 4.0 * _gamma(3 * t.shape[0] + 8) * s)


def commutant_witness(
    weight: ActionWeight, rep: PureRepresentation, conjugated: PureRepresentation
) -> CommutantReport:
    """Bounds on the commutators between the two representations' unitaries.

    `rep` must be unconjugated and `conjugated` conjugated by a unitary W,
    which that representation checked when it was built.  The witness bounds
    the largest commutator norm between a unitary of the original
    representation and one of the conjugated representation: a strictly
    positive lower bound exhibits an operator outside the commutant of the
    conjugated family.  Both sides read `weight.stack`: each conjugated
    unitary is its row wrapped in `conjugated` and built dense once; the
    bounds for every original unitary come from batched products with it
    (`_commutator_lower_bounds`, `_commutator_upper_bounds`).  The witness
    pair is the first maximal lower bound with the original subset varying
    slowest.  Without subsets there is no commutator: 0.0, 0.0 and ().
    """
    if rep.conjugator is not None or conjugated.conjugator is None:
        raise StructureError("commutant_witness compares an unconjugated representation with a conjugated one")
    domain, stack = weight.domain(), weight.stack
    if not domain:
        return CommutantReport(0.0, 0.0, ())
    p = np.ascontiguousarray(stack.T)  # C order: the upper bounds view it as float64 pairs
    start = SplitMix64(_WITNESS_START_SEED).complex_matrix(rep.dimension, len(domain))
    lower = np.empty((len(domain), len(domain)))  # [s1, s2]
    upper = np.empty_like(lower)
    # one twisted dense matrix live at a time, read by the bounds of every commutator with it
    for i2, row in enumerate(stack):
        t2 = ConjugatedDiagonalOperator(conjugated, row).to_dense()
        lower[:, i2] = _commutator_lower_bounds(t2, p, start)
        upper[:, i2] = _commutator_upper_bounds(t2, p)
    # argmax of the row-major table: the first maximum in s1-major order
    best = np.unravel_index(np.argmax(lower), lower.shape)
    witness_pair = tuple(tuple(map(str, weight.space.frame.ordered(domain[i]))) for i in best)
    return CommutantReport(float(lower[best]), float(np.max(upper)), witness_pair)
