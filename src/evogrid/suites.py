"""Verification suites: every structural law as an executable check.

A check computes a max deviation and compares it against a tolerance from
the scenario; the library's verifiers only measure, and this module is the
one place that judges.  A report is the list of check records plus a
summary.  All sampling inside checks derives from the scenario seed through
labeled substreams, and all iteration orders are fixed, so a report body is
a pure function of the effective config and the BLAS configuration: a Haar
conjugator, and with it every conjugated value, rounds differently under a
different BLAS thread count.  Runtimes are recorded per check but kept out
of the report body so that identical runs produce identical bytes.  A
function that judges several checks is timed once and its time is split
evenly among their records; the timings appendix lists those groups as
`shared`.  The dynamics suite reads the weight's `stack` of unconjugated
unitaries and the Lagrangian suite pulls back the Lagrangian's table of
actions, which built the weight at load: (m, N) stacks with a row per
admissible subset that several laws read.  The cocycle law
of `validate_action_weight`, which `group-law` reports, and
`action-additivity` are one `_pair_max` each over that stack and the
frame's `disjoint_pairs()`; `null-unitary` reports its null-subset law, and
the other unitary laws read the stack as one direct-sum `DiagonalOperator`,
whose norm is the largest of the rows' norms: `commutation` is one product
of the neighbour stacks u[:-1] and u[1:], the m - 1 pairs (i, i + 1).
Every entry is the per-pair arithmetic bit for bit.

The algebra suite draws each check's Haar automorphisms at once: one
`complex_matrix` of all rounds from the check's substream, in the order the
per-round `Automorphism.haar` and `random_element` calls took them, and
one `haar_qr` per block, so the samples have those calls' bits.  The
automorphisms of a check are one stacked `Automorphism`; its laws are
judged with stacked products and one stacked spectral norm per block.
Pairing sums start where `NormalFunctional` and `weakstar_pairing` start
theirs, from the int 0 and from 0.0 + 0.0j, which turn a -0.0 into +0.0, and
the scalar tails are the per-sample expressions on Python numbers, so a
record has the bits of the per-sample loop.

A check that samples from a labeled substream per subset reads them all
at once through `_reads`, the one caller of `rng.raw_streams`, in runs of
the subsets whose draws start within 2 `READ_NORMALS` words of each other
(one run unless the family is large), and a draw whose count depends on an
earlier draw is read at its largest count and walked in the scalar draws'
order.  So `pushforward`, `injectivity-subsets` and `embedding-measure`
read their point sets, and `spectral-sum`, `factorization` and `embedding`
their S random functions, with one `normals` call per run and the bits of
a `complex_matrix(S, npoints)` per subset.  `matrix-elements` parses each
subset's words as Python ints: 20 samples of a count c, c members and a
basis point x, each read as the diagonal entry (x, x).  Measures
are read through two gathers, `diagonals` and `integrate_rows`, each
through the subset's row of the space's restriction table.  One walk of
the family judges `pvm-axioms`, `pushforward`, `pushforward-rank` and
`spectral-sum` on each subset's atoms, the rows of one `diagonals(np.eye(k))`
table: its row sums are the ranks, each column must hold exactly one 1
(`pvm-axioms`' pair laws over every pair of atoms), and `spectral-sum`'s
oracle takes each full point's value from the atom holding it, the bits of
the ascending-b sum of value-scaled atoms, which a column in no atom or in
several (a broken measure) takes itself.  The empty and total sets are two
rows of one gather.  A gather selects columns row by row, which keeps every
other pair law, so `pvm-axioms` samples no pairs and reads no substream.
`index-roundtrip` compares every row of the table, and `pushforward` and
`matrix-elements` the gathers, with an oracle image: `np.unravel_index`
digits raveled again by `np.ravel_multi_index`, never reading the table.
The injectivity checks count distinct 0/1 diagonals with `np.unique`.

The conjugation checks read g = ||G||_F of the Gram defect G = W W* - I,
kept when the conjugator W was checked.  A conjugated projection is
P = W* D W with an exact 0/1 diagonal D, so each law's defect is an
expression in G: E'(V1)E'(V2) - E'(V1 n V2) = W* D1 G D2 W and
P^2 - P = W* D G D W are at most ||W||_2^2 ||G||_2 <= (1 + g) g for every
pair over every subset, and tr P - rank P = sum_i d_i G_ii.  The bounds are
exact functions of the computed G; they do not enclose the rounding made
while forming G or a dense matrix (README, "Report format").
`conjugation-covariance` compares sampled columns, read with `columns`,
entries, read with `entry` on index arrays, and traces of conjugated
operators with W* (d * W e_j) formed from the unconjugated diagonal d and
the check's own W*.  Every subset's samples are read at once, parsed one
sample row at a time across all subsets with array operations, and their
functions drawn by one `normals` call.  A subset's five projections and
five integrals are ten diagonals, gathered for a chunk of subsets in one
take through their rows of the restriction table, added into zeros as
`integrate_rows` adds its gather through the plain measure; the
conjugated operators are that (10 c, N) stack wrapped in the conjugated
representation, which holds the W* and row Gram they read: the conjugated
measure's gather never reads the representation, so it would give the
same bits.  Each stack row reads its subset's columns and entries, so each
side reads the chunk's columns in one W* product of width 40 c.  A chunk
holds the subsets whose diagonals fit in PAIR_ENTRIES entries, at least
one: the whole family up to 10 m N <= 2^16 (every benchmark workload, and
12 one-point times), one subset at N = 4,096.
`conjugated-dynamics` is the same covariance for the evolution unitaries:
the weight's stack, a row per subset, wrapped the same way and read
on a fixed spread of four columns in one W* product of width 4m, against
the same product of that stack and the check's own W*; no check forms a
dense matrix.  The commutant witness is
formed only for a scenario with a `witness_threshold`, which judges its
certified lower bound; without one, `commutant-witness` records an
unjudged 0.0.  Running maxima go through `nan_max`, so a NaN deviation
reaches the runner, which aborts.

Check identifiers are stable strings; each record also carries a short law
tag (T3.2, C3.3, ...) used to group related identities across suites.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from itertools import accumulate, compress, pairwise
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import (
    Automorphism,
    _cstar_norms,
    _star,
    _trace_pairings,
    compose_automorphisms,
    linear_map_matrix,
    verify_automorphism,
)
# no check calls evolution_unitary; evobench/test_evobench.py reads this binding as its `from` import example
from .dynamics import _chunk_rows, _pair_max, commutant_witness, evolution_unitary, nan_max, validate_action_weight  # noqa: F401
from .errors import DomainError
from .evolution import CONTRACTION_TOL, contraction_norm_estimate, named_contraction, pullback_family, pullback_rows
from .lagrangian import verify_lagrangian
from .representation import (
    ConjugatedDiagonalOperator,
    DiagonalOperator,
    conjugated_columns,
    embed_eta,
    identity_operator,
    integrate_rows,
    pushforward,
)
from .rng import SplitMix64, derive_seed, derive_seeds, haar_qr, normals, raw_streams
from .scenario import Scenario

__all__ = ["CheckRecord", "VerificationReport", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = ("algebra", "spectral", "conjugation", "dynamics", "lagrangian")

EXHAUSTIVE_SETS = 64  # `pushforward` and `embedding-measure` read every point set of a subset with at most this many
COVARIANCE_COLUMNS = 4  # columns each covariance comparison reads of a conjugated operator
READ_NORMALS = 1 << 16  # a read covers the draws that start within 2 READ_NORMALS words, this many normals' words
LIPSCHITZ_PAIRS = 2000  # `action-lipschitz` samples this many point pairs of a subset with more


@dataclass(frozen=True)
class CheckRecord:
    check: str
    theorem: str
    max_deviation: float
    tolerance: float
    passed: bool
    runtime: float  # seconds; never serialized into the report body

    def body_dict(self) -> dict:
        return {
            "check": self.check,
            "theorem": self.theorem,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    scenario_name: str
    fingerprint: str
    seed: int
    suites: tuple[str, ...]
    records: tuple[CheckRecord, ...]
    # checks timed by one call, whose runtimes are that call's time split evenly
    shared: tuple[tuple[str, ...], ...] = ()

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def summary_dict(self) -> dict:
        return {
            "summary": True,
            "scenario": self.scenario_name,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "suites": list(self.suites),
            "checks": len(self.records),
            "failed": sum(not r.passed for r in self.records),
            "pass": self.overall_pass,
        }

    def body_lines(self) -> list[str]:
        lines = [json.dumps(r.body_dict()) for r in self.records]
        lines.append(json.dumps(self.summary_dict()))
        return lines

    def to_jsonl(self, include_timings: bool = False) -> str:
        lines = self.body_lines()
        if include_timings:
            timings = {r.check: r.runtime for r in self.records}
            lines.append(json.dumps({"timings": timings, "shared": [list(group) for group in self.shared]}))
        return "\n".join(lines) + "\n"


# -- shared helpers ---------------------------------------------------------


def _rng(scn: Scenario, label: str) -> SplitMix64:
    return SplitMix64(derive_seed(scn.seed, label))


def _nonempty_subsets(scn: Scenario) -> list[frozenset]:
    return [s for s in scn.frame.admissible() if s]


def _labels(prefix: str, subsets) -> list[str]:
    """The substream label of each subset under a check's prefix."""
    return [f"{prefix}-{sorted(map(str, s))}" for s in subsets]


def _reads(scn: Scenario, labels: list[str], counts: list[int]) -> Iterator[tuple[np.ndarray, list[int]]]:
    """The first counts[i] raw words of each labeled substream, in order, one
    read per run of the substreams that start within 2 READ_NORMALS words of
    each other: per run, its words and its counts.  A run's labels share their
    check's prefix, which `derive_seeds` hashes once."""
    runs = [start // (2 * READ_NORMALS) for start in accumulate(counts, initial=0)]
    cuts = [i for i in range(1, len(counts)) if runs[i] != runs[i - 1]]
    for lo, hi in zip([0, *cuts], [*cuts, len(counts)]):
        yield raw_streams(derive_seeds(scn.seed, labels[lo:hi]), counts[lo:hi]), counts[lo:hi]


def _bit_rows(ids: np.ndarray, k: int) -> np.ndarray:
    """Boolean membership rows of subset bitmask ids over k points.

    An id is a uint64, or a row of uint64 words, low word first; bit b of
    word w lands in column 64 w + b.
    """
    words = np.ascontiguousarray(ids, dtype="<u8")
    raw = words.view(np.uint8).reshape(len(words), -1)
    return np.unpackbits(raw, axis=1, count=k, bitorder="little").view(bool)


def _random_ids(words: np.ndarray, k: int) -> np.ndarray:
    """Raw words as random subsets of k points, in place: rows of ceil(k / 64)
    words, low word first, with the bits past point k - 1 masked off the top
    word, so that every point can be drawn."""
    ids = words.reshape(-1, -(-k // 64))
    ids[:, -1] &= np.uint64((1 << (k - 64 * (ids.shape[1] - 1))) - 1)
    return ids


def _streams(scn: Scenario, labels: list[str], counts: list[int]) -> Iterator[np.ndarray]:
    """The first counts[i] raw words of each labeled substream, in order, read
    in `_reads`' runs."""
    for run, part in _reads(scn, labels, counts):
        yield from (run[a:b] for a, b in pairwise(accumulate(part, initial=0)))


def _point_sets(scn: Scenario, labels: list[str], subsets, exhaustive: int, samples: int) -> Iterator[np.ndarray]:
    """Per subset of times, point sets over its k points as bit rows: every
    set when there are at most `exhaustive` of them; otherwise the distinct
    ids of `samples` draws from the subset's labeled substream, sorted by
    value (top word first), every drawn substream read at once (`_streams`)."""
    sizes = [scn.space.npoints(s) for s in subsets]
    drawn = [1 << k > exhaustive for k in sizes]
    streams = _streams(scn, list(compress(labels, drawn)), [samples * -(-k // 64) for k in compress(sizes, drawn)])
    for k, sampled in zip(sizes, drawn):
        if not sampled:
            yield _bit_rows(np.arange(1 << k, dtype=np.uint64), k)
            continue
        ids = _random_ids(next(streams), k)
        yield _bit_rows(np.unique(ids[:, 0]) if ids.shape[1] == 1 else np.unique(ids[:, ::-1], axis=0)[:, ::-1], k)


def _restriction_image(space, subset: frozenset, points: np.ndarray | None = None) -> np.ndarray:
    """Oracle restriction of the full points `points`, every one by default:
    each point's `np.unravel_index` digits on the subset's axes, raveled over
    the subset's shape; all 0 over T = {}.

    It never reads the library's restriction table, whose place values it checks.
    """
    points = np.arange(space.dimension) if points is None else points
    axes = space.axes(subset)
    if not axes:
        return np.zeros(len(points), dtype=np.int64)
    digits = np.unravel_index(points, space.full_shape())
    return np.ravel_multi_index([digits[ax] for ax in axes], space.shape(subset))


def _ends_defect(measure) -> float:
    """1.0 unless E({}) is 0 and E(points(T)) is I, read as two rows of one gather."""
    ends = np.array([[False], [True]])
    return float(np.any(measure.diagonals(ends.repeat(measure.npoints, axis=1)) != ends))


def _finite(value: float, check: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise RuntimeError(f"numerical overflow in check {check!r}: deviation is not finite")
    return value


# -- algebra suite ----------------------------------------------------------


def _haar_rounds(scn: Scenario, label: str, rounds: int, haar: int, elements: int):
    """`rounds` rounds of `haar` Haar automorphisms, then `elements` random
    elements or functionals, from one draw of the labeled substream: the
    stream and bits of the per-round `Automorphism.haar` and `random_element`
    calls.  Per block, the unitaries as a stack
    (rounds, haar, n, n) and the elements as (rounds, elements, n, n)."""
    algebra = scn.algebra
    width = haar + elements
    unitaries, samples = [], []
    for g in algebra._split(_rng(scn, label).complex_matrix(rounds * width, algebra.dimension)):
        g = g.reshape(rounds, width, *g.shape[1:])
        unitaries.append(haar_qr(g[:, :haar]))
        # random_element scales by 1.0, a complex product that can flip a zero's sign
        samples.append(g[:, haar:] * 1.0)
    return unitaries, samples


def _check_automorphism_laws(scn: Scenario) -> list[tuple[str, str, float, float]]:
    algebra = scn.algebra
    alphas = Automorphism.conjugation(algebra, algebra._haar_blocks(_rng(scn, "automorphism-laws"), 20))
    seeds = [derive_seed(scn.seed, f"aut-{k}") for k in range(20)]
    report = verify_automorphism(alphas, sample_count=5, seed=seeds)
    worst = nan_max(0.0, report.multiplicative, report.star_preserving, report.unital, report.isometric)
    return [("automorphism-laws", "T2.1", worst, scn.tolerances.unitary)]


def _check_automorphism_counterexample(scn: Scenario) -> list[tuple[str, str, float, float]]:
    phi = named_contraction("trace_average", scn.algebra)
    report = verify_automorphism(phi, sample_count=10, seed=derive_seed(scn.seed, "counterexample"))
    # built-in max: a NaN multiplicative deviation leaves the map unflagged,
    # and a NaN in a later law does not hide a failing multiplicative one
    worst = max(report.multiplicative, report.star_preserving, report.unital, report.isometric)
    flagged = worst > scn.tolerances.unitary and report.multiplicative > 1e-3
    # single-block scalars make trace averaging the identity; nothing to flag
    if scn.algebra.block_dims == (1,) * scn.algebra.nblocks:
        flagged = True
    return [("automorphism-counterexample", "T2.1", 0.0 if flagged else 1.0, 0.0)]


def _check_compose(scn: Scenario) -> list[tuple[str, str, float, float]]:
    algebra = scn.algebra
    unitaries, samples = _haar_rounds(scn, "compose", 8, 3, 1)
    a1, a2, a3 = (Automorphism.conjugation(algebra, [u[:, j] for u in unitaries]) for j in range(3))
    x = [b[:, 0] for b in samples]
    a12 = compose_automorphisms(a1, a2)
    left = compose_automorphisms(a12, a3).apply_blocks(x)
    right = compose_automorphisms(a1, compose_automorphisms(a2, a3)).apply_blocks(x)
    nested = a1.apply_blocks(a2.apply_blocks(x))
    undone = compose_automorphisms(a1, a1.inverse()).apply_blocks(x)
    # per block, over the 8 rounds: ((a1 a2) a3)(x) - (a1 (a2 a3))(x),
    # (a1 a2)(x) - a1(a2(x)) and (a1 a1^-1)(x) - x
    defects = [np.concatenate([l - r, c - n, u - b]) for l, r, c, n, u, b
               in zip(left, right, a12.apply_blocks(x), nested, undone, x)]
    dev = nan_max(0.0, *_cstar_norms(defects).tolist())
    return [("compose-associativity", "T2.1", dev, scn.tolerances.conjugated)]


def _check_cstar_norm(scn: Scenario) -> list[tuple[str, str, float, float]]:
    a = scn.algebra._random_blocks(_rng(scn, "cstar"), 1.0, 10)
    # per block a* a, with a* copied C-ordered as AlgebraElement.star copies it, then a
    norms = _cstar_norms([np.concatenate([np.ascontiguousarray(_star(b)) @ b, b]) for b in a]).tolist()
    dev = nan_max(0.0, *(abs(p - q**2) for p, q in zip(norms[:10], norms[10:])))
    return [("cstar-norm", "S2", dev, scn.tolerances.unitary)]


def _check_weakstar(scn: Scenario) -> list[tuple[str, str, float, float]]:
    algebra = scn.algebra
    unitaries, samples = _haar_rounds(scn, "weakstar", 10, 1, 4)
    alpha = Automorphism.conjugation(algebra, [u[:, 0] for u in unitaries])
    # each round draws its automorphism, then a_1, g_1, a_2 and g_2
    a1, g1, a2, g2 = ([b[:, j] for b in samples] for j in range(4))
    v1 = _trace_pairings(g1, alpha.apply_blocks(a1)).tolist()
    v2 = _trace_pairings(g2, alpha.apply_blocks(a2)).tolist()
    # independent route: trace pairing through coordinate vectors
    dual = algebra._join([d.swapaxes(-2, -1) for d in g1])[:, None, :]
    image = linear_map_matrix(alpha) @ algebra._join(a1)[..., None]
    coords = (dual @ image)[:, 0, 0]
    dev = 0.0
    for x1, x2, c in zip(v1, v2, coords):
        # weakstar_pairing sums from 0.0 + 0.0j: the joint tensor and each single one
        joint = 0.0 + 0.0j + x1 + x2
        dev = nan_max(dev, abs(joint - (0.0 + 0.0j + x1) - (0.0 + 0.0j + x2)), abs(x1 - c))
    return [("weakstar-pairing", "E2.1", dev, scn.tolerances.conjugated)]


def _check_grid_contraction(scn: Scenario) -> list[tuple[str, str, float, float]]:
    dev = 0.0
    for pos, t in enumerate(scn.frame.times):
        for j in range(scn.space.grid_size(t)):
            est = contraction_norm_estimate(
                scn.space.map_at(t, j), seed=derive_seed(scn.seed, f"contraction-{pos}-{j}"), samples=16
            )
            dev = nan_max(dev, 0.0, est - 1.0)
    return [("grid-contraction", "T2.1", dev, CONTRACTION_TOL)]


def _check_index_roundtrip(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    # every row of the family's table against its oracle row, one row at a
    # time: a whole (m, N) int64 image would be 134 MB at m = N = 4096
    rows = zip(space.restriction_table(), scn.frame.admissible())
    bad = sum(int(np.count_nonzero(row != _restriction_image(space, s))) for row, s in rows)
    return [("index-roundtrip", "S2", float(bad), 0.0)]


# -- spectral suite ---------------------------------------------------------


def _sampled_rows(scn: Scenario, label: str, samples: int) -> Iterator[np.ndarray]:
    """Per admissible subset, in order, `samples` random functions over its
    points, one row each: its substream's `complex_matrix(samples, k)`, one
    read and one `normals` call per run (`_reads`)."""
    subsets = scn.frame.admissible()
    for words, part in _reads(scn, _labels(label, subsets), [2 * samples * scn.space.npoints(s) for s in subsets]):
        values = np.empty(len(words) // 2, dtype=np.complex128)
        normals(words, values)
        yield from (rows.reshape(samples, -1) for rows in np.split(values, np.cumsum(part)[:-1] // 2))


def _check_atoms(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    full_measure = scn.representation.spectral_measure()
    subsets = scn.frame.admissible()
    nonempty = _nonempty_subsets(scn)
    point_sets = _point_sets(scn, _labels("pushforward", nonempty), nonempty, EXHAUSTIVE_SETS, 256)
    pvm = push = spectral = 0.0
    rank_bad = 0
    for subset, values in zip(subsets, _sampled_rows(scn, "spectral-sum", 5)):
        measure = pushforward(full_measure, subset)
        k = measure.npoints
        atoms = measure.diagonals(np.eye(k, dtype=bool))
        # |column sum - 1| is the entry deviation of sum_b E(b) = I and, where
        # a sum passes 1, of E(b)E(b') = 0
        count = np.count_nonzero(atoms, axis=0)
        pvm = nan_max(pvm, _ends_defect(measure), float(np.max(np.abs(count - 1))))
        if subset:
            # oracle: read each preimage of V off the digit-built image table
            rows = next(point_sets)
            push = nan_max(push, float(np.max(measure.diagonals(rows) != rows[:, _restriction_image(space, subset)])))
            rank_bad += int(np.count_nonzero(atoms.sum(axis=1) != space.dimension // k))
        # oracle: each full point's value from its one atom; a column in no
        # atom or in several takes the value-scaled atoms summed from 0 in ascending b
        oracle = values[:, np.argmax(atoms, axis=0)]
        stray = np.flatnonzero(count != 1)
        if len(stray):
            oracle[:, stray] = sum(values[:, b, None] * atom for b, atom in enumerate(atoms[:, stray]))
        spectral = nan_max(spectral, float(np.max(np.abs(integrate_rows(measure, values) - oracle))))
    return [
        ("pvm-axioms", "T3.1", pvm, scn.tolerances.exact),
        ("pushforward", "T3.2", push, scn.tolerances.exact),
        ("pushforward-rank", "T3.2", float(rank_bad), 0.0),
        ("spectral-sum", "C3.7", spectral, scn.tolerances.exact),
    ]


def _check_factorization(scn: Scenario) -> list[tuple[str, str, float, float]]:
    dev = 0.0
    for subset, values in zip(scn.frame.admissible(), _sampled_rows(scn, "factorization", 25)):
        via_integral = integrate_rows(scn.representation.spectral_measure(subset), values)
        via_pullback = pullback_rows(scn.space, subset, values)
        dev = nan_max(dev, float(np.max(np.abs(via_integral - via_pullback))))
    return [("factorization", "C3.3", dev, scn.tolerances.exact)]


def _check_diagonal_calculus(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    rep = scn.representation
    n = scn.rep_space.dimension
    # ten (f, g) pairs, f from row 2k and g from row 2k + 1 of one draw: the
    # bits and end state of twenty alternating `random_function` calls
    rows = [space.function(space.full, row) for row in _rng(scn, "diagonal-calculus").complex_matrix(20, n)]
    dev = 0.0
    for f, g in zip(rows[0::2], rows[1::2]):
        dev = nan_max(dev, (rep.represent(f * g) - rep.represent(f) @ rep.represent(g)).norm())
        dev = nan_max(dev, (rep.represent(f.conjugate()) - rep.represent(f).adjoint()).norm())
    one = space.constant(space.full, 1.0)
    dev = nan_max(dev, (rep.represent(one) - identity_operator(n)).norm())
    return [("diagonal-calculus", "P3.5", dev, scn.tolerances.exact)]


def _distinct_rows(bits: np.ndarray) -> int:
    """Number of distinct boolean rows, told apart by their packed bits, each packed row one void item."""
    packed = np.packbits(bits, axis=1)
    return len(np.unique(packed.view(np.dtype((np.void, packed.shape[1])))))


def _check_injectivity(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    masks = next(_point_sets(scn, ["injectivity-full"], [space.full], 4096, 512))
    # a function on the full set acts as the diagonal of its pullback there:
    # distinct 0/1 masks must keep distinct diagonals
    bad = int(_distinct_rows(pullback_rows(space, space.full, masks)) != len(masks))
    subsets = _nonempty_subsets(scn)
    sub_bad = 0
    for subset, rows in zip(subsets, _point_sets(scn, _labels("injectivity", subsets), subsets, 1024, 512)):
        measure = scn.representation.spectral_measure(subset)
        # integrating a 0/1 function gives its projection: count distinct ones
        sub_bad += int(_distinct_rows(measure.diagonals(rows)) != len(rows))
    return [
        ("injectivity-full", "C3.6", float(bad), 0.0),
        ("injectivity-subsets", "C3.7", float(sub_bad), 0.0),
    ]


def _check_embedding(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    rep = scn.representation
    dev = 0.0
    norm_dev = 0.0
    for subset, small in zip(scn.frame.admissible(), _sampled_rows(scn, "embedding", 10)):
        # embed_eta's route on every row at once, against the integrals
        lifted = pullback_rows(space, subset, small)
        dev = nan_max(dev, float(np.max(np.abs(lifted - integrate_rows(rep.spectral_measure(subset), small)))))
        # a diagonal operator's norm is its largest entry modulus
        norms = np.max(np.abs(lifted), axis=1) - np.max(np.abs(small), axis=1)
        norm_dev = nan_max(norm_dev, float(np.max(np.abs(norms))))
        unit = embed_eta(scn.rep_space, subset, identity_operator(space.npoints(subset)))
        dev = nan_max(dev, (unit - identity_operator(space.dimension)).norm())
    return [
        ("embedding", "T3.8", dev, scn.tolerances.exact),
        ("embedding-isometry", "T3.8", norm_dev, scn.tolerances.exact),
    ]


def _check_embedding_measure(scn: Scenario) -> list[tuple[str, str, float, float]]:
    rep = scn.representation
    subsets = _nonempty_subsets(scn)
    point_sets = _point_sets(scn, _labels("embedding-measure", subsets), subsets, EXHAUSTIVE_SETS, 256)
    dev = 0.0
    for subset, rows in zip(subsets, point_sets):
        measure = rep.spectral_measure(subset)
        # the lifted indicators broadcast over the other axes; the measure
        # gathers through the restriction table; entries are 0 or 1
        lifted = pullback_rows(scn.space, subset, rows)
        dev = nan_max(dev, float(np.any(lifted != measure.diagonals(rows))))
    return [("embedding-measure", "C3.9", dev, scn.tolerances.exact)]


def _check_matrix_elements(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    rep = scn.representation
    n = space.dimension
    subsets = _nonempty_subsets(scn)
    sizes = [space.npoints(s) for s in subsets]
    # a subset's substream holds 20 samples, each a count c, c members and a
    # basis point x, so at most 20 (k + 2) words, parsed as Python ints
    streams = _streams(scn, _labels("matrix-elements", subsets), [20 * (k + 2) for k in sizes])
    dev = 0.0
    for subset, k, words in zip(subsets, sizes, streams):
        words, used = words.tolist(), 0
        cells, xs = [], []
        for s in range(20):
            count = words[used] % k + 1
            cells += [s * k + w % k for w in words[used + 1 : used + 1 + count]]
            xs.append(words[used + 1 + count] % n)
            used += count + 2
        rows = np.zeros((20, k), dtype=bool)
        rows.flat[cells] = True
        # <e_x, E(V) e_x> of every sample from one gather: E(V) is a 0/1
        # diagonal, so the entry is its entry x
        values = rep.spectral_measure(subset).diagonals(rows)[np.arange(20), xs]
        # oracle: each sample's basis point restricted through the digit-built
        # image table, not through the library's table
        expected = rows[np.arange(20), _restriction_image(space, subset, np.array(xs))]
        dev = nan_max(dev, float(np.any(values != expected)))
    return [("matrix-elements", "P3.5", dev, scn.tolerances.exact)]


def _check_singletons(scn: Scenario) -> list[tuple[str, str, float, float]]:
    n = scn.space.dimension
    atoms = scn.representation.spectral_measure().diagonals(np.eye(n, dtype=bool))
    # any two singleton projections are exchanged by a basis swap, which
    # moves a 0/1 diagonal by the index transposition x <-> y
    draws = _rng(scn, "singletons").integers(n, 20).tolist()
    dev = 0.0
    for x, y in zip(draws[0::2], draws[1::2]):
        swap = np.arange(n)
        swap[[x, y]] = swap[[y, x]]
        dev = nan_max(dev, float(np.any(atoms[x][swap] != atoms[y])))
    return [
        ("singleton-rank", "T3.1", float(np.count_nonzero(atoms.sum(axis=1) != 1)), 0.0),
        ("singleton-conjugacy", "T3.1", dev, scn.tolerances.exact),
    ]


# -- conjugation suite ------------------------------------------------------


def _row_gram(w: np.ndarray) -> np.ndarray:
    """Diagonal of W W*, the row sums of W times conj(W)."""
    return np.sum(w * np.conj(w), axis=1)


def _gram_bound(scn: Scenario) -> float:
    """(1 + g) g >= ||W* D1 G D2 W||_2 for all 0/1 diagonals, as ||W||_2^2 <= 1 + ||G||_2."""
    g = scn.conjugated.gram_defect
    return (1.0 + g) * g


def _check_conjugated_pvm(scn: Scenario) -> list[tuple[str, str, float, float]]:
    # E'(V1)E'(V2) - E'(V1 n V2) = W* D1 G D2 W on the exact 0/1 diagonals
    # the spectral suite checks, and E'(total) - I = W*W - I has the singular
    # values of G, so one bound covers every pair over every subset; the
    # empty and total diagonals are checked exactly, 0 or 1
    dev = _gram_bound(scn)
    for subset in scn.frame.admissible():
        dev = nan_max(dev, _ends_defect(scn.conjugated.spectral_measure(subset)))
    return [("conjugated-pvm", "P3.4", dev, scn.tolerances.conjugated)]


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[i] + j for j < lengths[i], i ascending, in one array."""
    return np.repeat(starts + lengths - np.cumsum(lengths), lengths) + np.arange(np.sum(lengths))


def _check_conjugation_covariance(scn: Scenario) -> list[tuple[str, str, float, float]]:
    space = scn.space
    n = space.dimension
    rep = scn.conjugated
    w = rep.conjugator
    # the route's own W* and row Gram, formed once from the checked W and
    # never read off the representation's
    w_star = w.conj().T
    row_gram = _row_gram(w)
    subsets = scn.frame.admissible()
    offsets = space.family_offsets()
    first, k = offsets[:-1], np.diff(offsets)
    m, points = len(k), int(offsets[-1])
    # a subset's substream holds five (point set, function) samples, each a
    # count c, c members and the function's 2k words, then the columns and
    # the rows: every substream is read at c = k, all as one flat array
    reads = 5 * (3 * k + 1) + 2 * COVARIANCE_COLUMNS
    words = np.concatenate([run for run, _ in _reads(scn, _labels("covariance", subsets), reads.tolist())])
    at = np.cumsum(reads) - reads  # every subset's next word
    # the samples are alternating rows of one (10, points) block over the
    # flat family table: the projection's 0/1 row, then the function's
    # values, which one `normals` call draws from the words of every
    # subset's functions, subset by subset
    values = np.zeros((10, points), dtype=np.complex128)
    drawn, k_words = [], k.astype(np.uint64)
    for row in range(0, 10, 2):
        count = (words[at] % k_words).astype(np.int64) + 1
        members = words[_ragged(at + 1, count)] % np.repeat(k_words, count)
        values[row, np.repeat(first, count) + members.astype(np.int64)] = 1.0
        at = at + 1 + count + 2 * k
        drawn.append(at - 2 * k)
    functions = np.empty(5 * points, dtype=np.complex128)
    normals(words[_ragged(np.column_stack(drawn).ravel(), np.repeat(2 * k, 5))], functions)
    owner = np.repeat(np.arange(m), k)
    # a subset's functions are its five rows of k values, at 5 first + r k
    values[1::2] = functions[np.arange(points) + 4 * first[owner] + np.arange(5)[:, None] * k[owner]]
    picks = (words[at[:, None] + np.arange(2 * COVARIANCE_COLUMNS)] % np.uint64(n)).astype(np.intp)
    flat, table = values.ravel(), space.restriction_table()
    dev = 0.0
    # chunks of subsets whose ten diagonals hold at most PAIR_ENTRIES entries
    step = _chunk_rows(np.empty((0, 10, n)))
    for lo in range(0, m, step):
        # the chunk's ten diagonals per subset, one gather through each
        # subset's restriction row added into zeros, as `integrate_rows`
        # gathers them through the plain measure: the conjugated measure's
        # gather never reads the representation, so it would give the same bits
        gather = (first[lo : lo + step, None] + table[lo : lo + step])[:, None, :] + points * np.arange(10)[:, None]
        d = np.zeros(gather.shape, dtype=np.complex128)
        d += np.take(flat, gather)
        d = d.reshape(-1, n)
        # each subset's columns and rows, for each of its ten rows
        cols, rows = np.split(np.repeat(picks[lo : lo + step], 10, axis=0), 2, axis=1)
        ops = ConjugatedDiagonalOperator(rep, d)
        # independent route: W* (d * W e_j) from the unconjugated diagonals,
        # all the chunk's columns in one product, as `columns` reads them
        route = conjugated_columns(w_star, w, d, cols)
        entry_gap = ops.entry(rows, cols) - route[np.arange(len(d))[:, None], rows, np.arange(COVARIANCE_COLUMNS)]
        # the columns' gap formed in place and the route let go, so that at
        # most three blocks of the chunk's columns are held at once
        gap = ops.columns(cols)
        gap -= route
        del route
        # the trace route sums in trace()'s order: two orders of a sum of N
        # terms of size |d| differ by an ulp of N |d|, above the tolerance
        # at the cap
        dev = nan_max(
            dev,
            float(np.max(np.linalg.norm(gap, axis=1))),
            float(np.max(np.abs(entry_gap))),
            float(np.max(np.abs(ops.trace() - np.sum(d * row_gram, axis=1)))),
        )
    return [("conjugation-covariance", "P3.4", dev, scn.tolerances.conjugated)]


def _check_conjugated_trace(scn: Scenario) -> list[tuple[str, str, float, float]]:
    # tr P - rank P = sum_i d_i G_ii over a 0/1 diagonal d; its extremes over
    # every d sum all positive or all negative G_ii, read off W's rows in
    # O(N^2); P^2 - P = W* D G D W takes the conjugated-pvm bound
    r = _row_gram(scn.conjugated.conjugator).real - 1.0
    trace_dev = max(float(np.sum(r[r > 0.0])), -float(np.sum(r[r < 0.0])))
    return [("conjugated-trace", "P3.4", nan_max(_gram_bound(scn), trace_dev), scn.tolerances.conjugated)]


# -- dynamics suite ---------------------------------------------------------


def _check_weight_laws(scn: Scenario) -> list[tuple[str, str, float, float]]:
    # `group-law` is the cocycle law's pair walk, as |t1 t2 - u| = |u - t1 t2|,
    # and `null-unitary` its null-subset law, as U_T - I has the diagonal u_T - 1
    report = validate_action_weight(scn.weight)
    u = scn.weight.stack
    m = len(u)
    # both laws over row chunks of at most PAIR_ENTRIES stack entries, each
    # chunk one diagonal operator. `commutation` takes the neighbouring pairs
    # (i, i + 1) of the chunk's rows, one product of two stacks; not the
    # stack against its own roll, whose operands share one trace, so a
    # product whose phase depends on its operands' traces would commute.
    # Judged at the dynamics tolerance, not `exact`: numpy's vectorized
    # complex multiply is not commutative in the last bit (with numpy 2.4.6
    # on an x86-64 Xeon, x*y != y*x for about 34,000 of 100,000 random
    # unimodular pairs, where Python's scalar multiply gives none), so
    # u @ v - v @ u reads up to 1.11e-16 on diagonals that commute exactly
    dev = commutation = 0.0
    step = _chunk_rows(u)
    for lo in range(0, m, step):
        block = DiagonalOperator(u[lo : lo + step])
        dev = nan_max(dev, (block.adjoint() @ block - identity_operator(block.dimension)).norm())
        hi = min(lo + step, m - 1)
        v, w = DiagonalOperator(u[lo:hi]), DiagonalOperator(u[lo + 1 : hi + 1])
        commutation = nan_max(commutation, (v @ w - w @ v).norm())
    laws = nan_max(report.unimodular, report.cocycle, report.null_subset)
    return [
        ("action-weight-laws", "D4.1", laws, scn.tolerances.dynamics),
        ("unitary-evolution", "E4.4", dev, scn.tolerances.dynamics),
        ("null-unitary", "P4.2", report.null_subset, scn.tolerances.exact),
        ("group-law", "P4.2", report.cocycle, scn.tolerances.dynamics),
        ("commutation", "S4", commutation, scn.tolerances.dynamics),
    ]


def _check_conjugated_dynamics(scn: Scenario) -> list[tuple[str, str, float, float]]:
    n = scn.rep_space.dimension
    cols = np.unique(np.linspace(0, n - 1, COVARIANCE_COLUMNS).astype(int))
    rep = scn.conjugated
    w = rep.conjugator
    u = scn.weight.stack
    twisted = ConjugatedDiagonalOperator(rep, u)
    route = conjugated_columns(w.conj().T, w, u, cols)
    covariance = float(np.max(np.linalg.norm(twisted.columns(cols) - route, axis=1), initial=0.0))
    witness_dev = 0.0
    if scn.witness_threshold is not None:
        report = commutant_witness(scn.weight, scn.representation, scn.conjugated)
        witness_dev = 0.0 if report.witness > scn.witness_threshold else 1.0
    return [
        ("conjugated-dynamics", "P3.4", covariance, scn.tolerances.conjugated),
        ("commutant-witness", "S4", witness_dev, 0.0),
    ]


# -- lagrangian suite -------------------------------------------------------


def _check_lagrangian_consistency(scn: Scenario) -> list[tuple[str, str, float, float]]:
    report = verify_lagrangian(scn.lagrangian)
    dev = nan_max(report.restriction_deviation, report.realness_deviation)
    return [("lagrangian-consistency", "D5.1", dev, scn.tolerances.dynamics)]


def _check_actions(scn: Scenario) -> list[tuple[str, str, float, float]]:
    # the Lagrangian's one table of actions, which built the weight at load, read by all three laws
    space = scn.space
    frame = scn.frame
    domain = frame.admissible()
    actions = scn.lagrangian.actions
    pulled = pullback_family(space, actions)
    additivity = _pair_max(pulled, frame.disjoint_pairs(), lambda t1, t2, union: union - t1 - t2)
    # a subset of k points is judged on its k^2 point pairs, or on
    # LIPSCHITZ_PAIRS pairs from its substream, its raw words mod k
    sampled = [s for s in domain if s and space.npoints(s) ** 2 > LIPSCHITZ_PAIRS]
    streams = _streams(scn, _labels("lipschitz", sampled), [2 * LIPSCHITZ_PAIRS] * len(sampled))
    lipschitz = 0.0
    offsets = space.family_offsets().tolist()
    for subset, lo, hi in zip(domain, offsets, offsets[1:]):
        if subset:
            densities = scn.lagrangian.table(subset).real
            values = actions[lo:hi]
            k = len(densities)
            if k * k <= LIPSCHITZ_PAIRS:
                left, right = np.divmod(np.arange(k * k), k)
            else:
                left, right = (next(streams) % np.uint64(k)).reshape(-1, 2).T
            gap = np.abs(values[left] - values[right])
            bound = np.max(np.abs(densities[left] - densities[right]), axis=1) * frame.mu(subset)
            lipschitz = nan_max(lipschitz, 0.0, float(np.max(gap - bound)))
    null = frame.null_subsets()
    null_dev = nan_max(float(np.max(np.abs(pulled[null]), initial=0.0)),
                       float(np.max(np.abs(scn.weight.stack[null] - 1.0), initial=0.0)))
    return [
        ("action-additivity", "P5.2", additivity, scn.tolerances.dynamics),
        ("action-lipschitz", "P5.2", lipschitz, scn.tolerances.dynamics),
        ("null-action", "P5.2", null_dev, scn.tolerances.exact),
    ]


# -- registry and runner ----------------------------------------------------

_SUITES: dict[str, list[Callable[[Scenario], list[tuple[str, str, float, float]]]]] = {
    "algebra": [
        _check_automorphism_laws,
        _check_automorphism_counterexample,
        _check_compose,
        _check_cstar_norm,
        _check_weakstar,
        _check_grid_contraction,
        _check_index_roundtrip,
    ],
    "spectral": [
        _check_atoms,
        _check_factorization,
        _check_diagonal_calculus,
        _check_injectivity,
        _check_embedding,
        _check_embedding_measure,
        _check_matrix_elements,
        _check_singletons,
    ],
    "conjugation": [
        _check_conjugated_pvm,
        _check_conjugation_covariance,
        _check_conjugated_trace,
    ],
    "dynamics": [
        _check_weight_laws,
        _check_conjugated_dynamics,
    ],
    "lagrangian": [
        _check_lagrangian_consistency,
        _check_actions,
    ],
}


def _enabled(scn: Scenario, fn: Callable) -> bool:
    if scn.conjugated is None and (fn in _SUITES["conjugation"] or fn is _check_conjugated_dynamics):
        return False
    if fn in _SUITES["lagrangian"] and scn.lagrangian is None:
        return False
    return True


def run_suite(scn: Scenario, suites: Iterable[str] = ("all",)) -> VerificationReport:
    """Run the selected suites against a loaded scenario.

    Every enabled check appears exactly once in the report; checks that need
    a conjugator or a Lagrangian are skipped when the scenario has none.
    The report's `shared` lists the checks judged by one function call, in
    run order.  A selection that names no suite raises `DomainError`.
    """
    requested = list(suites)
    if "all" in requested:
        selected = list(SUITE_NAMES)
    else:
        unknown = [s for s in requested if s not in SUITE_NAMES]
        if unknown:
            raise DomainError(f"unknown suite names {unknown}; choose from {list(SUITE_NAMES)}")
        selected = [s for s in SUITE_NAMES if s in requested]
    if not selected:
        raise DomainError(f"no suite selected; choose from {list(SUITE_NAMES)} or all")
    records: list[CheckRecord] = []
    shared: list[tuple[str, ...]] = []
    for suite in selected:
        for fn in _SUITES[suite]:
            if not _enabled(scn, fn):
                continue
            start = time.perf_counter()
            results = fn(scn)
            elapsed = time.perf_counter() - start
            if len(results) > 1:
                shared.append(tuple(check for check, *_ in results))
            for check, theorem, deviation, tolerance in results:
                deviation = _finite(deviation, check)
                records.append(
                    CheckRecord(
                        check=check,
                        theorem=theorem,
                        max_deviation=deviation,
                        tolerance=float(tolerance),
                        passed=deviation <= tolerance,
                        runtime=elapsed / max(1, len(results)),
                    )
                )
    return VerificationReport(
        scenario_name=scn.name,
        fingerprint=scn.fingerprint,
        seed=scn.seed,
        suites=tuple(selected),
        records=tuple(records),
        shared=tuple(shared),
    )
