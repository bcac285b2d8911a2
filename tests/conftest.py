import math
import os
from pathlib import Path

import numpy as np
import pytest

from evogrid import (
    Automorphism,
    GridEvolutionSpace,
    GridPointMap,
    PureRepresentation,
    RepresentationSpace,
    TimeFrame,
    WStarAlgebra,
    named_contraction,
)
from evogrid.rng import SplitMix64

ROOT = Path(__file__).resolve().parents[1]

FLIP = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


# The scalar draws of the rng module docstring, one call per number: the
# oracle that the vectorized draws and the sampled checks match bit for bit.
def integer(r: SplitMix64, bound: int) -> int:
    """An integer in [0, bound) by modulo reduction."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    return r.next_uint64() % bound


def uniform(r: SplitMix64) -> float:
    return (r.next_uint64() >> 11) * 2.0**-53


def normal_pair(r: SplitMix64) -> tuple[float, float]:
    u1 = uniform(r)
    u2 = uniform(r)
    radius = math.sqrt(-2.0 * math.log(1.0 - u1))
    theta = 2.0 * math.pi * u2
    return radius * math.cos(theta), radius * math.sin(theta)


def standard_normal(r: SplitMix64) -> float:
    return normal_pair(r)[0]


def complex_normal(r: SplitMix64) -> complex:
    x, y = normal_pair(r)
    return complex(x, y) / math.sqrt(2.0)


def one_thread_env(*paths: str) -> dict[str, str]:
    """The environment of a subprocess that imports from `paths` under the
    repo root (`src` when none is named) at one BLAS and OpenMP thread, the
    only count at which BLAS-rounded values are pinned."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in paths or ("src",)),
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def conjugated_rep(w):
    """The representation conjugated by w over one time whose grid repeats
    the identity of M_2 len(w) times, so that N = len(w)."""
    m2 = WStarAlgebra((2,))
    space = GridEvolutionSpace(TimeFrame(("1",), (1.0,)), ((GridPointMap.identity(m2),) * len(w),))
    return PureRepresentation(RepresentationSpace(space), w)


def every_ordered_pair(frame):
    """A pair table over every ordered pair of admissible subsets, overlapping ones included."""
    domain = frame.admissible()
    index = {s: i for i, s in enumerate(domain)}
    return np.array([(i, j, index[t1 | t2]) for i, t1 in enumerate(domain) for j, t2 in enumerate(domain)])


def reversed_table(original):
    """A restriction-table method whose rows are read back to front."""
    return lambda self, *args: original(self, *args)[..., ::-1]


def swapped_table_rows(original):
    """A `restriction_table` method that exchanges the rows of the first two
    admissible subsets with equal point counts, so that each indexes in range
    but the table is out of step with `admissible()`."""
    def mutant(self):
        table = original(self).copy()
        sizes = [self.npoints(s) for s in self.frame.admissible()]
        i, j = next((i, j) for j in range(len(sizes)) for i in range(j) if sizes[i] == sizes[j])
        table[[i, j]] = table[[j, i]]
        return table

    return mutant


def without_last_point(rows):
    """Membership rows over one subset's points with its last point in no set, in place."""
    rows[:, -1] = False
    return rows


def at_next_point(rows):
    """Membership rows over one subset's points with every member moved to the next point, cyclically."""
    return np.roll(rows, 1, axis=1)


def on_members(change):
    """The `diagonals` fault that changes a measure's membership rows by `change` before its gather."""
    return lambda original: lambda self, rows: original(self, change(np.array(rows, dtype=bool)))


def each_subset(change):
    """The same fault in `family_diagonals`: `change` acts on each subset's part
    of the flat membership rows, as it acts on one measure's rows."""
    def wrap(original):
        def mutant(self, rows, lo, hi):
            rows = np.array(rows, dtype=bool)
            offsets = self.space.family_offsets()[lo : hi + 1] - self.space.family_offsets()[lo]
            for a, b in zip(offsets[:-1], offsets[1:]):
                rows[:, a:b] = change(rows[:, a:b])
            return original(self, rows, lo, hi)

        return mutant

    return wrap


def neighbouring_members(original):
    """A `diagonals` method that moves every member to the next point, so atom b reads as atom b + 1."""
    return on_members(at_next_point)(original)


def parent_haar_rule(g):
    """The per-matrix phase-normalized QR that `rng.haar_qr` replaced, kept as its oracle."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def parent_haar(algebra, rng):
    """An `Automorphism.haar` draw made as it was before the stacked draw: one
    complex_matrix and one QR per block, in turn."""
    return Automorphism.conjugation(algebra, [parent_haar_rule(rng.complex_matrix(n, n)) for n in algebra.block_dims])


# filled by the acceptance tests; echoed after capture ends so the
# one-line-per-criterion verdicts always appear in the terminal output
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def m2():
    return WStarAlgebra((2,))


@pytest.fixture
def m23():
    return WStarAlgebra((2, 3))


@pytest.fixture
def flip(m2):
    return Automorphism.conjugation(m2, [FLIP])


@pytest.fixture
def small_space(m2, flip):
    # two times, grid sizes 2 and 2: identity/flip at time 1,
    # identity/trace-average at time 2; four full points total
    frame = TimeFrame(("1", "2"), (1.0, 1.0))
    grids = (
        (GridPointMap.identity(m2), GridPointMap.from_automorphism(flip)),
        (GridPointMap.identity(m2), named_contraction("trace_average", m2)),
    )
    return GridEvolutionSpace(frame, grids)


@pytest.fixture
def rep4(small_space):
    return PureRepresentation(RepresentationSpace(small_space))


@pytest.fixture
def weighted_space(m2, flip):
    # weights 0.5, 2.0, 0.0 and a null time make measure-zero subsets real
    frame = TimeFrame(("1", "2", "3"), (0.5, 2.0, 0.0))
    grids = (
        (GridPointMap.identity(m2), GridPointMap.from_automorphism(flip)),
        (GridPointMap.identity(m2), named_contraction("trace_average", m2)),
        (GridPointMap.identity(m2), GridPointMap.from_automorphism(flip)),
    )
    return GridEvolutionSpace(frame, grids)


@pytest.fixture
def rep8(weighted_space):
    return PureRepresentation(RepresentationSpace(weighted_space))
