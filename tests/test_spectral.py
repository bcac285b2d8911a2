"""The spectral checks against mutants and against their per-sample bodies.

Each mutant row breaks a law the spectral checks claim, by a monkeypatch
of the library, and names the checks that must then report more than their
tolerance on `demo`.  The per-sample loops that the stacked checks
replaced, and the per-subset bodies that drew through one `_rng` per
subset before each check read its substreams at once, stay here as
oracles: the checks must return the same records, bit for bit, also where
a broken restriction table makes the deviations nonzero.
"""

import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from evobench.ladder import ladder_config
from evogrid import (
    builtin_scenario,
    dynamics,
    evolution,
    load_scenario,
    representation,
    run_suite,
    scenario_from_dict,
    suites,
)
from evogrid.dynamics import nan_max
from evogrid.evolution import GridEvolutionSpace, GridFunction, TimeFrame, pullback, pullback_along, pullback_rows
from evogrid.lagrangian import Lagrangian, action_from_lagrangian
from evogrid.representation import (
    PureRepresentation,
    SpectralMeasure,
    embed_eta,
    identity_operator,
    integrate,
    integrate_rows,
    matrix_element,
    theta_represent,
)
from evogrid.rng import SplitMix64, derive_seed
from evogrid.suites import EXHAUSTIVE_SETS, _bit_rows, _rng

from conftest import (
    at_next_point,
    each_subset,
    integer,
    on_members,
    reversed_table,
    swapped_table_rows,
    without_last_point,
)

# -- the per-sample bodies the stacked checks replaced -------------------------


def _nonempty_subsets(scn):
    return [s for s in scn.frame.admissible() if s]


def _parent_random_ids(rng, k, count):
    # ceil(k / 64) raw words per set from the subset's own stream, top word masked to k
    nwords = -(-k // 64)
    ids = rng.integers(1 << 64, count * nwords).reshape(count, nwords)
    ids[:, -1] &= np.uint64((1 << (k - 64 * (nwords - 1))) - 1)
    return ids


def _parent_point_sets(scn, label, k, exhaustive, samples):
    # every set, or the sorted distinct ids of one `_rng` draw per subset
    if 1 << k <= exhaustive:
        return _bit_rows(np.arange(1 << k, dtype=np.uint64), k)
    ids = _parent_random_ids(_rng(scn, label), k, samples)
    if ids.shape[1] == 1:
        return _bit_rows(np.unique(ids[:, 0]), k)
    return _bit_rows(np.unique(ids[:, ::-1], axis=0)[:, ::-1], k)


def _atoms_one_by_one(measure):
    """The atoms atom(b), then E({}) and E(points(T)), as complex diagonals: one projection each."""
    return [measure.atom(b).diag for b in range(measure.npoints)], (measure.empty().diag, measure.total().diag)


def _atoms_in_two_gathers(measure):
    """The same diagonals as rows of two gathers, of the identity table and of
    the (empty, total) pair, each row cast to complex: a fault that mixes the
    rows of a gather shows here, and not in atom(b)."""
    k = measure.npoints
    atoms = measure.diagonals(np.eye(k, dtype=bool)).astype(np.complex128)
    return list(atoms), tuple(measure.diagonals(np.array([[False], [True]]).repeat(k, axis=1)).astype(np.complex128))


def _per_subset_pvm_axioms(scn, read=_atoms_one_by_one):
    # E({}) = 0, E(points(T)) = I, E(b) E(b') = 0 for b != b' and sum_b E(b) = I, entry by entry
    dev = 0.0
    for subset in scn.frame.admissible():
        atoms, (empty, total) = read(scn.representation.spectral_measure(subset))
        ends = float(np.any(empty != 0.0) or np.any(total != 1.0))
        overlap = max((float(np.max(np.abs(a * np.array(atoms[b + 1 :])))) for b, a in enumerate(atoms[:-1])),
                      default=0.0)
        dev = nan_max(dev, ends, overlap, float(np.max(np.abs(sum(atoms) - 1.0))))
    return [("pvm-axioms", "T3.1", dev, scn.tolerances.exact)]


def _per_subset_pushforward(scn):
    space = scn.space
    full_measure = scn.representation.spectral_measure()
    dev = 0.0
    rank_bad = 0
    for subset in _nonempty_subsets(scn):
        measure = representation.pushforward(full_measure, subset)
        k = measure.npoints
        rows = _parent_point_sets(scn, f"pushforward-{sorted(map(str, subset))}", k, EXHAUSTIVE_SETS, 256)
        dev = nan_max(dev, float(np.max(measure.diagonals(rows) != rows[:, suites._restriction_image(space, subset)])))
        atoms = measure.diagonals(np.eye(k, dtype=bool))
        rank_bad += int(np.count_nonzero(atoms.sum(axis=1) != space.dimension // k))
    return [
        ("pushforward", "T3.2", dev, scn.tolerances.exact),
        ("pushforward-rank", "T3.2", float(rank_bad), 0.0),
    ]


def _per_subset_embedding_measure(scn):
    rep = scn.representation
    dev = 0.0
    for subset in _nonempty_subsets(scn):
        measure = rep.spectral_measure(subset)
        label = f"embedding-measure-{sorted(map(str, subset))}"
        rows = _parent_point_sets(scn, label, measure.npoints, EXHAUSTIVE_SETS, 256)
        dev = nan_max(dev, float(np.any(pullback_rows(scn.space, subset, rows) != measure.diagonals(rows))))
    return [("embedding-measure", "C3.9", dev, scn.tolerances.exact)]


def _per_sample_spectral_sum(scn, read=_atoms_one_by_one):
    space = scn.space
    rep = scn.representation
    dev = 0.0
    for subset in scn.frame.admissible():
        rng = _rng(scn, f"spectral-sum-{sorted(map(str, subset))}")
        measure = rep.spectral_measure(subset)
        atoms, _ = read(measure)
        for _ in range(5):
            f = space.random_function(subset, rng)
            got = integrate(f, measure).diag
            oracle = np.zeros(space.dimension, dtype=np.complex128)
            for b in range(measure.npoints):
                oracle += f.values[b] * atoms[b]
            dev = nan_max(dev, float(np.max(np.abs(got - oracle))))
    return [("spectral-sum", "C3.7", dev, scn.tolerances.exact)]


def _per_subset_atoms(scn, read=_atoms_one_by_one):
    # the four records of the one atom pass, in report order
    return _per_subset_pvm_axioms(scn, read) + _per_subset_pushforward(scn) + _per_sample_spectral_sum(scn, read)


def _per_sample_factorization(scn):
    space = scn.space
    rep = scn.representation
    dev = 0.0
    for subset in scn.frame.admissible():
        rng = _rng(scn, f"factorization-{sorted(map(str, subset))}")
        measure = rep.spectral_measure(subset)
        for _ in range(25):
            f = space.random_function(subset, rng)
            via_integral = integrate(f, measure).diag
            via_pullback = rep.represent(pullback(f)).diag
            dev = nan_max(dev, float(np.max(np.abs(via_integral - via_pullback))))
    return [("factorization", "C3.3", dev, scn.tolerances.exact)]


def _per_sample_injectivity(scn):
    space = scn.space
    rep = scn.representation
    n = space.dimension
    bad = 0
    masks = _parent_point_sets(scn, "injectivity-full", n, 4096, 512)
    lifted = pullback_rows(space, space.full, masks.astype(np.complex128))
    seen = {rep.represent(space.function(space.full, row)).diag.tobytes() for row in lifted}
    if len(seen) != len(masks):
        bad += 1
    sub_bad = 0
    for subset in _nonempty_subsets(scn):
        measure = rep.spectral_measure(subset)
        rows = _parent_point_sets(scn, f"injectivity-{sorted(map(str, subset))}", measure.npoints, 1024, 512)
        if len(np.unique(measure.diagonals(rows), axis=0)) != len(rows):
            sub_bad += 1
    return [
        ("injectivity-full", "C3.6", float(bad), 0.0),
        ("injectivity-subsets", "C3.7", float(sub_bad), 0.0),
    ]


def _per_sample_embedding(scn):
    space = scn.space
    rep = scn.representation
    dev = 0.0
    norm_dev = 0.0
    for subset in scn.frame.admissible():
        rng = _rng(scn, f"embedding-{sorted(map(str, subset))}")
        measure = rep.spectral_measure(subset)
        for _ in range(10):
            f = space.random_function(subset, rng)
            small = theta_represent(f)
            lifted = embed_eta(scn.rep_space, subset, small)
            dev = nan_max(dev, float(np.max(np.abs(lifted.diag - integrate(f, measure).diag))))
            norm_dev = nan_max(norm_dev, abs(lifted.norm() - small.norm()))
        unit = embed_eta(scn.rep_space, subset, identity_operator(space.npoints(subset)))
        dev = nan_max(dev, (unit - identity_operator(space.dimension)).norm())
    return [
        ("embedding", "T3.8", dev, scn.tolerances.exact),
        ("embedding-isometry", "T3.8", norm_dev, scn.tolerances.exact),
    ]


def _per_sample_matrix_elements(scn):
    space = scn.space
    rep = scn.representation
    n = space.dimension
    dev = 0.0
    for subset in _nonempty_subsets(scn):
        rng = _rng(scn, f"matrix-elements-{sorted(map(str, subset))}")
        measure = rep.spectral_measure(subset)
        k = measure.npoints
        for _ in range(20):
            members = set()
            for _ in range(integer(rng, k) + 1):
                members.add(integer(rng, k))
            x = integer(rng, n)
            value = matrix_element(measure, x, x, members)
            # restrict the basis point by its digits, not through the table
            digits = np.unravel_index(x, space.full_shape())
            image = np.ravel_multi_index([digits[ax] for ax in space.axes(subset)], space.shape(subset))
            expected = 1.0 if image in members else 0.0
            dev = nan_max(dev, abs(value - expected))
    return [("matrix-elements", "P3.5", dev, scn.tolerances.exact)]


def _per_sample_singletons(scn):
    n = scn.space.dimension
    atoms = scn.representation.spectral_measure().diagonals(np.eye(n, dtype=bool))
    rng = _rng(scn, "singletons")
    dev = 0.0
    for _ in range(10):
        x, y = integer(rng, n), integer(rng, n)
        swap = np.arange(n)
        swap[[x, y]] = swap[[y, x]]
        dev = nan_max(dev, float(np.any(atoms[x][swap] != atoms[y])))
    return [
        ("singleton-rank", "T3.1", float(np.count_nonzero(atoms.sum(axis=1) != 1)), 0.0),
        ("singleton-conjugacy", "T3.1", dev, scn.tolerances.exact),
    ]


ORACLES = {
    suites._check_atoms: _per_subset_atoms,
    suites._check_embedding_measure: _per_subset_embedding_measure,
    suites._check_factorization: _per_sample_factorization,
    suites._check_injectivity: _per_sample_injectivity,
    suites._check_embedding: _per_sample_embedding,
    suites._check_matrix_elements: _per_sample_matrix_elements,
    suites._check_singletons: _per_sample_singletons,
}


def _with_grid_sizes(config, sizes):
    for grid, size in zip(config["grids"].values(), sizes):
        grid["haar"]["count"] = size
    return config


def _listed(config, family):
    config["time_frame"]["sigma0"] = family
    return config


SCENARIOS = {
    "demo": lambda: load_scenario("demo"),
    "witness": lambda: load_scenario("witness"),
    "ladder-5x2": lambda: scenario_from_dict(ladder_config(5, 2)),
    "ladder-2x8": lambda: scenario_from_dict(ladder_config(2, 8)),
    "ladder-3x5": lambda: scenario_from_dict(ladder_config(3, 5)),
    "ladder-8x1": lambda: scenario_from_dict(ladder_config(8, 1)),
    # subsets of one size with different point counts, and a listed family without the full set
    "ladder-2-3-2": lambda: scenario_from_dict(_with_grid_sizes(ladder_config(3, 2), (2, 3, 2))),
    "listed-3": lambda: scenario_from_dict(_listed(ladder_config(3, 2), [[], ["1"], ["2"], ["1", "2"]])),
}


def _records_as_bits(records):
    # float64 deviations compared by their bits, so -0.0 and 0.0 differ
    return [(check, law, np.float64(dev).tobytes(), tol) for check, law, dev, tol in records]


@pytest.mark.parametrize("source", list(SCENARIOS))
def test_stacked_checks_return_the_per_sample_records(source):
    scn = SCENARIOS[source]()
    for check, oracle in ORACLES.items():
        assert _records_as_bits(check(scn)) == _records_as_bits(oracle(scn)), check.__name__


# mutants under which the records of both routes are nonzero, keyed by the
# checks they move on each source.  At N = 1 (8x1) every table row is [0], so
# a broken table moves nothing; every matrix-elements sample reads a diagonal
# entry, so a broken table moves it wherever a sampled point's restriction
# changes membership
MUTANT_SOURCES = ("demo", "ladder-5x2", "ladder-3x5", "ladder-8x1")
TABLE_MOVES = {"pushforward", "factorization", "embedding", "embedding-measure", "matrix-elements"}
MOVED_BY = {
    "reversed-restriction-table": {
        "demo": TABLE_MOVES | {"singleton-conjugacy"},
        "ladder-5x2": TABLE_MOVES | {"singleton-conjugacy"},
        "ladder-3x5": TABLE_MOVES | {"singleton-conjugacy"},
        "ladder-8x1": set(),
    },
    "swapped-table-rows": {
        "demo": TABLE_MOVES,
        "ladder-5x2": TABLE_MOVES,
        "ladder-3x5": TABLE_MOVES,
        "ladder-8x1": set(),
    },
    "conjugated-integral-rows": dict.fromkeys(MUTANT_SOURCES, {"spectral-sum", "factorization", "embedding"}),
    "doubled-pullback": dict.fromkeys(MUTANT_SOURCES, {"factorization", "embedding", "embedding-isometry"}),
}


@pytest.mark.parametrize("source", MUTANT_SOURCES)
@pytest.mark.parametrize("mutant", list(MOVED_BY))
def test_stacked_checks_match_the_per_sample_records_under_a_mutant(mutant, source, monkeypatch):
    # e.g. the gather reads a reversed table and the broadcast does not, so
    # the factorization and embedding deviations are nonzero and must agree
    scn = SCENARIOS[source]()
    for patch in SPECTRAL_MUTANTS[mutant][0]:
        monkeypatch.setattr(*patch)
    nonzero = set()
    for check, oracle in ORACLES.items():
        records = check(scn)
        assert _records_as_bits(records) == _records_as_bits(oracle(scn)), check.__name__
        nonzero |= {name for name, _, dev, _ in records if dev > 0.0}
    assert nonzero == MOVED_BY[mutant][source]


# -- the stacked draw and the stacked integral ---------------------------------


@pytest.mark.parametrize("count", [0, 1, 25])
def test_a_stacked_draw_is_the_stream_of_random_function_calls(count):
    space = load_scenario("demo").space
    subset = max(space.frame.admissible(), key=space.npoints)
    stacked, single = SplitMix64(11), SplitMix64(11)
    rows = stacked.complex_matrix(count, space.npoints(subset))
    assert rows.shape == (count, space.npoints(subset))
    for row in rows:
        assert row.tobytes() == space.random_function(subset, single).values.tobytes()
    assert stacked.next_uint64() == single.next_uint64()


def _with_signed_zeros(values):
    out = values.copy()
    out[:, 0] = -0.0
    if np.iscomplexobj(out):
        out[:, -1] = complex(0.0, -0.0)
    return out


@pytest.mark.parametrize("kind", ["complex", "float64"])
def test_integrate_is_the_one_row_case_of_integrate_rows(kind):
    scn = load_scenario("demo")
    space = scn.space
    rng = SplitMix64(3)
    for subset in scn.frame.admissible():
        k = space.npoints(subset)
        values = rng.complex_matrix(4, k)
        values = _with_signed_zeros(values if kind == "complex" else values.real.copy())
        for rep in (scn.representation, scn.conjugated):
            measure = rep.spectral_measure(subset)
            stack = representation.integrate_rows(measure, values)
            assert stack.shape == (4, space.dimension) and stack.dtype == np.complex128 and stack.flags.c_contiguous
            # the gather adds into zeros, so a -0.0 value lands as +0.0
            assert not np.signbit(stack.view(np.float64)[stack.view(np.float64) == 0.0]).any()
            restricted = space.restricted_index_array(subset)
            for row, diag in zip(values, stack):
                one = representation.integrate_rows(measure, row[None])
                assert one.tobytes() == diag.tobytes()
                assert integrate(space.function(subset, row), measure).diag.tobytes() == diag.tobytes()
                expected = np.zeros(space.dimension, dtype=np.complex128)
                expected += row[restricted]
                assert expected.tobytes() == diag.tobytes()


def test_integrate_rows_rejects_rows_of_the_wrong_length():
    from evogrid.errors import StructureError

    scn = load_scenario("demo")
    measure = scn.representation.spectral_measure()
    with pytest.raises(StructureError):
        representation.integrate_rows(measure, np.zeros((2, measure.npoints + 1)))
    with pytest.raises(StructureError):
        representation.integrate_rows(measure, np.zeros(measure.npoints))


# -- the family's restriction table ----------------------------------------------


@pytest.mark.parametrize("source", ["ladder-2-3-2", "listed-3"])
def test_the_family_table_has_a_row_per_subset_and_the_scenario_verifies(source):
    scn = SCENARIOS[source]()
    space = scn.space
    subsets = scn.frame.admissible()
    assert space._table is None  # built on first read, not at load
    assert run_suite(scn).overall_pass
    table = space.restriction_table()
    assert table.dtype == np.uint16 and table.shape == (len(subsets), space.dimension)
    for subset, row in zip(subsets, table):
        assert np.array_equal(row, suites._restriction_image(space, subset))
    if source == "ladder-2-3-2":
        # one-time subsets of one size with different point counts
        assert sorted(space.npoints(s) for s in subsets if len(s) == 1) == [2, 2, 3]


def test_a_subset_off_the_listed_family_gets_its_row_built_alone():
    scn = SCENARIOS["listed-3"]()
    space = scn.space
    assert len(scn.frame.admissible()) == 4 and not scn.frame.is_admissible(space.full)
    full = space.restricted_index_array(space.full)
    assert np.array_equal(full, np.arange(space.dimension))
    assert not full.flags.writeable
    # uncached: the family table keeps its m rows, and the row is built again
    assert len(space.restriction_table()) == 4 and not np.shares_memory(full, space.restriction_table())
    assert space.restricted_index_array(space.full) is not full


# -- call counts -----------------------------------------------------------------


def _counting(calls, original):
    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    return spy


def _drawn_words(sizes, exhaustive, count):
    # the words a point-set draw reads: `count` sets of ceil(k / 64) words per sampled k
    return [count * -(-k // 64) for k in sizes if 1 << k > exhaustive]


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-8x1"])
def test_sampled_checks_read_their_substreams_at_once(source, monkeypatch):
    # one `raw_streams` read of every subset's substream per check, so that
    # the number of reads does not grow with the family (5x2 samples the
    # point sets of 16 subsets, demo of one), and no per-subset
    # `complex_matrix` or scalar draw; a check with nothing to sample reads
    # nothing, and matrix-elements reads up to 20 (k + 2) words per subset.
    # The atom pass reads spectral-sum's functions, then pushforward's point
    # sets; its pvm-axioms samples nothing, as it judges every pair of atoms
    scn = SCENARIOS[source]()
    sizes = [scn.space.npoints(s) for s in scn.frame.admissible()]
    nonempty = [scn.space.npoints(s) for s in _nonempty_subsets(scn)]
    n = scn.space.dimension
    reads, draws, functions, represented = [], [], [], []
    original = suites.raw_streams
    monkeypatch.setattr(suites, "raw_streams",
                        lambda seeds, counts: reads.append(list(counts)) or original(seeds, counts))
    monkeypatch.setattr(SplitMix64, "complex_matrix", _counting(draws, SplitMix64.complex_matrix))
    monkeypatch.setattr(SplitMix64, "integers", _counting(draws, SplitMix64.integers))
    monkeypatch.setattr(GridEvolutionSpace, "random_function", _counting(functions, GridEvolutionSpace.random_function))
    monkeypatch.setattr(PureRepresentation, "represent", _counting(represented, PureRepresentation.represent))
    expected = {
        suites._check_atoms: [[10 * k for k in sizes], _drawn_words(nonempty, 64, 256)],
        suites._check_factorization: [[50 * k for k in sizes]],
        suites._check_embedding: [[20 * k for k in sizes]],
        suites._check_conjugation_covariance: [[5 * (3 * k + 1) + 8 for k in sizes]],
        suites._check_embedding_measure: [_drawn_words(nonempty, 64, 256)],
        # the full set's masks, then every subset's point sets
        suites._check_injectivity: [_drawn_words([n], 4096, 512), _drawn_words(nonempty, 1024, 512)],
        suites._check_matrix_elements: [[20 * (k + 2) for k in nonempty]],
    }
    for check, counts in expected.items():
        reads.clear()
        check(scn)
        assert reads == [c for c in counts if c], check.__name__
    assert draws == [] and functions == [] and represented == []
    suites._check_singletons(scn)
    assert draws == [(n, 20)]


@pytest.mark.parametrize("budget", [suites.READ_NORMALS, 1000, 1])
def test_sampled_values_are_each_subset_s_own_draw_in_bounded_reads(budget, monkeypatch):
    # subsets whose values start within one run of `budget` share a read; each
    # run lays its subsets' rows side by side on the flat family axis, and a
    # subset's part of them is its own complex_matrix draw whatever the runs
    scn = SCENARIOS["ladder-5x2"]()
    subsets = scn.frame.admissible()
    offsets = scn.space.family_offsets()
    sizes = [50 * scn.space.npoints(s) for s in subsets]
    reads, default = [], suites.READ_NORMALS
    original = suites.raw_streams
    monkeypatch.setattr(suites, "READ_NORMALS", budget)
    monkeypatch.setattr(suites, "raw_streams", lambda seeds, counts: reads.append(counts) or original(seeds, counts))
    runs = list(suites._sampled_values(scn, "factorization", 25))
    assert [lo for lo, _, _ in runs] == [0, *(hi for _, hi, _ in runs[:-1])] and runs[-1][1] == len(subsets)
    for lo, hi, values in runs:
        assert values.shape == (25, offsets[hi] - offsets[lo])
        for i in range(lo, hi):
            k = int(offsets[i + 1] - offsets[i])
            want = _rng(scn, f"factorization-{sorted(map(str, subsets[i]))}").complex_matrix(25, k)
            assert values[:, offsets[i] - offsets[lo] : offsets[i + 1] - offsets[lo]].tobytes() == want.tobytes()
    assert len(reads) == len(runs) == len(set((np.cumsum([0, *sizes[:-1]]) // (2 * budget)).tolist()))
    assert (len(reads) == 1) == (budget == default)


@pytest.mark.parametrize("budget", [suites.READ_NORMALS, 100, 1])
def test_matrix_elements_reads_its_substream_in_bounded_windows(budget, monkeypatch):
    # the per-subset substreams are read in `_reads`' runs: a run's substreams
    # all start within 2 budget words of its first, and the records are the
    # per-sample ones whatever the runs
    scn = SCENARIOS["ladder-5x2"]()
    bounds = [20 * (scn.space.npoints(s) + 2) for s in _nonempty_subsets(scn)]
    reads, default = [], suites.READ_NORMALS
    original = suites.raw_streams
    monkeypatch.setattr(suites, "READ_NORMALS", budget)
    monkeypatch.setattr(suites, "raw_streams", lambda seeds, counts: reads.append(counts) or original(seeds, counts))
    assert _records_as_bits(suites._check_matrix_elements(scn)) == _records_as_bits(_per_sample_matrix_elements(scn))
    assert [c for counts in reads for c in counts] == bounds
    assert all(sum(counts[:-1]) < 2 * budget for counts in reads)
    assert (len(reads) == 1) == (budget == default)
    if budget == 1:
        assert len(reads) == len(bounds)


SUBSTREAM_PREFIXES = ("pushforward", "injectivity", "embedding-measure", "matrix-elements", "covariance",
                      "lipschitz", "spectral-sum", "factorization", "embedding")


@pytest.mark.parametrize("seed", [42, 2**64 - 1])
def test_reads_derive_each_label_s_own_seed_from_the_shared_prefix(seed, monkeypatch):
    # every label the checks make on a 12-time frame, 4,096 subsets, read in
    # runs of 64 substreams: the prefix each run shares is hashed once, and
    # each seed is still derive_seed of its whole label
    subsets = TimeFrame(tuple(map(str, range(1, 13))), (1.0,) * 12).admissible()
    seeds = []
    original = suites.raw_streams
    monkeypatch.setattr(suites, "raw_streams", lambda run, counts: seeds.extend(run) or original(run, counts))
    monkeypatch.setattr(suites, "READ_NORMALS", 32)
    scn = SimpleNamespace(seed=seed)
    for prefix in SUBSTREAM_PREFIXES:
        labels = suites._labels(prefix, subsets)
        seeds.clear()
        runs = list(suites._reads(scn, labels, [1] * len(labels)))
        assert len(runs) == 64
        assert seeds == [derive_seed(seed, label) for label in labels], prefix


def _empty_family():
    config = builtin_scenario("demo")
    config["time_frame"]["sigma0"] = []
    return scenario_from_dict(config)


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-8x1", "listed-3", "empty-family"])
def test_every_substream_read_goes_through_reads(source, monkeypatch):
    # one reader for per-subset draws: no check reads raw words on its own
    scn = _empty_family() if source == "empty-family" else SCENARIOS[source]()
    callers = []
    original = suites.raw_streams

    def spy(seeds, counts):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(seeds, counts)

    monkeypatch.setattr(suites, "raw_streams", spy)
    run_suite(scn, ["all"])
    assert set(callers) <= {"_reads"}
    assert callers or source == "empty-family"


def _per_subset_lipschitz(scn):
    # the Lipschitz law with one `_rng` draw of its sampled pairs per subset
    frame = scn.frame
    dev = 0.0
    for subset in frame.admissible():
        if subset:
            densities = scn.lagrangian.table(subset).real
            values = action_from_lagrangian(scn.lagrangian, subset).values
            k = len(densities)
            if k * k <= suites.LIPSCHITZ_PAIRS:
                left, right = np.divmod(np.arange(k * k), k)
            else:
                rng = _rng(scn, f"lipschitz-{sorted(map(str, subset))}")
                left, right = rng.integers(k, 2 * suites.LIPSCHITZ_PAIRS).reshape(-1, 2).T
            gap = np.abs(values[left] - values[right])
            bound = np.max(np.abs(densities[left] - densities[right]), axis=1) * frame.mu(subset)
            dev = nan_max(dev, 0.0, float(np.max(gap - bound)))
    return dev


@pytest.mark.parametrize("rung", ["demo", "5x2", "4x3", "6x3"])
def test_covariance_and_lipschitz_records_do_not_depend_on_the_runs(rung, monkeypatch):
    # the runs change how the substreams are read, never their words; 4x3 and
    # 6x3 sample their Lipschitz pairs.  Stretching the actions of the sampled
    # subsets, and only theirs, by a factor that grows along the points makes
    # the Lipschitz excess a function of which pairs were drawn
    scn = load_scenario(rung) if rung == "demo" else scenario_from_dict(ladder_config(*map(int, rung.split("x"))))
    sampled = any(scn.space.npoints(s) ** 2 > suites.LIPSCHITZ_PAIRS for s in scn.frame.admissible())
    original = Lagrangian.actions

    def stretched(self):
        actions = original.func(self).copy()
        offsets = self.space.family_offsets().tolist()
        for lo, hi in zip(offsets, offsets[1:]):
            k = hi - lo
            if k * k > suites.LIPSCHITZ_PAIRS:
                actions[lo:hi] *= 2.0 + np.arange(k) / k
        return actions

    monkeypatch.setattr(Lagrangian, "actions", property(stretched))
    records = []
    for budget in (suites.READ_NORMALS, 100, 1):
        monkeypatch.setattr(suites, "READ_NORMALS", budget)
        covariance = suites._check_conjugation_covariance(scn)
        lipschitz = [r for r in suites._check_actions(scn) if r[0] == "action-lipschitz"]
        records.append(_records_as_bits(covariance + lipschitz))
    assert records[0] == records[1] == records[2]
    assert lipschitz[0][2] == _per_subset_lipschitz(scn)
    assert (lipschitz[0][2] > 0.0) == sampled == (rung in ("4x3", "6x3"))


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-3x5"])
def test_matrix_elements_reads_the_per_sample_members(source, monkeypatch):
    # the stacked check's membership rows, in `diagonals` call order, are the
    # member sets of the scalar draws: a sample shifted by one word moves them
    scn = SCENARIOS[source]()
    n = scn.space.dimension
    expected = []
    for subset in _nonempty_subsets(scn):
        rng = _rng(scn, f"matrix-elements-{sorted(map(str, subset))}")
        k = scn.space.npoints(subset)
        rows = np.zeros((20, k), dtype=bool)
        for s in range(20):
            for _ in range(integer(rng, k) + 1):
                rows[s, integer(rng, k)] = True
            integer(rng, n)
        expected.append(rows)
    seen = []
    family = PureRepresentation.family_diagonals

    def spy(self, rows, lo, hi):
        # each subset's part of the chunk's flat rows
        offsets = self.space.family_offsets()[lo : hi + 1] - self.space.family_offsets()[lo]
        seen.extend(rows[:, a:b] for a, b in zip(offsets[:-1], offsets[1:]))
        return family(self, rows, lo, hi)

    monkeypatch.setattr(PureRepresentation, "family_diagonals", spy)
    suites._check_matrix_elements(scn)
    assert len(seen) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))


@pytest.mark.parametrize("source", ["demo", "ladder-5x2"])
def test_measures_are_read_through_gathers_only(source, monkeypatch):
    # atoms, the empty and the total set are rows of `diagonals` gathers:
    # no check builds a projection operator or reads a rank off its trace
    scn = SCENARIOS[source]()
    calls = []
    for name in ("atom", "projection"):
        monkeypatch.setattr(SpectralMeasure, name, _counting(calls, getattr(SpectralMeasure, name)))
    rank = _counting(calls, representation.projection_rank)
    for module in (representation, suites):
        if hasattr(module, "projection_rank"):
            monkeypatch.setattr(module, "projection_rank", rank)
    run_suite(scn, ["spectral", "conjugation"])
    assert calls == []


# -- spectral checks against mutants ---------------------------------------------


def _everywhere(name, value):
    # every module that binds the library function, so that each route reads the mutant
    return [(module, name, value) for module in (evolution, representation, suites) if hasattr(module, name)]


def _both_gathers(change):
    """A membership-row fault in both gathers: one measure's `diagonals` and the
    family's `family_diagonals`, each subset's rows changed alike."""
    return [
        (SpectralMeasure, "diagonals", on_members(change)(SpectralMeasure.diagonals)),
        (PureRepresentation, "family_diagonals", each_subset(change)(PureRepresentation.family_diagonals)),
    ]


def _on_complex_rows(original, change):
    # boolean membership rows pass unchanged
    def mutant(*args):
        out = original(*args)
        return change(out) if np.iscomplexobj(out) else out

    return mutant


def _both_pullbacks(change):
    """A fault of the pullback route, in `pullback_rows` and in `pullback_along`, on complex rows."""
    return (_everywhere("pullback_rows", _on_complex_rows(pullback_rows, change))
            + _everywhere("pullback_along", _on_complex_rows(pullback_along, change)))


def _conjugated_integral_rows(E, values):
    # 0/1 rows, the projections' route, pass unchanged
    out = integrate_rows(E, values)
    moved = ~np.all((values == 0) | (values == 1), axis=1)
    out[moved] = np.conj(out[moved])
    return out


def _conjugated_family_integrals(original):
    # the same fault on the family's integrals: a subset's part of a row that
    # is not 0/1 integrates to its conjugate
    def mutant(self, values, lo, hi):
        out = original(self, values, lo, hi)
        offsets = self.space.family_offsets()
        moved = ~np.logical_and.reduceat((values == 0) | (values == 1), offsets[lo:hi] - offsets[lo], axis=1)
        out[moved] = np.conj(out[moved])
        return out

    return mutant


def _shifted_chunk_offsets(space, values, lo, hi):
    # the measure side's gather reads each subset of a chunk from the next
    # subset's flat offset, the last from the first's: a chunk of one subset
    # reads it right
    starts = space.family_offsets()[lo : hi + 1]
    first = np.roll(starts[:-1] - starts[0], -1)
    return np.take(values, (first[:, None] + space.restriction_table()[lo:hi]) % values.shape[1], axis=1)


def _full_pullback_drops_last_point(space, subset, values):
    out = pullback_rows(space, subset, values).copy()
    if frozenset(subset) == space.full:
        out[:, -1] = 0
    return out


def _without_last_member(rows):
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1], axis=1)
    rows[np.arange(len(rows)), last] = False
    return rows


def _conjugating_right_factor(original):
    # f * g multiplies by conj(g) when g is a GridFunction; scalars pass unchanged
    def mutant(self, other):
        return original(self, other.conjugate() if isinstance(other, GridFunction) else other)

    return mutant


REVERSED_TABLE = (GridEvolutionSpace, "restriction_table", reversed_table(GridEvolutionSpace.restriction_table))

# a fault of a measure's gather is patched into the per-measure gathers
# (`diagonals`, `integrate_rows`) and into their family forms, which the
# family walks read
SPECTRAL_MUTANTS = {
    "neighbouring-atom": (_both_gathers(at_next_point), ("spectral-sum", "singleton-conjugacy")),
    "conjugated-integral-rows": (
        _everywhere("integrate_rows", _conjugated_integral_rows)
        + [(PureRepresentation, "family_integrals", _conjugated_family_integrals(PureRepresentation.family_integrals))],
        ("spectral-sum",),
    ),
    "reversed-restriction-table": ([REVERSED_TABLE], ("factorization",)),
    "reversed-restriction-table-pushforward": ([REVERSED_TABLE], ("pushforward",)),
    # two rows of one point count exchanged: every index is in range, but the
    # gathers read another subset's restriction
    "swapped-table-rows": (
        [(GridEvolutionSpace, "restriction_table", swapped_table_rows(GridEvolutionSpace.restriction_table))],
        ("pushforward", "factorization", "embedding", "embedding-measure", "matrix-elements"),
    ),
    # a chunk's subsets read at their neighbours' flat offsets by the
    # measures, not by the pullback, which reads the family offsets itself
    "shifted-chunk-offsets": ([(representation, "_family_gather", _shifted_chunk_offsets)],
                              ("factorization", "embedding")),
    "conjugated-pullback": (_both_pullbacks(np.conj), ("embedding",)),
    "doubled-pullback": (_both_pullbacks(lambda out: 2.0 * out), ("embedding-isometry",)),
    "full-pullback-drops-last-point": (_everywhere("pullback_rows", _full_pullback_drops_last_point),
                                       ("injectivity-full",)),
    # the last point of every subset belongs to no set: the total set, the
    # last atom and every lifted set holding it lose their last fibre
    "diagonals-ignore-last-point": (
        _both_gathers(without_last_point),
        ("injectivity-subsets", "pvm-axioms", "pushforward-rank", "singleton-rank", "embedding-measure"),
    ),
    "diagonals-ignore-last-member": (_both_gathers(_without_last_member), ("matrix-elements",)),
    "conjugating-product": (
        [(GridFunction, "__mul__", _conjugating_right_factor(GridFunction.__mul__))],
        ("diagonal-calculus",),
    ),
}


@pytest.mark.parametrize("mutant", list(SPECTRAL_MUTANTS))
def test_each_spectral_check_catches_its_mutant(mutant, monkeypatch):
    patches, caught = SPECTRAL_MUTANTS[mutant]
    scn = load_scenario("demo")
    clean = {r.check: r for r in run_suite(scn, ["spectral"]).records}
    assert all(clean[check].max_deviation == 0.0 for check in caught)
    for patch in patches:
        monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["spectral"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check


def _row_mixing(original):
    # row i of every gather ORed with row i - 1, cyclically: each row still
    # selects columns, but reads its neighbour's members too; a family
    # gather's rows are (row, subset) pairs, so each subset's rows mix
    def mutant(self, *args):
        out = original(self, *args)
        return out | np.roll(out, 1, axis=0)

    return mutant


def _mixing_gathers():
    return [(SpectralMeasure, "diagonals", _row_mixing(SpectralMeasure.diagonals)),
            (PureRepresentation, "family_diagonals", _row_mixing(PureRepresentation.family_diagonals))]


@pytest.mark.parametrize("source", MUTANT_SOURCES)
def test_pvm_axioms_catch_a_gather_that_mixes_rows(source, monkeypatch):
    # the fault left to the pair laws by a gather that selects columns row by
    # row; at N = 1 (8x1) every subset has one atom, and the ends catch it
    scn = SCENARIOS[source]()
    assert suites._check_atoms(scn)[0][2] == 0.0
    for patch in _mixing_gathers():
        monkeypatch.setattr(*patch)
    assert suites._check_atoms(scn)[0][2] > scn.tolerances.exact


BROKEN_MEASURES = {
    "row-mixing": _mixing_gathers(),
    "diagonals-ignore-last-point": _both_gathers(without_last_point),
}


@pytest.mark.parametrize("source", MUTANT_SOURCES)
@pytest.mark.parametrize("mutant", list(BROKEN_MEASURES))
def test_atom_records_match_their_oracles_where_points_lie_in_no_atom_or_several(mutant, source, monkeypatch):
    # a column of the atom table in no atom or in several takes the explicit
    # ascending-b sum: all four records keep the oracles' bits.  A gather that
    # mixes rows shows only to oracles that read the same gathers; one that
    # drops a point also to atom(b)
    scn = SCENARIOS[source]()
    for patch in BROKEN_MEASURES[mutant]:
        monkeypatch.setattr(*patch)
    got = suites._check_atoms(scn)
    assert got[0][2] > scn.tolerances.exact  # some column is in no atom or in several
    assert _records_as_bits(got) == _records_as_bits(_per_subset_atoms(scn, _atoms_in_two_gathers))
    if mutant == "diagonals-ignore-last-point":
        assert _records_as_bits(got) == _records_as_bits(_per_subset_atoms(scn))


def test_spectral_report_lists_the_checks_timed_together():
    report = run_suite(load_scenario("demo"), ["spectral"])
    assert report.shared == (
        ("pvm-axioms", "pushforward", "pushforward-rank", "spectral-sum"),
        ("injectivity-full", "injectivity-subsets"),
        ("embedding", "embedding-isometry"),
        ("singleton-rank", "singleton-conjugacy"),
    )


def _is_identity(rows):
    rows = np.asarray(rows)
    return rows.ndim == 2 and rows.shape[0] == rows.shape[1] and np.array_equal(rows, np.eye(len(rows), dtype=bool))


def _is_family_identity(rows, k):
    # the identity of a chunk of subsets of k points each: row q marks point q of every subset
    rows = np.asarray(rows)
    return rows.shape[0] == k and np.array_equal(rows, np.arange(rows.shape[1]) % k == np.arange(k)[:, None])


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-8x1", "listed-3"])
def test_each_atom_table_is_gathered_once_per_spectral_run(source, monkeypatch):
    # one identity-table gather per admissible subset, in a family gather of
    # a chunk of subsets of one point count, read by pvm-axioms,
    # pushforward-rank and spectral-sum, and the full measure's one in
    # `singletons`; listed-3 leaves the full set out of its family
    scn = SCENARIOS[source]()
    seen = []
    diagonals, family = SpectralMeasure.diagonals, PureRepresentation.family_diagonals
    monkeypatch.setattr(SpectralMeasure, "diagonals",
                        lambda self, rows: seen.append((self.subset, _is_identity(rows))) or diagonals(self, rows))

    def spy(self, rows, lo, hi):
        k = np.diff(self.space.family_offsets()[lo : hi + 1])
        if len(set(k.tolist())) == 1 and _is_family_identity(rows, int(k[0])):
            seen.extend((subset, True) for subset in self.space.frame.admissible()[lo:hi])
        return family(self, rows, lo, hi)

    monkeypatch.setattr(PureRepresentation, "family_diagonals", spy)
    run_suite(scn, ["spectral"])
    gathered = Counter(subset for subset, identity in seen if identity)
    assert gathered == Counter(scn.frame.admissible()) + Counter([scn.space.full])


# -- the family walk: chunks and the shared oracle image -------------------------


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-3x5", "listed-3", "ladder-2-3-2"])
def test_the_oracle_image_is_each_subset_s_digit_image(source):
    # every row of every chunk of the shared image, against the per-subset
    # image and the library's table; chunks of one subset and of the family
    scn = SCENARIOS[source]()
    space = scn.space
    subsets = scn.frame.admissible()
    oracle = suites._oracle_image(space)
    for step in (1, 3, len(subsets)):
        for lo in range(0, len(subsets), step):
            hi = min(lo + step, len(subsets))
            image = oracle(lo, hi)
            assert image.shape == (hi - lo, space.dimension)
            for subset, row, table_row in zip(subsets[lo:hi], image, space.restriction_table()[lo:hi]):
                assert np.array_equal(row, suites._restriction_image(space, subset))
                assert np.array_equal(row, table_row)


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "listed-3"])
def test_spectral_records_do_not_depend_on_the_chunking(source, monkeypatch):
    # PAIR_ENTRIES is read at call time: a small budget splits every family
    # walk into many chunks, and every record keeps the one-chunk run's bits
    scn = SCENARIOS[source]()
    calls = []
    family = PureRepresentation.family_diagonals
    monkeypatch.setattr(PureRepresentation, "family_diagonals",
                        lambda self, rows, lo, hi: calls.append(hi - lo) or family(self, rows, lo, hi))
    bodies, gathers = [], []
    for budget in (1 << 30, 1000, 64, 1):
        monkeypatch.setattr(dynamics, "PAIR_ENTRIES", budget)
        calls.clear()
        bodies.append(run_suite(scn, ["spectral", "conjugation"]).body_lines())
        gathers.append(len(calls))
        if budget == 1:
            assert set(calls) == {1}  # one subset per chunk
    assert bodies[1:] == bodies[:-1]
    assert gathers[0] < gathers[-1]
    assert gathers == sorted(gathers)


FAMILY_CHECKS = [suites._check_atoms, suites._check_factorization, suites._check_embedding,
                 suites._check_embedding_measure, suites._check_matrix_elements, suites._check_conjugated_pvm,
                 suites._check_index_roundtrip]


@pytest.mark.parametrize("check", FAMILY_CHECKS, ids=lambda check: check.__name__)
def test_a_chunk_holds_a_bounded_share_of_the_family(check, monkeypatch):
    # rung 8x2 (N = 256, 256 subsets): at budgets of 2^12 gathered entries and
    # 2^12 normals per read, a check's traced peak stays under 1.5 MiB, where
    # the whole family's (25, 256, 256) integrals alone take 26 MB
    import tracemalloc

    scn = scenario_from_dict(ladder_config(8, 2))
    monkeypatch.setattr(dynamics, "PAIR_ENTRIES", 1 << 12)
    monkeypatch.setattr(suites, "READ_NORMALS", 1 << 12)
    # an untraced first call builds the space's tables and imports what numpy
    # loads lazily (`np.unique` imports `numpy.ma`), none of which is a chunk
    check(scn)
    tracemalloc.start()
    try:
        records = check(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(dev <= tol for _, _, dev, tol in records)
    assert peak < 1.5 * 2**20


def _naive_point_sets(scn, prefix, exhaustive, samples):
    # the per-subset draws of the parent walk, each subset's own read
    return {i: _parent_point_sets(scn, f"{prefix}-{sorted(map(str, s))}", scn.space.npoints(s), exhaustive, samples)
            for i, s in enumerate(scn.frame.admissible()) if s}


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-3x5", "ladder-2-3-2"])
@pytest.mark.parametrize("shape", [("pushforward", EXHAUSTIVE_SETS, 256), ("injectivity", 1024, 512)])
def test_point_set_chunks_are_each_subset_s_own_sets(source, shape):
    # the rows of each subset in its chunk are its sorted distinct sets, one
    # or two words per id (3x5 has N = 125), and the rows past its count are empty
    scn = SCENARIOS[source]()
    offsets = scn.space.family_offsets()
    expected = _naive_point_sets(scn, *shape)
    seen = []
    for lo, hi, rows, count in suites._point_set_chunks(scn, *shape):
        assert rows.dtype == bool and rows.shape == (count.max(), offsets[hi] - offsets[lo])
        for i in range(lo, hi):
            part = rows[:, offsets[i] - offsets[lo] : offsets[i + 1] - offsets[lo]]
            assert np.array_equal(part[: count[i - lo]], expected[i]) and not part[count[i - lo] :].any()
            seen.append(i)
    assert seen == sorted(expected)


@pytest.mark.parametrize("n", [12, 64, 65, 200])
def test_distinct_counts_are_the_distinct_rows_of_each_subset(n):
    # one and several 64-bit words per row; repeated rows and rows past a
    # subset's count, which must not count
    rng = np.random.default_rng(n)
    bits = rng.random((40, 6, n)) < 0.5
    bits[5:9] = bits[0]
    bits[20, :, : n // 2] = bits[21, :, : n // 2]
    count = np.array([40, 1, 9, 21, 30, 40])
    got = suites._distinct_counts(bits, count)
    want = [len(np.unique(bits[: c, i], axis=0)) for i, c in enumerate(count)]
    assert got.tolist() == want
