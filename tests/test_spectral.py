"""The spectral checks against mutants and against their per-sample bodies.

Each mutant row breaks a law the spectral checks claim, by a monkeypatch
of the library, and names the checks that must then report more than their
tolerance on `demo`.  The per-sample loops that the stacked checks
replaced stay here as oracles: the stacked checks must return the same
records, bit for bit, also where a broken restriction table makes the
deviations nonzero.
"""

import numpy as np
import pytest

from evobench.ladder import ladder_config
from evogrid import evolution, load_scenario, representation, run_suite, scenario_from_dict, suites
from evogrid.dynamics import nan_max
from evogrid.evolution import GridEvolutionSpace, GridFunction, pullback, pullback_rows
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
from evogrid.rng import SplitMix64
from evogrid.suites import _nonempty_subsets, _point_sets, _rng

from conftest import neighbouring_members, reversed_table

# -- the per-sample bodies the stacked checks replaced -------------------------


def _per_sample_spectral_sum(scn):
    space = scn.space
    rep = scn.representation
    dev = 0.0
    for subset in scn.frame.admissible():
        rng = _rng(scn, f"spectral-sum-{sorted(map(str, subset))}")
        measure = rep.spectral_measure(subset)
        for _ in range(5):
            f = space.random_function(subset, rng)
            got = integrate(f, measure).diag
            oracle = np.zeros(space.dimension, dtype=np.complex128)
            for b in range(measure.npoints):
                oracle += f.values[b] * measure.atom(b).diag
            dev = nan_max(dev, float(np.max(np.abs(got - oracle))))
    return [("spectral-sum", "C3.7", dev, scn.tolerances.exact)]


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
    masks = _point_sets(scn, "injectivity-full", n, 4096, 512)
    lifted = pullback_rows(space, space.full, masks.astype(np.complex128))
    seen = {rep.represent(space.function(space.full, row)).diag.tobytes() for row in lifted}
    if len(seen) != len(masks):
        bad += 1
    sub_bad = 0
    for subset in _nonempty_subsets(scn):
        measure = rep.spectral_measure(subset)
        rows = _point_sets(scn, f"injectivity-{sorted(map(str, subset))}", measure.npoints, 1024, 512)
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
    rng = _rng(scn, "matrix-elements")
    n = space.dimension
    dev = 0.0
    for subset in _nonempty_subsets(scn):
        measure = rep.spectral_measure(subset)
        k = measure.npoints
        for _ in range(20):
            members = set()
            for _ in range(rng.integer(k) + 1):
                members.add(rng.integer(k))
            x = rng.integer(n)
            y = rng.integer(n)
            value = matrix_element(measure, x, y, members)
            if x != y:
                expected = 0.0
            else:
                # restrict the basis point by its digits, not through the table
                digits = np.unravel_index(x, space.full_shape())
                image = np.ravel_multi_index([digits[ax] for ax in space.axes(subset)], space.shape(subset))
                expected = 1.0 if image in members else 0.0
            dev = nan_max(dev, abs(value - expected))
    return [("matrix-elements", "P3.5", dev, scn.tolerances.exact)]


ORACLES = {
    suites._check_spectral_sum: _per_sample_spectral_sum,
    suites._check_factorization: _per_sample_factorization,
    suites._check_injectivity: _per_sample_injectivity,
    suites._check_embedding: _per_sample_embedding,
    suites._check_matrix_elements: _per_sample_matrix_elements,
}

SCENARIOS = {
    "demo": lambda: load_scenario("demo"),
    "witness": lambda: load_scenario("witness"),
    "ladder-5x2": lambda: scenario_from_dict(ladder_config(5, 2)),
    "ladder-2x8": lambda: scenario_from_dict(ladder_config(2, 8)),
    "ladder-3x5": lambda: scenario_from_dict(ladder_config(3, 5)),
}


def _records_as_bits(records):
    # float64 deviations compared by their bits, so -0.0 and 0.0 differ
    return [(check, law, np.float64(dev).tobytes(), tol) for check, law, dev, tol in records]


@pytest.mark.parametrize("source", list(SCENARIOS))
def test_stacked_checks_return_the_per_sample_records(source):
    scn = SCENARIOS[source]()
    for check, oracle in ORACLES.items():
        assert _records_as_bits(check(scn)) == _records_as_bits(oracle(scn)), check.__name__


# mutants under which the records of both routes are nonzero, keyed by the checks they move
MOVED_BY = {
    "reversed-restriction-table": {"factorization", "embedding", "matrix-elements"},
    "conjugated-integral-rows": {"spectral-sum", "factorization", "embedding"},
    "doubled-pullback": {"factorization", "embedding", "embedding-isometry"},
}


@pytest.mark.parametrize("source", ["demo", "ladder-5x2"])
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
    assert nonzero == MOVED_BY[mutant]


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


# -- call counts -----------------------------------------------------------------


def _counting(calls, original):
    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    return spy


def test_sampled_checks_draw_one_matrix_per_subset(monkeypatch):
    scn = load_scenario("demo")
    subsets = scn.frame.admissible()
    draws, functions, represented = [], [], []
    monkeypatch.setattr(SplitMix64, "complex_matrix", _counting(draws, SplitMix64.complex_matrix))
    monkeypatch.setattr(GridEvolutionSpace, "random_function", _counting(functions, GridEvolutionSpace.random_function))
    monkeypatch.setattr(PureRepresentation, "represent", _counting(represented, PureRepresentation.represent))
    for check, samples in ((suites._check_spectral_sum, 5), (suites._check_factorization, 25),
                           (suites._check_embedding, 10)):
        draws.clear()
        check(scn)
        assert draws == [(samples, scn.space.npoints(s)) for s in subsets], check.__name__
    assert functions == []
    suites._check_injectivity(scn)
    assert represented == []


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


def _on_complex_rows(change):
    # boolean membership rows pass unchanged
    def mutant(space, subset, values):
        out = pullback_rows(space, subset, values)
        return change(out) if np.iscomplexobj(out) else out

    return mutant


def _conjugated_integral_rows(E, values):
    # 0/1 rows, the projections' route, pass unchanged
    out = integrate_rows(E, values)
    moved = ~np.all((values == 0) | (values == 1), axis=1)
    out[moved] = np.conj(out[moved])
    return out


def _full_pullback_drops_last_point(space, subset, values):
    out = pullback_rows(space, subset, values).copy()
    if frozenset(subset) == space.full:
        out[:, -1] = 0
    return out


def _diagonals_ignore_last_point(original):
    def mutant(self, rows):
        rows = np.array(rows, dtype=bool)
        rows[:, -1] = False
        return original(self, rows)

    return mutant


def _diagonals_ignore_last_member(original):
    def mutant(self, rows):
        rows = np.array(rows, dtype=bool)
        last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1], axis=1)
        rows[np.arange(len(rows)), last] = False
        return original(self, rows)

    return mutant


def _conjugating_right_factor(original):
    # f * g multiplies by conj(g) when g is a GridFunction; scalars pass unchanged
    def mutant(self, other):
        return original(self, other.conjugate() if isinstance(other, GridFunction) else other)

    return mutant


REVERSED_TABLE = (GridEvolutionSpace, "restricted_index_array", reversed_table(GridEvolutionSpace.restricted_index_array))

SPECTRAL_MUTANTS = {
    "neighbouring-atom": (
        [(SpectralMeasure, "diagonals", neighbouring_members(SpectralMeasure.diagonals))],
        ("spectral-sum", "singleton-conjugacy"),
    ),
    "conjugated-integral-rows": (_everywhere("integrate_rows", _conjugated_integral_rows), ("spectral-sum",)),
    "reversed-restriction-table": ([REVERSED_TABLE], ("factorization",)),
    "reversed-restriction-table-pushforward": ([REVERSED_TABLE], ("pushforward",)),
    "conjugated-pullback": (_everywhere("pullback_rows", _on_complex_rows(np.conj)), ("embedding",)),
    "doubled-pullback": (_everywhere("pullback_rows", _on_complex_rows(lambda out: 2.0 * out)),
                         ("embedding-isometry",)),
    "full-pullback-drops-last-point": (_everywhere("pullback_rows", _full_pullback_drops_last_point),
                                       ("injectivity-full",)),
    # the last point of every subset belongs to no set: the total set, the
    # last atom and every lifted set holding it lose their last fibre
    "diagonals-ignore-last-point": (
        [(SpectralMeasure, "diagonals", _diagonals_ignore_last_point(SpectralMeasure.diagonals))],
        ("injectivity-subsets", "pvm-axioms", "pushforward-rank", "singleton-rank", "embedding-measure"),
    ),
    "diagonals-ignore-last-member": (
        [(SpectralMeasure, "diagonals", _diagonals_ignore_last_member(SpectralMeasure.diagonals))],
        ("matrix-elements",),
    ),
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


def test_spectral_report_lists_the_checks_timed_together():
    report = run_suite(load_scenario("demo"), ["spectral"])
    assert report.shared == (
        ("pushforward", "pushforward-rank"),
        ("injectivity-full", "injectivity-subsets"),
        ("embedding", "embedding-isometry"),
        ("singleton-rank", "singleton-conjugacy"),
    )
