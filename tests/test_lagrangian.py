import itertools

import numpy as np
import pytest

from evobench.ladder import ladder_config
from evogrid import (
    ActionWeight,
    DataError,
    DomainError,
    GridEvolutionSpace,
    GridPointMap,
    Lagrangian,
    StructureError,
    TimeFrame,
    action_from_lagrangian,
    load_scenario,
    run_suite,
    scenario_from_dict,
    validate_action_weight,
    verify_lagrangian,
    weight_from_lagrangian,
)
from evogrid import suites

from conftest import every_ordered_pair


def table_lagrangian(space):
    return Lagrangian.from_table(
        space, {"1": [3.0, 5.0], "2": [-1.0, 4.0], "3": [0.5, 0.25]}
    )


def constant_tables(space, value):
    """One density table per admissible subset, every entry `value`."""
    return {s: np.full((space.npoints(s), len(s)), value) for s in space.frame.admissible()}


def test_action_weighted_sum_frozen(weighted_space):
    # weights 0.5 and 2.0; densities 3 and -1 at the chosen point:
    # S = 0.5*3 + 2.0*(-1) = -0.5
    lag = table_lagrangian(weighted_space)
    action = action_from_lagrangian(lag, {"1", "2"})
    k = np.ravel_multi_index((0, 0), weighted_space.shape({"1", "2"}))
    assert action.values[k] == pytest.approx(-0.5, abs=1e-15)


def test_zero_weight_time_contributes_nothing(weighted_space):
    lag = table_lagrangian(weighted_space)
    with_null = action_from_lagrangian(lag, {"1", "3"})
    only_one = action_from_lagrangian(lag, {"1"})
    table = weighted_space.restricted_index_array(frozenset({"1"}))
    # restriction of {1,3} points to {1}: identical action values
    sub_table = weighted_space.restricted_index_array(frozenset({"1", "3"}))
    for x in range(weighted_space.dimension):
        assert with_null.values[sub_table[x]] == only_one.values[table[x]]


def test_empty_subset_action_is_zero(weighted_space):
    lag = table_lagrangian(weighted_space)
    empty = action_from_lagrangian(lag, frozenset())
    assert np.array_equal(empty.values, np.zeros(1))


def test_action_rejects_inadmissible_subset(m2, flip):
    frame = TimeFrame(
        ("1", "2"),
        (1.0, 1.0),
        sigma0=(frozenset(), frozenset({"1"}), frozenset({"1", "2"})),
    )
    ident = GridPointMap.identity(m2)
    space = GridEvolutionSpace(
        frame, ((ident, GridPointMap.from_automorphism(flip)), (ident,))
    )
    lag = Lagrangian.from_table(space, {"1": [1.0, 2.0], "2": [3.0]})
    with pytest.raises(DomainError):
        action_from_lagrangian(lag, {"2"})


def test_local_lagrangian_restriction_consistency(weighted_space):
    lag = table_lagrangian(weighted_space)
    report = verify_lagrangian(lag)
    assert max(report.restriction_deviation, report.realness_deviation) <= 1e-12
    assert report.restriction_deviation == 0.0
    assert report.realness_deviation == 0.0
    assert report.pairs > 0


def test_subset_dependent_evaluator_flagged_frozen(weighted_space):
    # a density that peeks at the subset cannot restrict consistently;
    # largest mismatch is len({1,2,3}) - len({t'}) = 2
    tables = {
        s: np.full((weighted_space.npoints(s), len(s)), float(len(s))) for s in weighted_space.frame.admissible()
    }
    lag = Lagrangian(weighted_space, tables)
    report = verify_lagrangian(lag)
    assert not max(report.restriction_deviation, report.realness_deviation) <= 1e-12
    assert report.restriction_deviation == 2.0


def test_complex_density_flagged(weighted_space):
    lag = Lagrangian(weighted_space, constant_tables(weighted_space, 1.0 + 0.25j))
    report = verify_lagrangian(lag)
    assert report.realness_deviation == pytest.approx(0.25, abs=1e-15)


def test_non_finite_density_raises(weighted_space):
    with pytest.raises(DataError):
        Lagrangian(weighted_space, constant_tables(weighted_space, float("nan")))


def test_missing_subset_is_rejected(weighted_space):
    tables = constant_tables(weighted_space, 1.0)
    del tables[frozenset({"2", "3"})]
    with pytest.raises(StructureError, match="missing"):
        Lagrangian(weighted_space, tables)


def test_wrong_table_shape_is_rejected(weighted_space):
    tables = constant_tables(weighted_space, 1.0)
    tables[frozenset({"1", "2"})] = np.ones((4, 1))
    with pytest.raises(StructureError, match="shape"):
        Lagrangian(weighted_space, tables)
    # the empty subset has one point and no time: (1, 0), not (1, 1)
    tables = constant_tables(weighted_space, 1.0)
    tables[frozenset()] = np.ones((1, 1))
    with pytest.raises(StructureError, match="shape"):
        Lagrangian(weighted_space, tables)


def test_inadmissible_subset_is_rejected(m2):
    frame = TimeFrame(("1", "2"), (1.0, 1.0), sigma0=(frozenset(), frozenset({"1"}), frozenset({"1", "2"})))
    ident = GridPointMap.identity(m2)
    space = GridEvolutionSpace(frame, ((ident,), (ident,)))
    tables = constant_tables(space, 1.0)
    tables[frozenset({"2"})] = np.ones((1, 1))
    with pytest.raises(DomainError):
        Lagrangian(space, tables)


def test_tables_are_read_only_copies(weighted_space):
    given = constant_tables(weighted_space, 1.0)
    lag = Lagrangian(weighted_space, given)
    table = lag.table({"1"})
    assert table.dtype == np.complex128 and not table.flags.writeable
    given[frozenset({"1"})][0, 0] = 5.0
    assert lag.table({"1"})[0, 0] == 1.0


def test_consistency_sweep_finds_a_single_bad_point(m2):
    # 25**3 full points, and the full-subset density disagrees with its
    # restriction to {1} at exactly one of them
    frame = TimeFrame(
        ("1", "2", "3"),
        (1.0, 1.0, 1.0),
        sigma0=(frozenset(), frozenset({"1"}), frozenset({"1", "2", "3"})),
    )
    ident = GridPointMap.identity(m2)
    space = GridEvolutionSpace(frame, ((ident,) * 25,) * 3)
    tables = constant_tables(space, 0.0)
    tables[frame.full][np.ravel_multi_index((24, 24, 24), space.full_shape()), 0] = 1.0

    report = verify_lagrangian(Lagrangian(space, tables))
    assert report.restriction_deviation == 1.0
    assert report.pairs == 1
    assert not max(report.restriction_deviation, report.realness_deviation) <= 1e-12


def test_probe_terms_run_once_per_grid_entry(monkeypatch):
    # loading and every suite read the density tables, never the term again
    calls = []
    from_local = Lagrangian.from_local.__func__

    def counting_from_local(cls, space, term):
        def counted(t, index, grid_map):
            calls.append((t, index))
            return term(t, index, grid_map)

        return from_local(cls, space, counted)

    monkeypatch.setattr(Lagrangian, "from_local", classmethod(counting_from_local))
    scn = load_scenario("demo")
    assert run_suite(scn).overall_pass
    grid_entries = [(t, i) for t in scn.frame.times for i in range(scn.space.grid_size(t))]
    assert sorted(calls) == grid_entries


def per_point_tables(space, term):
    """The density tables point by point: the per-time term at each point's
    grid index, points in itertools.product (mixed-radix) order."""
    frame = space.frame
    values = {t: [term(t, i, space.map_at(t, i)) for i in range(space.grid_size(t))] for t in frame.times}
    tables = {}
    for subset in frame.admissible():
        labels = frame.ordered(subset)
        points = itertools.product(*(range(space.grid_size(t)) for t in labels))
        tables[subset] = np.array(
            [[complex(values[t][i]) for t, i in zip(labels, point)] for point in points], dtype=np.complex128
        )
    return tables


LOADERS = {"demo": lambda: load_scenario("demo"), "ladder-5x2": lambda: scenario_from_dict(ladder_config(5, 2))}


@pytest.mark.parametrize("source", list(LOADERS))
def test_from_local_tables_match_the_per_point_oracle(source, monkeypatch):
    terms = []
    from_local = Lagrangian.from_local.__func__

    def recording_from_local(cls, space, term):
        terms.append(term)
        return from_local(cls, space, term)

    monkeypatch.setattr(Lagrangian, "from_local", classmethod(recording_from_local))
    scn = LOADERS[source]()
    (term,) = terms
    oracle = per_point_tables(scn.space, term)
    for subset in scn.frame.admissible():
        table = scn.lagrangian.table(subset)
        assert table.shape == oracle[subset].shape == (scn.space.npoints(subset), len(subset))
        assert table.tobytes() == oracle[subset].tobytes()


def test_from_table_requires_full_rows(weighted_space):
    with pytest.raises(DomainError):
        Lagrangian.from_table(weighted_space, {"1": [1.0, 2.0], "2": [1.0, 2.0]})
    with pytest.raises(DomainError):
        Lagrangian.from_table(
            weighted_space, {"1": [1.0], "2": [1.0, 2.0], "3": [1.0, 2.0]}
        )


def test_action_additivity_over_disjoint_subsets(weighted_space):
    lag = table_lagrangian(weighted_space)
    frame = weighted_space.frame
    pulled = {
        s: action_from_lagrangian(lag, s).values[weighted_space.restricted_index_array(s)]
        for s in frame.admissible()
    }
    for t1 in frame.admissible():
        for t2 in frame.admissible():
            if frame.mu(t1 & t2) != 0.0:
                continue
            assert np.max(np.abs(pulled[t1 | t2] - pulled[t1] - pulled[t2])) < 1e-12


def test_action_lipschitz_in_the_density(weighted_space):
    lag = table_lagrangian(weighted_space)
    frame = weighted_space.frame
    for subset in frame.admissible():
        if not subset:
            continue
        action = action_from_lagrangian(lag, subset)
        mu = frame.mu(subset)
        densities = lag.table(subset).real
        for i, a in enumerate(densities):
            for j, b in enumerate(densities):
                gap = abs(action.values[i] - action.values[j])
                assert gap <= np.max(np.abs(a - b)) * mu + 1e-12


def test_weight_from_action_is_exponential(weighted_space):
    # u_T = exp(i S_T) bit for bit
    lag = table_lagrangian(weighted_space)
    weight = weight_from_lagrangian(lag)
    for subset in weighted_space.frame.admissible():
        expected = np.exp(1j * action_from_lagrangian(lag, subset).values)
        assert np.array_equal(weight.function(subset).values, expected)
    report = validate_action_weight(weight)
    assert max(report.unimodular, report.cocycle, report.null_subset) <= 1e-12


def test_weight_from_lagrangian_shortcut(weighted_space):
    # one unimodular function per admissible subset, each over its own subset
    lag = table_lagrangian(weighted_space)
    weight = weight_from_lagrangian(lag)
    assert set(weight.functions) == set(weighted_space.frame.admissible())
    for subset in weighted_space.frame.admissible():
        f = weight.function(subset)
        assert f.space is weighted_space and f.subset == subset
        assert np.max(np.abs(np.abs(f.values) - 1.0)) < 1e-12


# -- the lagrangian checks against mutants ---------------------------------------
#
# Each row breaks one law the lagrangian checks claim, by a monkeypatch of the
# library, and names the checks that must then report more than their tolerance.


def _table_plus(shift):
    # every density table plus shift(subset)
    original = Lagrangian.table

    def table(self, subset):
        return original(self, subset) + shift(frozenset(subset))

    return table


def _action_edited(edit):
    # the suites' actions, each with its values passed through edit(values)
    def action(lagrangian, subset):
        f = action_from_lagrangian(lagrangian, subset)
        return f.space.function(f.subset, edit(f.values))

    return action


def _null_weights_times(factor):
    original = ActionWeight.function

    def function(self, subset):
        f = original(self, subset)
        if self.space.frame.mu(f.subset) != 0.0:
            return f
        return f.space.function(f.subset, f.values * factor)

    return function


LAGRANGIAN_MUTANTS = {
    "density-counts-its-subset": (
        (Lagrangian, "table", _table_plus(len)),
        ("lagrangian-consistency", "action-additivity"),
    ),
    "imaginary-density": ((Lagrangian, "table", _table_plus(lambda s: 0.25j)), ("lagrangian-consistency",)),
    "action-plus-one": (
        (suites, "action_from_lagrangian", _action_edited(lambda v: v + 1.0)),
        ("action-additivity", "null-action"),
    ),
    "action-doubled": ((suites, "action_from_lagrangian", _action_edited(lambda v: 2.0 * v)), ("action-lipschitz",)),
    "overlapping-pairs": ((TimeFrame, "disjoint_pairs", every_ordered_pair), ("action-additivity",)),
    "phase-on-null-weights": ((ActionWeight, "function", _null_weights_times(np.exp(0.1j))), ("null-action",)),
}


@pytest.mark.parametrize("mutant", list(LAGRANGIAN_MUTANTS))
def test_each_lagrangian_check_catches_its_mutant(mutant, monkeypatch):
    patch, caught = LAGRANGIAN_MUTANTS[mutant]
    scn = load_scenario("demo")
    monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["lagrangian"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check
