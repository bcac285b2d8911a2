import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    builtin_scenario,
    load_scenario,
    run_suite,
    scenario_from_dict,
    validate_action_weight,
    verify_lagrangian,
    weight_from_lagrangian,
)

from evogrid import dynamics
from evogrid.lagrangian import _restriction_range

from conftest import every_ordered_pair
from test_dynamics import per_pair_restriction


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


# -- the family builds against the per-subset bodies they replaced ----------------
#
# The oracles below are the per-subset bodies of `Lagrangian.from_local`,
# `action_from_lagrangian`, `weight_from_lagrangian` and `ActionWeight.stack`
# from before the family builds: one table, action, weight and stack row per
# subset, in `admissible()` order.


def oracle_tables(space, term):
    """Per subset: columns gathered from the per-time term values by `np.unravel_index` digits."""
    frame = space.frame
    values = {
        t: np.array([term(t, index, space.map_at(t, index)) for index in range(space.grid_size(t))],
                    dtype=np.complex128)
        for t in frame.times
    }
    tables = {}
    for subset in frame.admissible():
        labels = frame.ordered(subset)
        table = tables[subset] = np.empty((space.npoints(subset), len(labels)), dtype=np.complex128)
        digits = np.unravel_index(np.arange(len(table)), space.shape(subset)) if labels else ()
        for column, (t, digit) in enumerate(zip(labels, digits)):
            table[:, column] = values[t][digit]
    return tables


def oracle_density_error(tables):
    """The parent constructor's message for the first subset whose table is not finite, or None."""
    for subset, table in tables.items():
        if not np.all(np.isfinite(table)):
            return f"density table of subset {sorted(map(str, subset))} has non-finite values"
    return None


def oracle_action(space, table, subset):
    """Columns added into zeros in frame order; DataError at the first non-finite point."""
    frame = space.frame
    densities = table.real
    labels = frame.ordered(subset)
    values = np.zeros(space.npoints(subset), dtype=np.float64)
    for j, t in enumerate(labels):
        values += frame.weight(t) * densities[:, j]
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DataError(f"action is non-finite at point index {bad[0]} of subset {list(map(str, labels))}")
    return values


def oracle_stack(space, weights):
    """Row T is u_T gathered through T's restriction row into zeros."""
    domain = space.frame.admissible()
    stack = np.zeros((len(domain), space.dimension), dtype=np.complex128)
    for row, subset, restricted in zip(stack, domain, space.restriction_table()):
        row += weights[subset][restricted]
    return stack


def _demo_with(sigma0):
    cfg = builtin_scenario("demo")
    cfg["time_frame"]["sigma0"] = sigma0
    return cfg


ORACLE_SOURCES = {
    "demo": lambda: builtin_scenario("demo"),
    "witness": lambda: builtin_scenario("witness"),
    "ladder-5x2": lambda: ladder_config(5, 2),
    "ladder-3x5": lambda: ladder_config(3, 5),
    "ladder-8x1": lambda: ladder_config(8, 1),
    "listed": lambda: _demo_with([["1", "2", "3"], [], ["3"], ["1"], ["1", "3"]]),
    "no-subset": lambda: _demo_with([]),
    "empty-subset": lambda: _demo_with([[]]),
}


def _recorded_load(cfg, monkeypatch):
    """The scenario and the terms its loader handed to `Lagrangian.from_local`."""
    terms = []
    from_local = Lagrangian.from_local.__func__

    def recording_from_local(cls, space, term):
        terms.append(term)
        return from_local(cls, space, term)

    monkeypatch.setattr(Lagrangian, "from_local", classmethod(recording_from_local))
    return scenario_from_dict(cfg), terms


@pytest.mark.parametrize("source", list(ORACLE_SOURCES))
def test_family_builds_match_the_per_subset_oracles_bit_for_bit(source, monkeypatch):
    cfg = ORACLE_SOURCES[source]()
    scn, terms = _recorded_load(cfg, monkeypatch)
    space, domain = scn.space, scn.frame.admissible()
    if scn.lagrangian is None:  # witness: the weight's functions come from the config
        assert terms == []
        weights = {
            frozenset(entry["times"]): np.array([complex(*pair) for pair in entry["values"]])
            for entry in cfg["dynamics"]["weights"]
        }
    else:
        (term,) = terms
        tables = oracle_tables(space, term)
        actions = {s: oracle_action(space, tables[s], s) for s in domain}
        weights = {s: np.exp(1j * actions[s]) for s in domain}
        for subset in domain:
            table = scn.lagrangian.table(subset)
            assert table.shape == tables[subset].shape and table.flags.c_contiguous and not table.flags.writeable
            assert table.tobytes() == tables[subset].tobytes()
            assert action_from_lagrangian(scn.lagrangian, subset).values.tobytes() == actions[subset].tobytes()
        if frozenset() in domain:
            assert scn.lagrangian.table(frozenset()).shape == (1, 0)
    for subset in domain:
        assert scn.weight.function(subset).values.tobytes() == weights[subset].astype(np.complex128).tobytes()
    stack = oracle_stack(space, weights)
    assert scn.weight.stack.shape == stack.shape == (len(domain), space.dimension)
    assert scn.weight.stack.tobytes() == stack.tobytes()


def test_loading_calls_no_per_subset_action(monkeypatch):
    from evogrid import lagrangian as lagrangian_module

    calls = []
    original = lagrangian_module.action_from_lagrangian
    monkeypatch.setattr(lagrangian_module, "action_from_lagrangian", lambda *args: calls.append(args) or original(*args))
    scn = scenario_from_dict(ladder_config(12, 1))
    assert calls == [] and len(scn.frame.admissible()) == 4096
    assert "actions" in vars(scn.lagrangian)  # formed once, for the weight, and kept for the action laws


def _message(error, call):
    with pytest.raises(error) as caught:
        call()
    return str(caught.value)


@pytest.mark.parametrize("bad", [(("2", 1),), (("3", 0), ("1", 1)), (("1", 0), ("1", 1), ("2", 0))])
def test_a_non_finite_density_names_the_parent_first_subset(weighted_space, bad):
    values = {"1": [3.0, 5.0], "2": [-1.0, 4.0], "3": [0.5, 0.25]}
    for t, index in bad:
        values[t][index] = float("inf") if index else float("nan")
    tables = oracle_tables(weighted_space, lambda t, index, _map: values[t][index])
    expected = oracle_density_error(tables)
    assert expected is not None
    assert _message(DataError, lambda: Lagrangian.from_table(weighted_space, values)) == expected
    assert _message(DataError, lambda: Lagrangian(weighted_space, tables)) == expected


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "values",
    [
        # time 2 alone overflows at its second point
        {"1": [3.0, 5.0], "2": [-1.0, 1e308], "3": [0.5, 0.25]},
        # every singleton is finite; {1, 2} overflows at its last point only
        {"1": [3.0, 1.7e308], "2": [-1.0, 8e307], "3": [0.5, 0.25]},
        {"1": [3.0, -1.7e308], "2": [-8e307, -1.0], "3": [0.5, 0.25]},
    ],
)
def test_a_non_finite_action_names_the_parent_first_subset_and_point(weighted_space, values):
    lag = Lagrangian.from_table(weighted_space, values)
    tables = {s: lag.table(s) for s in weighted_space.frame.admissible()}
    messages = []
    for subset in weighted_space.frame.admissible():
        try:
            oracle_action(weighted_space, tables[subset], subset)
        except DataError as exc:
            messages.append(str(exc))
            assert _message(DataError, lambda: action_from_lagrangian(lag, subset)) == messages[-1]
        else:
            action_from_lagrangian(lag, subset)
    assert messages
    assert _message(DataError, lambda: weight_from_lagrangian(lag)) == messages[0]


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
    assert weight.domain() == weighted_space.frame.admissible()
    for subset in weighted_space.frame.admissible():
        f = weight.function(subset)
        assert f.space is weighted_space and f.subset == subset
        assert np.max(np.abs(np.abs(f.values) - 1.0)) < 1e-12


# -- the lagrangian checks against mutants ---------------------------------------
#
# Each row breaks one law the lagrangian checks claim, by a monkeypatch of the
# library made before the scenario loads, and names the checks that must then
# report more than their tolerance.


def _local_plus(shift):
    # every local Lagrangian's density tables plus shift(subset), stored through the table constructor
    original = Lagrangian.from_local.__func__

    def from_local(cls, space, term):
        lagrangian = original(cls, space, term)
        return cls(space, {s: lagrangian.table(s) + shift(s) for s in space.frame.admissible()})

    return classmethod(from_local)


def _actions_edited(edit):
    # the Lagrangian's table of actions, which the weight and the action laws read, passed through edit(values)
    original = Lagrangian.actions
    return property(lambda self: edit(original.func(self)))


def _null_weights_times(factor):
    # the weight's stack rows on weight-zero subsets, times factor
    original = ActionWeight.stack

    def stack(self):
        null = self.space.frame.null_subsets()[:, None]
        return np.where(null, original.func(self) * factor, original.func(self))

    return property(stack)


LAGRANGIAN_MUTANTS = {
    "density-counts-its-subset": (
        (Lagrangian, "from_local", _local_plus(len)),
        ("lagrangian-consistency", "action-additivity"),
    ),
    "imaginary-density": ((Lagrangian, "from_local", _local_plus(lambda s: 0.25j)), ("lagrangian-consistency",)),
    "action-plus-one": (
        (Lagrangian, "actions", _actions_edited(lambda v: v + 1.0)),
        ("action-additivity", "null-action"),
    ),
    "action-doubled": ((Lagrangian, "actions", _actions_edited(lambda v: 2.0 * v)), ("action-lipschitz",)),
    "overlapping-pairs": ((TimeFrame, "disjoint_pairs", every_ordered_pair), ("action-additivity",)),
    "phase-on-null-weights": ((ActionWeight, "stack", _null_weights_times(np.exp(0.1j))), ("null-action",)),
}


@pytest.mark.parametrize("mutant", list(LAGRANGIAN_MUTANTS))
def test_each_lagrangian_check_catches_its_mutant(mutant, monkeypatch):
    patch, caught = LAGRANGIAN_MUTANTS[mutant]
    monkeypatch.setattr(*patch)
    scn = load_scenario("demo")
    records = {r.check: r for r in run_suite(scn, ["lagrangian"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check


# -- the restriction law's range certificate --------------------------------------


@pytest.mark.parametrize("mutant", list(LAGRANGIAN_MUTANTS))
def test_the_restriction_law_is_the_per_pair_arithmetic_under_each_mutant(mutant, monkeypatch):
    # a mutant whose tables break the law takes the exact walk, and any other
    # stops at the certificate: either way the per-pair maximum and count
    monkeypatch.setattr(*LAGRANGIAN_MUTANTS[mutant][0])
    lagrangian = load_scenario("demo").lagrangian
    report = verify_lagrangian(lagrangian)
    assert per_pair_restriction(lagrangian) == (report.restriction_deviation.hex(), report.pairs)
    assert (report.restriction_deviation > 0.0) == (mutant == "density-counts-its-subset")


@functools.cache
def _rung_lagrangian(times, grid):
    cfg = ladder_config(times, grid)
    del cfg["conjugator"]
    return scenario_from_dict(cfg).lagrangian


def _faulted(lagrangian, seed, faults, scale):
    """`lagrangian` with `faults` entries moved by scale times a normal draw, or
    with every table drawn at random when `faults` is 0."""
    space = lagrangian.space
    rng = np.random.default_rng(seed)
    domain = [s for s in space.frame.admissible() if s]
    tables = {s: lagrangian.table(s).real.copy() for s in space.frame.admissible()}
    for _ in range(faults):
        table = tables[domain[rng.integers(len(domain))]]
        table[rng.integers(table.shape[0]), rng.integers(table.shape[1])] += scale * rng.normal()
    if not faults:
        tables = {s: scale * rng.normal(size=t.shape) for s, t in tables.items()}
    return Lagrangian(space, tables)


FAULTED_RUNGS = dict(
    rung=st.sampled_from([(1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3)]),
    seed=st.integers(0, 2**32 - 1),
    faults=st.integers(0, 6),
    scale=st.sampled_from([1e-9, 1e-3, 1.0, 1e6]),
)


@settings(max_examples=40, deadline=None)
@given(**FAULTED_RUNGS)
def test_the_range_certificate_lies_between_the_law_and_twice_it(rung, seed, faults, scale):
    # a local Lagrangian with a few entries moved, or with every table drawn
    # at random (no fault drawn): the exact maximum D from the pair walk and
    # the certificate R obey D <= R <= 2 D
    faulted = _faulted(_rung_lagrangian(*rung), seed, faults, scale)
    exact = verify_lagrangian(faulted).restriction_deviation
    assert exact <= _restriction_range(faulted) <= 2.0 * exact


def stacked_walk(lagrangian) -> float:
    """The restriction law's exact walk over one stack of every pulled table, a
    row per (subset, time) column, read by one `_pair_max` over all nested pairs."""
    space = lagrangian.space
    frame = space.frame
    member = frame.members()
    columns = [np.empty((0, space.dimension))]
    for subset, restricted in zip(frame.admissible(), space.restriction_table()):
        columns.append(lagrangian.table(subset).real[restricted].T)
    slot = np.cumsum(member).reshape(member.shape) - 1  # the stack row of (subset, frame position)
    big, small = frame.nested_pairs().T
    pair, time = np.nonzero(member[small])
    shared = np.column_stack((slot[big[pair], time], slot[small[pair], time]))
    return dynamics._pair_max(np.concatenate(columns), shared, np.subtract)


@settings(max_examples=30, deadline=None)
@given(**FAULTED_RUNGS)
def test_the_walk_one_time_at_a_time_is_the_stacked_walk_bit_for_bit(rung, seed, faults, scale):
    faulted = _faulted(_rung_lagrangian(*rung), seed, faults, scale)
    assert verify_lagrangian(faulted).restriction_deviation.hex() == stacked_walk(faulted).hex()


def test_the_range_certificate_holds_one_chunk_and_a_row_per_time(monkeypatch):
    # rung 8x2 without a conjugator, m = N = 256: the exact walk stacks every
    # pulled table, sum |T| N = 4 m N values (2 MiB); the certificate holds a
    # chunk of at most PAIR_ENTRIES values and a running max and min over the
    # N full points, O(T N) in all
    lagrangian = _rung_lagrangian(8, 2)
    space = lagrangian.space
    space.restriction_table()
    monkeypatch.setattr(dynamics, "PAIR_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spread = _restriction_range(lagrangian)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert spread == 0.0
    assert peak <= 4 * dynamics.PAIR_ENTRIES * 8 + 2 * len(space.frame.times) * space.dimension * 8 + 64 * 1024


def test_the_exact_walk_holds_one_time_s_columns(monkeypatch):
    # rung 8x2 with one density moved, m = N = 256: the walk stacks the
    # time-t columns of the 128 subsets holding t (256 KiB), where one stack
    # of every pulled table held sum |T| N = 4 m N values (2 MiB, twice that
    # while concatenated); beside it, four pair-walk operands of at most
    # PAIR_ENTRIES values and the nested pair table, in int64 rows
    lagrangian = _rung_lagrangian(8, 2)
    space = lagrangian.space
    faulted = _faulted(lagrangian, 3, 1, 1.0)
    space.restriction_table()
    monkeypatch.setattr(dynamics, "PAIR_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = verify_lagrangian(faulted)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.restriction_deviation > 0.0
    held = space.frame.members().sum(axis=0).max()
    assert peak <= held * space.dimension * 8 + 4 * dynamics.PAIR_ENTRIES * 8 + 64 * report.pairs + 64 * 1024
