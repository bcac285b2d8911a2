import itertools
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evogrid import (
    Automorphism,
    DomainError,
    GridEvolutionSpace,
    GridPointMap,
    StructureError,
    TimeFrame,
    WStarAlgebra,
    contraction_norm_estimate,
    linear_map_matrix,
    named_contraction,
    pullback,
    pullback_family,
    pullback_rows,
)
from evobench.ladder import ladder_config
from evogrid import evolution
from evogrid.rng import SplitMix64
from evogrid.scenario import load_scenario, scenario_from_dict

from conftest import FLIP


def digit_image(space, subset):
    """Each full point's linear index over `subset`, from its mixed-radix digits."""
    digits = np.unravel_index(np.arange(space.dimension), space.full_shape())
    kept = [digits[ax] for ax in space.axes(subset)]
    return np.ravel_multi_index(kept, space.shape(subset)) if kept else np.zeros(space.dimension, dtype=np.int64)


def make_232_space():
    # grid sizes (2, 3, 2) across three times
    algebra = WStarAlgebra((2,))
    flip = Automorphism.conjugation(algebra, [FLIP])
    ident = GridPointMap.identity(algebra)
    frame = TimeFrame(("1", "2", "3"), (1.0, 1.0, 1.0))
    grids = (
        (ident, GridPointMap.from_automorphism(flip)),
        (ident, GridPointMap.from_automorphism(flip), named_contraction("trace_average", algebra)),
        (ident, named_contraction("trace_average", algebra)),
    )
    return GridEvolutionSpace(frame, grids)


# -- time frames ------------------------------------------------------------


def test_frame_weights_and_measure():
    frame = TimeFrame(("1", "2", "3"), (0.5, 2.0, 0.0))
    assert frame.mu(frozenset()) == 0.0
    assert frame.mu({"1", "2"}) == 2.5
    assert frame.mu({"3"}) == 0.0
    assert frame.weight("2") == 2.0
    assert frame.ordered({"3", "1"}) == ("1", "3")


def test_frame_rejects_duplicates_and_negative_weights():
    with pytest.raises(StructureError):
        TimeFrame(("1", "1"), (1.0, 1.0))
    with pytest.raises(StructureError):
        TimeFrame(("1",), (-1.0,))


def test_admissible_family_defaults_to_all_subsets():
    frame = TimeFrame(("1", "2"), (1.0, 1.0))
    fam = frame.admissible()
    assert len(fam) == 4
    assert fam[0] == frozenset()
    assert fam[-1] == frozenset({"1", "2"})
    assert frame.is_admissible({"2"})


@pytest.mark.parametrize("times", [("b", "a"), ("3", "1", "2"), ("z", "b", "y", "a", "x", "c")])
def test_all_subsets_come_in_size_then_frame_position_order(times):
    # labels out of lexical order: the family is ordered by frame position
    frame = TimeFrame(times, (1.0,) * len(times))
    subsets = [frozenset(c) for r in range(len(times) + 1) for c in itertools.combinations(sorted(times), r)]
    order = sorted(subsets, key=lambda s: (len(s), sorted(times.index(t) for t in s)))
    assert frame.admissible() == tuple(order)
    assert frame.members().tolist() == [[t in s for t in times] for s in order]
    listed = TimeFrame(times, (1.0,) * len(times), sigma0=order[::-1])
    assert listed.admissible() == frame.admissible()
    assert np.array_equal(listed.members(), frame.members())


def test_admissible_family_must_be_union_closed():
    with pytest.raises(StructureError):
        TimeFrame(("1", "2"), (1.0, 1.0), sigma0=(frozenset({"1"}), frozenset({"2"})))
    frame = TimeFrame(
        ("1", "2"),
        (1.0, 1.0),
        sigma0=(frozenset(), frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"})),
    )
    assert len(frame.admissible()) == 4


def closure_by_pairs(family) -> str | None:
    """The union-closure check as an m^2 loop over frozensets: None, or its StructureError text."""
    present = set(family)
    for s1 in family:
        for s2 in family:
            if s1 | s2 not in present:
                return "admissible family is not closed under unions"
    return None


def _closure_cases():
    """Listed families: the empty family, one subset, over 3, 9 and 70 times
    random generators, their union closure and that closure without one union,
    and a family that misses only the union of its last two subsets."""
    rng = np.random.default_rng(11)
    cases = [(("1",), ()), (("1", "2"), (frozenset({"2"}),))]
    for count in (3, 9, 70):
        times = tuple(str(i) for i in range(count))
        for _ in range(4):
            generators = {frozenset(t for t in times if rng.random() < 0.3) for _ in range(rng.integers(1, 6))}
            closed = set(generators)
            while len(closed) < len(grown := closed | {a | b for a in closed for b in closed}):
                closed = grown
            unions = sorted((s for s in closed if s not in generators), key=sorted)
            cases += [(times, tuple(generators)), (times, tuple(closed))]
            cases += [(times, tuple(closed - {union})) for union in unions[:1]]
    # the only missing union is of the last two rows in `admissible()` order, listed first
    cases.append((("1", "2", "3"), (frozenset({"1", "3"}), frozenset({"1", "2"}), frozenset({"1"}))))
    return cases


@pytest.mark.parametrize("times, family", _closure_cases())
def test_union_closure_agrees_with_the_pair_loop(times, family):
    expected = closure_by_pairs(family)
    if expected is None:
        frame = TimeFrame(times, (1.0,) * len(times), family)
        assert set(frame.admissible()) == set(family)
        # the row lookup: a member's position, len(family) for every prefix of the times outside it
        probes = list(family) + [frozenset(times[:k]) for k in range(len(times) + 1)]
        rows = np.packbits([[t in s for t in times] for s in probes], axis=1)
        position = {s: i for i, s in enumerate(frame.admissible())}
        assert frame._find(rows).tolist() == [position.get(s, len(family)) for s in probes]
    else:
        with pytest.raises(StructureError, match=f"^{expected}$"):
            TimeFrame(times, (1.0,) * len(times), family)


def test_listed_family_of_every_subset_is_the_all_family():
    # 4,096 subsets, listed largest first: the same order and pair tables as "all"
    times = tuple(str(i) for i in range(1, 13))
    weights = (0.5,) * 11 + (0.0,)
    every = TimeFrame(times, weights)
    listed = TimeFrame(times, weights, every.admissible()[::-1])
    assert listed.admissible() == every.admissible()
    assert np.array_equal(listed.disjoint_pairs(), every.disjoint_pairs())
    assert np.array_equal(listed.nested_pairs(), every.nested_pairs())


def _nested_frames():
    """Frames whose nested pairs the oracle checks: demo, rung 5x2, a listed
    family that leaves a time out, and every closed family of `_closure_cases()`."""
    frames = [
        pytest.param(lambda: load_scenario("demo").frame, id="demo"),
        pytest.param(lambda: scenario_from_dict(ladder_config(5, 2)).frame, id="ladder-5x2"),
        pytest.param(lambda: TimeFrame(("1", "2", "3"), (1.0,) * 3, [set(), {"1"}, {"2"}, {"1", "2"}]), id="listed"),
    ]
    for k, (times, family) in enumerate(_closure_cases()):
        if closure_by_pairs(family) is None:
            build = partial(TimeFrame, times, (1.0,) * len(times), family)
            frames.append(pytest.param(build, id=f"closed-{k}-over-{len(times)}"))
    return frames


@pytest.mark.parametrize("build", _nested_frames())
def test_nested_pairs_match_the_subset_loop(build):
    frame = build()
    domain = frame.admissible()
    expected = [(i, j) for i, big in enumerate(domain) for j, small in enumerate(domain) if small and small < big]
    table = frame.nested_pairs()
    assert table.shape == (len(expected), 2) and list(map(tuple, table.tolist())) == expected
    # the membership table the pair tables are products of
    members = frame.members()
    assert members.shape == (len(domain), len(frame.times)) and members.dtype == bool
    assert not members.flags.writeable
    assert [frozenset(t for t, x in zip(frame.times, row) if x) for row in members] == list(domain)


def test_pair_tables_trace_at_most_two_m_squared_bytes():
    # the 12-time "all" frame, m = 4,096: each table beside its output holds
    # at most two m x m boolean products, not an (m, m, ceil(T/8)) byte relation
    times = tuple(str(i) for i in range(1, 13))
    for name in ("disjoint_pairs", "nested_pairs"):
        frame = TimeFrame(times, (0.5,) * 11 + (0.0,))
        m = len(frame.admissible())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = getattr(frame, name)()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * m * m + table.nbytes, name


def test_admissible_rejects_unknown_labels():
    with pytest.raises(DomainError):
        TimeFrame(("1",), (1.0,), sigma0=(frozenset({"9"}),))


# -- grid maps ---------------------------------------------------------------


def test_map_backings_agree(m2, flip):
    from_auto = GridPointMap.from_automorphism(flip)
    from_dense = GridPointMap.from_matrix(m2, linear_map_matrix(flip))
    a = m2.random_element(SplitMix64(4))
    assert (from_auto.apply(a) - from_dense.apply(a)).norm() < 1e-12


def test_dense_backing_rejects_non_finite_entries(m2):
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.eye(m2.dimension, dtype=np.complex128)
        m[0, 1] = bad
        with pytest.raises(StructureError, match="non-finite"):
            GridPointMap.from_matrix(m2, m)


def test_contraction_estimate_automorphism_is_exactly_one(flip):
    assert contraction_norm_estimate(GridPointMap.from_automorphism(flip)) == 1.0


def test_contraction_estimate_flags_expansion(m2):
    doubled = GridPointMap.from_matrix(m2, 2.0 * np.eye(m2.dimension))
    assert contraction_norm_estimate(doubled) >= 2.0 - 1e-12


def test_trace_average_is_contractive(m2):
    phi = named_contraction("trace_average", m2)
    assert contraction_norm_estimate(phi, samples=16) <= 1.0 + 1e-12


@pytest.mark.parametrize("dims", [(1,), (2,), (2, 3), (3, 1, 3)])
def test_trace_average_matrix_matches_its_action(dims):
    class TraceAverage:
        def __init__(self, algebra):
            self.algebra = algebra

        def apply_blocks(self, blocks):
            traces = (np.trace(b, axis1=-2, axis2=-1)[..., None, None] for b in blocks)
            return [t / n * np.eye(n) for t, n in zip(traces, self.algebra.block_dims)]

    algebra = WStarAlgebra(dims)
    reference = linear_map_matrix(TraceAverage(algebra))
    assert named_contraction("trace_average", algebra).dense.tobytes() == reference.tobytes()


def test_unknown_named_contraction(m2):
    with pytest.raises(DomainError):
        named_contraction("nope", m2)


# -- product point sets -------------------------------------------------------


def test_mixed_radix_frozen_value():
    space = make_232_space()
    # earliest time most significant: grid indices (1, 2, 0) are (1*3 + 2)*2 + 0 = 10
    assert np.unravel_index(10, space.full_shape()) == (1, 2, 0)
    # and the point restricts to (1, 0) over {1, 3}, index 2, and to (2,) over {2}
    assert space.restricted_index_array({"1", "3"})[10] == 2
    assert space.restricted_index_array({"2"})[10] == 2


def test_empty_subset_has_one_point():
    space = make_232_space()
    assert space.npoints(frozenset()) == 1
    assert space.shape(frozenset()) == ()
    assert np.array_equal(space.restricted_index_array(frozenset()), np.zeros(space.dimension))


def test_dimension_is_grid_product():
    space = make_232_space()
    assert space.dimension == 2 * 3 * 2
    assert space.full_shape() == (2, 3, 2)
    assert space.shape({"1", "3"}) == (2, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=11))
def test_index_roundtrip_property(index):
    # a restricted index unravels to the full point's digits on the subset's axes
    space = make_232_space()
    digits = np.unravel_index(index, space.full_shape())
    for subset in space.frame.admissible():
        restricted = space.restricted_index_array(subset)[index]
        assert np.unravel_index(restricted, space.shape(subset)) == tuple(digits[ax] for ax in space.axes(subset))


def test_restriction_composes():
    # restricting to {1, 2} and then to {2} is restricting to {2}: the step
    # from {1, 2} to {2} is one function, the last digit of a {1, 2} point
    space = make_232_space()
    middle = space.restricted_index_array({"1", "2"})
    last = space.restricted_index_array({"2"})
    step = np.full(space.npoints({"1", "2"}), -1)
    step[middle] = last
    assert np.array_equal(step[middle], last)
    assert np.array_equal(step, np.arange(6) % 3)


def test_restricted_index_array_matches_pointwise():
    space = make_232_space()
    for subset in space.frame.admissible():
        assert np.array_equal(space.restricted_index_array(subset), digit_image(space, subset))


def test_restricted_index_array_is_read_only():
    space = make_232_space()
    table = space.restricted_index_array({"1", "3"})
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 5
    # a row of the one family table, built once
    assert space.restriction_table() is space.restriction_table()
    assert np.shares_memory(table, space.restriction_table())
    assert not space.restriction_table().flags.writeable
    assert table[0] == 0


def test_spaces_do_not_share_geometry():
    first = make_232_space()
    twin = make_232_space()
    smaller = GridEvolutionSpace(first.frame, first.grids[:2] + (first.grids[2][:1],))
    subset = {"2", "3"}
    assert twin.restricted_index_array(subset) is not first.restricted_index_array(subset)
    assert np.array_equal(twin.restricted_index_array(subset), first.restricted_index_array(subset))
    # same frame, other grid sizes: its own shape and table
    assert smaller.shape(subset) == (3, 1)
    assert np.array_equal(smaller.restricted_index_array(subset), [0, 1, 2, 0, 1, 2])
    assert first.shape(subset) == (3, 2)


def test_frame_queries_leave_equality_and_hash_alone():
    used = TimeFrame(("1", "2", "3"), (0.5, 2.0, 0.0))
    assert used.position("3") == 2
    assert used.ordered({"3", "1"}) == ("1", "3")
    assert used.ordered({"3", "1"}) == ("1", "3")
    # the sorted family is built once and the same tuple comes back
    family = used.admissible()
    assert used.admissible() is family
    fresh = TimeFrame(("1", "2", "3"), (0.5, 2.0, 0.0))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)


def test_unknown_labels_still_raise_after_queries():
    frame = TimeFrame(("1", "2"), (1.0, 1.0))
    frame.ordered({"1", "2"})
    with pytest.raises(DomainError):
        frame.position("9")
    with pytest.raises(DomainError):
        frame.ordered({"1", "9"})
    with pytest.raises(DomainError):
        make_232_space().npoints({"9"})


# -- grid functions -----------------------------------------------------------


def test_pullback_frozen_values(small_space):
    f = small_space.function({"1"}, [7.0, 9.0])
    lifted = pullback(f)
    assert lifted.subset == small_space.full
    assert np.array_equal(lifted.values, np.array([7.0, 7.0, 9.0, 9.0]))


def test_pullback_of_full_function_is_identity(small_space):
    rng = SplitMix64(9)
    f = small_space.random_function(small_space.full, rng)
    assert np.array_equal(pullback(f).values, f.values)


def test_pullback_agrees_with_pointwise_composition():
    space = make_232_space()
    rng = SplitMix64(10)
    for subset in space.frame.admissible():
        f = space.random_function(subset, rng)
        lifted = pullback(f)
        assert np.array_equal(lifted.values, f.values[digit_image(space, subset)])


@pytest.mark.parametrize("budget", [1, 7, 1 << 12, evolution._GATHER_ENTRIES])
def test_pullback_family_gathers_each_row_in_bounded_chunks(budget, monkeypatch):
    # rung 8x2 without a conjugator, m = N = 256: row i is subset i's slice
    # of the flat table read through its restriction row, and each chunk's
    # flat indices hold at most the budget (one row's N when a row is
    # larger), so no (m, N) int64 index array sits beside the stack
    cfg = ladder_config(8, 2)
    del cfg["conjugator"]
    space = scenario_from_dict(cfg).space
    offsets, table = space.family_offsets(), space.restriction_table()
    values = SplitMix64(3).complex_matrix(1, int(offsets[-1]))[0]
    monkeypatch.setattr(evolution, "_GATHER_ENTRIES", budget)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stack = pullback_family(space, values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    expected = np.array([values[lo:hi][row] for lo, hi, row in zip(offsets, offsets[1:], table)])
    assert stack.shape == (len(space.frame.admissible()), space.dimension)
    assert stack.tobytes() == expected.tobytes()
    # the stack, a chunk's int64 indices and the gather's complex buffer
    assert peak <= stack.nbytes + max(budget, space.dimension) * (8 + 16) + 64 * 1024


def test_pullback_rows_pull_back_each_row():
    # a block of rows, of any dtype, lifts row by row as pullback does
    space = make_232_space()
    rng = SplitMix64(11)
    for subset in space.frame.admissible():
        fs = [space.random_function(subset, rng) for _ in range(3)]
        block = np.array([f.values for f in fs])
        lifted = pullback_rows(space, subset, block)
        assert lifted.shape == (3, space.dimension) and lifted.flags.c_contiguous
        for f, row in zip(fs, lifted):
            assert np.array_equal(row, pullback(f).values)
        bits = pullback_rows(space, subset, block.real > 0)
        assert bits.dtype == bool and np.array_equal(bits, lifted.real > 0)
        assert pullback_rows(space, subset, block[:0]).shape == (0, space.dimension)
    with pytest.raises(StructureError):
        pullback_rows(space, {"1"}, np.zeros((2, space.npoints({"1"}) + 1)))
    with pytest.raises(StructureError):
        pullback_rows(space, {"1"}, np.zeros(space.npoints({"1"})))


def test_function_value_length_enforced(small_space):
    with pytest.raises(StructureError):
        small_space.function({"1"}, [1.0, 2.0, 3.0])


def test_function_peer_space_enforced(small_space):
    other = make_232_space()
    f = small_space.function({"1"}, [1.0, 2.0])
    g = other.function({"1"}, [1.0, 2.0])
    with pytest.raises(StructureError):
        f * g


def test_constant_on_the_empty_subset_has_one_point(small_space):
    one = small_space.constant(frozenset(), 1.0)
    assert one.values.shape == (1,)
    assert one.sup_norm() == 1.0
