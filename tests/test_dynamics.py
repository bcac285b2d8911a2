import json
import math
import tracemalloc
from collections import Counter
from itertools import pairwise

import numpy as np
import pytest

from evogrid import (
    ActionWeight,
    ConfigError,
    DataError,
    DiagonalOperator,
    DomainError,
    GridEvolutionSpace,
    GridPointMap,
    Lagrangian,
    StructureError,
    TimeFrame,
    action_from_lagrangian,
    builtin_scenario,
    commutant_witness,
    conjugate,
    evolution_unitary,
    identity_operator,
    load_scenario,
    named_contraction,
    resolve_g,
    run_suite,
    scenario_from_dict,
    validate_action_weight,
    verify_lagrangian,
    weight_from_lagrangian,
)
from evobench.ladder import ladder_config
from evogrid import dynamics
from evogrid.cli import main
from evogrid.rng import SplitMix64
from evogrid.scenario import encode_matrix

from conftest import FLIP, HADAMARD, every_ordered_pair


def make_weight(space):
    table = {t: [0.3 * (j + 1) for j in range(space.grid_size(t))] for t in space.frame.times}
    return weight_from_lagrangian(Lagrangian.from_table(space, table))


# -- post-map registry ---------------------------------------------------------


def test_resolve_g_forms():
    assert resolve_g("abs2")(3.0 + 4.0j) == pytest.approx(25.0)
    assert resolve_g("re")(2.0 - 1.0j) == pytest.approx(2.0)
    scaled = resolve_g({"name": "abs", "scale": 2.0, "offset": 1.0})
    assert scaled(-3.0) == pytest.approx(7.0)
    for bad in ("nope", 42, lambda z: 5.0, {"scale": 2}, {"name": "abs", "scale": "x"}):
        with pytest.raises(DomainError):
            resolve_g(bad)


# -- action weights ------------------------------------------------------------


def test_weight_requires_every_admissible_subset(weighted_space):
    weight = make_weight(weighted_space)
    partial = {s: weight.function(s) for s in weight.domain() if s != frozenset({"1"})}
    with pytest.raises(StructureError):
        ActionWeight(weighted_space, partial)


def test_weight_rejects_inadmissible_subsets(m2, flip):
    from evogrid import GridEvolutionSpace, TimeFrame

    frame = TimeFrame(
        ("1", "2"),
        (1.0, 1.0),
        sigma0=(frozenset(), frozenset({"1"}), frozenset({"1", "2"})),
    )
    ident = GridPointMap.identity(m2)
    space = GridEvolutionSpace(frame, ((ident, GridPointMap.from_automorphism(flip)), (ident,)))
    weight = make_weight(space)
    bad = {s: weight.function(s) for s in weight.domain()}
    bad[frozenset({"2"})] = space.constant({"2"}, 1.0)
    with pytest.raises(DomainError):
        ActionWeight(space, bad)


def _worst(report):
    # the largest of the three law deviations, the value judged against a tolerance
    return max(report.unimodular, report.cocycle, report.null_subset)


def test_weight_from_lagrangian_satisfies_all_laws(weighted_space):
    weight = make_weight(weighted_space)
    report = validate_action_weight(weight)
    assert _worst(report) <= 1e-12
    assert report.unimodular <= 1e-15
    assert report.cocycle <= 1e-15
    assert report.null_subset == 0.0
    assert report.pairs_checked > 0


def test_perturbed_cocycle_deviation_frozen(weighted_space):
    weight = make_weight(weighted_space)
    tweaked = {s: weight.function(s) for s in weight.domain()}
    sub = frozenset({"1"})
    values = weight.function(sub).values.copy()
    values *= np.exp(0.1j)
    tweaked[sub] = weighted_space.function(sub, values)
    report = validate_action_weight(ActionWeight(weighted_space, tweaked))
    assert not _worst(report) <= 1e-12
    # every violated pair differs by the same unimodular factor
    assert report.cocycle == pytest.approx(abs(np.exp(0.1j) - 1.0), abs=1e-13)


def test_non_unimodular_weight_flagged(weighted_space):
    weight = make_weight(weighted_space)
    tweaked = {s: weight.function(s) for s in weight.domain()}
    sub = frozenset({"2"})
    tweaked[sub] = weighted_space.function(sub, weight.function(sub).values * 1.5)
    report = validate_action_weight(ActionWeight(weighted_space, tweaked))
    assert report.unimodular == pytest.approx(0.5, abs=1e-13)
    assert not _worst(report) <= 1e-12


def test_cocycle_checked_at_every_point_beyond_ten_thousand(m2):
    # 101 x 101 = 10,201 full points; the only bad cocycle point is index 98
    from evogrid import GridEvolutionSpace, TimeFrame

    ident = GridPointMap.identity(m2)
    space = GridEvolutionSpace(TimeFrame(("1", "2"), (1.0, 1.0)), ((ident,) * 101, (ident,) * 101))
    assert space.dimension == 10_201
    functions = {s: space.constant(s, 1.0) for s in space.frame.admissible()}
    values = np.ones(space.dimension, dtype=np.complex128)
    values[98] = -1.0
    functions[space.full] = space.function(space.full, values)
    report = validate_action_weight(ActionWeight(space, functions))
    assert report.unimodular == 0.0
    assert report.cocycle == 2.0
    assert not _worst(report) <= 1e-12


def test_nan_max_lets_nan_through_and_is_max_otherwise():
    from evogrid.dynamics import nan_max

    nan = float("nan")
    for values in [(nan, 1.0, 2.0), (0.0, nan, 2.0), (0.0, 2.0, nan)]:
        assert math.isnan(nan_max(*values))
    for values in [(0.0, -0.0), (-0.0, 0.0), (1.0, 3.0, 3.0, 2.0), (0.5,)]:
        got = nan_max(*values)
        assert got == max(values) and math.copysign(1.0, got) == math.copysign(1.0, max(values))


def write_last_value(weight, subset, value):
    """Set the last value of `subset`'s function in the weight's flat table, after the
    weight validated its values and before its stack is formed."""
    values = weight.values.copy()
    values[weight.space.family_offsets()[weight.space.frame.index(subset) + 1] - 1] = value
    object.__setattr__(weight, "values", values)


def test_validate_action_weight_reports_a_nan_that_is_not_first(weighted_space):
    # the table is edited after the weight validated its values; every law
    # reads the NaN through a running maximum that starts from a finite value
    weight = make_weight(weighted_space)
    subsets = weighted_space.frame.admissible()
    write_last_value(weight, subsets[-1], float("nan"))
    report = validate_action_weight(weight)
    assert math.isnan(report.unimodular)
    assert math.isnan(report.cocycle)


def test_weight_rejects_non_finite_values(weighted_space):
    weight = make_weight(weighted_space)
    tweaked = {s: weight.function(s) for s in weight.domain()}
    sub = frozenset({"2"})
    values = weight.function(sub).values.copy()
    values[0] = complex(float("inf"), 0.0)
    tweaked[sub] = weighted_space.function(sub, values)
    with pytest.raises(DataError):
        ActionWeight(weighted_space, tweaked)


# -- evolution unitaries ---------------------------------------------------------


def test_unitaries_are_unitary(weighted_space, rep8):
    weight = make_weight(weighted_space)
    for subset in weighted_space.frame.admissible():
        u = evolution_unitary(weight, subset, rep8)
        assert isinstance(u, DiagonalOperator)
        assert (u.adjoint() @ u - identity_operator(8)).norm() <= 1e-14


def test_empty_set_unitary_is_exactly_identity(weighted_space, rep8):
    weight = make_weight(weighted_space)
    u = evolution_unitary(weight, frozenset(), rep8)
    assert np.array_equal(u.diag, np.ones(8, dtype=np.complex128))


def test_null_weight_subset_unitary_is_exactly_identity(weighted_space, rep8):
    # time "3" has weight zero, so its action vanishes and u is one
    weight = make_weight(weighted_space)
    u = evolution_unitary(weight, {"3"}, rep8)
    assert np.array_equal(u.diag, np.ones(8, dtype=np.complex128))


def group_law(weight, t1, t2, rep) -> float:
    """The norm of U_T1 U_T2 - U_(T1 u T2), one product per pair."""
    u1, u2, u12 = (evolution_unitary(weight, s, rep) for s in (t1, t2, frozenset(t1) | frozenset(t2)))
    return (u1 @ u2 - u12).norm()


def test_group_law_all_disjoint_pairs(weighted_space, rep8):
    weight = make_weight(weighted_space)
    domain = weighted_space.frame.admissible()
    checked = 0
    for t1 in domain:
        for t2 in domain:
            if weighted_space.frame.mu(t1 & t2) != 0.0:
                continue
            deviation = group_law(weight, t1, t2, rep8)
            assert deviation <= 1e-12, (sorted(t1), sorted(t2), deviation)
            checked += 1
    assert checked > len(domain)  # includes genuinely overlapping-by-null pairs


def test_group_law_spans_weight_zero_overlap(weighted_space, rep8):
    # {1,3} and {2,3} overlap exactly in the measure-zero time 3
    weight = make_weight(weighted_space)
    assert group_law(weight, {"1", "3"}, {"2", "3"}, rep8) <= 1e-12


@pytest.mark.parametrize("source", ["demo", "ladder-5x2"])
def test_group_law_record_is_the_largest_per_pair_product(source):
    # the suite builds each unitary once, with the per-pair product's arithmetic
    scn = _interval_scenario(source)
    frame = scn.frame
    domain = frame.admissible()
    deviations = [
        group_law(scn.weight, t1, t2, scn.representation)
        for t1 in domain
        for t2 in domain
        if frame.mu(t1 & t2) == 0.0
    ]
    record = {r.check: r for r in run_suite(scn, ["dynamics"]).records}["group-law"]
    assert record.max_deviation.hex() == max(deviations).hex()


def _pair_weight(source, m2, flip):
    # custom frames: times 1, 2, 3 with identity/flip grids over M_2
    frames = {
        "sigma0": TimeFrame(
            ("1", "2", "3"), (0.5, 2.0, 0.0), sigma0=[[], ["1"], ["3"], ["1", "3"], ["1", "2"], ["1", "2", "3"]]
        ),
        "two-null-times": TimeFrame(("1", "2", "3"), (0.0, 1.5, 0.0)),
    }
    if source not in frames:
        return _interval_scenario(source).weight
    grid = (GridPointMap.identity(m2), GridPointMap.from_automorphism(flip))
    return make_weight(GridEvolutionSpace(frames[source], (grid,) * 3))


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "sigma0", "two-null-times"])
def test_disjoint_pairs_match_the_mu_loop(source, m2, flip):
    weight = _pair_weight(source, m2, flip)
    frame = weight.space.frame
    twin = TimeFrame(frame.times, frame.weights, frame.sigma0)
    domain = frame.admissible()
    index = {s: i for i, s in enumerate(domain)}
    expected = [
        (i, j, index[t1 | t2])
        for i, t1 in enumerate(domain)
        for j, t2 in enumerate(domain)
        if frame.mu(t1 & t2) == 0.0
    ]
    table = frame.disjoint_pairs()
    rows = list(map(tuple, table.tolist()))
    assert table.shape == (len(expected), 3) and rows == expected
    assert rows == sorted(rows)  # first-subset-major, then second
    with pytest.raises(ValueError):
        table[0, 0] = 1
    assert frame.disjoint_pairs() is table
    # the memo is not a field: a twin that never built it is still equal
    assert frame == twin and hash(frame) == hash(twin)
    assert validate_action_weight(weight).pairs_checked == len(table)
    assert frame.null_subsets().tolist() == [frame.mu(s) == 0.0 for s in domain]


def test_each_family_is_built_once_per_suite_run(monkeypatch):
    # rung 5x2 has 32 subsets: no per-subset weight or action read and no
    # evolution_unitary call, but one family gather each for the one stack of
    # unconjugated unitaries that the cocycle, the four unitary laws,
    # conjugated-dynamics and null-action read, and for the one stack of the
    # actions that load built for the weight, which the three shared
    # Lagrangian laws read; one disjoint pair
    # table read by two pair walks (the cocycle law's, which group-law shares,
    # and action-additivity's), no nested pair table, as the restriction law's
    # range certificate reads 0.0 on a local Lagrangian and walks no pair, and
    # one packing of the frame's membership rows, for the union lookup; the
    # restriction table and the law read the boolean table, so nothing unpacks
    # those rows
    from evogrid import lagrangian as lagrangian_module
    from evogrid import suites

    packed, unpacked = [], []
    packbits, unpackbits = np.packbits, np.unpackbits
    monkeypatch.setattr(np, "packbits", lambda a, *args, **kw: packed.append(np.shape(a)) or packbits(a, *args, **kw))
    monkeypatch.setattr(np, "unpackbits", lambda a, *a2, **kw: unpacked.append(np.shape(a)) or unpackbits(a, *a2, **kw))
    scn = _interval_scenario("ladder-5x2")
    calls = Counter()

    def counted(fn):
        def spy(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return spy

    for module in (suites, dynamics):
        monkeypatch.setattr(module, "evolution_unitary", counted(evolution_unitary))
        monkeypatch.setattr(module, "pullback_family", counted(module.pullback_family))
    monkeypatch.setattr(lagrangian_module, "action_from_lagrangian", counted(action_from_lagrangian))
    monkeypatch.setattr(ActionWeight, "function", counted(ActionWeight.function))
    tables = []
    original = TimeFrame.disjoint_pairs
    monkeypatch.setattr(TimeFrame, "disjoint_pairs", lambda self: tables.append(original(self)) or tables[-1])
    nested = []
    original_nested = TimeFrame.nested_pairs
    monkeypatch.setattr(TimeFrame, "nested_pairs", lambda self: nested.append(original_nested(self)) or nested[-1])
    run_suite(scn, ["dynamics", "lagrangian"])
    assert calls == {"pullback_family": 2}
    assert len(tables) == 2 and all(table is tables[0] for table in tables)
    assert nested == []
    # the certificate reads the flat density buffer, no table one subset at a
    # time; on tables that break the law, the exact walk reads that buffer
    # too, one time's columns at a time, and the nested pair table once
    pulled = Counter()
    table = Lagrangian.table
    monkeypatch.setattr(Lagrangian, "table", lambda self, subset: pulled.update([frozenset(subset)]) or table(self, subset))
    verify_lagrangian(scn.lagrangian)
    assert pulled == Counter() and nested == []
    rng = np.random.default_rng(3)
    space = scn.space
    faulted = Lagrangian(space, {s: rng.normal(size=(space.npoints(s), len(s))) for s in space.frame.admissible()})
    pulled.clear()
    verify_lagrangian(faulted)
    assert pulled == Counter() and len(nested) == 1
    assert packed.count((32, 5)) == 1
    assert (32, 1) not in unpacked


def test_the_witness_reads_the_stack_the_unitary_laws_read(monkeypatch):
    from evogrid import suites

    scn = load_scenario("witness")
    stack, reads, functions = ActionWeight.stack, [], Counter()
    monkeypatch.setattr(ActionWeight, "stack", property(lambda self: reads.append(stack.__get__(self)) or reads[-1]))
    function = ActionWeight.function
    monkeypatch.setattr(ActionWeight, "function", lambda self, s: functions.update([s]) or function(self, s))
    seen = []
    monkeypatch.setattr(suites, "commutant_witness", lambda *args: seen.append(len(reads)) or commutant_witness(*args))
    records = {r.check: r for r in run_suite(scn, ["dynamics"]).records}
    assert records["commutant-witness"].passed and seen == [3]
    # read by the cocycle, the unitary laws, conjugated-dynamics and the witness
    assert len(reads) == 4 and all(read is reads[0] for read in reads)
    # the stack is one gather of the weight's flat table: no function is read
    assert functions == Counter()


def per_operator_unitary_laws(scn) -> dict[str, float]:
    """The four unitary laws one operator per subset: the group law over the
    disjoint pairs, and commutation over the neighbouring pairs (i, i + 1)."""
    frame = scn.frame
    domain = frame.admissible()
    u = [evolution_unitary(scn.weight, s, scn.representation) for s in domain]
    one = identity_operator(scn.rep_space.dimension)
    dev = null_dev = group_dev = commutation = 0.0
    for subset, v in zip(domain, u):
        dev = dynamics.nan_max(dev, (v.adjoint() @ v - one).norm())
        if frame.mu(subset) == 0.0:
            null_dev = dynamics.nan_max(null_dev, (v - one).norm())
    for t1, t2, union in frame.disjoint_pairs().tolist():
        group_dev = dynamics.nan_max(group_dev, (u[t1] @ u[t2] - u[union]).norm())
    for v, w in pairwise(u):
        commutation = dynamics.nan_max(commutation, (v @ w - w @ v).norm())
    return {"unitary-evolution": dev, "null-unitary": null_dev, "group-law": group_dev, "commutation": commutation}


# demo's frame cut to one subset of positive measure (no null row, pair or
# commuting pair) and to the empty family (no row at all)
CUT_FRAMES = {"one-subset": [["1"]], "empty-family": []}


def _family_scenario(source):
    if source not in CUT_FRAMES:
        return _interval_scenario(source)
    cfg = builtin_scenario("demo")
    cfg["time_frame"]["sigma0"] = CUT_FRAMES[source]
    return scenario_from_dict(cfg)


@pytest.mark.parametrize("source", ["demo", "ladder-4x3", *CUT_FRAMES])
def test_stacked_unitary_laws_are_the_per_operator_arithmetic_bit_for_bit(source):
    from evogrid import suites

    scn = _family_scenario(source)
    stacked = {check: dev.hex() for check, _, dev, _ in suites._check_weight_laws(scn) if check != "action-weight-laws"}
    assert stacked == {check: dev.hex() for check, dev in per_operator_unitary_laws(scn).items()}


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", *CUT_FRAMES])
def test_each_stack_row_is_its_evolution_unitary_bit_for_bit(source):
    scn = _family_scenario(source)
    weight = scn.weight
    assert "stack" not in vars(weight)  # formed at first read, not at load
    stack = weight.stack
    assert stack.shape == (len(weight.domain()), scn.space.dimension) and stack.dtype == np.complex128
    assert not stack.flags.writeable and weight.stack is stack
    for row, subset in zip(stack, weight.domain()):
        for rep in (scn.representation, scn.conjugated):
            assert row.tobytes() == evolution_unitary(weight, subset, rep).diag.tobytes()


def per_pair_restriction(lagrangian) -> tuple[str, int]:
    """The restriction law over every nonempty T' < T, one pair at a time, and its pair count."""
    space = lagrangian.space
    frame = space.frame
    domain = frame.admissible()
    restriction, pairs = 0.0, 0
    for big in domain:
        labels = frame.ordered(big)
        pulled = lagrangian.table(big).real[space.restricted_index_array(big)]
        for small in domain:
            if not (small < big and small):
                continue
            columns = [labels.index(t) for t in frame.ordered(small)]
            other = lagrangian.table(small).real[space.restricted_index_array(small)]
            restriction = max(restriction, float(np.max(np.abs(pulled[:, columns] - other))))
            pairs += 1
    return restriction.hex(), pairs


def per_pair_family_laws(scn) -> dict:
    """The cocycle, additivity and restriction laws as the library judged them
    one pair at a time."""
    space, frame = scn.space, scn.frame
    domain = frame.admissible()
    weights = [scn.weight.function(s).values[space.restricted_index_array(s)] for s in domain]
    actions = [action_from_lagrangian(scn.lagrangian, s).values[space.restricted_index_array(s)] for s in domain]
    cocycle = additivity = 0.0
    for t1, t2, union in frame.disjoint_pairs().tolist():
        cocycle = dynamics.nan_max(cocycle, float(np.max(np.abs(weights[union] - weights[t1] * weights[t2]))))
        additivity = dynamics.nan_max(additivity, float(np.max(np.abs(actions[union] - actions[t1] - actions[t2]))))
    return {"cocycle": cocycle.hex(), "additivity": additivity.hex(), "restriction": per_pair_restriction(scn.lagrangian)}


@pytest.mark.parametrize("budget", [1, 7, dynamics.PAIR_ENTRIES])
@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-8x1"])
def test_pair_max_does_not_depend_on_its_chunks(source, budget, monkeypatch):
    scn = _family_scenario(source)
    whole = validate_action_weight(scn.weight).cocycle.hex()
    monkeypatch.setattr(dynamics, "PAIR_ENTRIES", budget)
    assert validate_action_weight(scn.weight).cocycle.hex() == whole
    # a NaN in the last chunk, after finite ones, reaches the maximum
    stack = np.zeros((4, 3), dtype=np.complex128)
    stack[-1, -1] = np.nan
    assert math.isnan(dynamics._pair_max(stack, np.array([[0, 1], [1, 2], [2, 3]]), np.subtract))


def test_pair_max_operands_hold_at_most_the_entry_budget():
    # every ordered pair of a (64, 4096) stack: chunks of len(stack) rows
    # would make each operand 4 MiB, the budget keeps each to PAIR_ENTRIES
    rng = np.random.default_rng(5)
    stack = rng.normal(size=(64, 4096)) + 1j * rng.normal(size=(64, 4096))
    table = np.argwhere(np.ones((64, 64), dtype=bool))
    sizes = []
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        dynamics._pair_max(stack, table, lambda a, b: sizes.extend((a.size, b.size)) or a - b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(sizes) == 2 * len(table) * 4096 // dynamics.PAIR_ENTRIES and max(sizes) == dynamics.PAIR_ENTRIES
    # both operands from one gather, their difference, and its real moduli
    assert peak <= 3.5 * dynamics.PAIR_ENTRIES * stack.itemsize + 64 * 1024


def test_weight_laws_hold_a_few_chunks_of_the_entry_budget(monkeypatch):
    # rung 8x2 without a conjugator: m = N = 256, a 1 MiB stack, whose
    # direct sums over the whole stack peaked at about seven stacks (7 MiB);
    # at a 64 KiB budget every law holds a few chunks at a time, about six,
    # as each diagonal product, difference and adjoint is wrapped uncopied
    from evogrid import suites

    cfg = ladder_config(8, 2)
    del cfg["conjugator"]
    scn = scenario_from_dict(cfg)
    whole = [dev.hex() for _, _, dev, _ in suites._check_weight_laws(scn)]
    monkeypatch.setattr(dynamics, "PAIR_ENTRIES", 1 << 12)
    assert scn.weight.stack.size == 16 * dynamics.PAIR_ENTRIES
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chunked = [dev.hex() for _, _, dev, _ in suites._check_weight_laws(scn)]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert chunked == whole
    assert peak <= 6.5 * dynamics.PAIR_ENTRIES * scn.weight.stack.itemsize + 64 * 1024


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "ladder-8x1", *CUT_FRAMES])
def test_pair_laws_are_the_per_pair_arithmetic_bit_for_bit(source):
    from evogrid import suites

    scn = _family_scenario(source)
    report = verify_lagrangian(scn.lagrangian)
    additivity = {check: dev for check, _, dev, _ in suites._check_actions(scn)}["action-additivity"]
    assert per_pair_family_laws(scn) == {
        "cocycle": validate_action_weight(scn.weight).cocycle.hex(),
        "additivity": additivity.hex(),
        "restriction": (report.restriction_deviation.hex(), report.pairs),
    }


@pytest.mark.parametrize("source", ["demo", "ladder-5x2", "one-subset"])
def test_restriction_law_is_the_per_pair_arithmetic_on_inconsistent_tables(source):
    # a local Lagrangian is consistent by construction and reads 0.0; random
    # tables put a different value at every (subset, point, time)
    space = _family_scenario(source).space
    rng = np.random.default_rng(7)
    tables = {s: rng.normal(size=(space.npoints(s), len(s))) for s in space.frame.admissible()}
    lagrangian = Lagrangian(space, tables)
    report = verify_lagrangian(lagrangian)
    assert per_pair_restriction(lagrangian) == (report.restriction_deviation.hex(), report.pairs)
    assert report.restriction_deviation > 0.0 or report.pairs == 0


# the four unitary-law lines of the smallest families as the per-operator
# body wrote them: `witness` (N = 2, subsets {} and {1}) and the cut frames
UNITARY_LAW_LINES = {
    "witness": ["0.0", "0.0", "0.0", "0.0"],
    "one-subset": ["4.537388229565853e-18", "0.0", "0.0", "0.0"],
    "empty-family": ["0.0", "0.0", "0.0", "0.0"],
}


@pytest.mark.parametrize("source", list(UNITARY_LAW_LINES))
def test_smallest_families_keep_their_unitary_law_lines(source):
    scn = _family_scenario(source)
    laws = [("unitary-evolution", "E4.4", "1e-12"), ("null-unitary", "P4.2", "0.0"), ("group-law", "P4.2", "1e-12"),
            ("commutation", "S4", "1e-12")]
    expected = [
        f'{{"check": "{check}", "theorem": "{tag}", "max_deviation": {dev}, "tolerance": {tol}, "pass": true}}'
        for (check, tag, tol), dev in zip(laws, UNITARY_LAW_LINES[source])
    ]
    lines = run_suite(scn, ["dynamics"]).body_lines()
    assert [line for line in lines if json.loads(line).get("check") in {c for c, *_ in laws}] == expected


def test_conjugated_dynamics_reads_one_stack_and_forms_no_dense_matrix(monkeypatch):
    from evogrid import suites
    from evogrid.representation import ConjugatedDiagonalOperator

    scn = _interval_scenario("ladder-3x5")
    calls = Counter()
    for name in ("to_dense", "columns"):
        original = getattr(ConjugatedDiagonalOperator, name)

        def spy(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ConjugatedDiagonalOperator, name, spy)
    (check, _, covariance, _), _ = suites._check_conjugated_dynamics(scn)
    assert calls == {"columns": 1}
    assert check == "conjugated-dynamics" and covariance == 0.0


@pytest.mark.parametrize("row", [1, 4, -1])
def test_a_nan_in_one_weight_still_aborts_the_unitary_laws(row, monkeypatch):
    # the weight validated its values when it was built; a NaN written into
    # its table afterwards must reach the runner's finiteness guard through
    # the stacked maxima, as through the per-operator ones; the action-weight
    # laws, which would report it first, are stubbed out
    from evogrid import suites

    scn = load_scenario("demo")
    write_last_value(scn.weight, scn.frame.admissible()[row], float("nan"))
    records = {check: dev for check, _, dev, _ in suites._check_weight_laws(scn) if check != "action-weight-laws"}
    assert {c for c, d in records.items() if math.isnan(d)} == {
        c for c, d in per_operator_unitary_laws(scn).items() if math.isnan(d)
    }
    assert math.isnan(records["unitary-evolution"])
    clean = dynamics.ActionWeightReport(0.0, 0.0, 0.0, 0)
    monkeypatch.setattr(suites, "validate_action_weight", lambda weight: clean)
    message = "numerical overflow in check 'unitary-evolution': deviation is not finite"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        run_suite(scn, ["dynamics"])


def test_same_representation_unitaries_commute(weighted_space, rep8):
    # diagonal products commute up to one ulp of complex-multiply rounding
    weight = make_weight(weighted_space)
    domain = weighted_space.frame.admissible()
    ops = [evolution_unitary(weight, s, rep8) for s in domain]
    for i, u in enumerate(ops):
        for v in ops[i + 1 :]:
            assert (u @ v - v @ u).norm() <= 1e-14


def test_conjugation_covariance_of_unitaries(weighted_space, rep8):
    # the covariance is conjugated-dynamics' own: sampled columns of each
    # conjugated unitary against W* (u * W e_j), here under the dense oracle
    # over every column
    from evogrid import suites

    scn = load_scenario("demo")
    (check, _, covariance, tol), _ = suites._check_conjugated_dynamics(scn)
    assert check == "conjugated-dynamics" and covariance <= tol == 1e-12
    w = scn.conjugated.conjugator
    for s in scn.weight.domain():
        u = evolution_unitary(scn.weight, s, scn.representation).diag
        t = evolution_unitary(scn.weight, s, scn.conjugated).to_dense()
        assert np.max(np.linalg.norm(t - w.conj().T @ (u[:, None] * w), axis=0)) <= 1e-12
    # the witness's first representation must be the unconjugated one
    weight = make_weight(weighted_space)
    moved = conjugate(SplitMix64(23).haar_unitary(8), rep8)
    for rep, other in ((moved, moved), (rep8, rep8)):
        with pytest.raises(StructureError):
            commutant_witness(weight, rep, other)


def test_commutant_witness_frozen_value(m2):
    # designed witness: U = diag(1, -1) at the only grid pair, conjugated by
    # the Hadamard matrix; the commutator of diag(1,-1) with its Hadamard
    # conjugate has operator norm exactly 2
    from evogrid import GridEvolutionSpace, PureRepresentation, RepresentationSpace, TimeFrame

    frame = TimeFrame(("1",), (1.0,))
    space = GridEvolutionSpace(
        frame, ((GridPointMap.identity(m2), named_contraction("trace_average", m2)),)
    )
    rep = PureRepresentation(RepresentationSpace(space))
    functions = {
        frozenset(): space.constant(frozenset(), 1.0),
        frozenset({"1"}): space.function({"1"}, [1.0, -1.0]),
    }
    weight = ActionWeight(space, functions)
    report = commutant_witness(weight, rep, conjugate(HADAMARD, rep))
    assert report.witness == pytest.approx(2.0, abs=1e-12)
    assert report.witness_pair == (("1",), ("1",))
    # independent dense oracle for the same commutator
    u = np.diag([1.0, -1.0]).astype(np.complex128)
    u_conj = HADAMARD.conj().T @ u @ HADAMARD
    oracle = np.linalg.norm(u @ u_conj - u_conj @ u, 2)
    assert report.witness == pytest.approx(oracle, abs=1e-12)


def test_witness_pair_is_the_first_maximum_in_s1_major_order(monkeypatch):
    # two lower bounds tie exactly, (a, b) and (c, d) with a < c and b > d:
    # the s1-major first is (a, b), while a scan over s2 first meets (c, d)
    scn = load_scenario("demo")
    domain = scn.weight.domain()
    twisted = [evolution_unitary(scn.weight, s, scn.conjugated).to_dense().tobytes() for s in domain]
    a, b, c, d = 2, 4, 4, 2
    rig = {twisted[b]: a, twisted[d]: c}
    original = dynamics._commutator_lower_bounds
    seen = []

    def rigged(t, p, start):
        bounds = original(t, p, start)
        seen.append(bounds.copy())
        if t.tobytes() in rig:
            bounds[rig[t.tobytes()]] = 10.0
        return bounds

    monkeypatch.setattr(dynamics, "_commutator_lower_bounds", rigged)
    report = commutant_witness(scn.weight, scn.representation, scn.conjugated)
    # the route runs once per conjugated unitary, for every original at once
    assert len(seen) == len(domain) and all(s.shape == (len(domain),) for s in seen)
    assert seen[b][a] > 0.1 and seen[d][c] > 0.1
    assert report.witness == 10.0
    names = [tuple(map(str, scn.frame.ordered(s))) for s in domain]
    assert report.witness_pair == (names[a], names[b])


# -- the witness interval against the exact 2-norm --------------------------------


def _interval_scenario(source):
    if source.startswith("ladder-"):
        return scenario_from_dict(ladder_config(*map(int, source.removeprefix("ladder-").split("x"))))
    return load_scenario(source)


def _exact_commutator_norms(scn):
    # the dense SVD route the witness no longer takes: ||P1 T2 - T2 P1||_2
    # for every pair, indexed [s1, s2]
    domain = scn.weight.domain()
    plain = [np.diag(evolution_unitary(scn.weight, s, scn.representation).diag) for s in domain]
    exact = np.empty((len(domain), len(domain)))
    for i2, s2 in enumerate(domain):
        t = evolution_unitary(scn.weight, s2, scn.conjugated).to_dense()
        for i1, p in enumerate(plain):
            exact[i1, i2] = np.linalg.norm(p @ t - t @ p, 2)
    return exact


def _bounds(scn):
    # both bounds for every pair, through the routes the witness takes
    domain = scn.weight.domain()
    p = np.stack([evolution_unitary(scn.weight, s, scn.representation).diag for s in domain], axis=1)
    start = SplitMix64(dynamics._WITNESS_START_SEED).complex_matrix(scn.space.dimension, len(domain))
    lower, upper = [], []
    for s2 in domain:
        t = evolution_unitary(scn.weight, s2, scn.conjugated).to_dense()
        lower.append(dynamics._commutator_lower_bounds(t, p, start))
        upper.append(dynamics._commutator_upper_bounds(t, p))
    return np.array(lower).T, np.array(upper).T


@pytest.mark.parametrize("source", ["demo", "witness", "ladder-3x5", "ladder-5x2"])
def test_witness_interval_encloses_every_exact_commutator_norm(source):
    scn = _interval_scenario(source)
    exact = _exact_commutator_norms(scn)
    lower, upper = _bounds(scn)
    assert np.all(lower <= exact) and np.all(exact <= upper)
    report = commutant_witness(scn.weight, scn.representation, scn.conjugated)
    assert report.witness == lower.max() and report.witness_upper == upper.max()
    assert 0.85 * exact.max() <= report.witness <= exact.max() <= report.witness_upper


def test_witness_takes_no_svd(monkeypatch):
    scn = load_scenario("demo")
    norm = np.linalg.norm

    def no_two_norm(x, ord=None, **kwargs):
        assert ord != 2, "the witness took a spectral norm"
        return norm(x, ord, **kwargs)

    def no_svd(*args, **kwargs):
        raise AssertionError("the witness took an SVD")

    monkeypatch.setattr(np.linalg, "norm", no_two_norm)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    report = commutant_witness(scn.weight, scn.representation, scn.conjugated)
    assert 0.0 < report.witness <= report.witness_upper


@pytest.mark.parametrize("source, calls", [("demo", 0), ("ladder-5x2", 0), ("witness", 1)])
def test_the_witness_is_formed_only_where_a_threshold_judges_it(source, calls, monkeypatch):
    from evogrid import suites

    scn = _interval_scenario(source)
    seen = []

    def spy(*args):
        seen.append(args)
        return commutant_witness(*args)

    monkeypatch.setattr(suites, "commutant_witness", spy)
    records = {r.check: r for r in run_suite(scn, ["all"]).records}
    assert len(seen) == calls
    assert records["commutant-witness"].passed


def _identity_conjugated(source):
    cfg = builtin_scenario(source)
    n = load_scenario(source).space.dimension
    cfg["conjugator"] = {"matrix": encode_matrix(np.eye(n, dtype=np.complex128))}
    return cfg


@pytest.mark.parametrize("source", ["demo", "witness"])
def test_identity_conjugator_gives_a_zero_witness(source):
    # every pair commutes: demo's phases round A x to about 1e-16, which the
    # allowance must absorb, and witness's +-1 phases make A x exactly zero,
    # which must not divide into NaN
    scn = scenario_from_dict(_identity_conjugated(source))
    lower, upper = _bounds(scn)
    assert np.all(lower == 0.0) and not np.isnan(upper).any()
    report = commutant_witness(scn.weight, scn.representation, scn.conjugated)
    assert report.witness == 0.0 and 0.0 <= report.witness_upper < 1e-5


def test_identity_conjugated_witness_scenario_fails_its_threshold(tmp_path):
    path, out = tmp_path / "commuting.json", tmp_path / "report.jsonl"
    path.write_text(json.dumps(_identity_conjugated("witness")))
    assert main(["verify", str(path), "--suite", "dynamics", "--out", str(out)]) == 1
    failed = [r["check"] for r in map(json.loads, out.read_text().splitlines()) if "check" in r and not r["pass"]]
    assert failed == ["commutant-witness"]


# -- the dynamics checks against mutants -------------------------------------------
#
# Each row breaks one law the dynamics checks claim, by a monkeypatch of the
# library or by an edited config, and names the checks that must then report
# more than their tolerance.  A row is (config, patch, caught checks).


def _weight_times(factor, where):
    # the weight's function on every subset where `where(frame, subset)` holds, times `factor`:
    # its row of the stack, which every dynamics law reads
    original = ActionWeight.stack

    def stack(self):
        frame = self.space.frame
        rows = np.array([where(frame, s) for s in self.domain()], dtype=bool)
        return np.where(rows[:, None], original.func(self) * factor, original.func(self))

    return property(stack)


def _order_dependent_product(self, other):
    # a phase odd in the two factors' traces: u @ v != v @ u, while
    # u* @ u keeps its value
    if not isinstance(other, DiagonalOperator):
        return NotImplemented
    phase = np.exp(0.1j * (self.trace() - other.trace()).real)
    return DiagonalOperator(self.diag * other.diag * phase)


def _demo():
    return builtin_scenario("demo")


DYNAMICS_MUTANTS = {
    "weight-off-unit-circle": (
        _demo,
        (ActionWeight, "stack", _weight_times(1.5, lambda frame, s: True)),
        ("action-weight-laws", "unitary-evolution", "null-unitary", "group-law"),
    ),
    "phase-on-unions": (
        _demo,
        (ActionWeight, "stack", _weight_times(np.exp(0.1j), lambda frame, s: len(s) >= 2)),
        ("action-weight-laws", "group-law"),
    ),
    "phase-on-null-subsets": (
        _demo,
        (ActionWeight, "stack", _weight_times(np.exp(0.1j), lambda frame, s: frame.mu(s) == 0.0)),
        ("action-weight-laws", "null-unitary"),
    ),
    "adjoint-without-conjugate": (
        _demo,
        (DiagonalOperator, "adjoint", lambda self: DiagonalOperator(self.diag)),
        ("unitary-evolution",),
    ),
    "order-dependent-product": (
        _demo,
        (DiagonalOperator, "__matmul__", _order_dependent_product),
        ("commutation",),
    ),
    "overlapping-pairs": (
        _demo,
        (TimeFrame, "disjoint_pairs", every_ordered_pair),
        ("action-weight-laws", "group-law"),
    ),
    "identity-conjugator": (lambda: _identity_conjugated("witness"), None, ("commutant-witness",)),
    "witness-lower-bounds-zero": (
        lambda: builtin_scenario("witness"),
        (dynamics, "_commutator_lower_bounds", lambda t, p, start: np.zeros(p.shape[1])),
        ("commutant-witness",),
    ),
}


@pytest.mark.parametrize("mutant", list(DYNAMICS_MUTANTS))
def test_each_dynamics_check_catches_its_mutant(mutant, monkeypatch):
    config, patch, caught = DYNAMICS_MUTANTS[mutant]
    scn = scenario_from_dict(config())
    if patch is not None:
        monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["dynamics"]).records}
    for check in caught:
        assert records[check].max_deviation > records[check].tolerance, check


# -- probe-difference actions ----------------------------------------------------


def probe_scenario():
    """Times 1 and 2 of weight 1 over M_2, grids (identity, flip) at both, and
    per time the probe element and density diag(1, 0), post-map abs2 and the
    identity as reference."""
    diag10 = encode_matrix(np.diag([1.0, 0.0]))
    term = {
        "probe": {"pairs": [{"element": [diag10], "density": [diag10]}]},
        "post_map": "abs2",
        "reference": {"grid_index": 0},
    }
    grid = {"unitaries": [[encode_matrix(np.eye(2))], [encode_matrix(FLIP)]]}
    return {
        "name": "probe",
        "algebra": {"blocks": [2]},
        "time_frame": {"times": ["1", "2"], "weights": {"1": "1", "2": "1"}},
        "grids": {"1": grid, "2": grid},
        "dynamics": {"kind": "lagrangian", "terms": {"1": term, "2": dict(term)}},
    }


def test_probe_term_action_frozen_value():
    scn = load_scenario(probe_scenario())
    action = action_from_lagrangian(scn.lagrangian, {"1"})
    # identity point contributes 0; the flip point probes to -1, squared to 1
    assert np.array_equal(action.values, np.array([0.0, 1.0]))


def test_probe_terms_must_name_every_time():
    cfg = probe_scenario()
    del cfg["dynamics"]["terms"]["2"]
    with pytest.raises(ConfigError, match="dynamics.terms"):
        load_scenario(cfg)


def test_non_real_probe_term_flagged():
    space = load_scenario(probe_scenario()).space
    lag = Lagrangian.from_local(space, lambda t, index, grid_map: 1.0j)
    assert verify_lagrangian(lag).realness_deviation > 0


@pytest.mark.parametrize(
    "spec",
    [{"scale": 2}, {"name": "abs", "scale": "x"}, {"name": "abs2", "scal": 5}],
    ids=["no-name", "bad-scale", "unknown-key"],
)
def test_malformed_post_map_exits_with_config_error(tmp_path, spec):
    cfg = probe_scenario()
    cfg["dynamics"]["terms"]["1"]["post_map"] = spec
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", str(path)]) == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="large action weights: the cocycle-type laws round at about |S|·u against the absolute "
    "dynamics tolerance of 1e-12 (README, Large action weights)",
)
def test_a_lawful_scenario_with_a_large_time_weight_verifies():
    # rung 2x2 with a last weight of 1e6: action-weight-laws, group-law and
    # action-additivity each read 1.38e-11
    cfg = ladder_config(2, 2)
    cfg["time_frame"]["weights"] = {"1": "0.5", "2": "1e6"}
    failed = [r.check for r in run_suite(scenario_from_dict(cfg), ["all"]).records if not r.passed]
    assert failed == []
