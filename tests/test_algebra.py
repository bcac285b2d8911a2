import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evobench.ladder import ladder_config
from evogrid import (
    Automorphism,
    AutomorphismReport,
    ElementaryTensor,
    GridEvolutionSpace,
    GridPointMap,
    NormalFunctional,
    StructureError,
    WStarAlgebra,
    compose_automorphisms,
    contraction_norm_estimate,
    linear_map_matrix,
    load_scenario,
    named_contraction,
    run_suite,
    scenario_from_dict,
    verify_automorphism,
    weakstar_pairing,
)
from evogrid import evolution, suites
from evogrid.algebra import _trace_pairings, unitary_defect
from evogrid.dynamics import nan_max
from evogrid.rng import SplitMix64, derive_seed

from conftest import FLIP, one_thread_env, parent_haar, reversed_table, swapped_table_rows
from test_rng import ZERO_FIRST_DRAW_SEED


def _worst(report):
    # the largest of the four law deviations, the value judged against a tolerance
    return max(report.multiplicative, report.star_preserving, report.unital, report.isometric)


def test_block_structure_and_dimension(m23):
    assert m23.nblocks == 2
    assert m23.dimension == 4 + 9
    with pytest.raises(StructureError):
        WStarAlgebra(())
    with pytest.raises(StructureError):
        WStarAlgebra((2, 0))


def test_element_arithmetic_is_blockwise(m23):
    rng = SplitMix64(1)
    a = m23.random_element(rng)
    b = m23.random_element(rng)
    prod = a @ b
    for pa, pb, pc in zip(a.blocks, b.blocks, prod.blocks):
        assert np.allclose(pc, pa @ pb)
    star = a.star()
    for pa, ps in zip(a.blocks, star.blocks):
        assert np.array_equal(ps, pa.conj().T)


def test_norm_is_max_block_spectral_norm(m23):
    a = m23.element([np.diag([3.0, -1.0]), np.diag([2.0, 2.0, -4.0])])
    assert a.norm() == 4.0


def test_coordinates_roundtrip(m23):
    rng = SplitMix64(2)
    a = m23.random_element(rng)
    again = m23._split(m23._join(a.blocks))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.blocks, again))


def test_functional_is_trace_pairing(m23):
    rho2 = np.diag([0.25, 0.75]).astype(np.complex128)
    rho3 = np.eye(3, dtype=np.complex128) / 3
    g = NormalFunctional(m23, (rho2, rho3))
    a = m23.element([np.diag([2.0, 4.0]), np.diag([3.0, 3.0, 3.0])])
    # 0.25*2 + 0.75*4 + 3 = 6.5
    assert g(a) == pytest.approx(6.5, abs=1e-14)


def test_flip_conjugation_frozen_value(m2, flip):
    a = m2.element([np.diag([1.0, 0.0])])
    out = flip.apply(a)
    assert np.array_equal(out.blocks[0], np.diag([0.0, 1.0]).astype(np.complex128))


def test_automorphism_laws_hold_for_haar_samples(m23):
    rng = SplitMix64(7)
    for _ in range(5):
        alpha = Automorphism.haar(m23, rng)
        report = verify_automorphism(alpha, sample_count=8, seed=3)
        assert _worst(report) <= 1e-10, report


def test_block_permutation_requires_equal_dims(m23):
    u2 = np.eye(2, dtype=np.complex128)
    u3 = np.eye(3, dtype=np.complex128)
    with pytest.raises(StructureError):
        Automorphism(m23, perm=(1, 0), unitaries=(u3, u2))


def test_permutation_automorphism_on_equal_blocks():
    algebra = WStarAlgebra((2, 2))
    alpha = Automorphism.conjugation(algebra, [np.eye(2), np.eye(2)], perm=(1, 0))
    a = algebra.element([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
    out = alpha.apply(a)
    assert np.array_equal(out.blocks[0], np.diag([3.0, 4.0]).astype(np.complex128))
    assert np.array_equal(out.blocks[1], np.diag([1.0, 2.0]).astype(np.complex128))


def test_compose_and_inverse(m23):
    rng = SplitMix64(11)
    alpha = Automorphism.haar(m23, rng)
    beta = Automorphism.haar(m23, rng)
    x = m23.random_element(rng)
    combined = compose_automorphisms(alpha, beta)
    assert (combined.apply(x) - alpha.apply(beta.apply(x))).norm() < 1e-12
    inv = alpha.inverse()
    assert (inv.apply(alpha.apply(x)) - x).norm() < 1e-12
    assert (alpha.apply(inv.apply(x)) - x).norm() < 1e-12


def test_linear_map_matrix_reproduces_apply(m23):
    rng = SplitMix64(13)
    alpha = Automorphism.haar(m23, rng)
    m = linear_map_matrix(alpha)
    x = m23.random_element(rng)
    assert np.allclose(m @ m23._join(x.blocks), m23._join(alpha.apply(x).blocks), atol=1e-12)


def test_trace_average_multiplicativity_defect_frozen(m2):
    # phi(a) = tr(a)/2 * 1 on one 2x2 block; for p = diag(1, 0):
    # phi(p p) = 1/2 * 1 while phi(p)^2 = 1/4 * 1, defect exactly 1/4
    phi = named_contraction("trace_average", m2)
    p = m2.element([np.diag([1.0, 0.0])])
    defect = (phi.apply(p @ p) - phi.apply(p) @ phi.apply(p)).norm()
    assert defect == pytest.approx(0.25, abs=1e-15)
    report = verify_automorphism(phi, sample_count=10, seed=0)
    assert not _worst(report) <= 1e-10
    assert report.multiplicative > 1e-10


def test_weakstar_pairing_frozen_value(m2, flip):
    a = m2.element([np.diag([2.0, 3.0])])
    g = NormalFunctional(m2, (np.diag([1.0, 0.0]),))
    tensor = ElementaryTensor(m2, ((a, g),))
    # flip sends diag(2,3) to diag(3,2); pairing with diag(1,0) reads 3
    assert weakstar_pairing(flip, tensor) == pytest.approx(3.0, abs=1e-14)


def test_weakstar_pairing_difference_frozen_value(m2, flip):
    a = m2.element([np.diag([1.0, 0.0])])
    g = NormalFunctional(m2, (np.diag([1.0, 0.0]),))
    tensor = ElementaryTensor(m2, ((a, g),))
    ident = Automorphism.identity(m2)
    # f(flip) - f(id) = 0 - 1 = -1
    assert weakstar_pairing(flip, tensor) - weakstar_pairing(ident, tensor) == pytest.approx(-1.0, abs=1e-14)


def test_pairing_sums_over_a_tensor_s_pairs(m2, flip):
    a = m2.element([np.diag([1.0, 0.0])])
    g = NormalFunctional(m2, (np.diag([1.0, 0.0]),))
    t = ElementaryTensor(m2, ((a, g),))
    s = ElementaryTensor(m2, t.pairs + t.pairs)
    assert weakstar_pairing(flip, s) == pytest.approx(2 * weakstar_pairing(flip, t), abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_cstar_identity_property(seed):
    algebra = WStarAlgebra((2, 3))
    a = algebra.random_element(SplitMix64(seed))
    assert abs((a.star() @ a).norm() - a.norm() ** 2) < 1e-10 * max(1.0, a.norm() ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_automorphism_isometry_property(seed):
    algebra = WStarAlgebra((2, 2))
    rng = SplitMix64(seed)
    alpha = Automorphism.haar(algebra, rng)
    a = algebra.random_element(rng)
    assert abs(alpha.apply(a).norm() - a.norm()) < 1e-10 * max(1.0, a.norm())


def test_unitarity_validation_rejects_defective_matrix(m2):
    bad = FLIP.copy()
    bad[0, 1] = 1.5
    with pytest.raises(StructureError):
        Automorphism.conjugation(m2, [bad])


def test_surplus_unitaries_are_rejected_not_dropped(m23):
    with pytest.raises(StructureError, match="one unitary per block"):
        Automorphism(m23, (np.eye(2), np.eye(3), np.eye(7)), (0, 1))
    with pytest.raises(StructureError, match="one unitary per block"):
        Automorphism(m23, (np.eye(2),), (0, 1))


# -- the stacked route against the per-sample one ------------------------------


def _identity_element(algebra):
    return algebra.element([np.eye(n) for n in algebra.block_dims])


def _per_sample_verify(phi, sample_count, seed):
    # the per-sample loop that verify_automorphism replaced, kept as its oracle
    algebra = phi.algebra
    rng = SplitMix64(seed)
    one = _identity_element(algebra)
    unital = (phi.apply(one) - one).norm()
    mult = star = isom = 0.0
    for _ in range(sample_count):
        a = algebra.random_element(rng)
        b = algebra.random_element(rng)
        mult = max(mult, (phi.apply(a @ b) - phi.apply(a) @ phi.apply(b)).norm())
        star = max(star, (phi.apply(a.star()) - phi.apply(a).star()).norm())
        isom = max(isom, abs(phi.apply(a).norm() - a.norm()))
    return AutomorphismReport(mult, star, unital, isom, sample_count)


def _column_by_column(phi):
    # the basis-element loop that linear_map_matrix replaced
    algebra = phi.algebra
    d = algebra.dimension
    cols = np.empty((d, d), dtype=np.complex128)
    basis = np.zeros(d, dtype=np.complex128)
    for j in range(d):
        basis[j] = 1.0
        cols[:, j] = algebra._join(phi.apply(algebra.element(algebra._split(basis))).blocks)
        basis[j] = 0.0
    return cols


def _per_sample_contraction_estimate(phi, seed, samples):
    algebra = phi.algebra
    rng = SplitMix64(seed)
    best = phi.apply(_identity_element(algebra)).norm()
    for _ in range(samples):
        u = algebra.element(parent_haar(algebra, rng).unitaries)
        best = max(best, phi.apply(u).norm())
    return best


M223 = WStarAlgebra((2, 2, 3))


def _haar_blocks(seed):
    rng = SplitMix64(seed)
    return [rng.haar_unitary(n) for n in M223.block_dims]


MAPS_ON_M223 = {
    "haar": lambda: Automorphism.conjugation(M223, _haar_blocks(21)),
    "haar-swapped": lambda: Automorphism.conjugation(M223, _haar_blocks(22), perm=(1, 0, 2)),
    "trace-average": lambda: named_contraction("trace_average", M223),
    "grid-haar-swapped": lambda: GridPointMap.from_automorphism(MAPS_ON_M223["haar-swapped"]()),
    "dense-haar-swapped": lambda: GridPointMap.from_matrix(M223, linear_map_matrix(MAPS_ON_M223["haar-swapped"]())),
    "dense-mixture": lambda: GridPointMap.from_matrix(M223, (
        linear_map_matrix(MAPS_ON_M223["haar"]()) + linear_map_matrix(MAPS_ON_M223["haar-swapped"]())
    ) * complex(0.5)),
}


def test_stacked_draw_is_the_stream_of_random_element_calls():
    stacked, single = SplitMix64(5), SplitMix64(5)
    blocks = M223._random_blocks(stacked, 1.0, 6)
    for k in range(6):
        a = M223.random_element(single)
        for stack, block in zip(blocks, a.blocks):
            assert stack[k].tobytes() == block.tobytes()
    assert stacked.next_uint64() == single.next_uint64()


@pytest.mark.parametrize("name", list(MAPS_ON_M223))
@pytest.mark.parametrize("sample_count", [0, 1, 7])
def test_verify_automorphism_matches_the_per_sample_oracle(name, sample_count):
    phi = MAPS_ON_M223[name]()
    stacked = verify_automorphism(phi, sample_count=sample_count, seed=17)
    assert stacked == _per_sample_verify(phi, sample_count, 17)
    assert (_worst(stacked) <= 1e-10) == (name not in ("trace-average", "dense-mixture") or sample_count == 0)


@pytest.mark.parametrize("name", list(MAPS_ON_M223))
def test_linear_map_matrix_matches_the_column_oracle(name):
    phi = MAPS_ON_M223[name]()
    m = linear_map_matrix(phi)
    assert m.flags.c_contiguous
    assert np.array_equal(m, _column_by_column(phi))


@pytest.mark.parametrize("name", ["trace-average", "dense-haar-swapped", "dense-mixture"])
def test_contraction_estimate_matches_the_per_sample_oracle(name):
    phi = MAPS_ON_M223[name]()
    assert contraction_norm_estimate(phi, seed=3, samples=9) == _per_sample_contraction_estimate(phi, 3, 9)


@pytest.mark.parametrize("name", ["haar-swapped", "dense-mixture"])
def test_apply_blocks_maps_each_stack_entry_as_apply_does(name):
    phi = MAPS_ON_M223[name]()
    blocks = M223._random_blocks(SplitMix64(8), 1.0, 4)
    images = phi.apply_blocks([b.reshape(2, 2, *b.shape[1:]) for b in blocks])
    for k in range(4):
        image = phi.apply(M223.element([b[k] for b in blocks]))
        for stack, block in zip(images, image.blocks):
            assert stack[k // 2, k % 2].tobytes() == block.tobytes()
    with pytest.raises(StructureError):
        phi.apply_blocks(blocks[:2])
    with pytest.raises(StructureError):
        phi.apply_blocks([blocks[0], blocks[0], blocks[0]])


@pytest.mark.parametrize("dims", [(1,), (2, 3), (2, 2, 3)])
@pytest.mark.parametrize("seed", [5, ZERO_FIRST_DRAW_SEED])
def test_haar_blocks_are_the_sequential_haar_draws_bit_for_bit(dims, seed):
    algebra = WStarAlgebra(dims)
    stacked, single, parent = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
    blocks = algebra._haar_blocks(stacked, 4)
    for k in range(4):
        one, old = Automorphism.haar(algebra, single), parent_haar(algebra, parent)
        for stack, u, v in zip(blocks, one.unitaries, old.unitaries):
            assert stack[k].tobytes() == u.tobytes() == v.tobytes(), k
    assert stacked.next_uint64() == single.next_uint64() == parent.next_uint64()
    if dims == (1,) and seed == ZERO_FIRST_DRAW_SEED:
        # the first draw is +0.0: its R diagonal is zero, and the guard gives phase 1
        assert blocks[0][0].tobytes() == np.eye(1, dtype=np.complex128).tobytes()


def _parent_unitary_defect(u, tol):
    # the per-matrix gate that the stacked one replaced, kept as its oracle
    gram = u @ u.conj().T - np.eye(u.shape[0])
    frobenius = float(np.linalg.norm(gram))
    if frobenius <= tol:
        return frobenius, frobenius
    return frobenius, float(np.linalg.norm(gram, 2)) if np.isfinite(frobenius) else np.inf


def _gate_outcome(algebra, unitaries):
    try:
        Automorphism.conjugation(algebra, unitaries)
    except StructureError as exc:
        return str(exc)
    return None


def test_the_stacked_unitarity_gate_decides_as_the_per_matrix_gate():
    m3 = WStarAlgebra((3,))
    haar = M223._haar_blocks(SplitMix64(40), 6)[2]
    stack = haar.copy()
    stack[1] = np.diag([1.0 + 4e-9] * 3)  # the Frobenius screen rejects, the SVD accepts
    stack[2] = haar[2] * (1.0 + 1e-7)  # fails
    stack[3] = haar[3] * 1e200  # finite, but its Gram overflows: defect inf
    stack[4] = haar[4] * (1.0 + 3e-9)  # fails the screen, passes the SVD
    with np.errstate(over="ignore", invalid="ignore"):
        frobenius, defect = unitary_defect(stack, 1e-8)
        for k in range(6):
            expect = _parent_unitary_defect(stack[k], 1e-8)
            hexes = [float(v).hex() for v in (frobenius[k], defect[k], *expect, *unitary_defect(stack[k], 1e-8))]
            assert hexes[0:2] == hexes[2:4] == hexes[4:6], k
            # one matrix and a stack of one get the per-matrix decision and message
            message = None if expect[1] <= 1e-8 else f"block matrix is not unitary (defect {expect[1]:.2e})"
            assert _gate_outcome(m3, [stack[k]]) == _gate_outcome(m3, [stack[k : k + 1]]) == message, k
        # a stack fails on its first failing entry
        assert _gate_outcome(m3, [stack]) == _gate_outcome(m3, [stack[2]])
        assert _gate_outcome(m3, [stack[3:]]) == "block matrix is not unitary (defect inf)"
    assert defect[3] == np.inf and frobenius[1] > 1e-8 >= defect[1] and frobenius[4] > 1e-8 >= defect[4]
    assert defect[2] > 1e-8 and frobenius[0] <= 1e-8
    assert _gate_outcome(m3, [np.delete(stack, [2, 3], axis=0)]) is None
    draws = M223._haar_blocks(SplitMix64(1), 3)
    assert _gate_outcome(M223, [draws[0], draws[1][:2], draws[2]]) == (
        "every block needs a stack of unitaries of the same length"
    )


def test_a_stack_of_automorphisms_acts_as_its_entries_bit_for_bit():
    rng = SplitMix64(31)
    alpha = Automorphism.conjugation(M223, M223._haar_blocks(rng, 4), perm=(1, 0, 2))
    beta = Automorphism.conjugation(M223, M223._haar_blocks(rng, 4))
    x = M223._random_blocks(rng, 1.0, 12)
    stacked = {
        "apply": alpha.apply_blocks([b.reshape(3, 4, *b.shape[1:]) for b in x]),
        "compose": compose_automorphisms(alpha, beta).unitaries,
        "inverse": alpha.inverse().unitaries,
        "matrix": linear_map_matrix(alpha),
    }
    assert alpha.stack == (4,) and linear_map_matrix(alpha).shape == (4, 17, 17)
    for k in range(4):
        a, b = (Automorphism.conjugation(M223, [u[k] for u in phi.unitaries], phi.perm) for phi in (alpha, beta))
        assert a.stack == ()
        for j in range(3):
            image = a.apply(M223.element([blocks[4 * j + k] for blocks in x]))
            for stack, block in zip(stacked["apply"], image.blocks):
                assert stack[j, k].tobytes() == block.tobytes()
        for name, entry in (("compose", compose_automorphisms(a, b).unitaries), ("inverse", a.inverse().unitaries)):
            for stack, u in zip(stacked[name], entry):
                assert stack[k].tobytes() == u.tobytes(), name
        assert stacked["matrix"][k].tobytes() == linear_map_matrix(a).tobytes()
    with pytest.raises(StructureError, match="one automorphism"):
        GridPointMap.from_automorphism(alpha)


def test_trace_pairings_of_a_stack_are_the_functional_calls_bit_for_bit():
    # blocks past 8 rows reach numpy's pairwise summation of the diagonal
    algebra = WStarAlgebra((12, 1, 17))
    rng = SplitMix64(3)
    densities, blocks = algebra._random_blocks(rng, 1.0, 6), algebra._random_blocks(rng, 1.0, 6)
    stacked = _trace_pairings(densities, blocks)
    for k in range(6):
        g = NormalFunctional(algebra, tuple(d[k] for d in densities))
        value = g(algebra.element([b[k] for b in blocks]))
        assert np.complex128(stacked[k]).tobytes() == np.complex128(value).tobytes(), k


def test_verify_automorphism_judges_a_stack_entry_by_entry():
    alphas = Automorphism.conjugation(M223, M223._haar_blocks(SplitMix64(33), 3))
    seeds = [derive_seed(5, f"aut-{k}") for k in range(3)]
    stacked = verify_automorphism(alphas, sample_count=4, seed=seeds)
    rng = SplitMix64(33)  # entry k is the k-th sequential draw
    entries = [_per_sample_verify(parent_haar(M223, rng), 4, seed) for seed in seeds]
    assert stacked.samples == 4
    for law in ("multiplicative", "star_preserving", "unital", "isometric"):
        assert getattr(stacked, law) == max(getattr(r, law) for r in entries), law


def test_unitarity_is_judged_in_the_two_norm(m2):
    # u* u - I = diag(d, d) with d = 8e-9: the 2-norm 8e-9 passes the 1e-8
    # bound, the Frobenius norm 1.13e-8 would not
    spread = np.diag([1.0 + 4e-9, 1.0 + 4e-9]).astype(np.complex128)
    gram = spread.conj().T @ spread - np.eye(2)
    assert np.linalg.norm(gram, 2) <= 1e-8 < np.linalg.norm(gram)
    Automorphism.conjugation(m2, [spread])
    with pytest.raises(StructureError, match="not unitary"):
        Automorphism.conjugation(m2, [np.diag([1.0 + 1e-8, 1.0])])


# -- algebra checks against mutants ------------------------------------------


def _transposed_conjugation(self, blocks):
    out = [None] * self.algebra.nblocks
    for i, (u, b) in enumerate(zip(self.unitaries, blocks)):
        out[self.perm[i]] = u @ b @ u.swapaxes(-1, -2)
    return out


def _transposed_matrix(original):
    return lambda phi: original(phi).swapaxes(-1, -2)


def _frobenius_norms(blocks):
    return np.max([np.linalg.norm(b, axis=(-2, -1)) for b in blocks], axis=0)


def _reversed_composition(alpha, beta):
    # beta's unitary times alpha's: a |-> beta-then-alpha conjugates in the wrong order
    perm = tuple(alpha.perm[q] for q in beta.perm)
    unitaries = tuple(beta.unitaries[i] @ alpha.unitaries[beta.perm[i]] for i in range(alpha.algebra.nblocks))
    return Automorphism(alpha.algebra, unitaries, perm)


ALGEBRA_MUTANTS = {
    "conjugation-by-u-transpose": ((Automorphism, "apply_blocks", _transposed_conjugation), "automorphism-laws"),
    "transposed-map-matrix": ((suites, "linear_map_matrix", _transposed_matrix(linear_map_matrix)), "weakstar-pairing"),
    "frobenius-element-norm": ((suites, "_cstar_norms", _frobenius_norms), "cstar-norm"),
    "reversed-composition": ((suites, "compose_automorphisms", _reversed_composition), "compose-associativity"),
    # the norm estimate reads Frobenius norms: the identity alone has norm sqrt(n)
    "frobenius-contraction-estimate": ((evolution, "_cstar_norms", _frobenius_norms), "grid-contraction"),
    # an automorphism in place of trace averaging: nothing left to flag
    "identity-counterexample": (
        (suites, "named_contraction", lambda name, algebra: Automorphism.identity(algebra)),
        "automorphism-counterexample",
    ),
    "reversed-restriction-table": (
        (GridEvolutionSpace, "restriction_table", reversed_table(GridEvolutionSpace.restriction_table)),
        "index-roundtrip",
    ),
    "swapped-table-rows": (
        (GridEvolutionSpace, "restriction_table", swapped_table_rows(GridEvolutionSpace.restriction_table)),
        "index-roundtrip",
    ),
}


@pytest.mark.parametrize("mutant", list(ALGEBRA_MUTANTS))
def test_each_algebra_check_catches_its_mutant(mutant, monkeypatch):
    patch, caught = ALGEBRA_MUTANTS[mutant]
    scn = load_scenario("demo")
    monkeypatch.setattr(*patch)
    records = {r.check: r for r in run_suite(scn, ["algebra"]).records}
    assert records[caught].max_deviation > records[caught].tolerance


def test_index_roundtrip_judges_every_table_past_256_points(monkeypatch):
    # rung 3x8 has N = 512 full points; a reversed restriction table must
    # fail there as it does on demo
    scn = scenario_from_dict(ladder_config(3, 8))
    patch, caught = ALGEBRA_MUTANTS["reversed-restriction-table"]
    monkeypatch.setattr(*patch)
    record = {r.check: r for r in run_suite(scn, ["algebra"]).records}[caught]
    assert record.max_deviation > record.tolerance


# -- the stacked algebra checks against the per-sample ones ---------------------


def _parent_automorphism_laws(scn):
    rng = SplitMix64(derive_seed(scn.seed, "automorphism-laws"))
    worst = 0.0
    for k in range(20):
        alpha = parent_haar(scn.algebra, rng)
        report = _per_sample_verify(alpha, 5, derive_seed(scn.seed, f"aut-{k}"))
        worst = nan_max(worst, report.multiplicative, report.star_preserving, report.unital, report.isometric)
    return worst


def _parent_compose(scn):
    rng = SplitMix64(derive_seed(scn.seed, "compose"))
    dev = 0.0
    for _ in range(8):
        a1, a2, a3 = (parent_haar(scn.algebra, rng) for _ in range(3))
        left = compose_automorphisms(compose_automorphisms(a1, a2), a3)
        right = compose_automorphisms(a1, compose_automorphisms(a2, a3))
        x = scn.algebra.random_element(rng)
        dev = nan_max(dev, (left.apply(x) - right.apply(x)).norm())
        dev = nan_max(dev, (compose_automorphisms(a1, a2).apply(x) - a1.apply(a2.apply(x))).norm())
        inv = compose_automorphisms(a1, a1.inverse())
        dev = nan_max(dev, (inv.apply(x) - x).norm())
    return dev


def _parent_cstar_norm(scn):
    rng = SplitMix64(derive_seed(scn.seed, "cstar"))
    dev = 0.0
    for _ in range(10):
        a = scn.algebra.random_element(rng)
        dev = nan_max(dev, abs((a.star() @ a).norm() - a.norm() ** 2))
    return dev


def _parent_weakstar(scn):
    rng = SplitMix64(derive_seed(scn.seed, "weakstar"))
    algebra = scn.algebra
    dev = 0.0
    for _ in range(10):
        alpha = parent_haar(algebra, rng)
        # each tensor draws its element, then its functional: an element draw's blocks as densities
        a1, g1, a2, g2 = (algebra.random_element(rng) for _ in range(4))
        t1 = ElementaryTensor(algebra, ((a1, NormalFunctional(algebra, g1.blocks)),))
        t2 = ElementaryTensor(algebra, ((a2, NormalFunctional(algebra, g2.blocks)),))
        joint = weakstar_pairing(alpha, ElementaryTensor(algebra, t1.pairs + t2.pairs))
        dev = nan_max(dev, abs(joint - weakstar_pairing(alpha, t1) - weakstar_pairing(alpha, t2)))
        m = linear_map_matrix(alpha)
        for a, g in t1.pairs:
            direct = g(alpha.apply(a))
            coords = np.concatenate([d.T.ravel() for d in g.densities]) @ (m @ algebra._join(a.blocks))
            dev = nan_max(dev, abs(direct - coords))
    return dev


def _parent_grid_contraction(scn):
    dev = 0.0
    for pos, t in enumerate(scn.frame.times):
        for j in range(scn.space.grid_size(t)):
            phi = scn.space.map_at(t, j)
            seed = derive_seed(scn.seed, f"contraction-{pos}-{j}")
            est = 1.0 if phi.automorphism is not None else _per_sample_contraction_estimate(phi, seed, 16)
            dev = nan_max(dev, 0.0, est - 1.0)
    return dev


PARENT_CHECKS = {
    "automorphism-laws": _parent_automorphism_laws,
    "compose-associativity": _parent_compose,
    "cstar-norm": _parent_cstar_norm,
    "weakstar-pairing": _parent_weakstar,
    "grid-contraction": _parent_grid_contraction,
}
ORACLE_SOURCES = ["demo", "witness", "ladder-5x2", "ladder-3x5", "ladder-8x1"] + [f"demo@{seed}" for seed in range(5)]


def _oracle_scenario(source):
    if source.startswith("ladder-"):
        return scenario_from_dict(ladder_config(*map(int, source.removeprefix("ladder-").split("x"))))
    name, _, seed = source.partition("@")
    return load_scenario(name, seed_override=int(seed) if seed else None)


def _checks_against_parents(source):
    # per check, the per-sample oracle and the record, as float.hex
    scn = _oracle_scenario(source)
    records = {r.check: r for r in run_suite(scn, ["algebra"]).records}
    return {check: [oracle(scn).hex(), records[check].max_deviation.hex()] for check, oracle in PARENT_CHECKS.items()}


@pytest.fixture(scope="module")
def checks_against_parents():
    # one process at one BLAS thread: report bytes are pinned only there
    code = (
        "import json; from test_algebra import ORACLE_SOURCES, _checks_against_parents; "
        "print(json.dumps({s: _checks_against_parents(s) for s in ORACLE_SOURCES}))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=one_thread_env("src", ".", "tests"), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.mark.parametrize("source", ORACLE_SOURCES)
def test_stacked_algebra_checks_report_the_per_sample_deviations_bit_for_bit(source, checks_against_parents):
    for check, (oracle, record) in checks_against_parents[source].items():
        assert record == oracle, check


def test_the_algebra_suite_draws_each_check_s_haar_samples_at_once(monkeypatch):
    scn = load_scenario("demo")
    calls = {"qr": 0, "haar_unitary": 0}
    qr, haar_unitary = np.linalg.qr, SplitMix64.haar_unitary

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "qr", counted("qr", qr))
    monkeypatch.setattr(SplitMix64, "haar_unitary", counted("haar_unitary", haar_unitary))
    draws = {}
    for check in suites._SUITES["algebra"]:
        before = calls["qr"]
        ids = [record[0] for record in check(scn)]
        # a Haar draw is one phase-normalized QR per block
        draws[ids[0]] = (calls["qr"] - before) / scn.algebra.nblocks
    # demo's grids hold one dense map, the one grid-contraction samples
    assert draws == {
        "automorphism-laws": 1, "automorphism-counterexample": 0, "compose-associativity": 1,
        "cstar-norm": 0, "weakstar-pairing": 1, "grid-contraction": 1, "index-roundtrip": 0,
    }
    assert calls["haar_unitary"] == 0


def test_verify_automorphism_reads_every_seed_s_samples_at_once(monkeypatch):
    # automorphism-laws judges 20 automorphisms, each on 5 sample pairs of its
    # own seed: one read of the 20 substreams, 4 * 5 * dim words each
    from evogrid import algebra

    scn = load_scenario("demo")
    reads = []
    original = algebra.raw_streams
    monkeypatch.setattr(algebra, "raw_streams",
                        lambda seeds, counts: reads.append(list(counts)) or original(seeds, counts))
    suites._check_automorphism_laws(scn)
    assert reads == [[4 * 5 * scn.algebra.dimension] * 20]
