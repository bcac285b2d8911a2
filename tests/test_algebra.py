import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evobench.ladder import ladder_config
from evogrid import (
    AlgebraElement,
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
from evogrid import suites
from evogrid.rng import SplitMix64

from conftest import FLIP, reversed_table


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
    again = m23.from_coordinates(m23.coordinates(a))
    assert a.allclose(again, tol=0.0)


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
    assert np.allclose(m @ m23.coordinates(x), m23.coordinates(alpha.apply(x)), atol=1e-12)


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


def test_tensor_addition_extends_pairs(m2, flip):
    a = m2.element([np.diag([1.0, 0.0])])
    g = NormalFunctional(m2, (np.diag([1.0, 0.0]),))
    t = ElementaryTensor(m2, ((a, g),))
    s = t + t
    assert len(s.pairs) == 2
    assert weakstar_pairing(flip, s) == pytest.approx(2 * weakstar_pairing(flip, t), abs=1e-14)


def test_tensor_scalar_multiplication(m2, flip):
    a = m2.element([np.diag([4.0, -2.0])])
    g = NormalFunctional(m2, (np.diag([0.5, 0.5]),))
    t = ElementaryTensor(m2, ((a, g),))
    assert weakstar_pairing(flip, t * 3.0) == pytest.approx(3 * weakstar_pairing(flip, t), abs=1e-13)


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


# -- the stacked route against the per-sample one ------------------------------


def _per_sample_verify(phi, sample_count, seed):
    # the per-sample loop that verify_automorphism replaced, kept as its oracle
    algebra = phi.algebra
    rng = SplitMix64(seed)
    one = algebra.identity()
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
        cols[:, j] = algebra.coordinates(phi.apply(algebra.from_coordinates(basis)))
        basis[j] = 0.0
    return cols


def _per_sample_contraction_estimate(phi, seed, samples):
    algebra = phi.algebra
    rng = SplitMix64(seed)
    best = phi.apply(algebra.identity()).norm()
    for _ in range(samples):
        u = algebra.element([rng.haar_unitary(n) for n in algebra.block_dims])
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
    "dense-mixture": lambda: 0.5 * (GridPointMap.from_automorphism(MAPS_ON_M223["haar"]())
                                    + GridPointMap.from_automorphism(MAPS_ON_M223["haar-swapped"]())),
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
        out[self.perm[i]] = u @ b @ u.T
    return out


def _transposed_matrix(original):
    return lambda phi: original(phi).T


def _frobenius_norm(self):
    return max(float(np.linalg.norm(b)) for b in self.blocks)


ALGEBRA_MUTANTS = {
    "conjugation-by-u-transpose": ((Automorphism, "apply_blocks", _transposed_conjugation), "automorphism-laws"),
    "transposed-map-matrix": ((suites, "linear_map_matrix", _transposed_matrix(linear_map_matrix)), "weakstar-pairing"),
    "frobenius-element-norm": ((AlgebraElement, "norm", _frobenius_norm), "cstar-norm"),
    # an automorphism in place of trace averaging: nothing left to flag
    "identity-counterexample": (
        (suites, "named_contraction", lambda name, algebra: Automorphism.identity(algebra)),
        "automorphism-counterexample",
    ),
    "reversed-restriction-table": (
        (GridEvolutionSpace, "restricted_index_array", reversed_table(GridEvolutionSpace.restricted_index_array)),
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
