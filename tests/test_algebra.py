import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evogrid import (
    Automorphism,
    ElementaryTensor,
    NormalFunctional,
    StructureError,
    WStarAlgebra,
    compose_automorphisms,
    linear_map_matrix,
    named_contraction,
    verify_automorphism,
    weakstar_pairing,
)
from evogrid.rng import SplitMix64

from conftest import FLIP


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
        report = verify_automorphism(alpha, sample_count=8, seed=3, tol=1e-10)
        assert report.passed, report.failing_laws()


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
    report = verify_automorphism(phi, sample_count=10, seed=0, tol=1e-10)
    assert not report.passed
    assert "multiplicative" in report.failing_laws()


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
