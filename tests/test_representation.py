import itertools

import numpy as np
import pytest

from evogrid import (
    Automorphism,
    CapExceededError,
    ConjugatedDiagonalOperator,
    DiagonalOperator,
    DomainError,
    GridEvolutionSpace,
    GridPointMap,
    PreconditionError,
    PureRepresentation,
    StructureError,
    RepresentationSpace,
    TimeFrame,
    WStarAlgebra,
    conjugate,
    embed_eta,
    identity_operator,
    integrate,
    matrix_element,
    named_contraction,
    projection_rank,
    pullback,
    pushforward,
    theta_projection,
    theta_represent,
)
from evogrid.representation import check_unitary, conjugated_columns
from evogrid.rng import SplitMix64

from conftest import HADAMARD, conjugated_rep


# -- operator types -----------------------------------------------------------


def test_diagonal_operator_basics():
    d = DiagonalOperator([1.0, -2.0, 3.0j])
    assert d.norm() == 3.0
    assert d.trace() == pytest.approx(-1.0 + 3.0j)
    assert d.entry(1, 1) == -2.0
    assert d.entry(0, 1) == 0.0
    assert np.array_equal((d @ d).diag, np.array([1.0, 4.0, -9.0 + 0.0j]))
    assert np.array_equal(d.adjoint().diag, np.conj(d.diag))
    # the constructor copies a caller's array; a product, difference or
    # adjoint wraps its fresh result without a second copy, frozen in place
    entries = np.array([1.0, -2.0, 3.0j])
    d = DiagonalOperator(entries)
    assert not np.shares_memory(d.diag, entries) and not d.diag.flags.writeable
    for result in (d @ d, d - d, d.adjoint()):
        assert type(result) is DiagonalOperator and result.diag.dtype == np.complex128
        assert not result.diag.flags.writeable and not np.shares_memory(result.diag, d.diag)


@pytest.mark.parametrize("op", [lambda a, b: a @ b, lambda a, b: a - b], ids=["matmul", "sub"])
@pytest.mark.parametrize("diagonal_first", [True, False], ids=["diagonal-first", "conjugated-first"])
def test_mixed_operator_kinds_raise_type_error(op, diagonal_first):
    # a conjugated operator also has a .diag; reading it would drop the conjugator
    d = DiagonalOperator([1.0, 2.0])
    c = ConjugatedDiagonalOperator(conjugated_rep(HADAMARD), [1.0, -1.0])
    with pytest.raises(TypeError):
        op(d, c) if diagonal_first else op(c, d)


def test_conjugated_diagonal_matches_dense_conjugation():
    diag = np.array([1.0, -1.0], dtype=np.complex128)
    op = ConjugatedDiagonalOperator(conjugated_rep(HADAMARD), diag)
    expected = HADAMARD.conj().T @ np.diag(diag) @ HADAMARD
    assert np.allclose(op.to_dense(), expected, atol=1e-15)
    # H diag(1,-1) H is the basis flip; entries are known exactly
    assert op.entry(0, 1) == pytest.approx(1.0)
    assert op.entry(0, 0) == pytest.approx(0.0)
    assert op.trace() == pytest.approx(0.0)
    assert np.linalg.norm(op.to_dense(), 2) == pytest.approx(1.0)


def test_a_stack_of_diagonals_reads_each_row_as_its_one_row_operator():
    w = SplitMix64(30).haar_unitary(6)
    diags = SplitMix64(31).complex_matrix(3, 6)
    stack = ConjugatedDiagonalOperator(conjugated_rep(w), diags)
    cols, got = [4, 0, 4], stack.columns([4, 0, 4])
    entries, traces = stack.entry(2, 5), stack.trace()
    assert stack.dimension == 6 and got.shape == (3, 6, 3) and entries.shape == traces.shape == (3,)
    for r, d in enumerate(diags):
        op = ConjugatedDiagonalOperator(stack.representation, d)
        assert np.allclose(got[r], op.to_dense()[:, cols], atol=1e-14)
        assert entries[r] == op.entry(2, 5) and traces[r] == op.trace()
    # the dense matrix and its norm are one operator's
    with pytest.raises(StructureError):
        stack.to_dense()
    with pytest.raises(StructureError):
        ConjugatedDiagonalOperator(stack.representation, np.ones((2, 3, 6)))


def test_an_empty_stack_reads_no_columns():
    # a frame may admit no subset at all; its stacks have no rows
    w = SplitMix64(30).haar_unitary(6)
    empty = np.zeros((0, 6), dtype=np.complex128)
    got = ConjugatedDiagonalOperator(conjugated_rep(w), empty).columns([1, 4])
    assert got.shape == conjugated_columns(w.conj().T, w, empty, [1, 4]).shape == (0, 6, 2)


def test_conjugate_requires_unitary():
    # conjugation acts on representations only; operators carry their pair
    with pytest.raises(StructureError):
        conjugate(HADAMARD, DiagonalOperator(np.ones(2)))
    with pytest.raises(StructureError):
        ConjugatedDiagonalOperator(conjugated_rep(HADAMARD), np.ones(3))


def test_a_conjugated_operator_is_built_on_a_conjugated_representation(rep4):
    # the representation checked W; neither a plain one nor a raw W will do
    for holder, n in ((rep4, 4), (HADAMARD, 2)):
        with pytest.raises(StructureError, match="conjugated representation"):
            ConjugatedDiagonalOperator(holder, np.ones(n))


def test_check_unitary_tolerance():
    check_unitary(np.eye(3))
    with pytest.raises(PreconditionError) as info:
        check_unitary(1.5 * np.eye(3))
    assert str(info.value) == "matrix is not unitary within 1e-10 (defect 1.250e+00)"


def test_check_unitary_judges_by_the_two_norm():
    # U*U - I = (2d + d^2) I: 2-norm about 6e-11 <= tol, Frobenius twice that > tol
    u = (1.0 + 3e-11) * np.eye(4)
    gram = u.conj().T @ u - np.eye(4)
    assert np.linalg.norm(gram, 2) <= 1e-10 < np.linalg.norm(gram)
    check_unitary(u)


def test_a_gram_that_overflows_is_not_unitary():
    # u u* overflows to inf, and inf * 0 to NaN: a NaN norm compares False
    # with the bound, so neither gate may read it as within tolerance
    huge = np.diag([1e200, 1.0]).astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StructureError, match="not unitary"):
            Automorphism.conjugation(WStarAlgebra((2,)), [huge])
        with pytest.raises(PreconditionError, match="not unitary"):
            check_unitary(huge)


def test_projection_rank_and_idempotency_guard():
    assert projection_rank(DiagonalOperator([1.0, 1.0, 0.0])) == 2
    with pytest.raises(PreconditionError):
        projection_rank(DiagonalOperator([0.5, 0.0]))


# -- representation space -----------------------------------------------------


def test_cap_enforced(small_space):
    with pytest.raises(CapExceededError):
        RepresentationSpace(small_space, cap=3)
    RepresentationSpace(small_space, cap=4)


# -- diagonal representation --------------------------------------------------


def test_represent_places_values_on_diagonal(rep4, small_space):
    f = small_space.function(small_space.full, [1.0, 2.0, 3.0, 4.0])
    op = rep4.represent(f)
    assert isinstance(op, DiagonalOperator)
    assert np.array_equal(op.diag, f.values.astype(np.complex128))


def test_represent_requires_full_subset(rep4, small_space):
    f = small_space.function({"1"}, [1.0, 2.0])
    with pytest.raises(DomainError):
        rep4.represent(f)


def test_representation_is_multiplicative_and_star(rep4, small_space):
    rng = SplitMix64(14)
    f = small_space.random_function(small_space.full, rng)
    g = small_space.random_function(small_space.full, rng)
    lhs = rep4.represent(f * g)
    rhs = rep4.represent(f) @ rep4.represent(g)
    assert np.array_equal(lhs.diag, rhs.diag)
    assert np.array_equal(rep4.represent(f.conjugate()).diag, rep4.represent(f).adjoint().diag)
    assert rep4.represent(f).norm() == f.sup_norm()


# -- spectral measures, exhaustively on four points ---------------------------


def all_subsets(k):
    for r in range(k + 1):
        yield from (set(c) for c in itertools.combinations(range(k), r))


def test_measure_axioms_exhaustive(rep4, small_space):
    for subset in small_space.frame.admissible():
        measure = rep4.spectral_measure(subset)
        k = measure.npoints
        assert measure.empty().norm() == 0.0
        assert np.array_equal(measure.total().diag, np.ones(4, dtype=np.complex128))
        for v1 in all_subsets(k):
            p1 = measure.projection(v1).diag
            assert projection_rank(measure.projection(v1)) == len(v1) * (4 // k)
            for v2 in all_subsets(k):
                p2 = measure.projection(v2).diag
                inter = measure.projection(v1 & v2).diag
                assert np.array_equal(p1 * p2, inter)
                union = measure.projection(v1 | v2).diag
                assert np.array_equal(p1 + p2 - inter, union)


def test_measure_projection_matches_preimage_oracle(rep4, small_space):
    shape = small_space.full_shape()
    for subset in small_space.frame.admissible():
        measure = rep4.spectral_measure(subset)
        axes = small_space.axes(subset)
        for v in all_subsets(measure.npoints):
            got = measure.projection(v).diag
            oracle = np.zeros(4, dtype=np.complex128)
            for x in range(4):
                # restrict basis point x by its digits, not through the table
                digits = np.unravel_index(x, shape)
                if np.ravel_multi_index([digits[ax] for ax in axes], small_space.shape(subset)) in v:
                    oracle[x] = 1.0
            assert np.array_equal(got, oracle)


def _indicator_integral(measure, members):
    # the route `projection` took before it read `diagonals`, kept as its bit
    # oracle: the spectral integral of a 0/1 complex function over points(T)
    values = np.zeros(measure.npoints, dtype=np.complex128)
    values[list(members)] = 1.0
    return integrate(measure.space.function(measure.subset, values), measure)


def test_projection_has_the_bits_of_the_indicator_integral(rep4, small_space):
    for rep in (rep4, conjugate(SplitMix64(5).haar_unitary(4), rep4)):
        for subset in small_space.frame.admissible():
            measure = rep.spectral_measure(subset)
            for v in all_subsets(measure.npoints):
                got, oracle = measure.projection(v), _indicator_integral(measure, v)
                assert type(got) is type(oracle) and got.diag.tobytes() == oracle.diag.tobytes()


def test_pushforward_requires_full_source(rep4):
    partial = rep4.spectral_measure({"1"})
    with pytest.raises(DomainError):
        pushforward(partial, frozenset())
    full = rep4.spectral_measure()
    smaller = pushforward(full, {"2"})
    assert smaller.subset == frozenset({"2"})


def test_pushforward_atom_rank_is_fiber_size(rep4):
    full = rep4.spectral_measure()
    for x in range(4):
        assert projection_rank(full.atom(x)) == 1
    over_one = pushforward(full, {"1"})
    assert projection_rank(over_one.atom(0)) == 2
    assert projection_rank(over_one.atom(1)) == 2


def test_integrate_matches_manual_sum(rep4, small_space):
    rng = SplitMix64(15)
    for subset in small_space.frame.admissible():
        measure = rep4.spectral_measure(subset)
        # the atom sum turns a -0.0 value into +0.0; the integral must too
        signed_zero = np.full(measure.npoints, -0.0)
        signed_zero[-1] = -1.5
        for f in (small_space.random_function(subset, rng), small_space.function(subset, signed_zero)):
            got = integrate(f, measure).diag
            manual = np.zeros(4, dtype=np.complex128)
            for b in range(measure.npoints):
                manual += f.values[b] * measure.atom(b).diag
            assert got.tobytes() == manual.tobytes()


def test_integrate_and_pullback_routes_check_each_other(monkeypatch):
    from evogrid import GridEvolutionSpace, load_scenario, suites
    from evogrid.suites import _check_embedding, _check_embedding_measure, _check_factorization, _check_matrix_elements

    checks = (_check_factorization, _check_embedding, _check_embedding_measure, _check_matrix_elements)
    scn = load_scenario("demo")
    for check in checks:
        assert check(scn)[0][2] == 0.0
    table = GridEvolutionSpace.restriction_table
    lifted = suites.pullback_along
    # the measures gather through the restriction table; the pullback side
    # reads the digit-built image; matrix-elements restricts by mixed-radix digits
    with monkeypatch.context() as m:
        m.setattr(GridEvolutionSpace, "restriction_table", lambda self: table(self)[:, ::-1])
        for check in checks:
            assert check(scn)[0][2] > 0.0
    with monkeypatch.context() as m:
        m.setattr(suites, "pullback_along",
                  lambda space, values, image, lo: lifted(space, values, image, lo)[..., ::-1])
        assert _check_embedding_measure(scn)[0][2] > 0.0


def test_integrate_factors_through_pullback(rep4, small_space):
    rng = SplitMix64(16)
    for subset in small_space.frame.admissible():
        f = small_space.random_function(subset, rng)
        via_measure = integrate(f, rep4.spectral_measure(subset)).diag
        via_pullback = rep4.represent(pullback(f)).diag
        assert np.array_equal(via_measure, via_pullback)


def test_integrate_subset_mismatch(rep4, small_space):
    f = small_space.function({"1"}, [1.0, 2.0])
    with pytest.raises(DomainError):
        integrate(f, rep4.spectral_measure({"2"}))


def test_matrix_element_frozen_values(rep4):
    measure = pushforward(rep4.spectral_measure(), {"1"})
    # V = {0} over time 1: basis points 0,1 restrict to 0; 2,3 restrict to 1
    assert matrix_element(measure, 0, 0, [0]) == 1.0
    assert matrix_element(measure, 1, 1, [0]) == 1.0
    assert matrix_element(measure, 2, 2, [0]) == 0.0
    assert matrix_element(measure, 0, 1, [0]) == 0.0


@pytest.mark.parametrize("x, y", [(-1, 0), (0, 4), (4, 4)])
def test_matrix_element_rejects_basis_indices_out_of_range(rep4, x, y):
    with pytest.raises(DomainError):
        matrix_element(rep4.spectral_measure(), x, y, [0])


# -- small-space action and embedding ----------------------------------------


def test_theta_diagonalizes_subset_functions(small_space):
    f = small_space.function({"1"}, [5.0, 6.0])
    op = theta_represent(f)
    assert np.array_equal(op.diag, np.array([5.0, 6.0], dtype=np.complex128))


def test_theta_projection_variants(small_space):
    by_ix = theta_projection(small_space, {"1"}, [1])
    assert np.array_equal(by_ix.diag, np.array([0.0, 1.0], dtype=np.complex128))
    with pytest.raises(DomainError):
        theta_projection(small_space, {"1"}, [2])


@pytest.mark.parametrize(
    "build",
    [
        lambda rep, members: rep.spectral_measure({"1"}).projection(members),
        lambda rep, members: theta_projection(rep.space, {"1"}, members),
    ],
    ids=["projection", "theta_projection"],
)
@pytest.mark.parametrize("member", [-1, 2], ids=["negative", "npoints"])
def test_point_set_members_are_validated(rep4, build, member):
    # points({"1"}) has two members, indices 0 and 1
    with pytest.raises(DomainError):
        build(rep4, [member])


def test_embedding_frozen_values(rep4, small_space):
    op = DiagonalOperator([11.0, 22.0])
    lifted = embed_eta(rep4.rep_space, {"1"}, op)
    assert np.array_equal(lifted.diag, np.array([11.0, 11.0, 22.0, 22.0], dtype=np.complex128))


def test_embedding_is_unital_isometric_multiplicative(rep4, small_space):
    rng = SplitMix64(17)
    for subset in small_space.frame.admissible():
        k = small_space.npoints(subset)
        unit = embed_eta(rep4.rep_space, subset, identity_operator(k))
        assert np.array_equal(unit.diag, np.ones(4, dtype=np.complex128))
        f = small_space.random_function(subset, rng)
        g = small_space.random_function(subset, rng)
        fo = theta_represent(f)
        go = theta_represent(g)
        lhs = embed_eta(rep4.rep_space, subset, fo @ go)
        rhs = embed_eta(rep4.rep_space, subset, fo) @ embed_eta(rep4.rep_space, subset, go)
        assert np.array_equal(lhs.diag, rhs.diag)
        assert embed_eta(rep4.rep_space, subset, fo).norm() == fo.norm()


def test_embedding_intertwines_spectral_data(rep4, small_space):
    rng = SplitMix64(18)
    for subset in small_space.frame.admissible():
        measure = rep4.spectral_measure(subset)
        f = small_space.random_function(subset, rng)
        lifted = embed_eta(rep4.rep_space, subset, theta_represent(f))
        assert np.array_equal(lifted.diag, integrate(f, measure).diag)
        for v in all_subsets(measure.npoints):
            lifted_pr = embed_eta(rep4.rep_space, subset, theta_projection(small_space, subset, v))
            assert np.array_equal(lifted_pr.diag, measure.projection(v).diag)


def test_embedding_rejects_dense_input(rep4):
    with pytest.raises(DomainError):
        embed_eta(rep4.rep_space, {"1"}, ConjugatedDiagonalOperator(conjugated_rep(HADAMARD), np.ones(2)))
    with pytest.raises(DomainError):
        embed_eta(rep4.rep_space, {"1"}, DiagonalOperator(np.ones(3)))


# -- injectivity of the subset actions ----------------------------------------


def test_distinct_functions_have_distinct_operators(rep4, small_space):
    for subset in small_space.frame.admissible():
        measure = rep4.spectral_measure(subset)
        k = measure.npoints
        seen = set()
        for bits in range(1 << k):
            mask = [(bits >> i) & 1 for i in range(k)]
            f = small_space.function(subset, np.array(mask, dtype=np.complex128))
            seen.add(integrate(f, measure).diag.tobytes())
        assert len(seen) == 1 << k


# -- conjugation --------------------------------------------------------------


def test_conjugate_diagonal_operator(m2):
    frame = TimeFrame(("1",), (1.0,))
    space = GridEvolutionSpace(frame, ((GridPointMap.identity(m2), named_contraction("trace_average", m2)),))
    rep = PureRepresentation(RepresentationSpace(space))
    f = space.function(space.full, [1.0, -1.0])
    moved = conjugate(HADAMARD, rep).represent(f)
    assert isinstance(moved, ConjugatedDiagonalOperator)
    expected = HADAMARD.conj().T @ rep.represent(f).to_dense() @ HADAMARD
    assert np.allclose(moved.to_dense(), expected, atol=1e-15)


def test_conjugate_representation_composes(rep4, small_space):
    rng = SplitMix64(19)
    w1 = rng.haar_unitary(4)
    w2 = rng.haar_unitary(4)
    once = conjugate(w1, rep4)
    twice = conjugate(w2, once)
    f = small_space.random_function(small_space.full, rng)
    direct = w2.conj().T @ once.represent(f).to_dense() @ w2
    assert np.allclose(twice.represent(f).to_dense(), direct, atol=1e-12)


def test_conjugated_measure_covariance(rep4, small_space):
    rng = SplitMix64(20)
    w = rng.haar_unitary(4)
    conj_rep = conjugate(w, rep4)
    for subset in small_space.frame.admissible():
        plain = rep4.spectral_measure(subset)
        moved = conj_rep.spectral_measure(subset)
        for v in all_subsets(plain.npoints):
            lhs = moved.projection(v).to_dense()
            rhs = w.conj().T @ plain.projection(v).to_dense() @ w
            assert np.allclose(lhs, rhs, atol=1e-14)


def test_conjugation_preserves_rank_and_trace(rep4):
    rng = SplitMix64(22)
    w = rng.haar_unitary(4)
    measure = conjugate(w, rep4).spectral_measure({"2"})
    p = measure.projection([0])
    dense = p.to_dense()
    assert np.linalg.norm(dense @ dense - dense, 2) <= 1e-10
    assert round(p.trace().real) == 2
    assert p.trace() == pytest.approx(2.0, abs=1e-12)


def test_conjugate_rejects_non_unitary(rep4):
    with pytest.raises(PreconditionError):
        conjugate(np.diag([2.0, 1.0, 1.0, 1.0]), rep4)


def test_conjugated_operators_share_the_checked_conjugator(rep4, small_space):
    w = SplitMix64(24).haar_unitary(4)
    moved = conjugate(w, rep4)
    assert not np.shares_memory(moved.conjugator, w) and not moved.conjugator.flags.writeable
    subset = small_space.frame.admissible()[-1]
    f = small_space.random_function(subset, SplitMix64(25))
    ops = (
        moved.represent(small_space.constant(small_space.full, 1.0)),
        integrate(f, moved.spectral_measure(subset)),
        moved.spectral_measure(subset).projection([0]),
    )
    for op in ops:
        assert np.shares_memory(op.conjugator, moved.conjugator)
        assert not op.conjugator.flags.writeable


def test_conjugated_operators_share_one_adjoint_and_row_gram(rep4, small_space):
    w = SplitMix64(27).haar_unitary(4)
    moved = conjugate(w, rep4)
    # formed at first use, not when the representation is built
    assert not {"conjugator_adjoint", "row_gram"} & set(vars(moved))
    subset = small_space.frame.admissible()[-1]
    measure = moved.spectral_measure(subset)
    ops = (
        moved.represent(small_space.constant(small_space.full, 1.0)),
        integrate(small_space.random_function(subset, SplitMix64(28)), measure),
        measure.projection([0]),
        measure.atom(1),
        moved.spectral_measure().total(),
    )
    ops[0].trace()
    assert set(vars(moved)) >= {"row_gram"} and "conjugator_adjoint" not in vars(moved)
    ops[0].columns([0, 2])
    adjoint, row_gram = moved.conjugator_adjoint, moved.row_gram
    for op in ops:
        op.trace()
        op.columns([0, 2])
        assert op.representation is moved
    assert moved.conjugator_adjoint is adjoint and moved.row_gram is row_gram
    assert not adjoint.flags.writeable and not row_gram.flags.writeable
    # the same expressions as the unshared route, so the same bits
    assert adjoint.tobytes() == moved.conjugator.conj().T.tobytes()
    assert row_gram.tobytes() == np.sum(moved.conjugator * np.conj(moved.conjugator), axis=1).tobytes()


def test_a_conjugator_that_is_not_frozen_is_copied(small_space):
    w = SplitMix64(26).haar_unitary(4)
    # a read-only view of a writeable array could still change under it
    view = w.view()
    fortran = np.asfortranarray(w)
    for a in (view, fortran):
        a.setflags(write=False)
    for source in (w, view, fortran):
        rep = PureRepresentation(RepresentationSpace(small_space), source)
        assert not np.shares_memory(rep.conjugator, source) and not rep.conjugator.flags.writeable
        assert rep.conjugator.flags.c_contiguous and np.array_equal(rep.conjugator, w)
