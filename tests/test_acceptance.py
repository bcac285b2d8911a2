"""Acceptance gate: every criterion as one test, one printed line each.

Each test prints `[criterion NN] PASS/FAIL <detail>` on the real stdout so
the lines survive pytest capture, then asserts.  The demo scenario is the
three-time grid with sizes (2, 3, 2), twelve basis points.
"""

import json
import sys
import time

import numpy as np
import pytest

from evogrid import (
    Automorphism,
    GridEvolutionSpace,
    GridPointMap,
    PureRepresentation,
    RepresentationSpace,
    TimeFrame,
    WStarAlgebra,
    commutant_witness,
    evolution_unitary,
    integrate,
    load_scenario,
    named_contraction,
    projection_rank,
    pullback,
    pullback_rows,
    pushforward,
    validate_action_weight,
    verify_automorphism,
    verify_lagrangian,
)
from evogrid.cli import main as cli_main
from evogrid.lagrangian import action_from_lagrangian
from evogrid.rng import SplitMix64, derive_seed


import conftest


def emit(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:02d}] {status} {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def demo():
    return load_scenario("demo")


def bit_table(k: int) -> np.ndarray:
    ids = np.arange(1 << k, dtype=np.int64)
    return ((ids[:, None] >> np.arange(k)[None, :]) & 1).astype(np.float64)


def projection_diagonals(scn, subset) -> np.ndarray:
    """Rows: the diagonal of E_T(V) for every V id, by the broadcast pullback."""
    return pullback_rows(scn.space, subset, bit_table(scn.space.npoints(subset)))


def test_criterion_01_pvm_axioms(demo):
    started = time.perf_counter()
    rep = demo.representation
    space = demo.space
    worst_diag = 0.0
    worst_conj = 0.0
    w = SplitMix64(derive_seed(42, "acceptance-conjugator")).haar_unitary(space.dimension)
    gram = w @ w.conj().T - np.eye(space.dimension)
    bound_matrix = np.abs(gram) ** 2
    rng = SplitMix64(derive_seed(42, "acceptance-dense-pairs"))
    for subset in demo.frame.admissible():
        measure = rep.spectral_measure(subset)
        assert measure.empty().norm() == 0.0
        assert np.array_equal(measure.total().diag, np.ones(space.dimension, dtype=np.complex128))
        k = measure.npoints
        total = 1 << k
        rows = projection_diagonals(demo, subset)
        # the rows really are the measure's projections
        for _ in range(32):
            v_id = rng.integer(total)
            members = [b for b in range(k) if (v_id >> b) & 1]
            assert np.array_equal(measure.projection(members).diag.real, rows[v_id])
        # exhaustive pairs, chunked: max |E(V1)E(V2) - E(V1 n V2)| entrywise;
        # on exact 0/1 entries the product is AND and the deviation is 0 or 1
        assert np.all((rows == 0.0) | (rows == 1.0))
        bits = rows.astype(bool)
        ids = np.arange(total, dtype=np.int64)
        chunk = 128
        for start in range(0, total, chunk):
            sl = ids[start : start + chunk]
            prod = bits[sl][:, None, :] & bits[None, :, :]
            inter = bits[sl[:, None] & ids[None, :]]
            worst_diag = max(worst_diag, float(np.any(prod != inter)))
        # conjugated measure: all pairs via the Frobenius bound of
        # D1 (W W* - I) D2, then direct dense spot checks
        partial = rows @ bound_matrix
        for start in range(0, total, 256):
            block = partial[start : start + 256] @ rows.T
            worst_conj = max(worst_conj, float(np.sqrt(max(0.0, np.max(block)))))
        for _ in range(25):
            i1, i2 = rng.integer(total), rng.integer(total)
            p1 = w.conj().T @ (rows[i1][:, None] * w)
            p2 = w.conj().T @ (rows[i2][:, None] * w)
            inter = w.conj().T @ (rows[i1 & i2][:, None] * w)
            worst_conj = max(worst_conj, float(np.linalg.norm(p1 @ p2 - inter, 2)))
    elapsed = time.perf_counter() - started
    passed = worst_diag == 0.0 and worst_conj < 1e-12 and elapsed < 5.0
    emit(1, passed, f"pvm axioms: diagonal dev {worst_diag:.1e}, conjugated dev {worst_conj:.3e}, {elapsed:.2f}s")
    assert worst_diag == 0.0
    assert worst_conj < 1e-12
    assert elapsed < 5.0


def test_criterion_02_pushforward(demo):
    started = time.perf_counter()
    space = demo.space
    full_measure = demo.representation.spectral_measure()
    digits = np.unravel_index(np.arange(space.dimension), space.full_shape())
    fiber_sizes = {t: space.grid_size(t) for t in demo.frame.times}
    worst = 0.0
    rank_failures = 0
    for subset in demo.frame.admissible():
        if not subset:
            continue
        measure = pushforward(full_measure, subset)
        k = measure.npoints
        # restriction map built from every full point's mixed-radix digits,
        # independent of the place-value index table inside the library
        restriction = np.ravel_multi_index([digits[ax] for ax in space.axes(subset)], space.shape(subset))
        masks = bit_table(k)
        oracle_rows = masks[:, restriction]
        for v_id in range(1 << k):
            members = [b for b in range(k) if (v_id >> b) & 1]
            got = measure.projection(members).diag.real
            worst = max(worst, float(np.max(np.abs(got - oracle_rows[v_id]))))
        expected_rank = 1
        for t in demo.frame.times:
            if t not in subset:
                expected_rank *= fiber_sizes[t]
        for b in range(k):
            if projection_rank(measure.atom(b)) != expected_rank:
                rank_failures += 1
    elapsed = time.perf_counter() - started
    passed = worst == 0.0 and rank_failures == 0 and elapsed < 10.0
    emit(2, passed, f"pushforward: dev {worst:.1e}, rank failures {rank_failures}, {elapsed:.2f}s")
    assert worst == 0.0
    assert rank_failures == 0
    assert elapsed < 10.0


def make_two_by_two():
    algebra = WStarAlgebra((2,))
    flip = Automorphism.conjugation(algebra, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    frame = TimeFrame(("1", "2"), (1.0, 1.0))
    grids = (
        (GridPointMap.identity(algebra), GridPointMap.from_automorphism(flip)),
        (GridPointMap.identity(algebra), named_contraction("trace_average", algebra)),
    )
    space = GridEvolutionSpace(frame, grids)
    return space, PureRepresentation(RepresentationSpace(space))


def test_criterion_03_diagonal_calculus(demo):
    rep = demo.representation
    space = demo.space
    worst = 0.0
    for subset in demo.frame.admissible():
        measure = rep.spectral_measure(subset)
        rng = SplitMix64(derive_seed(42, f"crit3-{sorted(map(str, subset))}"))
        for _ in range(100):
            f = space.random_function(subset, rng)
            via_measure = integrate(f, measure).diag
            via_pullback = rep.represent(pullback(f)).diag
            if not np.array_equal(via_measure, via_pullback):
                worst = max(worst, float(np.max(np.abs(via_measure - via_pullback))))
    rng = SplitMix64(derive_seed(42, "crit3-homomorphism"))
    hom_exact = True
    for _ in range(50):
        f = space.random_function(space.full, rng)
        g = space.random_function(space.full, rng)
        hom_exact &= np.array_equal(rep.represent(f * g).diag, (rep.represent(f) @ rep.represent(g)).diag)
        hom_exact &= np.array_equal(rep.represent(f.conjugate()).diag, rep.represent(f).adjoint().diag)
    one = space.constant(space.full, 1.0)
    hom_exact &= np.array_equal(rep.represent(one).diag, np.ones(space.dimension, dtype=np.complex128))
    # exhaustive injectivity on the 2x2 grid
    small_space, small_rep = make_two_by_two()
    injective = True
    for subset in small_space.frame.admissible():
        measure = small_rep.spectral_measure(subset)
        k = measure.npoints
        images = set()
        for bits in range(1 << k):
            mask = np.array([(bits >> b) & 1 for b in range(k)], dtype=np.complex128)
            images.add(integrate(small_space.function(subset, mask), measure).diag.tobytes())
        injective &= len(images) == 1 << k
    passed = worst == 0.0 and hom_exact and injective
    emit(3, passed, f"diagonal calculus: factorization dev {worst:.1e}, homomorphism exact {hom_exact}, injective {injective}")
    assert worst == 0.0
    assert hom_exact
    assert injective


def test_criterion_04_embedding():
    from evogrid import embed_eta, identity_operator, theta_projection, theta_represent

    space, rep = make_two_by_two()
    rng = SplitMix64(derive_seed(42, "crit4"))
    exact = True
    for subset in space.frame.admissible():
        measure = rep.spectral_measure(subset)
        k = measure.npoints
        for _ in range(25):
            f = space.random_function(subset, rng)
            small = theta_represent(f)
            lifted = embed_eta(rep.rep_space, subset, small)
            exact &= np.array_equal(lifted.diag, integrate(f, measure).diag)
            exact &= lifted.norm() == small.norm()
        for bits in range(1 << k):
            members = [b for b in range(k) if (bits >> b) & 1]
            lifted = embed_eta(rep.rep_space, subset, theta_projection(space, subset, members))
            exact &= np.array_equal(lifted.diag, measure.projection(members).diag)
        unit = embed_eta(rep.rep_space, subset, identity_operator(space.npoints(subset)))
        exact &= np.array_equal(unit.diag, np.ones(4, dtype=np.complex128))
    emit(4, exact, "embedding: both identities, unit, and norm preservation exact on all subsets")
    assert exact


def test_criterion_05_conjugation_covariance(demo):
    from evogrid import conjugate

    space = demo.space
    rep = demo.representation
    w = SplitMix64(derive_seed(42, "crit5")).haar_unitary(space.dimension)
    rep_conj = conjugate(w, rep)
    worst = 0.0
    rng = SplitMix64(derive_seed(42, "crit5-sets"))
    for subset in demo.frame.admissible():
        plain = rep.spectral_measure(subset)
        moved = rep_conj.spectral_measure(subset)
        k = plain.npoints
        for _ in range(20):
            v_id = rng.integer(1 << k)
            members = [b for b in range(k) if (v_id >> b) & 1]
            # independent route: accumulate conjugated atoms densely
            acc = np.zeros((space.dimension, space.dimension), dtype=np.complex128)
            for b in members:
                acc += moved.atom(b).to_dense()
            direct = w.conj().T @ plain.projection(members).to_dense() @ w
            worst = max(worst, float(np.linalg.norm(acc - direct, 2)))
        f = space.random_function(subset, rng)
        lhs = integrate(f, moved).to_dense()
        rhs = w.conj().T @ integrate(f, plain).to_dense() @ w
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    # the evolution unitaries transform the same way
    for subset in demo.frame.admissible():
        u_plain = evolution_unitary(demo.weight, subset, rep).to_dense()
        u_conj = evolution_unitary(demo.weight, subset, rep_conj).to_dense()
        worst = max(worst, float(np.linalg.norm(u_conj - w.conj().T @ u_plain @ w, 2)))
    passed = worst < 1e-12
    emit(5, passed, f"conjugation covariance: max deviation {worst:.3e}")
    assert worst < 1e-12


def test_criterion_06_group_law(demo):
    rep = demo.representation
    weight = demo.weight
    frame = demo.frame

    def group_law(t1, t2):
        u1, u2, u12 = (evolution_unitary(weight, s, rep) for s in (t1, t2, frozenset(t1) | frozenset(t2)))
        return (u1 @ u2 - u12).norm()

    worst = 0.0
    pairs = 0
    null_pair_seen = False
    for t1 in frame.admissible():
        for t2 in frame.admissible():
            if frame.mu(t1 & t2) != 0.0:
                continue
            if t1 & t2:
                null_pair_seen = True  # overlap carried by the weight-0 time
            worst = max(worst, group_law(t1, t2))
            pairs += 1
    worst = max(worst, group_law({"1", "3"}, {"2", "3"}))
    u_empty = evolution_unitary(weight, frozenset(), rep).diag
    u_null = evolution_unitary(weight, {"3"}, rep).diag
    exact_identities = np.array_equal(u_empty, np.ones(12, dtype=np.complex128)) and np.array_equal(
        u_null, np.ones(12, dtype=np.complex128)
    )
    passed = worst < 1e-12 and null_pair_seen and exact_identities
    emit(6, passed, f"group law: {pairs} disjoint pairs, max dev {worst:.3e}, null unitaries exact {exact_identities}")
    assert worst < 1e-12
    assert null_pair_seen
    assert exact_identities


def test_criterion_07_commutation_and_witness(demo):
    rep = demo.representation
    weight = demo.weight
    domain = demo.frame.admissible()
    ops = [evolution_unitary(weight, s, rep) for s in domain]
    same = 0.0
    for i, u in enumerate(ops):
        for v in ops[i + 1 :]:
            same = max(same, (u @ v - v @ u).norm())
    witness_scn = load_scenario("witness")
    report = commutant_witness(witness_scn.weight, witness_scn.representation, witness_scn.conjugated)
    # dense-matrix oracle for the designed witness: diag(1,-1) against its
    # Hadamard conjugate
    u = np.diag([1.0, -1.0]).astype(np.complex128)
    h = witness_scn.conjugated.conjugator
    u_conj = h.conj().T @ u @ h
    oracle = float(np.linalg.norm(u @ u_conj - u_conj @ u, 2))
    passed = same < 1e-12 and report.witness > 0.1 and abs(report.witness - oracle) < 1e-12
    emit(
        7,
        passed,
        f"commutation: same-rep max {same:.1e}; witness {report.witness:.6f} (oracle {oracle:.6f}) > 0.1",
    )
    assert same < 1e-12
    assert report.witness > 0.1
    assert abs(report.witness - oracle) < 1e-12


def test_criterion_08_lagrangian_laws(demo):
    lag = demo.lagrangian
    assert lag is not None
    frame = demo.frame
    space = demo.space
    report = verify_lagrangian(lag)
    weight_report = validate_action_weight(demo.weight)
    additivity = 0.0
    actions = {s: action_from_lagrangian(lag, s) for s in frame.admissible()}
    pulled = {s: actions[s].values[space.restricted_index_array(s)] for s in frame.admissible()}
    for t1 in frame.admissible():
        for t2 in frame.admissible():
            if frame.mu(t1 & t2) != 0.0:
                continue
            additivity = max(
                additivity, float(np.max(np.abs(pulled[t1 | t2] - pulled[t1] - pulled[t2])))
            )
    lipschitz = 0.0
    for subset in frame.admissible():
        if not subset:
            continue
        mu = frame.mu(subset)
        dens = lag.table(subset).real
        values = actions[subset].values
        for i in range(len(dens)):
            for j in range(len(dens)):
                gap = abs(values[i] - values[j])
                bound = float(np.max(np.abs(dens[i] - dens[j]))) * mu
                lipschitz = max(lipschitz, max(0.0, float(gap - bound)))
    worst = max(
        report.restriction_deviation,
        report.realness_deviation,
        weight_report.unimodular,
        weight_report.cocycle,
        weight_report.null_subset,
        additivity,
        lipschitz,
    )
    passed = worst < 1e-12
    emit(
        8,
        passed,
        f"lagrangian: restriction {report.restriction_deviation:.1e}, additivity {additivity:.1e}, "
        f"lipschitz excess {lipschitz:.1e}, weight laws {max(weight_report.unimodular, weight_report.cocycle):.1e}",
    )
    assert worst < 1e-12


def test_criterion_09_automorphism_laws():
    algebra = WStarAlgebra((2, 3))
    laws = ("multiplicative", "star_preserving", "unital", "isometric")

    def failing_laws(report):
        return tuple(law for law in laws if getattr(report, law) > 1e-10)

    def holds(report):
        return max(getattr(report, law) for law in laws) <= 1e-10

    failures = []
    for i in range(50):
        rng = SplitMix64(derive_seed(42, f"crit9-{i}"))
        alpha = Automorphism.haar(algebra, rng)
        report = verify_automorphism(alpha, sample_count=10, seed=derive_seed(7, f"crit9-{i}"))
        if not holds(report):
            failures.append((i, failing_laws(report)))
    counterexample = verify_automorphism(named_contraction("trace_average", algebra), sample_count=10, seed=0)
    flagged = (not holds(counterexample)) and "multiplicative" in failing_laws(counterexample)
    passed = not failures and flagged
    emit(9, passed, f"automorphisms: 50 seeded pass at 1e-10 ({len(failures)} failures); counterexample flagged {flagged}")
    assert not failures
    assert flagged


def test_criterion_10_determinism(tmp_path):
    out1 = tmp_path / "run1.jsonl"
    out2 = tmp_path / "run2.jsonl"
    assert cli_main(["verify", "demo", "--seed", "42", "--out", str(out1)]) == 0
    assert cli_main(["verify", "demo", "--seed", "42", "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().strip().splitlines()]
    all_passed = records[-1]["pass"] is True
    emit(10, identical and all_passed, f"determinism: byte-identical reports {identical}, all checks pass {all_passed}")
    assert identical
    assert all_passed
