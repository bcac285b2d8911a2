"""Tour 3: action weights, the unitaries they integrate to, and commutants.

Run with:  python3 demos/03_dynamics_tour.py

A pointwise cost on paths (a Lagrangian density) integrates over a subset
of times into an action; the unimodular exponential of the action is an
action weight; integrating the weight against the subset's projection-
valued measure produces an evolution unitary.  Disjoint subsets compose
additively, so the unitaries obey a group law, and conjugating the whole
representation moves every unitary covariantly.
"""

import numpy as np

from evogrid import (
    Lagrangian,
    SplitMix64,
    commutant_witness,
    conjugate,
    evolution_unitary,
    identity_operator,
    load_scenario,
    validate_action_weight,
    verify_lagrangian,
    weight_from_lagrangian,
)


def fmt(subset) -> str:
    return "{" + ",".join(sorted(subset)) + "}" if subset else "{}"


def main() -> None:
    scn = load_scenario("demo")
    space = scn.space
    frame = scn.frame
    rep = scn.representation
    tol = scn.tolerances.dynamics  # what the suites compare these deviations with

    print("=" * 72)
    print("From pointwise cost to unitary evolution")
    print("=" * 72)
    table = {t: [0.25 * (j + 1) for j in range(space.grid_size(t))] for t in frame.times}
    lag = Lagrangian.from_table(space, table)
    report = verify_lagrangian(lag)
    print("a table Lagrangian (cost per grid choice, per time):")
    for t in frame.times:
        print(f"  time {t} (weight {frame.mu({t})}): costs {table[t]}")
    print(f"restriction consistency deviation: {report.restriction_deviation} <= {tol:.0e}")

    weight = weight_from_lagrangian(lag)
    wreport = validate_action_weight(weight)
    print("\nthe induced action weight u = exp(i * action):")
    print(f"  unimodularity deviation: {wreport.unimodular:.2e} <= {tol:.0e}")
    print(f"  cocycle deviation:       {wreport.cocycle:.2e} <= {tol:.0e}")
    print(f"  trivial on null sets:    {wreport.null_subset:.2e} <= {tol:.0e}")

    print("\nEvolution unitaries, one per admissible subset of times:")
    one = identity_operator(space.dimension)
    for subset in sorted(frame.admissible(), key=lambda s: (len(s), sorted(s))):
        u = evolution_unitary(weight, subset, rep)
        print(f"  U_{fmt(subset):7s} unitarity defect ||U*U - I|| = {(u.adjoint() @ u - one).norm():.2e} <= {tol:.0e}")

    print("\nWeight-zero subsets evolve trivially:")
    u_null = evolution_unitary(weight, {"3"}, rep).diag
    print(f"  U_{{3}} is the identity exactly: {np.array_equal(u_null, np.ones(12))}")

    print("\nThe group law on disjoint subsets (here disjoint up to weight zero):")
    for t1, t2 in ((frozenset({'1'}), frozenset({'2'})), (frozenset({'1', '3'}), frozenset({'2', '3'}))):
        u1, u2, u12 = (evolution_unitary(weight, s, rep) for s in (t1, t2, t1 | t2))
        dev = (u1 @ u2 - u12).norm()
        print(f"  U_{fmt(t1)} U_{fmt(t2)} = U_{fmt(t1 | t2)}  deviation {dev:.2e} <= {tol:.0e}")

    print("\n" + "=" * 72)
    print("Conjugation: the whole picture transported by one unitary")
    print("=" * 72)
    w = SplitMix64(31).haar_unitary(space.dimension)
    moved = conjugate(w, rep)
    # a conjugated unitary is the (W, diagonal) pair with no arithmetic of its
    # own: products and differences with it go through an explicit to_dense()
    u_plain = evolution_unitary(weight, space.full, rep).to_dense()
    u_moved = evolution_unitary(weight, space.full, moved).to_dense()
    dev = float(np.linalg.norm(u_moved - w.conj().T @ u_plain @ w, 2))
    print(f"U' = W* U W up to {dev:.2e}")

    ops = [evolution_unitary(weight, s, rep) for s in frame.admissible()]
    same = max((u @ v - v @ u).norm() for i, u in enumerate(ops) for v in ops[i + 1 :])
    print("\nwithin one representation all evolution unitaries commute:")
    print(f"  max same-representation commutator {same:.2e} <= {tol:.0e}")
    report = commutant_witness(weight, rep, moved)
    print("but the conjugated family need not commute with the original:")
    print(f"  largest commutator norm in [witness, witness_upper] = [{report.witness:.4f}, {report.witness_upper:.4f}]")
    print(f"  (the lower bound is certified; its pair of subsets is {report.witness_pair})")

    print("\nThe designed witness scenario makes this vivid:")
    wit = load_scenario("witness")
    wreport = commutant_witness(wit.weight, wit.representation, wit.conjugated)
    print(
        f"  diag(1,-1) against its Hadamard conjugate: commutator norm in "
        f"[{wreport.witness:.4f}, {wreport.witness_upper:.4f}]"
    )
    print("  (the largest possible for unitaries of norm one is 2)")


if __name__ == "__main__":
    main()
