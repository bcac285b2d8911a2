"""Tour 1: block-matrix algebras, functionals, and structure-preserving maps.

Run with:  python3 demos/01_algebra_tour.py

Everything here is exact, finite-dimensional linear algebra.  The star of
the show is the direct sum of full matrix blocks: its norm is the largest
block operator norm, its states are trace pairings against density blocks,
and its symmetries are block permutations composed with per-block unitary
conjugations.
"""

import numpy as np

from evogrid import (
    Automorphism,
    ElementaryTensor,
    NormalFunctional,
    SplitMix64,
    Tolerances,
    WStarAlgebra,
    compose_automorphisms,
    named_contraction,
    verify_automorphism,
    weakstar_pairing,
)

# the suites judge automorphism-law deviations at the scenario's unitary tolerance
TOL = Tolerances().unitary


def print_laws(report) -> None:
    for law in ("multiplicative", "star_preserving", "unital", "isometric"):
        dev = getattr(report, law)
        print(f"  {law:16s} deviation {dev:.2e} <= {TOL:.0e}: {dev <= TOL}")


def main() -> None:
    print("=" * 72)
    print("A two-block algebra: 2x2 matrices plus 3x3 matrices")
    print("=" * 72)
    algebra = WStarAlgebra((2, 3))
    print(f"blocks: {algebra.block_dims}, total dimension {algebra.dimension}")

    a = algebra.element([np.diag([3.0, -1.0]), np.diag([2.0, 2.0, -4.0])])
    print(f"\nan element a with diagonal blocks diag(3,-1) and diag(2,2,-4)")
    print(f"  norm(a)      = {a.norm()}   (the larger block wins: |-4| = 4)")
    print(f"  norm(a*a)    = {(a.star() @ a).norm()}   (the C*-identity squares it)")

    print("\nStates are trace pairings against density blocks.")
    rho2 = np.diag([0.75, 0.25])
    rho3 = np.eye(3) / 3.0
    state = NormalFunctional(algebra, (rho2, rho3))
    print(f"  state(a) = {state(a).real:.6f}")
    print("  (0.75*3 + 0.25*(-1) = 2.0 from the first block, 0 from the second)")

    print("\n" + "=" * 72)
    print("Symmetries: unitary conjugation block by block")
    print("=" * 72)
    rng = SplitMix64(2024)
    alpha = Automorphism.haar(algebra, rng)
    report = verify_automorphism(alpha, sample_count=8, seed=99)
    print("random conjugation automorphism, each law against its tolerance:")
    print_laws(report)

    beta = Automorphism.haar(algebra, rng)
    gamma = compose_automorphisms(alpha, beta)
    x = algebra.random_element(SplitMix64(5))
    dev = (gamma.apply(x) - alpha.apply(beta.apply(x))).norm()
    print(f"\ncomposition acts as alpha(beta(x)): deviation {dev:.2e}")

    # one array per block, with a leading stack axis: here x and x @ x
    stack = [np.stack([b, b @ b]) for b in x.blocks]
    images = alpha.apply_blocks(stack)
    same = all(np.array_equal(image[0], b) for image, b in zip(images, alpha.apply(x).blocks))
    print(f"apply_blocks maps a stack in one call: block shapes {[i.shape for i in images]}")
    print(f"  entry 0 equals alpha.apply(x) bit for bit: {same}")

    print("\nNot every unit-ball map is an automorphism.")
    trace_avg = named_contraction("trace_average", algebra)
    counterexample = verify_automorphism(trace_avg, sample_count=8, seed=0)
    print("the per-block trace-averaging map:")
    print_laws(counterexample)
    print("  (it is linear, unital, and positive, but it destroys products)")

    print("\n" + "=" * 72)
    print("Weak-star pairings: maps act on elements, functionals watch")
    print("=" * 72)
    a2 = WStarAlgebra((2,))
    flip = Automorphism.conjugation(a2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    elem = a2.element([np.diag([2.0, 3.0])])
    func = NormalFunctional(a2, (np.diag([1.0, 0.0]),))
    val = weakstar_pairing(flip, ElementaryTensor(a2, ((elem, func),)))
    print(f"  <func, flip(diag(2,3))> = {val.real}   (the flip swaps 2 and 3)")


if __name__ == "__main__":
    main()
