"""Tour 2: grid evolution spaces and their projection-valued measures.

Run with:  python3 demos/02_measure_tour.py

A finite set of labelled times, each carrying a finite grid of unit-ball
maps on the algebra, generates a product space of "paths": one grid choice
per time.  Functions on those paths become diagonal operators on a vector
space with one axis per full path, and each admissible subset of times
carries a projection-valued measure whose atoms are the fibers of the
restriction map.
"""

import numpy as np

from evogrid import (
    SplitMix64,
    integrate,
    load_scenario,
    matrix_element,
    projection_rank,
    pullback,
    pushforward,
)


def fmt_subset(subset) -> str:
    return "{" + ",".join(sorted(subset)) + "}" if subset else "{}"


def main() -> None:
    scn = load_scenario("demo")
    space = scn.space
    frame = scn.frame
    rep = scn.representation

    print("=" * 72)
    print("The demo space: three times with grid sizes 2, 3, 2")
    print("=" * 72)
    print(f"times and weights: {dict(zip(frame.times, frame.weights))}")
    sizes = [space.grid_size(t) for t in frame.times]
    print(f"grid sizes: {sizes}  ->  {space.dimension} full paths")

    print("\nA path is named by one integer, its mixed-radix index;")
    print("earliest time is most significant, and np.unravel_index gives the choices.")
    shape = space.full_shape()
    for index in (0, 5, 10, 11):
        choices = tuple(int(d) for d in np.unravel_index(index, shape))
        print(f"  index {index:2d}  <->  choices {choices}")

    print("\nRestriction forgets the times outside a subset, one table per subset:")
    sub = frozenset({"1", "3"})
    restricted = int(space.restricted_index_array(sub)[10])
    choices = tuple(int(d) for d in np.unravel_index(restricted, space.shape(sub)))
    print(f"  path 10 restricted to {fmt_subset(sub)} is partial path {restricted}, choices {choices}")

    print("\n" + "=" * 72)
    print("Projection-valued measures: one projection per set of partial paths")
    print("=" * 72)
    measure = rep.spectral_measure(sub)
    k = measure.npoints
    print(f"subset {fmt_subset(sub)} has {k} partial paths, so {2 ** k} measurable sets")
    print(f"  E(empty set) norm:   {measure.empty().norm()}")
    print(f"  E(everything) diag:  all ones -> {np.array_equal(measure.total().diag, np.ones(12))}")
    atom = measure.atom(0)
    print(f"  one atom has rank {projection_rank(atom)}: the fiber over a partial path")
    print("    (3 middle-time choices are forgotten, so 3 full paths sit above it)")

    p12 = measure.projection([0, 1])
    p13 = measure.projection([0, 2])
    inter = measure.projection([0])
    dev = float(np.max(np.abs((p12 @ p13).diag - inter.diag)))
    print(f"  E(V1)E(V2) = E(V1 n V2) holds exactly: deviation {dev}")

    print("\nPushing a measure forward along restriction:")
    full_measure = rep.spectral_measure()
    pushed = pushforward(full_measure, sub)
    same = np.array_equal(pushed.projection([0]).diag, measure.projection([0]).diag)
    print(f"  pushforward of the full-path measure matches the direct one: {same}")

    print("\n" + "=" * 72)
    print("Functions on partial paths become diagonal operators")
    print("=" * 72)
    rng = SplitMix64(7)
    f = space.random_function(sub, rng)
    via_sum = integrate(f, measure)
    via_pullback = rep.represent(pullback(f))
    print("two routes to the same operator:")
    print("  1) sum f(path) * atom(path) over partial paths")
    print("  2) pull f back to full paths, then place values on the diagonal")
    print(f"  identical arrays: {np.array_equal(via_sum.diag, via_pullback.diag)}")
    print(f"  operator norm equals sup |f|: {via_sum.norm() == f.sup_norm()}")

    in_set = int(space.restricted_index_array(sub)[3])
    amp = matrix_element(measure, 3, 3, [in_set])
    print(f"  <path 3, E({{its own restriction}}) path 3> = {amp.real:.1f} (and 0 for any disjoint set)")

    print("\nDistinct sets always get distinct projections (injectivity):")
    images = set()
    for bits in range(2 ** k):
        members = [b for b in range(k) if (bits >> b) & 1]
        images.add(measure.projection(members).diag.tobytes())
    print(f"  {len(images)} distinct projections for {2 ** k} sets")


if __name__ == "__main__":
    main()
