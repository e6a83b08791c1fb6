"""Graded machinery: rank toggles, rescaling laws, and gyration.

On a graded poset, same-rank toggles commute, so whole ranks can be
toggled at once.  Rescaling every rank by a scalar interacts with those
rank toggles by a clean bookkeeping rule, and toggling even ranks before
odd ones (gyration) is conjugate to rowmotion.
"""

import operator
import random
from fractions import Fraction

from rowmotion import Atom, Dynamics, MatrixRing, RationalField, detect_order, root_poset_a


def main():
    p = root_poset_a(3)
    dyn = Dynamics(p, RationalField(const_c=Fraction(2)))
    print("The type-A3 positive root poset has ranks of sizes 3 / 2 / 1.")
    g = dyn.labeling([Fraction(n) for n in (3, 5, 7, 11, 13, 17)])

    print()
    print("Rescaling ranks by (2, 4, 9):")
    scaled = dyn.graded_rescale([Fraction(2), Fraction(4), Fraction(9)], g)
    for v in range(p.n):
        print(f"  {p.element_names[v]:>6} rank {p.rank[v]}: {g[v]} -> {scaled[v]}")
    print()

    print("Toggling one rank of a rescaled labeling rescales the toggled rank")
    print("by the inverse of the product of all the scalars:")
    scalars = [Fraction(2), Fraction(4), Fraction(9)]
    total = Fraction(2 * 4 * 9)
    for i in range(p.top_rank + 1):
        rank_tau = (Atom("rank_tau", i),)
        lhs = dyn.apply_word(rank_tau, scaled)
        swapped = list(scalars)
        swapped[i] = 1 / total
        rhs = dyn.graded_rescale(swapped, dyn.apply_word(rank_tau, g))
        print(f"  rank {i}: law holds -> {lhs == rhs}")
    print()

    print("Full antichain rowmotion rotates the rescaling vector instead:")
    lhs = dyn.antichain_rowmotion(dyn.graded_rescale(scalars, g))
    rhs = dyn.graded_rescale([1 / total] + scalars[:-1], dyn.antichain_rowmotion(g))
    print("  (a0,a1,a2) -> (1/(a0*a1*a2), a0, a1):", lhs == rhs)
    print()

    print("Gyration toggles even ranks first, then odd ranks:")
    bog, bag = dyn.order_gyration_word(), dyn.antichain_gyration_word()
    print("  order word    :", " ".join(map(str, bog)))
    print("  antichain word:", " ".join(map(str, bag)))
    bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
    print("  diagram with rowmotion's bridge commutes:",
          bridge(dyn.apply_word(bag, g)) == dyn.apply_word(bog, bridge(g)))
    print()

    print("Because gyration is conjugate to rowmotion inside the toggle group,")
    print("both maps show the same orbit order at generic points:")
    rng = random.Random(6)
    h = dyn.labeling([Fraction(rng.randint(1, 30), rng.randint(1, 30))
                      for _ in range(p.n)])
    k_gyr = detect_order(lambda x: dyn.apply_word(bog, x), h, operator.eq, max_iter=30)
    k_row = detect_order(dyn.order_rowmotion, h, operator.eq, max_iter=30)
    print(f"  gyration order {k_gyr}, rowmotion order {k_row}")
    print()

    print("Noncommutatively the commutative gyration word no longer closes the")
    print("diagram; the image of order gyration under the toggle-group")
    print("isomorphism does:")
    nc = Dynamics(p, MatrixRing(2))
    gm = nc.random_labeling(9)
    bridge_nc = lambda x: nc.theta(nc.inv_up_transfer(x))
    rhs = nc.apply_word(bog, bridge_nc(gm))
    print("  plain rank word commutes :",
          bridge_nc(nc.apply_word(bag, gm)) == rhs)
    print("  starred image commutes   :",
          bridge_nc(nc.apply_word(nc.star_word(bog), gm)) == rhs)


if __name__ == "__main__":
    main()
