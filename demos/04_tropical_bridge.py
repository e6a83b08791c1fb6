"""Detropicalization: one calculus, three readings.

The same generic toggle code runs over three backends.  On the tropical
backend (add = max, multiply = +, C = 1) every operation coincides with
the piecewise-linear maps on Stanley's order and chain polytopes; on 0/1
indicator labelings those in turn reduce to the set maps.
"""

from fractions import Fraction

from rowmotion import Dynamics, TropicalSemiring, chain_product
from rowmotion import polytopes as pl
from rowmotion.subsets import all_antichains, toggle_antichain


def main():
    p = chain_product(2, 3)
    dyn = Dynamics(p, TropicalSemiring())

    g = pl.random_chain_polytope_point(p, seed=5)
    print("A rational point of the chain polytope of [2]x[3]:")
    print("  ", [str(x) for x in g])
    print()

    print("Running the generic antichain rowmotion on the tropical backend")
    print("reproduces the piecewise-linear chain-polytope rowmotion exactly:")
    lhs = dyn.antichain_rowmotion(dyn.labeling(g))
    rhs = pl.pl_antichain_rowmotion(p, g)
    print("  equal:", lhs == rhs)
    print()

    print("Iterating the piecewise-linear map returns after a+b = 5 steps:")
    cur = g
    for k in range(1, 6):
        cur = pl.pl_antichain_rowmotion(p, cur)
    print("  back to the start:", cur == g)
    print()

    print("Restricted to 0/1 labelings, the piecewise-linear toggle is the")
    print("plain antichain toggle.  Checked over every antichain and element:")
    ok = all(
        pl.pl_antichain_toggle(p, v, pl.indicator(p, s.members))
        == pl.indicator(p, toggle_antichain(p, v, s).members)
        for s in all_antichains(p) for v in range(p.n))
    print("  equal:", ok)
    print()

    print("So one identity proved birationally without subtraction specializes")
    print("down the whole ladder: matrices -> rationals -> max-plus -> sets.")
    half = dyn.labeling([Fraction(1, 2)] * p.n)
    print("  e.g. toggling twice at any element fixes any tropical labeling:",
          all(dyn.antichain_toggle(v, dyn.antichain_toggle(v, half)) == half
              for v in range(p.n)))


if __name__ == "__main__":
    main()
