"""Birational antichain rowmotion on [2]x[3]: exact periodicity.

Labels the poset with exact rationals, iterates the antichain rowmotion
built from chain-product toggles, and watches the labeling return to
itself after exactly a+b = 5 steps.  Also demonstrates the three-map
factorization through complement and the two inverse transfer maps.
"""

from fractions import Fraction

from rowmotion import Dynamics, RationalField, chain_product


def show(dyn, g):
    names = dyn.poset.element_names
    return "  ".join(f"{names[v]}={g[v]}" for v in range(dyn.poset.n))


def main():
    p = chain_product(2, 3)
    dyn = Dynamics(p, RationalField(const_c=Fraction(2)))

    g = dyn.labeling([Fraction(n) for n in (3, 5, 7, 11, 13, 17)])
    print("Generic rational labeling of [2]x[3], with central constant C = 2:")
    print(" ", show(dyn, g))
    print()

    print("One toggle at the bottom element divides C by the sum over the")
    print("three maximal chains of the product of their labels:")
    t = dyn.antichain_toggle(0, g)
    print(f"  label at (1,1): {g[0]} -> {t[0]}")
    print()

    print("Iterating full antichain rowmotion:")
    cur = g
    for k in range(1, 6):
        cur = dyn.antichain_rowmotion(cur)
        print(f"  step {k}: {show(dyn, cur)}")
        if cur == g:
            print(f"  ... returned to the start: the order is exactly {k} = 2+3.")
    print()

    print("The same map factors through the transfer maps:")
    via = dyn.down_transfer(dyn.theta(dyn.inv_up_transfer(g)))
    assert via == dyn.antichain_rowmotion(g)
    print("  down-transfer(complement(inverse-up-transfer(g))) equals one")
    print("  full sweep of toggles, exactly, at this labeling.")
    print()

    print("And order rowmotion is its conjugate under down-transfer:")
    lhs = dyn.down_transfer(dyn.order_rowmotion(g))
    rhs = dyn.antichain_rowmotion(dyn.down_transfer(g))
    assert lhs == rhs
    print("  down-transfer o order-rowmotion = antichain-rowmotion o down-transfer.")


if __name__ == "__main__":
    main()
