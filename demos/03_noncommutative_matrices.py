"""The noncommutative realm, evaluated on exact rational matrices.

Toggles stop being involutions once labels stop commuting, yet the
whole structure survives: elggots invert toggles, rowmotion still
factors through the transfer maps, the antichain and order toggle
groups are still isomorphic, and the period on [2]x[3] is still 5.
"""

import operator

from rowmotion import Atom, Dynamics, MatrixRing, chain_product, detect_order


def main():
    p = chain_product(2, 3)
    backend = MatrixRing(2)
    dyn = Dynamics(p, backend)
    g = dyn.random_labeling(seed=2024)
    print("Labels are generic 2x2 rational matrices; C is the scalar matrix 2I.")
    print()

    v = 3  # the rank-2 element (2,2)
    tog = dyn.antichain_toggle(v, g)
    print("A toggle applied twice no longer returns the labeling:")
    print("  tau_v(tau_v(g)) == g ?", dyn.antichain_toggle(v, tog) == g)
    print("but its elggot does:")
    print("  eps_v(tau_v(g)) == g ?", dyn.antichain_elggot(v, tog) == g)
    print()

    print("Noncommutative rowmotion still factors through the transfer maps:")
    print("  antichain side:", (dyn.antichain_rowmotion(g)
                                == dyn.antichain_rowmotion_via_transfers(g)))
    print("  order side    :", (dyn.order_rowmotion(g)
                                == dyn.order_rowmotion_via_transfers(g)))
    print()

    print("The toggle-group isomorphism survives: conjugating the antichain")
    print("toggle word by the lower-cover elggots mimics an order toggle")
    print("across the complement-of-inverse-up-transfer bridge.")
    bridge = lambda h: dyn.theta(dyn.inv_up_transfer(h))
    ok = all(
        (bridge(dyn.apply_word(dyn.star_word((Atom("T", x),)), g))
         == dyn.order_toggle(x, bridge(g)))
        for x in range(p.n))
    print("  diagram commutes at every element:", ok)
    print()

    print("Observed orders from", 3, "seeds (matrix dimensions 2 and 3):")
    for d in (2, 3):
        dd = Dynamics(p, MatrixRing(d))
        for seed in range(3):
            h = dd.random_labeling(seed)
            nar = detect_order(dd.antichain_rowmotion, h, operator.eq, max_iter=8)
            nor = detect_order(dd.order_rowmotion, h, operator.eq, max_iter=8)
            print(f"  d={d} seed={seed}: antichain order {nar}, order-side order {nor}")
    print()
    print("Both maps keep the conjectured order a+b = 5 on [2]x[3]; this is")
    print("numerical evidence for the conjectured period, not a proof.")


if __name__ == "__main__":
    main()
