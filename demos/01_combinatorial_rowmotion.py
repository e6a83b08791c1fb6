"""Rowmotion on plain sets: orbits, toggles, and homomesy.

Walks the classical story on [2]x[3]: antichain rowmotion as a
three-step composition, the same map as a product of toggles along a
linear extension, and the cardinality statistic averaging to the same
value on every orbit.
"""

from fractions import Fraction

from rowmotion import chain_product
from rowmotion.subsets import (
    all_antichains,
    antichain,
    complement,
    down_transfer,
    inverse_up_transfer,
    map_order,
    orbit_average,
    orbit_partition,
    rowmotion_antichain,
    toggle_antichain,
)


def show(p, state):
    return "{" + ", ".join(p.element_names[v] for v in sorted(state.members)) + "}"


def main():
    p = chain_product(2, 3)
    print("The poset [2]x[3]:", ", ".join(p.element_names))
    print("covers:", sorted((p.element_names[u], p.element_names[v])
                            for u, v in p.covers))
    print()

    start = antichain(p, [p.up_adjacency[0][0]])  # a middle element
    print("Start from the antichain", show(p, start))
    saturated = inverse_up_transfer(p, start)
    comp = complement(p, saturated)
    result = down_transfer(p, comp)
    print("  downward saturation :", show(p, saturated))
    print("  complement          :", show(p, comp))
    print("  minimal elements    :", show(p, result))
    print()

    print("The same map as antichain toggles, bottom of the poset upward:")
    s = start
    for v in p.default_linear_extension:
        s = toggle_antichain(p, v, s)
        print(f"  after toggling {p.element_names[v]:>5}: {show(p, s)}")
    assert s == result == rowmotion_antichain(p, start)
    print()

    orbits = orbit_partition(p, rowmotion_antichain, all_antichains(p))
    print("Orbit structure of antichain rowmotion on all",
          len(all_antichains(p)), "antichains:")
    for orb in orbits:
        chain = " -> ".join(show(p, x) for x in orb)
        print(f"  size {len(orb)}, cardinality average {orbit_average(orb)}: {chain}")
    print(f"Rowmotion has order {map_order(orbits)} = a+b.")
    print()

    print("Every orbit averages 6/5 = ab/(a+b): the cardinality statistic")
    print("is homomesic for this map.")
    assert {orbit_average(orb) for orb in orbits} == {Fraction(6, 5)}
    print("Checked on every orbit.")


if __name__ == "__main__":
    main()
