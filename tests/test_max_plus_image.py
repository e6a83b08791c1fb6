"""The integer max-plus image against the tropical semiring on Fractions.

Tropical orbits and the PL maps run on the image x ↦ L·x of their labels,
L the least common denominator of the labels and C.  The oracle here runs
every ``Dynamics`` map and every toggle-atom kind twice, over
``TropicalSemiring`` on the Fractions and over the image mapped back, and
requires the same labels, each a ``Fraction`` in lowest terms.
"""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from rowmotion import harness, polytopes
from rowmotion.backends import (
    TropicalSemiring,
    _from_max_plus_image,
    _IntegralMaxPlus,
    _to_max_plus_image,
)
from rowmotion.dynamics import MAX_LABEL_BITS, Atom, Dynamics, detect_order
from rowmotion.errors import LabelsTooLarge
from rowmotion.poset import chain_product, random_graded_poset, random_poset

F = Fraction

# Seeded random posets with three lower and three upper covers at some element;
# only the graded one takes rank atoms.
POSETS = {"random 9 4": random_poset(9, 4), "random 12 3": random_poset(12, 3),
          "graded 5": random_graded_poset(5)}
CONSTANTS = (F(1), F(0), F(-2), F(7, 3))


def _labelings(p, seed):
    """Mixed signs, zeros, ints and denominators up to 10**30; all ints; all zeros."""
    rng = random.Random(seed)

    def value():
        kind = rng.randrange(4)
        if kind == 0:
            return F(0)
        if kind == 1:
            return F(rng.randint(-9, 9))
        if kind == 2:
            return F(rng.randint(-10, 10), rng.randint(1, 10))
        return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
    return [tuple(value() for _ in range(p.n)),
            tuple(F(rng.randint(-5, 5)) for _ in range(p.n)),
            (F(0),) * p.n]


def _second_extension(p):
    """The linear extension that always takes the largest minimal index left."""
    below = [len(p.down_adjacency[v]) for v in range(p.n)]
    ready, out = [v for v in range(p.n) if not below[v]], []
    while ready:
        v = max(ready)
        ready.remove(v)
        out.append(v)
        for w in p.up_adjacency[v]:
            below[w] -= 1
            if not below[w]:
                ready.append(w)
    return tuple(out)


def _runs(p):
    """(name, run) for every Dynamics map and every atom kind; run(dyn, f)."""
    runs = [(name, lambda dyn, f, name=name: getattr(dyn, name)(f)) for name in (
        "theta", "down_transfer", "up_transfer", "inv_down_transfer", "inv_up_transfer",
        "order_rowmotion", "antichain_rowmotion", "order_rowmotion_via_transfers",
        "antichain_rowmotion_via_transfers")]
    second = _second_extension(p)
    runs += [("order_rowmotion along a second extension",
              lambda dyn, f: dyn.order_rowmotion(f, extension=second)),
             ("antichain_rowmotion along a second extension",
              lambda dyn, f: dyn.antichain_rowmotion(f, extension=second))]
    atoms = [Atom(kind, v) for v in range(p.n) for kind in ("T", "E", "tau", "eps")]
    if p.is_graded:
        atoms += [Atom(kind, i) for i in range(p.top_rank + 1) for kind in ("rank_T", "rank_tau")]
    runs += [(str(atom), lambda dyn, f, atom=atom: dyn.apply_word((atom,), f)) for atom in atoms]
    word = tuple(atoms[::3])
    runs.append(("a mixed word", lambda dyn, f: dyn.apply_word(word, f)))
    return runs


def _on_image(p, c, run, f, to_image=_to_max_plus_image):
    backend, image, scale = to_image(f, c)
    return _from_max_plus_image(run(Dynamics(p, backend), image), scale)


def _mismatches(to_image=_to_max_plus_image, first_only=False):
    """The (poset, C, map) cases where the image mapped back differs from the
    Fraction run, or gives a value that is not a Fraction in lowest terms."""
    found = []
    for i, (pname, p) in enumerate(POSETS.items()):
        runs = _runs(p)
        for j, c in enumerate(CONSTANTS):
            tropical = Dynamics(p, TropicalSemiring(c))
            for k, f in enumerate(_labelings(p, 10 * i + j)):
                for name, run in runs:
                    want, got = run(tropical, f), _on_image(p, c, run, f, to_image)
                    if got != want or not all(
                            type(x) is Fraction and x.denominator > 0
                            and gcd(x.numerator, x.denominator) == 1 for x in got):
                        found.append((pname, str(c), k, name))
                        if first_only:
                            return found
    return found


def test_every_map_on_the_image_equals_the_fraction_map():
    assert _mismatches() == []


def test_the_oracle_catches_an_unscaled_constant():
    def unscaled_c(values, const_c):
        _, image, scale = _to_max_plus_image(values, const_c)
        return _IntegralMaxPlus(const_c.numerator), image, scale
    assert _mismatches(unscaled_c, first_only=True)


def test_image_conversions_round_trip_exactly():
    for values, c in [((F(1, 2), F(-1, 3), F(0), F(7)), F(1)),
                      ((F(3, 10**30), F(-2, 10**30 + 1)), F(7, 3)),
                      ((1, 0, -4), F(-2)), ((), F(5, 6))]:
        backend, image, scale = _to_max_plus_image(values, c)
        assert all(type(x) is int for x in image) and scale >= 1
        assert backend.constant_c() == c * scale and backend.one() == 0
        back = _from_max_plus_image(image, scale)
        assert back == tuple(F(v) for v in values)
        assert all(type(x) is Fraction for x in back)
    assert _to_max_plus_image((F(1, 2), F(1, 3)), F(1, 4))[2] == 12


class FractionTropical(TropicalSemiring):
    """Runs orbits on Fractions: the harness picks the image by exact type."""


def test_orbit_reports_match_the_fraction_orbit():
    cases = [(chain_product(3, 3), F(1)), (chain_product(2, 4), F(-2)),
             (POSETS["random 12 3"], F(7, 3)), (POSETS["graded 5"], F(0))]
    for p, c in cases:
        for map_id in ("bar", "bor"):
            for seed in range(3):
                image = harness.labeling_orbit_report(p, TropicalSemiring(c), map_id, seed)
                fraction = harness.labeling_orbit_report(p, FractionTropical(c), map_id, seed)
                assert image.to_dict() == fraction.to_dict()


@pytest.mark.parametrize("exponent,iterates", [(2465, None), (2466, 1), (4300, 1)])
def test_label_size_stop_fires_at_the_same_step_on_the_image(exponent, iterates):
    # On chain 2x2 from seed 1, C = 10^-2465 keeps every label within MAX_LABEL_BITS
    # and C = 10^-2466 does not, on the Fractions and on the image alike.
    p, c = chain_product(2, 2), F(1, 10**exponent)
    for map_id in ("bar", "bor"):
        reports = [harness.labeling_orbit_report(p, b, map_id, 1).to_dict()
                   for b in (TropicalSemiring(c), FractionTropical(c))]
        assert reports[0] == reports[1]
        assert reports[0]["order"] == (4 if iterates is None else "exceeded")
        assert reports[0]["iterates"] == (iterates or 4)


def test_detect_order_measures_image_labels_as_their_fractions():
    scale = 2**(MAX_LABEL_BITS // 2)
    # X/L = 2^(MAX_LABEL_BITS - 2) has MAX_LABEL_BITS bits in lowest terms, though
    # bits(X) + bits(L) passes the limit; an odd X/L needs bits(X) + bits(L), one too many.
    x_in = 2**(MAX_LABEL_BITS - 2) * scale
    x_out = 2**(MAX_LABEL_BITS - scale.bit_length() + 1) + 1
    assert x_in.bit_length() + scale.bit_length() > MAX_LABEL_BITS
    assert detect_order(lambda f: f, (x_in,), operator.eq, denominator=scale) == 1
    assert detect_order(lambda f: f, (F(x_in, scale),), operator.eq) == 1
    for start in ((x_out,), (F(x_out, scale),)):
        with pytest.raises(LabelsTooLarge) as exc:
            detect_order(lambda f: f, start, operator.eq,
                         denominator=scale if type(start[0]) is int else 1)
        assert exc.value.iterates == 1


def test_pl_maps_return_reduced_fractions_for_int_labels():
    p = chain_product(2, 2)
    for step, f in (("order_rowmotion", (0, 0, 1, 1)), ("antichain_rowmotion", (0, 1, 0, 0)),
                    ((Atom("T", 1),), (0, 1, 1, 1))):
        out = polytopes.pl_apply(p, step, f)
        assert all(type(x) is Fraction for x in out)
