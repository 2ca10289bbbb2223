"""Monomial-ideal arithmetic against hand values and brute-force oracles."""
import random

import pytest

from semicurve.ideals import MonomialIdeal
from semicurve.ratliff_rush import PowerCache

from oracles import in_ideal, intersect, monomials_upto, radical


def _ideal(gens, arity=None):
    arity = arity if arity is not None else len(gens[0])
    return MonomialIdeal(arity, gens)


def test_minimal_generators_canonical():
    ideal = _ideal([(2, 0), (0, 2), (2, 1), (2, 0)])
    assert set(ideal.gens) == {(2, 0), (0, 2)}
    assert ideal == _ideal([(0, 2), (2, 0)])
    assert hash(ideal) == hash(_ideal([(0, 2), (2, 0)]))


def test_minimalize_idempotent_and_order_free():
    gens = [(1, 2, 0), (0, 1, 1), (1, 3, 0), (2, 2, 2)]
    once = MonomialIdeal(3, gens)
    assert MonomialIdeal(3, once.gens) == once
    rng = random.Random(3)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert MonomialIdeal(3, shuffled) == once


def test_zero_and_unit():
    zero = MonomialIdeal(2, [])
    one = MonomialIdeal(2, [(0,) * 2])
    assert zero.is_zero and not zero.is_unit
    assert one.is_unit and not one.is_zero
    assert (1, 5) in one and (1, 5) not in zero
    ideal = _ideal([(1, 1)])
    assert ideal.product(zero).is_zero
    assert ideal.product(one) == ideal
    assert zero.is_subset_of(ideal) and ideal.is_subset_of(one)


def test_membership():
    ideal = _ideal([(2, 0), (0, 3)])
    assert (2, 1) in ideal and (0, 3) in ideal
    assert (1, 2) not in ideal and (0, 0) not in ideal
    with pytest.raises(ValueError):
        (1, 2, 3) in ideal
    for bad in ([(1,)], [(1, -1)]):
        with pytest.raises(ValueError):
            MonomialIdeal(2, bad)


def test_product_power_colon_intersect_hand_values():
    i = _ideal([(2, 0), (0, 2)])
    j = _ideal([(1, 1)])
    assert i.product(j) == _ideal([(3, 1), (1, 3)])
    assert _ideal(PowerCache(i).get(2)) == _ideal([(4, 0), (2, 2), (0, 4)])
    assert i.colon(j) == _ideal([(1, 0), (0, 1)])
    assert _ideal(intersect(i.gens, j.gens)) == _ideal([(2, 1), (1, 2)])
    assert _ideal(radical(i.gens)) == _ideal([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        i.product(_ideal([(1, 1, 1)]))


def test_colon_by_zero_and_unit():
    i = _ideal([(2, 0)])
    with pytest.raises(ValueError):
        i.colon(MonomialIdeal(2, []))
    assert i.colon(MonomialIdeal(2, [(0,) * 2])) == i


def test_from_json():
    ideal = MonomialIdeal.from_json('{"arity": 3, "gens": [[2, 0, 1], [0, 3, 0]]}')
    assert ideal == _ideal([(2, 0, 1), (0, 3, 0)]) and ideal.arity == 3
    with pytest.raises(ValueError):
        MonomialIdeal.from_json("not json")
    with pytest.raises(ValueError):
        MonomialIdeal.from_json('{"arity": 2, "gens": [[1, -2]]}')


def test_membership_against_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(30):
        arity = rng.randrange(1, 4)
        gens = [tuple(rng.randrange(4) for _ in range(arity))
                for _ in range(rng.randrange(1, 5))]
        if all(any(e for e in g) for g in gens):
            ideal = MonomialIdeal(arity, gens)
            for m in monomials_upto(arity, 6):
                assert (m in ideal) == in_ideal(m, gens)


def test_ideal_identities_sampled():
    rng = random.Random(12)
    for _ in range(150):
        arity = rng.randrange(1, 4)
        def rand_ideal():
            gens = [tuple(rng.randrange(5) for _ in range(arity))
                    for _ in range(rng.randrange(1, 5))]
            return MonomialIdeal(arity, [g for g in gens if any(g)] or [(1,) * arity])
        i, j = rand_ideal(), rand_ideal()
        assert i.colon(j).product(j).is_subset_of(i)
        prod = i.product(j)
        meet = _ideal(intersect(i.gens, j.gens), arity)
        assert prod.is_subset_of(meet)
        assert meet.is_subset_of(i) and meet.is_subset_of(j)
        assert i.is_subset_of(_ideal(radical(i.gens), arity))


def test_ideal_equal_across_weightings():
    a = MonomialIdeal(2, [(1, 0)], weights=(3, 4))
    b = MonomialIdeal(2, [(1, 0)], weights=(7, 2))
    assert a == b
    assert a != MonomialIdeal(2, [(0, 1)])
    assert a != MonomialIdeal(3, [(1, 0, 0)])
