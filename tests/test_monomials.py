"""Monomial arithmetic and the weighted graded reverse-lex order."""
import random

import pytest

from semicurve.monomials import (
    WeightedGrevlexOrder,
    format_monomial,
    mono_mul,
    parse_monomial,
    unit,
    weighted_degree,
)


def test_basic_arithmetic():
    a, b = (1, 2, 0), (0, 1, 3)
    assert mono_mul(a, b) == (1, 3, 3)
    assert mono_mul(unit(3), a) == a
    assert weighted_degree(a, (5, 8, 11)) == 21


def test_format_parse_roundtrip():
    cases = [(0, 0, 0), (1, 0, 2), (3, 1, 1), (0, 7, 0)]
    for m in cases:
        assert parse_monomial(format_monomial(m), 3) == m
    assert format_monomial((0, 0)) == "1"
    assert parse_monomial("x1^2*x0", 3) == (1, 2, 0)
    with pytest.raises(ValueError):
        parse_monomial("x9", 3)
    with pytest.raises(ValueError):
        parse_monomial("y1", 2)


def test_order_grading_dominates():
    order = WeightedGrevlexOrder((5, 8, 11, 7))
    # Higher weighted degree always wins, whatever the exponents look like.
    assert order.key((0, 0, 0, 3)) > order.key((1, 1, 0, 0))
    assert order.key((0, 0, 0, 3))[0] == 21 > 13 == order.key((1, 1, 0, 0))[0]


def test_order_reverse_lex_tiebreak():
    order = WeightedGrevlexOrder((5, 8, 11, 7))
    # Equal weighted degree 16: ties break by the last differing exponent,
    # smaller-late-exponent wins.
    a, b = (0, 2, 0, 0), (1, 0, 1, 0)
    assert order.key(a)[0] == order.key(b)[0] == 16
    assert order.key(a) > order.key(b)
    assert order.key(b) < order.key(a)
    assert order.key(a) == order.key(a)


def test_order_validates_weights():
    order = WeightedGrevlexOrder((5, 8, 11))
    for m in [(1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(ValueError, match="arity mismatch"):
            order.key(m)
        with pytest.raises(ValueError, match="arity mismatch"):
            order.exceeds(m, (1, 2, 3))
    with pytest.raises(ValueError):
        WeightedGrevlexOrder((5, 0, 3))
    with pytest.raises(ValueError):
        WeightedGrevlexOrder(())


def test_order_axioms_sampled():
    rng = random.Random(1)
    for _ in range(500):
        arity = rng.randrange(1, 6)
        order = WeightedGrevlexOrder(tuple(rng.randrange(1, 30) for _ in range(arity)))
        a, b, c = (tuple(rng.randrange(6) for _ in range(arity)) for _ in range(3))
        ka, kb = order.key(a), order.key(b)
        # Totality and antisymmetry: distinct monomials get distinct keys.
        assert (ka == kb) == (a == b)
        assert (ka < kb) == (kb > ka)
        # Multiplicativity: comparison survives multiplication by c.
        kac, kbc = order.key(mono_mul(a, c)), order.key(mono_mul(b, c))
        assert (kac < kbc, kac == kbc) == (ka < kb, ka == kb)
        # The unit monomial is minimal among its divisors' products.
        assert kac >= order.key(c)
