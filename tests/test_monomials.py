"""Monomial arithmetic and the weighted graded reverse-lex order."""
import random
from operator import add

import pytest

from semicurve.monomials import WeightedGrevlexOrder, format_monomial, weighted_degree

from oracles import grevlex_key


def test_basic_arithmetic():
    a, b = (1, 2, 0), (0, 1, 3)
    assert tuple(map(add, a, b)) == (1, 3, 3)
    assert tuple(map(add, (0, 0, 0), a)) == a
    assert weighted_degree(a, (5, 8, 11)) == 21


def test_format_monomial():
    cases = {(0, 0, 0): "1", (1, 0, 2): "x0*x2^2", (3, 1, 1): "x0^3*x1*x2", (0, 7, 0): "x1^7"}
    for m, text in cases.items():
        assert format_monomial(m) == text
    assert format_monomial((0, 0)) == "1"


def test_order_grading_dominates():
    order = WeightedGrevlexOrder((5, 8, 11, 7))
    # Higher weighted degree always wins, whatever the exponents look like.
    a, b = (0, 0, 0, 3), (1, 1, 0, 0)
    assert weighted_degree(a, order.weights) == 21 > 13 == weighted_degree(b, order.weights)
    assert order.exceeds(a, b) and not order.exceeds(b, a)


def test_order_reverse_lex_tiebreak():
    order = WeightedGrevlexOrder((5, 8, 11, 7))
    # Equal weighted degree 16: ties break by the last differing exponent,
    # smaller-late-exponent wins.
    a, b = (0, 2, 0, 0), (1, 0, 1, 0)
    assert weighted_degree(a, order.weights) == weighted_degree(b, order.weights) == 16
    assert order.exceeds(a, b)
    assert not order.exceeds(b, a)
    assert not order.exceeds(a, a)


def test_order_validates_weights():
    order = WeightedGrevlexOrder((5, 8, 11))
    for m in [(1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(ValueError, match="arity mismatch"):
            order.exceeds(m, (1, 2, 3))
        with pytest.raises(ValueError, match="arity mismatch"):
            order.exceeds((1, 2, 3), m)
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
        ab, ba = order.exceeds(a, b), order.exceeds(b, a)
        # Totality and antisymmetry: exactly one of two distinct monomials
        # exceeds the other, and no monomial exceeds itself.
        assert ab + ba == (a != b)
        # Multiplicativity: comparison survives multiplication by c.
        ac, bc = tuple(map(add, a, c)), tuple(map(add, b, c))
        assert (order.exceeds(ac, bc), order.exceeds(bc, ac)) == (ab, ba)
        # The unit monomial is minimal: a multiple of c never lies below c.
        assert not order.exceeds(c, ac)
        # Agreement with the oracle key makes exceeds transitive too.
        key = grevlex_key(order.weights)
        assert ab == (key(a) > key(b))
