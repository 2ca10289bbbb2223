"""Division, S-pairs, basis verification, and leading ideals."""
from fractions import Fraction

import pytest

from semicurve.curve import patil_singh_generators
from semicurve.errors import InternalCheckError
from semicurve.groebner import (
    Polynomial,
    buchberger_complete,
    gb_verify,
    leading_ideal,
    reduce,
    s_poly,
)
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import WeightedGrevlexOrder
from semicurve.semigroup import CurveInstance, derive

W = CurveInstance.parse("5,8,11;7")
ORDER = W.order()


def _basis(curve=W):
    dp = derive(curve)
    return [Polynomial.from_binomial(b) for b in patil_singh_generators(dp, curve)]


def test_polynomial_construction_and_leading_term():
    f = Polynomial(4, {(0, 1, 1, 0): Fraction(1), (1, 0, 0, 2): Fraction(-1)})
    mono, coef = f.leading(ORDER)
    assert mono == (0, 1, 1, 0) and coef == 1
    assert Polynomial(4, {}).is_zero
    assert Polynomial(4, {(0, 0, 0, 0): Fraction(0)}).is_zero


def test_reduce_trivial_cases():
    basis = _basis()
    assert reduce(Polynomial(4, {}), basis, ORDER).is_zero
    for g in basis:
        assert reduce(g, [g], ORDER).is_zero
        assert reduce(g, basis, ORDER).is_zero


def test_reduce_idempotent_and_normal():
    basis = _basis()
    f = Polynomial(4, {(2, 2, 2, 2): Fraction(3), (5, 0, 0, 0): Fraction(1)})
    r = reduce(f, basis, ORDER)
    assert reduce(r, basis, ORDER) == r
    leads = [g.leading(ORDER)[0] for g in basis]
    lead_ideal = MonomialIdeal(4, leads)
    for mono in r.terms:
        assert mono not in lead_ideal


def test_s_poly_worked_example():
    basis = _basis()
    # First two generators: leading monomials x1*x2 and x2^2, lcm x1*x2^2;
    # the S-polynomial is x1^2*x3^2 - x0*x2*x3^2.
    s = s_poly(basis[0], basis[1], ORDER)
    assert s == Polynomial(4, {(0, 2, 0, 2): Fraction(1), (1, 0, 1, 2): Fraction(-1)})
    assert reduce(s, basis, ORDER).is_zero
    assert s_poly(basis[0], basis[0], ORDER).is_zero


def test_gb_verify_passes_on_worked_instance():
    report = gb_verify(_basis(), ORDER, max_terms=2)
    assert report.passed and report.failing_pair is None
    assert report.pairs_checked + report.pairs_skipped_coprime == 15


def test_gb_verify_fails_when_generator_dropped():
    basis = _basis()
    # Dropping one generator leaves an S-pair with a nonzero normal form.
    for drop in range(len(basis)):
        reduced_basis = basis[:drop] + basis[drop + 1:]
        report = gb_verify(reduced_basis, ORDER)
        if not report.passed:
            assert report.failing_pair is not None
            assert report.remainder is not None and not report.remainder.is_zero
            return
    pytest.fail("every generator was redundant")


def test_gb_verify_single_element():
    assert gb_verify(_basis()[:1], ORDER).passed


def test_max_terms_watchdog():
    order = WeightedGrevlexOrder((1, 1))
    f = Polynomial(2, {(3, 0): Fraction(1), (1, 1): Fraction(1), (0, 3): Fraction(1)})
    with pytest.raises(InternalCheckError):
        reduce(f, [Polynomial(2, {(1, 1): Fraction(1), (2, 0): Fraction(1)})],
               order, max_terms=2)


def test_leading_ideal_and_scalar_invariance():
    basis = _basis()
    want = MonomialIdeal(4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
                            (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 3)])
    assert leading_ideal(basis, ORDER) == want
    scaled = [Polynomial(4, {m: 7 * c for m, c in g.terms.items()}) for g in basis]
    assert leading_ideal(scaled, ORDER) == want


def test_buchberger_completion_adds_nothing():
    for text in ("5,8,11;7", "7,8,9;11", "4,7;9"):
        curve = CurveInstance.parse(text)
        basis = _basis(curve)
        completed = buchberger_complete(basis, curve.order())
        assert leading_ideal(completed, curve.order()) == leading_ideal(basis, curve.order())
