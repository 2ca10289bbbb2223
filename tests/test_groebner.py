"""Binomial basis verification and leading ideals, against the Fraction
division oracle.  gb_verify takes weighted-homogeneous binomials only, as
every curve basis is, so the random bases are drawn homogeneous."""
import random
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicurve.curve import Binomial, patil_singh_generators
from semicurve.groebner import Polynomial, gb_verify, leading_ideal
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import WeightedGrevlexOrder, descending
from semicurve.semigroup import CurveInstance, derive
from semicurve.survey import Bounds, enumerate_instances

from conftest import ACCEPTANCE_BOUNDS
from oracles import buchberger_complete, gb_check, grevlex_key, reduce, s_poly

W = CurveInstance.parse("5,8,11;7")
ORDER = W.order()
KEY = grevlex_key(ORDER.weights)


def _basis(curve=W):
    dp = derive(curve)
    return [Polynomial.from_binomial(b) for b in patil_singh_generators(dp, curve)]


def _dicts(basis):
    return [dict(g.terms) for g in basis]


def _fields(report):
    remainder = None if report.remainder is None else report.remainder.terms
    return (report.passed, report.pairs_checked, report.pairs_skipped_coprime,
            report.failing_pair, remainder)


def _agrees_with_oracle(basis, order):
    """All five report fields equal the Fraction oracle's; returns passed."""
    report = gb_verify(basis, order)
    assert _fields(report) == gb_check(_dicts(basis), grevlex_key(order.weights))
    return report.passed


def test_polynomial_construction_and_leading_term():
    f = Polynomial(4, {(0, 1, 1, 0): Fraction(1), (1, 0, 0, 2): Fraction(-1)})
    assert leading_ideal([f], ORDER).gens == ((0, 1, 1, 0),)
    assert Polynomial(4, {}).terms == {}
    assert Polynomial(4, {(0, 0, 0, 0): Fraction(0)}).terms == {}
    with pytest.raises(ValueError, match="arity"):
        Polynomial(4, {(0, 1, 1): 1})


def _tied_pair(weights, base, i, j):
    """Two distinct monomials of equal weighted degree: base times
    x_i^(w_j) and base times x_j^(w_i)."""
    a, b = list(base), list(base)
    a[i] += weights[j]
    b[j] += weights[i]
    return tuple(a), tuple(b)


_lead_cases = st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 9), min_size=n, max_size=n),
    st.lists(st.integers(0, 5), min_size=n, max_size=n),
    st.lists(st.integers(0, 5), min_size=n, max_size=n),
    st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_lead_cases)
def test_exceeds_matches_oracle_key_with_forced_ties(case):
    weights, base, other, i, j, tie = case
    key = grevlex_key(weights)
    if tie and i != j:
        a, b = _tied_pair(weights, base, i, j)
        assert key(a)[0] == key(b)[0]
    else:
        a, b = tuple(base), tuple(other)
    order = WeightedGrevlexOrder(tuple(weights))
    assert order.exceeds(a, b) == (key(a) > key(b))
    assert order.exceeds(b, a) == (key(b) > key(a))
    assert list(descending([a, b], weights)) == sorted([a, b], key=key, reverse=True)
    unit_key = grevlex_key((1,) * len(a))
    assert list(descending([a, b])) == sorted([a, b], key=unit_key, reverse=True)
    if a != b:
        lead = max(a, b, key=key)
        assert order.exceeds(a, b) != order.exceeds(b, a)
        assert leading_ideal([Polynomial(len(a), {a: 1, b: -1})], order).gens == (lead,)


def test_reduce_trivial_cases():
    basis = _dicts(_basis())
    assert reduce({}, basis, KEY) == {}
    for g in basis:
        assert reduce(g, [g], KEY) == {}
        assert reduce(g, basis, KEY) == {}


def test_reduce_idempotent_and_normal():
    basis = _dicts(_basis())
    f = {(2, 2, 2, 2): Fraction(3), (5, 0, 0, 0): Fraction(1)}
    r = reduce(f, basis, KEY)
    assert reduce(r, basis, KEY) == r
    leads = [max(g, key=KEY) for g in basis]
    lead_ideal = MonomialIdeal(4, leads)
    for mono in r:
        assert mono not in lead_ideal


def test_s_poly_worked_example():
    basis = _dicts(_basis())
    # First two generators: leading monomials x1*x2 and x2^2, lcm x1*x2^2;
    # the S-polynomial is x1^2*x3^2 - x0*x2*x3^2.
    s = s_poly(basis[0], basis[1], KEY)
    assert s == {(0, 2, 0, 2): Fraction(1), (1, 0, 1, 2): Fraction(-1)}
    assert reduce(s, basis, KEY) == {}
    assert s_poly(basis[0], basis[0], KEY) == {}


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
            assert report.remainder is not None and report.remainder.terms
            return
    pytest.fail("every generator was redundant")


def test_gb_verify_single_element():
    assert gb_verify(_basis()[:1], ORDER).passed


def test_gb_verify_rejects_non_binomials():
    good = _basis()[0]
    bad = [
        Polynomial(4, {(3, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 3, 0, 0): -1}),
        Polynomial(4, {(0, 1, 1, 0): 2, (1, 0, 0, 2): -2}),
        Polynomial(4, {(0, 1, 1, 0): 1, (1, 0, 0, 2): 1}),
        Polynomial(4, {(0, 1, 1, 0): 1}),
        Polynomial(4, {}),
        # x1 - x0 has weighted degrees 8 and 5 under (5, 8, 11, 7).
        Polynomial(4, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1}),
    ]
    for member in bad:
        with pytest.raises(ValueError):
            gb_verify([good, member], ORDER)


def test_gb_verify_matches_oracle_on_corpus_and_wide_sample():
    instances = enumerate_instances(ACCEPTANCE_BOUNDS)[0]
    instances += enumerate_instances(Bounds((3, 4, 5, 6), 45, 45))[0][::40]
    bases = [(_basis(curve), curve.order()) for curve in instances]
    assert all(_agrees_with_oracle(basis, order) for basis, order in bases)

    failed = 0
    for basis, order in random.Random(7).sample(bases, 40):
        for drop in range(len(basis)):
            failed += not _agrees_with_oracle(basis[:drop] + basis[drop + 1:], order)
    assert failed > 0


def _homogenized(weights, u, v):
    """u times x_i^a and v times x_j^b, with a + b least over all (i, j),
    so that both have one weighted degree.  For one (i, j), the least a
    with a*w_i >= gap and w_j dividing a*w_i - gap lies among w_j
    consecutive values when gcd(w_i, w_j) divides the gap; weights in 1..9
    with gcd g always have a pair of gcd g, which divides every gap."""
    gap = sum(map(mul, v, weights)) - sum(map(mul, u, weights))
    _, i, a, j, b = min(
        (a + b, i, a, j, b)
        for i, wi in enumerate(weights) for j, wj in enumerate(weights)
        for a in range(max(0, -(-gap // wi)), max(0, -(-gap // wi)) + wj)
        for b, rest in [divmod(a * wi - gap, wj)] if not rest)
    u, v = list(u), list(v)
    u[i] += a
    v[j] += b
    return tuple(u), tuple(v)


def _homogeneous_bases(arities, exponents, max_size):
    """(weights, pairs): each pair is two exponent lists drawn by exponents
    and made weighted-homogeneous by _homogenized."""
    return arities.flatmap(lambda n: st.lists(
        st.integers(1, 9), min_size=n, max_size=n).flatmap(lambda weights: st.tuples(
            st.just(weights),
            st.lists(st.tuples(exponents(n), exponents(n))
                     .map(lambda uv: _homogenized(weights, *uv))
                     .filter(lambda uv: uv[0] != uv[1]),
                     min_size=1, max_size=max_size))))


_binomial_bases = _homogeneous_bases(
    st.integers(2, 4), lambda n: st.lists(st.integers(0, 4), min_size=n, max_size=n), 5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_binomial_bases)
def test_gb_verify_matches_oracle_on_random_binomials(case):
    weights, pairs = case
    basis = [Polynomial.from_binomial(Binomial(tuple(u), tuple(v))) for u, v in pairs]
    _agrees_with_oracle(basis, WeightedGrevlexOrder(tuple(weights)))


_multipliers = st.one_of(st.integers(0, 2 ** 40),
                        st.integers(1, 40).flatmap(lambda k: st.sampled_from([2 ** k - 1, 2 ** k])))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_binomial_bases.flatmap(lambda case: st.tuples(st.just(case), st.lists(
    _multipliers, min_size=len(case[0]), max_size=len(case[0])))))
def test_gb_verify_matches_oracle_on_binomials_with_exponents_up_to_2_40(case):
    # Both terms of every member times one monomial M with exponents up to
    # 2^40: the reductions are those of the small basis, while the packed
    # fields hold exponents of up to 42 bits.
    (weights, pairs), big = case
    basis = [Polynomial.from_binomial(Binomial(tuple(map(add, u, big)), tuple(map(add, v, big))))
             for u, v in pairs]
    _agrees_with_oracle(basis, WeightedGrevlexOrder(tuple(weights)))


@pytest.mark.parametrize("k", [4, 8, 40])
def test_gb_verify_at_the_packing_boundary(k):
    # x1^N - x0^N and x1^c - x0^c under unit weights, c = 2^(k - 3): every
    # exponent is at most N, which fills the k bits below the guard bit
    # when N = 2^k - 1 and needs a field one bit wider when N = 2^k.  The
    # S-pair x0^c*x1^(N - c) - x0^N is rewritten by x1^c until less than c
    # of x1 is left: 7 steps to the remainder x0^(7c)*x1^(c - 1) - x0^N
    # when N = 2^k - 1, and 8 steps to zero when N = 2^k.  The first step
    # divides an x1 exponent more than half the field above the lead's.
    order = WeightedGrevlexOrder((1, 1))
    c = 2 ** (k - 3)
    for n, want in [(2 ** k - 1, (False, 1, 0, (0, 1), {(7 * c, c - 1): 1, (2 ** k - 1, 0): -1})),
                    (2 ** k, (True, 1, 0, None, None))]:
        basis = [Polynomial(2, {(0, e): 1, (e, 0): -1}) for e in (n, c)]
        assert _fields(gb_verify(basis, order)) == want
        assert _agrees_with_oracle(basis, order) == want[0]


def test_gb_verify_empty_basis():
    assert _fields(gb_verify([], ORDER)) == (True, 0, 0, None, None)


def test_gb_verify_checks_shape_then_arity_then_homogeneity():
    good = _basis()[0]
    cases = [
        (Polynomial(3, {(0, 1, 1): 2, (1, 0, 0): -2}), "binomials"),
        (Polynomial(3, {(0, 1, 1): 1, (1, 0, 0): -1}), "arity mismatch"),
        (Polynomial(5, {(0, 1, 1, 0, 0): 1, (1, 0, 0, 0, 0): -1}), "arity mismatch"),
        (Polynomial(4, {(0, 1, 0, 0): 1, (1, 0, 0, 0): -1}), "weighted-homogeneous"),
    ]
    for member, message in cases:
        with pytest.raises(ValueError, match=message):
            gb_verify([good, member], ORDER)


def _sparse_exponents(n):
    """Exponent lists of arity n with at most n // 2 nonzero entries."""
    return st.dictionaries(st.integers(0, n - 1), st.integers(1, 4), max_size=n // 2).map(
        lambda exps: [exps.get(i, 0) for i in range(n)])


_sparse_bases = _homogeneous_bases(st.integers(2, 8), _sparse_exponents, 6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_sparse_bases)
def test_gb_verify_matches_oracle_on_sparse_high_arity_binomials(case):
    # The leads of a curve basis have at most 3 nonzero exponents out of
    # 5 to 8; rewrite rules compare only the nonzero ones.  Each term has
    # at most n // 2 + 1 of them: one more may come from _homogenized.
    weights, pairs = case
    basis = [Polynomial.from_binomial(Binomial(tuple(u), tuple(v))) for u, v in pairs]
    _agrees_with_oracle(basis, WeightedGrevlexOrder(tuple(weights)))


def test_gb_verify_rewrites_with_the_first_dividing_rule():
    # Leads x2^2, x1*x2, x1^2 and x0*x1 under (1, 1, 1).  The S-pair of the
    # first two reaches x0*x1^2, which both x1^2 - x0*x2 and x0*x1 - x0^2
    # divide: with x1^2 first it reduces to zero and the pair (1, 3) fails,
    # with x0*x1 first the pair (0, 1) fails at once.
    order = WeightedGrevlexOrder((1, 1, 1))
    f, g, h1, h2 = (Polynomial(3, {u: 1, v: -1}) for u, v in [
        ((0, 0, 2), (1, 1, 0)), ((0, 1, 1), (2, 0, 0)),
        ((0, 2, 0), (1, 0, 1)), ((1, 1, 0), (2, 0, 0))])
    remainder = {(2, 0, 1): 1, (3, 0, 0): -1}
    assert _fields(gb_verify([f, g, h1, h2], order)) == (False, 3, 2, (1, 3), remainder)
    assert _fields(gb_verify([f, g, h2, h1], order)) == (False, 1, 0, (0, 1), remainder)
    assert not _agrees_with_oracle([f, g, h1, h2], order)
    assert not _agrees_with_oracle([f, g, h2, h1], order)


def test_gb_verify_pair_counts_at_p20():
    # 25, 26, ..., 45; 47: 228 binomials in 22 variables.
    curve = CurveInstance.parse(",".join(map(str, range(25, 46))) + ";47")
    report = gb_verify(_basis(curve), curve.order())
    assert _fields(report) == (True, 4292, 21586, None, None)


def test_gb_verify_pair_counts_at_p40():
    # 45, 46, ..., 85; 87: 858 binomials in 42 variables, so 42 fields per
    # packed monomial.
    curve = CurveInstance.parse(",".join(map(str, range(45, 86))) + ";87")
    report = gb_verify(_basis(curve), curve.order())
    assert _fields(report) == (True, 33382, 334271, None, None)


def test_leading_ideal_and_scalar_invariance():
    # The leads of +-(u - v) do not depend on the sign; any other scalar
    # leaves the binomial domain and is rejected.
    basis = _basis()
    want = MonomialIdeal(4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
                            (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 3)])
    assert leading_ideal(basis, ORDER) == want
    negated = [Polynomial(4, {m: -c for m, c in g.terms.items()}) for g in basis]
    assert leading_ideal(negated, ORDER) == want
    assert _fields(gb_verify(negated, ORDER)) == _fields(gb_verify(basis, ORDER))
    scaled = [Polynomial(4, {m: 7 * c for m, c in g.terms.items()}) for g in basis]
    with pytest.raises(ValueError):
        leading_ideal(scaled, ORDER)


def test_buchberger_completion_adds_nothing():
    for text in ("5,8,11;7", "7,8,9;11", "4,7;9"):
        curve = CurveInstance.parse(text)
        basis = _basis(curve)
        completed = buchberger_complete(_dicts(basis), grevlex_key(curve.order().weights))
        completed = [Polynomial(curve.arity, g) for g in completed]
        assert leading_ideal(completed, curve.order()) == leading_ideal(basis, curve.order())
