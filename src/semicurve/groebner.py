"""Binomial S-pair check and leading ideals.

Verifies that the binomial generators of a curve form a Groebner basis
under a weighted grevlex order: every S-pair must reduce to zero.  Each
basis member is a binomial u - v with coefficients +1 and -1 whose terms
have one weighted degree, as every generator of the kernel of
x_i -> t^(m_i) has for the weights m_i.  Its S-pairs are again differences
of two monomials of one degree, and dividing one by a basis member
rewrites a single monomial within its degree (Sturmfels, Groebner Bases
and Convex Polytopes, AMS ULS 8, 1996, ch. 4).  The working polynomial is
therefore a pair of monomials of one degree, so the larger one is the
smaller exponent tuple and no degree is carried: it is always rewritten
with the first basis member whose leading monomial divides it, so normal
forms are deterministic, and the pair reduces to zero when both sides meet.

A lead has few nonzero exponents (at most 3 on every curve basis of the
acceptance corpus and of p = 3..6 with m <= 45), so each rule keeps its
lead in support form, the (index, exponent) pairs with a nonzero
exponent, and the first dividing rule is found by the kernels' support
scan, which compares only those.  The bit mask of a lead's support
indices decides the product criterion: two leads are coprime iff their
masks share no bit.

Polynomial is the exact container the check reads its basis from and
reports a remainder in; general division over the rationals is not needed
here (the test oracles keep it).  The lead of a member, in the check and
in leading_ideal, comes from one comparison of its two terms
(WeightedGrevlexOrder.exceeds), and no order key is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from semicurve.ideals import MonomialIdeal
from semicurve.kernels import _first_divisor, _supports


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero coefficient as given."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms):
        clean = {}
        for m, c in dict(terms).items():
            if c:
                m = tuple(m)
                if len(m) != arity:
                    raise ValueError(f"term arity {len(m)} != {arity}")
                clean[m] = c
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def from_binomial(cls, b):
        return cls(len(b.lead), {b.lead: 1, b.tail: -1})


@dataclass(frozen=True)
class GBReport:
    passed: bool
    pairs_checked: int
    pairs_skipped_coprime: int
    failing_pair: tuple | None = None
    remainder: Polynomial | None = None


def _lead(g, order):
    """(lead, tail) of a basis member +-(lead - tail); raises ValueError
    unless g is a binomial u - v with coefficients +1 and -1."""
    if len(g.terms) != 2 or sorted(g.terms.values()) != [-1, 1]:
        raise ValueError("basis members must be binomials u - v with "
                         f"coefficients +1 and -1, got {g.terms}")
    a, b = g.terms
    return (a, b) if order.exceeds(a, b) else (b, a)


def _rule(g, order):
    """(lead, tail - lead) of a weighted-homogeneous basis member: dividing
    by it rewrites a multiple of lead by adding the shift."""
    lead, tail = _lead(g, order)
    shift = tuple(map(sub, tail, lead))
    if sum(map(mul, shift, order.weights)):
        raise ValueError(f"basis members must be weighted-homogeneous, got {g.terms}")
    return lead, shift


def _normal_form(a, b, rules):
    """Remainder of b - a, or None when it reduces to zero; a and b have
    one weighted degree, and rules pairs the support form of each lead with
    its shift.  The larger term is the smaller exponent tuple and is
    rewritten by the first rule whose lead divides it; a rewrite keeps the
    coefficient of the term it rewrites, so the two terms stay +-1."""
    ca = -1
    while a != b:
        if a > b:
            a, b, ca = b, a, -ca
        shift = _first_divisor(rules, a)
        if shift is None:
            while (shift := _first_divisor(rules, b)) is not None:
                b = tuple(map(add, b, shift))
            return Polynomial(len(a), {a: ca, b: -ca})
        a = tuple(map(add, a, shift))
    return None


def gb_verify(basis, order, max_terms=None):
    """Buchberger criterion: passed iff every S-pair reduces to zero.

    Every basis member must be u - v with coefficients +1 and -1 (in either
    order) and wdeg(u) = wdeg(v) under the order's weights; anything else,
    the zero polynomial included, raises ValueError.  A binomial reduction
    never holds more than two terms, so max_terms is ignored; it is kept
    only for existing callers.  Pairs with coprime leading monomials are
    skipped (product criterion: their support masks share no bit);
    correctness does not depend on the skip.  On failure the first failing
    pair and its nonzero normal form are reported."""
    members = [_rule(g, order) for g in basis]
    rules = _supports([lead for lead, _ in members], [shift for _, shift in members])
    masks = [sum(1 << i for i, _ in support) for support, _ in rules]
    checked = skipped = 0
    for i, (ui, si) in enumerate(members):
        mi = masks[i]
        for j in range(i + 1, len(members)):
            if not mi & masks[j]:
                skipped += 1
                continue
            uj, sj = members[j]
            lcm = tuple(map(max, ui, uj))
            rem = _normal_form(tuple(map(add, lcm, si)), tuple(map(add, lcm, sj)), rules)
            checked += 1
            if rem is not None:
                return GBReport(False, checked, skipped, failing_pair=(i, j), remainder=rem)
    return GBReport(True, checked, skipped)


def leading_ideal(basis, order):
    """Monomial ideal of the leads of the basis members, each a binomial
    u - v with coefficients +1 and -1."""
    leads = [_lead(g, order)[0] for g in basis]
    if not leads:
        raise ValueError("empty basis")
    return MonomialIdeal(len(leads[0]), leads, weights=order.weights)
