"""Binomial S-pair check and leading ideals.

Verifies that the binomial generators of a curve form a Groebner basis
under a weighted grevlex order: every S-pair must reduce to zero.  Each
basis member is a binomial u - v with coefficients +1 and -1, so its
S-pairs are again differences of two monomials, and dividing one by a
basis member rewrites a single monomial (Sturmfels, Groebner Bases and
Convex Polytopes, AMS ULS 8, 1996, ch. 4).  The working polynomial is
therefore a pair of monomials: the larger one is always rewritten with the
first basis member whose leading monomial divides it, so normal forms are
deterministic, and the pair reduces to zero when both sides meet.

A lead has few nonzero exponents (at most 3 on every curve basis of the
acceptance corpus and of p = 3..6 with m <= 45), so each rule keeps its
lead in support form, the (index, exponent) pairs with a nonzero
exponent, and the first dividing rule is found by the kernels' support
scan, which compares only those.  The bit mask of a lead's support
indices decides the product criterion: two leads are coprime iff their
masks share no bit.

Polynomial is the exact container the check reads its basis from and
reports a remainder in; general division over the rationals is not needed
here (the test oracles keep it).  The lead of a binomial, in the check and
in leading_ideal, comes from one comparison of its two terms
(WeightedGrevlexOrder.exceeds: weighted degrees, then exponent tuples), and
no order key is built.
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

    @property
    def is_zero(self):
        return not self.terms

    def leading(self, order):
        """(monomial, coefficient) of the largest term under the order; two
        terms are compared by order.exceeds, more by order.key."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading term")
        if len(self.terms) == 2:
            a, b = self.terms
            lm = a if order.exceeds(a, b) else b
        else:
            lm = max(self.terms, key=order.key)
        return lm, self.terms[lm]

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms


@dataclass(frozen=True)
class GBReport:
    passed: bool
    pairs_checked: int
    pairs_skipped_coprime: int
    failing_pair: tuple | None = None
    remainder: Polynomial | None = None


def _rule(g, order):
    """(lead, tail - lead, weighted degree of tail - lead) of a basis member
    +-(lead - tail): dividing by it rewrites a multiple of lead by adding
    the shift, which moves the weighted degree by a fixed amount."""
    if len(g.terms) != 2 or sorted(g.terms.values()) != [-1, 1]:
        raise ValueError("basis members must be binomials u - v with "
                         f"coefficients +1 and -1, got {g.terms}")
    a, b = g.terms
    lead, tail = (a, b) if order.exceeds(a, b) else (b, a)
    shift = tuple(map(sub, tail, lead))
    return lead, shift, sum(map(mul, shift, order.weights))


def _normal_form(a, wa, b, wb, rules):
    """Remainder of b - a, or None when it reduces to zero; wa and wb are
    the weighted degrees of a and b, and rules pairs the support form of
    each lead with its (shift, step).  a is below b in the order iff wa < wb
    or (wa == wb and a > b), the order of WeightedGrevlexOrder.key, so no
    key is recomputed.  The larger term is rewritten by the first rule whose
    lead divides it; a rewrite keeps the coefficient of the term it
    rewrites, so the two terms stay +-1."""
    ca = -1
    while a != b:
        if wa < wb or (wa == wb and a > b):
            a, b, wa, wb, ca = b, a, wb, wa, -ca
        top = _first_divisor(rules, a)
        if top is None:
            while (tail := _first_divisor(rules, b)) is not None:
                b = tuple(map(add, b, tail[0]))
            return Polynomial(len(a), {a: ca, b: -ca})
        shift, step = top
        a = tuple(map(add, a, shift))
        wa += step
    return None


def gb_verify(basis, order, max_terms=None):
    """Buchberger criterion: passed iff every S-pair reduces to zero.

    Every basis member must be u - v with coefficients +1 and -1 (in either
    order); anything else, the zero polynomial included, raises ValueError.
    A binomial reduction never holds more than two terms, so max_terms is
    ignored; it is kept only for existing callers.  Pairs with coprime
    leading monomials are skipped (product criterion: their support masks
    share no bit); correctness does not depend on the skip.  On failure the
    first failing pair and its nonzero normal form are reported."""
    members = [_rule(g, order) for g in basis]
    rules = _supports([lead for lead, _, _ in members],
                      [(shift, step) for _, shift, step in members])
    masks = [sum(1 << i for i, _ in support) for support, _ in rules]
    checked = skipped = 0
    for i, (ui, si, wi) in enumerate(members):
        mi = masks[i]
        for j in range(i + 1, len(members)):
            if not mi & masks[j]:
                skipped += 1
                continue
            uj, sj, wj = members[j]
            lcm = tuple(map(max, ui, uj))
            wl = sum(map(mul, lcm, order.weights))
            rem = _normal_form(tuple(map(add, lcm, si)), wl + wi,
                               tuple(map(add, lcm, sj)), wl + wj, rules)
            checked += 1
            if rem is not None:
                return GBReport(False, checked, skipped, failing_pair=(i, j), remainder=rem)
    return GBReport(True, checked, skipped)


def leading_ideal(basis, order):
    """Monomial ideal of the basis leading monomials."""
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("basis members must be nonzero")
    if not basis:
        raise ValueError("empty basis")
    return MonomialIdeal(basis[0].arity, [g.leading(order)[0] for g in basis],
                         weights=order.weights)
