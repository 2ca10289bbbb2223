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

Polynomial is the exact container the check reads its basis from and
reports a remainder in; general division over the rationals is not needed
here (the test oracles keep it).
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub

from semicurve.ideals import MonomialIdeal


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
        """(monomial, coefficient) of the largest term under the order."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading term")
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
    """(lead, tail - lead) of a basis member +-(lead - tail): dividing by it
    rewrites a multiple of lead by adding the shift."""
    if len(g.terms) != 2 or sorted(g.terms.values()) != [-1, 1]:
        raise ValueError("basis members must be binomials u - v with "
                         f"coefficients +1 and -1, got {g.terms}")
    lead = g.leading(order)[0]
    tail, = (m for m in g.terms if m != lead)
    return lead, tuple(map(sub, tail, lead))


def _rewrite(m, rules):
    """m after one division by the first rule whose lead divides it, or None
    when m is irreducible."""
    for lead, shift in rules:
        if all(map(le, lead, m)):
            return tuple(map(add, m, shift))
    return None


def _normal_form(a, b, rules, key):
    """Remainder of b - a, or None when it reduces to zero.  A rewrite keeps
    the coefficient of the term it rewrites, so the two terms stay +-1."""
    ca = -1
    ka, kb = key(a), key(b)
    while a != b:
        if ka < kb:
            a, b, ka, kb, ca = b, a, kb, ka, -ca
        top = _rewrite(a, rules)
        if top is None:
            while (nb := _rewrite(b, rules)) is not None:
                b = nb
            return Polynomial(len(a), {a: ca, b: -ca})
        a, ka = top, key(top)
    return None


def gb_verify(basis, order, max_terms=None):
    """Buchberger criterion: passed iff every S-pair reduces to zero.

    Every basis member must be u - v with coefficients +1 and -1 (in either
    order); anything else, the zero polynomial included, raises ValueError.
    A binomial reduction never holds more than two terms, so max_terms is
    ignored; it is kept only for existing callers.  Pairs with coprime
    leading monomials are skipped (product criterion); correctness does not
    depend on the skip.  On failure the first failing pair and its nonzero
    normal form are reported."""
    rules = [_rule(g, order) for g in basis]
    checked = skipped = 0
    for i, (ui, si) in enumerate(rules):
        for j in range(i + 1, len(rules)):
            uj, sj = rules[j]
            if not any(map(min, ui, uj)):
                skipped += 1
                continue
            lcm = tuple(map(max, ui, uj))
            rem = _normal_form(tuple(map(add, lcm, si)), tuple(map(add, lcm, sj)),
                               rules, order.key)
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
