"""Sparse polynomials over the rationals and the Buchberger criterion.

Used to verify computationally that a generating set is a Groebner basis
under a weighted grevlex order: every S-polynomial must reduce to zero.
Coefficients are exact fractions; reduction always divides by the first
eligible element in the given basis order, so normal forms are
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from semicurve.errors import InternalCheckError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import divides, mono_colon, mono_lcm, mono_mul


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity, terms):
        clean = {}
        for m, c in dict(terms).items():
            c = Fraction(c)
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
        return cls(len(b.lead), {b.lead: Fraction(1), b.tail: Fraction(-1)})

    @property
    def is_zero(self):
        return not self.terms

    def leading(self, order):
        """(monomial, coefficient) of the largest term under the order."""
        if self.is_zero:
            raise ValueError("the zero polynomial has no leading term")
        lm = max(self.terms, key=order.key)
        return lm, self.terms[lm]

    def times_term(self, coeff, mono):
        return Polynomial(self.arity,
                          {mono_mul(m, mono): c * coeff for m, c in self.terms.items()})

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Polynomial(self.arity, out)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))


def reduce(f, basis, order, max_terms=None):
    """Normal form of f modulo basis: no remainder term is divisible by any
    basis leading monomial.  Always divides by the first eligible basis
    element.  max_terms, when set, bounds the working term count and raises
    InternalCheckError past it (used to assert binomial-closure runs)."""
    leads = [g.leading(order) for g in basis]
    remainder = {}
    work = f
    while not work.is_zero:
        if max_terms is not None and len(work.terms) > max_terms:
            raise InternalCheckError(f"reduction exceeded {max_terms} working terms")
        lm, lc = work.leading(order)
        for g, (glm, glc) in zip(basis, leads):
            if divides(glm, lm):
                work = work - g.times_term(lc / glc, mono_colon(lm, glm))
                break
        else:
            remainder[lm] = lc
            work = Polynomial(work.arity, {m: c for m, c in work.terms.items() if m != lm})
    return Polynomial(f.arity, remainder)


def s_poly(f, g, order):
    """S-polynomial: both leading terms scaled to their lcm and subtracted."""
    flm, flc = f.leading(order)
    glm, glc = g.leading(order)
    lcm = mono_lcm(flm, glm)
    return f.times_term(1 / flc, mono_colon(lcm, flm)) - g.times_term(1 / glc, mono_colon(lcm, glm))


@dataclass(frozen=True)
class GBReport:
    passed: bool
    pairs_checked: int
    pairs_skipped_coprime: int
    failing_pair: tuple | None = None
    remainder: Polynomial | None = None


def gb_verify(basis, order, max_terms=None):
    """Buchberger criterion: passed iff every S-pair reduces to zero.

    Pairs with coprime leading monomials are skipped (product criterion);
    correctness does not depend on the skip.  On failure the first failing
    pair and its nonzero normal form are reported."""
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("basis members must be nonzero")
    leads = [g.leading(order)[0] for g in basis]
    checked = skipped = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if mono_lcm(leads[i], leads[j]) == mono_mul(leads[i], leads[j]):
                skipped += 1
                continue
            rem = reduce(s_poly(basis[i], basis[j], order), basis, order, max_terms=max_terms)
            checked += 1
            if not rem.is_zero:
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


def buchberger_complete(basis, order, max_basis=512):
    """Complete a generating set to a Groebner basis (naive Buchberger).

    Cross-check helper: completing a verified basis must add nothing new.
    A growth bound guards against runaway completions."""
    G = list(basis)
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        rem = reduce(s_poly(G[i], G[j], order), G, order)
        if rem.is_zero:
            continue
        G.append(rem)
        if len(G) > max_basis:
            raise InternalCheckError(f"completion exceeded {max_basis} elements")
        pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G
