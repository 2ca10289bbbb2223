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

The check works on packed monomials (Monagan and Pearce, J. Symbolic
Comput. 46 (2011)): an exponent tuple of n entries becomes one int of n
fields of W bits each, x0 in the most significant, so int order is tuple
order.  With top the componentwise max of the leads and D = wdeg(top),
W = (D // min(weights)).bit_length() + 1.  Every monomial of one pair's
reduction has the pair's degree wdeg(lcm) <= D, so each of its exponents
is at most D // min(weights) and fits in W - 1 bits; the top bit of each
field is a guard bit, zero in every packed monomial.  So, for any size of
exponent, and with G the int of all guard bits:

- a lead L divides m iff (m + G - L) & G == G, since no field carries or
  borrows into the next and a field keeps its guard bit iff m_k >= L_k;
- a rewrite adds the signed int pack(tail) - pack(lead), which is exactly
  the packed rewritten monomial, since packing is linear and every field
  of the result stays in range;
- the lcm of two leads is pack(u_i) plus the excess of u_j over u_i on the
  support of u_j, the indices of its nonzero exponents.

The bit mask of a lead's support indices decides the product criterion:
two leads are coprime iff their masks share no bit.  The first dividing
rule of a packed monomial is found by a scan of the rules in basis order
and kept in a memo for the one call, since the reductions of one basis
revisit many monomials: 44% of the queries repeat on every 4th basis of
p = 3..6 with m <= 45, and 94% on the p = 40 basis of 45, ..., 85; 87,
whose memo ends with 13,813 entries.  A failing pair's remainder is
unpacked into a Polynomial.

Polynomial is the exact container the check reads its basis from and
reports a remainder in; general division over the rationals is not needed
here (the test oracles keep it).  In the check, the lead of a member is the
smaller exponent tuple of its two terms, once they are checked to have one
weighted degree; leading_ideal takes each lead from one comparison of the
two terms (WeightedGrevlexOrder.exceeds), and no order key is built.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import lshift, mul

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


@dataclass(frozen=True)
class GBReport:
    passed: bool
    pairs_checked: int
    pairs_skipped_coprime: int
    failing_pair: tuple | None = None
    remainder: Polynomial | None = None


def _terms(g):
    """The two terms of a basis member; raises ValueError unless g is a
    binomial u - v with coefficients +1 and -1."""
    if len(g.terms) != 2 or sorted(g.terms.values()) != [-1, 1]:
        raise ValueError("basis members must be binomials u - v with "
                         f"coefficients +1 and -1, got {g.terms}")
    return tuple(g.terms)


def _lead(g, order):
    """The lead of a basis member +-(lead - tail), by one comparison."""
    a, b = _terms(g)
    return a if order.exceeds(a, b) else b


def _member(g, weights):
    """(lead, tail) of a weighted-homogeneous basis member +-(lead - tail):
    its terms have one weighted degree, so the lead is the smaller exponent
    tuple.  Checks the shape, then the arity, then the homogeneity."""
    a, b = _terms(g)
    if len(a) != len(weights):
        raise ValueError(f"arity mismatch: monomials {len(a)}, {len(b)} "
                         f"vs order {len(weights)}")
    if sum(map(mul, a, weights)) != sum(map(mul, b, weights)):
        raise ValueError(f"basis members must be weighted-homogeneous, got {g.terms}")
    return (a, b) if a < b else (b, a)


class _FirstDivisor(dict):
    """Memo for one check: packed monomial -> packed shift of the first rule
    whose lead divides it, or None.  A rule is (guards - lead, shift), so
    lead divides m iff m + guards - lead keeps every guard bit."""

    __slots__ = ("guards", "rules")

    def __init__(self, guards, rules):
        super().__init__()
        self.guards, self.rules = guards, rules

    def __missing__(self, m):
        guards = self.guards
        for gap, shift in self.rules:
            if (m + gap) & guards == guards:
                break
        else:
            shift = None
        self[m] = shift
        return shift


def _normal_form(a, b, first):
    """Remainder of b - a as (a, b, coefficient of a), or None when it
    reduces to zero; a and b are packed monomials of one weighted degree.
    The larger term is the smaller int and is rewritten by adding the shift
    of its first dividing rule; a rewrite keeps the coefficient of the term
    it rewrites, so the two terms stay +-1."""
    ca = -1
    while a != b:
        if a > b:
            a, b, ca = b, a, -ca
        shift = first[a]
        if shift is None:
            while (shift := first[b]) is not None:
                b += shift
            return a, b, ca
        a += shift
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
    weights = order.weights
    members = [_member(g, weights) for g in basis]
    n = len(weights)
    top = [max(column) for column in zip(*(lead for lead, _ in members))]
    width = (sum(map(mul, top, weights)) // min(weights)).bit_length() + 1
    offsets = [width * (n - 1 - k) for k in range(n)]

    def pack(m):
        return sum(map(lshift, m, offsets))

    guards = pack([1 << (width - 1)] * n)
    leads = [pack(lead) for lead, _ in members]
    shifts = [pack(tail) - p for (_, tail), p in zip(members, leads)]
    first = _FirstDivisor(guards, [(guards - p, s) for p, s in zip(leads, shifts)])
    supports = [[(k, e, offsets[k]) for k, e in enumerate(lead) if e] for lead, _ in members]
    masks = [sum(1 << k for k, _, _ in support) for support in supports]
    checked = skipped = 0
    for i, (ui, _) in enumerate(members):
        mi, lead_i, si = masks[i], leads[i], shifts[i]
        for j in range(i + 1, len(members)):
            if not mi & masks[j]:
                skipped += 1
                continue
            lcm = lead_i
            for k, e, o in supports[j]:
                if e > ui[k]:
                    lcm += (e - ui[k]) << o
            rem = _normal_form(lcm + si, lcm + shifts[j], first)
            checked += 1
            if rem is not None:
                a, b, ca = rem
                mask = (1 << width) - 1
                a, b = (tuple((m >> o) & mask for o in offsets) for m in (a, b))
                return GBReport(False, checked, skipped, failing_pair=(i, j),
                                remainder=Polynomial(n, {a: ca, b: -ca}))
    return GBReport(True, checked, skipped)


def leading_ideal(basis, order):
    """Monomial ideal of the leads of the basis members, each a binomial
    u - v with coefficients +1 and -1."""
    leads = [_lead(g, order) for g in basis]
    if not leads:
        raise ValueError("empty basis")
    return MonomialIdeal(len(leads[0]), leads, weights=order.weights)
