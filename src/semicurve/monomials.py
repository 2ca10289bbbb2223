"""Monomials as exponent tuples, and the weighted grevlex order.

A monomial in k variables x0..x(k-1) is a tuple of k nonnegative ints;
the all-zeros tuple is the unit.  Everything here is exact integer
arithmetic on Python ints.

The monomial order is graded reverse lexicographic for the variable order
x0 < x1 < ... < x(n) under the grading wt(xi) = weights[i]: weighted
degrees compare first, and on ties the monomial with the strictly smaller
exponent at the lowest-indexed differing variable is the larger one.
WeightedGrevlexOrder.exceeds compares two monomials, which is all the
front half asks of an order, and descending sorts many; there is no key.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import mul

Mono = tuple  # exponent tuple; alias for readability in signatures


def weighted_degree(m: Mono, weights) -> int:
    if len(m) != len(weights):
        raise ValueError(f"arity mismatch: monomial {len(m)} vs weights {len(weights)}")
    return sum(map(mul, m, weights))


@dataclass(frozen=True)
class WeightedGrevlexOrder:
    """Degree-compatible total order with positive integer weights."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(self.weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("weights must be a nonempty sequence of positive integers")
        object.__setattr__(self, "weights", ws)

    def exceeds(self, a: Mono, b: Mono) -> bool:
        """True iff a is larger than b in the order: a has the larger
        weighted degree, or an equal one and the smaller exponent tuple."""
        ws = self.weights
        if len(a) != len(ws) or len(b) != len(ws):
            raise ValueError(f"arity mismatch: monomials {len(a)}, {len(b)} vs order {len(ws)}")
        wa, wb = sum(map(mul, a, ws)), sum(map(mul, b, ws))
        return wa > wb or (wa == wb and a < b)


def descending(monos, weights=None) -> tuple:
    """monos from largest to smallest in the weighted grevlex order of
    weights (unit weights when None), which need not be validated: the
    order of WeightedGrevlexOrder.exceeds, sorted by (-weighted degree,
    exponents) with no order built."""
    if weights is None:
        return tuple(sorted(monos, key=lambda m: (-sum(m), m)))
    return tuple(sorted(monos, key=lambda m: (-sum(map(mul, m, weights)), m)))


def format_monomial(m: Mono) -> str:
    """Text form ``x0^a*x1^b*...``; zero exponents omitted, unit is ``1``."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"
