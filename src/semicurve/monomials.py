"""Monomials as exponent tuples, and the weighted grevlex order.

A monomial in k variables x0..x(k-1) is a tuple of k nonnegative ints;
the all-zeros tuple is the unit.  Everything here is exact integer
arithmetic on Python ints.

The monomial order is graded reverse lexicographic for the variable order
x0 < x1 < ... < x(n) under the grading wt(xi) = weights[i]: weighted
degrees compare first, and on ties the monomial with the strictly smaller
exponent at the lowest-indexed differing variable is the larger one.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add, mul, neg

Mono = tuple  # exponent tuple; alias for readability in signatures


def unit(arity: int) -> Mono:
    return (0,) * arity


def weighted_degree(m: Mono, weights) -> int:
    if len(m) != len(weights):
        raise ValueError(f"arity mismatch: monomial {len(m)} vs weights {len(weights)}")
    return sum(map(mul, m, weights))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if len(a) != len(b):
        raise ValueError(f"arity mismatch: {len(a)} vs {len(b)}")
    return tuple(map(add, a, b))


def variable(arity: int, index: int) -> Mono:
    """The monomial x_index."""
    if not 0 <= index < arity:
        raise ValueError(f"variable index {index} outside arity {arity}")
    e = [0] * arity
    e[index] = 1
    return tuple(e)


@dataclass(frozen=True)
class WeightedGrevlexOrder:
    """Degree-compatible total order with positive integer weights."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(self.weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("weights must be a nonempty sequence of positive integers")
        object.__setattr__(self, "weights", ws)

    def key(self, m: Mono):
        """Sort key: larger key means larger monomial in the order.  Every
        comparison of monomials goes through this key, except the S-pair
        reduction of groebner._normal_form, which carries the weighted
        degrees and compares in the same order."""
        if len(m) != len(self.weights):
            raise ValueError(f"arity mismatch: monomial {len(m)} vs order {len(self.weights)}")
        return (sum(map(mul, m, self.weights)), tuple(map(neg, m)))


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_monomial(m: Mono) -> str:
    """Text form ``x0^a*x1^b*...``; zero exponents omitted, unit is ``1``."""
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def parse_monomial(text: str, arity: int) -> Mono:
    """Inverse of format_monomial; exact round-trip."""
    text = text.strip()
    exps = [0] * arity
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        match = _FACTOR_RE.match(factor.strip())
        if not match:
            raise ValueError(f"bad monomial factor {factor!r}")
        idx = int(match.group(1))
        if idx >= arity:
            raise ValueError(f"variable x{idx} out of range for arity {arity}")
        exps[idx] += int(match.group(2)) if match.group(2) else 1
    return tuple(exps)
