"""Exponent-vector kernels.

These are the hot inner loops of the ideal arithmetic: divisibility scans,
minimal-generator filtering, pairwise products and lcms, colons by a single
monomial.  Exponent vectors are plain tuples of nonnegative ints, so the
kernels are exact for arbitrarily large exponents.  Row arguments are
sequences (tuples or lists) of such vectors; the targets of all_divisible
are read once and may be any iterable.

A kernel that needs another one calls its private helper, never the public
name, so the six public functions are entered only from outside the module
(perfbench's tracer counts calls on the public names).
"""
from __future__ import annotations

from operator import le

BACKEND = "python"


def _divides(a, b):
    """True iff monomial a divides b (componentwise <=)."""
    return all(map(le, a, b))


def _minimalize(rows):
    uniq = sorted(set(rows), key=lambda m: (sum(m), m))
    kept = []
    for m in uniq:
        for g in kept:
            if _divides(g, m):
                break
        else:
            kept.append(m)
    return kept


def _divides_any(rows, target):
    for g in rows:
        if _divides(g, target):
            return True
    return False


def minimalize(rows):
    """Minimal elements of rows under divisibility, sorted by (degree, exps).

    Duplicates are collapsed.  A monomial is kept iff no other kept monomial
    divides it; scanning in degree order makes one forward pass sufficient.
    """
    return _minimalize(rows)


def pairwise_product(rows_a, rows_b):
    """Minimal generators of the product ideal: all a+b sums, minimalized."""
    prods = {tuple(x + y for x, y in zip(a, b)) for a in rows_a for b in rows_b}
    return _minimalize(prods)


def pairwise_lcm(rows_a, rows_b):
    """Minimal generators of the intersection: componentwise maxima, minimalized."""
    lcms = {tuple(max(x, y) for x, y in zip(a, b)) for a in rows_a for b in rows_b}
    return _minimalize(lcms)


def colon_by_monomial(rows, g):
    """Minimal generators of (rows) : g, via clamped componentwise subtraction."""
    quots = {tuple(max(x - y, 0) for x, y in zip(m, g)) for m in rows}
    return _minimalize(quots)


def divides_any(rows, target):
    """True iff some row divides target (monomial ideal membership)."""
    return _divides_any(rows, target)


def all_divisible(targets, rows):
    """True iff every target is divisible by some row (ideal containment)."""
    for t in targets:
        if not _divides_any(rows, t):
            return False
    return True
