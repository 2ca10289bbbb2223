"""Brute-force oracles, deliberately independent of the package internals.

Everything here recomputes results straight from definitions with plain
loops and sets, so package outputs can be cross-checked against a second,
dumber implementation.  No imports from semicurve.
"""

import functools
import heapq
import math


def divides(a, b):
    """Componentwise <= on exponent tuples."""
    return all(x <= y for x, y in zip(a, b))


def in_ideal(m, gens):
    """Monomial-ideal membership by scanning every generator."""
    return any(divides(g, m) for g in gens)


def members_upto(generators, limit):
    """All nonnegative integer combinations of the generators up to limit."""
    reachable = {0}
    frontier = [0]
    while frontier:
        base = frontier.pop()
        for g in generators:
            nxt = base + g
            if nxt <= limit and nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    return reachable


def validation_failures(arith, extra):
    """Failures of the normal-form check past its shape checks: gcd 1,
    then each generator in order (m0, ..., mp, mn) against the semigroup
    of the others.  g is redundant iff g is a combination of the others
    up to g itself."""
    full = tuple(arith) + (extra,)
    if math.gcd(*full) != 1:
        return ("generators must have gcd 1",)
    for i, g in enumerate(full):
        if g in members_upto(full[:i] + full[i + 1:], g):
            name = f"m{i}" if i < len(arith) else "mn"
            return (f"not minimally generated: {name} = {g} lies in the semigroup of the others",)
    return ()


def apery_set(generators):
    """Ap(S, m) for S = <generators> and m = generators[0], sorted: the
    least element of S in each class mod m, by shortest paths over the m
    classes (Dijkstra), where adding a generator g is an edge of length g.
    Raises ValueError when a class is unreachable (gcd > 1)."""
    m = generators[0]
    least = {0: 0}
    heap = [(0, 0)]
    while heap:
        x, r = heapq.heappop(heap)
        if x > least[r]:
            continue
        for g in generators[1:]:
            y, s = x + g, (r + g) % m
            if s not in least or y < least[s]:
                least[s] = y
                heapq.heappush(heap, (y, s))
    if len(least) != m:
        raise ValueError("generators must have gcd 1")
    return sorted(least.values())


def ladder(t, arith):
    """(q, r, g) with t = q*p + r, r in [1, p], g = q*m_p + m_r."""
    p = len(arith) - 1
    if t == 0:
        return -1, p, 0
    r = ((t - 1) % p) + 1
    q = (t - r) // p
    return q, r, q * arith[p] + arith[r]


def sequence_params(arith, mn, limit=64):
    """Independent derivation of the ladder-based parameters.

    Returns a dict with u, v, w, z, lam, mu, q, r, q_z, r_z, eps, plus the
    solution-count fields w_lam_solutions and z_mu_solutions from the
    exhaustive uniqueness scans.  Both semigroups are enumerated up to
    limit, which decides every value up to it exactly; when u or v lies
    beyond that, the derivation starts over with the limit doubled.
    """
    while True:
        try:
            return _sequence_params(arith, mn, limit)
        except RuntimeError:
            limit *= 2


def _sequence_params(arith, mn, limit):
    m0, mp = arith[0], arith[-1]
    gens_prime = tuple(arith)
    gens_full = tuple(arith) + (mn,)
    gamma_prime = members_upto(gens_prime, limit)
    gamma = members_upto(gens_full, limit)
    s_set = {g for g in gamma if g - m0 not in gamma}

    u = None
    for t in range(0, limit):
        _, _, g_t = ladder(t, arith)
        if g_t > limit:
            break
        if g_t not in s_set:
            u = t
            break
    if u is None:
        raise RuntimeError("limit too small for u")

    v = next((b for b in range(1, limit // mn + 1) if b * mn in gamma_prime), None)
    if v is None:
        raise RuntimeError("limit too small for v")

    q, r, g_u = ladder(u, arith)

    w_lam = [(w, (g_u - w * mn) // m0)
             for w in range(0, v)
             if g_u - w * mn > 0 and (g_u - w * mn) % m0 == 0
             and (g_u - w * mn) // m0 >= 1]
    z_mu = [(z, (v * mn - ladder(z, arith)[2]) // m0)
            for z in range(0, u)
            if v * mn - ladder(z, arith)[2] >= 0
            and (v * mn - ladder(z, arith)[2]) % m0 == 0]

    out = {"u": u, "v": v, "q": q, "r": r,
           "w_lam_solutions": w_lam, "z_mu_solutions": z_mu}
    if len(w_lam) == 1:
        out["w"], out["lam"] = w_lam[0]
    if len(z_mu) == 1:
        out["z"], out["mu"] = z_mu[0]
        q_z, r_z, _ = ladder(out["z"], arith)
        out["q_z"], out["r_z"] = q_z, r_z
        out["eps"] = 1 if r <= r_z else 0
    return out


def monomials_upto(arity, max_deg):
    """All exponent tuples of total degree <= max_deg."""
    if arity == 0:
        return [()]
    out = []
    for head in range(max_deg + 1):
        for tail in monomials_upto(arity - 1, max_deg - head):
            out.append((head,) + tail)
    return out


def standard_monomials(gens, arity):
    """The monomials outside the ideal (gens), in walk order: a walk from
    the unit monomial that raises one exponent at a time and stops at
    members.  Raises ValueError on a proper ideal without a pure power of
    every variable, whose standard monomials are infinitely many."""
    start = (0,) * arity
    if in_ideal(start, gens):
        return ()
    for i in range(arity):
        if not any(g[i] > 0 and sum(g) == g[i] for g in gens):
            raise ValueError(f"no pure power of x{i}")
    found, seen = [start], {start}
    for mono in found:
        for i in range(arity):
            up = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if up not in seen:
                seen.add(up)
                if not in_ideal(up, gens):
                    found.append(up)
    return tuple(found)


def product_gens(gens_a, gens_b):
    """Generators of a product ideal: all pairwise exponent sums."""
    return [tuple(x + y for x, y in zip(a, b)) for a in gens_a for b in gens_b]


def power_gens(gens, k):
    """Generators of the k-th power: every sum of k generators, each sum
    once (duplicates are dropped after every factor, so the list stays as
    long as the number of distinct sums)."""
    rows = [tuple(0 for _ in gens[0])]
    for _ in range(k):
        rows = sorted(set(product_gens(rows, gens)))
    return rows


def pure_power_in_power(c, i, a, K, gens):
    """True iff c * x_i^(a*K) lies in (gens)^(K+1), by definition: some K+1
    generators, repeats allowed, sum to at most that monomial in every
    coordinate.  A bounded knapsack over the multiplicity of each
    generator, most first, memoized on (generator, factors left, room)."""
    room = list(c)
    room[i] += a * K
    gens = sorted(set(map(tuple, gens)))

    @functools.lru_cache(maxsize=None)
    def fits(start, count, room):
        if count == 0:
            return True
        if start == len(gens):
            return False
        g = gens[start]
        most = min([count] + [r // e for r, e in zip(room, g) if e])
        return any(fits(start + 1, count - n, tuple(r - n * e for r, e in zip(room, g)))
                   for n in range(most, -1, -1))
    return fits(0, K + 1, tuple(room))


# -- Groebner division over the rationals --------------------------------
#
# A polynomial is a plain dict {exponent tuple: Fraction} with no zero
# coefficients; the zero polynomial is {}.  A monomial order is a key
# function: a larger key means a larger monomial.


def grevlex_key(weights):
    """Weighted grevlex: weighted degree first; on ties the monomial with the
    smaller exponent at the lowest-indexed differing variable is larger."""
    def key(m):
        return sum(e * w for e, w in zip(m, weights)), [-e for e in m]
    return key


def poly_leading(f, key):
    """(monomial, coefficient) of the largest term of a nonzero f."""
    lm = max(f, key=key)
    return lm, f[lm]


def poly_shift(f, coeff, mono):
    """coeff * mono * f."""
    return {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in f.items()}


def poly_sub(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) - c
        if not out[m]:
            del out[m]
    return out


def reduce(f, basis, key):
    """Normal form of f modulo basis, always dividing by the first basis
    element whose leading monomial divides the current leading term."""
    leads = [poly_leading(g, key) for g in basis]
    remainder = {}
    work = dict(f)
    while work:
        lm, lc = poly_leading(work, key)
        for g, (glm, glc) in zip(basis, leads):
            if divides(glm, lm):
                quot = tuple(x - y for x, y in zip(lm, glm))
                work = poly_sub(work, poly_shift(g, lc / glc, quot))
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return remainder


def s_poly(f, g, key):
    """Both leading terms scaled to their lcm and subtracted."""
    flm, flc = poly_leading(f, key)
    glm, glc = poly_leading(g, key)
    lcm = tuple(max(x, y) for x, y in zip(flm, glm))
    return poly_sub(poly_shift(f, 1 / flc, tuple(x - y for x, y in zip(lcm, flm))),
                    poly_shift(g, 1 / glc, tuple(x - y for x, y in zip(lcm, glm))))


def gb_check(basis, key):
    """Buchberger criterion with the product criterion, pair by pair in
    index order: (passed, checked, skipped, failing_pair, remainder)."""
    leads = [poly_leading(g, key)[0] for g in basis]
    checked = skipped = 0
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if all(x == 0 or y == 0 for x, y in zip(leads[i], leads[j])):
                skipped += 1
                continue
            rem = reduce(s_poly(basis[i], basis[j], key), basis, key)
            checked += 1
            if rem:
                return False, checked, skipped, (i, j), rem
    return True, checked, skipped, None, None


def buchberger_complete(basis, key, max_basis=512):
    """Complete a generating set to a Groebner basis (naive Buchberger)."""
    G = [dict(g) for g in basis]
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        rem = reduce(s_poly(G[i], G[j], key), G, key)
        if not rem:
            continue
        G.append(rem)
        if len(G) > max_basis:
            raise RuntimeError(f"completion exceeded {max_basis} elements")
        pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return G


# -- monomial-ideal operations that only tests use -----------------------


def minimal(gens):
    """Generators that no other (distinct) generator divides, deduplicated."""
    uniq = set(gens)
    return sorted(m for m in uniq
                  if not any(g != m and divides(g, m) for g in uniq))


def intersect(gens_a, gens_b):
    """Minimal generators of the intersection: pairwise lcms."""
    return minimal([tuple(max(x, y) for x, y in zip(a, b))
                    for a in gens_a for b in gens_b])


def radical(gens):
    """Minimal generators of the radical: squarefree supports."""
    return minimal([tuple(1 if e else 0 for e in g) for g in gens])
