"""Exponent kernels: minimal generators on both sides of the index size
selection, the index's memory, membership in powers, empty inputs,
exact large exponents, lcms and single-monomial colons against the
oracles, and colon residues against the generic colon (on sparse rows in
6-8 variables too, and as a property over random minimal ideals and walks),
against themselves with a cold walk cache, and by hand at a step that
passes residues through."""
import random
import time
import tracemalloc
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicurve import kernels
from semicurve.ideals import MonomialIdeal

import oracles


def _degree_order(rows):
    return sorted(rows, key=lambda m: (sum(m), m))


def test_minimalize_removes_multiples():
    rows = [(2, 0), (0, 2), (2, 1), (3, 3), (0, 2)]
    assert set(kernels.minimalize(rows)) == {(2, 0), (0, 2)}


def _seeded_rows(rng, arity, count):
    """Rows with duplicates and ties in every coordinate (few values per
    coordinate), some of them shifted by 2**40."""
    top = rng.choice([1, 2, 3, 6])
    offset = rng.choice([0, 1 << 40])
    shifted = [rng.random() < 0.5 for _ in range(arity)]
    rows = [tuple(rng.randint(0, top) + offset * s for s in shifted)
            for _ in range(count)]
    return rows + rng.sample(rows, min(count, rng.randint(0, 5)))


def test_minimalize_matches_oracle_on_seeded_rows():
    rng = random.Random(40961)
    sizes = set()
    for count in [0, 1, 2, 15, 16, 17, 300] + [rng.randint(0, 300) for _ in range(90)]:
        arity = rng.randint(1, 7)
        rows = _seeded_rows(rng, arity, count)
        sizes.add(len(set(rows)) >= kernels.INDEX_MIN_ROWS)
        got = kernels.minimalize(rows)
        assert got == _degree_order(oracles.minimal(rows)), rows
    assert sizes == {False, True}


def _power_targets(rng, gens, j):
    """Targets around I^j: sums of j generators (of the least degree ones
    too, so some sit exactly on the degree bound), moved by -1..1 per
    coordinate and clamped at 0."""
    low = [h for h in gens if sum(h) == min(map(sum, gens))]
    for pool in (gens, gens, low):
        base = [sum(col) for col in zip(*(rng.choice(pool) for _ in range(j)))]
        yield tuple(base)
        yield tuple(max(0, v + rng.randint(-1, 1)) for v in base)


def test_power_membership_matches_oracle_on_seeded_gens():
    # One predicate per generator set answers every j in 1..5 in a random
    # order, so its memo is shared across powers as in the socle probe.
    rng = random.Random(40967)
    seen = set()   # (j > 1, answer, below the degree bound, in I, on it)
    offsets = units = 0
    for _ in range(120):
        arity = rng.randint(1, 7)
        gens = _seeded_rows(rng, arity, rng.randint(1, 6))
        if rng.random() < 0.1:
            gens.append((0,) * arity)
            units += 1
        contains = kernels.power_membership(gens)
        low = min(map(sum, gens))
        queries = [(t, j) for j in range(1, 6) for t in _power_targets(rng, gens, j)]
        rng.shuffle(queries)
        for target, j in queries:
            want = oracles.in_ideal(target, oracles.power_gens(gens, j))
            assert contains(target, j) == want, (gens, target, j)
            seen.add((j > 1, want, sum(target) < j * low,
                      oracles.in_ideal(target, gens), sum(target) == j * low))
            offsets += max(target) >= 1 << 40
    # Both answers occur beyond j = 1; the degree bound rejects members of
    # I, and members of I^j lie exactly on it (a cut at <= fails there).
    assert {want for high, want, *_ in seen if high} == {True, False}
    assert (True, False, True, True, False) in seen
    assert (True, True, False, True, True) in seen
    assert offsets and units
    assert not kernels.power_membership([])((0, 0), 1)


def test_pairwise_product_matches_oracle():
    rng = random.Random(40962)
    for _ in range(40):
        arity = rng.randint(1, 5)
        rows_a = _seeded_rows(rng, arity, rng.randint(0, 20))
        rows_b = _seeded_rows(rng, arity, rng.randint(1, 12))
        got = kernels.pairwise_product(rows_a, rows_b)
        assert got == _degree_order(oracles.minimal(oracles.product_gens(rows_a, rows_b)))


def test_pairwise_lcm_and_colon_by_monomial_match_oracle():
    rng = random.Random(40964)
    for _ in range(40):
        arity = rng.randint(1, 5)
        rows_a = _seeded_rows(rng, arity, rng.randint(0, 20))
        rows_b = _seeded_rows(rng, arity, rng.randint(1, 12))
        got = kernels.pairwise_lcm(rows_a, rows_b)
        assert got == _degree_order(oracles.minimal(oracles.intersect(rows_a, rows_b)))
        g = rng.choice(rows_b)
        quots = [tuple(max(x - y, 0) for x, y in zip(m, g)) for m in rows_a]
        assert kernels.colon_by_monomial(rows_a, g) == _degree_order(oracles.minimal(quots))


def test_minimalize_index_memory_is_bounded():
    # An antichain keeps every row, the index's worst case: 4,000 rows in
    # two variables with distinct exponents hold 2 * 4000 * 4000 / 2 bits
    # (2 MB) of prefix ORs, about 5 MB at the peak with the dicts.  The
    # scan against the kept rows would make 8 million divisibility tests.
    rng = random.Random(40963)
    xs = sorted(rng.sample(range(1, 10 ** 6), 4000))
    ys = sorted(rng.sample(range(1, 10 ** 6), 4000), reverse=True)
    rows = list(zip(xs, ys))
    rng.shuffle(rows)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = kernels.minimalize(rows)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _degree_order(rows)
    assert peak < 16 * 2 ** 20, peak
    assert elapsed < 10, elapsed


def test_exact_on_large_exponents():
    # Exponents are arbitrary-precision Python ints, so large ones stay exact.
    big = 1 << 40
    rows = [(big, 0), (0, 1)]
    assert kernels.divides_any(rows, (big + 1, 0))
    assert not kernels.divides_any(rows, (big - 1, 0))
    assert set(kernels.minimalize(rows + [(big + 2, 5)])) == {(big, 0), (0, 1)}
    assert kernels.pairwise_product([(big, 0)], [(big, 0)]) == [(2 * big, 0)]


def test_empty_inputs():
    assert kernels.minimalize([]) == []
    assert not kernels.divides_any([], (1, 2))
    assert kernels.all_divisible([], [(1, 0)])
    assert not kernels.all_divisible([(1, 0)], [])


def _colon_outside(ideal, indices):
    """The oracle: generators of the generic colon that lie outside the ideal."""
    divisor = MonomialIdeal(ideal.arity, [tuple(int(j == i) for j in range(ideal.arity))
                                          for i in indices])
    return {g for g in ideal.colon(divisor).gens if g not in ideal}


def _check_residues(ideal, indices):
    got = kernels.colon_residues(ideal.gens, indices)
    assert len(got) == len(set(got))
    assert set(got) == _colon_outside(ideal, indices), (ideal, indices)


def test_colon_residues_hand_values():
    # (x^4, x^3 y, x y^3, y^4) : (x, y) adds x^2 y^2 and the two corners.
    ideal = MonomialIdeal(2, [(4, 0), (3, 1), (1, 3), (0, 4)])
    assert set(kernels.colon_residues(ideal.gens, [0, 1])) == {(3, 0), (2, 2), (0, 3)}
    assert set(kernels.colon_residues(ideal.gens, [1])) == {(3, 0), (1, 2), (0, 3)}
    assert set(kernels.colon_residues(ideal.gens, [1, 1, 0])) == {(3, 0), (2, 2), (0, 3)}
    # A variable no generator uses divides nothing: x : y = x.
    assert kernels.colon_residues([(1, 0)], [1]) == []
    assert kernels.colon_residues([], [0]) == []
    assert kernels.colon_residues([(0, 0)], [0, 1]) == []
    with pytest.raises(ValueError):
        kernels.colon_residues([(1, 0)], [])


def test_colon_residues_pass_through_residues_whose_product_lies_in_the_ideal():
    # (x^4, x^3 y, x y^3, y^4): the x step leaves x^3, x^2 y and y^3.  At the
    # y step x^3 y and y^4 lie in I, so x^3 and y^3 pass through with no lcm
    # built (the support forms stay unbuilt and the kept list comes back as
    # it went in); x^2 y^2 lies outside I, so x^2 y is expanded to x^2 y^2.
    rows = MonomialIdeal(2, [(4, 0), (3, 1), (1, 3), (0, 4)]).gens
    assert set(kernels._step(rows, (), (), 0, [])) == {(3, 0), (2, 1), (0, 3)}
    entries = []
    assert kernels._step(rows, (0,), [(0, 3), (3, 0)], 1, entries) == [(0, 3), (3, 0)]
    assert entries == []
    got = kernels._step(rows, (0,), [(3, 0), (2, 1), (0, 3)], 1, entries)
    assert sorted(got) == [(0, 3), (2, 2), (3, 0)]
    assert entries
    assert kernels._step(rows, (0,), [(2, 1)], 1, entries) == [(2, 2)]


@st.composite
def _walk_cases(draw):
    """A minimal ideal in 1-6 variables (exponents up to 6, up to 10
    generators, some variables unused, sometimes the unit) and a walk of
    indices with repeats, cut at a shared prefix."""
    arity = draw(st.integers(1, 6))
    unused = draw(st.sets(st.integers(0, arity - 1), max_size=arity - 1))
    exps = st.tuples(*[st.just(0) if i in unused else st.integers(0, 6)
                       for i in range(arity)])
    gens = draw(st.lists(exps, max_size=10))
    if draw(st.integers(0, 9)) == 0:
        gens.append((0,) * arity)
    walk = draw(st.lists(st.integers(0, arity - 1), min_size=1, max_size=2 * arity + 2))
    return MonomialIdeal(arity, gens), walk, draw(st.integers(1, len(walk)))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_walk_cases())
def test_colon_residues_property_against_generic_colon(case):
    ideal, walk, cut = case
    want = _colon_outside(ideal, walk)
    kernels._walks.cache_clear()
    cold = kernels.colon_residues(ideal.gens, walk)
    kernels._walks.cache_clear()
    kernels.colon_residues(ideal.gens, walk[:cut])
    warm = kernels.colon_residues(ideal.gens, walk)
    assert set(cold) == set(warm) == want
    assert len(cold) == len(want)
    for a in cold:
        assert a not in ideal
        assert not any(b != a and all(map(le, b, a)) for b in cold)


def test_colon_residues_match_generic_colon_on_seeded_ideals():
    rng = random.Random(20051)
    for _ in range(600):
        arity = rng.randint(1, 5)
        gens = [tuple(rng.randint(0, 4) for _ in range(arity))
                for _ in range(rng.randint(1, 7))]
        unused = rng.randrange(arity) if arity > 1 and rng.random() < 0.3 else None
        if unused is not None:
            gens = [g[:unused] + (0,) + g[unused + 1:] for g in gens]
        ideal = MonomialIdeal(arity, gens)
        indices = rng.sample(range(arity), rng.randint(1, arity))
        _check_residues(ideal, indices)
        _check_residues(ideal, [indices[0]])
        _check_residues(ideal, range(arity))


def _sparse_rows(rng, arity):
    """1-9 rows with 1-3 nonzero exponents each."""
    rows = []
    for _ in range(rng.randint(1, 9)):
        m = [0] * arity
        for i in rng.sample(range(arity), rng.randint(1, 3)):
            m[i] = rng.randint(1, 4)
        rows.append(tuple(m))
    return rows


def _disjoint_rows(rng, arity):
    """Rows over pairwise disjoint sets of 1-3 variables."""
    free = rng.sample(range(arity), arity)
    rows = []
    while free:
        k = rng.randint(1, 3)
        part, free = free[:k], free[k:]
        rows.append(tuple(rng.randint(1, 4) if i in part else 0 for i in range(arity)))
    return rows


def test_colon_residues_match_generic_colon_on_sparse_rows():
    rng = random.Random(20054)
    found = 0
    for k in range(300):
        arity = rng.randint(6, 8)
        ideal = MonomialIdeal(arity, (_disjoint_rows if k % 3 == 0 else _sparse_rows)(rng, arity))
        indices = rng.sample(range(arity), rng.randint(1, arity))
        for walk in (indices, range(arity)):
            _check_residues(ideal, walk)
            found += len(kernels.colon_residues(ideal.gens, walk))
    assert found > 0
    unit = MonomialIdeal(7, [(0,) * 7])
    for walk in ([3], range(7)):
        _check_residues(unit, walk)
    # The unit monomial's support is empty and divides every target.
    supports = kernels._supports([(0, 2, 0, 0, 0, 1), (0,) * 6])
    assert supports == [((1, 2), (5, 1)), ()]
    assert kernels._support_divides(supports[1:], (0, 1, 0, 0, 0, 1))
    assert not kernels._support_divides(supports[:1], (0, 1, 0, 0, 0, 1))
    assert kernels._support_divides(supports[:1], (7, 2, 0, 0, 0, 1))
    assert not kernels._support_divides(supports[:1], (7, 1, 9, 9, 9, 9))


def _memo_spans(arity):
    """Index walks as the selectors and the socle walk take them, the
    reversed walk, and walks with duplicated indices."""
    spans = [list(range(1, hi + 1)) for hi in range(1, arity)]
    spans += [list(range(arity)), [arity - 1], list(range(arity - 1, -1, -1))]
    if arity > 1:
        spans += [[1, 1, 0], [arity - 1, 0, arity - 1, 0]]
    return spans


def test_colon_residues_memo_is_invisible():
    rng = random.Random(20052)
    for _ in range(60):
        arity = rng.randint(1, 6)
        gens = [tuple(rng.randint(0, 4) for _ in range(arity))
                for _ in range(rng.randint(1, 9))]
        rows = MonomialIdeal(arity, gens).gens
        spans = _memo_spans(arity)
        cold = []
        for span in spans:
            kernels._walks.cache_clear()
            cold.append(kernels.colon_residues(rows, span))
        orders = [list(range(len(spans))), list(range(len(spans)))[::-1]]
        orders.append(rng.choices(range(len(spans)), k=2 * len(spans)))
        for order in orders:
            kernels._walks.cache_clear()
            for k in order:
                got = kernels.colon_residues(list(rows), spans[k])
                assert got == cold[k], (rows, spans[k])
                got.append((7,) * arity)
                got.reverse()
                assert kernels.colon_residues(rows, spans[k]) == cold[k]


def test_colon_residues_long_walk():
    # The walk is a loop, so its length is bounded neither by the recursion
    # limit nor by a cache size, and no step rehashes the rows: the 1,200
    # squares keep a nonempty residue at every step, deeper than the
    # recursion limit of 1,000.
    n = 2000
    assert kernels.colon_residues([(1,) * n], range(n)) == []
    n = 90
    squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    assert kernels.colon_residues(squares, range(n)) == [(1,) * n]
    assert kernels.colon_residues(squares, range(n - 1, -1, -1)) == [(1,) * n]
    n = 1200
    squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    t0 = time.perf_counter()
    assert kernels.colon_residues(squares, range(n)) == [(1,) * n]
    assert time.perf_counter() - t0 < 10
