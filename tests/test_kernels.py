"""Exponent kernels: minimal generators on both sides of the index size
selection, the index's memory, membership through the index, empty inputs,
exact large exponents, lcms and single-monomial colons against the
oracles, and colon residues against the generic colon and against
themselves with a cold prefix memo."""
import random
import time
import tracemalloc

import pytest

from semicurve import kernels
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import variable

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


def test_membership_matches_oracle_on_seeded_rows():
    # Targets are rows moved by -2..2 per coordinate, so they take values
    # absent from the index and values below every indexed value, around
    # 0 and around the 2**40 offsets alike.
    rng = random.Random(40965)
    kinds = set()   # (answer, a value absent from the index, a value below it)
    offsets = set()
    for count in [0, 1, 2, 16, 17, 120] + [rng.randint(0, 120) for _ in range(60)]:
        arity = rng.randint(1, 7)
        rows = _seeded_rows(rng, arity, count)
        contains = kernels.membership(rows)
        columns = [set(column) for column in zip(*rows)]
        for _ in range(50):
            base = rng.choice(rows) if rows else (0,) * arity
            target = tuple(v + rng.randint(-2, 2) for v in base)
            want = oracles.in_ideal(target, rows)
            assert contains(target) == want, (rows, target)
            if rows:
                kinds.add((want, any(t not in c for t, c in zip(target, columns)),
                           any(t < min(c) for t, c in zip(target, columns))))
                offsets.add(max(target) >= 1 << 40)
    # Both answers occur on targets with values absent from the index, and
    # misses on targets with a value below every indexed one.
    assert {want for want, absent, _ in kinds if absent} == {True, False}
    assert any(below and not want for want, _, below in kinds)
    assert offsets == {False, True}
    assert not kernels.membership([])((0, 0))


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
    divisor = MonomialIdeal(ideal.arity, [variable(ideal.arity, i) for i in indices])
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
            kernels._prefix_residues.cache_clear()
            cold.append(kernels.colon_residues(rows, span))
        orders = [list(range(len(spans))), list(range(len(spans)))[::-1]]
        orders.append(rng.choices(range(len(spans)), k=2 * len(spans)))
        for order in orders:
            kernels._prefix_residues.cache_clear()
            for k in order:
                got = kernels.colon_residues(list(rows), spans[k])
                assert got == cold[k], (rows, spans[k])
                got.append((7,) * arity)
                got.reverse()
                assert kernels.colon_residues(rows, spans[k]) == cold[k]


def test_colon_residues_long_walk():
    # A walk far longer than the memo is built from the bottom in steps,
    # so its depth is not bounded by the recursion limit.
    n = 2000
    assert kernels.colon_residues([(1,) * n], range(n)) == []
    n = 90
    squares = [tuple(2 if j == i else 0 for j in range(n)) for i in range(n)]
    assert kernels.colon_residues(squares, range(n)) == [(1,) * n]
    assert kernels.colon_residues(squares, range(n - 1, -1, -1)) == [(1,) * n]
