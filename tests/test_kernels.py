"""Exponent kernels: minimal generators on both sides of the index size
selection, the index's memory, empty inputs, exact large exponents, and
colon residues against the generic colon."""
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


def test_pairwise_product_matches_oracle():
    rng = random.Random(40962)
    for _ in range(40):
        arity = rng.randint(1, 5)
        rows_a = _seeded_rows(rng, arity, rng.randint(0, 20))
        rows_b = _seeded_rows(rng, arity, rng.randint(1, 12))
        got = kernels.pairwise_product(rows_a, rows_b)
        assert got == _degree_order(oracles.minimal(oracles.product_gens(rows_a, rows_b)))


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
