"""Exponent kernels: minimal generators, empty inputs, exact large exponents."""
from semicurve import kernels


def test_minimalize_removes_multiples():
    rows = [(2, 0), (0, 2), (2, 1), (3, 3), (0, 2)]
    assert set(kernels.minimalize(rows)) == {(2, 0), (0, 2)}


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
