"""Exponent kernels: minimal generators, empty inputs, exact large exponents,
and colon residues against the generic colon."""
import random

import pytest

from semicurve import kernels
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import variable


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
