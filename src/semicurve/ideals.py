"""Monomial ideals in canonical minimal-generator form.

A MonomialIdeal stores the unique minimal monomial generating set: no
generator divides another.  The zero ideal has no generators; the unit
ideal is generated by 1.  Generators are kept in a deterministic order,
descending under the attached weighted grevlex grading (unit weights when
none are attached), which makes equality a plain field comparison and all
serializations byte-stable.

All operations are pure; the heavy lifting (divisibility scans, pairwise
expansions) is delegated to semicurve.kernels.
"""
from __future__ import annotations

import json

from semicurve import kernels
from semicurve.errors import UserInputError
from semicurve.monomials import descending, format_monomial


class MonomialIdeal:
    """Minimal monomial generators of an ideal in k variables."""

    __slots__ = ("arity", "gens", "weights")

    def __init__(self, arity, gens, weights=None, _minimal=False):
        gens = [tuple(g) for g in gens]
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != arity:
                raise ValueError("weights arity mismatch")
            if min(weights, default=1) <= 0:
                raise ValueError("weights must be positive integers")
        if not _minimal:
            for g in gens:
                if len(g) != arity:
                    raise ValueError(f"generator arity {len(g)} != ideal arity {arity}")
                if min(g, default=0) < 0:
                    raise ValueError(f"negative exponent in generator {g}")
            gens = kernels.minimalize(gens)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "gens", descending(gens, weights))
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialIdeal is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_json(cls, text):
        """Read ``{"arity": k, "gens": [[e0, ...], ...]}``.  A malformed
        ideal raises UserInputError; the constructor rejects negative
        exponents."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise UserInputError('expected an object {"arity": k, "gens": [...]}')
        arity, gens = data.get("arity"), data.get("gens")
        if type(arity) is not int or arity < 1:
            raise UserInputError(f"arity must be a positive integer, got {arity!r}")
        if not isinstance(gens, list) or not all(
                isinstance(g, list) and len(g) == arity for g in gens):
            raise UserInputError(f"gens must be a list of exponent lists of length {arity}")
        for g in gens:
            if not all(type(e) is int for e in g):
                raise UserInputError(f"exponents must be integers, got {g}")
        return cls(arity, gens)

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.gens

    @property
    def is_unit(self):
        return len(self.gens) == 1 and not any(self.gens[0])

    def __contains__(self, m):
        """Membership: true iff some generator divides m."""
        if len(m) != self.arity:
            raise ValueError(f"arity mismatch: monomial {len(m)} vs ideal {self.arity}")
        return kernels.divides_any(self.gens, tuple(m))

    def is_subset_of(self, other):
        """Ideal containment: every generator of self lies in other."""
        self._check(other)
        return kernels.all_divisible(self.gens, other.gens)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def _make(self, rows):
        return MonomialIdeal(self.arity, rows, weights=self.weights, _minimal=True)

    def product(self, other):
        self._check(other)
        return self._make(kernels.pairwise_product(self.gens, other.gens))

    def colon(self, other):
        """(self : other), the intersection over other's generators of the
        single-monomial colons.  The zero divisor is rejected."""
        self._check(other)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is undefined")
        result = None
        for g in other.gens:
            single = kernels.colon_by_monomial(self.gens, g)
            result = single if result is None else kernels.pairwise_lcm(result, single)
        return self._make(result)

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.arity == other.arity and set(self.gens) == set(other.gens)

    def __hash__(self):
        return hash((self.arity, frozenset(self.gens)))

    def __repr__(self):
        if self.is_zero:
            return f"MonomialIdeal({self.arity}, 0)"
        inner = ", ".join(format_monomial(g) for g in self.gens)
        return f"MonomialIdeal({self.arity}, ({inner}))"
