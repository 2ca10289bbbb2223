"""Defining ideals of monomial curves over almost-arithmetic sequences:
binomial generators, Groebner verification under a weighted grevlex
order, and Ratliff-Rush closedness probing of the initial ideal."""

from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.kernels import BACKEND
from semicurve.monomials import WeightedGrevlexOrder, format_monomial
from semicurve.semigroup import CurveInstance, DerivedParams, derive, validate

__version__ = "1.0.0"

__all__ = [
    "BACKEND",
    "CurveInstance",
    "DerivedParams",
    "InternalCheckError",
    "MonomialIdeal",
    "UserInputError",
    "WeightedGrevlexOrder",
    "derive",
    "format_monomial",
    "validate",
    "__version__",
]
