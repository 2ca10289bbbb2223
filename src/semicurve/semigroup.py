"""Numerical-semigroup side of the construction.

An instance is an arithmetic sequence m0 < m1 < ... < mp together with one
extra generator mn (n = p+1); the full list generates the numerical
semigroup the curve is modeled on.  This module provides exact membership,
the g_t ladder, the set S of semigroup elements whose predecessor by m0
falls outside, and the derivation of the structure parameters (u, v, w, z,
lam, mu, q, r, q_z, r_z, eps) with exhaustive uniqueness verification.

Membership goes through the Apery set Ap(S, m) of the least generator m:
its entry for residue i is the least element of S congruent to i mod m, so
x lies in S iff x >= Ap[x mod m].  The set is built by the round-robin
algorithm of Boecker and Liptak (Algorithmica 48, 2007) in O(k*m) integer
steps for k generators.  A residue class that no combination reaches keeps
an infinite sentinel: the arithmetic part alone may have gcd > 1.  Below
2*m the only elements are 0 and the generators themselves, so `member`
answers such queries without building a set.  `validate` bounds every
generator by MAX_GENERATOR, which bounds the length of every Apery set.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from semicurve.errors import InternalCheckError
from semicurve.monomials import WeightedGrevlexOrder

MAX_GENERATOR = 10 ** 6  # an Apery set is a list as long as the least generator


class SemigroupMembership:
    """Apery set of one generator tuple with respect to its least generator.

    `apery[i]` is the least semigroup element congruent to i modulo
    `generators[0]`, or `math.inf` when the generators reach no element of
    that class.  Round robin (Boecker & Liptak 2007): each further generator
    a splits the residues into gcd(a, m) cycles of step a; each cycle is
    walked once from its least entry, and every step continues from the
    smaller of the value carried along and the value already stored.
    """

    def __init__(self, generators):
        gens = tuple(sorted({int(g) for g in generators}))
        if not gens or gens[0] <= 0:
            raise ValueError("generators must be positive integers")
        self.generators = gens
        m = gens[0]
        apery = [math.inf] * m
        apery[0] = 0
        for a in gens[1:]:
            d = math.gcd(a, m)
            for start in range(d):
                n = min(apery[start::d])
                if n == math.inf:
                    continue
                for _ in range(m // d - 1):
                    n += a
                    r = n % m
                    if apery[r] < n:
                        n = apery[r]
                    else:
                        apery[r] = n
        self.apery = apery

    def member(self, x):
        return x >= 0 and x >= self.apery[x % len(self.apery)]


@lru_cache(maxsize=64)
def _membership_table(gens):
    return SemigroupMembership(gens)


def member(generators, x):
    """True iff x is a nonnegative integer combination of the generators."""
    gens = tuple(sorted(set(generators)))
    if gens and gens[0] > 0 and x < 2 * gens[0]:
        return x == 0 or x in gens
    return _membership_table(gens).member(x)


def t_decompose(t, arith):
    """Split t >= 0 as q*p + r with r in [1, p] and return (q, r, g) where
    g = q*m_p + m_r against the arithmetic part.  t = 0 yields q = -1,
    r = p, g = 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    p = len(arith) - 1
    if p < 1:
        raise ValueError("arithmetic part needs at least two entries")
    q = -(-t // p) - 1
    r = t - q * p
    g = q * arith[p] + arith[r]
    return q, r, g


class Case(enum.Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"


@dataclass(frozen=True)
class CurveInstance:
    """Input sequence in normal form: arithmetic part plus extra generator."""

    arith: tuple
    extra: int

    def __post_init__(self):
        object.__setattr__(self, "arith", tuple(int(m) for m in self.arith))
        object.__setattr__(self, "extra", int(self.extra))

    @property
    def p(self):
        return len(self.arith) - 1

    @property
    def n(self):
        return self.p + 1

    @property
    def weights(self):
        """Grading weights (m0, ..., mp, mn) for variables x0 .. xn."""
        return self.arith + (self.extra,)

    @property
    def arity(self):
        return self.n + 1

    def order(self):
        return WeightedGrevlexOrder(self.weights)

    def text(self):
        return ",".join(str(m) for m in self.arith) + f";{self.extra}"

    @classmethod
    def parse(cls, text):
        try:
            head, _, tail = text.strip().partition(";")
            arith = tuple(int(x) for x in head.split(","))
            extra = int(tail)
        except ValueError as exc:
            raise ValueError(f"bad instance {text!r}; expected m0,m1,...,mp;mn") from exc
        return cls(arith, extra)


def in_S(instance, gamma):
    """gamma lies in the semigroup but gamma - m0 does not."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    gens = instance.weights
    return member(gens, gamma) and not member(gens, gamma - instance.arith[0])


@dataclass(frozen=True)
class DerivedParams:
    """Structure parameters of an instance.

    u is the first rung of the g_t ladder outside S; v the least multiple
    of the extra generator landing in the semigroup of the arithmetic
    part.  (w, lam) and (z, mu) are the unique solutions of
    g_u = lam*m0 + w*mn and v*mn = mu*m0 + g_z over their stated ranges;
    (q, r) and (q_z, r_z) are the ladder splits of u and z.  eps is 1 when
    r <= r_z.  CASE2 means eps = q_z = 0.
    """

    u: int
    v: int
    w: int
    z: int
    lam: int
    mu: int
    q: int
    r: int
    q_z: int
    r_z: int
    eps: int
    case: Case

    def to_dict(self):
        d = {f: getattr(self, f) for f in
             ("u", "v", "w", "z", "lam", "mu", "q", "r", "q_z", "r_z", "eps")}
        d["case"] = self.case.value
        return d


def derive(instance):
    """Derive all structure parameters, verifying uniqueness and the
    cross identity exactly.  Raises InternalCheckError if a search cap is
    exceeded or a uniqueness/identity check fails, which signals either a
    bug or an invalid instance that slipped past validation."""
    arith = instance.arith
    m0, mn, p = arith[0], instance.extra, instance.p
    full = instance.weights

    u = None
    cap = p * (m0 + mn) * 4
    for t in range(cap + 1):
        _, _, g = t_decompose(t, arith)
        if not in_S(instance, g):
            u = t
            break
    if u is None:
        raise InternalCheckError(f"no ladder value outside S within cap {cap}")

    v = None
    for b in range(1, m0 + 1):
        if member(arith, b * mn):
            v = b
            break
    if v is None:
        raise InternalCheckError(f"no multiple of {mn} in the arithmetic-part semigroup up to {m0}")

    q, r, g_u = t_decompose(u, arith)

    sols = [(w, (g_u - w * mn) // m0) for w in range(v)
            if g_u - w * mn >= m0 and (g_u - w * mn) % m0 == 0]
    if len(sols) != 1:
        raise InternalCheckError(f"(w, lam) solutions for {instance.text()}: {sols}")
    w, lam = sols[0]

    sols = []
    for z in range(u):
        q_z, r_z, g_z = t_decompose(z, arith)
        rem = v * mn - g_z
        if rem >= 0 and rem % m0 == 0:
            sols.append((z, rem // m0, q_z, r_z))
    if len(sols) != 1:
        raise InternalCheckError(f"(z, mu) solutions for {instance.text()}: {sols}")
    z, mu, q_z, r_z = sols[0]

    _, r_uz, g_uz = t_decompose(u - z, arith)
    lhs = g_uz + (v - w) * mn
    rhs = (lam + mu + 1) * m0 if r_uz < r else (lam + mu) * m0
    if lhs != rhs:
        raise InternalCheckError(f"cross identity failed for {instance.text()}: {lhs} != {rhs}")

    eps = 1 if r <= r_z else 0
    case = Case.CASE2 if eps == 0 and q_z == 0 else Case.CASE1
    return DerivedParams(u=u, v=v, w=w, z=z, lam=lam, mu=mu, q=q, r=r,
                         q_z=q_z, r_z=r_z, eps=eps, case=case)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple

    @property
    def first(self):
        return self.failures[0] if self.failures else None


def validate(arith, extra):
    """Check the normal-form hypotheses; failures are reported, not raised."""
    arith = tuple(int(m) for m in arith)
    extra = int(extra)
    failures = []
    if len(arith) < 2:
        failures.append("arithmetic part must have at least two entries (p >= 1)")
    if any(m <= 0 for m in arith) or extra <= 0:
        failures.append("all generators must be positive")
    if not failures:
        if any(b <= a for a, b in zip(arith, arith[1:])):
            failures.append("arithmetic part must be strictly increasing")
        else:
            d = arith[1] - arith[0]
            if any(b - a != d for a, b in zip(arith, arith[1:])):
                failures.append("arithmetic part must have a constant common difference")
    if not failures and max(arith[-1], extra) > MAX_GENERATOR:
        failures.append(f"generators must not exceed {MAX_GENERATOR}")
    if not failures:
        full = arith + (extra,)
        if math.gcd(*full) != 1:
            failures.append("generators must have gcd 1")
        else:
            for i, g in enumerate(full):
                others = full[:i] + full[i + 1:]
                if member(others, g):
                    name = f"m{i}" if i < len(arith) else "mn"
                    failures.append(
                        f"not minimally generated: {name} = {g} lies in the semigroup of the others")
                    break
    return ValidationReport(ok=not failures, failures=tuple(failures))
