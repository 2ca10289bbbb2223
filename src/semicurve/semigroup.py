"""Numerical-semigroup side of the construction.

An instance is an arithmetic sequence m0 < m1 < ... < mp together with one
extra generator mn (n = p+1); the full list generates the numerical
semigroup the curve is modeled on.  This module provides the check of the
normal-form hypotheses, the g_t ladder, and the derivation of the
structure parameters (u, v, w, z, lam, mu, q, r, q_z, r_z, eps) from
residues against the arithmetic part.

The arithmetic part A = <m0, m0+d, ..., m0+pd> has a closed-form Apery
set.  A sum of k of its generators is k*m0 + j*d with 0 <= j <= k*p, so
the least element of A of the form c*m0 + j*d is the ladder value
g_j = ceil(j/p)*m0 + j*d.  With G = gcd(m0, d) and M = m0/G, the classes
j*d mod m0 for j in [0, M) are the M distinct multiples of G, and g_j
grows with j, so Ap(A, m0) = {g_j : 0 <= j < M}.  Hence x lies in A iff
G divides x mod m0 and x >= g_j, where j = (x mod m0)/G * (d/G)^-1 mod M.
Both `derive` and `validate` read A through these residues
(`_ArithmeticPart`), so neither builds a table.

`validate` decides minimal generation with them.  Let P = m0/gcd(m0, mn).
- m_i with i >= M is redundant: m_i = m_(i-M) + (d/G)*m0.  Conversely, a
  sum of k >= 2 generators of A equal to m_i forces (k-1)*m0 = (i-j)*d,
  so M divides i - j and i >= M.
- Otherwise m_i is redundant iff mn divides m_i, or m_i - b*mn lies in A
  for some 1 <= b <= min(P, (m_i - m0)//mn).  A remainder below m_i never
  uses m_i, a nonzero element of A is at least m0, and P*mn = lcm(m0, mn)
  lies in A, so a b > P reduces to b - P.  G divides m_i and A but is
  prime to mn, so only the multiples b of G need a test.
- mn is redundant iff it lies in A.
Past the budgets, only gcd 1 and minimal generation read mn, and
`_ArithmeticPart.extra_failure` decides both, so survey enumeration
builds A once per progression and asks that check once per mn; when
M <= p it rejects the whole progression without asking.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from semicurve.errors import InternalCheckError, UserInputError
from semicurve.monomials import WeightedGrevlexOrder

MAX_GENERATOR = 10 ** 6  # input budget: the b loops of derive and validate run up to m0 steps
# input budget: gb_verify reduces O(p^4) S-pairs of O(p^2) binomials; on
# 45, ..., 85; 87 (p = 40, 858 binomials) it takes about 0.5 s in process
MAX_P = 40


class _ArithmeticPart:
    """The closed-form Apery set of A = <m0, ..., mp> (see the module docstring)."""

    def __init__(self, arith):
        self.arith = arith
        self.m0, self.d, self.p = arith[0], arith[1] - arith[0], len(arith) - 1
        self.G = math.gcd(self.m0, self.d)
        self.M = self.m0 // self.G
        self.inv = pow(self.d // self.G, -1, self.M)

    def g(self, t):
        """The ladder value g_t = ceil(t/p)*m0 + t*d = q*mp + m_r, (q, r) = split(t)."""
        return -(-t // self.p) * self.m0 + t * self.d

    def split(self, t):
        """(q, r) with t = q*p + r and r in [1, p]; t = 0 gives (-1, p)."""
        q = -(-t // self.p) - 1
        return q, t - q * self.p

    def rung(self, x):
        """The j in [0, M) with x = j*d (mod m0), or None when G does not divide x mod m0."""
        res = x % self.m0
        if res % self.G:
            return None
        return res // self.G * self.inv % self.M

    def __contains__(self, x):
        j = self.rung(x)
        return j is not None and x >= self.g(j)

    def extra_failure(self, extra):
        """The first failure of gcd 1 and minimal generation for arith plus
        a positive extra, or None: the part of validate past its shape
        checks and budgets.  When M <= p every extra fails, at m_M if at
        no earlier m_i."""
        if math.gcd(self.G, extra) != 1:
            return "generators must have gcd 1"
        arith, m0, G, M = self.arith, self.m0, self.G, self.M
        P = m0 // math.gcd(m0, extra)
        for i, m in enumerate(arith[:M]):
            if m % extra == 0 or (m - m0 >= extra and any(
                    m - b * extra in self for b in range(G, min(P, (m - m0) // extra) + 1, G))):
                redundant = (f"m{i}", m)
                break
        else:
            if M <= self.p:
                redundant = (f"m{M}", arith[M])
            elif extra not in self:
                return None
            else:
                redundant = ("mn", extra)
        return "not minimally generated: %s = %d lies in the semigroup of the others" % redundant


class Case(enum.Enum):
    CASE1 = "CASE1"
    CASE2 = "CASE2"


@dataclass(frozen=True)
class CurveInstance:
    """Input sequence in normal form: arithmetic part plus extra generator.
    The fields are taken as given: arith a tuple of ints, extra an int."""

    arith: tuple
    extra: int

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

    @cached_property
    def _order(self):
        return WeightedGrevlexOrder(self.weights)

    def order(self):
        """The weighted grevlex order of the weights, built once per instance."""
        return self._order

    def text(self):
        return ",".join(str(m) for m in self.arith) + f";{self.extra}"

    @classmethod
    def parse(cls, text):
        """Read `m0,...,mp;mn`; malformed text raises UserInputError."""
        try:
            head, _, tail = text.strip().partition(";")
            arith = tuple(int(x) for x in head.split(","))
            extra = int(tail)
        except ValueError as exc:
            raise UserInputError(f"bad instance {text!r}; expected m0,m1,...,mp;mn") from exc
        return cls(arith, extra)


@dataclass(frozen=True)
class DerivedParams:
    """Structure parameters of an instance.

    u is the first rung of the g_t ladder outside S, the set of semigroup
    elements whose predecessor by m0 falls outside the semigroup; v the
    least multiple of the extra generator landing in the semigroup of the
    arithmetic part.  (w, lam) and (z, mu) are the unique solutions of
    g_u = lam*m0 + w*mn with w in [0, v), lam >= 1 and of v*mn = mu*m0 + g_z
    with z in [0, u), mu >= 0; (q, r) and (q_z, r_z) are the ladder splits
    of u and z.  eps is 1 when r <= r_z.  CASE2 means eps = q_z = 0.
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
    """Derive all structure parameters and verify the cross identity
    exactly.  Raises InternalCheckError if a parameter falls outside its
    range or the identity fails, which signals either a bug or an invalid
    instance that slipped past validation.

    All of them come from residues of the arithmetic part A = <m0, ..., mp>,
    whose Apery set is closed-form (see the module docstring).  v is the
    least b >= 1 with b*mn in A; b = m0 always qualifies.  Every g_t lies
    in A, so it falls outside S exactly when g_t - m0 lies in
    A + N*mn, that is when g_t - m0 - b*mn lies in A for some
    0 <= b < v (v*mn lies in A, so a larger b reduces to b - v).  b = 0
    first holds at t = M.  For 1 <= b < v, b*mn lies in the class of j*d
    for one j in [1, M), or in no class of A; g_t - m0 - b*mn lies in the
    class of (t - j)*d, so t < j fails (the Apery element of that class,
    g_(t-j+M), exceeds g_t), and for j <= t < M the test reads
    g_t - g_(t-j) >= m0 + b*mn, whose left side has period p in t: only
    t in [j, j + p) can be least.  So u = min(M, those t), in O(v*p)
    steps.

    g_z = z*d (mod m0), so v*mn = mu*m0 + g_z forces z = rung(v*mn)
    (mod M); as z < u <= M, z is that rung, and mu >= 0 as v*mn lies in A.
    With Gn = gcd(m0, mn) and P = m0/Gn, g_u = lam*m0 + w*mn forces
    w = (g_u/Gn) * (mn/Gn)^-1 (mod P), unique in [0, v) as v <= P
    (P*mn = lcm(m0, mn) lies in A)."""
    arith = instance.arith
    m0, mn, p = arith[0], instance.extra, instance.p
    A = _ArithmeticPart(arith)
    g = A.g

    u = A.M
    for b in range(1, m0 + 1):
        x = b * mn
        j = A.rung(x)
        if j is None:
            continue
        if x >= g(j):
            v, z = b, j
            break
        for t in range(j, min(j + p, u)):
            if g(t) - g(t - j) >= m0 + x:
                u = t
                break

    Gn = math.gcd(m0, mn)
    P = m0 // Gn
    w = g(u) // Gn * pow(mn // Gn, -1, P) % P
    lam, rem = divmod(g(u) - w * mn, m0)
    mu = (v * mn - g(z)) // m0
    if rem or w >= v or lam < 1 or z >= u:
        raise InternalCheckError(f"(w, lam) or (z, mu) out of range for {instance.text()}: "
                                 f"u={u}, v={v}, w={w}, lam={lam}, z={z}")
    q, r = A.split(u)
    q_z, r_z = A.split(z)

    r_uz = A.split(u - z)[1]
    lhs = g(u - z) + (v - w) * mn
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
    if not failures:
        if max(arith[-1], extra) > MAX_GENERATOR:
            failures.append(f"generators must not exceed {MAX_GENERATOR}")
        elif len(arith) - 1 > MAX_P:
            failures.append(f"p must not exceed {MAX_P}")
        elif failure := _ArithmeticPart(arith).extra_failure(extra):
            failures.append(failure)
    return ValidationReport(ok=not failures, failures=tuple(failures))
