"""Ratliff-Rush closedness probing for monomial ideals.

The Ratliff-Rush closure of a regular ideal I is the union of the colon
ideals I^(k+1) : I^k over all k >= 1; I is closed when the union adds
nothing.  A closed verdict is always labelled evidence: the chain
inspects finitely many depths, and where the bounded test below proves
more, the reports do not say so yet.  A not-closed verdict,
by contrast, is final: it carries a witness monomial that certify_witness
re-checks with two membership engines, the divisibility scan over the
built powers and the generic colon, neither of which found it.

For ideals primary to the maximal monomial ideal one membership pass
decides the chain.  Take s in J_k = I^(k+1) : I^k outside I and multiply
it by variables while the product stays outside I: the walk stays in the
ideal J_k, and since only finitely many monomials lie outside I it ends
at one that every variable pushes into I, a minimal generator of
I : (all variables) outside I.  socle_probe tests exactly those
candidates, and rr_chain reads J_k = I off its table wherever no
candidate passes.  Only a depth where one passes, or an ideal that is
not primary, pays for the generic colon.

The chain ascends, J_1 <= J_2 <= ... (s * I^k <= I^(k+1) gives
s * I^(k+1) <= I^(k+2)), so each row of the table is False up to some
depth and True from there on.

The bounded test settles most rows with at most one pure-power query per
variable.  Let x_i^a be the pure power of x_i among the generators, s
the degree of a candidate c in the other variables, and
K = max(1, s - 1).  If c lies in the closure, then c lies in J_k for
every large k (the chain ascends), so c * x_i^(ak) lies in I^(k+1).
Every generator but x_i^a uses some x_j with j != i, so a product of
k + 1 generators dividing c * x_i^(ak) has at most s factors other than
x_i^a, and while k >= s one factor x_i^a cancels: c * x_i^(a(k-1)) lies
in I^k.  Descending, c * x_i^(aK) lies in I^(K+1) (Ratliff-Rush's union
and the chain argument that Heinzer, Lantz and Shah build on).  So if it
does not, for some i, c lies in no J_k and its row is False at every
depth.  socle_probe asks at min(K, depth) instead, so that no query
reaches past I^(depth+1): c in J_depth would put c * x_i^(a*depth) in
I^(depth+1) too, so a failure there still makes the row False.  Every
candidate of the acceptance corpus is refuted, 96% of them at K = 1, so
no closed corpus ideal builds a power.  Where K <= depth the refutation
holds at every depth, but the verdict keeps the CLOSED_EVIDENCE label
until the reports carry a flag for proved ideals.

A candidate that no pure power refutes is tested per depth, from the top
depth down: one failed test there decides the whole row.  A test at
depth k asks whether c * g lies in I^(k+1) for every generator g of I^k,
through kernels.power_membership, which reads only the generators of I:
m lies in I^(k+1) iff some generator h of I divides m with m - h in I^k.
The test reads the rows of I^k from PowerCache, which builds no power
beyond the budget MAX_POWER_PRODUCTS.  The powers are kept as plain
kernel rows, which only the generic colon wraps in MonomialIdeals.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add, itemgetter

from semicurve import kernels
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import descending


class Verdict(Enum):
    CLOSED_EVIDENCE = "CLOSED_EVIDENCE"
    NOT_CLOSED = "NOT_CLOSED"


# input budget on the powers built: I^k is the product of the rows of
# I^(k-1) with the n generators, and PowerCache.get refuses to form more
# than this many products for one power.  The corpus builds no power at
# depths up to cli.MAX_DEPTH; the most the tests form for one power is
# 15,730, for I^3 of the 55-generator ideal whose I^4 the budget refuses
# (286 rows of I^2 times 55).
MAX_POWER_PRODUCTS = 20_000


class PowerCache:
    """Lazily extended list of the powers I^k, k >= 1, of a fixed ideal, as
    minimal kernel rows, and the generic colons I^(k+1) : I^k taken over
    them.  A power is never emitted and its order never read, so only the
    colon wraps rows in a MonomialIdeal.  pure holds the _pure_powers of
    the ideal, scanned once for the stage that shares the cache."""

    __slots__ = ("ideal", "pure", "_powers", "_colons")

    def __init__(self, ideal):
        self.ideal = ideal
        self.pure = _pure_powers(ideal)
        self._powers = [None, ideal.gens]
        self._colons = {}

    def get(self, k):
        if k < 1:
            raise ValueError(f"power index must be at least 1, got {k}")
        gens = self.ideal.gens
        while len(self._powers) <= k:
            products = len(self._powers[-1]) * len(gens)
            if products > MAX_POWER_PRODUCTS:
                raise UserInputError(
                    f"I^{len(self._powers)} of an ideal with {len(gens)} generators takes "
                    f"{products:,} products, more than the budget of {MAX_POWER_PRODUCTS:,}")
            self._powers.append(kernels.pairwise_product(self._powers[-1], gens))
        return self._powers[k]

    def colon(self, k):
        """The generic colon I^(k+1) : I^k, computed once per k."""
        if k not in self._colons:
            arity, weights = self.ideal.arity, self.ideal.weights
            high, low = (MonomialIdeal(arity, self.get(j), weights=weights, _minimal=True)
                         for j in (k + 1, k))
            self._colons[k] = high.colon(low)
        return self._colons[k]


def _pure_powers(ideal):
    """{i: a} for each pure power x_i^a among the generators."""
    pure = {}
    for g in ideal.gens:
        a = max(g)
        if a and sum(g) == a:   # one nonzero exponent
            pure[g.index(a)] = a
    return pure


def reduce_variables(ideal):
    """Drop variables unused by every generator; return (ideal, dropped).

    Closedness verdicts are invariant under this projection.  At least one
    variable is always kept so the ring stays nontrivial."""
    used = [i for i in range(ideal.arity) if any(g[i] > 0 for g in ideal.gens)]
    if not used:
        used = [0]
    if len(used) == ideal.arity:
        return ideal, ()
    dropped = tuple(i for i in range(ideal.arity) if i not in used)
    gens = [tuple(g[i] for i in used) for g in ideal.gens]
    weights = None if ideal.weights is None else tuple(ideal.weights[i] for i in used)
    return MonomialIdeal(len(used), gens, weights=weights, _minimal=True), dropped


def _socle_walk(ideal):
    """Minimal generators of I : (all variables) that are not in I: the
    finite candidate set for closure elements outside I when I is primary
    to the maximal ideal (socle_probe checks that first)."""
    return descending(kernels.colon_residues(ideal.gens, range(ideal.arity)), ideal.weights)


def scaled_in_power(mono, rows_k, rows_k1):
    """True iff mono * I^k is contained in I^(k+1), given their rows
    (divisibility scans).  The products are formed lazily, so the scan
    stops at the first miss."""
    return kernels.all_divisible((tuple(map(add, mono, g)) for g in rows_k), rows_k1)


def _refuted(c, pure, contains, depth):
    """The bounded test: True iff c * x_i^(a*K) lies outside I^(K+1) for
    some variable x_i, where x_i^a is the pure power of I (a = pure[i]),
    K = min(max(1, s - 1), depth) and s is the degree of c in the other
    variables.  Then c lies in no J_k with k <= depth, and in no J_k at
    all when s - 1 <= depth (see the module docstring).  contains is the
    power_membership predicate of I.  The variables are tried from the
    largest exponent of c down, whose K is the smallest."""
    total = sum(c)
    for i in sorted(range(len(c)), key=c.__getitem__, reverse=True):
        k = min(max(1, total - c[i] - 1), depth)
        if not contains(c[:i] + (c[i] + pure[i] * k,) + c[i + 1:], k + 1):
            return True
    return False


def certify_witness(ideal, witness, k, powers):
    """Re-verify a not-closed witness with both membership engines: it must
    lie outside I, scale I^k into I^(k+1) by the divisibility scan over the
    built powers, and lie in the generic colon I^(k+1) : I^k, which powers
    computes once per k.  socle_probe finds witnesses with neither engine."""
    if witness in ideal:
        raise InternalCheckError("witness lies in the ideal")
    if not scaled_in_power(witness, powers.get(k), powers.get(k + 1)):
        raise InternalCheckError(f"witness fails the depth-{k} product check")
    if witness not in powers.colon(k):
        raise InternalCheckError(f"witness fails the depth-{k} colon membership")


@dataclass(frozen=True)
class RRChainReport:
    ideal: MonomialIdeal
    depth: int
    chain: tuple            # J_k = I^(k+1) : I^k for k = 1..depth
    chain_equal: tuple      # J_k == I per k
    stabilized_at: int | None
    verdict: Verdict
    witness: tuple | None = None
    witness_depth: int | None = None


def rr_chain(ideal, depth, powers=None, probe=None):
    """Compute the colon chain J_k = I^(k+1) : I^k for k = 1..depth.

    Given the socle probe of the same ideal and depth, J_k is I at every
    depth where no candidate passes (see the module docstring).  Every
    other J_k is the generic colon, which must differ from I where a
    candidate passes.  Verdict is CLOSED_EVIDENCE iff every J_k equals I
    (evidence only: deeper colons could still grow), NOT_CLOSED with a
    certified witness as soon as some J_k is strictly larger.  The chain
    must ascend and start at or above I; violations are internal errors."""
    if depth < 1:
        raise UserInputError("chain depth must be at least 1")
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("colon chain needs a proper nonzero ideal")
    if powers is None:
        powers = PowerCache(ideal)
    # per depth: does some candidate pass there (always asked without a probe)
    grown = ((True,) * depth if probe is None
             else tuple(map(any, zip(*probe.membership_table))) or (False,) * depth)
    chain = []
    for k in range(1, depth + 1):
        if grown[k - 1]:
            j_k = powers.colon(k)
            if probe is not None and j_k == ideal:
                raise InternalCheckError(f"a socle candidate passes at depth {k} but J_{k} = I")
        else:
            j_k = ideal
        below = ideal if not chain else chain[-1]
        if below is not j_k and not below.is_subset_of(j_k):
            raise InternalCheckError(f"colon chain not ascending at depth {k}")
        chain.append(j_k)
    chain = tuple(chain)
    chain_equal = tuple(j is ideal or j == ideal for j in chain)

    stabilized_at = None
    for k in range(depth, 0, -1):
        if chain[k - 1] == chain[depth - 1]:
            stabilized_at = k
        else:
            break

    witness = witness_depth = None
    if all(chain_equal):
        verdict = Verdict.CLOSED_EVIDENCE
    else:
        verdict = Verdict.NOT_CLOSED
        witness_depth = chain_equal.index(False) + 1
        grown = chain[witness_depth - 1]
        witness = next(g for g in grown.gens if g not in ideal)
        certify_witness(ideal, witness, witness_depth, powers)
    return RRChainReport(ideal, depth, chain, chain_equal, stabilized_at,
                         verdict, witness, witness_depth)


@dataclass(frozen=True)
class SocleProbeReport:
    ideal: MonomialIdeal
    depth: int
    candidates: tuple            # socle-complement monomials, fixed order
    membership_table: tuple      # per candidate: c * I^k <= I^(k+1) for k = 1..depth
    verdict: Verdict
    witness: tuple | None = None
    witness_depth: int | None = None
    degenerate: bool = False     # unit monomial among candidates (I : vars = (1))


def socle_probe(ideal, depth, powers=None, candidates=None):
    """Probe every socle-complement candidate against the colon chain.

    A candidate passing c * I^k <= I^(k+1) at any k <= depth lies in the
    closure but not in I, so the verdict is NOT_CLOSED with that witness.
    If all candidates fail at every probed depth the finite filter is
    passed and the verdict is CLOSED_EVIDENCE.  The table is the stage's
    one membership pass: rr_chain reads J_k = I off it.

    First the bounded test (_refuted) asks, for each variable x_i with
    pure power x_i^a, whether c * x_i^(aK) lies in I^(K+1), with
    K = min(max(1, s - 1), depth) and s the degree of c outside x_i.  If
    not, c lies in no J_k with k <= depth, and in no J_k at all when
    s - 1 <= depth, since a factor x_i^a of any product of more than s
    generators dividing c * x_i^(ak) cancels (see the module docstring):
    its row is all False with no per-depth test.  Every other row is
    filled from the top depth down: a candidate that fails at depth fails
    at every lower depth, and one that passes is tested one depth lower
    until a test fails, so every row is exact.  One power_membership
    predicate serves every test, which reads the rows of I^k from powers.

    candidates, when given, must equal _socle_walk(ideal), the minimal
    generators of I : (all variables) outside I (survey.run_instance passes
    its colon by x1..xn).  Otherwise they are walked here, after a check
    that I is primary to the maximal ideal, without which they need not
    be finite.  The bounded test reads the pure powers off powers.pure."""
    if depth < 1:
        raise UserInputError("probe depth must be at least 1")
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("socle probe needs a proper nonzero ideal")
    if powers is None:
        powers = PowerCache(ideal)
    pure = powers.pure
    if candidates is None:
        missing = next((i for i in range(ideal.arity) if i not in pure), None)
        if missing is not None:
            raise UserInputError(
                f"ideal is not primary to the maximal ideal: no pure power of x{missing}")
        candidates = _socle_walk(ideal)
    degenerate = (0,) * ideal.arity in candidates
    contains = kernels.power_membership(ideal.gens)

    def passes(c, k):   # c * I^k <= I^(k+1)
        return all(contains(tuple(map(add, c, g)), k + 1) for g in powers.get(k))

    table = []
    for c in candidates:
        if _refuted(c, pure, contains, depth):
            table.append((False,) * depth)
            continue
        k = depth
        while k and passes(c, k):
            k -= 1
        table.append((False,) * k + (True,) * (depth - k))
    table = tuple(table)

    witness = witness_depth = None
    verdict = Verdict.CLOSED_EVIDENCE
    hits = [(row.index(True) + 1, c) for c, row in zip(candidates, table) if True in row]
    if hits:
        verdict = Verdict.NOT_CLOSED
        # hits follow the candidates, so min keeps the first at the least depth
        witness_depth, witness = min(hits, key=itemgetter(0))
        certify_witness(ideal, witness, witness_depth, powers)
    return SocleProbeReport(ideal, depth, candidates, table, verdict,
                            witness, witness_depth, degenerate)


def run_stage(ideal, depth, candidates=None):
    """The Ratliff-Rush stage: (chain, probe) over one shared PowerCache.

    The probe runs first, and only when the ideal is primary to the
    maximal ideal, which for a monomial ideal means that every variable
    has a pure power among the generators; otherwise it is None.
    rr_chain reads its membership table.  The zero and unit ideals are
    not primary, so rr_chain rejects them.

    The chain decides the stage's verdict, and the probe cannot disagree
    with it: rr_chain takes J_k = I at every depth where no candidate
    passes, and at a depth where one passes it takes the generic colon
    and raises InternalCheckError if that colon is I.  So the chain is
    NOT_CLOSED exactly when some table entry is True, which is exactly
    when the probe is, and both witnesses sit at the first such depth.
    candidates goes to socle_probe as it is.  The probe and the chain
    share one PowerCache, which scans the generators for pure powers once,
    for the primary test and the probe's bounded test both."""
    powers = PowerCache(ideal)
    probe = (socle_probe(ideal, depth, powers, candidates)
             if len(powers.pure) == ideal.arity else None)
    return rr_chain(ideal, depth, powers=powers, probe=probe), probe
