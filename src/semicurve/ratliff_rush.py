"""Ratliff-Rush closedness probing for monomial ideals.

The Ratliff-Rush closure of a regular ideal I is the union of the colon
ideals I^(k+1) : I^k over all k >= 1; I is closed when the union adds
nothing.  Only finitely many depths are ever inspected here, so a closed
verdict is always labelled evidence, never proof.  A not-closed verdict,
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
depth and True from there on.  socle_probe fills a row from the top
depth down: one failed test there decides the whole row, which is the
only test a closed ideal makes per candidate.  A test at depth k reads
only I and I^k, since m lies in I^(k+1) iff some generator h of I
divides m with m - h in I^k, decided by a divisibility index over the
rows of I^k (kernels.membership).  So probing a closed ideal to depth d
builds I^2..I^d and never I^(d+1).  The powers are kept as plain kernel
rows, which only the generic colon wraps in MonomialIdeals.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add, le, sub

from semicurve import kernels
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import mono_mul, unit


class Verdict(Enum):
    CLOSED_EVIDENCE = "CLOSED_EVIDENCE"
    NOT_CLOSED = "NOT_CLOSED"


class PowerCache:
    """Lazily extended list of the powers I^k, k >= 1, of a fixed ideal, as
    minimal kernel rows, and the generic colons I^(k+1) : I^k taken over
    them.  A power is never emitted and its order never read, so only the
    colon wraps rows in a MonomialIdeal."""

    __slots__ = ("ideal", "_powers", "_colons")

    def __init__(self, ideal):
        self.ideal = ideal
        self._powers = [None, ideal.gens]
        self._colons = {}

    def get(self, k):
        if k < 1:
            raise ValueError(f"power index must be at least 1, got {k}")
        while len(self._powers) <= k:
            self._powers.append(kernels.pairwise_product(self._powers[-1], self.ideal.gens))
        return self._powers[k]

    def colon(self, k):
        """The generic colon I^(k+1) : I^k, computed once per k."""
        if k not in self._colons:
            arity, weights = self.ideal.arity, self.ideal.weights
            high, low = (MonomialIdeal(arity, self.get(j), weights=weights, _minimal=True)
                         for j in (k + 1, k))
            self._colons[k] = high.colon(low)
        return self._colons[k]


def _missing_pure_power(ideal):
    """Index of a variable with no pure power among the generators, or None."""
    for i in range(ideal.arity):
        for g in ideal.gens:
            if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i):
                break
        else:
            return i
    return None


def primary_to_max(ideal):
    """True iff every variable has a pure power in the ideal.

    For monomial ideals this is equivalent to being primary to the maximal
    monomial ideal."""
    return _missing_pure_power(ideal) is None


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


def socle_complement(ideal):
    """Minimal generators of I : (all variables) that are not in I.

    This is the finite candidate set for closure elements outside I.
    Raises on ideals without a pure power of every variable, since the
    finiteness argument needs the quotient by I to have finite length."""
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("socle complement needs a proper nonzero ideal")
    missing = _missing_pure_power(ideal)
    if missing is not None:
        raise UserInputError(
            f"ideal is not primary to the maximal ideal: no pure power of x{missing}")
    residues = kernels.colon_residues(ideal.gens, range(ideal.arity))
    return MonomialIdeal(ideal.arity, residues, weights=ideal.weights, _minimal=True).gens


def scaled_in_power(mono, rows_k, rows_k1):
    """True iff mono * I^k is contained in I^(k+1), given their rows
    (divisibility scans).  The products are formed lazily, so the scan
    stops at the first miss."""
    return kernels.all_divisible((mono_mul(mono, g) for g in rows_k), rows_k1)


def _scaled_in_next_power(mono, rows_k, in_k, gens):
    """True iff mono * I^k is contained in I^(k+1), read from I = (gens),
    the rows of I^k and in_k, membership in I^k: m lies in I^(k+1) iff
    some h in gens divides m with m - h in I^k.  I^(k+1) is never formed,
    and the scan stops at the first row of I^k whose product misses."""
    for g in rows_k:
        m = tuple(map(add, mono, g))
        for h in gens:
            if all(map(le, h, m)) and in_k(tuple(map(sub, m, h))):
                break
        else:
            return False
    return True


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
    chain = []
    for k in range(1, depth + 1):
        if probe is None or any(row[k - 1] for row in probe.membership_table):
            j_k = powers.colon(k)
            if probe is not None and j_k == ideal:
                raise InternalCheckError(f"a socle candidate passes at depth {k} but J_{k} = I")
        else:
            j_k = ideal
        below = ideal if not chain else chain[-1]
        if not below.is_subset_of(j_k):
            raise InternalCheckError(f"colon chain not ascending at depth {k}")
        chain.append(j_k)
    chain = tuple(chain)
    chain_equal = tuple(j == ideal for j in chain)

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


def socle_probe(ideal, depth, powers=None):
    """Probe every socle-complement candidate against the colon chain.

    A candidate passing c * I^k <= I^(k+1) at any k <= depth lies in the
    closure but not in I, so the verdict is NOT_CLOSED with that witness.
    If all candidates fail at every probed depth the finite filter is
    passed and the verdict is CLOSED_EVIDENCE.  The table is the stage's
    one membership pass: rr_chain reads J_k = I off it.

    Each row is filled from the top depth down: a candidate that fails at
    depth fails at every lower depth, and one that passes is tested one
    depth lower until a test fails, so every row is exact (see the module
    docstring).  The membership index of I^k is built once per depth, at
    its first test."""
    if depth < 1:
        raise UserInputError("probe depth must be at least 1")
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("socle probe needs a proper nonzero ideal")
    if powers is None:
        powers = PowerCache(ideal)
    candidates = socle_complement(ideal)
    degenerate = unit(ideal.arity) in candidates
    members = {}     # k -> membership in I^k, built at the first test at k

    def passes(c, k):
        if k not in members:
            members[k] = kernels.membership(powers.get(k))
        return _scaled_in_next_power(c, powers.get(k), members[k], ideal.gens)

    table = []
    for c in candidates:
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
        witness_depth, witness = min(hits, key=lambda t: (t[0], candidates.index(t[1])))
        certify_witness(ideal, witness, witness_depth, powers)
    return SocleProbeReport(ideal, depth, candidates, table, verdict,
                            witness, witness_depth, degenerate)


def overall_verdict(chain, probe=None):
    """The single Ratliff-Rush verdict rule: (verdict, witness, witness_depth).

    NOT_CLOSED with the chain's witness if the chain certified one, else
    NOT_CLOSED with the probe's witness if the probe certified one, else
    CLOSED_EVIDENCE.  A missing probe (ideal not primary to the maximal
    ideal) leaves the chain's verdict; the probe-only report passes no
    chain."""
    for side in (chain, probe):
        if side is not None and side.witness is not None:
            return Verdict.NOT_CLOSED, side.witness, side.witness_depth
    return Verdict.CLOSED_EVIDENCE, None, None


def verdict_payload(depth, chain=None, probe=None):
    """JSON-ready verdict report for the rr (chain plus probe) and probe
    (probe only) commands: chain_equal appears only with a chain, the
    probe fields are empty without a probe, and the witness only on
    NOT_CLOSED."""
    verdict, witness, witness_depth = overall_verdict(chain, probe)
    payload = {
        "depth": depth,
        "verdict": verdict.value,
        "socle_candidates": [] if probe is None else [list(c) for c in probe.candidates],
        "membership_table": [] if probe is None else [[bool(b) for b in row]
                                                      for row in probe.membership_table],
    }
    if chain is not None:
        payload["chain_equal"] = [bool(b) for b in chain.chain_equal]
    if witness is not None:
        payload["witness"] = list(witness)
        payload["witness_depth"] = witness_depth
    return payload


def run_stage(ideal, depth):
    """The Ratliff-Rush stage: (chain, probe) over one shared PowerCache.

    The probe runs first, and only when the ideal is primary to the
    maximal ideal, otherwise it is None; rr_chain reads its membership
    table.  The zero and unit ideals are not primary, so rr_chain rejects
    them."""
    powers = PowerCache(ideal)
    probe = socle_probe(ideal, depth, powers=powers) if primary_to_max(ideal) else None
    return rr_chain(ideal, depth, powers=powers, probe=probe), probe


def combined_report(ideal, depth):
    """The rr command's verdict_payload: chain plus probe from run_stage."""
    return verdict_payload(depth, *run_stage(ideal, depth))
