"""Ratliff-Rush closedness probing for monomial ideals.

The Ratliff-Rush closure of a regular ideal I is the union of the colon
ideals I^(k+1) : I^k over all k >= 1; I is closed when the union adds
nothing.  Only finitely many depths are ever inspected here, so a closed
verdict is always labelled evidence, never proof.  A not-closed verdict,
by contrast, is final: it carries a witness monomial whose membership in
some I^(k+1) : I^k is re-certified by the generic colon.

For ideals primary to the maximal monomial ideal the standard monomials
(those outside I) are finitely many, and every generator of I^(k+1) : I^k
outside I is one of them; rr_chain builds the chain from a membership
test per standard monomial, as long as there are no more of them than
the generic colon would form quotients.  There is also a smaller
candidate set: any element of the closure outside I can be multiplied up
to one that every variable pushes into I.  socle_probe checks exactly
those candidates against the colon chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice

from semicurve import kernels
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import mono_mul, unit


class Verdict(Enum):
    CLOSED_EVIDENCE = "CLOSED_EVIDENCE"
    NOT_CLOSED = "NOT_CLOSED"


class PowerCache:
    """Lazily extended list of powers of a fixed ideal.  I^0, the unit
    ideal, is built on demand: its size grows with the arity, and a zero
    ideal from JSON input may have any arity."""

    __slots__ = ("ideal", "_powers")

    def __init__(self, ideal):
        self.ideal = ideal
        self._powers = [None, ideal]

    def get(self, k):
        if k == 0:
            return MonomialIdeal.unit(self.ideal.arity, weights=self.ideal.weights)
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1].product(self.ideal))
        return self._powers[k]


def _missing_pure_power(ideal):
    """Index of a variable with no pure power among the generators, or None."""
    for i in range(ideal.arity):
        for g in ideal.gens:
            if g[i] > 0 and all(e == 0 for j, e in enumerate(g) if j != i):
                break
        else:
            return i
    return None


def _require_primary(ideal):
    missing = _missing_pure_power(ideal)
    if missing is not None:
        raise UserInputError(
            f"ideal is not primary to the maximal ideal: no pure power of x{missing}")


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
    _require_primary(ideal)
    residues = kernels.colon_residues(ideal.gens, range(ideal.arity))
    return MonomialIdeal(ideal.arity, residues, weights=ideal.weights, _minimal=True).gens


def _walk_standard(ideal):
    """Yield the monomials outside a proper ideal primary to the maximal
    ideal: a walk from the unit monomial that raises one exponent at a
    time and stops at members of the ideal."""
    found = [unit(ideal.arity)]
    seen = set(found)
    for mono in found:
        yield mono
        for i in range(ideal.arity):
            up = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
            if up not in seen:
                seen.add(up)
                if up not in ideal:
                    found.append(up)


def standard_monomials(ideal):
    """The monomials outside the ideal, in walk order.  Raises on a proper
    ideal without a pure power of every variable: the set is infinite."""
    if unit(ideal.arity) in ideal:
        return ()
    _require_primary(ideal)
    return tuple(_walk_standard(ideal))


def _bounded_standard_monomials(ideal, depth, powers):
    """The standard monomials of a proper ideal primary to the maximal
    ideal, or None if they outnumber the single-monomial quotients of the
    generic colon chain, |I^k| * |I^(k+1)| for k = 1..depth: their number
    grows with the exponents, the generic colon's does not."""
    budget = sum(len(powers.get(k).gens) * len(powers.get(k + 1).gens)
                 for k in range(1, depth + 1))
    std = tuple(islice(_walk_standard(ideal), budget + 1))
    return std if len(std) <= budget else None


def scaled_in_power(mono, power_k, power_k1):
    """True iff mono * power_k is contained in power_k1 (divisibility scans).
    The products are formed lazily, so the scan stops at the first miss."""
    return kernels.all_divisible((mono_mul(mono, g) for g in power_k.gens),
                                 power_k1.gens)


def certify_witness(ideal, witness, k, powers):
    """Re-verify a not-closed witness with an engine that did not find it:
    witness must lie outside I and inside the generic colon I^(k+1) : I^k."""
    if witness in ideal:
        raise InternalCheckError("witness lies in the ideal")
    if witness not in powers.get(k + 1).colon(powers.get(k)):
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


def rr_chain(ideal, depth, powers=None):
    """Compute the colon chain J_k = I^(k+1) : I^k for k = 1..depth.

    J_k is I plus the standard monomials s with s * I^k <= I^(k+1), each
    tested afresh at every k, when _bounded_standard_monomials finds them;
    otherwise it is the generic colon.  Verdict is CLOSED_EVIDENCE iff
    every J_k equals I (evidence only: deeper colons could still grow),
    NOT_CLOSED with a certified witness as soon as some J_k is strictly
    larger.  The chain must ascend and start at or above I; violations
    are internal errors."""
    if depth < 1:
        raise UserInputError("chain depth must be at least 1")
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("colon chain needs a proper nonzero ideal")
    if powers is None:
        powers = PowerCache(ideal)
    std = _bounded_standard_monomials(ideal, depth, powers) if primary_to_max(ideal) else None
    chain = []
    for k in range(1, depth + 1):
        if std is None:
            j_k = powers.get(k + 1).colon(powers.get(k))
        else:
            power_k, power_k1 = powers.get(k), powers.get(k + 1)
            j_k = MonomialIdeal(ideal.arity, ideal.gens + tuple(
                s for s in std if scaled_in_power(s, power_k, power_k1)),
                weights=ideal.weights)
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
    passed and the verdict is CLOSED_EVIDENCE."""
    if depth < 1:
        raise UserInputError("probe depth must be at least 1")
    if ideal.is_zero or ideal.is_unit:
        raise UserInputError("socle probe needs a proper nonzero ideal")
    if powers is None:
        powers = PowerCache(ideal)
    candidates = socle_complement(ideal)
    degenerate = unit(ideal.arity) in candidates
    table = []
    for c in candidates:
        table.append(tuple(scaled_in_power(c, powers.get(k), powers.get(k + 1))
                           for k in range(1, depth + 1)))
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

    The probe runs only when the ideal is primary to the maximal ideal,
    otherwise it is None.  rr_chain rejects the zero and unit ideals
    before the probe is considered."""
    powers = PowerCache(ideal)
    chain = rr_chain(ideal, depth, powers=powers)
    probe = socle_probe(ideal, depth, powers=powers) if primary_to_max(ideal) else None
    return chain, probe


def combined_report(ideal, depth):
    """The rr command's verdict_payload: chain plus probe from run_stage."""
    return verdict_payload(depth, *run_stage(ideal, depth))
