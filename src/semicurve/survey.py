"""Corpus enumeration and the closed-form-versus-engine comparator.

For each validated instance the pipeline derives the parameters, builds
the binomial generators, checks the Groebner property, compares the
computed initial ideal with its closed form and the published colon/socle
lists with the colon generators outside the initial ideal
(kernels.colon_residues), and probes Ratliff-Rush closedness of the
initial ideal.

The published lists are treated as predictions under test.  They are a
hard requirement only on instances where the implicit guard conditions
hold, evaluated once per instance across the whole formula system:
  G1  q - q_z - eps >= 1
  G2  q >= 1
  G3  every active row's index range, in every one of the four lists,
      is nonempty
plus every formula exponent nonnegative: no monomial dropped by the zero
convention in any list, and q_z >= 0 (z = 0 makes q_z = -1, a negative
x_p exponent that shifts the whole formula system).  The guards are
pooled because the published case analysis is a single argument: a
degenerate index range in one list (e.g. both x_i*x_p^q sub-ranges when
p = 2) signals the degeneracy that breaks the sibling lists as well.
The hard comparison is equality of ideals mod the initial ideal; raw
set equality of the representative lists is recorded alongside.  Outside
the guards the comparison is informational (match = SKIPPED) and any
deviation goes to the errata log.  The engine is authoritative on
mismatch.

CSV columns (one row per instance):
  instance, case, gb_passed, in_ideal, colon_x1_to_pm1, colon_x1_to_p,
  colon_xn, socle_rho_chi, rr_verdict, probe_verdict, guards_violated,
  errata, failed
The JSON report is one compact object with sorted keys: the summary
(SurveyReport.to_dict) with the errata and the per-instance reports
(InstanceReport.to_dict) in their sorted places.  emit writes it one
entry at a time, so no whole-report dict is ever built.  Timing values
are reported in the TEXT format only, so JSON and CSV emissions are
byte-identical across runs on the same input.
"""
from __future__ import annotations

import csv
import enum
import io
import json
import time
from dataclasses import dataclass, replace

from semicurve import kernels
from semicurve.curve import (
    ClosedForm,
    closed_form_table,
    initial_closed_form,
    patil_singh_generators,
)
from semicurve.errors import UserInputError
from semicurve.groebner import Polynomial, gb_verify, leading_ideal
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import descending, format_monomial
from semicurve.ratliff_rush import Verdict, reduce_variables, run_stage
from semicurve.semigroup import (
    MAX_GENERATOR,
    MAX_P,
    Case,
    CurveInstance,
    _ArithmeticPart,
    derive,
    validate,
)


class MatchStatus(enum.Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"
    SKIPPED = "SKIPPED"


class GuardStatus(enum.Enum):
    GUARDED_MATCH_REQUIRED = "GUARDED_MATCH_REQUIRED"
    GUARD_VIOLATED_INFO = "GUARD_VIOLATED_INFO"


COLON_SELECTORS = tuple(ClosedForm)


def _divisor_span(selector, instance):
    """Inclusive variable-index range the selector's colon divides by."""
    p, n = instance.p, instance.n
    return {
        ClosedForm.COLON_X1_TO_PM1: (1, p - 1),
        ClosedForm.COLON_X1_TO_P: (1, p),
        ClosedForm.COLON_XN: (n, n),
        ClosedForm.SOCLE_RHO_CHI: (1, n),
    }[selector]


@dataclass(frozen=True)
class GuardReport:
    status: GuardStatus
    reasons: tuple

    @property
    def violated(self):
        return self.status is GuardStatus.GUARD_VIOLATED_INFO

    def to_dict(self):
        return {"status": self.status.value, "reasons": list(self.reasons)}


def evaluate_guards(dp, tables):
    """Instance-level G1-G3 pooled over all published closed-form tables."""
    reasons = []
    if dp.q - dp.q_z - dp.eps < 1:
        reasons.append(f"G1: q - q_z - eps = {dp.q - dp.q_z - dp.eps} < 1")
    if dp.q < 1:
        reasons.append("G2: q = 0")
    if dp.q_z < 0:
        reasons.append(f"exponents: q_z = {dp.q_z} < 0 (negative x_p exponent "
                       "in the formula system when z = 0)")
    for table in tables:
        tag = table.selector.value
        for name in table.empty_ranges:
            reasons.append(f"G3: [{tag}] empty index range in row {name}")
        if table.dropped_count:
            reasons.append(f"exponents: [{tag}] zero convention dropped "
                           f"{table.dropped_count} monomial(s)")
    status = (GuardStatus.GUARD_VIOLATED_INFO if reasons
              else GuardStatus.GUARDED_MATCH_REQUIRED)
    return GuardReport(status, tuple(reasons))


@dataclass(frozen=True, eq=False)
class ColonComparison:
    selector: ClosedForm
    guard: GuardReport       # instance-level guard, shared by all four comparisons
    literal: tuple           # published list, descending under the order
    engine: tuple | None     # colon generators outside the ideal; None if not computable
    sets_equal: bool | None  # raw representative-set comparison, informational
    ideal_equal: bool | None  # in-ideal + literal == in-ideal + engine (the hard test)
    match: MatchStatus       # hard verdict: SKIPPED whenever guards are violated
    note: str | None = None

    def to_dict(self):
        return {
            "selector": self.selector.value,
            "guard": self.guard.status.value,
            "guard_reasons": list(self.guard.reasons),
            "literal": [list(m) for m in self.literal],
            "engine": None if self.engine is None else [list(m) for m in self.engine],
            "sets_equal": self.sets_equal,
            "ideal_equal": self.ideal_equal,
            "match": self.match.value,
            "note": self.note,
        }


@dataclass(frozen=True)
class ErrataEntry:
    """A published list deviating from the engine outside its guards."""

    instance: str
    selector: str
    reasons: tuple
    literal: tuple
    engine: tuple

    def to_dict(self):
        return {
            "instance": self.instance,
            "selector": self.selector,
            "reasons": list(self.reasons),
            "literal": [list(m) for m in self.literal],
            "engine": [list(m) for m in self.engine],
        }

    def text(self):
        lit = ", ".join(format_monomial(m) for m in self.literal) or "(empty)"
        eng = ", ".join(format_monomial(m) for m in self.engine)
        kinds = {}
        for reason in self.reasons:
            key = reason.split(":")[0]
            kinds[key] = kinds.get(key, 0) + 1
        summary = "; ".join(k if c == 1 else f"{k} x{c}" for k, c in sorted(kinds.items()))
        return (f"{self.instance} {self.selector}: published [{lit}] != engine [{eng}]"
                f" (guards: {summary})")


def compare_selector(instance, in_ideal, table, guard):
    """One published list against the engine, with shared guard bookkeeping."""
    selector = table.selector
    weights = instance.weights
    literal = descending(table.monomials, weights)
    lo, hi = _divisor_span(selector, instance)
    if lo > hi:
        return ColonComparison(selector, guard, literal, None, None, None,
                               MatchStatus.SKIPPED,
                               note=f"no divisor variables (p = {instance.p})")
    residues = kernels.colon_residues(in_ideal.gens, range(lo, hi + 1))
    engine = descending(residues, weights)
    sets_equal = set(engine) == set(literal)
    # Equal generator sets generate equal ideals.  Otherwise both sides
    # contain the initial ideal, so each needs only the other's extra
    # generators; the residues lie outside it, so only literal can divide
    # them, and a literal monomial is looked for among the residues first.
    ideal_equal = sets_equal or (
        kernels.all_divisible(engine, literal)
        and kernels.all_divisible(literal, engine + in_ideal.gens))
    if guard.violated:
        match = MatchStatus.SKIPPED
    else:
        match = MatchStatus.MATCH if ideal_equal else MatchStatus.MISMATCH
    note = None
    if ideal_equal and not sets_equal:
        note = "representatives differ as sets but generate the same ideal mod the initial ideal"
    return ColonComparison(selector, guard, literal, engine, sets_equal, ideal_equal,
                           match, note)


@dataclass(frozen=True, eq=False)
class InstanceReport:
    instance: CurveInstance
    params: object
    generators: tuple
    gb: object                   # GBReport
    in_ideal_computed: MonomialIdeal
    in_ideal_closed: MonomialIdeal
    in_ideal_match: MatchStatus
    guard: GuardReport           # instance-level comparator guard
    colon: tuple                 # ColonComparison in COLON_SELECTORS order
    dropped_vars: tuple
    rr: object                   # RRReport, None from front_half
    errata: tuple
    failures: tuple

    @property
    def failed(self):
        return bool(self.failures)

    @property
    def rr_verdict(self):
        return self.rr.verdict

    def to_dict(self, full=False):
        d = {
            "instance": self.instance.text(),
            "case": self.params.case.value,
            "params": self.params.to_dict(),
            "gb_passed": self.gb.passed,
            "gb_pairs": [self.gb.pairs_checked, self.gb.pairs_skipped_coprime],
            "in_ideal": {
                "match": self.in_ideal_match.value,
                "computed": [list(m) for m in self.in_ideal_computed.gens],
                "closed_form": [list(m) for m in self.in_ideal_closed.gens],
            },
            "guard": self.guard.to_dict(),
            "colon": {c.selector.value: c.to_dict() for c in self.colon},
            "dropped_vars": list(self.dropped_vars),
            "rr": {
                "depth": self.rr.depth,
                "chain_equal": list(self.rr.chain_equal),
                "stabilized_at": self.rr.stabilized_at,
                "verdict": self.rr.verdict.value,
            },
            "probe": None if self.rr.candidates is None else {
                "verdict": self.rr.verdict.value,
                "candidates": [list(c) for c in self.rr.candidates],
                "membership_table": [list(row) for row in self.rr.membership_table],
                "degenerate": self.rr.degenerate,
            },
            "verdict": self.rr_verdict.value,
            "errata": [e.to_dict() for e in self.errata],
            "failures": list(self.failures),
            "failed": self.failed,
        }
        if self.rr.witness is not None:
            d["rr"]["witness"] = list(self.rr.witness)
        if full:
            d["generators"] = [[list(b.lead), list(b.tail)] for b in self.generators]
        return d


def front_half(curve):
    """Every stage before Ratliff-Rush, shared by run_instance and the
    inideal, gb-verify, colon and rr views; raises UserInputError on bad
    input.  The report's rr is None and dropped_vars is empty, so it must
    not be emitted: only run_instance completes it."""
    report = validate(curve.arith, curve.extra)
    if not report.ok:
        raise UserInputError(report.first)
    failures = []
    dp = derive(curve)
    gens = patil_singh_generators(dp, curve)

    order = curve.order()
    polys = [Polynomial.from_binomial(b) for b in gens]
    gb = gb_verify(polys, order)
    if not gb.passed:
        failures.append(f"gb_verify failed on pair {gb.failing_pair}")

    computed = leading_ideal(polys, order)
    closed = initial_closed_form(dp, curve)
    in_match = MatchStatus.MATCH if computed == closed else MatchStatus.MISMATCH
    if in_match is MatchStatus.MISMATCH:
        failures.append("initial ideal closed form disagrees with leading ideal")

    tables = [closed_form_table(dp, curve, s) for s in COLON_SELECTORS]
    guard = evaluate_guards(dp, tables)
    colon = tuple(compare_selector(curve, computed, t, guard) for t in tables)
    errata = []
    for c in colon:
        if c.match is MatchStatus.MISMATCH:
            failures.append(f"guarded comparison mismatched: {c.selector.value}")
        if c.ideal_equal is False and c.guard.violated:
            errata.append(ErrataEntry(curve.text(), c.selector.value,
                                      c.guard.reasons, c.literal, c.engine))

    return InstanceReport(curve, dp, gens, gb, computed, closed, in_match, guard,
                          colon, (), None, tuple(errata), tuple(failures))


def run_instance(curve, depth=4):
    """Full pipeline on one instance; raises UserInputError on bad input.

    When x0 alone is unused, which holds for every curve's initial ideal,
    the Ratliff-Rush stage takes its socle candidates from the comparator's
    colon by x1..xn (SOCLE_RHO_CHI) with the x0 exponent dropped: those
    are the minimal generators of the reduced ideal's colon by all its
    variables outside it, in socle_probe's order, so the colon is walked
    once."""
    front = front_half(curve)
    failures = list(front.failures)
    reduced, dropped = reduce_variables(front.in_ideal_computed)
    candidates = None
    if dropped == (0,):
        socle = next(c for c in front.colon if c.selector is ClosedForm.SOCLE_RHO_CHI)
        candidates = tuple(m[1:] for m in socle.engine)
    rr = run_stage(reduced, depth, candidates=candidates)
    if rr.verdict is not Verdict.CLOSED_EVIDENCE:
        failures.append(f"colon chain verdict {rr.verdict.value}")
    if rr.candidates is None:
        failures.append("socle probe not applicable (not primary to the maximal ideal)")
    return replace(front, dropped_vars=dropped, rr=rr, failures=tuple(failures))


# input budget on the candidates, which bounds the time only loosely:
# a candidate's cost is mostly validate's minimal-generation walk, which
# grows with m_p/mn.  At 10^7 candidates Bounds((1,), 2, 10**7) (one
# redundant progression) returns at once, Bounds((1,), 1001, 19) takes
# about 95 s, and the slowest shape measured, Bounds((3,), 3465, 5),
# about 210 s; Bounds((2,), 200, 200) has 1,980,000
MAX_CANDIDATES = 10 ** 7


def _candidates(p_values, max_mp, max_mn):
    """The number of candidates enumerate_instances visits, in closed form:
    over each distinct p, the sum over m0 in 1..max_mp of
    floor((max_mp - m0)/p) * max_mn, where the sum of floor(t/p) over t in
    0..max_mp - 1 is p*q*(q - 1)/2 + r*q with (q, r) = divmod(max_mp, p)."""
    count = 0
    for p in set(p_values):
        q, r = divmod(max_mp, p)
        count += (p * q * (q - 1) // 2 + r * q) * max_mn
    return count


@dataclass(frozen=True)
class Bounds:
    p_values: tuple
    max_mp: int
    max_mn: int

    def __post_init__(self):
        """Every bound must be at least 1, every p at most MAX_P (40), and
        the candidates to enumerate at most MAX_CANDIDATES (10^7); an empty
        p_values is allowed."""
        bad = [f"p = {p}" for p in self.p_values if p < 1]
        bad += [f"{name} = {v}" for name, v in (("max_mp", self.max_mp),
                                                ("max_mn", self.max_mn)) if v < 1]
        if bad:
            raise UserInputError("survey bounds must be at least 1: " + ", ".join(bad))
        if max(self.p_values, default=0) > MAX_P:
            raise UserInputError(f"survey p must not exceed {MAX_P}: p = {max(self.p_values)}")
        count = _candidates(self.p_values, self.max_mp, self.max_mn)
        if count > MAX_CANDIDATES:
            raise UserInputError(f"survey bounds give {count:,} candidates, "
                                 f"more than the budget of {MAX_CANDIDATES:,}")

    def to_dict(self):
        return {"p_values": list(self.p_values), "max_mp": self.max_mp,
                "max_mn": self.max_mn}


def enumerate_instances(bounds):
    """Validated normal-form instances within bounds, in lexicographic
    (p, m0, d, mn) order; returns (instances, rejects).

    One arithmetic progression m0, ..., m0 + pd at a time: its
    semigroup._ArithmeticPart is built once, a progression with
    M = m0/gcd(m0, d) <= p is rejected whole (m_M = (1 + d/G)*m0), and
    otherwise each mn within the generator budget is put to the part's
    per-extra check (see the semigroup docstring).  That is all of
    validate that a candidate can fail: its shape checks hold by
    construction, p <= MAX_P, and the candidate budget keeps m_p at
    most 28,304."""
    kept, rejects = [], 0
    extras = range(1, min(bounds.max_mn, MAX_GENERATOR) + 1)
    for p in sorted(set(bounds.p_values)):
        for m0 in range(1, bounds.max_mp + 1):
            for d in range(1, (bounds.max_mp - m0) // p + 1):
                arith = tuple(m0 + i * d for i in range(p + 1))
                A = _ArithmeticPart(arith)
                before = len(kept)
                if A.M > p:
                    kept += [CurveInstance(arith, mn) for mn in extras
                             if A.extra_failure(mn) is None]
                rejects += bounds.max_mn - (len(kept) - before)
    return kept, rejects


@dataclass(frozen=True, eq=False)
class SurveyReport:
    bounds: Bounds
    depth: int
    instances: tuple            # InstanceReport, enumeration order
    rejects: int
    wall_ms: float

    @property
    def case_counts(self):
        counts = {Case.CASE1.value: 0, Case.CASE2.value: 0}
        for rep in self.instances:
            counts[rep.params.case.value] += 1
        return counts

    @property
    def case2_covered(self):
        return self.case_counts[Case.CASE2.value] > 0

    @property
    def colon_stats(self):
        stats = {}
        for s in COLON_SELECTORS:
            stats[s.value] = {"required": 0, "required_matched": 0, "skipped": 0,
                              "deviations": 0, "representative_differences": 0}
        for rep in self.instances:
            for c in rep.colon:
                row = stats[c.selector.value]
                if c.match is MatchStatus.SKIPPED:
                    row["skipped"] += 1
                else:
                    row["required"] += 1
                    if c.match is MatchStatus.MATCH:
                        row["required_matched"] += 1
                if c.ideal_equal is False:
                    row["deviations"] += 1
                elif c.sets_equal is False:
                    row["representative_differences"] += 1
        return stats

    @property
    def guard_reason_counts(self):
        counts = {}
        for rep in self.instances:
            for reason in rep.guard.reasons:
                key = reason.split(":")[0]
                counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def verdict_counts(self):
        counts = {}
        for rep in self.instances:
            v = rep.rr_verdict.value
            counts[v] = counts.get(v, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def errata(self):
        return tuple(e for rep in self.instances for e in rep.errata)

    @property
    def failed_instances(self):
        return tuple(rep.instance.text() for rep in self.instances if rep.failed)

    @property
    def ok(self):
        return not self.failed_instances

    def to_dict(self):
        """The report's summary: every key of the JSON report but errata
        and instances, which emit writes one entry at a time."""
        return {
            "bounds": self.bounds.to_dict(),
            "depth": self.depth,
            "totals": {"instances": len(self.instances), **self.case_counts},
            "rejects": self.rejects,
            "gb_passed": sum(1 for r in self.instances if r.gb.passed),
            "in_ideal_matched": sum(1 for r in self.instances
                                    if r.in_ideal_match is MatchStatus.MATCH),
            "colon": self.colon_stats,
            "guard_reasons": self.guard_reason_counts,
            "verdicts": self.verdict_counts,
            "case2_covered": self.case2_covered,
            "failed": list(self.failed_instances),
            "ok": self.ok,
        }


def survey(bounds, depth=4):
    """Run the pipeline over every validated instance within bounds."""
    t0 = time.perf_counter()
    instances, rejects = enumerate_instances(bounds)
    reports = tuple(run_instance(curve, depth) for curve in instances)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SurveyReport(bounds, depth, reports, rejects, wall_ms)


class Format(enum.Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


CSV_HEADER = ("instance", "case", "gb_passed", "in_ideal", "colon_x1_to_pm1",
              "colon_x1_to_p", "colon_xn", "socle_rho_chi", "rr_verdict",
              "probe_verdict", "guards_violated", "errata", "failed")


def _csv_row(rep):
    by_selector = {c.selector: c for c in rep.colon}
    return (
        rep.instance.text(),
        rep.params.case.value,
        str(rep.gb.passed).lower(),
        rep.in_ideal_match.value,
        *(by_selector[s].match.value for s in COLON_SELECTORS),
        rep.rr.verdict.value,
        "" if rep.rr.candidates is None else rep.rr.verdict.value,
        str(len(rep.guard.reasons)),
        str(len(rep.errata)),
        str(rep.failed).lower(),
    )


def _params_line(dp):
    return " ".join(f"{k}={v}" for k, v in dp.to_dict().items())


def _text_lines(report):
    yield (f"survey: p in {sorted(set(report.bounds.p_values))}, "
           f"m_p <= {report.bounds.max_mp}, m_n <= {report.bounds.max_mn}, "
           f"depth {report.depth}")
    totals = report.case_counts
    yield (f"instances: {len(report.instances)} "
           f"(CASE1 {totals['CASE1']}, CASE2 {totals['CASE2']}), "
           f"rejected candidates: {report.rejects}")
    if not report.case2_covered and report.instances:
        yield "warning: no CASE2 instance within bounds; widen bounds to exercise both cases"
    for rep in report.instances:
        cols = " ".join(f"{c.selector.value.lower()}={c.match.value}" for c in rep.colon)
        yield (f"{rep.instance.text()} {rep.params.case.value} | {_params_line(rep.params)}"
               f" | gb={'ok' if rep.gb.passed else 'FAIL'}"
               f" in_ideal={rep.in_ideal_match.value} {cols}"
               f" verdict={rep.rr_verdict.value}"
               + (" FAILED" if rep.failed else ""))
    for entry in report.errata:
        yield f"errata: {entry.text()}"
    if report.failed_instances:
        yield "failed: " + ", ".join(report.failed_instances)
    yield (f"result: {'ok' if report.ok else 'FAILED'} "
           f"({report.wall_ms / 1000.0:.1f} s)")


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _json_bytes(report):
    """The report as one compact JSON object with sorted keys and a final
    newline, the bytes json.dumps gives for the whole-report dict.  They
    are written into one buffer, the summary's values whole and the
    errata and instance lists one entry at a time, so only one entry's
    dict tree is alive at once, and getvalue hands the buffer over
    without a copy: the peak memory stays near the size of the bytes."""
    values = report.to_dict()
    entries = {"errata": report.errata, "instances": report.instances}
    out = io.BytesIO()
    out.write(b"{")
    for i, key in enumerate(sorted([*values, *entries])):
        if i:
            out.write(b",")
        out.write(_JSON.encode(key).encode() + b":")
        if key in values:
            out.write(_JSON.encode(values[key]).encode())
            continue
        out.write(b"[")
        for j, entry in enumerate(entries[key]):
            if j:
                out.write(b",")
            out.write(_JSON.encode(entry.to_dict()).encode())
        out.write(b"]")
    out.write(b"}\n")
    return out.getvalue()


def emit(report, fmt):
    """Serialize a survey report; JSON and CSV are byte-deterministic.
    The JSON is streamed one instance at a time (_json_bytes)."""
    if fmt is Format.JSON:
        return _json_bytes(report)
    if fmt is Format.CSV:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rep in report.instances:
            writer.writerow(_csv_row(rep))
        return buf.getvalue().encode()
    if fmt is Format.TEXT:
        return ("\n".join(_text_lines(report)) + "\n").encode()
    raise UserInputError(f"unknown format {fmt!r}")
