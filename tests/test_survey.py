"""Corpus enumeration, guard pooling, comparisons, and emitters."""
import hashlib
import json
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicurve import kernels, semigroup
from semicurve import survey as survey_module
from semicurve.curve import closed_form_table, initial_closed_form
from semicurve.errors import UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.ratliff_rush import _socle_walk, reduce_variables
from semicurve.semigroup import MAX_P, CurveInstance, derive, validate
from semicurve.survey import (
    Bounds,
    COLON_SELECTORS,
    CSV_HEADER,
    Format,
    GuardStatus,
    MatchStatus,
    compare_selector,
    emit,
    enumerate_instances,
    evaluate_guards,
    front_half,
    run_instance,
    survey,
    MAX_CANDIDATES,
    _candidates,
    _divisor_span,
)
from conftest import record_acceptance
from oracles import grevlex_key
from test_kernels import _colon_outside

MINI_BOUNDS = Bounds((1, 2), 15, 15)
W_PARAMS_LINE = "u=3 v=3 w=2 z=2 lam=1 mu=2 q=1 r=1 q_z=0 r_z=2 eps=1 case=CASE1"


@pytest.fixture(scope="module")
def mini():
    return survey(MINI_BOUNDS, depth=2)


def test_mini_survey_green(mini):
    assert mini.ok
    assert len(mini.instances) == 578 and mini.rejects == 1732
    assert all(rep.gb.passed for rep in mini.instances)
    assert all(rep.in_ideal_match is MatchStatus.MATCH for rep in mini.instances)
    assert all(rep.rr_verdict.value == "CLOSED_EVIDENCE" for rep in mini.instances)
    assert not mini.failed_instances


def test_enumeration_is_lexicographic(mini):
    texts = [rep.instance.text() for rep in mini.instances]
    keys = [(len(rep.instance.arith), rep.instance.arith, rep.instance.extra)
            for rep in mini.instances]
    assert keys == sorted(keys)
    assert texts[0] == "3,4;5"
    assert "5,8,11;7" in texts


def test_enumerate_instances_pairs_with_rejects():
    instances, rejects = enumerate_instances(Bounds((1,), 2, 2))
    assert instances == [] and rejects == 2
    instances, rejects = enumerate_instances(Bounds((), 9, 9))
    assert instances == [] and rejects == 0


def _validated(bounds):
    """enumerate_instances by brute force: every candidate through validate,
    shape checks included; returns (instances, rejects, redundant), where
    redundant counts the progressions with M = m0/gcd(m0, d) <= p."""
    progressions = [tuple(m0 + i * d for i in range(p + 1))
                    for p in sorted(set(bounds.p_values)) for m0 in range(1, bounds.max_mp + 1)
                    for d in range(1, (bounds.max_mp - m0) // p + 1)]
    candidates = [(arith, mn) for arith in progressions for mn in range(1, bounds.max_mn + 1)]
    kept = [CurveInstance(arith, mn) for arith, mn in candidates if validate(arith, mn).ok]
    redundant = sum(a[0] // math.gcd(a[0], a[1] - a[0]) < len(a) for a in progressions)
    return kept, len(candidates) - len(kept), redundant


def test_enumeration_keeps_what_validate_accepts():
    for bounds in (Bounds((3, 1, 2), 25, 25),
                   Bounds((4, 7), 30, 40),    # many progressions with M <= p, rejected whole
                   Bounds((1, 2), 12, 60)):   # most mn above every term of the progression
        kept, rejects, redundant = _validated(bounds)
        assert redundant and enumerate_instances(bounds) == (kept, rejects), bounds


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.builds(Bounds, st.lists(st.integers(1, 6), max_size=3).map(tuple),
                 st.integers(1, 24), st.integers(1, 30)))
def test_enumeration_matches_validate_on_small_bounds(bounds):
    kept, rejects, _ = _validated(bounds)
    assert enumerate_instances(bounds) == (kept, rejects)


def test_enumeration_rejects_extras_over_the_generator_budget(monkeypatch):
    monkeypatch.setattr(semigroup, "MAX_GENERATOR", 20)
    monkeypatch.setattr(survey_module, "MAX_GENERATOR", 20)
    bounds = Bounds((1, 2), 12, 60)
    kept, rejects, _ = _validated(bounds)
    assert max(c.extra for c in kept) == 20
    assert enumerate_instances(bounds) == (kept, rejects)


def test_enumeration_rejects_a_redundant_progression_at_once():
    # (1, 2) is the only progression, and m1 = 2*m0: all 10^7 candidates
    # are rejected in one step (validating each took about 7 s).
    t0 = time.perf_counter()
    assert enumerate_instances(Bounds((1,), 2, MAX_CANDIDATES)) == ([], MAX_CANDIDATES)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("bounds", [
    ((1,), 2, 2), ((), 9, 9), ((3, 1, 2), 25, 25), ((2, 2, 5), 13, 7), ((7,), 3, 4),
    ((1, 2, 3, 4), 30, 3),
])
def test_candidate_count_is_what_enumeration_visits(bounds):
    instances, rejects = enumerate_instances(Bounds(*bounds))
    assert _candidates(*bounds) == len(instances) + rejects


def test_candidate_budget():
    # The largest bounds the roadmap surveys stay within the budget.
    assert _candidates((2,), 200, 200) == 1_980_000 <= MAX_CANDIDATES
    Bounds((2,), 200, 200)
    Bounds(tuple(range(11, 21)), 60, 60)
    with pytest.raises(UserInputError, match="499,995,000,000,000 candidates"):
        Bounds((1,), 100_000, 100_000)
    # p = 1 and max_mp = 1001 give 500,500 candidates per max_mn.
    Bounds((1,), 1001, MAX_CANDIDATES // 500_500)
    with pytest.raises(UserInputError, match="budget of 10,000,000"):
        Bounds((1,), 1001, MAX_CANDIDATES // 500_500 + 1)
    # Enumeration leaves m_p to this budget, not to the generator budget.
    Bounds((MAX_P,), 28_304, 1)
    with pytest.raises(UserInputError, match="budget of 10,000,000"):
        Bounds((MAX_P,), 28_305, 1)


def test_empty_bounds_survey():
    report = survey(Bounds((), 5, 5), depth=2)
    assert report.ok and report.instances == () and report.rejects == 0


def test_guards_are_pooled_per_instance(mini):
    w = next(rep for rep in mini.instances if rep.instance.text() == "5,8,11;7")
    assert w.guard.status is GuardStatus.GUARD_VIOLATED_INFO
    assert len(w.guard.reasons) == 8
    kinds = sorted({r.split(":")[0] for r in w.guard.reasons})
    assert kinds == ["G1", "G3", "exponents"]
    # Every comparison carries the same pooled guard object.
    assert all(c.guard is w.guard for c in w.colon)
    assert all(c.match is MatchStatus.SKIPPED for c in w.colon)


def test_worked_instance_report(mini):
    w = next(rep for rep in mini.instances if rep.instance.text() == "5,8,11;7")
    assert not w.failed
    assert len(w.errata) == 3
    assert sorted(e.selector for e in w.errata) == [
        "COLON_X1_TO_P", "COLON_X1_TO_PM1", "SOCLE_RHO_CHI"]
    xn = next(c for c in w.colon if c.selector.value == "COLON_XN")
    assert xn.ideal_equal and xn.sets_equal


def test_required_witness_instance():
    rep = run_instance(CurveInstance.parse("21,22,23,24;16"), depth=2)
    assert rep.guard.status is GuardStatus.GUARDED_MATCH_REQUIRED
    assert rep.guard.reasons == ()
    assert all(c.match is MatchStatus.MATCH for c in rep.colon)
    assert all(c.ideal_equal and c.sets_equal for c in rep.colon)
    assert rep.errata == () and not rep.failed


def test_mismatch_when_guard_satisfied_and_engine_tampered():
    curve = CurveInstance.parse("21,22,23,24;16")
    dp = derive(curve)
    tables = [closed_form_table(dp, curve, s) for s in COLON_SELECTORS]
    guard = evaluate_guards(dp, tables)
    assert guard.status is GuardStatus.GUARDED_MATCH_REQUIRED
    real = initial_closed_form(dp, curve)
    bogus = MonomialIdeal(real.arity, [tuple(2 * e for e in g) for g in real.gens],
                          weights=real.weights)
    comparison = compare_selector(curve, bogus, tables[0], guard)
    assert comparison.match is MatchStatus.MISMATCH
    assert comparison.ideal_equal is False
    honest = compare_selector(curve, real, tables[0], guard)
    assert honest.match is MatchStatus.MATCH


def test_run_instance_rejects_invalid():
    with pytest.raises(UserInputError):
        run_instance(CurveInstance.parse("4,6,8;5"))


def test_errata_only_under_violated_guards(mini):
    for rep in mini.instances:
        for entry in rep.errata:
            assert rep.guard.status is GuardStatus.GUARD_VIOLATED_INFO
        deviating = [c for c in rep.colon
                     if c.ideal_equal is False and c.guard.status
                     is GuardStatus.GUARD_VIOLATED_INFO]
        assert len(deviating) == len(rep.errata)


def test_emit_json_deterministic_and_parses(mini):
    blob1 = emit(mini, Format.JSON)
    blob2 = emit(mini, Format.JSON)
    assert isinstance(blob1, bytes) and blob1 == blob2
    data = json.loads(blob1)
    assert data["ok"] is True
    assert data["totals"]["instances"] == 578
    w = next(i for i in data["instances"] if i["instance"] == "5,8,11;7")
    assert w["guard"]["status"] == "GUARD_VIOLATED_INFO"
    assert len(w["guard"]["reasons"]) == 8
    assert set(w["colon"]) == {s.value for s in COLON_SELECTORS}
    assert w["colon"]["COLON_XN"]["ideal_equal"] is True
    # The streamed bytes are those of the whole-report dict dumped at once.
    whole = dict(mini.to_dict(), errata=[e.to_dict() for e in mini.errata],
                 instances=[rep.to_dict() for rep in mini.instances])
    assert blob1 == (json.dumps(whole, sort_keys=True, separators=(",", ":"))
                     + "\n").encode()


def test_emit_json_peak_memory_stays_near_its_bytes(mini):
    # The JSON is streamed one entry at a time into the buffer it returns:
    # a whole-report dict plus its str and bytes copies peaked at 3.1x.
    tracemalloc.start()
    try:
        blob = emit(mini, Format.JSON)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / len(blob)
    record_acceptance(f"JSON emission peak (tracemalloc) on the mini survey: "
                      f"{ratio:.2f}x the {len(blob):,} bytes emitted")
    assert ratio <= 1.5


def test_emit_golden_bytes(mini):
    # The JSON and CSV reports are byte-stable: any change to these digests
    # is a change to the published survey output.
    assert hashlib.sha256(emit(mini, Format.JSON)).hexdigest() == (
        "d82dc576392f345ed9a3eecb612fb88e1ba1320edfd163df75fabdca0abdd4e7")
    assert hashlib.sha256(emit(mini, Format.CSV)).hexdigest() == (
        "4668682dfdeefbf0756f028272312c904e0e27ce17eaa3872e65bf477bbc31ec")


def test_emit_corpus_golden_bytes(corpus):
    # The acceptance corpus's reports, pinned like the mini survey's: a
    # change that moves them changes what the corpus survey publishes.
    assert hashlib.sha256(emit(corpus, Format.JSON)).hexdigest() == (
        "76664333bc667e97eb168d26fa91f0fc5e08b78b70a994d4af5a67c55d8596e4")
    assert hashlib.sha256(emit(corpus, Format.CSV)).hexdigest() == (
        "af6bcf0bb139aa41dce6638c443683d00930b98887f31e96156757191d01ed8e")


def test_emit_csv_layout(mini):
    lines = emit(mini, Format.CSV).decode().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(mini.instances)
    w_row = next(l for l in lines if l.startswith('"5,8,11;7"'))
    cells = w_row.split(",")[3:]
    assert cells[0] == "CASE1" or "CASE1" in w_row


def test_emit_text_content(mini):
    text = emit(mini, Format.TEXT).decode()
    assert W_PARAMS_LINE in text
    w_line = next(l for l in text.splitlines() if l.startswith("5,8,11;7 "))
    assert "verdict=CLOSED_EVIDENCE" in w_line
    assert "colon_xn=SKIPPED" in w_line
    errata_lines = [l for l in text.splitlines() if l.startswith("errata: 5,8,11;7")]
    assert len(errata_lines) == 3
    assert any("COLON_XN" in l for l in errata_lines) is False


def test_case_counts_and_stats(mini):
    counts = mini.case_counts
    assert counts["CASE1"] + counts.get("CASE2", 0) == len(mini.instances)
    stats = mini.colon_stats
    for selector in (s.value for s in COLON_SELECTORS):
        entry = stats[selector]
        assert entry["required"] == entry["required_matched"]
        assert entry["required"] + entry["skipped"] == len(mini.instances)
    reasons = mini.guard_reason_counts
    assert set(reasons) <= {"G1", "G2", "G3", "exponents"}
    assert reasons["G1"] > 0


def _assert_engine_lists_match_generic_colon(rep):
    ideal = rep.in_ideal_computed
    key = grevlex_key(rep.instance.weights)
    for c in rep.colon:
        lo, hi = _divisor_span(c.selector, rep.instance)
        if lo > hi:
            assert c.engine is None
            continue
        assert list(c.engine) == sorted(set(c.engine), key=key, reverse=True)
        assert set(c.engine) == _colon_outside(ideal, range(lo, hi + 1)), c.selector
        a = ideal.arity
        assert c.ideal_equal == (MonomialIdeal(a, ideal.gens + c.literal)
                                 == MonomialIdeal(a, ideal.gens + c.engine)), c.selector
    reduced, _ = reduce_variables(ideal)
    socle = _socle_walk(reduced)
    assert socle == MonomialIdeal(reduced.arity, socle, weights=reduced.weights).gens
    assert set(socle) == _colon_outside(reduced, range(reduced.arity))


def test_colon_residues_match_generic_colon_on_corpus(corpus):
    for rep in corpus.instances:
        _assert_engine_lists_match_generic_colon(rep)


def test_ideal_equal_is_both_containment_scans(corpus):
    # Equal generator sets are equal ideals without a scan; every verdict,
    # shortcut or not, must equal the two containments mod the initial ideal.
    shortcuts = 0
    for rep in corpus.instances:
        gens = rep.in_ideal_computed.gens
        for c in rep.colon:
            if c.engine is None:
                assert c.ideal_equal is None
                continue
            assert c.ideal_equal == (kernels.all_divisible(c.literal, gens + c.engine)
                                     and kernels.all_divisible(c.engine, gens + c.literal))
            shortcuts += c.sets_equal
    assert shortcuts > 0


def test_colon_residues_match_generic_colon_on_wide_sample():
    instances, _ = enumerate_instances(Bounds((3, 4, 5, 6), 45, 45))
    for curve in instances[::40]:
        _assert_engine_lists_match_generic_colon(front_half(curve))


def test_selectors_share_one_prefix_walk(monkeypatch):
    # p = 3, n = 4: the spans (1..2), (1..3), (4) and (1..4) take five steps,
    # by the indices 1, 2, 3, 4 and 4: the walk to 3 steps on from the end
    # of the walk to 2, and the walk to 4 from the end of that to 3.
    steps = []
    step = kernels._step

    def counted(rows, head, residues, i, entries):
        steps.append(i)
        return step(rows, head, residues, i, entries)
    monkeypatch.setattr(kernels, "_step", counted)
    kernels._walks.cache_clear()
    front_half(CurveInstance.parse("21,22,23,24;16"))
    assert steps == [1, 2, 3, 4, 4]
