"""Colon-chain closedness evidence and the certified non-closed control."""
import itertools
import random
from dataclasses import replace

import pytest

from semicurve import ratliff_rush
from semicurve.curve import initial_closed_form
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.ratliff_rush import (
    PowerCache,
    RRChainReport,
    SocleProbeReport,
    Verdict,
    certify_witness,
    combined_report,
    primary_to_max,
    reduce_variables,
    rr_chain,
    run_stage,
    scaled_in_power,
    socle_complement,
    socle_probe,
    standard_monomials,
    variables_ideal,
)
from semicurve.semigroup import CurveInstance, derive
from semicurve.survey import run_instance

from oracles import in_ideal, members_upto, monomials_upto, power_gens, product_gens

NEGATIVE_CONTROL = MonomialIdeal(2, [(4, 0), (3, 1), (1, 3), (0, 4)])


def _w_reduced():
    curve = CurveInstance.parse("5,8,11;7")
    ideal, dropped = reduce_variables(initial_closed_form(derive(curve), curve))
    assert dropped == (0,)
    return ideal


def test_negative_control_chain():
    rep = rr_chain(NEGATIVE_CONTROL, 3)
    assert rep.verdict is Verdict.NOT_CLOSED
    assert rep.witness == (2, 2) and rep.witness_depth == 1
    assert rep.chain_equal == (False, False, False)
    assert rep.stabilized_at == 1
    # J_1 strictly contains the ideal and the witness generates the gap.
    assert rep.chain[0] != NEGATIVE_CONTROL
    assert (2, 2) in rep.chain[0]


def test_negative_control_probe():
    rep = socle_probe(NEGATIVE_CONTROL, 3)
    assert rep.verdict is Verdict.NOT_CLOSED
    assert rep.witness == (2, 2) and rep.witness_depth == 1
    assert (2, 2) in rep.candidates
    row = rep.membership_table[rep.candidates.index((2, 2))]
    assert row == (True, True, True)


def test_negative_control_witness_by_exhaustive_divisibility():
    # Independent re-check: witness * gen lies in I^2 for every generator,
    # yet the witness itself is outside I.
    gens = list(NEGATIVE_CONTROL.gens)
    square = product_gens(gens, gens)
    assert not in_ideal((2, 2), gens)
    for g in gens:
        prod = tuple(a + b for a, b in zip((2, 2), g))
        assert in_ideal(prod, square)


def test_worked_instance_closed_evidence():
    ideal = _w_reduced()
    rep = rr_chain(ideal, 4)
    assert rep.verdict is Verdict.CLOSED_EVIDENCE
    assert rep.chain_equal == (True, True, True, True)
    assert rep.stabilized_at == 1
    assert all(J == ideal for J in rep.chain)
    probe = socle_probe(ideal, 4)
    assert probe.verdict is Verdict.CLOSED_EVIDENCE
    assert set(probe.candidates) == {(0, 0, 2), (0, 1, 0), (1, 0, 0)}
    assert all(not any(row) for row in probe.membership_table)
    assert not probe.degenerate


def test_reduce_variables():
    ideal = MonomialIdeal(4, [(0, 2, 0, 0), (0, 0, 1, 1)], weights=(5, 8, 11, 7))
    red, dropped = reduce_variables(ideal)
    assert dropped == (0,)
    assert red.arity == 3 and red.weights == (8, 11, 7)
    assert red.gens == ((0, 0, 2), (0, 1, 1)) or set(red.gens) == {(2, 0, 0), (0, 1, 1)}
    full = MonomialIdeal(2, [(1, 0), (0, 1)])
    same, none_dropped = reduce_variables(full)
    assert same == full and none_dropped == ()


def test_primary_to_max():
    assert primary_to_max(_w_reduced())
    # A pure power is missing for the first variable here.
    assert not primary_to_max(MonomialIdeal(2, [(1, 1), (0, 2)]))
    assert primary_to_max(MonomialIdeal(1, [(3,)]))


def test_socle_complement():
    assert set(socle_complement(_w_reduced())) == {(0, 0, 2), (0, 1, 0), (1, 0, 0)}
    with pytest.raises(UserInputError):
        socle_complement(MonomialIdeal(2, []))
    with pytest.raises(UserInputError):
        socle_complement(MonomialIdeal(2, [(0, 0)]))
    with pytest.raises(UserInputError):
        socle_complement(MonomialIdeal(2, [(1, 2)]))


def test_chain_input_validation():
    for bad in (MonomialIdeal(2, []), MonomialIdeal(2, [(0, 0)])):
        with pytest.raises(UserInputError):
            rr_chain(bad, 2)
        with pytest.raises(UserInputError):
            socle_probe(bad, 2)
    with pytest.raises(UserInputError):
        rr_chain(NEGATIVE_CONTROL, 0)


def test_certify_witness():
    powers = PowerCache(NEGATIVE_CONTROL)
    certify_witness(NEGATIVE_CONTROL, (2, 2), 1, powers)
    with pytest.raises(InternalCheckError):
        certify_witness(NEGATIVE_CONTROL, (4, 0), 1, powers)
    with pytest.raises(InternalCheckError):
        certify_witness(NEGATIVE_CONTROL, (1, 1), 1, powers)


def test_standard_monomials():
    assert set(standard_monomials(NEGATIVE_CONTROL)) == {
        m for m in monomials_upto(2, 4) if not in_ideal(m, NEGATIVE_CONTROL.gens)}
    assert standard_monomials(MonomialIdeal(2, [(0, 0)])) == ()
    assert standard_monomials(MonomialIdeal(1, [(3,)])) == ((0,), (1,), (2,))
    for infinite in (MonomialIdeal(2, []), MonomialIdeal(2, [(1, 1), (0, 2)])):
        with pytest.raises(UserInputError):
            standard_monomials(infinite)


def test_scaled_in_power():
    powers = PowerCache(NEGATIVE_CONTROL)
    assert scaled_in_power((2, 2), powers.get(1), powers.get(2))
    assert not scaled_in_power((1, 1), powers.get(1), powers.get(2))


def test_power_cache():
    powers = PowerCache(NEGATIVE_CONTROL)
    assert powers.get(0).is_unit
    assert powers.get(1) == NEGATIVE_CONTROL
    assert powers.get(3) == MonomialIdeal(2, power_gens(list(NEGATIVE_CONTROL.gens), 3))


def test_variables_ideal():
    assert variables_ideal(3).gens == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_run_stage_probes_only_primary_ideals():
    chain, probe = run_stage(NEGATIVE_CONTROL, 2)
    assert chain.witness == probe.witness == (2, 2)
    assert probe.candidates == socle_complement(NEGATIVE_CONTROL)
    chain, probe = run_stage(MonomialIdeal(2, [(1, 1), (0, 2)]), 2)
    assert probe is None and chain.depth == 2
    with pytest.raises(UserInputError):
        run_stage(MonomialIdeal(2, [(0, 0)]), 2)


def test_combined_report_schema():
    rep = combined_report(NEGATIVE_CONTROL, 3)
    assert sorted(rep) == ["chain_equal", "depth", "membership_table",
                           "socle_candidates", "verdict", "witness",
                           "witness_depth"]
    assert rep["depth"] == 3 and rep["verdict"] == "NOT_CLOSED"
    assert rep["witness"] == [2, 2] and rep["witness_depth"] == 1

    closed = combined_report(_w_reduced(), 2)
    assert closed["verdict"] == "CLOSED_EVIDENCE"
    assert "witness" not in closed
    assert closed["chain_equal"] == [True, True]


def _fake_chain(witness):
    if witness is None:
        return RRChainReport(NEGATIVE_CONTROL, 1, (NEGATIVE_CONTROL,), (True,), 1,
                             Verdict.CLOSED_EVIDENCE)
    return RRChainReport(NEGATIVE_CONTROL, 1, (NEGATIVE_CONTROL,), (False,), 1,
                         Verdict.NOT_CLOSED, witness, 1)


def _fake_probe(witness):
    if witness is None:
        return SocleProbeReport(NEGATIVE_CONTROL, 1, (), (), Verdict.CLOSED_EVIDENCE)
    return SocleProbeReport(NEGATIVE_CONTROL, 1, (witness,), ((True,),),
                            Verdict.NOT_CLOSED, witness, 1)


@pytest.mark.parametrize("chain_witness, probe_witness, expected", [
    pytest.param(None, (1, 1), ("NOT_CLOSED", [1, 1]), id="probe-witness-closed-chain"),
    pytest.param((2, 2), (1, 1), ("NOT_CLOSED", [2, 2]), id="chain-witness-first"),
    pytest.param(None, None, ("CLOSED_EVIDENCE", None), id="both-closed"),
    pytest.param((2, 2), "absent", ("NOT_CLOSED", [2, 2]), id="no-probe-chain-witness"),
    pytest.param(None, "absent", ("CLOSED_EVIDENCE", None), id="no-probe-closed-chain"),
])
def test_rr_and_survey_share_the_verdict_rule(monkeypatch, chain_witness, probe_witness,
                                               expected):
    chain = _fake_chain(chain_witness)
    probe = None if probe_witness == "absent" else _fake_probe(probe_witness)
    surveyed = replace(run_instance(CurveInstance.parse("5,8,11;7"), depth=1),
                       rr=chain, probe=probe)
    monkeypatch.setattr(ratliff_rush, "rr_chain", lambda *a, **k: chain)
    monkeypatch.setattr(ratliff_rush, "socle_probe", lambda *a, **k: probe)
    monkeypatch.setattr(ratliff_rush, "primary_to_max", lambda ideal: probe is not None)
    payload = combined_report(NEGATIVE_CONTROL, 1)

    verdict, witness = expected
    assert payload["verdict"] == surveyed.rr_verdict.value == verdict
    assert payload.get("witness") == witness


def _generic_chain(ideal, depth):
    """J_k = I^(k+1) : I^k for k = 1..depth by the generic colon."""
    powers = PowerCache(ideal)
    return tuple(powers.get(k + 1).colon(powers.get(k)) for k in range(1, depth + 1))


def _assert_chain_parity(ideal, chain, probe):
    assert [j.gens for j in chain.chain] == [
        j.gens for j in _generic_chain(ideal, chain.depth)]
    assert chain.verdict is probe.verdict
    assert chain.witness_depth == probe.witness_depth


def _gapped_ideals(count, seed):
    """Seeded primary ideals: every pure power x_i^D plus a random subset of
    the other degree-D monomials, in 2 or 3 variables, D in 3..5."""
    rng = random.Random(seed)
    for _ in range(count):
        arity, top = rng.randrange(2, 4), rng.randrange(3, 6)
        mixed = [m for m in itertools.product(range(top + 1), repeat=arity)
                 if sum(m) == top and max(m) < top]
        pure = [tuple(top if j == i else 0 for j in range(arity)) for i in range(arity)]
        yield MonomialIdeal(arity, pure + [m for m in mixed if rng.random() < 0.5])


def _takes_standard_engine(ideal, depth):
    """True iff rr_chain builds this ideal's chain from standard monomials."""
    return ratliff_rush._bounded_standard_monomials(ideal, depth, PowerCache(ideal)) is not None


def test_chain_matches_generic_colon_on_gapped_ideals():
    verdicts = []
    for ideal in _gapped_ideals(300, seed=5):
        chain, probe = run_stage(ideal, 2)
        _assert_chain_parity(ideal, chain, probe)
        if _takes_standard_engine(ideal, 2):
            verdicts.append(chain.verdict)
    # Both verdicts occur among the chains built from standard monomials,
    # so the parity covers grown chains of that engine too.
    assert Verdict.NOT_CLOSED in verdicts and Verdict.CLOSED_EVIDENCE in verdicts


def test_chain_matches_generic_colon_on_corpus_sample(corpus):
    sample = corpus.instances[::24]
    assert len(sample) == 193
    for rep in sample:
        assert _takes_standard_engine(rep.rr.ideal, rep.rr.depth)
        _assert_chain_parity(rep.rr.ideal, rep.rr, rep.probe)


def test_standard_monomial_walk_is_capped():
    # (x^D, y^D) has D^2 standard monomials; at depth 2 the generic colon
    # chain forms 2*3 + 3*4 = 18 single-monomial quotients.
    assert _takes_standard_engine(MonomialIdeal(2, [(4, 0), (0, 4)]), 2)
    assert not _takes_standard_engine(MonomialIdeal(2, [(5, 0), (0, 5)]), 2)


def test_standard_monomials_give_the_apery_set(corpus):
    # k[x]/(I + x0) is k[S]/(t^m0), whose graded pieces have dimension at
    # most 1, so the weighted degrees of the standard monomials of the
    # reduced leading ideal are Ap(S, m0) = {s in S : s - m0 not in S}.
    for rep in corpus.instances:
        ideal, dropped = reduce_variables(rep.in_ideal_computed)
        assert dropped == (0,)
        m0 = rep.instance.arith[0]
        std = standard_monomials(ideal)
        assert len(std) == m0
        degrees = sorted(sum(w * e for w, e in zip(ideal.weights, s)) for s in std)
        members = members_upto(rep.instance.weights, degrees[-1])
        assert degrees == sorted(s for s in members if s - m0 not in members)
