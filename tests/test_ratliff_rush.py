"""Colon-chain closedness evidence and the certified non-closed control."""
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semicurve import kernels, ratliff_rush
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
)
from semicurve.semigroup import CurveInstance, derive
from semicurve.survey import run_instance

from oracles import (
    in_ideal,
    members_upto,
    minimal,
    monomials_upto,
    power_gens,
    product_gens,
    standard_monomials,
)

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


def test_certify_witness_needs_both_engines(monkeypatch):
    # (1, 1) is no witness; each engine alone must reject it while the
    # other is made to accept everything.
    powers = PowerCache(NEGATIVE_CONTROL)
    with monkeypatch.context() as patch:
        patch.setattr(ratliff_rush, "scaled_in_power", lambda *a: True)
        with pytest.raises(InternalCheckError, match="colon membership"):
            certify_witness(NEGATIVE_CONTROL, (1, 1), 1, powers)
    with monkeypatch.context() as patch:
        patch.setattr(MonomialIdeal, "colon",
                      lambda self, other: MonomialIdeal.unit(self.arity))
        with pytest.raises(InternalCheckError, match="product check"):
            certify_witness(NEGATIVE_CONTROL, (1, 1), 1, powers)


def test_standard_monomials():
    gens = NEGATIVE_CONTROL.gens
    assert set(standard_monomials(gens, 2)) == {
        m for m in monomials_upto(2, 4) if not in_ideal(m, gens)}
    assert standard_monomials([(0, 0)], 2) == ()
    assert standard_monomials([(3,)], 1) == ((0,), (1,), (2,))
    for infinite in ([], [(1, 1), (0, 2)]):
        with pytest.raises(ValueError):
            standard_monomials(infinite, 2)


def test_scaled_in_power():
    powers = PowerCache(NEGATIVE_CONTROL)
    assert scaled_in_power((2, 2), powers.get(1), powers.get(2))
    assert not scaled_in_power((1, 1), powers.get(1), powers.get(2))


def test_power_cache():
    powers = PowerCache(NEGATIVE_CONTROL)
    gens = list(NEGATIVE_CONTROL.gens)
    for k in (1, 3):
        assert set(powers.get(k)) == set(minimal(power_gens(gens, k)))
    with pytest.raises(ValueError):
        powers.get(0)


def test_run_stage_probes_only_primary_ideals():
    chain, probe = run_stage(NEGATIVE_CONTROL, 2)
    assert chain.witness == probe.witness == (2, 2)
    assert probe.candidates == socle_complement(NEGATIVE_CONTROL)
    chain, probe = run_stage(MonomialIdeal(2, [(1, 1), (0, 2)]), 2)
    assert probe is None and chain.depth == 2
    with pytest.raises(UserInputError):
        run_stage(MonomialIdeal(2, [(0, 0)]), 2)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls; return the count."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_stage_makes_one_membership_pass(monkeypatch):
    # The chain reads J_k = I off the probe's table, and no colon.  Every
    # candidate fails at the top depth, which decides its row: 3 tests,
    # all at depth 4, none by the certificate's scan.  The powers I^2..I^4
    # are kernel rows, built without a MonomialIdeal product, and I^5 is
    # never built.
    ideal = _w_reduced()
    sizes = {len(PowerCache(ideal).get(k)): k for k in range(1, 5)}
    assert len(sizes) == 4
    tested = []
    scaled = ratliff_rush._scaled_in_next_power

    def counted(mono, rows_k, in_k, gens):
        tested.append(sizes[len(rows_k)])
        return scaled(mono, rows_k, in_k, gens)
    monkeypatch.setattr(ratliff_rush, "_scaled_in_next_power", counted)
    scans = _counting(monkeypatch, ratliff_rush, "scaled_in_power")
    colons = _counting(monkeypatch, MonomialIdeal, "colon")
    products = _counting(monkeypatch, MonomialIdeal, "product")
    row_products = _counting(monkeypatch, kernels, "pairwise_product")
    chain, probe = run_stage(ideal, 4)
    assert len(probe.candidates) == 3
    assert tested == [4, 4, 4]
    assert scans[0] == 0 and colons[0] == 0
    assert products[0] == 0 and row_products[0] == 3
    assert chain.chain_equal == (True,) * 4


def test_run_stage_takes_each_grown_colon_once(monkeypatch):
    # Every depth grows: the chain takes J_1..J_4, and both certificates of
    # the depth-1 witness read the cached J_1 instead of recomputing it.
    colons = _counting(monkeypatch, MonomialIdeal, "colon")
    chain, probe = run_stage(NEGATIVE_CONTROL, 4)
    assert chain.witness == probe.witness == (2, 2)
    assert chain.chain_equal == (False,) * 4
    assert colons[0] == 4


def test_chain_rejects_a_probe_the_colon_contradicts():
    ideal = _w_reduced()
    probe = socle_probe(ideal, 4)
    table = ((False, True, False, False),) + probe.membership_table[1:]
    fake = replace(probe, membership_table=table)
    with pytest.raises(InternalCheckError, match="depth 2"):
        rr_chain(ideal, 4, probe=fake)


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

    def wrap(k):
        return MonomialIdeal(ideal.arity, powers.get(k), weights=ideal.weights)
    return tuple(wrap(k + 1).colon(wrap(k)) for k in range(1, depth + 1))


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


def test_chain_matches_generic_colon_on_gapped_ideals():
    verdicts = []
    for ideal in _gapped_ideals(300, seed=5):
        chain, probe = run_stage(ideal, 2)
        _assert_chain_parity(ideal, chain, probe)
        verdicts.append(chain.verdict)
    # Both verdicts occur, so the parity covers grown chains too.
    assert Verdict.NOT_CLOSED in verdicts and Verdict.CLOSED_EVIDENCE in verdicts


def test_chain_matches_generic_colon_on_corpus_sample(corpus, monkeypatch):
    sample = corpus.instances[::24]
    assert len(sample) == 193
    colons = _counting(monkeypatch, MonomialIdeal, "colon")
    stages = [run_stage(rep.rr.ideal, rep.rr.depth) for rep in sample]
    assert colons[0] == 0
    monkeypatch.undo()
    for rep, (chain, probe) in zip(sample, stages):
        _assert_chain_parity(rep.rr.ideal, chain, probe)


def _oracle_table(ideal, candidates, depth):
    """The membership table by definition: c * g in I^(k+1) for every g in
    I^k, over the oracle's powers, for k = 1..depth."""
    powers = [power_gens(list(ideal.gens), k) for k in range(1, depth + 2)]
    return tuple(
        tuple(all(in_ideal(tuple(a + b for a, b in zip(c, g)), powers[k])
                  for g in powers[k - 1])
              for k in range(1, depth + 1))
        for c in candidates)


def _mixed_rows(table):
    return sum(True in row and False in row for row in table)


def test_probe_table_matches_oracle_on_gapped_ideals():
    # The top-down fill gives every row exactly, at every depth: a row of
    # depth d is the first d entries of the depth-4 row.
    mixed = 0
    for ideal in _gapped_ideals(100, seed=5):
        rows = None
        for depth in range(4, 0, -1):
            probe = socle_probe(ideal, depth)
            if rows is None:
                rows = _oracle_table(ideal, probe.candidates, 4)
            assert probe.membership_table == tuple(row[:depth] for row in rows)
            mixed += _mixed_rows(probe.membership_table)
    # Rows that pass only from some depth on occur, so the parity covers
    # the step down from the top depth too.
    assert mixed > 0


@st.composite
def _primary_ideals(draw):
    """Primary ideals in 2 or 3 variables: a pure power x_i^a with a in
    D..D+2 per variable, some mixed degree-D monomials and up to two
    further monomials, D in 3..5."""
    arity, top = draw(st.integers(2, 3)), draw(st.integers(3, 5))
    pure = [tuple(draw(st.integers(top, top + 2)) if j == i else 0 for j in range(arity))
            for i in range(arity)]
    mixed = [m for m in itertools.product(range(top), repeat=arity) if sum(m) == top]
    extra = st.tuples(*[st.integers(0, top + 1)] * arity).filter(any)
    keep = draw(st.lists(st.booleans(), min_size=len(mixed), max_size=len(mixed)))
    return MonomialIdeal(arity, pure + [m for m, k in zip(mixed, keep) if k]
                         + draw(st.lists(extra, max_size=2)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_primary_ideals())
def test_probe_table_decides_the_chain(ideal):
    chain, probe = run_stage(ideal, 3)
    assert [j.gens for j in chain.chain] == [j.gens for j in _generic_chain(ideal, 3)]
    assert list(chain.chain_equal) == [
        not any(row[k] for row in probe.membership_table) for k in range(3)]
    assert probe.membership_table == _oracle_table(ideal, probe.candidates, 3)


def test_standard_monomials_give_the_apery_set(corpus):
    # k[x]/(I + x0) is k[S]/(t^m0), whose graded pieces have dimension at
    # most 1, so the weighted degrees of the standard monomials of the
    # reduced leading ideal are Ap(S, m0) = {s in S : s - m0 not in S}.
    for rep in corpus.instances:
        ideal, dropped = reduce_variables(rep.in_ideal_computed)
        assert dropped == (0,)
        m0 = rep.instance.arith[0]
        std = standard_monomials(ideal.gens, ideal.arity)
        assert len(std) == m0
        degrees = sorted(sum(w * e for w, e in zip(ideal.weights, s)) for s in std)
        members = members_upto(rep.instance.weights, degrees[-1])
        assert degrees == sorted(s for s in members if s - m0 not in members)
