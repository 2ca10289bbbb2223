"""Colon-chain closedness evidence and the certified non-closed control."""
import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semicurve import kernels, ratliff_rush
from semicurve.cli import verdict_payload
from semicurve.curve import initial_closed_form
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.ratliff_rush import (
    PowerCache,
    RRChainReport,
    SocleProbeReport,
    Verdict,
    certify_witness,
    reduce_variables,
    rr_chain,
    run_stage,
    scaled_in_power,
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
    pure_power_in_power,
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
    # run_stage probes exactly the ideals primary to the maximal ideal.
    assert run_stage(_w_reduced(), 1)[1] is not None
    # A pure power is missing for the first variable here.
    assert run_stage(MonomialIdeal(2, [(1, 1), (0, 2)]), 1)[1] is None
    assert run_stage(MonomialIdeal(1, [(3,)]), 1)[1] is not None


def test_socle_probe_candidates_and_input_checks():
    assert set(socle_probe(_w_reduced(), 1).candidates) == {(0, 0, 2), (0, 1, 0), (1, 0, 0)}
    with pytest.raises(UserInputError):
        socle_probe(MonomialIdeal(2, []), 1)
    with pytest.raises(UserInputError):
        socle_probe(MonomialIdeal(2, [(0, 0)]), 1)
    with pytest.raises(UserInputError, match="not primary"):
        socle_probe(MonomialIdeal(2, [(1, 2)]), 1)


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
                      lambda self, other: MonomialIdeal(self.arity, [(0,) * self.arity]))
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
    assert probe.candidates == ratliff_rush._socle_walk(NEGATIVE_CONTROL)
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


def _counting_queries(monkeypatch):
    """Make every kernels.power_membership predicate record each query
    (m, j) from outside the kernel; return the list of them."""
    queries = []
    build = kernels.power_membership

    def counted_build(gens):
        contains = build(gens)

        def counted(m, j):
            queries.append((m, j))
            return contains(m, j)
        return counted
    monkeypatch.setattr(kernels, "power_membership", counted_build)
    return queries


def _pure_exponents(gens):
    """{i: a} for each pure power x_i^a among gens."""
    return {i: g[i] for g in gens for i in range(len(g))
            if g[i] and sum(g) == g[i]}


def _bounded_tests(c, pure, depth=None):
    """(i, a, K) per pure power x_i^a: the bounded test asks whether
    c * x_i^(aK) lies in I^(K+1), K = max(1, s - 1) for s the degree of c
    outside x_i, at most depth when one is given."""
    for i, a in pure.items():
        K = max(1, sum(c) - c[i] - 1)
        yield i, a, K if depth is None else min(K, depth)


def _raised(c, i, e):
    return c[:i] + (c[i] + e,) + c[i + 1:]


def test_run_stage_makes_one_membership_pass(monkeypatch):
    # The chain reads J_k = I off the probe's table, and takes no colon.
    # The bounded test refutes every candidate: each query is one of its
    # c * x_i^(aK) in I^(K+1), at least one per candidate, and no power is
    # read, so none is built, neither by the probe nor by a certificate's
    # scan.  The generators are scanned for pure powers once.
    ideal = _w_reduced()
    queries = _counting_queries(monkeypatch)
    pure_scans = _counting(monkeypatch, ratliff_rush, "_pure_powers")
    kernels_built = _counting(monkeypatch, kernels, "power_membership")
    reads = _counting(monkeypatch, PowerCache, "get")
    scans = _counting(monkeypatch, ratliff_rush, "scaled_in_power")
    colons = _counting(monkeypatch, MonomialIdeal, "colon")
    products = _counting(monkeypatch, MonomialIdeal, "product")
    row_products = _counting(monkeypatch, kernels, "pairwise_product")
    chain, probe = run_stage(ideal, 4)
    assert len(probe.candidates) == 3
    pure = _pure_exponents(ideal.gens)
    targets = {c: {_raised(c, i, a * K): K + 1 for i, a, K in _bounded_tests(c, pure)}
               for c in probe.candidates}
    assert kernels_built[0] == 1
    assert all(any(t.get(m) == j for t in targets.values()) for m, j in queries)
    assert all(any(t.get(m) == j for m, j in queries) for t in targets.values())
    assert reads[0] == 0 and scans[0] == 0 and colons[0] == 0
    assert products[0] == 0 and row_products[0] == 0
    assert pure_scans[0] == 1
    assert chain.chain_equal == (True,) * 4


def test_run_instance_takes_the_candidates_from_the_socle_colon(corpus, monkeypatch):
    # A curve's initial ideal never uses x0, so the comparator's colon by
    # x1..xn gives the candidates, in _socle_walk's order.  Rerun, a
    # sample of instances walks no colon again, no corpus stage reads a
    # power, and each stage scans its generators for pure powers once.
    for rep in corpus.instances:
        assert rep.dropped_vars == (0,)
        assert rep.probe.candidates == ratliff_rush._socle_walk(rep.rr.ideal)
    sample = corpus.instances[::24]
    walks = _counting(monkeypatch, ratliff_rush, "_socle_walk")
    reads = _counting(monkeypatch, PowerCache, "get")
    pure_scans = _counting(monkeypatch, ratliff_rush, "_pure_powers")
    reruns = [run_instance(rep.instance, rep.rr.depth) for rep in sample]
    assert walks[0] == 0 and pure_scans[0] == len(sample)
    stages = [run_stage(rep.rr.ideal, rep.rr.depth, candidates=rep.probe.candidates)
              for rep in corpus.instances]
    assert reads[0] == 0 and pure_scans[0] == len(sample) + len(corpus.instances)
    monkeypatch.undo()
    for rep, rerun in zip(sample, reruns):
        assert rerun.probe.candidates == rep.probe.candidates
    for rep, (chain, probe) in zip(corpus.instances, stages):
        assert probe.membership_table == rep.probe.membership_table


def _refuted_by_oracle(c, gens, depth=None):
    """Some x_i^a refutes c by the knapsack oracle, K as in _bounded_tests."""
    return any(not pure_power_in_power(c, i, a, K, gens)
               for i, a, K in _bounded_tests(c, _pure_exponents(gens), depth))


def test_bounded_test_matches_oracle_on_corpus(corpus):
    # Every corpus candidate is refuted, by the kernel and by the knapsack
    # oracle alike, and each pure power answers the same in both.
    count = 0
    for rep in corpus.instances:
        gens = rep.rr.ideal.gens
        pure = _pure_exponents(gens)
        contains = kernels.power_membership(gens)
        for c in rep.probe.candidates:
            assert ratliff_rush._refuted(c, pure, contains, rep.rr.depth)
            for i, a, K in _bounded_tests(c, pure):
                assert contains(_raised(c, i, a * K), K + 1) is pure_power_in_power(
                    c, i, a, K, gens)
            assert _refuted_by_oracle(c, gens)
            count += 1
    assert count == 9543


def test_bounded_test_never_refutes_the_witness():
    # (2, 2) lies in J_1 of the negative control, so no pure power may
    # refute it, at any depth cap or none.
    gens = NEGATIVE_CONTROL.gens
    pure = _pure_exponents(gens)
    contains = kernels.power_membership(gens)
    for depth in range(1, 9):
        assert not ratliff_rush._refuted((2, 2), pure, contains, depth)
        assert not _refuted_by_oracle((2, 2), gens, depth)
    assert not _refuted_by_oracle((2, 2), gens)


def test_bounded_test_asks_past_the_first_power():
    # x^2 y^6 lies in J_2 of this ideal, yet x^2 y^6 * x^8 is not in I^2:
    # a query at K = 1 would refute it wrongly.  Its degree in y is 6, so
    # the x query is at K = 5, where it passes (at depth 4 it asks K = 4).
    ideal = MonomialIdeal(2, [(8, 0), (6, 2), (3, 5), (1, 7), (0, 8)])
    c, gens = (2, 6), ideal.gens
    contains = kernels.power_membership(gens)
    assert not contains((10, 6), 2) and not pure_power_in_power(c, 0, 8, 1, gens)
    assert pure_power_in_power(c, 0, 8, 5, gens)
    assert not ratliff_rush._refuted(c, {0: 8, 1: 8}, contains, 4)
    probe = socle_probe(ideal, 4)
    assert probe.membership_table[probe.candidates.index(c)] == (False, True, True, True)


def test_bounded_test_refutes_an_integral_element():
    # xy is integral over (x^2, y^2), since (xy)^2 lies in I^2, yet
    # xy * x^2 = x^3 y is not in I^2 = (x^4, x^2 y^2, y^4): the bounded
    # test refutes it, so it lies outside the Ratliff-Rush closure.
    ideal = MonomialIdeal(2, [(2, 0), (0, 2)])
    gens = ideal.gens
    assert in_ideal((2, 2), power_gens(list(gens), 2)) and not in_ideal((1, 1), gens)
    assert not pure_power_in_power((1, 1), 0, 2, 1, gens)
    assert ratliff_rush._refuted((1, 1), {0: 2, 1: 2}, kernels.power_membership(gens), 5)
    probe = socle_probe(ideal, 5)
    assert probe.candidates == ((1, 1),)
    assert probe.membership_table == ((False,) * 5,)
    assert probe.verdict is Verdict.CLOSED_EVIDENCE


def test_a_passing_test_reads_the_power(monkeypatch):
    # A per-depth test reads the rows of I^k from PowerCache.get(k), so
    # every depth where a row passes reads its power before the witness is
    # certified.
    reads, at_certify = [], []
    get, certify = PowerCache.get, ratliff_rush.certify_witness

    def counted_get(self, k):
        reads.append(k)
        return get(self, k)

    def counted_certify(*args):
        at_certify.append(set(reads))
        return certify(*args)
    monkeypatch.setattr(PowerCache, "get", counted_get)
    monkeypatch.setattr(ratliff_rush, "certify_witness", counted_certify)
    probe = socle_probe(NEGATIVE_CONTROL, 4)
    passing = {k for row in probe.membership_table
               for k, hit in enumerate(row, start=1) if hit}
    assert passing == {1, 2, 3, 4}
    assert at_certify == [passing]


def test_pure_powers_alone_do_not_decide_a_test():
    # x^2*z^2 is a socle candidate whose products with every h^2, h a
    # generator of I, lie in I^3, yet its product with the row
    # x^2*y^3*z^3 = (x*y^2*z) * (x*y*z^2) of I^2 does not: the test must
    # read every row of I^2, and only from depth 3 on does c pass.
    ideal = MonomialIdeal(3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 0, 1),
                              (1, 0, 3), (1, 1, 2), (1, 2, 1)])
    c, gens = (2, 0, 2), list(ideal.gens)
    cube = power_gens(gens, 3)
    assert all(in_ideal(tuple(a + 2 * b for a, b in zip(c, h)), cube) for h in gens)
    assert not in_ideal((4, 3, 5), cube)
    probe = socle_probe(ideal, 3)
    assert probe.membership_table == _oracle_table(ideal, probe.candidates, 3)
    assert probe.membership_table[probe.candidates.index(c)] == (False, False, True)
    assert probe.witness == c and probe.witness_depth == 3


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
    rep = verdict_payload(*run_stage(NEGATIVE_CONTROL, 3))
    assert sorted(rep) == ["chain_equal", "depth", "membership_table",
                           "socle_candidates", "verdict", "witness",
                           "witness_depth"]
    assert rep["depth"] == 3 and rep["verdict"] == "NOT_CLOSED"
    assert rep["witness"] == [2, 2] and rep["witness_depth"] == 1

    closed = verdict_payload(*run_stage(_w_reduced(), 2))
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
    pytest.param(None, (1, 1), ("CLOSED_EVIDENCE", None), id="probe-witness-closed-chain"),
    pytest.param((2, 2), (1, 1), ("NOT_CLOSED", [2, 2]), id="chain-witness-first"),
    pytest.param(None, None, ("CLOSED_EVIDENCE", None), id="both-closed"),
    pytest.param((2, 2), "absent", ("NOT_CLOSED", [2, 2]), id="no-probe-chain-witness"),
    pytest.param(None, "absent", ("CLOSED_EVIDENCE", None), id="no-probe-closed-chain"),
])
def test_rr_and_survey_share_the_verdict_rule(worked_instance, chain_witness,
                                               probe_witness, expected):
    # The chain decides both the rr payload and the survey's verdict,
    # whatever the probe reports beside it.
    chain = _fake_chain(chain_witness)
    probe = None if probe_witness == "absent" else _fake_probe(probe_witness)
    surveyed = replace(run_instance(worked_instance, depth=1), rr=chain, probe=probe)
    payload = verdict_payload(chain, probe)

    verdict, witness = expected
    assert payload["verdict"] == surveyed.rr_verdict.value == verdict
    assert payload.get("witness") == witness


def test_chain_and_probe_agree_on_the_corpus(corpus):
    # On real ideals the probe's verdict is the chain's, so the payload's
    # verdict is the survey's.
    for rep in corpus.instances:
        assert rep.probe.verdict is rep.rr.verdict is rep.rr_verdict
        payload = verdict_payload(rep.rr, rep.probe)
        assert payload["verdict"] == rep.rr_verdict.value


def _generic_chain(ideal, depth):
    """J_k = I^(k+1) : I^k for k = 1..depth by the generic colon."""
    powers = PowerCache(ideal)

    def wrap(k):
        return MonomialIdeal(ideal.arity, powers.get(k), weights=ideal.weights)
    return tuple(wrap(k + 1).colon(wrap(k)) for k in range(1, depth + 1))


def _assert_chain_parity(ideal, chain, probe):
    # The two verdicts agree, and the payload carries the chain's witness.
    assert chain.verdict is probe.verdict
    assert chain.witness_depth == probe.witness_depth
    payload = verdict_payload(chain, probe)
    assert payload["verdict"] == chain.verdict.value
    assert payload.get("witness") == (None if chain.witness is None else list(chain.witness))
    assert [j.gens for j in chain.chain] == [
        j.gens for j in _generic_chain(ideal, chain.depth)]


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
    cases = [(NEGATIVE_CONTROL, d) for d in range(1, 5)]
    for ideal, depth in cases + [(ideal, 2) for ideal in _gapped_ideals(300, seed=5)]:
        chain, probe = run_stage(ideal, depth)
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


def _mixed_degree_ideals(count, seed):
    """Seeded primary ideals of mixed degrees in 2 or 3 variables: a pure
    power x_i^a per variable, a in 2..8, plus 1 to 4 random monomials with
    exponents below 6."""
    rng = random.Random(seed)
    for _ in range(count):
        arity = rng.randrange(2, 4)
        pure = [tuple(rng.randint(2, 8) if j == i else 0 for j in range(arity))
                for i in range(arity)]
        extra = [tuple(rng.randrange(6) for _ in range(arity))
                 for _ in range(rng.randint(1, 4))]
        yield MonomialIdeal(arity, pure + [m for m in extra if any(m)])


def test_probe_table_matches_oracle_on_mixed_degree_ideals():
    # The gapped family has generators of one degree; here the degree bound
    # of kernels.power_membership cuts between generators of unequal ones.
    # NOT_CLOSED is rare in this family (2 of these 2,000 ideals), hence
    # the size of the sample.
    verdicts, degrees = set(), set()
    for ideal in _mixed_degree_ideals(2000, seed=1):
        rows = None
        for depth in range(3, 0, -1):
            probe = socle_probe(ideal, depth)
            if rows is None:
                rows = _oracle_table(ideal, probe.candidates, 3)
                verdicts.add(probe.verdict)
            assert probe.membership_table == tuple(row[:depth] for row in rows)
        degrees.add(len({sum(g) for g in ideal.gens}) > 1)
    assert verdicts == {Verdict.NOT_CLOSED, Verdict.CLOSED_EVIDENCE}
    assert True in degrees


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


@st.composite
def _small_primary_ideals(draw):
    """Primary ideals in 2 to 4 variables: a pure power x_i^a per variable,
    a in D..D+1, plus up to four mixed monomials of degree D, D in 2..4
    (2..3 in 4 variables), and up to one further monomial with no exponent
    above 3."""
    arity = draw(st.integers(2, 4))
    top = draw(st.integers(2, 3 if arity == 4 else 4))
    pure = [tuple(draw(st.integers(top, top + 1)) if j == i else 0 for j in range(arity))
            for i in range(arity)]
    mixed = [m for m in itertools.product(range(top), repeat=arity) if sum(m) == top]
    extra = st.tuples(*[st.integers(0, 3)] * arity).filter(any)
    return MonomialIdeal(arity, pure + draw(st.lists(st.sampled_from(mixed), max_size=4))
                         + draw(st.lists(extra, max_size=1)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_primary_ideals(), st.integers(1, 5))
@example(NEGATIVE_CONTROL, 5)
@example(MonomialIdeal(2, [(8, 0), (6, 2), (3, 5), (1, 7), (0, 8)]), 4)
@example(MonomialIdeal(3, [(4, 0, 0), (0, 4, 0), (0, 0, 4), (3, 0, 1), (1, 0, 3),
                           (1, 1, 2), (1, 2, 1)]), 3)
def test_bounded_test_refutes_only_rows_without_a_pass(ideal, depth):
    # The table is exact at every depth, and a candidate that some pure
    # power refutes, at the depth cap or past it, passes at no depth.
    probe = socle_probe(ideal, depth)
    assert probe.membership_table == _oracle_table(ideal, probe.candidates, depth)
    for c, row in zip(probe.candidates, probe.membership_table):
        if _refuted_by_oracle(c, ideal.gens) or _refuted_by_oracle(c, ideal.gens, depth):
            assert True not in row


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
