"""Acceptance gate: eight pass/fail criteria over the full verification corpus.

Each test prints (and registers for the terminal summary) a single
``criterion N (label): PASS/FAIL`` line with its headline numbers.
"""
import random
import time
from operator import add

from semicurve.curve import initial_closed_form, patil_singh_generators
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import WeightedGrevlexOrder
from semicurve.ratliff_rush import (
    PowerCache,
    Verdict,
    certify_witness,
    rr_chain,
    socle_probe,
)
from semicurve.semigroup import CurveInstance, derive
from semicurve.survey import GuardStatus, MatchStatus

from conftest import ACCEPTANCE_DEPTH, record_acceptance
from oracles import in_ideal, intersect, ladder, product_gens, radical, sequence_params

SEED = 20260823


class Criterion:
    """Records one acceptance line; FAIL if the body raises."""

    def __init__(self, num, label):
        self.num = num
        self.label = label
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        detail = self.detail if exc_type is None else str(exc)[:160]
        line = f"criterion {self.num} ({self.label}): {status}"
        if detail:
            line += f" -- {detail}"
        print(line)
        record_acceptance(line)
        return False


def test_criterion_1_worked_instance(worked_instance):
    with Criterion(1, "worked instance exact values") as c:
        start = time.perf_counter()
        dp = derive(worked_instance)
        gens = patil_singh_generators(dp, worked_instance)
        in_ideal_closed = initial_closed_form(dp, worked_instance)
        elapsed = time.perf_counter() - start

        assert dp.to_dict() == {
            "u": 3, "v": 3, "w": 2, "z": 2, "lam": 1, "mu": 2,
            "q": 1, "r": 1, "q_z": 0, "r_z": 2, "eps": 1, "case": "CASE1"}
        assert {(b.lead, b.tail) for b in gens} == {
            ((0, 1, 1, 0), (1, 0, 0, 2)),
            ((0, 0, 2, 0), (0, 1, 0, 2)),
            ((0, 1, 0, 1), (3, 0, 0, 0)),
            ((0, 0, 1, 1), (2, 1, 0, 0)),
            ((0, 0, 0, 3), (2, 0, 1, 0)),
            ((0, 2, 0, 0), (1, 0, 1, 0))}
        assert in_ideal_closed == MonomialIdeal(
            4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
                (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 3)],
            weights=(5, 8, 11, 7))
        assert elapsed < 1.0
        c.detail = f"6 generators, {elapsed * 1000:.1f} ms"


def test_criterion_2_basis_verification_on_corpus(corpus):
    with Criterion(2, "basis verification across corpus") as c:
        n = len(corpus.instances)
        assert n >= 100
        failed = [r.instance.text() for r in corpus.instances if not r.gb.passed]
        assert failed == []
        assert corpus.wall_ms < 600_000
        c.detail = (f"{n} instances all verified, "
                    f"wall {corpus.wall_ms / 1000:.1f} s")


def test_criterion_3_initial_ideal_closed_form(corpus):
    with Criterion(3, "initial ideal closed form") as c:
        bad = [r.instance.text() for r in corpus.instances
               if r.in_ideal_match is not MatchStatus.MATCH]
        assert bad == []
        c.detail = f"{len(corpus.instances)}/{len(corpus.instances)} MATCH"


def test_criterion_4_closedness_evidence(corpus):
    with Criterion(4, "closedness evidence on corpus") as c:
        assert corpus.depth == ACCEPTANCE_DEPTH == 4
        for rep in corpus.instances:
            assert rep.rr.verdict is Verdict.CLOSED_EVIDENCE
            assert rep.rr.chain_equal == (True,) * 4
            assert all(not any(row) for row in rep.rr.membership_table)
            assert "EVIDENCE" in rep.rr.verdict.value
        c.detail = (f"{len(corpus.instances)} instances CLOSED_EVIDENCE "
                    f"at depth 4 (evidence-level label)")


def test_criterion_5_negative_control():
    with Criterion(5, "certified non-closed control") as c:
        control = MonomialIdeal(2, [(4, 0), (3, 1), (1, 3), (0, 4)])
        chain = rr_chain(control, 3)
        probe = socle_probe(control, 3)
        assert chain.verdict is Verdict.NOT_CLOSED
        assert probe.verdict is Verdict.NOT_CLOSED
        assert chain.witness == probe.witness == (2, 2)
        assert chain.witness_depth == probe.witness_depth == 1
        certify_witness(control, (2, 2), 1, PowerCache(control))
        # Independent re-check by exhaustive divisibility.
        gens = list(control.gens)
        square = product_gens(gens, gens)
        assert not in_ideal((2, 2), gens)
        for g in gens:
            shifted = tuple(a + b for a, b in zip((2, 2), g))
            assert in_ideal(shifted, square)
        c.detail = "witness (2, 2) at depth 1, re-verified by divisibility"


def test_criterion_6_closed_form_comparisons(corpus):
    with Criterion(6, "closed-form colon lists vs engine") as c:
        stats = corpus.colon_stats
        required_total = 0
        for selector, entry in stats.items():
            assert entry["required"] == entry["required_matched"], selector
            required_total += entry["required"]
        assert required_total >= 1
        # Guard-violated deviations are logged, never silent.
        expected_errata = sum(
            1 for rep in corpus.instances for comp in rep.colon
            if comp.guard.status is GuardStatus.GUARD_VIOLATED_INFO
            and comp.ideal_equal is False)
        assert len(corpus.errata) == expected_errata
        assert any(e.instance == "5,8,11;7" for e in corpus.errata)
        c.detail = (f"{required_total} guarded comparisons matched, "
                    f"{len(corpus.errata)} errata logged (worked instance included)")


def test_criterion_7_property_suites(corpus):
    with Criterion(7, "randomized property suites") as c:
        rng = random.Random(SEED)

        # Order axioms on >= 10^4 random triples.
        order = WeightedGrevlexOrder((5, 8, 11, 7))
        for _ in range(10_000):
            a, b, k = (tuple(rng.randrange(7) for _ in range(4)) for _ in range(3))
            ab, ba = order.exceeds(a, b), order.exceeds(b, a)
            # Totality and antisymmetry: exactly one of two distinct
            # monomials exceeds the other, and none exceeds itself.
            assert ab + ba == (a != b)
            # Multiplicativity: multiplying both sides by k keeps the comparison.
            ak, bk = tuple(map(add, a, k)), tuple(map(add, b, k))
            assert (order.exceeds(ak, bk), order.exceeds(bk, ak)) == (ab, ba)

        # Ideal-arithmetic identities on >= 10^3 random small ideals.
        def random_ideal(arity):
            count = rng.randrange(1, 5)
            return MonomialIdeal(
                arity,
                [tuple(rng.randrange(5) for _ in range(arity))
                 for _ in range(count)])
        for _ in range(1_000):
            arity = rng.randrange(2, 5)
            I, J = random_ideal(arity), random_ideal(arity)
            if J.is_zero:
                continue
            assert I.colon(J).product(J).is_subset_of(I)
            assert I.product(J).is_subset_of(MonomialIdeal(arity, intersect(I.gens, J.gens)))
            assert MonomialIdeal(arity, I.gens) == I

        # Membership agrees with brute-force enumeration for >= 100 ideals.
        checked = 0
        while checked < 100:
            arity = rng.randrange(2, 4)
            I = random_ideal(arity)
            if I.is_zero or I.is_unit:
                continue
            checked += 1
            gens = list(I.gens)
            stack = [tuple([0] * arity)]
            seen = set()
            while stack:
                mono = stack.pop()
                if mono in seen or sum(mono) > 6:
                    continue
                seen.add(mono)
                assert (mono in I) == in_ideal(mono, gens)
                for i in range(arity):
                    bumped = list(mono)
                    bumped[i] += 1
                    stack.append(tuple(bumped))

        # Chain containment over the whole corpus.
        for rep in corpus.instances:
            ideal = rep.rr.ideal
            previous = ideal
            for J in rep.rr.chain:
                assert previous.is_subset_of(J)
                previous = J
            assert previous.is_subset_of(MonomialIdeal(ideal.arity, radical(ideal.gens)))

        # Verdict invariance under padding with an unused variable.
        padded_checked = 0
        for rep in corpus.instances[:100]:
            ideal = rep.rr.ideal
            weights = None if ideal.weights is None else ideal.weights + (1,)
            padded = MonomialIdeal(
                ideal.arity + 1, [g + (0,) for g in ideal.gens], weights=weights)
            base = rr_chain(ideal, 2)
            wide = rr_chain(padded, 2)
            assert wide.verdict is base.verdict is rep.rr.verdict
            padded_checked += 1
        assert padded_checked >= 100
        c.detail = ("10^4 order triples, 10^3 ideal identities, 100 membership "
                    "oracles, full-corpus chain containment, 100 padded reruns")


def test_criterion_8_parameter_uniqueness_and_identity(corpus):
    with Criterion(8, "parameter uniqueness and degree identity") as c:
        for rep in corpus.instances:
            curve, dp = rep.instance, rep.params
            oracle = sequence_params(curve.arith, curve.extra)
            assert len(oracle["w_lam_solutions"]) == 1, curve.text()
            assert len(oracle["z_mu_solutions"]) == 1, curve.text()
            assert oracle["w_lam_solutions"][0] == (dp.w, dp.lam)
            assert oracle["z_mu_solutions"][0] == (dp.z, dp.mu)

            m0, mn = curve.arith[0], curve.extra
            _, r_uz, g_uz = ladder(dp.u - dp.z, curve.arith)
            left = g_uz + (dp.v - dp.w) * mn
            factor = dp.lam + dp.mu + 1 if r_uz < dp.r else dp.lam + dp.mu
            assert left == factor * m0, curve.text()
        c.detail = (f"unique (w, lam) and (z, mu) plus exact degree identity "
                    f"on all {len(corpus.instances)} instances")
