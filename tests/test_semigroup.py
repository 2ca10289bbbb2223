"""Sequence validation, semigroup membership, and derived parameters."""

import math
import random

import pytest

from semicurve.semigroup import (
    Case,
    CurveInstance,
    _ArithmeticPart,
    derive,
    validate,
)

from oracles import ladder, members_upto, sequence_params, validation_failures

W_TEXT = "5,8,11;7"
W_PARAMS = {"u": 3, "v": 3, "w": 2, "z": 2, "lam": 1, "mu": 2,
            "q": 1, "r": 1, "q_z": 0, "r_z": 2, "eps": 1, "case": "CASE1"}


def test_instance_parsing_and_roundtrip():
    w = CurveInstance.parse(W_TEXT)
    assert w.arith == (5, 8, 11) and w.extra == 7
    assert w.p == 2 and w.n == 3 and w.arity == 4
    assert w.weights == (5, 8, 11, 7)
    assert w.text() == W_TEXT
    assert CurveInstance.parse(w.text()) == w
    with pytest.raises(ValueError):
        CurveInstance.parse("5,8,11")
    with pytest.raises(ValueError):
        CurveInstance.parse("5,8;11;7")


def test_validation_rejections():
    # Not an arithmetic progression.
    assert not validate((4, 6, 9), 5).ok
    # gcd > 1 over all generators.
    report = validate((4, 6, 8), 2)
    assert not report.ok and report.first
    # Non-increasing arithmetic part.
    assert not validate((8, 6, 4), 5).ok
    # Nonpositive entries.
    assert not validate((0, 3, 6), 5).ok
    assert validate((5, 8, 11), 7).ok
    # The first redundant generator: the extra one (13 = 5 + 8, gcd 1); m2
    # with M = 2 <= p (4 = 2 + 2); m1 equal to mn; m1 divisible by mn.
    for text, name, value in (("5,8,11;13", "mn", 13), ("2,3,4;5", "m2", 4),
                              ("5,8,11;8", "m1", 8), ("999997,999998;2", "m1", 999998)):
        curve = CurveInstance.parse(text)
        assert validate(curve.arith, curve.extra).first == (
            f"not minimally generated: {name} = {value} lies in the semigroup of the others")


def test_validation_reports_the_first_of_several_failures():
    # The p = 3 progression 4, 6, 8, 10 has M = 2: m2 = m0 + 4 always
    # fails, but mn = 3 divides m1 first.  mn = m2 = 11: both lie in the
    # semigroup of the others, and m2 comes first.  Over the generator
    # budget, gcd 2 and p = 41 lose to it, and p = 42 to gcd 2.
    big = 2 * 10 ** 6
    for arith, extra, first in (
            ((4, 6, 8, 10), 3, "not minimally generated: m1 = 6 lies in the semigroup of the others"),
            ((4, 6, 8, 10), 5, "not minimally generated: m2 = 8 lies in the semigroup of the others"),
            ((5, 8, 11), 11, "not minimally generated: m2 = 11 lies in the semigroup of the others"),
            ((2, 4), big, "generators must not exceed 1000000"),
            (tuple(range(2, 44)), big, "generators must not exceed 1000000"),
            (tuple(range(2, 88, 2)), 4, "p must not exceed 40")):
        assert validate(arith, extra).failures == (first,), (arith, extra)
        if first.startswith("not"):
            assert validation_failures(arith, extra) == (first,), (arith, extra)


def _validation_sample(count, seed):
    """Seeded candidates in six kinds by turn: M = m0/gcd(m0, d) <= p; mn
    equal to some m_i; mn = 1; mn > 1 dividing some m_i; gcd(m0, d) > 1;
    and mn much smaller than m0."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind, p = k % 6, rng.randint(1, 8)
        m0, d = rng.randint(2, 150), rng.randint(1, 40)
        if kind == 0:
            G = rng.randint(2, 6)
            m0, d = G * rng.randint(1, p), G * rng.randint(1, 12)
        elif kind == 4:
            G = rng.choice((2, 3, 5, 6))
            m0, d = G * rng.randint(1, 150 // G), G * rng.randint(1, 40 // G)
        arith = tuple(m0 + i * d for i in range(p + 1))
        m = rng.choice(arith)
        mn = (rng.randint(2, 2 * m0), m, 1, rng.choice([x for x in range(2, m + 1) if m % x == 0]),
              rng.randint(2, 2 * m0), rng.randint(2, max(2, m0 // 10)))[kind]
        out.append((arith, mn))
    return out


def test_validation_against_brute_force():
    # Minimal generation is decided from the closed-form Apery set of the
    # arithmetic part; the oracle enumerates the semigroup of the others
    # up to each generator.
    # Every candidate of Bounds((1, 2, 3), 25, 25), in the enumeration's loops.
    cands = [(tuple(m0 + i * d for i in range(p + 1)), mn)
             for p in (1, 2, 3) for m0 in range(1, 26) for d in range(1, (25 - m0) // p + 1)
             for mn in range(1, 26)]
    assert len(cands) == 13400
    sample = _validation_sample(600, seed=18)
    assert sum(arith[0] // math.gcd(arith[0], arith[1] - arith[0]) <= len(arith) - 1
               for arith, _ in sample) >= 100
    assert sum(math.gcd(arith[0], arith[1] - arith[0]) > 1 for arith, _ in sample) >= 200
    firsts = []
    for arith, mn in cands + sample:
        report = validate(arith, mn)
        assert report.failures == validation_failures(arith, mn), (arith, mn)
        firsts.append(report.first)
    # Every outcome occurs: valid, gcd > 1, m0, a later m_i, and mn redundant.
    assert None in firsts and "generators must have gcd 1" in firsts
    for name in ("m0", "m1", "m2", "m3", "mn"):
        assert any(f and f.startswith(f"not minimally generated: {name} =") for f in firsts)


def test_ladder_decomposition():
    A = _ArithmeticPart((5, 8, 11))  # p = 2
    assert [(*A.split(t), A.g(t)) for t in range(4)] == [
        (-1, 2, 0), (0, 1, 8), (0, 2, 11), (1, 1, 19)]


def test_worked_instance_params_exact():
    w = CurveInstance.parse(W_TEXT)
    assert derive(w).to_dict() == W_PARAMS


def _valid_instances_beyond_corpus(count, seed):
    """Seeded valid instances with p in 1..4 and m0 in 26..150, outside
    Bounds((1,2,3), 25, 25)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, m0, d = rng.randint(1, 4), rng.randint(26, 150), rng.randint(1, 12)
        arith = tuple(m0 + i * d for i in range(p + 1))
        extra = rng.randint(2, 2 * m0)
        if validate(arith, extra).ok:
            out.append(CurveInstance(arith, extra))
    return out


def _wide_sample(count, seed):
    """Seeded instances with p in 1..12 and m0 up to 600, in three kinds by
    turn: valid ones with d in 1..60, valid ones with gcd(m0, d) > 1, and
    ones with m0 | d and gcd(m0, mn) = 1.  The last kind fails validation
    (m1 lies in <m0>), but its parameters are well defined: the arithmetic
    part is m0*N, and u = 1, v = m0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, kind = rng.randint(1, 12), len(out) % 3
        if kind == 0:
            m0, d = rng.randint(2, 600), rng.randint(1, 60)
        elif kind == 1:
            f = rng.choice((2, 3, 5))
            m0, d = f * rng.randint(1, 600 // f), f * rng.randint(1, 60 // f)
        else:
            m0 = rng.randint(2, 30)
            d = m0 * rng.randint(1, 60 // m0)
        arith = tuple(m0 + i * d for i in range(p + 1))
        extra = rng.randint(2, 2 * m0)
        if validate(arith, extra).ok if kind < 2 else math.gcd(m0, extra) == 1:
            out.append(CurveInstance(arith, extra))
    return out


PARAM_KEYS = ("u", "v", "w", "z", "lam", "mu", "q", "r", "q_z", "r_z", "eps")


def test_derived_params_match_independent_oracle():
    texts = ("5,8,11;7", "4,7,10;13", "5,7,9;8", "7,8,9;11", "6,7,8;9", "21,22,23,24;16")
    wide = _wide_sample(300, seed=16)
    assert sum(math.gcd(c.arith[0], c.arith[1] - c.arith[0]) > 1 for c in wide) >= 200
    assert sum((c.arith[1] - c.arith[0]) % c.arith[0] == 0 for c in wide) == 100
    assert max(c.p for c in wide) == 12 and max(c.arith[0] for c in wide) > 550
    curves = [CurveInstance.parse(t) for t in texts] + _valid_instances_beyond_corpus(100, seed=7) + wide
    for curve in curves:
        got = derive(curve).to_dict()
        want = sequence_params(curve.arith, curve.extra)
        assert len(want["w_lam_solutions"]) == 1, curve.text()
        assert len(want["z_mu_solutions"]) == 1, curve.text()
        for key in PARAM_KEYS:
            assert got[key] == want[key], (curve.text(), key)


def test_large_family_pattern_against_oracle():
    # The family (2k, 2k+1; 2k-1) has the parameters below; test_cli checks
    # them at k = 10000, where the oracle would be slow.
    k = 300
    curve = CurveInstance((2 * k, 2 * k + 1), 2 * k - 1)
    pattern = {"u": k, "v": k + 1, "w": k, "z": k - 1, "lam": 1, "mu": 1,
               "q": k - 1, "r": 1, "q_z": k - 2, "r_z": 1, "eps": 1}
    want = sequence_params(curve.arith, curve.extra, limit=(k + 2) * 2 * k)
    assert len(want["w_lam_solutions"]) == 1 and len(want["z_mu_solutions"]) == 1
    assert {key: want[key] for key in pattern} == pattern
    assert derive(curve).to_dict() == dict(pattern, case="CASE1")


def test_small_v_large_u_family_against_oracle():
    # The family (2j, 2j+1; 3j+1) has v = 2 whatever u = j + 1; test_cli
    # checks it at j = 333333.
    for j in range(2, 31):
        curve = CurveInstance((2 * j, 2 * j + 1), 3 * j + 1)
        pattern = {"u": j + 1, "v": 2, "w": 1, "z": 2, "lam": j, "mu": 1,
                   "q": j, "r": 1, "q_z": 1, "r_z": 1, "eps": 1}
        want = sequence_params(curve.arith, curve.extra)
        assert len(want["w_lam_solutions"]) == 1 and len(want["z_mu_solutions"]) == 1
        assert {key: want[key] for key in pattern} == pattern, j
        assert derive(curve).to_dict() == dict(pattern, case="CASE1"), j


def test_case_split():
    assert derive(CurveInstance.parse("5,8,11;7")).case is Case.CASE1
    # eps = 0 and q_z = 0 together flip the case.
    dp = derive(CurveInstance.parse("7,8,9;11"))
    assert dp.eps == 0 and dp.q_z == 0 and dp.case is Case.CASE2


def test_u_matches_definition_of_S():
    # S holds the semigroup elements whose predecessor by m0 lies outside
    # the semigroup; u is the first rung of the g_t ladder outside S.
    for curve in [CurveInstance.parse(W_TEXT)] + _wide_sample(300, seed=16):
        m0, u = curve.arith[0], derive(curve).u
        rungs = [ladder(t, curve.arith)[2] for t in range(u + 1)]
        gamma = members_upto(curve.weights, rungs[-1])
        in_S = [g in gamma and g - m0 not in gamma for g in rungs]
        assert all(in_S[:u]) and not in_S[u], curve.text()
