"""Binomial generator families and the closed-form monomial lists."""
from dataclasses import replace
from operator import mul

import pytest

from semicurve.curve import (
    Binomial,
    ClosedForm,
    closed_form_table,
    initial_closed_form,
    kernel_check,
    patil_singh_generators,
)
from semicurve.errors import InternalCheckError
from semicurve.ideals import MonomialIdeal
from semicurve.semigroup import CurveInstance, derive
from semicurve.survey import Bounds, enumerate_instances, front_half

from oracles import apery_set, grevlex_key, standard_monomials

W = CurveInstance.parse("5,8,11;7")
W_DP = derive(W)

# lead/tail exponent tuples over (x0, x1, x2, x3), weights (5, 8, 11, 7)
W_GENERATORS = (
    ((0, 1, 1, 0), (1, 0, 0, 2)),   # x1*x2 - x0*x3^2
    ((0, 0, 2, 0), (0, 1, 0, 2)),   # x2^2 - x1*x3^2
    ((0, 1, 0, 1), (3, 0, 0, 0)),   # x1*x3 - x0^3
    ((0, 0, 1, 1), (2, 1, 0, 0)),   # x2*x3 - x0^2*x1
    ((0, 0, 0, 3), (2, 0, 1, 0)),   # x3^3 - x0^2*x2
    ((0, 2, 0, 0), (1, 0, 1, 0)),   # x1^2 - x0*x2
)


def test_worked_instance_generators_exact():
    gens = patil_singh_generators(W_DP, W)
    assert tuple((b.lead, b.tail) for b in gens) == W_GENERATORS


def test_generator_invariants_on_samples():
    for text in ("5,8,11;7", "7,8,9;11", "6,7,8;9", "21,22,23,24;16", "4,7;9"):
        curve = CurveInstance.parse(text)
        dp = derive(curve)
        key = grevlex_key(curve.weights)
        gens = patil_singh_generators(dp, curve)
        p, r, r_z, eps = curve.p, dp.r, dp.r_z, dp.eps
        expected_count = (p - r + 1) + ((1 - eps) * p + r_z - r + 1) + 1 + p * (p - 1) // 2
        assert len(gens) == expected_count, text
        for b in gens:
            assert kernel_check(b, curve.weights), (text, b.text())
            assert key(b.lead) > key(b.tail)


def test_initial_ideal_closed_form_is_lead_set():
    for text in ("5,8,11;7", "7,8,9;11", "21,22,23,24;16"):
        curve = CurveInstance.parse(text)
        dp = derive(curve)
        gens = patil_singh_generators(dp, curve)
        closed = initial_closed_form(dp, curve)
        lead_ideal = MonomialIdeal(curve.arity, [b.lead for b in gens],
                                   weights=curve.weights)
        assert closed == lead_ideal, text


def test_worked_instance_initial_ideal():
    closed = initial_closed_form(W_DP, W)
    want = MonomialIdeal(4, [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0),
                            (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 3)],
                         weights=W.weights)
    assert closed == want


def test_initial_closed_form_rejects_a_negative_exponent():
    # q_z = q + 1 makes the exponent q - q_z - eps of x_p negative.
    with pytest.raises(InternalCheckError, match="5,8,11;7"):
        initial_closed_form(replace(W_DP, q_z=W_DP.q + 1), W)


def _standard_degrees(gens, weights):
    """Sorted weighted degrees of the standard monomials in x1..xn of the
    monomial ideal gens: the generators that use x0 divide none of them."""
    gens = [g[1:] for g in gens if not g[0]]
    return sorted(sum(map(mul, m, weights[1:]))
                  for m in standard_monomials(gens, len(weights) - 1))


def test_initial_ideal_standard_degrees_are_the_apery_set(corpus):
    # x0 is the smallest variable of the order, so in(I + (x0)) = in(I) +
    # (x0), and the standard monomials of in(I) in x1..xn are a basis of
    # k[S]/(t^m0), one in each degree of Ap(S, m0).  The reference reads
    # the semigroup only, never derive.
    wide = enumerate_instances(Bounds((3, 4, 5, 6), 45, 45))[0][::40]
    cases = [(rep.instance, rep.in_ideal_computed) for rep in corpus.instances]
    cases += [(curve, front_half(curve).in_ideal_computed) for curve in wide]
    for curve, ideal in cases:
        weights = curve.weights
        want = apery_set(weights)
        assert _standard_degrees(ideal.gens, weights) == want, curve.text()
        # A bumped x_n^v adds the standard monomial x_n^v: the check fails.
        bumped = [g[:-1] + (g[-1] + 1,) if not any(g[:-1]) else g for g in ideal.gens]
        assert _standard_degrees(bumped, weights) != want, curve.text()


def test_zero_convention_drops_are_reported():
    # On the worked instance the x0-free socle row evaluates with a negative
    # exponent and is dropped, which the table must surface.
    table = closed_form_table(W_DP, W, ClosedForm.SOCLE_RHO_CHI)
    assert table.dropped_count == 1
    literal = sorted(table.monomials, key=grevlex_key(W.weights), reverse=True)
    assert literal == [(0, 1, 0, 0)]  # only x1 survives


def test_closed_form_rows_have_names_and_ranges():
    # The degenerate p = 2 sub-ranges 1..0 are flagged by row name, in row order.
    table = closed_form_table(W_DP, W, ClosedForm.COLON_X1_TO_P)
    assert table.empty_ranges == ("x_i*x_p^q", "x_i*x_p^(q-q_z-eps)*x_n^(v-w)")


DELTA_ROW = "chi: delta(q_z=0) x_i*x_p^(q-1)*x_n^(v-w-1)"


def test_delta_gated_row_activation():
    # The q_z = 0 gate must switch the extra row on and off (both instances
    # use the same case's table; only q_z differs).  Its range is empty on
    # both, 1..0 and 2..1, so only a displayed row is flagged.
    t_on = closed_form_table(W_DP, W, ClosedForm.SOCLE_RHO_CHI)  # q_z = 0
    off_curve = CurveInstance.parse("21,22,23,24;16")            # q_z = 1
    t_off = closed_form_table(derive(off_curve), off_curve,
                              ClosedForm.SOCLE_RHO_CHI)
    assert DELTA_ROW in t_on.empty_ranges
    assert DELTA_ROW not in t_off.empty_ranges


def test_binomial_text_and_json():
    b = Binomial((0, 1, 1, 0), (1, 0, 0, 2))
    assert b.text() == "x1*x2 - x0*x3^2"
