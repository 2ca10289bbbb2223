"""Binomial generator families and the closed-form monomial lists."""
from semicurve.curve import (
    Binomial,
    ClosedForm,
    closed_form_table,
    initial_closed_form,
    kernel_check,
    patil_singh_generators,
)
from semicurve.ideals import MonomialIdeal
from semicurve.semigroup import CurveInstance, derive

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
        order = curve.order()
        gens = patil_singh_generators(dp, curve)
        p, r, r_z, eps = curve.p, dp.r, dp.r_z, dp.eps
        expected_count = (p - r + 1) + ((1 - eps) * p + r_z - r + 1) + 1 + p * (p - 1) // 2
        assert len(gens) == expected_count, text
        for b in gens:
            assert kernel_check(b, curve.weights), (text, b.text())
            assert order.key(b.lead) > order.key(b.tail)


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


def test_zero_convention_drops_are_reported():
    # On the worked instance the x0-free socle row evaluates with a negative
    # exponent and is dropped, which the table must surface.
    table = closed_form_table(W_DP, W, ClosedForm.SOCLE_RHO_CHI)
    assert table.dropped_count == 1
    literal = sorted(table.monomials, key=W.order().key, reverse=True)
    assert literal == [(0, 1, 0, 0)]  # only x1 survives


def test_closed_form_rows_have_names_and_ranges():
    table = closed_form_table(W_DP, W, ClosedForm.COLON_X1_TO_P)
    names = [row.name for row in table.rows]
    assert len(names) == len(set(names)) == 4
    assert any(row.empty_range for row in table.rows)
    assert table.empty_ranges  # degenerate p = 2 sub-ranges are flagged


def test_delta_gated_row_activation():
    # The q_z = 0 gate must switch the extra row on and off (both instances
    # use the same case's table; only q_z differs).
    t_on = closed_form_table(W_DP, W, ClosedForm.SOCLE_RHO_CHI)  # q_z = 0
    off_curve = CurveInstance.parse("21,22,23,24;16")            # q_z = 1
    t_off = closed_form_table(derive(off_curve), off_curve,
                              ClosedForm.SOCLE_RHO_CHI)
    gated_on = [row for row in t_on.rows if "delta" in row.name]
    gated_off = [row for row in t_off.rows if "delta" in row.name]
    assert gated_on and all(row.active for row in gated_on)
    assert gated_off and not any(row.active for row in gated_off)


def test_binomial_text_and_json():
    b = Binomial((0, 1, 1, 0), (1, 0, 0, 2))
    assert b.text() == "x1*x2 - x0*x3^2"
