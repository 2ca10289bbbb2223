"""Generators of the curve ideal and the closed-form monomial lists.

The defining ideal of the monomial curve x_i = t^(m_i) is generated by
four explicit binomial families (phi, psi, theta, alpha) built from the
derived parameters.  This module constructs them, the closed-form minimal
generators of the initial ideal, and the published colon/socle generator
lists that the survey comparator checks against the generic engine.

The published lists follow the zero convention: a monomial whose formula
produces a negative exponent is treated as 0 and dropped.  The row gated
by a Kronecker delta on q_z is displayed only when q_z = 0.  A list keeps
no rows, only the three facts the survey's guards and comparator read.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from semicurve.errors import InternalCheckError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import format_monomial, weighted_degree


@dataclass(frozen=True)
class Binomial:
    """lead - tail with unit coefficients; lead is strictly larger under
    the instance's order and both sides have equal weighted degree."""

    lead: tuple
    tail: tuple

    def text(self):
        return f"{format_monomial(self.lead)} - {format_monomial(self.tail)}"


def kernel_check(binomial, weights):
    """True iff the two sides have equal weighted degree, i.e. the binomial
    vanishes under x_i -> t^(w_i)."""
    return weighted_degree(binomial.lead, weights) == weighted_degree(binomial.tail, weights)


def _mono(arity, pairs):
    """Exponent vector from (index, exponent) contributions; None when any
    total exponent is negative (zero convention)."""
    e = [0] * arity
    for idx, c in pairs:
        if not 0 <= idx < arity:
            raise InternalCheckError(f"variable index {idx} outside arity {arity}")
        e[idx] += c
    if min(e) < 0:
        return None
    return tuple(e)


def patil_singh_generators(dp, instance):
    """The four binomial families generating the curve ideal, in family
    order phi, psi, theta, alpha.  Every output is checked for weighted
    homogeneity and for lead/tail orientation under the instance order."""
    p, n = instance.p, instance.n
    arity = instance.arity
    order = instance.order()
    out = []

    def emit(lead_pairs, tail_pairs, label):
        lead = _mono(arity, lead_pairs)
        tail = _mono(arity, tail_pairs)
        if lead is None or tail is None:
            raise InternalCheckError(f"negative exponent constructing {label} for {instance.text()}")
        b = Binomial(lead, tail)
        if not kernel_check(b, instance.weights):
            raise InternalCheckError(f"{label} is not weighted-homogeneous for {instance.text()}")
        if not order.exceeds(lead, tail):
            raise InternalCheckError(f"{label} lead is not the larger side for {instance.text()}")
        out.append(b)

    for i in range(0, p - dp.r + 1):
        emit([(i + dp.r, 1), (p, dp.q)],
             [(0, dp.lam - 1), (i, 1), (n, dp.w)],
             f"phi_{i}")
    for j in range(0, (1 - dp.eps) * p + dp.r_z - dp.r + 1):
        emit([(dp.eps * p + dp.r - dp.r_z + j, 1), (p, dp.q - dp.q_z - dp.eps), (n, dp.v - dp.w)],
             [(0, dp.lam + dp.mu - dp.eps), (j, 1)],
             f"psi_{j}")
    emit([(n, dp.v)], [(0, dp.mu), (dp.r_z, 1), (p, dp.q_z)], "theta")
    for i in range(1, p):
        for j in range(i, p):
            emit([(i, 1), (j, 1)], [(i - 1, 1), (j + 1, 1)], f"alpha_{i}_{j}")
    return tuple(out)


def initial_closed_form(dp, instance):
    """Minimal generators of the initial ideal from the closed form: x_i*x_p^q
    for r <= i <= p, x_j*x_p^(q-q_z-eps)*x_n^(v-w) for eps*p+r-r_z <= j <= p,
    x_n^v, and x_i*x_j for 1 <= i <= j < p.  The zero convention does not
    apply: a negative exponent is an internal error naming the instance."""
    p, n, arity = instance.p, instance.n, instance.arity
    rows = [[(i, 1), (p, dp.q)] for i in range(dp.r, p + 1)]
    rows += [[(j, 1), (p, dp.q - dp.q_z - dp.eps), (n, dp.v - dp.w)]
             for j in range(dp.eps * p + dp.r - dp.r_z, p + 1)]
    rows.append([(n, dp.v)])
    rows += [[(i, 1), (j, 1)] for i in range(1, p) for j in range(i, p)]
    gens = [_mono(arity, pairs) for pairs in rows]
    if None in gens:
        raise InternalCheckError(
            f"negative exponent in initial-ideal closed form for {instance.text()}: "
            f"exponent pairs {rows[gens.index(None)]}")
    return MonomialIdeal(arity, gens, weights=instance.weights)


class ClosedForm(enum.Enum):
    COLON_X1_TO_PM1 = "COLON_X1_TO_PM1"
    COLON_X1_TO_P = "COLON_X1_TO_P"
    COLON_XN = "COLON_XN"
    SOCLE_RHO_CHI = "SOCLE_RHO_CHI"


@dataclass(frozen=True)
class ClosedFormList:
    """One published list as the comparator reads it: its distinct
    monomials in row order, the count the zero convention dropped, and the
    names of the rows whose index range is empty."""

    selector: ClosedForm
    monomials: tuple
    dropped_count: int
    empty_ranges: tuple


def _closed_form_list(arity, selector, specs):
    """The list of selector from its displayed rows, given as specs
    (name, lo, hi, pairs_for): pairs_for(i) gives the exponent pairs of the
    row's monomial at each index i in lo..hi, inclusive, or at i = None for
    a single monomial, whose lo and hi are None."""
    monomials, dropped, empty = {}, 0, []
    for name, lo, hi, pairs_for in specs:
        if lo is not None and lo > hi:
            empty.append(name)
        for i in (None,) if lo is None else range(lo, hi + 1):
            m = _mono(arity, pairs_for(i))
            if m is None:
                dropped += 1
            else:
                monomials[m] = None
    return ClosedFormList(selector, tuple(monomials), dropped, tuple(empty))


def closed_form_table(dp, instance, selector):
    """The selected published colon/socle list, built from its rows as
    displayed.  The delta(q_z = 0) row is displayed only when q_z = 0."""
    p, n = instance.p, instance.n
    q, r, q_z, r_z, eps, v, w = dp.q, dp.r, dp.q_z, dp.r_z, dp.eps, dp.v, dp.w
    case2 = dp.eps == 0 and dp.q_z == 0

    if selector is ClosedForm.COLON_X1_TO_PM1:
        specs = [("x_i", 1, p - 1, lambda i: [(i, 1)])]
    elif selector is ClosedForm.COLON_X1_TO_P:
        specs = [
            ("x_i*x_p^q", 1, r - 1,
             lambda i: [(i, 1), (p, q)]),
            ("x_i*x_p^(q-1)", r, p - 1,
             lambda i: [(i, 1), (p, q - 1)]),
            ("x_i*x_p^(q-q_z-eps)*x_n^(v-w)", 1, eps * p + r - r_z - 1,
             lambda i: [(i, 1), (p, q - q_z - eps), (n, v - w)]),
            ("x_i*x_p^(q-q_z-eps-1)*x_n^(v-w)", eps * p + r - r_z, p - 1,
             lambda i: [(i, 1), (p, q - q_z - eps - 1), (n, v - w)]),
        ]
    elif selector is ClosedForm.COLON_XN:
        if case2:
            specs = [
                ("x_i*x_p^q*x_n^(v-w-1)", r - r_z, r - 1,
                 lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
                ("x_n^(v-1)", None, None, lambda _: [(n, v - 1)]),
            ]
        else:
            specs = [
                ("x_i*x_p^(q-q_z-eps)*x_n^(v-w-1)", p + r - r_z, p - 1,
                 lambda i: [(i, 1), (p, q - q_z - eps), (n, v - w - 1)]),
                ("x_p^(q-q_z-eps+1)*x_n^(v-w-1)", None, None,
                 lambda _: [(p, q - q_z - eps + 1), (n, v - w - 1)]),
                ("x_n^(v-1)", None, None, lambda _: [(n, v - 1)]),
            ]
    elif selector is ClosedForm.SOCLE_RHO_CHI:
        if case2:
            specs = [
                ("rho: x_i*x_p^(q-1)*x_n^(v-1)", r - r_z, p - 1,
                 lambda i: [(i, 1), (p, q - 1), (n, v - 1)]),
                ("chi: x_i*x_p^q*x_n^(v-1)", 1, r - r_z - 1,
                 lambda i: [(i, 1), (p, q), (n, v - 1)]),
                ("chi: x_i*x_p^q*x_n^(v-w-1)", r - r_z, r - 1,
                 lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
            ]
        else:
            delta = [("chi: delta(q_z=0) x_i*x_p^(q-1)*x_n^(v-w-1)", r, eps * p + r - r_z - 1,
                      lambda i: [(i, 1), (p, q - 1), (n, v - w - 1)])] if q_z == 0 else []
            specs = [
                ("rho: x_i*x_p^(q-q_z-eps-1)*x_n^(v-1)", eps * p + r - r_z, p - 1,
                 lambda i: [(i, 1), (p, q - q_z - eps - 1), (n, v - 1)]),
                ("chi: x_i*x_p^q*x_n^(v-w-1)", 1, r - 1,
                 lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
                *delta,
                ("chi: x_i*x_p^(q-1)*x_n^(v-w-1)", eps * p + r - eps * r_z, p - 1,
                 lambda i: [(i, 1), (p, q - 1), (n, v - w - 1)]),
                ("chi: x_i*x_p^(q-q_z-eps)*x_n^(v-1)", 1, eps * p + r - r_z - 1,
                 lambda i: [(i, 1), (p, q - q_z - eps), (n, v - 1)]),
            ]
    else:
        raise ValueError(f"{selector} is not a colon/socle closed form")
    return _closed_form_list(instance.arity, selector, specs)
