"""Generators of the curve ideal and the closed-form monomial lists.

The defining ideal of the monomial curve x_i = t^(m_i) is generated by
four explicit binomial families (phi, psi, theta, alpha) built from the
derived parameters.  This module constructs them, the closed-form minimal
generators of the initial ideal, and the published colon/socle generator
lists that the survey comparator checks against the generic engine.

The published lists follow the zero convention: a monomial whose formula
produces a negative exponent is treated as 0 and dropped.  Rows gated by
a Kronecker delta on q_z are present only when q_z = 0.
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
class Row:
    """One displayed row of a closed-form list."""

    name: str
    lo: int | None          # index range, inclusive; None for a single monomial
    hi: int | None
    active: bool            # False when a delta-q_z gate excludes the row
    monomials: tuple        # emitted monomials (after the zero convention)
    dropped: int            # count removed by the zero convention

    @property
    def empty_range(self):
        return self.lo is not None and self.lo > self.hi


@dataclass(frozen=True)
class ClosedFormList:
    selector: ClosedForm
    rows: tuple

    @property
    def monomials(self):
        seen, out = set(), []
        for row in self.rows:
            for m in row.monomials:
                if m not in seen:
                    seen.add(m)
                    out.append(m)
        return tuple(out)

    @property
    def dropped_count(self):
        return sum(row.dropped for row in self.rows)

    @property
    def empty_ranges(self):
        return tuple(row.name for row in self.rows if row.active and row.empty_range)


def _ranged_row(arity, name, lo, hi, pairs_for, active=True):
    monos, dropped = [], 0
    if active:
        for i in range(lo, hi + 1):
            m = _mono(arity, pairs_for(i))
            if m is None:
                dropped += 1
            else:
                monos.append(m)
    return Row(name, lo, hi, active, tuple(monos), dropped)


def _single_row(arity, name, pairs, active=True):
    monos, dropped = (), 0
    if active:
        m = _mono(arity, pairs)
        if m is None:
            dropped = 1
        else:
            monos = (m,)
    return Row(name, None, None, active, monos, dropped)


def closed_form_table(dp, instance, selector):
    """Rows of the selected published colon/socle list, literally as
    displayed, including per-row diagnostics for the comparator guards."""
    p, n = instance.p, instance.n
    arity = instance.arity
    q, r, q_z, r_z, eps, v, w = dp.q, dp.r, dp.q_z, dp.r_z, dp.eps, dp.v, dp.w
    case2 = dp.eps == 0 and dp.q_z == 0

    if selector is ClosedForm.COLON_X1_TO_PM1:
        rows = [_ranged_row(arity, "x_i", 1, p - 1, lambda i: [(i, 1)])]
    elif selector is ClosedForm.COLON_X1_TO_P:
        rows = [
            _ranged_row(arity, "x_i*x_p^q", 1, r - 1,
                        lambda i: [(i, 1), (p, q)]),
            _ranged_row(arity, "x_i*x_p^(q-1)", r, p - 1,
                        lambda i: [(i, 1), (p, q - 1)]),
            _ranged_row(arity, "x_i*x_p^(q-q_z-eps)*x_n^(v-w)", 1, eps * p + r - r_z - 1,
                        lambda i: [(i, 1), (p, q - q_z - eps), (n, v - w)]),
            _ranged_row(arity, "x_i*x_p^(q-q_z-eps-1)*x_n^(v-w)", eps * p + r - r_z, p - 1,
                        lambda i: [(i, 1), (p, q - q_z - eps - 1), (n, v - w)]),
        ]
    elif selector is ClosedForm.COLON_XN:
        if case2:
            rows = [
                _ranged_row(arity, "x_i*x_p^q*x_n^(v-w-1)", r - r_z, r - 1,
                            lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
                _single_row(arity, "x_n^(v-1)", [(n, v - 1)]),
            ]
        else:
            rows = [
                _ranged_row(arity, "x_i*x_p^(q-q_z-eps)*x_n^(v-w-1)", p + r - r_z, p - 1,
                            lambda i: [(i, 1), (p, q - q_z - eps), (n, v - w - 1)]),
                _single_row(arity, "x_p^(q-q_z-eps+1)*x_n^(v-w-1)",
                            [(p, q - q_z - eps + 1), (n, v - w - 1)]),
                _single_row(arity, "x_n^(v-1)", [(n, v - 1)]),
            ]
    elif selector is ClosedForm.SOCLE_RHO_CHI:
        if case2:
            rows = [
                _ranged_row(arity, "rho: x_i*x_p^(q-1)*x_n^(v-1)", r - r_z, p - 1,
                            lambda i: [(i, 1), (p, q - 1), (n, v - 1)]),
                _ranged_row(arity, "chi: x_i*x_p^q*x_n^(v-1)", 1, r - r_z - 1,
                            lambda i: [(i, 1), (p, q), (n, v - 1)]),
                _ranged_row(arity, "chi: x_i*x_p^q*x_n^(v-w-1)", r - r_z, r - 1,
                            lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
            ]
        else:
            rows = [
                _ranged_row(arity, "rho: x_i*x_p^(q-q_z-eps-1)*x_n^(v-1)", eps * p + r - r_z, p - 1,
                            lambda i: [(i, 1), (p, q - q_z - eps - 1), (n, v - 1)]),
                _ranged_row(arity, "chi: x_i*x_p^q*x_n^(v-w-1)", 1, r - 1,
                            lambda i: [(i, 1), (p, q), (n, v - w - 1)]),
                _ranged_row(arity, "chi: delta(q_z=0) x_i*x_p^(q-1)*x_n^(v-w-1)",
                            r, eps * p + r - r_z - 1,
                            lambda i: [(i, 1), (p, q - 1), (n, v - w - 1)],
                            active=q_z == 0),
                _ranged_row(arity, "chi: x_i*x_p^(q-1)*x_n^(v-w-1)",
                            eps * p + r - eps * r_z, p - 1,
                            lambda i: [(i, 1), (p, q - 1), (n, v - w - 1)]),
                _ranged_row(arity, "chi: x_i*x_p^(q-q_z-eps)*x_n^(v-1)", 1, eps * p + r - r_z - 1,
                            lambda i: [(i, 1), (p, q - q_z - eps), (n, v - 1)]),
            ]
    else:
        raise ValueError(f"{selector} is not a colon/socle closed form")
    return ClosedFormList(selector, tuple(rows))
