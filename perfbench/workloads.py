"""The benchmark's workloads: an input pool, the operation each input goes
through, the canonical form of its result, and the seeded selection of
the inputs one run uses.

Every pool is fixed and finite, so every operation the benchmark can run
has a reference digest in reference.json, next to the entry's cost in the
reference pass.  A seed picks one entry from each run of ``block``
consecutive entries in cost order (stratified sampling by cost), and the
``tail`` costliest entries run in every pass.  So every seed gets other
inputs but the same cost profile, and no single draw of a rare, very
costly entry can swing a pass.  The selected entries run in a seeded
random order, which spreads cheap and costly operations over the whole
pass; in pool order all the cheap ones would run within a second or so,
and the median latency would mostly report the machine's speed in that
second.

Importing this module imports ``semicurve.cli``, which is part of the
set-up that ``setup_s`` measures.
"""
from __future__ import annotations

import hashlib
import json
import random

import semicurve.cli  # noqa: F401  (import cost and backend selection are measured)
from semicurve.curve import closed_form_table, initial_closed_form, patil_singh_generators
from semicurve.groebner import Polynomial, gb_verify, leading_ideal
from semicurve.semigroup import CurveInstance, derive, validate
from semicurve.survey import (
    COLON_SELECTORS,
    Bounds,
    Format,
    MatchStatus,
    SurveyReport,
    compare_selector,
    emit,
    enumerate_instances,
    evaluate_guards,
    run_instance,
)

DEPTH = 4


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stratified(n, block, rng):
    """One index from each run of ``block`` consecutive indices in range(n)."""
    return [start + rng.randrange(min(block, n - start)) for start in range(0, n, block)]


class Workload:
    """A pool of inputs and the operation the benchmark times on each.

    ``run`` is the operation; ``emit`` produces the report a workload
    writes, if any; ``results`` turns the outputs of a pass into one
    canonical text per operation, which is what reference.json holds
    digests of; ``counts`` tallies results that are findings, not failures.
    """

    name = ""
    block = 1
    tail = 0

    def size(self):
        raise NotImplementedError

    def entry(self, index):
        raise NotImplementedError

    def select(self, seed, cost):
        """(pool index, input) pairs for one run with this seed, in run order."""
        order = sorted(range(len(cost)), key=lambda i: (cost[i], i))
        cut = len(order) - self.tail
        rng = random.Random(f"{self.name}/{seed}")
        chosen = order[cut:] + [order[i] for i in stratified(cut, self.block, rng)]
        rng.shuffle(chosen)
        return [(i, self.entry(i)) for i in chosen]

    def run(self, item):
        raise NotImplementedError

    def emit(self, outputs):
        return None

    def results(self, items, outputs, emitted):
        """Canonical text per operation, in input order."""
        return [self.canonical(item, out) for item, out in zip(items, outputs)]

    def canonical(self, item, output):
        raise NotImplementedError

    def counts(self, outputs):
        return {}


class _Enumerated(Workload):
    """Pool: every validated instance within survey bounds, in enumeration order."""

    bounds = None

    def __init__(self):
        self._pool = None
        self.rejects = 0

    def pool(self):
        if self._pool is None:
            self._pool, self.rejects = enumerate_instances(self.bounds)
        return self._pool

    def size(self):
        return len(self.pool())

    def entry(self, index):
        return self.pool()[index]


class _Generated(Workload):
    """Pool: ``replicates`` seeded inputs for each of ``strata``; an entry is
    only built when a run selects it."""

    strata = ()
    replicates = 1

    def size(self):
        return len(self.strata) * self.replicates

    def entry(self, index):
        stratum, replicate = divmod(index, self.replicates)
        return self.make(self.strata[stratum], replicate)

    def make(self, stratum, replicate):
        raise NotImplementedError


def front_half(curve):
    """The pipeline up to the colon comparison, with Ratliff-Rush skipped."""
    dp = derive(curve)
    gens = patil_singh_generators(dp, curve)
    order = curve.order()
    polys = [Polynomial.from_binomial(b) for b in gens]
    gb = gb_verify(polys, order, max_terms=2)
    computed = leading_ideal(polys, order)
    closed = initial_closed_form(dp, curve)
    tables = [closed_form_table(dp, curve, s) for s in COLON_SELECTORS]
    guard = evaluate_guards(dp, tables)
    colon = [compare_selector(curve, computed, t, guard) for t in tables]
    return dp, gens, gb, computed, closed, colon


def front_half_canonical(curve, output):
    dp, gens, gb, computed, closed, colon = output
    return canonical_json({
        "instance": curve.text(),
        "params": dp.to_dict(),
        "generators": [[list(b.lead), list(b.tail)] for b in gens],
        "gb": [gb.passed, gb.pairs_checked, gb.pairs_skipped_coprime],
        "in_ideal": [[list(m) for m in computed.gens], computed == closed],
        "colon": [c.to_dict() for c in colon],
    })


def colon_counts(colons):
    """Guard-satisfying instances and their mismatches, by selector."""
    counts = {"guard_satisfied": 0}
    for colon in colons:
        if not colon[0].guard.violated:
            counts["guard_satisfied"] += 1
        for c in colon:
            if c.match is MatchStatus.MISMATCH:
                key = f"mismatch_{c.selector.value}"
                counts[key] = counts.get(key, 0) + 1
    return counts


class FrontHalf:
    """Workloads that run ``front_half`` on curve instances."""

    def run(self, item):
        return front_half(item)

    def canonical(self, item, output):
        return front_half_canonical(item, output)

    def counts(self, outputs):
        return colon_counts(o[5] for o in outputs)


class CorpusRR(_Enumerated):
    name = "corpus_rr"
    bounds = Bounds((1, 2, 3), 25, 25)
    block = 24

    def run(self, item):
        return run_instance(item, DEPTH)

    def emit(self, outputs):
        report = SurveyReport(self.bounds, DEPTH, tuple(outputs), self.rejects, 0.0)
        return emit(report, Format.JSON), emit(report, Format.CSV)

    def results(self, items, outputs, emitted):
        # The check reads the emitted bytes, not the in-memory reports: one
        # JSON instance entry plus its CSV row per operation.
        data_json, data_csv = emitted
        entries = json.loads(data_json)["instances"]
        rows = data_csv.decode().splitlines()[1:]
        if len(entries) != len(items) or len(rows) != len(items):
            raise ValueError("emitted report does not hold one entry per instance")
        return [canonical_json(e) + "\n" + r for e, r in zip(entries, rows)]

    def counts(self, outputs):
        counts = colon_counts(r.colon for r in outputs)
        counts["not_closed"] = sum(1 for r in outputs if r.rr_verdict.value == "NOT_CLOSED")
        return counts


class FrontWide(FrontHalf, _Enumerated):
    name = "front_wide"
    bounds = Bounds((3, 4, 5, 6), 45, 45)
    block = 40


class LargeGens(FrontHalf, _Generated):
    name = "large_gens"
    # (p, m0 band of width 50) strata.
    strata = tuple((p, lo) for p in (1, 2, 3) for lo in range(300, 2000, 50))
    replicates = 10
    block = 8
    tail = 2

    def make(self, stratum, replicate):
        p, lo = stratum
        rng = random.Random(f"large_gens/{p}/{lo}/{replicate}")
        while True:
            m0 = rng.randrange(lo, lo + 50)
            d = rng.randrange(1, m0)
            mn = rng.randrange(m0 // 2, 2 * m0)
            arith = tuple(m0 + i * d for i in range(p + 1))
            if validate(arith, mn).ok:
                return CurveInstance(arith, mn)


WORKLOADS = {w.name: w for w in (CorpusRR, FrontWide, LargeGens)}
