"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of the semicurve modules with
timing wrappers, in every module that holds a binding to them, so no file
of the program changes.  Stage functions become spans: name, start, end,
parent and operation id.  The many small calls into ``ideals`` and
``kernels`` (and ``validate``, which enumeration calls per candidate) are
not spans; their counts and summed time are aggregated per enclosing span
and per process.  Spans stay in memory until ``write``.
"""
from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

perf = time.perf_counter

# Span: (op, id, parent, name, start, end, self_s, counters); the name's
# first component is the layer ("op" for the benchmark's own operation span).
OP, ID, PARENT, NAME, START, END, SELF, COUNTERS = range(8)

LAYERS = ("semigroup", "curve", "groebner", "survey", "ratliff_rush")
KERNELS = ("minimalize", "pairwise_product", "pairwise_lcm", "colon_by_monomial",
           "divides_any", "all_divisible")


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = {}       # counted call name -> [calls, seconds] over the process
        self.tally = {}       # named counts (generators built, S-pairs, ...)
        self._stack = []      # open spans: [op, id, parent, name, start, child_s, counters]
        self._next_id = 0

    # -- recording ----------------------------------------------------

    def _push(self, name, op=None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = parent[0]
        frame = [op, self._next_id, None if parent is None else parent[1], name, perf(), 0.0, {}]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame):
        end = perf()
        self._stack.pop()
        duration = end - frame[4]
        if self._stack:
            self._stack[-1][5] += duration
        self.spans.append((frame[0], frame[1], frame[2], frame[3], frame[4], end,
                           duration - frame[5], frame[6]))

    @contextmanager
    def op(self, op_id):
        """The benchmark's span around one operation."""
        frame = self._push("op", op=op_id)
        try:
            yield
        finally:
            self._pop(frame)

    def count(self, name, n=1):
        self.tally[name] = self.tally.get(name, 0) + n

    @property
    def current(self):
        return self._stack[-1][3] if self._stack else None

    def span(self, name, fn, after=None):
        """Wrap fn as a span; ``name`` may be a function of the call's arguments."""
        def wrapper(*args, **kwargs):
            frame = self._push(name(*args, **kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(frame)
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return wrapper

    def counted(self, name, fn, after=None):
        """Wrap fn as a counted call, aggregated into the enclosing span."""
        total = self.calls.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            total[0] += 1
            total[1] += dt
            if self._stack:
                agg = self._stack[-1][6].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
            if after is not None:
                after(self, result, *args, **kwargs)
            return result
        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap the stage functions, ideal arithmetic and kernels."""
        from semicurve import curve, groebner, ideals, kernels, ratliff_rush, semigroup, survey

        modules = [m for name, m in sys.modules.items()
                   if name == "semicurve" or name.startswith("semicurve.")]
        modules += list(extra_modules)

        def rebind(owner, attr, wrap):
            original = getattr(owner, attr)
            wrapper = wrap(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
            setattr(owner, attr, wrapper)

        def span(owner, attr, name, after=None):
            rebind(owner, attr, lambda fn: self.span(name, fn, after))

        def counted(owner, attr, name, after=None):
            rebind(owner, attr, lambda fn: self.counted(name, fn, after))

        counted(semigroup, "validate", "semigroup.validate")
        span(semigroup, "derive", "semigroup.derive")

        span(curve, "patil_singh_generators", "curve.generators",
             lambda t, gens, *a: t.count("curve.binomials", len(gens)))
        span(curve, "initial_closed_form", "curve.closed_form")
        span(curve, "closed_form_table", "curve.closed_form")

        def gb_counts(t, report, *a, **k):
            t.count("groebner.spairs_checked", report.pairs_checked)
            t.count("groebner.spairs_skipped", report.pairs_skipped_coprime)
        span(groebner, "gb_verify", "groebner.gb_verify", gb_counts)
        span(groebner, "leading_ideal", "groebner.leading_ideal")

        def enum_counts(t, result, *a):
            kept, rejects = result
            t.count("survey.candidates", len(kept) + rejects)
            t.count("survey.validated", len(kept))
        span(survey, "enumerate_instances", "survey.enumerate", enum_counts)
        span(survey, "evaluate_guards", "survey.evaluate_guards")
        span(survey, "compare_selector", "survey.compare_selector")

        def emit_name(report, fmt):
            return f"survey.emit_{fmt.value}"

        def emit_bytes(t, data, report, fmt):
            t.count(f"survey.emit_{fmt.value}.bytes", len(data))
        span(survey, "emit", emit_name, emit_bytes)

        def power_gens(t, ideal, *a):
            if t.current == "ratliff_rush.powers":
                t.count("ratliff_rush.power_gens", len(ideal.gens))
        counted(ideals.MonomialIdeal, "colon", "ideals.colon")
        counted(ideals.MonomialIdeal, "product", "ideals.product", power_gens)

        span(ratliff_rush.PowerCache, "get", "ratliff_rush.powers")
        span(ratliff_rush, "rr_chain", "ratliff_rush.chain")
        span(ratliff_rush, "socle_probe", "ratliff_rush.probe",
             lambda t, rep, *a, **k: t.count("ratliff_rush.socle_candidates",
                                             len(rep.candidates)))
        span(ratliff_rush, "certify_witness", "ratliff_rush.certify_witness")
        span(ratliff_rush, "reduce_variables", "ratliff_rush.reduce_variables")

        def keep(kernel):
            def after(t, rows, a, b):
                t.count(f"kernels.{kernel}.candidates", len(a) * len(b))
                t.count(f"kernels.{kernel}.kept", len(rows))
            return after
        for kernel in KERNELS:
            after = keep(kernel) if kernel in ("pairwise_product", "pairwise_lcm") else None
            counted(kernels, kernel, f"kernels.{kernel}", after)

    # -- results ------------------------------------------------------

    def metrics(self, pass_start, wall_s):
        """Per-layer metrics.  Per-function figures cover the whole process,
        set-up included; layer self times and stage coverage cover the timed
        pass that started at ``pass_start`` and lasted ``wall_s``."""
        by_name = {}
        for s in self.spans:
            agg = by_name.setdefault(s[NAME], [0, 0.0])
            agg[0] += 1
            agg[1] += s[SELF]

        def span_calls(name):
            return by_name.get(name, [0, 0.0])[0]

        def span_s(name):
            return by_name.get(name, [0, 0.0])[1]

        def call(name):
            return self.calls.get(name, [0, 0.0])

        def ratio(num, den):
            return num / den if den else 0.0

        t = self.tally.get
        m = {
            "semigroup.validate.calls": call("semigroup.validate")[0],
            "semigroup.validate.s": call("semigroup.validate")[1],
            "semigroup.derive.calls": span_calls("semigroup.derive"),
            "semigroup.derive.s": span_s("semigroup.derive"),
            "curve.generators.s": span_s("curve.generators"),
            "curve.binomials": t("curve.binomials", 0),
            "curve.closed_form.s": span_s("curve.closed_form"),
            "groebner.gb_verify.s": span_s("groebner.gb_verify"),
            "groebner.spairs_checked": t("groebner.spairs_checked", 0),
            "groebner.spairs_skipped": t("groebner.spairs_skipped", 0),
            "groebner.leading_ideal.s": span_s("groebner.leading_ideal"),
            "survey.enumerate.s": span_s("survey.enumerate"),
            "survey.candidates": t("survey.candidates", 0),
            "survey.accept_ratio": ratio(t("survey.validated", 0), t("survey.candidates", 0)),
            "survey.compare_selector.calls": span_calls("survey.compare_selector"),
            "survey.compare_selector.s": span_s("survey.compare_selector"),
            "survey.emit_json.s": span_s("survey.emit_json"),
            "survey.emit_json.bytes": t("survey.emit_json.bytes", 0),
            "survey.emit_csv.s": span_s("survey.emit_csv"),
            "ideals.colon.calls": call("ideals.colon")[0],
            "ideals.colon.s": call("ideals.colon")[1],
            "ideals.product.calls": call("ideals.product")[0],
            "ideals.product.s": call("ideals.product")[1],
            "ratliff_rush.powers.s": span_s("ratliff_rush.powers"),
            "ratliff_rush.chain.s": span_s("ratliff_rush.chain"),
            "ratliff_rush.probe.s": span_s("ratliff_rush.probe"),
            "ratliff_rush.power_gens": t("ratliff_rush.power_gens", 0),
            "ratliff_rush.socle_candidates": t("ratliff_rush.socle_candidates", 0),
            "ratliff_rush.witnesses": span_calls("ratliff_rush.certify_witness"),
        }
        for kernel in KERNELS:
            calls, seconds = call(f"kernels.{kernel}")
            m[f"kernels.{kernel}.calls"] = calls
            m[f"kernels.{kernel}.s"] = seconds
        for kernel in ("pairwise_lcm", "pairwise_product"):
            m[f"kernels.{kernel}.keep_ratio"] = ratio(t(f"kernels.{kernel}.kept", 0),
                                                      t(f"kernels.{kernel}.candidates", 0))

        in_pass = self._in_pass(pass_start)
        op_ids = {s[ID] for s in in_pass if s[NAME] == "op"}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(s[SELF] for s in in_pass
                                       if s[NAME].split(".")[0] == layer)
        covered = sum(s[END] - s[START] for s in in_pass
                      if s[NAME] != "op" and (s[PARENT] is None or s[PARENT] in op_ids))
        m["trace.stage_coverage"] = ratio(covered, wall_s)
        m["trace.spans"] = len(self.spans)
        return m

    def _in_pass(self, pass_start):
        return [s for s in self.spans if s[START] >= pass_start]

    def stage_self_s(self, pass_start):
        """Self time per span name over the timed pass, largest first."""
        totals = {}
        for s in self._in_pass(pass_start):
            totals[s[NAME]] = totals.get(s[NAME], 0.0) + s[SELF]
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def write(self, path, origin):
        """Write every span, times relative to ``origin``, one JSON list per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[OP], s[ID], s[PARENT], s[NAME], s[START] - origin,
                                     s[END] - origin, s[SELF], s[COUNTERS]]) + "\n")
