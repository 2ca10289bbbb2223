"""Command-line front end.

Subcommands: validate, params, gens, inideal, gb-verify, colon, rr (also
named probe), run, survey.  Instances are given as `m0,...,mp;mn` (e.g.
5,8,11;7); rr also accepts a monomial ideal as inline JSON or a path to a
JSON file of the form {"arity": k, "gens": [[...], ...]}.

Every handler returns (payload, text, exit code) and main alone writes
it: the payload as compact JSON under --json, the text otherwise, to
--out or stdout, and nothing when the handler raises.  survey picks its
own format from --json and --format, so its payload is None and its text
the emitted report.

Exit codes: 0 success; 1 usage, user or validation error; 2 internal
assertion failure; 3 a verified mismatch or NOT_CLOSED verdict.
"""
from __future__ import annotations

import argparse
import json
import sys

from semicurve.curve import patil_singh_generators
from semicurve.errors import InternalCheckError, UserInputError
from semicurve.ideals import MonomialIdeal
from semicurve.monomials import format_monomial
from semicurve.ratliff_rush import Verdict, reduce_variables, run_stage
from semicurve.semigroup import CurveInstance, derive, validate
from semicurve.survey import (
    Bounds,
    Format,
    MatchStatus,
    COLON_SELECTORS,
    emit,
    front_half,
    run_instance,
    survey,
)

# A closed ideal whose candidates the bounded test refutes, like that of
# 21,22,23,24;16, builds no power at any depth; a not-closed one builds up
# to I^(d+1), and PowerCache refuses one past ratliff_rush.MAX_POWER_PRODUCTS.
MAX_DEPTH = 8


class _Parser(argparse.ArgumentParser):
    """Usage errors raise UserInputError, so they exit 1 like any bad input."""

    def error(self, message):
        raise UserInputError(f"{self.prog}: {message}")


def _validated(text):
    curve = CurveInstance.parse(text)
    report = validate(curve.arith, curve.extra)
    if not report.ok:
        raise UserInputError(report.first)
    return curve


def _parse_ideal(text):
    """(ideal, note) from inline JSON (text opening with { or [), a JSON
    file path, or an instance (its leading ideal with unused variables
    dropped, as run probes it)."""
    if ";" in text:
        curve = CurveInstance.parse(text)
        reduced, dropped = reduce_variables(front_half(curve).in_ideal_computed)
        note = None
        if dropped:
            kept = [i for i in range(curve.arity) if i not in dropped]
            renames = ", ".join(f"x{new} = x{old}" for new, old in enumerate(kept))
            note = (f"initial ideal of {curve.text()} with unused variables "
                    f"dropped ({renames})")
        return reduced, note
    if text.lstrip()[:1] in ("{", "["):
        raw = text
    else:
        try:
            with open(text, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise UserInputError(f"cannot read ideal file {text!r}: {exc}") from None
    try:
        ideal = MonomialIdeal.from_json(raw)
    except ValueError as exc:
        raise UserInputError(f"bad ideal JSON: {exc}") from None
    return ideal, None


def _write(args, data):
    """Write text, newline-terminated, or bytes to --out or stdout."""
    if isinstance(data, str):
        data = (data if data.endswith("\n") else data + "\n").encode("utf-8")
    if not args.out:
        sys.stdout.buffer.write(data)
        sys.stdout.flush()
        return
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise UserInputError(f"cannot write {args.out!r}: {exc.strerror}") from None


def _monomials(monos):
    return ", ".join(format_monomial(tuple(m)) for m in monos)


def cmd_validate(args):
    curve = CurveInstance.parse(args.instance)
    report = validate(curve.arith, curve.extra)
    lines = [f"{curve.text()}: {f}" for f in report.failures or ["valid"]]
    return ({"instance": curve.text(), "ok": report.ok, "failures": list(report.failures)},
            "\n".join(lines), 0 if report.ok else 1)


def cmd_params(args):
    curve = _validated(args.instance)
    params = derive(curve).to_dict()
    return ({"instance": curve.text(), **params},
            "\n".join(f"{k} = {v}" for k, v in params.items()), 0)


def cmd_gens(args):
    curve = _validated(args.instance)
    gens = patil_singh_generators(derive(curve), curve)
    return ({"instance": curve.text(), "arity": curve.arity,
             "generators": [[list(b.lead), list(b.tail)] for b in gens]},
            "\n".join(b.text() for b in gens), 0)


def cmd_inideal(args):
    front = front_half(CurveInstance.parse(args.instance))
    computed = front.in_ideal_computed
    match = front.in_ideal_match is MatchStatus.MATCH
    lines = [_monomials(computed.gens)]
    if not match:
        lines.append("closed form disagrees: " + _monomials(front.in_ideal_closed.gens))
    return ({"arity": computed.arity, "gens": [list(g) for g in computed.gens],
             "closed_form_match": match}, "\n".join(lines), 0 if match else 3)


def cmd_gb_verify(args):
    curve = CurveInstance.parse(args.instance)
    report = front_half(curve).gb
    payload = {"instance": curve.text(), "passed": report.passed,
               "pairs_checked": report.pairs_checked,
               "pairs_skipped_coprime": report.pairs_skipped_coprime}
    if report.passed:
        return payload, (f"{curve.text()}: Groebner basis confirmed "
                         f"({report.pairs_checked} pairs reduced, "
                         f"{report.pairs_skipped_coprime} skipped)"), 0
    payload["failing_pair"] = list(report.failing_pair)
    return payload, (f"{curve.text()}: NOT a Groebner basis; "
                     f"pair {report.failing_pair} leaves a nonzero remainder"), 3


_SELECTOR_FLAGS = dict(zip(("x1-pm1", "x1-p", "xn", "socle"), COLON_SELECTORS))


def cmd_colon(args):
    front = front_half(CurveInstance.parse(args.instance))
    comparisons = [c for c in front.colon
                   if not args.selector or c.selector is _SELECTOR_FLAGS[args.selector]]
    lines = [f"guards: {front.guard.status.value}"]
    lines += [f"  {reason}" for reason in front.guard.reasons]
    for c in comparisons:
        lines.append(f"{c.selector.value} {c.match.value}")
        lines.append("  published: " + (_monomials(c.literal) or "(empty)"))
        if c.engine is None:
            lines.append(f"  engine:    not computable ({c.note})")
        else:
            lines.append("  engine:    " + (_monomials(c.engine) or "(empty)"))
            lines.append(f"  equal mod initial ideal: {str(c.ideal_equal).lower()}"
                         f", as sets: {str(c.sets_equal).lower()}")
    code = 3 if any(c.match is MatchStatus.MISMATCH for c in comparisons) else 0
    return ({"instance": front.instance.text(), "guard": front.guard.to_dict(),
             "comparisons": [c.to_dict() for c in comparisons]}, "\n".join(lines), code)


def verdict_payload(report):
    """JSON-ready report of rr (and of probe, its alias) from run_stage's
    RRReport.  The probe fields are empty, and degenerate false, when the
    ideal is not primary; the witness appears only on NOT_CLOSED."""
    payload = {
        "depth": report.depth,
        "verdict": report.verdict.value,
        "chain_equal": list(report.chain_equal),
        "socle_candidates": [list(c) for c in report.candidates or ()],
        "membership_table": [list(row) for row in report.membership_table or ()],
        "degenerate": bool(report.degenerate),
    }
    if report.witness is not None:
        payload["witness"] = list(report.witness)
        payload["witness_depth"] = report.witness_depth
    return payload


def cmd_rr(args):
    """(payload, text, exit code) of rr; the text opens with the note on
    dropped variables, if any."""
    ideal, note = _parse_ideal(args.ideal)
    payload = verdict_payload(run_stage(ideal, args.depth))
    lines = [note] if note else []
    lines.append(f"verdict: {payload['verdict']} (depth {payload['depth']})")
    lines.append("chain equals ideal per depth: "
                 + ", ".join(str(b).lower() for b in payload["chain_equal"]))
    if "witness" in payload:
        lines.append(f"witness: {_monomials([payload['witness']])} "
                     f"at depth {payload['witness_depth']}")
    if payload["socle_candidates"]:
        lines.append(f"socle candidates: {_monomials(payload['socle_candidates'])}")
        for cand, row in zip(payload["socle_candidates"], payload["membership_table"]):
            hits = ", ".join(str(b).lower() for b in row)
            lines.append(f"  {_monomials([cand])}: in chain member per depth: {hits}")
    code = 3 if payload["verdict"] == Verdict.NOT_CLOSED.value else 0
    return payload, "\n".join(lines), code


def cmd_run(args):
    curve = CurveInstance.parse(args.instance)
    report = run_instance(curve, args.depth)
    lines = [f"{curve.text()} {report.params.case.value}",
             "gb: " + ("passed" if report.gb.passed else "FAILED"),
             f"in_ideal: {report.in_ideal_match.value}"]
    lines += [f"{c.selector.value}: {c.match.value}" for c in report.colon]
    lines.append(f"verdict: {report.rr_verdict.value}")
    lines += [f"errata: {entry.text()}" for entry in report.errata]
    return report.to_dict(full=True), "\n".join(lines), 3 if report.failed else 0


def cmd_survey(args):
    if args.json and args.format not in (None, Format.JSON.value):
        raise UserInputError(f"--json conflicts with --format {args.format}")
    bounds = Bounds(tuple(args.p), args.max_mp, args.max_mn)
    _write(args, b"")  # an unwritable --out fails before the survey runs
    report = survey(bounds, depth=args.depth)
    fmt = Format.JSON if args.json else Format(args.format or Format.TEXT.value)
    return None, emit(report, fmt), 0 if report.ok else 3


def build_parser():
    parser = _Parser(
        prog="semicurve",
        description="Defining ideals of monomial curves over almost-arithmetic "
                    "sequences: generators, Groebner verification, and "
                    "Ratliff-Rush closedness probing.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, instance=False, ideal=False, depth=False, aliases=()):
        sp = sub.add_parser(name, help=help_text, aliases=aliases)
        sp.set_defaults(handler=handler)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        sp.add_argument("--out", metavar="FILE", help="write output to FILE")
        if instance:
            sp.add_argument("instance", help="curve instance, e.g. 5,8,11;7")
        if ideal:
            sp.add_argument("ideal", help="instance text, inline ideal JSON, "
                                          "or path to an ideal JSON file")
        if depth:
            sp.add_argument("--depth", type=int, default=4, metavar="N",
                            help=f"colon-chain depth, 1 to {MAX_DEPTH} (default 4)")
        return sp

    add("validate", cmd_validate, "check the normal-form hypotheses", instance=True)
    add("params", cmd_params, "derived parameters of an instance", instance=True)
    add("gens", cmd_gens, "binomial generators of the curve ideal", instance=True)
    add("inideal", cmd_inideal, "initial ideal (engine vs closed form)", instance=True)
    add("gb-verify", cmd_gb_verify, "check the Groebner property", instance=True)
    sp = add("colon", cmd_colon, "published colon/socle lists vs the engine",
             instance=True)
    sp.add_argument("--selector", choices=sorted(_SELECTOR_FLAGS),
                    help="compare a single list (default: all)")
    add("rr", cmd_rr, "colon chain plus socle probe on an ideal",
        ideal=True, depth=True, aliases=["probe"])
    add("run", cmd_run, "full pipeline on one instance", instance=True,
        depth=True)

    sp = add("survey", cmd_survey, "run the pipeline over an enumerated corpus",
             depth=True)
    sp.add_argument("--p", type=int, nargs="+", default=[1, 2],
                    help="arithmetic-part lengths p to enumerate (default: 1 2)")
    sp.add_argument("--max-mp", type=int, default=15, help="largest m_p (default 15)")
    sp.add_argument("--max-mn", type=int, default=15, help="largest m_n (default 15)")
    sp.add_argument("--format", choices=[f.value for f in Format],
                    help="output format (default: text, or json with --json)")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if not 1 <= getattr(args, "depth", 1) <= MAX_DEPTH:
            raise UserInputError(f"--depth must be between 1 and {MAX_DEPTH}, "
                                 f"got {args.depth}")
        payload, text, code = args.handler(args)
        if args.json and payload is not None:
            text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        _write(args, text)
        return code
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
