"""Command-line interface: subcommands, exit codes, JSON payloads, files.

test_cli_bytes_match_the_recorded_digests pins the output of a fixed
command list byte for byte.  After a change that means to alter the
output, rewrite its digests with

    PYTHONPATH=src python tests/test_cli.py

and say in the change which commands moved.
"""
import contextlib
import hashlib
import io
import json
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest

from semicurve import cli, ratliff_rush
from semicurve import survey as survey_module

W = "5,8,11;7"
NEGATIVE_CONTROL = json.dumps(
    {"arity": 2, "gens": [[4, 0], [3, 1], [1, 3], [0, 4]]})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def steady(out):
    """out without what differs from run to run: the survey text's wall
    time."""
    return re.sub(r"\(\d+\.\d s\)\n\Z", "(wall time)\n", out)


def test_validate_accepts_and_rejects(capsys):
    code, out, _ = run(capsys, "validate", W)
    assert code == 0 and "valid" in out
    code, out, err = run(capsys, "validate", "4,6,8;5")
    assert code == 1
    assert "semigroup" in out + err


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["instance"] == W


def test_params(capsys):
    code, out, _ = run(capsys, "params", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert data["u"] == 3 and data["q_z"] == 0 and data["case"] == "CASE1"


def test_params_bad_instance_text(capsys):
    code, _, err = run(capsys, "params", "oops")
    assert code == 1 and "error:" in err


def test_gens(capsys):
    code, out, _ = run(capsys, "gens", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 6 and data["arity"] == 4
    assert [[0, 1, 1, 0], [1, 0, 0, 2]] in data["generators"]


def test_inideal(capsys):
    code, out, _ = run(capsys, "inideal", "--json", W)
    assert code == 0
    assert out == ('{"arity":4,"closed_form_match":true,"gens":[[0,0,2,0],[0,0,0,3],'
                   '[0,1,1,0],[0,0,1,1],[0,2,0,0],[0,1,0,1]]}\n')


def test_gb_verify(capsys):
    code, out, _ = run(capsys, "gb-verify", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True and data["pairs_checked"] >= 1


def test_colon_guard_violated_instance(capsys):
    code, out, _ = run(capsys, "colon", W)
    assert code == 0
    assert "GUARD_VIOLATED_INFO" in out
    code, out, _ = run(capsys, "colon", "--json", "--selector", "xn", W)
    assert code == 0
    data = json.loads(out)
    assert data["guard"]["status"] == "GUARD_VIOLATED_INFO"
    assert len(data["comparisons"]) == 1
    assert data["comparisons"][0]["ideal_equal"] is True


def test_colon_guard_satisfied_instance(capsys):
    code, out, _ = run(capsys, "colon", "--json", "21,22,23,24;16")
    assert code == 0
    data = json.loads(out)
    assert data["guard"]["status"] == "GUARDED_MATCH_REQUIRED"
    assert all(c["match"] == "MATCH" for c in data["comparisons"])
    assert len(data["comparisons"]) == 4


def test_rr_on_instance_closed(capsys):
    code, out, _ = run(capsys, "rr", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "CLOSED_EVIDENCE" and data["depth"] == 4


def test_rr_negative_control_exit_3(capsys):
    code, out, _ = run(capsys, "rr", "--json", NEGATIVE_CONTROL)
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "NOT_CLOSED"
    assert data["witness"] == [2, 2] and data["witness_depth"] == 1


def test_probe_negative_control_exit_3(capsys):
    code, out, _ = run(capsys, "probe", "--json", NEGATIVE_CONTROL)
    assert code == 3
    data = json.loads(out)
    assert data["verdict"] == "NOT_CLOSED"


# The first 3-variable ideal below gave rr and probe different certified
# witnesses, [0,2,2] and [1,2,2], while they built two reports; the last
# is not primary, which probe once refused with exit 1.
THREE_VARIABLES = json.dumps(
    {"arity": 3, "gens": [[0, 0, 4], [0, 1, 3], [0, 3, 1], [0, 4, 0], [2, 1, 1], [4, 0, 0]]})


@pytest.mark.parametrize("ideal, code_want", [
    pytest.param(NEGATIVE_CONTROL, 3, id="negative-control"),
    pytest.param(THREE_VARIABLES, 3, id="three-variables"),
    pytest.param(W, 0, id="instance"),
    pytest.param(json.dumps({"arity": 2, "gens": [[1, 1], [0, 2]]}), 0, id="non-primary"),
])
def test_probe_is_rr(capsys, ideal, code_want):
    rr = run(capsys, "rr", "--json", "--depth", "2", ideal)
    assert run(capsys, "probe", "--json", "--depth", "2", ideal) == rr
    code, out, err = rr
    assert code == code_want and err == ""
    if ideal == THREE_VARIABLES:
        data = json.loads(out)
        assert data["witness"] == [0, 2, 2] and data["witness_depth"] == 2


def test_rr_ideal_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(NEGATIVE_CONTROL)
    code, out, _ = run(capsys, "rr", str(path))
    assert code == 3
    assert "NOT_CLOSED" in out


def test_rr_depth_flag_and_env(capsys):
    code, out, _ = run(capsys, "rr", "--json", "--depth", "2", W)
    assert json.loads(out)["depth"] == 2 and code == 0
    code, out, _ = run(capsys, "rr", "--json", W)
    assert json.loads(out)["depth"] == 4 and code == 0
    code, out, _ = run(capsys, "rr", "--json", "--depth", str(cli.MAX_DEPTH), W)
    assert json.loads(out)["depth"] == 8 and code == 0
    for depth in ("0", "9"):
        code, out, err = run(capsys, "rr", "--depth", depth, W)
        assert code == 1 and "between 1 and 8" in err and out == ""


@pytest.mark.parametrize("instance", [W, "21,22,23,24;16", "22,24,26,28;39"])
def test_rr_and_run_see_the_same_stage(capsys, instance):
    def view(*argv):
        code, out, _ = run(capsys, *argv, "--json", instance)
        return code, json.loads(out)

    run_code, full = view("run")
    _, rr = view("rr")
    assert rr["chain_equal"] == full["rr"]["chain_equal"]
    assert rr["socle_candidates"] == full["probe"]["candidates"]
    assert rr["membership_table"] == full["probe"]["membership_table"]
    assert rr["verdict"] == full["verdict"]
    _, inideal = view("inideal")
    assert inideal["gens"] == full["in_ideal"]["computed"]
    assert inideal["closed_form_match"] == (full["in_ideal"]["match"] == "MATCH")
    _, gb = view("gb-verify")
    assert gb["passed"] == full["gb_passed"]
    assert [gb["pairs_checked"], gb["pairs_skipped_coprime"]] == full["gb_pairs"]
    colon_code, colon = view("colon")
    assert colon["guard"] == full["guard"]
    assert {c["selector"]: c for c in colon["comparisons"]} == full["colon"]
    if instance == "22,24,26,28;39":
        assert full["colon"]["SOCLE_RHO_CHI"]["match"] == "MISMATCH"
        assert colon_code == run_code == 3


LARGE_EXPONENTS_PAYLOAD = {
    "chain_equal": [True] * 4, "degenerate": False, "depth": 4,
    "membership_table": [[False] * 4], "socle_candidates": [[99999, 99999]],
    "verdict": "CLOSED_EVIDENCE"}


@pytest.mark.parametrize("command, payload", [
    ("rr", LARGE_EXPONENTS_PAYLOAD),
    ("probe", LARGE_EXPONENTS_PAYLOAD),
])
def test_large_exponents_stay_cheap(capsys, command, payload):
    # 10^10 monomials lie outside this ideal; neither name of the command
    # may visit them.
    code, out, err = run(capsys, command, '{"arity": 2, "gens": [[100000, 0], [0, 100000]]}',
                         "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == payload


def test_large_instance_params_stay_cheap(capsys):
    # derive reads every parameter off the closed-form Apery set of the
    # arithmetic part, in O(1) per multiple of mn up to v = 10001, and
    # builds no membership table.
    code, out, err = run(capsys, "params", "--json", "20000,20001;19999")
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "instance": "20000,20001;19999", "u": 10000, "v": 10001, "w": 10000, "z": 9999,
        "lam": 1, "mu": 1, "q": 9999, "r": 1, "q_z": 9998, "r_z": 1, "eps": 1,
        "case": "CASE1"}


def test_wide_instance_near_the_generator_limit_params(capsys):
    # p = 20 with every generator near 10^6: an Apery set of the least
    # generator would hold 999000 entries; derive needs none.
    text = ",".join(str(999000 + i) for i in range(21)) + ";999999"
    code, out, err = run(capsys, "params", "--json", text)
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "instance": text, "u": 999, "v": 1000, "w": 1, "z": 0, "lam": 49, "mu": 1001,
        "q": 49, "r": 19, "q_z": -1, "r_z": 20, "eps": 1, "case": "CASE1"}


def test_small_v_large_u_params(capsys):
    # v = 2 while u = 333334: z and mu come from the rung that ends the
    # search for v, with no walk over [0, u).
    text = "666666,666667;1000000"
    code, out, err = run(capsys, "params", "--json", text)
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "instance": text, "u": 333334, "v": 2, "w": 1, "z": 2, "lam": 333333, "mu": 1,
        "q": 333333, "r": 1, "q_z": 1, "r_z": 1, "eps": 1, "case": "CASE1"}


@pytest.mark.parametrize("command", ["validate", "params", "gens", "run"])
def test_generator_above_limit_exits_1(capsys, command):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, "1000001,1000002;1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "1000000" in out + err
    if command != "validate":
        assert "error:" in err and out == ""
    assert peak < 1_000_000


def _run_of(m0, p, mn):
    return ",".join(str(m0 + i) for i in range(p + 1)) + f";{mn}"


@pytest.mark.parametrize("command", ["validate", "gb-verify", "run"])
def test_p_above_budget_exits_1_at_once(capsys, command):
    # 100,...,141;99 is minimally generated with gcd 1; only p = 41 fails.
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, _run_of(100, 41, 99))
    assert time.perf_counter() - t0 < 1
    assert code == 1 and "p must not exceed 40" in out + err
    if command != "validate":
        assert "error:" in err and out == ""
    assert run(capsys, "validate", _run_of(100, 40, 99))[0] == 0


def test_survey_rejects_p_above_budget_before_enumerating(capsys, monkeypatch):
    def enumerate_instances(bounds):
        raise AssertionError("enumerated")
    monkeypatch.setattr(survey_module, "enumerate_instances", enumerate_instances)
    code, out, err = run(capsys, "survey", "--p", "3", "41", "--max-mp", "60", "--max-mn", "60")
    assert code == 1 and "error: survey p must not exceed 40" in err and out == ""


def test_survey_rejects_bounds_above_the_candidate_budget(capsys, monkeypatch, tmp_path):
    def enumerate_instances(bounds):
        raise AssertionError("enumerated")
    monkeypatch.setattr(survey_module, "enumerate_instances", enumerate_instances)
    out_file = tmp_path / "survey.csv"
    t0 = time.perf_counter()
    code, out, err = run(capsys, "survey", "--p", "1", "--max-mp", "100000", "--max-mn",
                         "100000", "--format", "csv", "--out", str(out_file))
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == "" and not out_file.exists()
    assert "error: survey bounds give 499,995,000,000,000 candidates" in err


# All 55 monomials of degree 5 in 4 variables but x0^2*x1^2*x2: NOT_CLOSED,
# so the chain takes the generic colon, and I^(k+1), at every depth.
DEGREE_5_BUT_ONE = json.dumps({"arity": 4, "gens": [
    [a, b, c, 5 - a - b - c] for a in range(6) for b in range(6 - a)
    for c in range(6 - a - b) if (a, b, c) != (2, 2, 1)]})


@pytest.mark.parametrize("depth", ["4", str(cli.MAX_DEPTH)])
def test_power_above_budget_exits_1_at_once(capsys, depth):
    # I^2 and I^3 have 286 and 816 rows, so I^4 takes 816 * 55 = 44,880
    # products: over the budget, so rr exits before forming it (building the
    # powers took 26 s at depth 4, and did not end in 60 s at depth 8).
    # At depth 1 it needs only I^2.
    t0 = time.perf_counter()
    code, out, err = run(capsys, "rr", "--depth", depth, DEGREE_5_BUT_ONE)
    assert time.perf_counter() - t0 < 1
    assert code == 1 and out == ""
    assert err == ("error: I^4 of an ideal with 55 generators takes 44,880 products, "
                   f"more than the budget of {ratliff_rush.MAX_POWER_PRODUCTS:,}\n")
    code, out, _ = run(capsys, "rr", "--json", "--depth", "1", DEGREE_5_BUT_ONE)
    assert code == 3 and json.loads(out)["witness"] == [2, 2, 1, 0]


def test_power_budget_counts_rows_not_multisets_of_generators(capsys):
    # 20 monomials of degree 20 in two variables: C(28, 9) = 6,906,900
    # products of 9 generators, but I^8 has 161 rows, so I^9 takes 3,220.
    ideal = json.dumps({"arity": 2, "gens": [[i, 20 - i] for i in range(21) if i != 10]})
    code, out, err = run(capsys, "rr", "--json", "--depth", str(cli.MAX_DEPTH), ideal)
    assert code == 3 and err == ""
    assert json.loads(out)["chain_equal"] == [False] * cli.MAX_DEPTH


@pytest.mark.parametrize("text, code_want", [
    ("999997,999998;2", 1),
    ("999999,1000000;999998", 0),
    (",".join(str(999000 + i) for i in range(21)) + ";999999", 0),
    ("500000,999999;1000000", 1),
    ("666666,666667;1000000", 0),
], ids=["mn-divides-m1", "p1", "p20", "mn-twice-m0", "v2-u333334"])
@pytest.mark.parametrize("command", ["validate", "params"])
def test_generators_near_the_limit_hold_no_generator_sized_list(capsys, command, text, code_want):
    # Validation and the derived parameters read the closed-form Apery set
    # of the arithmetic part; a list of 10^6 entries alone takes 8 MB.
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == code_want, out + err
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["rr", "probe"])
def test_zero_ideal_memory_does_not_grow_with_arity(capsys, command):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, command, '{"arity": 1000000, "gens": []}')
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "error:" in err and out == ""
    assert peak < 1_000_000


def test_run_pipeline(capsys):
    code, out, _ = run(capsys, "run", "--json", W)
    assert code == 0
    data = json.loads(out)
    assert data["gb_passed"] is True
    assert data["verdict"] == "CLOSED_EVIDENCE"
    assert data["guard"]["status"] == "GUARD_VIOLATED_INFO"


def test_survey_small(capsys):
    code, out, _ = run(capsys, "survey", "--p", "1", "--max-mp", "6",
                       "--max-mn", "6", "--depth", "2", "--format", "text")
    assert code == 0
    assert "ok" in out


def test_survey_json_to_file(tmp_path, capsys):
    target = tmp_path / "survey.json"
    code, out, _ = run(capsys, "survey", "--p", "1", "--max-mp", "6",
                       "--max-mn", "6", "--depth", "2", "--format", "json",
                       "--out", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["ok"] is True and data["depth"] == 2


def test_out_file_for_instance_command(tmp_path, capsys):
    target = tmp_path / "params.json"
    code, _, _ = run(capsys, "params", "--json", "--out", str(target), W)
    assert code == 0
    assert json.loads(target.read_text())["case"] == "CASE1"


@pytest.mark.parametrize("argv", [
    pytest.param(("params", W), id="params"),
    pytest.param(("survey", "--p", "1", "--max-mp", "4", "--max-mn", "4", "--depth", "1"),
                 id="survey"),
])
def test_unwritable_out_exits_1(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and str(target) in err


def test_survey_checks_out_before_running(tmp_path, capsys, monkeypatch):
    def no_survey(*args, **kwargs):
        raise AssertionError("the survey ran before --out was checked")
    monkeypatch.setattr(cli, "survey", no_survey)
    target = tmp_path / "missing" / "out"
    code, out, err = run(capsys, "survey", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and str(target) in err


@pytest.mark.parametrize("text", [
    pytest.param('{"arity": 2, "gens": [[1]]}', id="short-generator"),
    pytest.param('{"arity": 2, "gens": [[1.5, 0], [0, 2]]}', id="float-exponent"),
    pytest.param('{"arity": 2, "gens": [[true, 0], [0, 2]]}', id="bool-exponent"),
    pytest.param('{"arity": -1, "gens": []}', id="negative-arity"),
    pytest.param('{"arity": 0, "gens": []}', id="zero-arity"),
    pytest.param('{"arity": 2, "gens": [1, 2]}', id="gens-not-lists"),
    pytest.param('{"arity": 2, "gens": [[1, -2]]}', id="negative-exponent"),
    pytest.param('{"arity": 2}', id="gens-missing"),
    pytest.param(' [[2, 0], [0, 2]]', id="array-not-object"),
])
def test_bad_ideal_json(capsys, text):
    code, out, err = run(capsys, "rr", text)
    assert code == 1 and err.startswith("error: bad ideal JSON: ") and out == ""


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1 and "error:" in err and out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["rr", W, "--depth", "abc"], id="depth-not-int"),
    pytest.param(["survey", "--format", "xml"], id="bad-format"),
    pytest.param(["survey", "--json", "--format", "csv"], id="json-with-csv"),
    pytest.param(["survey", "--json", "--format", "text"], id="json-with-text"),
    pytest.param(["rr"], id="missing-argument"),
    pytest.param(["params", W, "--bogus"], id="unknown-option"),
    pytest.param([], id="no-subcommand"),
])
def test_usage_errors_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and "error:" in err and out == ""


@pytest.mark.parametrize("argv, shown", [
    pytest.param(["--help"], "usage: semicurve", id="top-level"),
    pytest.param(["survey", "--help"], "colon-chain depth, 1 to 8 (default 4)", id="survey"),
])
def test_help_exits_0(capsys, argv, shown):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert shown in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", [
    pytest.param(["--p", "1", "--max-mp", "-3", "--max-mn", "2"], id="negative-max-mp"),
    pytest.param(["--p", "0", "--max-mp", "10", "--max-mn", "10"], id="p-zero"),
    pytest.param(["--p", "1", "2", "--max-mp", "5", "--max-mn", "0"], id="zero-max-mn"),
    pytest.param(["--p", "-1", "1", "--max-mp", "5", "--max-mn", "5"], id="negative-p"),
])
def test_survey_rejects_bounds_below_1(capsys, argv):
    code, out, err = run(capsys, "survey", *argv)
    assert code == 1 and "survey bounds must be at least 1" in err and out == ""


SMOKE_CASES = [pytest.param([name, W], id=name) for name in (
    "validate", "params", "gens", "inideal", "gb-verify", "colon", "rr", "probe", "run")] + [
    pytest.param(["rr", NEGATIVE_CONTROL], id="rr-negative-control"),
    pytest.param(["probe", NEGATIVE_CONTROL], id="probe-negative-control"),
    pytest.param(["survey", "--p", "1", "--max-mp", "6", "--max-mn", "6", "--depth", "2"],
                 id="survey"),
]


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("argv", SMOKE_CASES)
def test_every_subcommand_in_both_modes(capsys, tmp_path, argv, mode):
    flags = ["--json"] if mode == "json" else []
    code, out, _ = run(capsys, argv[0], *flags, *argv[1:])
    assert code in (0, 3) and out.strip()
    if mode == "json":
        json.loads(out)
    # --out FILE gets the bytes stdout got, and stdout nothing
    target = tmp_path / "out"
    assert run(capsys, argv[0], *flags, "--out", str(target), *argv[1:]) == (code, "", "")
    assert steady(target.read_bytes().decode()) == steady(out)


# The output of these commands is pinned: the sha256 of the exit code,
# stdout and stderr of each, with the temporary directory read as TMP and
# steady() applied, must equal its digest in cli_bytes.json.
DIGESTS = Path(__file__).with_name("cli_bytes.json")
INSTANCES = (W, "21,22,23,24;16", "22,24,26,28;39")
# Ideal arguments, named in the command keys by their symbol.
IDEALS = {
    "NEGATIVE_CONTROL": NEGATIVE_CONTROL,
    "NON_PRIMARY": json.dumps({"arity": 2, "gens": [[1, 1], [0, 2]]}),
    "DEGREE_5_BUT_ONE": DEGREE_5_BUT_ONE,
    "UNIT": json.dumps({"arity": 2, "gens": [[0, 0]]}),
    "BAD_JSON": '{"arity": 2, "gens": [[1, 0]',
    "MISSING_FILE": "TMP/missing.json",
}
SURVEY = "survey --p 1 --max-mp 6 --max-mn 6 --depth 2"


def _commands():
    """The pinned command lines, each in text and --json mode where it has one."""
    lines = []
    for inst in INSTANCES:
        for sel in ("", " --selector socle", " --selector x1-p", " --selector x1-pm1",
                    " --selector xn"):
            lines.append(f"colon{{}}{sel} {inst}")
    for depth in (1, 4, 8):
        for inst in INSTANCES:
            lines += [f"{cmd}{{}} --depth {depth} {inst}" for cmd in ("rr", "probe", "run")]
        for ideal in ("NEGATIVE_CONTROL", "NON_PRIMARY"):
            lines += [f"{cmd}{{}} --depth {depth} {ideal}" for cmd in ("rr", "probe")]
    lines.append("rr{} --depth 4 DEGREE_5_BUT_ONE")
    for inst in INSTANCES + ("4,6,8;5", "bad"):
        lines += [f"{cmd}{{}} {inst}"
                  for cmd in ("validate", "params", "gens", "inideal", "gb-verify")]
    lines += [f"{cmd}{{}} --depth 9 {W}" for cmd in ("rr", "probe", "run")]
    lines += [f"{cmd}{{}} {ideal}" for cmd in ("rr", "probe")
              for ideal in ("UNIT", "BAD_JSON", "MISSING_FILE")]
    lines += [f"{cmd}{{}} --out TMP/missing/out {W}"
              for cmd in ("validate", "params", "gens", "inideal", "gb-verify", "colon",
                          "rr", "probe", "run")]
    lines += [SURVEY + "{}", SURVEY + "{} --out TMP/missing/out"]
    commands = [line.format(flag) for line in lines for flag in ("", " --json")]
    commands += [f"{SURVEY} --format {fmt}" for fmt in ("text", "csv", "json")]
    commands += [f"{SURVEY} --json --format {fmt}" for fmt in ("json", "csv")]
    return commands + ["frobnicate", ""]


def _digest(command, tmp):
    argv = [IDEALS.get(word, word).replace("TMP", tmp) for word in command.split()]
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = (s.flush() or s.buffer.getvalue().decode() for s in (out, err))
    seen = json.dumps([code, steady(out).replace(tmp, "TMP"), err.replace(tmp, "TMP")])
    return hashlib.sha256(seen.encode()).hexdigest()


def _digests(tmp):
    return {command: _digest(command, tmp) for command in _commands()}


def test_cli_bytes_match_the_recorded_digests(tmp_path):
    want, got = json.loads(DIGESTS.read_text()), _digests(str(tmp_path))
    assert sorted(got) == sorted(want)
    assert [c for c in got if got[c] != want[c]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        DIGESTS.write_text(json.dumps(_digests(tmp), indent=0, sort_keys=True) + "\n")
