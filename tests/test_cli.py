"""Command-line interface: subcommands, exit codes, JSON payloads, files."""
import json
import tracemalloc

import pytest

from semicurve import cli

W = "5,8,11;7"
NEGATIVE_CONTROL = json.dumps(
    {"arity": 2, "gens": [[4, 0], [3, 1], [1, 3], [0, 4]]})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    data = json.loads(out)
    assert data["closed_form_match"] is True
    assert [0, 2, 0, 0] in data["gens"]


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


@pytest.mark.parametrize("command, payload", [
    ("rr", {"chain_equal": [True] * 4, "depth": 4,
            "membership_table": [[False] * 4], "socle_candidates": [[99999, 99999]],
            "verdict": "CLOSED_EVIDENCE"}),
    ("probe", {"degenerate": False, "depth": 4,
               "membership_table": [[False] * 4], "socle_candidates": [[99999, 99999]],
               "verdict": "CLOSED_EVIDENCE"}),
])
def test_large_exponents_stay_cheap(capsys, command, payload):
    # 10^10 monomials lie outside this ideal; neither command may visit them.
    code, out, err = run(capsys, command, '{"arity": 2, "gens": [[100000, 0], [0, 100000]]}',
                         "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == payload


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


@pytest.mark.parametrize("text", [
    pytest.param('{"arity": 2, "gens": [[1]]}', id="short-generator"),
    pytest.param('{"arity": 2, "gens": [[1.5, 0], [0, 2]]}', id="float-exponent"),
    pytest.param('{"arity": 2, "gens": [[true, 0], [0, 2]]}', id="bool-exponent"),
    pytest.param('{"arity": -1, "gens": []}', id="negative-arity"),
    pytest.param('{"arity": 0, "gens": []}', id="zero-arity"),
    pytest.param('{"arity": 2, "gens": [1, 2]}', id="gens-not-lists"),
    pytest.param('{"arity": 2}', id="gens-missing"),
])
def test_bad_ideal_json(capsys, text):
    code, out, err = run(capsys, "rr", text)
    assert code == 1 and "error:" in err and out == ""


def test_unknown_subcommand(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 1 and "error:" in err and out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["rr", W, "--depth", "abc"], id="depth-not-int"),
    pytest.param(["survey", "--format", "xml"], id="bad-format"),
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
def test_every_subcommand_in_both_modes(capsys, argv, mode):
    flags = ["--json"] if mode == "json" else []
    code, out, _ = run(capsys, argv[0], *flags, *argv[1:])
    assert code in (0, 3) and out.strip()
    if mode == "json":
        json.loads(out)
