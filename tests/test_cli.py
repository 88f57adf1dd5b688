"""Command-line interface: exit codes, JSON report, determinism."""

import json

import pytest

from atlir import cli
from atlir.checker import check
from atlir.cli import main
from atlir.modelio import load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cardgame_uniform_check_fails(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame", "<<player>> F win")
    assert code == 1
    assert "FAILS" in out


def test_trivial_formula_holds(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame", "true")
    assert code == 0
    assert "HOLDS" in out


def test_castles_coalition_macro(capsys):
    code, out, _ = run(capsys, "check", "--gen", "castles:1,1,1",
                       "<<all12>> F castle3_defeated")
    assert code == 0
    assert "HOLDS" in out


def test_mixed_results_exit_one(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame",
                       "true", "--formula", "<<player>> F win")
    assert code == 1
    assert out.count("HOLDS") == 1 and out.count("FAILS") == 1


def test_json_report_schema_and_determinism(capsys):
    code, out1, _ = run(capsys, "check", "--gen", "cardgame", "--json",
                        "--list-sat", "--all-states", "<<player>> F win")
    assert code == 1
    report = json.loads(out1)
    assert report["model"] == {"states": 13, "initial": 1, "agents": 2}
    (entry,) = report["results"]
    assert entry["formula"] == "<<player>> F win"
    assert entry["holds"] is False
    assert entry["sat_count"] == len(entry["sat"]) == 3
    assert entry["sat"] == ["show_AK", "show_KQ", "show_QA"]
    assert entry["stats"] == {"strategies_explored": 26, "split_calls": 1,
                              "fragments_pruned": 26,
                              "fixpoint_iterations": 29, "max_depth": 2}
    assert "timings" in report
    _, out2, _ = run(capsys, "check", "--gen", "cardgame", "--json",
                     "--list-sat", "--all-states", "<<player>> F win")
    strip = lambda text: {k: v for k, v in json.loads(text).items()
                          if k != "timings"}
    assert strip(out1) == strip(out2)


def test_json_timings_split_index_build_from_check(capsys, monkeypatch):
    built = []

    def checked(model, f, query=None):
        built.append(set(model._indexes))  # indexes present at each check
        return check(model, f, query=query)

    monkeypatch.setattr(cli, "check", checked)
    code, out, _ = run(capsys, "check", "--gen", "castles:1,1,1", "--json",
                       "<<c1w1,c2w1>> F castle3_defeated", "--formula",
                       "<<c3w1>> X true | <<c2w1,c1w1>> X true")
    assert code == 0
    timings = json.loads(out)["timings"]
    assert set(timings) == {"load_s", "index_s", "check_s"}
    assert all(value >= 0 for value in timings.values())
    # both coalitions are indexed before the first check
    assert built == [{("c1w1", "c2w1"), ("c3w1",)}] * 2


def test_text_output_carries_no_timings(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame", "<<player>> F win")
    assert code == 1
    assert out == ("model: 13 states, 1 initial, 2 agents\n"
                   "FAILS  <<player>> F win  (0/1 initial states satisfy)\n")


def test_default_query_is_the_initial_states(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame", "--json",
                       "<<player>> F win")
    assert code == 1
    (entry,) = json.loads(out)["results"]
    assert entry["sat_count"] == 0  # the initial state does not satisfy it


def test_oracle_agreement_reported(capsys):
    code, out, _ = run(capsys, "check", "--gen", "cardgame", "--oracle",
                       "--all-states", "<<player>> F win")
    assert code == 1  # agreement, but the formula fails
    assert "oracle agrees" in out


def test_bad_formula_exits_two(capsys):
    code, _, err = run(capsys, "check", "--gen", "cardgame", "<<player>> F")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("cap", ["-1", "x", "2.5"])
def test_a_cap_that_is_no_count_is_a_usage_error(capsys, monkeypatch, cap):
    def never(*args, **kwargs):
        raise AssertionError("the oracle ran")
    monkeypatch.setattr(cli.oracle, "oracle_eval", never)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--gen", "cardgame", "--cap", cap, "--oracle",
              "<<player>> F win"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: atlir check")
    assert "argument --cap: %r is not a count of 0 or more" % cap in err


def test_a_cap_of_zero_is_a_count(capsys):
    code, _, err = run(capsys, "check", "--gen", "cardgame", "--cap", "0",
                       "--oracle", "<<player>> F win")
    assert code == 2
    assert "exceed the cap of 0" in err


def test_unknown_model_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "--model", "/nonexistent.icgs.json", "true")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["undecodable", "over-nested"])
def test_unreadable_model_file_exits_two(capsys, tmp_path, content):
    path = tmp_path / "bad.icgs.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "check", "--model", str(path), "true")
    assert code == 2 and out == ""
    assert "error:" in err and "internal error" not in err


def test_duplicate_protocol_action_exits_two(capsys, tmp_path):
    doc = {"agents": ["g"], "actions": {"g": ["a"]}, "states": ["u"],
           "initial": ["u"], "labels": {}, "obs": {"g": {"u": "o"}},
           "protocol": {"g": {"u": ["a", "a"]}},
           "transitions": [["u", {"g": "a"}, "u"]]}
    path = tmp_path / "dup.icgs.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", "--model", str(path), "<<g>> X !true")
    assert code == 2 and out == ""
    assert "DuplicateAction" in err


def test_gen_writes_loadable_document(capsys, tmp_path):
    out_path = tmp_path / "card.icgs.json"
    code, out, _ = run(capsys, "gen", "cardgame", "-o", str(out_path))
    assert code == 0
    model = load(out_path)
    assert len(model.states) == 13

    code, _, _ = run(capsys, "check", "--model", str(out_path),
                     "<<player>> F win")
    assert code == 1


def test_gen_reports_states_and_transitions(capsys, tmp_path):
    out_path = tmp_path / "card.icgs.json"
    code, out, _ = run(capsys, "gen", "cardgame", "-o", str(out_path))
    assert code == 0
    model = load(out_path)
    assert out == "wrote %s (13 states, %d transitions)\n" % (
        out_path, len(model.transition))


def test_gen_castles_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "castles.icgs.json"
    code, _, _ = run(capsys, "gen", "castles:1,1,2", "-o", str(out_path))
    assert code == 0
    model = load(out_path)
    assert len(model.states) == 752


def test_gen_over_cap_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "castles:9,9,9",
                       "-o", str(tmp_path / "x.icgs.json"))
    assert code == 2
    assert "cap" in err


def test_bad_generator_spec_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "castles:1,2",
                       "-o", str(tmp_path / "x.icgs.json"))
    assert code == 2


def test_castles_without_workers_exits_two(capsys):
    for spec in ("castles:0,1,1", "castles:1,-1,1"):
        code, out, err = run(capsys, "check", "--gen", spec, "true")
        assert code == 2
        assert err.startswith("error: castles needs three worker counts")
        assert "internal error" not in err and out == ""


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "atlir", "check", "--gen", "cardgame", "true"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "HOLDS" in proc.stdout


def test_deeply_nested_formula_exits_two_without_traceback(capsys, tmp_path):
    import subprocess
    import sys
    out_path = tmp_path / "cg.json"
    assert run(capsys, "gen", "cardgame", "-o", str(out_path))[0] == 0
    proc = subprocess.run(
        [sys.executable, "-m", "atlir", "check", "--model", str(out_path),
         "!" * 3000 + "win"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_over_its_cap_exits_two_with_one_error_line(capsys):
    code, out, err = run(capsys, "check", "--gen", "cardgame", "--oracle",
                         "--cap", "7", "<<player>> F win")
    assert code == 2
    assert out == ""
    assert err == "error: 8 uniform strategies exceed the cap of 7\n"


def test_unexpected_exception_exits_two(capsys, monkeypatch):
    import atlir.cli

    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(atlir.cli, "check", crash)
    code, _, err = run(capsys, "check", "--gen", "cardgame", "true")
    assert code == 2
    assert "internal error" in err and "boom" in err
