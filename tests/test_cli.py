"""Command line front end: exit codes, output shapes, error reporting."""

from __future__ import annotations

import json
import os
import stat
import threading

import pytest

from conftest import minimal_town

from cascade.cli import EXIT_BENCH, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, main


def run_cli(*argv: str) -> int:
    return main(list(argv))


@pytest.fixture()
def golden_file(golden_path) -> str:
    return str(golden_path)


def test_run_writes_a_trace_and_summary(golden_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code = run_cli("run", "--scenario", golden_file, "--ticks", "5", "--seed", "7", "--trace", str(trace))
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "ticks=5 npcs=10 events_fired=1 directives_issued=5 actions_executed=50 llm_calls=0\n"
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {"scenario": "drought_town", "seed": 7, "schema_version": 1, "npc_count": 10}
    assert len(lines) > 1


def test_run_defaults_to_the_scenario_seed(golden_file, tmp_path):
    trace = tmp_path / "run.jsonl"
    assert run_cli("run", "--scenario", golden_file, "--ticks", "1", "--trace", str(trace)) == EXIT_OK
    meta = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
    assert meta["seed"] == 7


def test_run_npcs_override(golden_file, tmp_path):
    trace = tmp_path / "run.jsonl"
    assert run_cli("run", "--scenario", golden_file, "--ticks", "1", "--trace", str(trace), "--npcs", "20") == EXIT_OK
    meta = json.loads(trace.read_text(encoding="utf-8").splitlines()[0])
    assert meta["npc_count"] == 20


def test_run_missing_scenario(tmp_path, capsys):
    code = run_cli("run", "--scenario", str(tmp_path / "nope.json"), "--ticks", "1", "--trace", str(tmp_path / "t.jsonl"))
    assert code == EXIT_INPUT
    assert "cannot read scenario" in capsys.readouterr().err


def test_bench_missing_scenario(tmp_path, capsys):
    code = run_cli("bench", "--scenario", str(tmp_path / "nope.json"), "--ticks", "1", "--npcs", "10")
    assert code == EXIT_INPUT
    assert "cannot read scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--trace", "t.jsonl"], ["bench", "--npcs", "10"]])
def test_non_utf8_scenario_is_an_input_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b'{"meta": {"name": "caf\xe9"}}')
    assert run_cli(command[0], "--scenario", "latin1.json", "--ticks", "1", *command[1:]) == EXIT_INPUT
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_invalid_scenario_lists_every_problem(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 2}', encoding="utf-8")
    code = run_cli("run", "--scenario", str(bad), "--ticks", "1", "--trace", str(tmp_path / "t.jsonl"))
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "scenario error: schema_version: expected 1, got 2" in err
    assert "scenario error: $: missing required field 'npcs'" in err


def test_run_rejects_negative_ticks(golden_file, tmp_path, capsys):
    code = run_cli("run", "--scenario", golden_file, "--ticks", "-1", "--trace", str(tmp_path / "t.jsonl"))
    assert code == EXIT_INPUT
    assert "--ticks must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("npcs", ["0", "-3"])
def test_run_rejects_npcs_below_one_before_opening_the_trace(npcs, golden_file, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(b"an earlier trace\n")
    code = run_cli("run", "--scenario", golden_file, "--ticks", "1", "--trace", str(trace), "--npcs", npcs)
    assert code == EXIT_INPUT
    assert "--npcs" in capsys.readouterr().err
    assert trace.read_bytes() == b"an earlier trace\n"


def test_failed_run_keeps_the_earlier_trace(golden_path, tmp_path, capsys):
    # Replicating the drought town's roster to 30 NPCs names the second copy
    # of `mayor` "mayor_x1", which this town already uses, so the roster
    # check fails once the scenario has loaded, before the trace is opened.
    doc = json.loads(golden_path.read_text(encoding="utf-8"))
    for npc in doc["npcs"]:
        if npc["id"] == "merchant_1":
            npc["id"] = "mayor_x1"
    scenario = tmp_path / "clash.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    trace.write_bytes(b"an earlier trace\n")
    code = run_cli("run", "--scenario", str(scenario), "--ticks", "1", "--trace", str(trace), "--npcs", "30")
    assert code == EXIT_INPUT
    assert "duplicate npc id 'mayor_x1'" in capsys.readouterr().err
    assert trace.read_bytes() == b"an earlier trace\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clash.json", "t.jsonl"]
    # A complete run replaces the earlier trace and leaves nothing beside it.
    assert run_cli("run", "--scenario", str(scenario), "--ticks", "1", "--trace", str(trace)) == EXIT_OK
    assert json.loads(trace.read_text(encoding="utf-8").splitlines()[0])["npc_count"] == 10
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clash.json", "t.jsonl"]


def test_run_writes_to_dev_null(golden_file):
    assert run_cli("run", "--scenario", golden_file, "--ticks", "2", "--trace", os.devnull) == EXIT_OK
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_run_writes_into_a_fifo(golden_file, tmp_path):
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    code = run_cli("run", "--scenario", golden_file, "--ticks", "2", "--trace", str(fifo))
    reader.join(timeout=30)
    assert code == EXIT_OK
    assert received and json.loads(received[0].splitlines()[0])["npc_count"] == 10
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["trace.fifo"]


def test_run_writes_through_a_symlink(golden_file, tmp_path):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"an earlier trace\n")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    assert run_cli("run", "--scenario", golden_file, "--ticks", "2", "--trace", str(link)) == EXIT_OK
    assert link.is_symlink()
    assert json.loads(target.read_text(encoding="utf-8").splitlines()[0])["npc_count"] == 10


def test_run_rejects_oversized_seed(golden_file, tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", golden_file, "--ticks", "1",
        "--seed", str(2**64), "--trace", str(tmp_path / "t.jsonl"),
    )
    assert code == EXIT_INPUT
    assert "seed must fit in 64 bits" in capsys.readouterr().err


def test_run_rejects_oversized_seed_default(tmp_path, capsys):
    doc = minimal_town()
    doc["seed_default"] = 2**70
    scenario = tmp_path / "big_seed.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    code = run_cli("run", "--scenario", str(scenario), "--ticks", "1", "--trace", str(trace))
    assert code == EXIT_INPUT
    assert "seed must fit in 64 bits" in capsys.readouterr().err
    assert not trace.exists()


def test_run_rejects_a_tree_condition_on_an_unknown_variable(tmp_path, capsys):
    doc = minimal_town()
    doc["behavior_tree"] = {
        "kind": "selector",
        "children": [
            {"kind": "condition", "field": "var.nope", "op": ">", "value": 0.5},
            {"kind": "action", "action_id": "idle"},
        ],
    }
    scenario = tmp_path / "bad_tree.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    code = run_cli("run", "--scenario", str(scenario), "--ticks", "3", "--trace", str(trace))
    assert code == EXIT_INPUT
    assert "behavior_tree.children[0].field: unknown variable 'nope'" in capsys.readouterr().err
    assert not trace.exists()


def test_run_rejects_a_tree_condition_on_an_undeclared_need(tmp_path, capsys):
    doc = minimal_town()
    doc["npcs"][0]["needs"] = {"hunger": 0.9}
    doc["behavior_tree"] = {
        "kind": "selector",
        "children": [
            {"kind": "condition", "field": "needs.hungr", "op": ">", "value": 0.5},
            {"kind": "action", "action_id": "idle"},
        ],
    }
    scenario = tmp_path / "misspelt_need.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    trace = tmp_path / "t.jsonl"
    code = run_cli("run", "--scenario", str(scenario), "--ticks", "3", "--trace", str(trace))
    assert code == EXIT_INPUT
    assert "behavior_tree.children[0].field: unknown need 'hungr'" in capsys.readouterr().err
    assert not trace.exists()


def test_run_unwritable_trace_path(golden_file, tmp_path, capsys):
    code = run_cli("run", "--scenario", golden_file, "--ticks", "1", "--trace", str(tmp_path / "absent" / "t.jsonl"))
    assert code == EXIT_INVARIANT
    assert "cannot open trace" in capsys.readouterr().err


def test_run_baseline_counts_calls(golden_file, tmp_path, capsys):
    trace = tmp_path / "base.jsonl"
    code = run_cli(
        "run", "--scenario", golden_file, "--ticks", "2", "--seed", "7",
        "--trace", str(trace), "--baseline", "full-generative",
    )
    assert code == EXIT_OK
    assert "llm_calls=20" in capsys.readouterr().out


def test_report_summarizes_a_run(golden_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    run_cli("run", "--scenario", golden_file, "--ticks", "4", "--seed", "7", "--trace", str(trace))
    capsys.readouterr()
    assert run_cli("report", "--trace", str(trace)) == EXIT_OK
    out = capsys.readouterr().out
    assert "scenario:           drought_town" in out
    assert "llm calls:          0" in out
    assert "baseline llm calls: 40" in out
    assert "reduction ratio:    1.0000" in out
    # Tick 4 is the drought tick, so the final-action table shows the
    # coordinated response.
    rows = {line.split()[0]: line for line in out.splitlines() if line.startswith(("mayor", "merchant", "farmer", "guard", "townsfolk"))}
    assert rows["mayor"].endswith("convene_town_hall")
    assert "[Merchant][Greedy]" in rows["merchant_1"] and rows["merchant_1"].endswith("raise_price")
    assert rows["merchant_2"].endswith("discount_water")
    assert rows["farmer_1"].endswith("ration_water")
    assert rows["farmer_2"].endswith("idle")
    assert rows["guard_1"].endswith("patrol_water_sources")
    assert rows["guard_2"].endswith("idle")


def test_report_shows_how_each_variable_moved(golden_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    run_cli("run", "--scenario", golden_file, "--ticks", "6", "--seed", "7", "--trace", str(trace))
    capsys.readouterr()
    assert run_cli("report", "--trace", str(trace)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("variable         first    last  changes")
    # Water drifts up from 0.45 and clamps at 1 on tick 6; the drought of
    # tick 4 raises food from tick 5; morale never moves, so has no row.
    assert lines[start + 1:start + 4] == [
        "food_scarcity   0.2200  0.2400        2",
        "water_scarcity  0.5500  1.0000        6",
        "",
    ]


def test_report_baseline_ratio_is_zero(golden_file, tmp_path, capsys):
    trace = tmp_path / "base.jsonl"
    run_cli(
        "run", "--scenario", golden_file, "--ticks", "2", "--seed", "7",
        "--trace", str(trace), "--baseline", "full-generative",
    )
    capsys.readouterr()
    run_cli("report", "--trace", str(trace))
    out = capsys.readouterr().out
    assert "llm calls:          20" in out
    assert "reduction ratio:    0.0000" in out


def test_report_token_override(golden_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    run_cli("run", "--scenario", golden_file, "--ticks", "2", "--seed", "7", "--trace", str(trace))
    capsys.readouterr()
    run_cli("report", "--trace", str(trace), "--tokens-per-call", "100")
    out = capsys.readouterr().out
    assert "baseline tokens:    2000" in out


@pytest.mark.parametrize("tokens", ["-500", "-1"])
def test_report_rejects_negative_tokens_per_call(golden_file, tmp_path, capsys, tokens):
    trace = tmp_path / "run.jsonl"
    run_cli("run", "--scenario", golden_file, "--ticks", "2", "--seed", "7", "--trace", str(trace))
    capsys.readouterr()
    assert run_cli("report", "--trace", str(trace), "--tokens-per-call", tokens) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tokens-per-call must be >= 0" in captured.err


def test_report_accepts_zero_tokens_per_call(golden_file, tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    run_cli("run", "--scenario", golden_file, "--ticks", "2", "--seed", "7", "--trace", str(trace))
    capsys.readouterr()
    assert run_cli("report", "--trace", str(trace), "--tokens-per-call", "0") == EXIT_OK
    assert "baseline tokens:    0\n" in capsys.readouterr().out


def test_report_names_the_corrupt_line(tmp_path, capsys):
    trace = tmp_path / "broken.jsonl"
    trace.write_text('{"npc_count":1}\n{oops\n', encoding="utf-8")
    assert run_cli("report", "--trace", str(trace)) == EXIT_INPUT
    assert "trace line 2" in capsys.readouterr().err


VARIABLE_LINE = {"tick": 1, "phase": "Clock", "kind": "VariableChanged", "variable": "x", "intensity": 0.5}
ACTION_LINE = {"tick": 1, "phase": "Act", "kind": "ActionExecuted", "npc": "solo", "action": "idle", "tags": ["A"]}


@pytest.mark.parametrize("meta, line, message", [
    ({"npc_count": 1}, {**VARIABLE_LINE, "intensity": None}, "tick 1 VariableChanged: 'intensity'"),
    ({"npc_count": 1}, {**VARIABLE_LINE, "intensity": "hi"}, "tick 1 VariableChanged: 'intensity'"),
    ({"npc_count": 1}, {**VARIABLE_LINE, "variable": 3}, "tick 1 VariableChanged: 'variable'"),
    ({"npc_count": 1}, {**VARIABLE_LINE, "tick": "1"}, "trace line 3: tick must be a non-negative integer"),
    ({"npc_count": 1}, {**ACTION_LINE, "action": None}, "tick 1 ActionExecuted: 'action'"),
    ({"npc_count": 1}, {**ACTION_LINE, "tags": "A"}, "tick 1 ActionExecuted: 'tags'"),
    ({"npc_count": "3"}, ACTION_LINE, "npc_count must be a non-negative integer, got '3'"),
], ids=["no-intensity", "text-intensity", "number-variable", "text-tick", "no-action", "text-tags", "text-npc-count"])
def test_report_rejects_malformed_lines(tmp_path, capsys, meta, line, message):
    line = {k: v for k, v in line.items() if v is not None}  # None drops the field
    trace = tmp_path / "bad.jsonl"
    trace.write_text("\n".join(json.dumps(obj) for obj in (meta, ACTION_LINE, line)) + "\n", encoding="utf-8")
    assert run_cli("report", "--trace", str(trace)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e999"])
def test_report_rejects_non_finite_numbers(tmp_path, capsys, number):
    trace = tmp_path / "non_finite.jsonl"
    good = json.dumps(VARIABLE_LINE)
    trace.write_text(
        "\n".join(['{"npc_count":1}', good, good.replace("0.5", number)]) + "\n", encoding="utf-8",
    )
    assert run_cli("report", "--trace", str(trace)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"trace line 3: non-finite number {number}" in captured.err
    assert captured.out == ""


def test_report_missing_trace(tmp_path, capsys):
    assert run_cli("report", "--trace", str(tmp_path / "nope.jsonl")) == EXIT_INPUT
    assert "cannot read trace" in capsys.readouterr().err


def test_bench_holds_directive_counts_constant(golden_file, capsys):
    code = run_cli("bench", "--scenario", golden_file, "--ticks", "5", "--npcs", "10,20")
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["npcs", "ticks", "directives", "utility_evals", "ms_per_tick"]
    table = [line.split() for line in out[1:-1]]
    assert [row[0] for row in table] == ["10", "20"]
    assert {row[2] for row in table} == {"5"}
    # 9 matching (npc, directive) pairs per tick at town size 10, live for
    # ticks 4 and 5 of this run; the census doubles with the town.
    assert [row[3] for row in table] == ["18", "36"]
    assert out[-1] == "directive count constant across scales: ok"


def test_bench_rejects_malformed_sizes(golden_file, capsys):
    assert run_cli("bench", "--scenario", golden_file, "--ticks", "2", "--npcs", "ten") == EXIT_INPUT
    assert "--npcs expects" in capsys.readouterr().err
    assert run_cli("bench", "--scenario", golden_file, "--ticks", "2", "--npcs", "0,10") == EXIT_INPUT
    assert "positive town size" in capsys.readouterr().err


def test_bench_rejects_colliding_replica_ids(tmp_path, capsys):
    doc = minimal_town()
    doc["npcs"] = [dict(doc["npcs"][0], id=npc_id) for npc_id in ("mayor", "mayor_x1")]
    scenario = tmp_path / "collide.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("bench", "--scenario", str(scenario), "--ticks", "1", "--npcs", "4") == EXIT_INPUT
    assert "duplicate npc id 'mayor_x1'" in capsys.readouterr().err


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_INPUT, EXIT_INVARIANT, EXIT_BENCH) == (0, 2, 3, 4)
