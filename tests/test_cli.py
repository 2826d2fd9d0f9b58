import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kextrust
from kextrust import orchestrator
from kextrust.cli import (
    MATRIX_CELL_BUDGET,
    _check_matrix_size,
    _emit,
    build_parser,
    main,
    matrix_to_json,
)
from kextrust.orchestrator import load_state
from kextrust.topology import Topology, bundled_topology_path
from kextrust.trust import coefficients_closed_form, trust_matrix
from reference_data import EXPECTED_TRUST, SENSORS, expected_tolerance


@pytest.fixture()
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(bundled_topology_path("fig2").read_text(encoding="utf-8"))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SET_A = {"timestamp": 2, "sensor": "A", "action": "set", "note": ""}
_WIRED_AB = {"pair": ["A", "B"], "channel": "kljn", "key_id": "k", "established_at": 1,
             "status": "ok"}
_WIRELESS_AC = {"pair": ["A", "C"], "channel": "wireless", "key_id": "k", "established_at": 2,
                "status": "ok"}


def _v2_state(records=(_WIRED_AB,), sensors=("A", "B"), **fields):
    """A version 2 state file text whose one wired link is A-B, with
    top-level ``fields`` changed."""
    doc = {"version": 2, "topology": {"sensors": list(sensors), "kljn_edges": [["A", "B"]]},
           "clock": 1, "master_seed": 7, "records": records, "kill_events": [], **fields}
    return json.dumps(doc)


def _state_with_record(**fields):
    """A version 2 state file text whose one record, A-B, has ``fields`` changed."""
    return _v2_state(records=[{**_WIRED_AB, **fields}])


def _state_with_kill(clock=1, **event):
    """A version 2 state file text with the clock ``clock`` and, if ``event``
    holds fields, one kill event changed by them."""
    events = [{**_SET_A, "timestamp": 1, **event}] if event else []
    return _v2_state(clock=clock, kill_events=events)


def _v2_state_without(*keys):
    """A version 2 state file text with the top-level ``keys`` left out."""
    doc = json.loads(_v2_state())
    return json.dumps({key: value for key, value in doc.items() if key not in keys})


_REESTABLISH = "re-run 'kextrust establish' to write a version 2 state file"
# the same network as version 1 wrote it: every record, no master seed
_V1_STATE = json.dumps({
    "topology": {"sensors": ["A", "B"], "kljn_edges": [["A", "B"]]}, "clock": 1,
    "records": [_WIRED_AB], "kill": {"killed": [], "events": []}})


def parse_csv_matrix(text):
    lines = [line for line in text.splitlines() if line]
    order = lines[0].split(",")[1:]
    values = {}
    for line in lines[1:]:
        cells = line.split(",")
        values[cells[0]] = [float(v) for v in cells[1:]]
    return order, values


class TestValidate:
    def test_valid_topology(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "validate", fig2_file)
        assert code == 0
        assert "ok: 10 sensors, 6 KLJN edges" in out

    def test_bundled_alias(self, capsys):
        code, _, _ = run_cli(capsys, "validate", "fig2")
        assert code == 0

    def test_edge_count_is_deduplicated(self, capsys, tmp_path):
        doc = tmp_path / "dup.json"
        doc.write_text('{"sensors": ["A", "B", "C"],'
                       ' "kljn_edges": [["A", "B"], ["B", "A"], ["A", "B"], ["C", "B"]]}')
        code, out, _ = run_cli(capsys, "validate", str(doc))
        assert code == 0
        assert out == "ok: 3 sensors, 2 KLJN edges\n"

    def test_invalid_topology(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"sensors": ["A", "B"], "kljn_edges": [["A", "B"]],'
            ' "wireless_sets": {"A": ["B"], "B": []}}'
        )
        code, out, _ = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "kljn-wireless-overlap" in out

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "validate", "no-such-file.json")
        assert code == 1
        assert "not found" in err

    def test_syntax_error_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sensors": [')
        code, _, err = run_cli(capsys, "validate", str(bad))
        assert code == 1
        assert "line" in err

    @pytest.mark.parametrize("command", ["validate", "trust-matrix"])
    @pytest.mark.parametrize("text", ["[" * 100_000, '{"sensors": ' * 100_000],
                             ids=["arrays", "objects"])
    def test_deeply_nested_document(self, capsys, tmp_path, command, text):
        # the decoder gives up before the nesting ends: not a traceback
        deep = tmp_path / "deep.json"
        deep.write_text(text)
        code, out, err = run_cli(capsys, command, str(deep))
        assert (code, out) == (1, "")
        assert err == "error: topology document is not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"sensors": ["A", "B", "A"]}, "duplicate sensor id 'A'"),
            ({"sensors": ["A", ""]}, "sensor id must be a non-empty string, got ''"),
            ({"sensors": ["A", 3]}, "sensor id must be a non-empty string, got 3"),
            ({"sensors": ["A", "B"], "kljn_edges": [["A", "A"]]},
             "KLJN edge ['A', 'A'] is a self-loop"),
            ({"sensors": ["A", "B"], "kljn_edges": [["A", "Q"]]},
             "KLJN edge ['A', 'Q'] references unknown sensor 'Q'"),
            ({"sensors": ["A", "B"], "kljn_edges": [["Q", "A"]]},
             "KLJN edge ['Q', 'A'] references unknown sensor 'Q'"),
            ({"sensors": ["A", "B"], "kljn_edges": [["A", 5]]},
             "KLJN edge ['A', 5] references unknown sensor 5"),
            ({"sensors": ["A", "B"], "kljn_edges": [["A"]]}, "KLJN edge must be a pair, got ['A']"),
            ({"sensors": "A"}, "'sensors' must be a list of sensor ids"),
            ({"sensors": ["A"], "kljn_edges": "AB"},
             "'kljn_edges' must be a list of [id, id] pairs"),
            ({"sensors": ["A"], "extra": 1}, "unknown keys in topology document: ['extra']"),
            ({"sensors": ["A"], "wireless_sets": []},
             "'wireless_sets' must be an object mapping id -> [id...]"),
            ({"sensors": ["A"], "wireless_sets": {"A": "B"}}, "wireless set of 'A' must be a list"),
            ({"sensors": ["A"], "wireless_sets": {"A": [1]}},
             "wireless peer of 'A' must be a non-empty string, got 1"),
            ({"sensors": ["A"], "wireless_sets": {"A": [["B"]]}},
             "wireless peer of 'A' must be a non-empty string, got ['B']"),
            ({"sensors": ["A"], "wireless_sets": {"": []}},
             "wireless set owner must be a non-empty string, got ''"),
            # the wireless sets are checked before the sensors
            ({"sensors": ["A", "A"], "wireless_sets": {"A": [""]}},
             "wireless peer of 'A' must be a non-empty string, got ''"),
        ],
    )
    def test_refused_document_message(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(capsys, "validate", str(bad)) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "edges, sets, code, report",
        [
            ([], {"A": ["Z"], "B": []}, 1,
             "error [unknown-sensor]: wireless set of 'A' contains unknown sensor 'Z'\n"),
            ([], {"A": [], "B": [], "Z": []}, 1,
             "error [unknown-sensor]: wireless set given for unknown sensor 'Z'\n"),
            ([], {"A": ["A"], "B": []}, 1,
             "error [self-in-wireless]: sensor 'A' lists itself as a wireless peer\n"),
            ([["A", "B"]], {"A": ["B"], "B": []}, 1,
             "error [kljn-wireless-overlap]: 'B' is both a KLJN and a wireless peer of 'A'\n"),
            ([], {"A": ["B"]}, 0,
             "warning [missing-wireless-entry]: no explicit wireless set for ['B'] "
             "(treated as empty)\nok: 2 sensors, 0 KLJN edges\n"),
        ],
    )
    def test_wireless_set_fault_report(self, capsys, tmp_path, edges, sets, code, report):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sensors": ["A", "B"], "kljn_edges": edges,
                                   "wireless_sets": sets}))
        assert run_cli(capsys, "validate", str(bad)) == (code, report, "")


class TestUsage:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_bad_flag_value(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate-kljn", "--bits", "many"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("start,message", [
        ("-1", "must be 0 or more, got -1"), ("-3", "must be 0 or more, got -3"),
        ("2.5", "not an integer: '2.5'"),
    ])
    def test_refused_attack_start(self, capsys, start, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate-kljn", "--bits", "8", "--attack-start", start])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --attack-start: {message}\n")

    @pytest.mark.parametrize("seed,message", [
        ("-5", "must be 0 or more, got -5"), ("1.5", "not an integer: '1.5'"),
    ])
    def test_refused_simulate_seed(self, capsys, seed, message):
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate-kljn", "--bits", "8", "--seed", seed])
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --seed: {message}\n")

    def test_establish_takes_any_integer_seed(self, capsys, fig2_file, tmp_path):
        # the master seed is hashed, so a negative one is a seed like any other
        code, _, err = run_cli(capsys, "establish", fig2_file, "--seed", "-5", "--bits", "8",
                               "--out", str(tmp_path / "state.json"))
        assert code == 0 and err == ""

    @pytest.mark.parametrize("flag", [("--coefficients", "fixed-point"), ("--tol", "1e-10")])
    @pytest.mark.parametrize("command", [("trust", "fig2", "A", "C"), ("trust-matrix", "fig2"),
                                         ("rank", "fig2", "A"), ("report", "state.json")])
    def test_trust_commands_take_no_coefficient_flags(self, capsys, command, flag):
        # every trust evaluation uses the closed-form coefficients
        with pytest.raises(SystemExit) as exc_info:
            main([*command, *flag])
        assert exc_info.value.code == 2
        assert capsys.readouterr().out == ""


class TestTrustCommands:
    def test_single_pair(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "trust", fig2_file, "A", "C")
        assert code == 0
        assert out.strip() == "0.555"

    def test_full_precision(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "trust", fig2_file, "A", "C", "--full-precision")
        assert code == 0
        assert abs(float(out) - 0.5548748343321905) < 1e-15

    def test_unknown_sensor(self, capsys, fig2_file):
        code, _, err = run_cli(capsys, "trust", fig2_file, "A", "Q")
        assert code == 1
        assert "Q" in err

    def test_matrix_matches_published_values(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "trust-matrix", fig2_file)
        assert code == 0
        order, rows = parse_csv_matrix(out)
        assert order == SENSORS
        for i in SENSORS:
            for j_pos, j in enumerate(SENSORS):
                tol = expected_tolerance(i, j) + 5e-4  # CSV carries 3 decimals
                assert abs(rows[i][j_pos] - EXPECTED_TRUST[i][j_pos]) <= tol

    def test_matrix_kill_flag(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "trust-matrix", fig2_file, "--kill", "H")
        assert code == 0
        _, rows = parse_csv_matrix(out)
        h = SENSORS.index("H")
        assert all(rows[i][h] == 0.0 for i in SENSORS)

    def test_complement_rule_queries_never_build_kljn_edges(self, capsys, tmp_path,
                                                           monkeypatch):
        rng = np.random.default_rng(5)
        sensors = [f"s{k:02d}" for k in range(40)]
        edges = [[sensors[a], sensors[b]] for a, b in rng.integers(0, 40, (120, 2)) if a != b]
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"sensors": sensors, "kljn_edges": edges}))

        def refuse(t):
            raise AssertionError("kljn_edges was built")

        monkeypatch.setattr(Topology, "kljn_edges", property(refuse))
        for argv in (("validate",), ("trust", "s00", "s01"), ("rank", "s03"),
                     ("trust-matrix",), ("trust-matrix", "--format", "json")):
            code, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:])
            assert code == 0 and out

    def test_matrix_kill_unknown(self, capsys, fig2_file):
        code, _, err = run_cli(capsys, "trust-matrix", fig2_file, "--kill", "Q")
        assert code == 1
        assert "unknown sensor" in err

    def test_kill_quoted_ids(self, capsys, tmp_path):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"sensors": ["a,b", "c\rd", "e"]}))
        code, out, err = run_cli(capsys, "trust-matrix", str(odd), "--kill", '"a,b"')
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert rows[0] == ["sensor", "a,b", "c\rd", "e"]
        assert [row[1] for row in rows[1:]] == ["0.000"] * 3
        assert [row[3] for row in rows[1:]] == ["0.147", "0.147", "1.000"]
        spaced = tmp_path / "spaced.json"
        spaced.write_text(json.dumps({"sensors": [" A", "B"]}))
        assert run_cli(capsys, "rank", str(spaced), "B", "--kill", '" A"') == (
            0, " A,0.000\n", "")

    @pytest.mark.parametrize("kill,peer,result", [
        ('"q""t"', 'q"t', (0, "0.000\n", "")),
        ('f,  " x " ,', " x ", (0, "0.000\n", "")),
        ('f, " x "', "f", (0, "0.000\n", "")),
        (" x ", " x ", (1, "", "error: --kill names unknown sensor 'x'\n")),
        ('f,"x",Q', "f", (1, "", "error: --kill names unknown sensor 'x'\n")),
        ('f,"q', "f", (1, "", "error: --kill has a malformed quoted id: '\"q'\n")),
        ('"q""t"t', "f", (1, "", "error: --kill has a malformed quoted id: '\"q\"\"t\"t'\n")),
    ])
    def test_kill_list_fields(self, capsys, tmp_path, kill, peer, result):
        # quoted fields are ids taken verbatim; unquoted ones are stripped
        topology = tmp_path / "t.json"
        topology.write_text(json.dumps({"sensors": ['q"t', " x ", "e", "f"]}))
        assert run_cli(capsys, "trust", str(topology), "e", peer, "--kill", kill) == result

    def test_matrix_json_format(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "trust-matrix", fig2_file, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == SENSORS
        assert doc["values"][0][0] == 1.0

    @pytest.mark.parametrize("kill", [[], ["H"], ["A", "J"]])
    def test_matrix_json_bytes_equal_json_dumps(self, capsys, fig2_file, fig2, kill):
        flags = ["--kill", ",".join(kill)] if kill else []
        code, out, _ = run_cli(capsys, "trust-matrix", fig2_file, "--format", "json", *flags)
        assert code == 0
        matrix = trust_matrix(fig2, coefficients_closed_form(), set(kill))
        doc = {"order": matrix.order, "values": matrix.values.tolist()}
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("sensors", [(), ("A",), ("A", "B\u00e9")])
    def test_matrix_to_json_small_shapes(self, sensors):
        matrix = trust_matrix(Topology(sensors, frozenset()), coefficients_closed_form())
        doc = {"order": list(sensors), "values": matrix.values.tolist()}
        assert b"".join(matrix_to_json(matrix)) == (json.dumps(doc, indent=2) + "\n").encode()

    def test_matrix_byte_identical_runs(self, capsys, fig2_file, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["trust-matrix", fig2_file, "--out", str(first)]) == 0
        assert main(["trust-matrix", fig2_file, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rank(self, capsys, fig2_file):
        code, out, _ = run_cli(capsys, "rank", fig2_file, "A")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "B,1.000"
        assert lines[1] == "D,1.000"
        assert lines[-1] == "J,0.173"


class TestCoefficients:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "coefficients")
        assert code == 0
        assert "a = 0.3819660112501051" in out

    def test_check_against_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "coefficients", "--check", "1e-10", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert max(doc["residuals"].values()) < 1e-12
        assert max(doc["deviations"].values()) < 1e-10

    @pytest.mark.parametrize("tol", ["1e-16", "1e-300", "5e-324"])
    def test_check_below_one_ulp(self, capsys, tol):
        # the bisection stops once no float lies inside its bracket, so a TOL
        # below one ulp is a verdict (pass or "deviates beyond"), not a traceback
        code, out, err = run_cli(capsys, "coefficients", "--check", tol, "--format", "json")
        deviation = max(json.loads(out)["deviations"].values())
        assert deviation < 1e-15
        if deviation < float(tol):
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"error: fixed-point solution deviates beyond {tol}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failing_check_writes_the_document_where_asked(self, capsys, tmp_path, fmt):
        # a failing check writes the document as a passing one does, then exits 1
        argv = ("coefficients", "--check", "1e-20", "--format", fmt)
        code, want, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "error: fixed-point solution deviates beyond 1e-20\n")
        if fmt == "json":
            assert max(json.loads(want)["deviations"].values()) >= 1e-20
        else:
            assert want.startswith("a = 0.3819660112501051\n")
            assert "fixed_point_deviation_a = " in want
        out = tmp_path / "c.txt"
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: fixed-point solution deviates beyond 1e-20\n")
        assert out.read_text(encoding="utf-8") == want


class TestSimulate:
    def test_deterministic_report(self, capsys):
        code, first, _ = run_cli(capsys, "simulate-kljn", "--bits", "8", "--seed", "7")
        assert code == 0
        code, second, _ = run_cli(capsys, "simulate-kljn", "--bits", "8", "--seed", "7")
        assert code == 0
        assert first == second
        doc = json.loads(first)
        assert doc["key_length"] == 8
        assert not doc["attack_detected"]
        assert "key_hex" not in doc

    def test_emit_key_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate-kljn", "--bits", "8", "--seed", "7", "--emit-key"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["key_hex"]) == 2
        int(doc["key_hex"], 16)

    def test_attacker_detection(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate-kljn",
            "--bits", "8",
            "--seed", "7",
            "--attacker", "wire-substitution",
            "--attack-start", "2",
            "--emit-key",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["attack_detected"]
        assert doc["key_length"] == 0
        assert doc["key_hex"] == ""
        assert doc["periods_used"] == 3

    def test_config_block_holds_the_circuit_constants(self, capsys):
        code, out, _ = run_cli(capsys, "simulate-kljn", "--bits", "8", "--seed", "3")
        assert code == 0
        assert json.loads(out)["config"] == {
            "r_low": 1000.0, "r_high": 10000.0, "t_eff": 1e9, "bandwidth": 1000.0,
            "samples_per_period": 2000, "level_tolerance": 0.2, "data_word_bits": 16, "seed": 3,
        }
        code, out, _ = run_cli(capsys, "simulate-kljn", "--bits", "8", "--tol", "0.3")
        assert json.loads(out)["config"]["level_tolerance"] == 0.3

    @pytest.mark.parametrize("argv,message", [
        (("--tol", "0"), "level_tolerance must be in (0, 0.5), got 0.0"),
        (("--tol", "0.5"), "level_tolerance must be in (0, 0.5), got 0.5"),
        (("--tol", "nan"), "level_tolerance must be in (0, 0.5), got nan"),
        (("--bits", "0"), "target_bits must be at least 1"),
    ])
    def test_refused_settings(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate-kljn", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate-kljn", "--bits", "1", "--seed", "7", "--tol", "1e-9"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["budget_exhausted"]
        assert doc["key_length"] == 0


class TestStateWorkflow:
    def test_establish_kill_report(self, capsys, fig2_file, tmp_path):
        state_path = tmp_path / "state.json"
        code, _, _ = run_cli(
            capsys,
            "establish", fig2_file,
            "--seed", "42",
            "--bits", "16",
            "--out", str(state_path),
        )
        assert code == 0
        assert len(load_state(state_path).records) == 45

        code, _, _ = run_cli(
            capsys, "kill", str(state_path), "H", "--note", "field alert"
        )
        assert code == 0
        state = load_state(state_path)
        revoked = [r for r in state.records.values() if r.status == "revoked"]
        assert len(revoked) == 9
        assert state.kill.killed == {"H"}

        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "matrix.csv"
        code, _, _ = run_cli(
            capsys,
            "report", str(state_path),
            "--out", str(report_path),
            "--csv", str(csv_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        h = SENSORS.index("H")
        assert all(row[h] == 0.0 for row in report["matrix"]["values"])
        _, rows = parse_csv_matrix(csv_path.read_text())
        assert all(rows[i][h] == 0.0 for i in SENSORS)

    def test_report_stdout_equals_out_file(self, capsys, fig2_file, tmp_path):
        state = str(tmp_path / "state.json")
        assert main(["establish", fig2_file, "--bits", "8", "--out", state]) == 0
        assert main(["kill", state, "H", "--note", "alarm"]) == 0
        report = tmp_path / "report.json"
        assert run_cli(capsys, "report", state, "--out", str(report)) == (0, "", "")
        code, out, err = run_cli(capsys, "report", state)
        assert (code, err) == (0, "")
        assert out.encode() == report.read_bytes()

    def test_establish_stdout_and_kill_out_flag(self, capsys, fig2_file, tmp_path):
        code, out, _ = run_cli(capsys, "establish", fig2_file, "--seed", "1", "--bits", "16")
        assert code == 0
        state_path = tmp_path / "s.json"
        state_path.write_text(out)
        out_path = tmp_path / "s2.json"
        code, _, _ = run_cli(capsys, "kill", str(state_path), "A", "--out", str(out_path))
        assert code == 0
        assert load_state(state_path).kill.killed == set()
        assert load_state(out_path).kill.killed == {"A"}

    @pytest.mark.parametrize(
        "text,message",
        [
            # text that is not JSON, or that nests too deeply for the decoder
            ("not json", "state file is not valid JSON: Expecting value (line 1, column 1)"),
            ('{"version": 2,\n  "clock": }',
             "state file is not valid JSON: Expecting value (line 2, column 12)"),
            pytest.param("[" * 100_000, "state file is not valid JSON: nested too deeply",
                         id="deep-arrays"),
            pytest.param('{"version": 2, "topology": ' + '{"a": ' * 100_000,
                         "state file is not valid JSON: nested too deeply", id="deep-objects"),
            ("[]", "state file must hold a JSON object"),
            # earlier versions and seedless states: the keys cannot be derived
            (_V1_STATE, f"state file has no 'version'; {_REESTABLISH}"),
            (_v2_state(version=1), f"state file version 1 is not supported; {_REESTABLISH}"),
            (_v2_state(version=3), f"state file version 3 is not supported; {_REESTABLISH}"),
            (_v2_state(version=True), f"state file version True is not supported; {_REESTABLISH}"),
            (_v2_state(version="2"), f"state file version '2' is not supported; {_REESTABLISH}"),
            (_v2_state(master_seed=None),
             f"state file 'master_seed' must be an integer, not null; {_REESTABLISH}"),
            (_v2_state(master_seed="7"),
             f'state file \'master_seed\' must be an integer, not "7"; {_REESTABLISH}'),
            (_v2_state(master_seed=7.0),
             f"state file 'master_seed' must be an integer, not 7.0; {_REESTABLISH}"),
            (_v2_state(master_seed=True),
             f"state file 'master_seed' must be an integer, not true; {_REESTABLISH}"),
            ('{"version": 2, "topology": {"sensors": []}, "clock": 0, "master_seed": 0, '
             '"kill_events": []}', "state file is missing 'records'"),
            ('{"version": 2, "topology": {"sensors": []}, "clock": 0, "records": [], '
             '"kill_events": []}', "state file is missing 'master_seed'"),
            (_v2_state_without("kill_events"), "state file is missing 'kill_events'"),
            (_v2_state_without("records", "kill_events"),
             "state file is missing 'records', 'kill_events'"),
            (_v2_state(topology=[]), "topology document must be a JSON object"),
            (_v2_state(records=[1]), "state file has a malformed record or kill log (TypeError"),
            (_v2_state(kill_events=[1]),
             "state file has a malformed record or kill log (TypeError"),
            (_v2_state(records=[{k: v for k, v in _WIRED_AB.items() if k != "status"}]),
             "state file has a malformed record or kill log (KeyError: 'status')"),
            (_v2_state(kill_events=[{k: v for k, v in _SET_A.items() if k != "sensor"}]),
             "state file has a malformed record or kill log (KeyError: 'sensor')"),
            (_v2_state(clock="0"), "state file 'clock' must be an integer"),
            (_state_with_kill(clock=True), "state file 'clock' must be an integer"),
            (_state_with_kill(clock=2.0), "state file 'clock' must be an integer"),
            # records
            (_v2_state(records={}), "state file 'records' must be a list"),
            (_state_with_record(pair=["A"]),
             "state file record 0 (pair ['A']): 'pair' must be two strings"),
            (_state_with_record(pair=["A", 2]),
             "state file record 0 (pair ['A', 2]): 'pair' must be two strings"),
            (_state_with_record(pair="AB"),
             "state file record 0 (pair 'AB'): 'pair' must be two strings"),
            (_state_with_record(channel=1),
             "state file record 0 (pair ['A', 'B']): 'channel', 'key_id' and 'status'"),
            (_state_with_record(key_id=None),
             "state file record 0 (pair ['A', 'B']): 'channel', 'key_id' and 'status'"),
            (_state_with_record(status=["ok"]),
             "state file record 0 (pair ['A', 'B']): 'channel', 'key_id' and 'status'"),
            (_state_with_record(established_at="1"),
             "state file record 0 (pair ['A', 'B']): 'established_at' must be an integer"),
            (_state_with_record(established_at=True),
             "state file record 0 (pair ['A', 'B']): 'established_at' must be an integer"),
            (_state_with_record(established_at=1.0),
             "state file record 0 (pair ['A', 'B']): 'established_at' must be an integer"),
            (_state_with_record(pair=["B", "A"]),
             "state file record 0 (pair ['B', 'A']): 'pair' must be two sensors of the "
             "topology in sorted order"),
            (_state_with_record(pair=["A", "Z"]),
             "state file record 0 (pair ['A', 'Z']): 'pair' must be two sensors of the "
             "topology in sorted order"),
            (_state_with_record(pair=["A", "A"]),
             "state file record 0 (pair ['A', 'A']): 'pair' must be two sensors of the "
             "topology in sorted order"),
            (_state_with_record(channel="bogus"),
             "state file record 0 (pair ['A', 'B']): 'channel' must be 'kljn'"),
            (_state_with_record(channel="wireless"),
             "state file record 0 (pair ['A', 'B']): 'channel' must be 'kljn'"),
            (_v2_state(records=[_WIRED_AB, {**_WIRELESS_AC, "channel": "kljn"}],
                       sensors=("A", "B", "C")),
             "state file record 1 (pair ['A', 'C']): 'channel' must be 'wireless'"),
            (_v2_state(records=[_WIRED_AB, _WIRELESS_AC], sensors=("A", "B", "C")),
             "state file record 1 (pair ['A', 'C']): a wireless record is derived from "
             "'master_seed', not stored"),
            (_state_with_record(status="lost"),
             "state file record 0 (pair ['A', 'B']): 'status' must be 'ok' or 'failed'"),
            (_state_with_record(status="revoked"),
             "state file record 0 (pair ['A', 'B']): 'status' must be 'ok' or 'failed'"),
            (_state_with_record(key_id=""),
             "state file record 0 (pair ['A', 'B']): 'key_id' must be empty exactly when "
             "'status' is 'failed'"),
            (_state_with_record(status="failed"),
             "state file record 0 (pair ['A', 'B']): 'key_id' must be empty exactly when "
             "'status' is 'failed'"),
            (_state_with_record(established_at=2),
             "state file record 0 (pair ['A', 'B']): 'established_at' must be 1, the pair's "
             "canonical position"),
            (_v2_state(records=[_WIRED_AB, _WIRED_AB]),
             "state file record 1 (pair ['A', 'B']): a second record for the pair"),
            (_v2_state(records=[]), "state file has no record for pair ['A', 'B']"),
            # kill events
            (_v2_state(kill_events={}), "state file kill events must be a list"),
            (_state_with_kill(timestamp="x"),
             "state file kill event 0: 'timestamp' must be an integer"),
            (_state_with_kill(timestamp=False),
             "state file kill event 0: 'timestamp' must be an integer"),
            (_state_with_kill(sensor=5),
             "state file kill event 0: 'sensor' 5 is not a sensor of the topology"),
            (_state_with_kill(sensor="Z"),
             "state file kill event 0: 'sensor' 'Z' is not a sensor of the topology"),
            (_state_with_kill(action="kill"),
             "state file kill event 0: 'action' must be \"set\" or \"clear\""),
            (_state_with_kill(note=["x"]), "state file kill event 0: 'note' must be a string"),
        ],
    )
    @pytest.mark.parametrize("command", ["report", "kill"])
    def test_malformed_state_file(self, capsys, tmp_path, command, text, message):
        state_path = tmp_path / "state.json"
        state_path.write_text(text)
        before = state_path.read_bytes()
        argv = [command, str(state_path)] + (["A"] if command == "kill" else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert state_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["report", "kill"])
    def test_state_with_invalid_topology(self, capsys, tmp_path, command):
        # B is both a wired and a wireless peer of A
        topology = {"sensors": ["A", "B"], "kljn_edges": [["A", "B"]],
                    "wireless_sets": {"A": ["B"], "B": ["A"]}}
        state_path = tmp_path / "state.json"
        state_path.write_text(_v2_state(topology=topology))
        before = state_path.read_bytes()
        argv = [command, str(state_path)] + (["A"] if command == "kill" else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: invalid topology: ") and err.count("\n") == 1
        assert state_path.read_bytes() == before

    def test_kill_unknown_sensor(self, capsys, fig2_file, tmp_path):
        state_path = tmp_path / "state.json"
        run_cli(capsys, "establish", fig2_file, "--seed", "1", "--bits", "16",
                "--out", str(state_path))
        code, _, err = run_cli(capsys, "kill", str(state_path), "Q")
        assert code == 1
        assert "unknown sensor" in err

class TestOutputPaths:
    """Output and state paths the system refuses: exit 1 with a message."""

    def _assert_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_establish_out_is_a_directory(self, capsys, tmp_path):
        self._assert_error(capsys, "establish", "fig2", "--bits", "8", "--out", str(tmp_path))
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    @pytest.mark.parametrize("bits", ["0", "-3"])
    def test_establish_bits_below_one(self, capsys, tmp_path, bits):
        lone = tmp_path / "lone.json"
        lone.write_text('{"sensors": ["A"]}')
        state = tmp_path / "state.json"
        for topology in (str(lone), "fig2"):
            code, out, err = run_cli(capsys, "establish", topology, "--bits", bits,
                                     "--out", str(state))
            assert (code, out) == (1, "")
            assert err == f"error: target_bits must be an int of at least 1, not {bits}\n"
        assert not state.exists()

    def test_state_is_a_directory(self, capsys, tmp_path):
        self._assert_error(capsys, "kill", str(tmp_path), "H")
        self._assert_error(capsys, "report", str(tmp_path))

    def test_report_outputs_are_directories(self, capsys, tmp_path):
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", state]) == 0
        self._assert_error(capsys, "report", state, "--out", str(tmp_path))
        self._assert_error(capsys, "report", state, "--out", str(tmp_path / "report.json"),
                           "--csv", str(tmp_path))
        self._assert_error(capsys, "trust-matrix", "fig2", "--out", str(tmp_path))

    def test_report_csv_is_a_directory(self, capsys, tmp_path):
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", state]) == 0
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        self._assert_error(capsys, "report", state, "--csv", str(out_dir))
        report = out_dir / "report.json"
        self._assert_error(capsys, "report", state, "--out", str(report), "--csv", str(out_dir))
        assert list(out_dir.iterdir()) == []  # no report, no temporary file

    @pytest.mark.parametrize("bad", ["out", "csv"])
    def test_failed_report_write_changes_no_file(self, capsys, tmp_path, bad):
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", state]) == 0
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        paths = {"out": out_dir / "report.json", "csv": out_dir / "matrix.csv"}
        for path in paths.values():
            path.write_text("earlier\n")
        (out_dir / "dir").mkdir()
        paths[bad] = out_dir / "dir"
        self._assert_error(capsys, "report", state, "--out", str(paths["out"]),
                           "--csv", str(paths["csv"]))
        assert sorted(p.name for p in out_dir.iterdir()) == ["dir", "matrix.csv", "report.json"]
        assert all(p.read_text() == "earlier\n" for p in out_dir.iterdir() if p.is_file())
        assert list((out_dir / "dir").iterdir()) == []

    def test_out_in_a_missing_directory(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "rank.csv")
        code, stdout, err = run_cli(capsys, "rank", "fig2", "A", "--out", out)
        assert code == 1 and stdout == ""
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"

    @pytest.mark.parametrize("out", ["x.json", "./x.json", "sub/../x.json"])
    def test_report_outputs_naming_one_file(self, capsys, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(["establish", "fig2", "--bits", "8", "--out", "state.json"]) == 0
        self._assert_error(capsys, "report", "state.json", "--out", out, "--csv", "x.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json", "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("spelling", ["state.json", "./state.json", "sub/../state.json",
                                          "link.json"])
    def test_report_output_naming_the_state(self, capsys, tmp_path, monkeypatch, flag, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to("state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", "state.json"]) == 0
        assert main(["kill", "state.json", "H"]) == 0
        before = (tmp_path / "state.json").read_bytes()
        code, out, err = run_cli(capsys, "report", "state.json", flag, spelling)
        assert (code, out) == (1, "")
        assert err == (f"error: output path {spelling!r} names the input file "
                       "'state.json'\n")
        assert (tmp_path / "state.json").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "state.json", "sub"]
        assert main(["kill", "state.json", "A"]) == 0  # still a state file

    @pytest.mark.parametrize("command", [
        ("trust-matrix",), ("trust-matrix", "--format", "json"), ("rank", "A"),
        ("establish", "--bits", "8"),
    ])
    def test_out_naming_the_topology(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        topology = tmp_path / "net.json"
        topology.write_text(bundled_topology_path("fig2").read_text(encoding="utf-8"))
        before = topology.read_bytes()
        argv = (command[0], "net.json", *command[1:])
        self._assert_error(capsys, *argv, "--out", str(topology))
        self._assert_error(capsys, *argv, "--out", "./net.json")
        assert topology.read_bytes() == before
        assert list(tmp_path.iterdir()) == [topology]

    def test_out_named_like_the_bundled_alias(self, capsys, tmp_path, monkeypatch):
        # with no file "fig2" here, the topology comes from the package and
        # the output path names no input
        monkeypatch.chdir(tmp_path)
        assert main(["trust-matrix", "fig2", "--out", "fig2"]) == 0
        assert (tmp_path / "fig2").read_text().startswith("sensor,")

    @pytest.mark.parametrize("argv", [
        ("trust-matrix", "fig2"), ("trust-matrix", "fig2", "--format", "json"),
        ("rank", "fig2", "A"), ("coefficients",), ("simulate-kljn", "--bits", "4"),
        ("establish", "fig2", "--bits", "8"),
    ])
    def test_failed_write_keeps_the_old_output(self, capsys, tmp_path, monkeypatch, argv):
        out = tmp_path / "out.txt"
        out.write_text("earlier\n")

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(orchestrator.os, "replace", interrupted)
        self._assert_error(capsys, *argv, "--out", str(out))
        assert out.read_text() == "earlier\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_save_keeps_the_old_state(self, capsys, tmp_path, monkeypatch):
        state_path = tmp_path / "state.json"
        assert main(["establish", "fig2", "--bits", "8", "--out", str(state_path)]) == 0
        before = state_path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted before the rename")

        monkeypatch.setattr(orchestrator.os, "replace", interrupted)
        self._assert_error(capsys, "kill", str(state_path), "H")
        assert state_path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [state_path]


def _cli_process(*argv, code="import sys; from kextrust.cli import main; sys.exit(main())"):
    """A child interpreter running ``code`` (by default the command line with
    ``argv``) with this checkout's ``kextrust``; its stdout is a pipe,
    block-buffered as by default (``PYTHONUNBUFFERED`` is dropped)."""
    src = Path(kextrust.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          timeout=120)


@pytest.fixture(scope="module")
def three_block_inputs(tmp_path_factory):
    """A topology of 150 sensors (three row blocks), some ids quoted in CSV
    or not ASCII, and its key state with one sensor killed."""
    base = tmp_path_factory.mktemp("streams")
    rng = np.random.default_rng(151)
    ids = ["a,b", "é", *(f"s{k:03d}" for k in range(148))]
    edges = {tuple(sorted((ids[a], ids[b]))) for a, b in rng.integers(0, 150, (120, 2)) if a != b}
    topology = base / "t150.json"
    topology.write_text(json.dumps({"sensors": ids, "kljn_edges": sorted(edges)}),
                        encoding="utf-8")
    state = base / "state.json"
    assert main(["establish", str(topology), "--bits", "8", "--out", str(state)]) == 0
    assert main(["kill", str(state), "é"]) == 0
    return str(topology), str(state)


STREAM_COMMANDS = {
    "csv": ("trust-matrix", "{topology}", "--kill", "s007"),
    "full": ("trust-matrix", "{topology}", "--full-precision"),
    "json": ("trust-matrix", "{topology}", "--format", "json", "--kill", '"a,b"'),
    "report": ("report", "{state}"),
}


class TestOutputStreams:
    """Writers yield ``str`` and ``bytes`` chunks; stdout gets the bytes a
    file gets, whether it is a real stream, a capture or an ``io.StringIO``."""

    @pytest.mark.parametrize("name", sorted(STREAM_COMMANDS))
    def test_stdout_equals_out_file(self, capsys, tmp_path, three_block_inputs, name):
        topology, state = three_block_inputs
        argv = [a.format(topology=topology, state=state) for a in STREAM_COMMANDS[name]]
        out = tmp_path / "out"
        assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
        want = out.read_bytes()
        assert want.count(b"\n") > 150  # more than one row block
        code, captured, err = run_cli(capsys, *argv)
        assert (code, err, captured.encode()) == (0, "", want)
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            assert main(argv) == 0
        assert text.getvalue().encode() == want
        done = _cli_process(*argv)
        assert (done.returncode, done.stderr, done.stdout) == (0, b"", want)

    def test_stdout_keeps_the_order_of_text_and_bytes(self):
        code = ("import sys; from kextrust.cli import _emit; sys.stdout.write('a'); "
                "_emit(['b', b'c', 'd\\u00e9', b'e'], None); sys.stdout.write('f')")
        done = _cli_process(code=code)
        assert (done.returncode, done.stdout) == (0, "abcdéef".encode())
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            _emit(["b", b"c", "dé", b"e"], None)
        assert text.getvalue() == "bcdée"


class TestMatrixBudget:
    """``trust-matrix`` and ``report`` refuse a network whose dense matrix
    would exceed ``MATRIX_CELL_BUDGET`` cells, before building it."""

    OVER = math.isqrt(MATRIX_CELL_BUDGET) + 1  # 16385 sensors
    MESSAGE = (f"error: {OVER} sensors need a {OVER} x {OVER} trust matrix, over the budget "
               "of 268435456 cells (at most 16384 sensors)\n")

    def _assert_refused(self, capsys, tmp_path, *argv):
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            result = run_cli(capsys, *argv, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (1, "", self.MESSAGE)
        assert not out.exists()
        assert peak < 64e6  # the matrix alone would take 2 GB

    def test_trust_matrix_over_budget(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"sensors": [f"s{k}" for k in range(self.OVER)],
                                    "kljn_edges": []}))
        self._assert_refused(capsys, tmp_path, "trust-matrix", str(path))

    def test_report_over_budget(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        sensors = [f"s{k}" for k in range(self.OVER)]
        path.write_text(_v2_state(records=[], topology={"sensors": sensors, "kljn_edges": []}))
        self._assert_refused(capsys, tmp_path, "report", str(path))

    def test_budget_edge(self):
        t = Topology(tuple(f"s{k}" for k in range(self.OVER - 1)), frozenset())
        assert _check_matrix_size(t) is t
        assert (self.OVER - 1) ** 2 == MATRIX_CELL_BUDGET


class TestInProcessReuse:
    """``main`` called repeatedly in one process builds its parser once, and
    no option given in one call leaks into a later one."""

    @staticmethod
    def _answer(capsys, argv, out):
        """Exit code, stdout, stderr and the text written to ``out`` (which
        is removed) of one ``main(argv)`` call; a ``SystemExit`` counts as
        its code."""
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    def test_each_call_answers_as_on_a_fresh_parser(self, capsys, fig2_file, tmp_path):
        out = tmp_path / "rank.csv"
        calls = [
            ("trust", fig2_file, "A"),  # the peer is missing: a usage error
            ("trust", fig2_file, "A", "C"),
            ("trust-matrix", fig2_file, "--format", "json", "--kill", "H"),
            ("trust-matrix", fig2_file),
            ("trust", fig2_file, "A", "C", "--full-precision"),
            ("trust", fig2_file, "A", "C"),
            ("rank", fig2_file, "A", "--out", str(out)),
            ("rank", fig2_file, "A"),
            ("simulate-kljn", "--bits", "8", "--attacker", "wire-substitution"),
            ("simulate-kljn", "--bits", "8"),
            ("--help",),
        ]
        build_parser.cache_clear()
        reused = [self._answer(capsys, argv, out) for argv in calls]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(self._answer(capsys, argv, out))
        assert reused == fresh
        codes = [code for code, *_ in reused]
        assert codes == [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
        # --full-precision, --kill, --format and --out hold for their own call only
        assert reused[1][1] == reused[5][1] == f"{float(reused[4][1]):.3f}\n" != reused[4][1]
        assert reused[2][1].startswith("{") and reused[3][1].startswith("sensor,")
        assert reused[6][1] == "" and reused[6][3] == reused[7][1] and reused[7][3] is None
        assert json.loads(reused[9][1])["attacker"] == "none"
        assert reused[10][1].startswith("usage: kextrust")

    def test_calls_share_one_parser(self, capsys):
        build_parser.cache_clear()
        parser = build_parser()
        assert main(["coefficients"]) == 0
        assert main(["coefficients", "--format", "json"]) == 0
        assert build_parser() is parser
        assert build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        src = Path(kextrust.__file__).resolve().parents[1]
        probe = "import kextrust.cli as c; print(c.build_parser.cache_info().currsize)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "0\n"
