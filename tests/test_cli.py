import contextlib
import csv
import fcntl
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kextrust
from kextrust import cli, orchestrator
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


_SET_A = {"sensor": "A", "action": "set", "note": ""}


def _v4_state(**fields):
    """A version 4 state file text whose one wired link is A-B, with
    top-level ``fields`` changed."""
    doc = {"version": 4, "topology": {"sensors": ["A", "B"], "kljn_edges": [["A", "B"]]},
           "master_seed": 7, "kljn_keys": ["k"], "kill_events": [], **fields}
    return json.dumps(doc)


def _state_with_kill(**event):
    """A version 4 state file text with one kill event changed by ``event``."""
    return _v4_state(kill_events=[{**_SET_A, **event}])


def _v4_state_without(*keys):
    """A version 4 state file text with the top-level ``keys`` left out."""
    doc = json.loads(_v4_state())
    return json.dumps({key: value for key, value in doc.items() if key not in keys})


_REESTABLISH = "re-run 'kextrust establish' to write a version 4 state file"
# the same network as version 1 wrote it: every record, no master seed
_V1_STATE = json.dumps({
    "topology": {"sensors": ["A", "B"], "kljn_edges": [["A", "B"]]}, "clock": 1,
    "records": [{"pair": ["A", "B"], "channel": "kljn", "key_id": "k", "established_at": 1,
                 "status": "ok"}],
    "kill": {"killed": [], "events": []}})
# 'establish fig2 --seed 42' as version 2 wrote it, one record per wired link
# (SHA-256 97ab36c0333bcf56d70c19dda3138e9619d045fdea089f71b6b51c2c67b5d5da)
_V2_STATE = """\
{
  "version": 2,
  "topology": {
    "sensors": ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"],
    "kljn_edges": [
      ["A", "B"],
      ["A", "D"],
      ["B", "E"],
      ["C", "D"],
      ["D", "E"],
      ["F", "G"]
    ]
  },
  "clock": 45,
  "master_seed": 42,
  "records": [
    {"pair": ["A", "B"], "channel": "kljn", "key_id": "293a1c4140380aad", "established_at": 1, "status": "ok"},
    {"pair": ["A", "D"], "channel": "kljn", "key_id": "34f4548062210944", "established_at": 3, "status": "ok"},
    {"pair": ["B", "E"], "channel": "kljn", "key_id": "855b03c45e759aa4", "established_at": 12, "status": "ok"},
    {"pair": ["C", "D"], "channel": "kljn", "key_id": "6127c5a72bf746c5", "established_at": 18, "status": "ok"},
    {"pair": ["D", "E"], "channel": "kljn", "key_id": "6c951212b73a8960", "established_at": 25, "status": "ok"},
    {"pair": ["F", "G"], "channel": "kljn", "key_id": "2d20a9991ccf1bf3", "established_at": 36, "status": "ok"}
  ],
  "kill_events": []
}
"""
# 'establish fig2 --seed 42', 'kill H' and 'kill A --note "second alarm"' as
# version 3 wrote them, with the clock and each event's timestamp stored
# (SHA-256 82f035bd309df34d5adc3aa1e1b68e09758e7c8797ee93ffc112b04a4e5c2ff9)
_V3_STATE = """\
{
  "version": 3,
  "topology": {
    "sensors": ["A", "B", "C", "D", "E", "F", "G", "H", "I", "J"],
    "kljn_edges": [
      ["A", "B"],
      ["A", "D"],
      ["B", "E"],
      ["C", "D"],
      ["D", "E"],
      ["F", "G"]
    ]
  },
  "clock": 47,
  "master_seed": 42,
  "kljn_keys": [
    "293a1c4140380aad",
    "34f4548062210944",
    "855b03c45e759aa4",
    "6127c5a72bf746c5",
    "6c951212b73a8960",
    "2d20a9991ccf1bf3"
  ],
  "kill_events": [
    {"timestamp": 46, "sensor": "H", "action": "set", "note": ""},
    {"timestamp": 47, "sensor": "A", "action": "set", "note": "second alarm"}
  ]
}
"""
_KEYS_FOR_ONE_LINK = ("state file 'kljn_keys' must be a list of strings, one per wired link "
                      "(the topology has 1)")


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
            ({"sensors": ["A", "A"]}, "duplicate sensor id 'A'"),
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
            # the first faulty edge in the order given, not in sorted order
            ({"sensors": ["z", "b", "a"], "kljn_edges": [["z", "b"], ["z", "q"], ["a", "a"]]},
             "KLJN edge ['z', 'q'] references unknown sensor 'q'"),
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
            # every fault at once, reported by owner in sorted order, each
            # owner's unknown peers sorted, then the sensor without a set
            ([["B", "C"]], {"Z": ["A"], "A": ["Y", "X"], "B": ["C", "B"]}, 1,
             "error [unknown-sensor]: wireless set of 'A' contains unknown sensor 'X'\n"
             "error [unknown-sensor]: wireless set of 'A' contains unknown sensor 'Y'\n"
             "error [self-in-wireless]: sensor 'B' lists itself as a wireless peer\n"
             "error [kljn-wireless-overlap]: 'C' is both a KLJN and a wireless peer of 'B'\n"
             "error [unknown-sensor]: wireless set given for unknown sensor 'Z'\n"
             "warning [missing-wireless-entry]: no explicit wireless set for ['C'] "
             "(treated as empty)\n"),
        ],
    )
    def test_wireless_set_fault_report(self, capsys, tmp_path, edges, sets, code, report):
        # the sensors are A, B and every end of a wired link
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sensors": sorted({"A", "B"}.union(*edges)),
                                   "kljn_edges": edges, "wireless_sets": sets}))
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

    def test_full_precision_leaves_json_unchanged(self, capsys, fig2_file, tmp_path):
        # --full-precision changes CSV cells only: JSON is always full precision
        state = str(tmp_path / "state.json")
        assert main(["establish", fig2_file, "--bits", "8", "--out", state]) == 0
        assert main(["kill", state, "H"]) == 0
        code, plain, err = run_cli(capsys, "report", state)
        assert (code, err) == (0, "")
        assert run_cli(capsys, "report", state, "--full-precision") == (0, plain, "")
        code, plain, _ = run_cli(capsys, "trust-matrix", fig2_file, "--format", "json")
        assert run_cli(capsys, "trust-matrix", fig2_file, "--format", "json",
                       "--full-precision") == (0, plain, "")

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
            ('{"version": 4,\n  "kljn_keys": }',
             "state file is not valid JSON: Expecting value (line 2, column 16)"),
            pytest.param("[" * 100_000, "state file is not valid JSON: nested too deeply",
                         id="deep-arrays"),
            pytest.param('{"version": 4, "topology": ' + '{"a": ' * 100_000,
                         "state file is not valid JSON: nested too deeply", id="deep-objects"),
            ("[]", "state file must hold a JSON object"),
            # earlier versions and seedless states: the keys cannot be derived
            (_V1_STATE, f"state file has no 'version'; {_REESTABLISH}"),
            pytest.param(_V2_STATE, f"state file version 2 is not supported; {_REESTABLISH}",
                         id="v2-establish-fig2-seed-42"),
            pytest.param(_V3_STATE, f"state file version 3 is not supported; {_REESTABLISH}",
                         id="v3-fig2-seed-42-two-kills"),
            (_v4_state(version=1), f"state file version 1 is not supported; {_REESTABLISH}"),
            (_v4_state(version=3), f"state file version 3 is not supported; {_REESTABLISH}"),
            (_v4_state(version=5), f"state file version 5 is not supported; {_REESTABLISH}"),
            (_v4_state(version=True), f"state file version True is not supported; {_REESTABLISH}"),
            (_v4_state(version="4"), f"state file version '4' is not supported; {_REESTABLISH}"),
            # a float equal to 4 is not the integer version
            (_v4_state(version=4.0), f"state file version 4.0 is not supported; {_REESTABLISH}"),
            (_v4_state_without("version"), f"state file has no 'version'; {_REESTABLISH}"),
            (_v4_state(master_seed=None),
             f"state file 'master_seed' must be an integer, not null; {_REESTABLISH}"),
            (_v4_state(master_seed="7"),
             f'state file \'master_seed\' must be an integer, not "7"; {_REESTABLISH}'),
            (_v4_state(master_seed=7.0),
             f"state file 'master_seed' must be an integer, not 7.0; {_REESTABLISH}"),
            (_v4_state(master_seed=True),
             f"state file 'master_seed' must be an integer, not true; {_REESTABLISH}"),
            (_v4_state(master_seed=[7]),
             f"state file 'master_seed' must be an integer, not [7]; {_REESTABLISH}"),
            ('{"version": 4, "topology": {"sensors": []}, "master_seed": 0, "kill_events": []}',
             "state file is missing 'kljn_keys'"),
            ('{"version": 4, "topology": {"sensors": []}, "kljn_keys": [], "kill_events": []}',
             "state file is missing 'master_seed'"),
            (_v4_state_without("kill_events"), "state file is missing 'kill_events'"),
            (_v4_state_without("kljn_keys", "kill_events"),
             "state file is missing 'kljn_keys', 'kill_events'"),
            (_v4_state_without("topology"), "state file is missing 'topology'"),
            # every missing key is named, in the order the file writes them
            (_v4_state_without("topology", "master_seed", "kljn_keys", "kill_events"),
             "state file is missing 'topology', 'master_seed', 'kljn_keys', 'kill_events'"),
            (_v4_state(topology=[]), "topology document must be a JSON object"),
            # wired keys: a list of strings, one per wired link
            (_v4_state(kljn_keys={}), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys="k"), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=None), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=[1]), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=[None]), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=[["k"]]), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=[True]), _KEYS_FOR_ONE_LINK),
            # a version 2 record in place of its key id
            (_v4_state(kljn_keys=[{"pair": ["A", "B"], "channel": "kljn", "key_id": "k",
                                   "established_at": 1, "status": "ok"}]), _KEYS_FOR_ONE_LINK),
            (_v4_state(kljn_keys=[]), _KEYS_FOR_ONE_LINK),  # one key too few
            (_v4_state(kljn_keys=["k", ""]), _KEYS_FOR_ONE_LINK),  # one key too many
            # of three wired links, only the first in sorted order has a key
            (_v4_state(topology={"sensors": ["A", "B", "C"],
                                 "kljn_edges": [["B", "C"], ["A", "C"], ["A", "B"]]}),
             "state file 'kljn_keys' must be a list of strings, one per wired link "
             "(the topology has 3)"),
            # a key for a topology without wired links, and one key for two links
            (_v4_state(topology={"sensors": ["A", "B"], "kljn_edges": []}),
             "state file 'kljn_keys' must be a list of strings, one per wired link "
             "(the topology has 0)"),
            (_v4_state(topology={"sensors": ["A", "B", "C"],
                                 "kljn_edges": [["A", "B"], ["B", "C"]]}),
             "state file 'kljn_keys' must be a list of strings, one per wired link "
             "(the topology has 2)"),
            # kill events
            (_v4_state(kill_events={}), "state file kill events must be a list"),
            (_v4_state(kill_events=None), "state file kill events must be a list"),
            (_v4_state(kill_events=[7]), "state file kill event 0: an event must be an object"),
            (_v4_state(kill_events=[_SET_A, ["A", "set"]]),
             "state file kill event 1: an event must be an object"),
            (_v4_state(kill_events=[{k: v for k, v in _SET_A.items() if k != "sensor"}]),
             "state file kill event 0: missing 'sensor'"),
            (_v4_state(kill_events=[{"note": ""}]),
             "state file kill event 0: missing 'sensor', 'action'"),
            (_v4_state(kill_events=[{k: v for k, v in _SET_A.items() if k != "action"}]),
             "state file kill event 0: missing 'action'"),
            # the first bad event is named by its index
            (_v4_state(kill_events=[_SET_A, {**_SET_A, "action": "clear"},
                                    {**_SET_A, "sensor": "Z"}]),
             "state file kill event 2: 'sensor' 'Z' is not a sensor of the topology"),
            (_state_with_kill(sensor=5),
             "state file kill event 0: 'sensor' 5 is not a sensor of the topology"),
            (_state_with_kill(sensor="Z"),
             "state file kill event 0: 'sensor' 'Z' is not a sensor of the topology"),
            (_state_with_kill(sensor=None),
             "state file kill event 0: 'sensor' None is not a sensor of the topology"),
            # sensor ids are case-sensitive
            (_state_with_kill(sensor="a"),
             "state file kill event 0: 'sensor' 'a' is not a sensor of the topology"),
            (_state_with_kill(action="kill"),
             "state file kill event 0: 'action' must be \"set\" or \"clear\""),
            (_state_with_kill(note=["x"]), "state file kill event 0: 'note' must be a string"),
            (_state_with_kill(note=None), "state file kill event 0: 'note' must be a string"),
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
        state_path.write_text(_v4_state(topology=topology))
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

    @pytest.mark.parametrize("clock,stamps", [
        (1, (99, -5)),  # stamps out of order and above the clock
        # values the version 3 reader refused
        ("0", ("x", "y")), (True, (False, True)), (2.0, (1.0, 2.0)), (None, (None, None)),
    ])
    def test_stray_clock_and_stamps_are_not_read(self, capsys, tmp_path, clock, stamps):
        # version 4 derives the clock and every stamp: one tick per sensor
        # pair (here 1), then one per event, whatever a file adds
        state_path = tmp_path / "state.json"
        events = [{**_SET_A, "timestamp": stamps[0]},
                  {**_SET_A, "action": "clear", "timestamp": stamps[1]}]
        state_path.write_text(_v4_state(clock=clock, kill_events=events))
        assert run_cli(capsys, "kill", str(state_path), "B") == (0, "", "")
        text = state_path.read_text()
        assert '"clock"' not in text and '"timestamp"' not in text
        code, out, _ = run_cli(capsys, "report", str(state_path))
        assert code == 0
        assert [(e["timestamp"], e["sensor"], e["action"]) for e in json.loads(out)["kill_log"]] == [
            (2, "A", "set"), (3, "A", "clear"), (4, "B", "set")]

    def test_concurrent_kills_both_land(self, capsys, tmp_path, monkeypatch):
        # a second kill starts while the first is between its read and its
        # rename: it waits for the lock, finds the file replaced, locks the
        # new one and adds its event to the first one's
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", state]) == 0
        flock, apply = fcntl.flock, cli.apply_kill_event
        second_locks, second_code, threads = [], [], []
        opened = threading.Event()

        def traced_flock(f, operation):
            if threading.current_thread() is not threading.main_thread():
                second_locks.append(os.fstat(f.fileno()).st_ino)
                opened.set()
            flock(f, operation)

        def apply_during_second(key_state, sensor, note=""):
            if threading.current_thread() is threading.main_thread():
                second = threading.Thread(
                    target=lambda: second_code.append(main(["kill", state, "A"])))
                second.start()
                assert opened.wait(30)
                second.join(0.2)
                assert second.is_alive()  # blocked on the lock the first kill holds
                threads.append(second)
            return apply(key_state, sensor, note)

        monkeypatch.setattr(fcntl, "flock", traced_flock)
        monkeypatch.setattr(cli, "apply_kill_event", apply_during_second)
        assert main(["kill", state, "H", "--note", "first"]) == 0
        threads[0].join(30)
        assert not threads[0].is_alive() and second_code == [0]
        # the second kill locked the file it read first, then the one put in its place
        assert len(second_locks) == 2 and second_locks[0] != second_locks[1]
        events = load_state(state).kill.event_log
        assert [(e.sensor, e.note) for e in events] == [("H", "first"), ("A", "")]
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]

    def test_many_concurrent_kills_all_land(self, tmp_path):
        # more kills than cores, switching threads as often as the
        # interpreter allows: every event is kept
        state = str(tmp_path / "state.json")
        assert main(["establish", "fig2", "--bits", "8", "--out", state]) == 0
        sensors, codes = SENSORS[:6], []
        threads = [threading.Thread(target=lambda s=s: codes.append(main(["kill", state, s])))
                   for s in sensors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and codes == [0] * 6
        assert sorted(e.sensor for e in load_state(state).kill.event_log) == sensors

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
            _emit(["b", b"c", "dé", b"e", bytearray(b"g")], None)
        assert text.getvalue() == "bcdéeg"


def _drawn_network(n, draws, seed):
    """``n`` sensors s000, s001, ... and the distinct pairs among ``draws``
    drawn with ``random.Random(seed)``, sorted, as a topology document."""
    r = random.Random(seed)
    sensors = [f"s{k:03d}" for k in range(n)]
    edges = sorted({tuple(sorted(r.sample(sensors, 2))) for _ in range(draws)})
    return {"sensors": sensors, "kljn_edges": edges}


@pytest.fixture(scope="module")
def edge_networks(tmp_path_factory):
    """The networks at the row-block and dtype edges of the matrix writer:
    c300 (five blocks) and c129 (two full blocks and a row) with drawn
    links, n130 with every pair wired but (s000, s001), e0 with no sensor
    and e1 with one, as paths of their topology files."""
    base = tmp_path_factory.mktemp("edges")
    sensors = [f"s{k:03d}" for k in range(130)]
    docs = {
        "c300": _drawn_network(300, 900, seed=1),
        "c129": _drawn_network(129, 400, seed=4),
        "n130": {"sensors": sensors, "kljn_edges": [
            [a, b] for a in sensors for b in sensors if a < b and (a, b) != ("s000", "s001")]},
        "e0": {"sensors": []},
        "e1": {"sensors": ["s000"]},
    }
    for name, doc in docs.items():
        (base / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    return {name: str(base / f"{name}.json") for name in docs}


MATRIX_FORMATS = ((), ("--full-precision",), ("--format", "json"))


class TestMatrixStdoutEqualsOut:
    """``trust-matrix`` and ``report`` write the same bytes to stdout as to
    ``--out``, at the row-block and dtype edges of the matrix writer."""

    @staticmethod
    def _assert_same(capsys, tmp_path, *argv):
        """Both runs of ``argv``, to stdout and with ``--out``, exit 0 with
        nothing on stderr, and write the same non-empty bytes; returns them."""
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        out = tmp_path / "out"
        assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
        written = out.read_bytes()
        assert written and stdout.encode() == written
        return written

    @pytest.mark.parametrize("kill", [(), ("--kill", "s000,s150")], ids=["live", "kill"])
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=["csv", "full", "json"])
    def test_trust_matrix_at_n_300(self, capsys, tmp_path, edge_networks, fmt, kill):
        self._assert_same(capsys, tmp_path, "trust-matrix", edge_networks["c300"], *fmt, *kill)

    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=["csv", "full", "json"])
    def test_trust_matrix_at_n_129(self, capsys, tmp_path, edge_networks, fmt):
        self._assert_same(capsys, tmp_path, "trust-matrix", edge_networks["c129"], *fmt)

    def test_cell_past_the_byte_boundary_is_the_scalar_trust(self, capsys, tmp_path,
                                                              edge_networks):
        # the one non-wired pair, (s000, s001), has 2K + 1 = 257
        topology = edge_networks["n130"]
        text = self._assert_same(capsys, tmp_path, "trust-matrix", topology, "--full-precision")
        code, scalar, _ = run_cli(capsys, "trust", topology, "s000", "s001", "--full-precision")
        assert code == 0
        assert text.decode().splitlines()[1].split(",")[2] == scalar.rstrip("\n")

    @pytest.mark.parametrize("kill", [(), ("--kill",)], ids=["live", "kill"])
    @pytest.mark.parametrize("fmt", MATRIX_FORMATS, ids=["csv", "full", "json"])
    @pytest.mark.parametrize("name, killed", [("e0", ","), ("e1", "s000")])
    def test_trust_matrix_at_n_0_and_1(self, capsys, tmp_path, edge_networks, name, killed,
                                       fmt, kill):
        # an empty --kill list at n = 0, the one sensor killed at n = 1
        kill = (*kill, killed) if kill else ()
        self._assert_same(capsys, tmp_path, "trust-matrix", edge_networks[name], *fmt, *kill)

    @pytest.mark.parametrize("name, seed", [("c129", "5"), ("e1", "5")])
    def test_report_and_its_csv(self, capsys, tmp_path, edge_networks, name, seed):
        state = str(tmp_path / "state.json")
        assert main(["establish", edge_networks[name], "--seed", seed, "--bits", "8",
                     "--out", state]) == 0
        code, stdout, err = run_cli(capsys, "report", state, "--csv", str(tmp_path / "stdout.csv"))
        assert (code, err) == (0, "")
        assert run_cli(capsys, "report", state, "--csv", str(tmp_path / "out.csv"),
                       "--out", str(tmp_path / "report.json")) == (0, "", "")
        written = (tmp_path / "report.json").read_bytes()
        assert written and stdout.encode() == written
        assert (tmp_path / "stdout.csv").read_bytes() == (tmp_path / "out.csv").read_bytes()

    def test_report_at_n_300(self, capsys, tmp_path, edge_networks):
        # the matrix of five 64-row blocks goes to stdout as bytes
        state = str(tmp_path / "state.json")
        assert main(["establish", edge_networks["c300"], "--seed", "3", "--bits", "8",
                     "--out", state]) == 0
        self._assert_same(capsys, tmp_path, "report", state)


class TestMatrixWritersOnStdout:
    """The console checks of the matrix writers on stdout, on fig2 and on
    ids that CSV must quote, run through ``main``."""

    def test_fig2_report_on_stdout_is_its_out_file(self, capsys, tmp_path, monkeypatch):
        # fig2 established with seed 42, H killed: the streamed report is the
        # same on stdout as in --out, and is JSON; with --full-precision and
        # --csv, both the report and the CSV are written
        monkeypatch.chdir(tmp_path)
        assert main(["establish", "fig2", "--seed", "42", "--out", "state.json"]) == 0
        assert main(["kill", "state.json", "H", "--note", "ci"]) == 0
        assert run_cli(capsys, "report", "state.json", "--out", "report.json",
                       "--csv", "matrix.csv") == (0, "", "")
        report = Path("report.json").read_bytes()
        assert report and Path("matrix.csv").stat().st_size
        code, stdout, err = run_cli(capsys, "report", "state.json")
        assert (code, err) == (0, "") and stdout.encode() == report
        json.loads(report)
        code, stdout, err = run_cli(capsys, "report", "state.json", "--full-precision",
                                    "--csv", "m2.csv")
        assert (code, err) == (0, "") and stdout and Path("m2.csv").stat().st_size

    def test_fig2_trust_matrix_on_stdout(self, capsys, tmp_path, monkeypatch):
        # the JSON matrix, and the full-precision CSV with H killed
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(capsys, "trust-matrix", "fig2", "--format", "json")
        assert (code, err) == (0, "") and stdout
        assert json.loads(stdout)["order"] == list(SENSORS)
        code, stdout, err = run_cli(capsys, "trust-matrix", "fig2", "--full-precision",
                                    "--kill", "H")
        assert (code, err) == (0, "") and stdout

    def test_odd_ids_are_quoted_on_stdout(self, capsys, tmp_path):
        # ids holding a comma or a carriage return: csv.reader reads the
        # matrix and the ranking back whole
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"sensors": ["a,b", "c\rd", "e"],
                                   "kljn_edges": [["a,b", "c\rd"]]}), encoding="utf-8")
        code, stdout, err = run_cli(capsys, "trust-matrix", str(odd))
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(stdout, newline="")))
        assert rows[0] == ["sensor", "a,b", "c\rd", "e"] and [len(r) for r in rows] == [4] * 4
        code, stdout, err = run_cli(capsys, "rank", str(odd), "e")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(stdout, newline="")))
        assert sorted(r[0] for r in rows) == ["a,b", "c\rd"] and [len(r) for r in rows] == [2] * 2


class TestConsoleChecks:
    """Console checks of the command line that no other test here makes,
    run through ``main`` with their inputs and assertions."""

    def test_outputs_go_to_their_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (("simulate-kljn", "--bits", "16", "--out", "session.json"),
                     ("coefficients", "--check", "1e-10", "--out", "coefficients.txt")):
            assert run_cli(capsys, *argv) == (0, "", "")
            assert Path(argv[-1]).stat().st_size

    def test_kill_flag_on_fig2(self, capsys, tmp_path, monkeypatch):
        # --kill zeroes a peer, skips blank names and reports the first unknown name
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "trust", "fig2", "A", "H", "--kill", "H") == (0, "0.000\n", "")
        code, out, err = run_cli(capsys, "rank", "fig2", "A", "--kill", "H, ,C")
        assert (code, err) == (0, "") and out.splitlines()[-1] == "H,0.000"
        assert run_cli(capsys, "trust-matrix", "fig2", "--kill", "Q,R") == (
            1, "", "error: --kill names unknown sensor 'Q'\n")

    def test_edge_checks_at_n_1000(self, capsys, tmp_path):
        # 1000 sensors with repeated and reversed links pass the checks; a
        # self-loop as the last edge is named
        r = random.Random(2)
        s = [f"s{k:04d}" for k in range(1000)]
        e = [r.sample(s, 2) for _ in range(3000)]
        e += [list(p) for p in e[:500]] + [p[::-1] for p in e[500:1000]]
        n = len({frozenset(p) for p in e})
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"sensors": s, "kljn_edges": e}))
        assert run_cli(capsys, "validate", str(big)) == (
            0, f"ok: 1000 sensors, {n} KLJN edges\n", "")
        e.append(["s0007", "s0007"])
        big.write_text(json.dumps({"sensors": s, "kljn_edges": e}))
        assert run_cli(capsys, "validate", str(big)) == (
            1, "", "error: KLJN edge ['s0007', 's0007'] is a self-loop\n")

    def test_clean_explicit_sets_at_n_200(self, capsys, tmp_path):
        # 30% reach and symmetric sets: no fault and no warning
        r = random.Random(3)
        s = [f"s{k:03d}" for k in range(200)]
        e = {tuple(sorted(r.sample(s, 2))) for _ in range(40)}
        w = {a: [] for a in s}
        for a in s:
            for b in s:
                if a < b and (a, b) not in e and r.random() < 0.3:
                    w[a].append(b)
                    w[b].append(a)
        path = tmp_path / "sets200.json"
        path.write_text(json.dumps({"sensors": s, "kljn_edges": sorted(e), "wireless_sets": w}))
        assert run_cli(capsys, "validate", str(path)) == (0, "ok: 200 sensors, 40 KLJN edges\n", "")

    def test_unsorted_odd_ids_give_sorted_records(self, capsys, tmp_path, monkeypatch):
        # six sensors with ids JSON escapes, listed unsorted, one wired link and
        # one killed sensor: every record is derived in sorted pair order
        monkeypatch.chdir(tmp_path)
        listed = ["\u00e9", "s001", 'q"1', "\u2603snow", "back\\slash", "s000"]
        Path("odd6.json").write_text(json.dumps({"sensors": listed,
                                                 "kljn_edges": [["\u2603snow", 'q"1']]}))
        assert main(["establish", "odd6.json", "--seed", "7", "--bits", "8",
                     "--out", "odd6_state.json"]) == 0
        assert main(["kill", "odd6_state.json", "\u00e9"]) == 0
        code, stdout, err = run_cli(capsys, "report", "odd6_state.json")
        assert run_cli(capsys, "report", "odd6_state.json", "--out", "odd6_report.json") == (
            0, "", "")
        assert (code, err) == (0, "") and stdout.encode() == Path("odd6_report.json").read_bytes()
        report = json.loads(stdout)
        r = report["records"]
        assert [x["established_at"] for x in r] == list(range(1, 16)), r
        assert [x["pair"] for x in r if x["channel"] == "kljn"] == [['q"1', "\u2603snow"]], r
        assert all(x["key_id"] == hashlib.sha256(json.dumps([7, *x["pair"], "wireless"]).encode())
                   .hexdigest()[:16] for x in r if x["channel"] == "wireless"), r
        revoked = [x["pair"] for x in r if x["status"] == "revoked"]
        assert revoked == [x["pair"] for x in r if "\u00e9" in x["pair"]] != [], r
        ids = sorted(listed)
        assert report["sensors"] == report["matrix"]["order"] == list(report["rankings"]) == ids
        assert [x["pair"] for x in r] == [[a, b] for k, a in enumerate(ids) for b in ids[k + 1:]]


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
        path.write_text(_v4_state(kljn_keys=[], topology={"sensors": sensors, "kljn_edges": []}))
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
