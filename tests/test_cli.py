import json

import numpy as np
import pytest

from kextrust import orchestrator
from kextrust.cli import main, matrix_to_json
from kextrust.orchestrator import load_state
from kextrust.topology import bundled_topology_path
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

    def test_matrix_kill_unknown(self, capsys, fig2_file):
        code, _, err = run_cli(capsys, "trust-matrix", fig2_file, "--kill", "Q")
        assert code == 1
        assert "unknown sensor" in err

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

    @pytest.mark.parametrize("order", [[], ["A"], ["A", "B\u00e9"]])
    def test_matrix_to_json_small_shapes(self, order):
        values = np.linspace(0.0, 1.0, len(order) ** 2).reshape(len(order), len(order))
        doc = {"order": order, "values": values.tolist()}
        assert matrix_to_json(order, values) == json.dumps(doc, indent=2) + "\n"

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
