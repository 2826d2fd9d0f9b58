import json
import os
import stat

import numpy as np
import pytest

from kextrust.cli import report_json_chunks
from kextrust.kljn import KljnSessionConfig, WireSubstitutionAttacker, run_key_exchange
from kextrust.orchestrator import (
    CHANNEL_KLJN,
    CHANNEL_WIRELESS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REVOKED,
    KillSwitchState,
    _derive_seed,
    _fingerprint,
    apply_kill_event,
    establish_network_keys,
    load_state,
    state_to_json,
    trust_report,
    write_files,
)
from kextrust.topology import Topology, UnknownSensorError
from kextrust.trust import coefficients_closed_form
from reference_data import EXPECTED_TRUST, SENSORS, expected_tolerance, joined_chunks

COEF = coefficients_closed_form()
KEY_BITS = 32  # short sessions keep the wired exchanges quick


@pytest.fixture(scope="module")
def fig2_state(fig2):
    return establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)


def _wired_key_bits(state, a, b):
    """The key bits of wired pair (a, b), from a re-run of its session."""
    cfg = KljnSessionConfig(seed=_derive_seed(state.master_seed, a, b))
    return run_key_exchange(cfg, KEY_BITS).key_bits


class TestEstablish:
    def test_record_partition(self, fig2_state):
        records = list(fig2_state.records.values())
        assert len(records) == 45  # C(10, 2)
        assert sum(r.channel == CHANNEL_KLJN for r in records) == 6
        assert sum(r.channel == CHANNEL_WIRELESS for r in records) == 39

    def test_channel_agrees_with_topology(self, fig2, fig2_state):
        for pair, record in fig2_state.records.items():
            expected = CHANNEL_KLJN if pair in fig2.kljn_edges else CHANNEL_WIRELESS
            assert record.channel == expected

    def test_all_records_ok_with_key_material(self, fig2_state):
        for record in fig2_state.records.values():
            assert record.status == STATUS_OK
            assert len(record.key_id) == 16
            if record.channel == CHANNEL_KLJN:
                assert len(_wired_key_bits(fig2_state, *record.pair)) == KEY_BITS

    def test_logical_timestamps_are_dense(self, fig2_state):
        stamps = sorted(r.established_at for r in fig2_state.records.values())
        assert stamps == list(range(1, 46))
        assert fig2_state.clock == 45

    def test_deterministic_state_bytes(self, fig2, fig2_state):
        again = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        assert state_to_json(again) == state_to_json(fig2_state)
        other = establish_network_keys(fig2, master_seed=43, target_bits=KEY_BITS)
        assert state_to_json(other) != state_to_json(fig2_state)

    def test_distinct_edges_get_distinct_keys(self, fig2_state):
        kljn_keys = [
            r.key_id for r in fig2_state.records.values() if r.channel == CHANNEL_KLJN
        ]
        assert len(kljn_keys) == 6
        assert len(set(kljn_keys)) == len(kljn_keys)

    def test_attacked_edge_fails_in_isolation(self, fig2):
        attackers = {("F", "G"): WireSubstitutionAttacker(seed=9)}
        state = establish_network_keys(
            fig2, master_seed=42, target_bits=KEY_BITS, attackers=attackers
        )
        assert state.records[("F", "G")].status == STATUS_FAILED
        assert state.records[("F", "G")].key_id == ""
        with pytest.raises(KeyError):
            state.records[("G", "F")]  # only the canonical pair is a key
        others = [r for r in state.records.values() if r.pair != ("F", "G")]
        assert all(r.status == STATUS_OK for r in others)

    def test_single_sensor_network(self):
        state = establish_network_keys(Topology(("A",), frozenset()), master_seed=1)
        assert state.records == {}
        matrix, rankings = trust_report(state, COEF)
        assert list(state.records_sorted()) == []
        assert matrix.values.tolist() == [[1.0]]
        assert rankings == {"A": []}

    @pytest.mark.parametrize("master_seed", [None, True, 4.0, "4", np.int64(4)])
    def test_master_seed_must_be_an_int(self, master_seed):
        t = Topology(("A", "B", "C"), frozenset({("A", "B")}))
        with pytest.raises(ValueError, match="master seed must be an int"):
            establish_network_keys(t, master_seed=master_seed)

    @pytest.mark.parametrize("target_bits", [0, -3, True, False, 8.0, "8", None, np.int64(8)])
    @pytest.mark.parametrize("wired", [False, True])
    def test_target_bits_must_be_a_positive_int(self, fig2, target_bits, wired):
        # refused whether or not the network has a wired link to run a session on
        t = fig2 if wired else Topology(("A",), frozenset())
        with pytest.raises(ValueError, match="target_bits must be an int of at least 1"):
            establish_network_keys(t, master_seed=1, target_bits=target_bits)


class TestKillSwitchState:
    def test_killed_replays_the_log(self):
        ks = KillSwitchState()
        assert ks.killed == frozenset()
        ks.kill("A", note="tamper alert")
        ks.kill("B")
        ks.kill("A")
        assert ks.killed == {"A", "B"}
        ks.clear("A", note="false alarm")
        assert ks.killed == {"B"}
        assert [e.action for e in ks.event_log] == ["set", "set", "set", "clear"]
        assert [e.sensor for e in ks.event_log] == ["A", "B", "A", "A"]
        assert ks.event_log[0].note == "tamper alert"

    def test_killed_follows_an_edited_log(self):
        ks = KillSwitchState()
        ks.kill("A")
        ks.event_log.pop()
        assert ks.killed == frozenset()


class TestKillEvents:
    def test_kill_revokes_incident_records(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H", note="tamper alarm")
        revoked = [r for r in state.records.values() if r.status == STATUS_REVOKED]
        assert len(revoked) == 9
        assert all("H" in r.pair for r in revoked)
        assert state.kill.killed == {"H"}
        assert state.kill.event_log[-1].note == "tamper alarm"
        assert list(state.kill_log()) == [(46, state.kill.event_log[-1])]
        assert state.clock == 46

    def test_clock_and_stamps_are_derived(self, fig2):
        # C(10, 2) = 45 ticks for the pairs, then one per event, a clear included
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        assert state.clock == 45 and list(state.kill_log()) == []
        apply_kill_event(state, "H")
        apply_kill_event(state, "A", note="second alarm")
        state.kill.clear("A", note="false alarm")
        assert state.clock == 48
        assert [(stamp, e.sensor, e.action) for stamp, e in state.kill_log()] == [
            (46, "H", "set"), (47, "A", "set"), (48, "A", "clear")]
        text = state_to_json(state)
        assert '"clock"' not in text and '"timestamp"' not in text
        with pytest.raises(AttributeError):
            state.clock = 1

    def test_kill_is_idempotent_but_logged(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H")
        snapshot = [(r.pair, r.status) for r in state.records_sorted()]
        apply_kill_event(state, "H")
        assert [(r.pair, r.status) for r in state.records_sorted()] == snapshot
        assert len(state.kill.event_log) == 2

    def test_kill_unknown_sensor(self, fig2):
        # refused before anything changes: no clock tick, no log entry
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H")
        clock, events, text = state.clock, list(state.kill.event_log), state_to_json(state)
        with pytest.raises(UnknownSensorError):
            apply_kill_event(state, "Q")
        assert state.clock == clock
        assert state.kill.event_log == events
        assert state_to_json(state) == text

    def test_kill_never_increases_trust(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        before, _ = trust_report(state, COEF)
        apply_kill_event(state, "D")
        after, _ = trust_report(state, COEF)
        assert np.all(after.values <= before.values)


class TestReport:
    def test_fresh_report_matches_published_matrix(self, fig2_state):
        matrix, _ = trust_report(fig2_state, COEF)
        assert matrix.order == SENSORS
        for i_pos, i in enumerate(SENSORS):
            for j_pos, j in enumerate(SENSORS):
                value = matrix.values[i_pos, j_pos]
                assert value == pytest.approx(
                    EXPECTED_TRUST[i][j_pos], abs=expected_tolerance(i, j)
                )

    def test_report_after_kill_zeroes_column(self, fig2):
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H")
        matrix, rankings = trust_report(state, COEF)
        h = SENSORS.index("H")
        assert np.all(matrix.values[:, h] == 0.0)
        report = json.loads(joined_chunks(report_json_chunks(state, COEF, matrix, rankings)))
        assert report["killed"] == ["H"]
        assert report["kill_log"][0]["sensor"] == "H"
        for i in SENSORS:
            assert all(j != "H" or v == 0.0 for j, v in rankings[i])

    def test_rankings_sorted_descending(self, fig2_state):
        _, rankings = trust_report(fig2_state, COEF)
        for ranking in rankings.values():
            values = [v for _, v in ranking]
            assert values == sorted(values, reverse=True)


class TestPersistence:
    def test_round_trip_preserves_bytes(self, fig2, tmp_path):
        state = establish_network_keys(fig2, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "B", note="drill")
        apply_kill_event(state, "C")
        state.kill.clear("C", note="false alarm")
        path = tmp_path / "state.json"
        write_files([(path, (state_to_json(state),))])
        loaded = load_state(path)
        assert state_to_json(loaded) == state_to_json(state)
        assert loaded.kill.killed == {"B"}
        assert [e.action for e in loaded.kill.event_log] == ["set", "set", "clear"]
        assert loaded.clock == state.clock

    @pytest.mark.parametrize("written", [("partly written",), (b"partly", " written"),
                                         ("partly", b" written")])
    def test_failing_chunks_leave_every_file_whole(self, tmp_path, written):
        earlier = tmp_path / "earlier.json"
        earlier.write_text("earlier\n")

        def chunks():
            yield from written
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            write_files([(tmp_path / "first.txt", (b"whole", "\n")), (earlier, chunks())])
        assert earlier.read_bytes() == b"earlier\n"
        assert [p.name for p in tmp_path.iterdir()] == ["earlier.json"]  # no .partial

    def test_writers_never_share_a_temporary_file(self, tmp_path):
        # a second writer of the same path runs to the end while the first is
        # part way through its chunks: each writes through a file of its own
        path, seen = tmp_path / "out.txt", []

        def second():
            seen.extend(p.name for p in tmp_path.iterdir())
            yield "second\n"

        def first():
            yield "first, "
            write_files([(path, second())])
            assert path.read_text() == "second\n"
            yield "whole\n"

        write_files([(path, first())])
        assert path.read_text() == "first, whole\n"
        assert list(tmp_path.iterdir()) == [path]
        assert len(set(seen)) == 2
        assert all(name.startswith(".out.txt.") and name.endswith(".partial") for name in seen)

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
    def test_output_mode_is_that_of_a_new_file(self, tmp_path, umask):
        # 0o666 less the umask, as open(path, "w") creates a file, whatever
        # the mode of the file replaced
        new, replaced = tmp_path / "new.txt", tmp_path / "replaced.txt"
        replaced.write_text("earlier\n")
        replaced.chmod(0o600)
        old = os.umask(umask)
        try:
            write_files([(new, ("new\n",)), (replaced, (b"replaced\n",))])
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(old)
        want = 0o666 & ~umask
        assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == want
        assert stat.S_IMODE(new.stat().st_mode) == want
        assert stat.S_IMODE(replaced.stat().st_mode) == want

    def test_key_material_not_persisted(self, fig2_state):
        text = state_to_json(fig2_state)
        matrix, rankings = trust_report(fig2_state, COEF)
        report = joined_chunks(report_json_chunks(fig2_state, COEF, matrix, rankings)).decode()
        for a, b in sorted(fig2_state.topology.kljn_edges):
            key_bits = _wired_key_bits(fig2_state, a, b)
            assert key_bits not in text
            assert key_bits not in report
            assert fig2_state.records[(a, b)].key_id == _fingerprint("kljn|" + key_bits)
