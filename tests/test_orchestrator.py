import numpy as np
import pytest

from kextrust.kljn import KljnSessionConfig, WireSubstitutionAttacker
from kextrust.orchestrator import (
    CHANNEL_KLJN,
    CHANNEL_WIRELESS,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_REVOKED,
    KillSwitchState,
    apply_kill_event,
    establish_network_keys,
    load_state,
    save_state,
    state_from_json,
    state_to_json,
    trust_report,
)
from kextrust.topology import Topology, UnknownSensorError
from kextrust.trust import coefficients_closed_form
from reference_data import EXPECTED_TRUST, SENSORS, expected_tolerance

CFG = KljnSessionConfig()
COEF = coefficients_closed_form()
KEY_BITS = 32  # short sessions keep the wired exchanges quick


@pytest.fixture(scope="module")
def fig2_state(fig2):
    return establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)


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
            assert record.key_id
            if record.channel == CHANNEL_KLJN:
                assert record.key_bits is not None
                assert len(record.key_bits) == KEY_BITS
            else:
                assert record.key_bits is None

    def test_logical_timestamps_are_dense(self, fig2_state):
        stamps = sorted(r.established_at for r in fig2_state.records.values())
        assert stamps == list(range(1, 46))
        assert fig2_state.clock == 45

    def test_deterministic_state_bytes(self, fig2, fig2_state):
        again = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        assert state_to_json(again) == state_to_json(fig2_state)
        other = establish_network_keys(fig2, CFG, master_seed=43, target_bits=KEY_BITS)
        assert state_to_json(other) != state_to_json(fig2_state)

    def test_distinct_edges_get_distinct_keys(self, fig2_state):
        kljn_keys = [
            r.key_bits for r in fig2_state.records.values() if r.channel == CHANNEL_KLJN
        ]
        assert len(set(kljn_keys)) == len(kljn_keys)

    def test_attacked_edge_fails_in_isolation(self, fig2):
        attackers = {("F", "G"): WireSubstitutionAttacker(seed=9)}
        state = establish_network_keys(
            fig2, CFG, master_seed=42, target_bits=KEY_BITS, attackers=attackers
        )
        assert state.record_for("F", "G").status == STATUS_FAILED
        assert state.record_for("F", "G").key_id == ""
        others = [r for r in state.records.values() if r.pair != ("F", "G")]
        assert all(r.status == STATUS_OK for r in others)

    def test_single_sensor_network(self):
        state = establish_network_keys(Topology(("A",), frozenset()), CFG, master_seed=1)
        assert state.records == {}
        report = trust_report(state, COEF)
        assert report["records"] == []
        assert report["matrix"]["values"] == [[1.0]]

    @pytest.mark.parametrize("master_seed", [None, True, 4.0, "4", np.int64(4)])
    def test_master_seed_must_be_an_int(self, master_seed):
        t = Topology(("A", "B", "C"), frozenset({("A", "B")}))
        with pytest.raises(ValueError, match="master seed must be an int"):
            establish_network_keys(t, CFG, master_seed=master_seed)


class TestKillSwitchState:
    def test_killed_replays_the_log(self):
        ks = KillSwitchState()
        assert ks.killed == frozenset()
        ks.kill("A", 1, note="tamper alert")
        ks.kill("B", 2)
        ks.kill("A", 3)
        assert ks.killed == {"A", "B"}
        ks.clear("A", 4, note="false alarm")
        assert ks.killed == {"B"}
        assert [e.action for e in ks.event_log] == ["set", "set", "set", "clear"]
        assert [e.timestamp for e in ks.event_log] == [1, 2, 3, 4]
        assert ks.event_log[0].note == "tamper alert"

    def test_killed_follows_an_edited_log(self):
        ks = KillSwitchState()
        ks.kill("A", 1)
        ks.event_log.pop()
        assert ks.killed == frozenset()


class TestKillEvents:
    def test_kill_revokes_incident_records(self, fig2):
        state = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H", note="tamper alarm")
        revoked = [r for r in state.records.values() if r.status == STATUS_REVOKED]
        assert len(revoked) == 9
        assert all("H" in r.pair for r in revoked)
        assert state.kill.killed == {"H"}
        assert state.kill.event_log[-1].note == "tamper alarm"
        assert state.kill.event_log[-1].timestamp == 46

    def test_kill_is_idempotent_but_logged(self, fig2):
        state = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H")
        snapshot = [(r.pair, r.status) for r in state.records_sorted()]
        apply_kill_event(state, "H")
        assert [(r.pair, r.status) for r in state.records_sorted()] == snapshot
        assert len(state.kill.event_log) == 2

    def test_kill_unknown_sensor(self, fig2_state):
        with pytest.raises(UnknownSensorError):
            apply_kill_event(fig2_state, "Q")

    def test_kill_never_increases_trust(self, fig2):
        state = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        before = np.array(trust_report(state, COEF)["matrix"]["values"])
        apply_kill_event(state, "D")
        after = np.array(trust_report(state, COEF)["matrix"]["values"])
        assert np.all(after <= before)


class TestReport:
    def test_fresh_report_matches_published_matrix(self, fig2_state):
        report = trust_report(fig2_state, COEF)
        assert report["matrix"]["order"] == SENSORS
        for i_pos, i in enumerate(SENSORS):
            for j_pos, j in enumerate(SENSORS):
                value = report["matrix"]["values"][i_pos][j_pos]
                assert value == pytest.approx(
                    EXPECTED_TRUST[i][j_pos], abs=expected_tolerance(i, j)
                )

    def test_report_after_kill_zeroes_column(self, fig2):
        state = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "H")
        report = trust_report(state, COEF)
        values = np.array(report["matrix"]["values"])
        h = SENSORS.index("H")
        assert np.all(values[:, h] == 0.0)
        assert report["killed"] == ["H"]
        assert report["kill_log"][0]["sensor"] == "H"
        for i in SENSORS:
            assert all(j != "H" or v == 0.0 for j, v in report["rankings"][i])

    def test_rankings_sorted_descending(self, fig2_state):
        report = trust_report(fig2_state, COEF)
        for ranking in report["rankings"].values():
            values = [v for _, v in ranking]
            assert values == sorted(values, reverse=True)


class TestPersistence:
    def test_round_trip_preserves_bytes(self, fig2, tmp_path):
        state = establish_network_keys(fig2, CFG, master_seed=42, target_bits=KEY_BITS)
        apply_kill_event(state, "B", note="drill")
        apply_kill_event(state, "C")
        state.kill.clear("C", note="false alarm", timestamp=state.clock)
        path = tmp_path / "state.json"
        save_state(state, path)
        loaded = load_state(path)
        assert state_to_json(loaded) == state_to_json(state)
        assert loaded.kill.killed == {"B"}
        assert [e.action for e in loaded.kill.event_log] == ["set", "set", "clear"]
        assert loaded.clock == state.clock

    def test_key_material_not_persisted(self, fig2_state):
        text = state_to_json(fig2_state)
        for record in fig2_state.records.values():
            if record.key_bits:
                assert record.key_bits not in text
        loaded = state_from_json(text)
        assert all(r.key_bits is None for r in loaded.records.values())
