"""The derived state against an eager oracle.

The oracle is the earlier state model, kept here as it was: one stored
record per sensor pair, and a kill that revokes every record of the sensor.
The state under test stores only each wired link's key id and the kill
events, and derives the rest; every view of it, and of the state its file
loads to, must equal the oracle's records.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from kextrust.kljn import (
    BudgetExhaustedError,
    KljnSessionConfig,
    WireSubstitutionAttacker,
    run_key_exchange,
)
from kextrust.orchestrator import (
    KeyRecord,
    KillEvent,
    apply_kill_event,
    establish_network_keys,
    state_from_json,
    state_to_json,
)
from kextrust.topology import Topology
from reference_data import random_topology, with_explicit_wireless_sets

KEY_BITS = 8


# --- the oracle: eager establishment and kills


def _oracle_derive_seed(master_seed, *parts):
    material = json.dumps([master_seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _oracle_fingerprint(material):
    return hashlib.sha256(material.encode()).hexdigest()[:16]


@dataclass
class EagerKillLog:
    """The kill log with its killed set stored next to it, updated per event."""

    killed: set = field(default_factory=set)
    event_log: list = field(default_factory=list)

    def kill(self, sensor, timestamp, note=""):
        self.killed.add(sensor)
        self.event_log.append(KillEvent(timestamp, sensor, "set", note))

    def clear(self, sensor, timestamp, note=""):
        self.killed.discard(sensor)
        self.event_log.append(KillEvent(timestamp, sensor, "clear", note))


@dataclass
class EagerState:
    topology: Topology
    records: dict
    kill: EagerKillLog = field(default_factory=EagerKillLog)
    clock: int = 0


def eager_establish(t, master_seed, target_bits, attackers):
    state = EagerState(t, {})
    ordered = sorted(t.sensors)
    pairs = [(a, b) for idx, a in enumerate(ordered) for b in ordered[idx + 1:]]
    for a, b in pairs:
        state.clock += 1
        if (a, b) in t.kljn_edges:
            cfg = KljnSessionConfig(seed=_oracle_derive_seed(master_seed, a, b))
            try:
                result = run_key_exchange(cfg, target_bits, attacker=attackers.get((a, b)))
            except BudgetExhaustedError:
                result = None
            if result is None or result.attack_detected:
                record = KeyRecord((a, b), "kljn", "", state.clock, "failed")
            else:
                record = KeyRecord((a, b), "kljn", _oracle_fingerprint(f"kljn|{result.key_bits}"),
                                   state.clock, "ok")
        else:
            token = _oracle_fingerprint(json.dumps([master_seed, a, b, "wireless"]))
            record = KeyRecord((a, b), "wireless", token, state.clock, "ok")
        state.records[(a, b)] = record
    return state


def eager_kill(state, sensor, note=""):
    state.clock += 1
    state.kill.kill(sensor, note=note, timestamp=state.clock)
    for record in state.records.values():
        if sensor in record.pair and record.status != "revoked":
            record.status = "revoked"


# --- comparison


def _row(r):
    return (r.pair, r.channel, r.key_id, r.established_at, r.status)


def assert_same_records(state, oracle):
    expected = [_row(r) for _, r in sorted(oracle.records.items())]
    assert [_row(r) for r in state.records_sorted()] == expected
    assert [_row(r) for r in state.records.values()] == expected
    assert len(state.records) == len(expected)
    assert list(state.records) == [row[0] for row in expected]
    for pair, record in oracle.records.items():
        assert _row(state.records[pair]) == _row(record)
    assert state.kill.killed == oracle.kill.killed
    assert state.kill.event_log == oracle.kill.event_log
    assert state.clock == oracle.clock


def assert_file_loads_to_oracle(state, oracle):
    """The state's own file loads to the oracle's records, and writes back
    the same bytes."""
    text = state_to_json(state)
    loaded = state_from_json(text)
    assert_same_records(loaded, oracle)
    assert state_to_json(loaded) == text


def _attackers(t, rng):
    """Fresh attackers on about a third of the wired edges (sessions that fail)."""
    edges = sorted(t.kljn_edges)
    picks = [e for e in edges if rng.random() < 0.35]
    return {e: WireSubstitutionAttacker(start_period=0, seed=k) for k, e in enumerate(picks)}


# ids that JSON escapes; two sort before the ``s…`` ids and two after
ODD_IDS = ("\u00e9", 'q"1', "back\\slash", "\u2603snow")


def _odd_id_topology(rng):
    """A random topology with explicit wireless sets whose first ids are
    ``ODD_IDS``, listed in an order that is not sorted order: ``"é"``
    first, the rest shuffled.  Returns the topology and that order."""
    t = random_topology(rng, int(rng.integers(6, 14)), edge_prob=0.25)
    names = dict(zip(t.sensors, [*ODD_IDS, *t.sensors[len(ODD_IDS):]]))
    order = [names[s] for s in t.sensors]
    order[1:] = rng.permutation(order[1:]).tolist()
    edges = frozenset(tuple(sorted((names[a], names[b]))) for a, b in t.kljn_edges)
    return with_explicit_wireless_sets(Topology(tuple(order), edges), rng, 0.5), order


@pytest.mark.parametrize("network", ["complement", "explicit", "odd-ids"])
@pytest.mark.parametrize("seed", [3, 17, 29, 41])
def test_derived_state_equals_eager_oracle(seed, network):
    rng = np.random.default_rng(seed)
    if network == "odd-ids":
        t, order = _odd_id_topology(rng)
        assert order != sorted(order) and list(t.sensors) == sorted(order)
    else:
        t = random_topology(rng, int(rng.integers(6, 14)), edge_prob=0.25)
    if network == "explicit":
        t = with_explicit_wireless_sets(t, rng, 0.5)
    master_seed = int(rng.integers(0, 2**31))
    attack_rng = np.random.default_rng(seed + 1000)
    state = establish_network_keys(t, master_seed, KEY_BITS,
                                   attackers=_attackers(t, attack_rng))
    attack_rng = np.random.default_rng(seed + 1000)
    oracle = eager_establish(t, master_seed, KEY_BITS, _attackers(t, attack_rng))
    assert any(r.status == "failed" for r in oracle.records.values())
    assert_same_records(state, oracle)
    assert_file_loads_to_oracle(state, oracle)

    first, second = t.sensors[int(rng.integers(len(t.sensors)))], t.sensors[0]
    steps = [("kill", first), ("kill", second), ("kill", first),  # a repeated kill
             ("clear", second), ("kill", t.sensors[-1])]
    for action, sensor in steps:
        for s, kill in ((state, apply_kill_event), (oracle, eager_kill)):
            if action == "kill":
                kill(s, sensor, note=f"alarm {sensor}")
            else:
                s.kill.clear(sensor, note="false alarm", timestamp=s.clock)
        assert_same_records(state, oracle)
        assert_file_loads_to_oracle(state, oracle)


def test_cleared_sensor_keeps_revoked_records():
    t = Topology(("A", "B", "C"), frozenset({("A", "B")}))
    state = establish_network_keys(t, master_seed=5, target_bits=KEY_BITS)
    apply_kill_event(state, "B")
    state.kill.clear("B", timestamp=state.clock)
    assert state.kill.killed == set()
    assert [(r.pair, r.status) for r in state.records_sorted()] == [
        (("A", "B"), "revoked"), (("A", "C"), "ok"), (("B", "C"), "revoked")]


def test_records_view_is_read_only_and_keyed_by_canonical_pairs():
    t = Topology(("A", "B", "C"), frozenset({("A", "B")}))
    state = establish_network_keys(t, master_seed=5, target_bits=KEY_BITS)
    assert ("B", "A") not in state.records and ("A", "A") not in state.records
    assert ("A", "Z") not in state.records
    assert ("A", "C") in state.records
    with pytest.raises(TypeError):
        state.records[("A", "C")] = None
    assert len(state.kljn_keys) == 1  # one key per wired link; wireless keys are never stored
