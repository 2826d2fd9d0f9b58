"""Network-wide key establishment and operator state keeping.

Wired pairs were authenticated against each other before deployment, so
their key exchange runs directly over the simulated wire protocol; every
other pair gets an abstract wireless exchange record (the wireless
handshake is conditionally-secure commodity and contributes nothing to
the trust math beyond its classification).  The resulting state tracks
one record per unordered sensor pair, the operator kill switch, and a
logical clock so repeated runs with the same master seed serialize to
identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _json_str
from operator import attrgetter

from .kljn import BudgetExhaustedError, KljnSessionConfig, run_key_exchange
from .topology import SensorId, Topology, UnknownSensorError, parse_topology, topology_to_doc
from .trust import (
    KillEvent,
    KillSwitchState,
    TrustCoefficients,
    rank_peers,
    trust_matrix,
)

CHANNEL_KLJN = "kljn"
CHANNEL_WIRELESS = "wireless"

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_REVOKED = "revoked"


@dataclass
class KeyRecord:
    pair: tuple[SensorId, SensorId]  # canonical: pair[0] < pair[1]
    channel: str
    key_id: str
    established_at: int
    status: str
    key_bits: str | None = None  # in-memory only, never serialized


@dataclass
class NetworkKeyState:
    topology: Topology
    records: dict[tuple[SensorId, SensorId], KeyRecord]
    kill: KillSwitchState
    clock: int

    def record_for(self, a: SensorId, b: SensorId) -> KeyRecord:
        key = (a, b) if a < b else (b, a)
        return self.records[key]

    def records_sorted(self) -> list[KeyRecord]:
        return [self.records[k] for k in sorted(self.records)]


def _derive_seed(master_seed: int, *parts: str) -> int:
    material = json.dumps([master_seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _fingerprint(material: str) -> str:
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def establish_network_keys(
    t: Topology,
    cfg: KljnSessionConfig,
    master_seed: int,
    target_bits: int = 128,
    attackers: dict[tuple[SensorId, SensorId], object] | None = None,
) -> NetworkKeyState:
    """Establish a key record for every unordered sensor pair.

    Wired edges each run a full simulated key-exchange session seeded from
    ``hash(master_seed, edge)``; a session that ends in attack detection or
    budget exhaustion marks just that record failed.  Wireless pairs get an
    opaque deterministic key token.  ``attackers`` maps canonical edges to
    attacker models, for exercising fault isolation.
    """
    attackers = attackers or {}
    state = NetworkKeyState(topology=t, records={}, kill=KillSwitchState(), clock=0)

    ordered = sorted(t.sensors)
    pairs = [(a, b) for idx, a in enumerate(ordered) for b in ordered[idx + 1 :]]
    # json.dumps([master_seed, a, b, CHANNEL_WIRELESS]), spelled out per pair
    seed_json = json.dumps(master_seed)
    wireless_json = _json_str(CHANNEL_WIRELESS)
    for a, b in pairs:
        state.clock += 1
        if (a, b) in t.kljn_edges:
            session_cfg = replace(cfg, seed=_derive_seed(master_seed, a, b))
            try:
                result = run_key_exchange(
                    session_cfg, target_bits, attacker=attackers.get((a, b))
                )
            except BudgetExhaustedError:
                result = None
            if result is None or result.attack_detected:
                record = KeyRecord((a, b), CHANNEL_KLJN, "", state.clock, STATUS_FAILED)
            else:
                record = KeyRecord(
                    (a, b),
                    CHANNEL_KLJN,
                    _fingerprint(f"kljn|{result.key_bits}"),
                    state.clock,
                    STATUS_OK,
                    key_bits=result.key_bits,
                )
        else:
            token = _fingerprint(f"[{seed_json}, {_json_str(a)}, {_json_str(b)}, {wireless_json}]")
            record = KeyRecord((a, b), CHANNEL_WIRELESS, token, state.clock, STATUS_OK)
        state.records[(a, b)] = record
    return state


def apply_kill_event(state: NetworkKeyState, sensor: SensorId, note: str = "") -> NetworkKeyState:
    """Mark a sensor compromised: flag it, revoke its records, log the event.

    Idempotent on the records and the killed set; every call appends one
    log entry.  Mutates and returns ``state`` (single-writer contract).
    """
    if not state.topology.has_sensor(sensor):
        raise UnknownSensorError(f"unknown sensor {sensor!r}")
    state.clock += 1
    state.kill.kill(sensor, note=note, timestamp=state.clock)
    for record in state.records.values():
        if sensor in record.pair and record.status != STATUS_REVOKED:
            record.status = STATUS_REVOKED
            record.key_bits = None
    return state


def trust_report(state: NetworkKeyState, coef: TrustCoefficients) -> dict:
    """Bundle the trust matrix, rankings, record statuses, and kill log.

    Returns a JSON-ready document with the keys ``sensors``,
    ``coefficients``, ``killed``, ``matrix`` (``order`` and ``values``, one
    list of floats per evaluator), ``rankings`` (each sensor's
    :func:`rank_peers` as ``[peer, value]`` pairs), ``records`` (one object
    per sensor pair) and ``kill_log``, in that order.  ``kextrust.cli``
    writes it with ``report_to_json``, byte-identical to
    ``json.dumps(doc, indent=2) + "\n"``.
    """
    t = state.topology
    matrix = trust_matrix(t, coef, state.kill)
    return {
        "sensors": list(t.sensors),
        "coefficients": {
            "a": coef.a,
            "b": coef.b,
            "c": coef.c,
            "provenance": coef.provenance,
        },
        "killed": sorted(state.kill.killed),
        "matrix": {
            "order": matrix.order,
            "values": matrix.values.tolist(),
        },
        "rankings": {
            i: [[j, value] for j, value in rank_peers(t, coef, state.kill, i)]
            for i in t.sensors
        },
        "records": [
            {
                "pair": list(r.pair),
                "channel": r.channel,
                "key_id": r.key_id,
                "established_at": r.established_at,
                "status": r.status,
            }
            for r in state.records_sorted()
        ],
        "kill_log": [_event_to_dict(e) for e in state.kill.event_log],
    }


def _event_to_dict(event: KillEvent) -> dict:
    return {
        "timestamp": event.timestamp,
        "sensor": event.sensor,
        "action": event.action,
        "note": event.note,
    }


_record_fields = attrgetter("pair", "channel", "key_id", "established_at", "status")


def records_to_json(records) -> str:
    """A top-level ``"records"`` list as ``json.dumps(doc, indent=2)`` writes it.

    ``records`` yields ``(pair, channel, key_id, established_at, status)``
    per record, in the key order of the record objects of both the state
    file and the trust report; ``pair`` holds two strings, ``established_at``
    is an int and the rest are strings.  Empty gives ``[]``.
    """
    body = ",\n".join([  # a list joins faster than a generator
        f'    {{\n      "pair": [\n        {_json_str(a)},\n        {_json_str(b)}\n'
        f'      ],\n      "channel": {_json_str(channel)},\n'
        f'      "key_id": {_json_str(key_id)},\n'
        f'      "established_at": {established_at},\n'
        f'      "status": {_json_str(status)}\n    }}'
        for (a, b), channel, key_id, established_at, status in records
    ])
    return f"[\n{body}\n  ]" if body else "[]"


def state_to_json(state: NetworkKeyState) -> str:
    """Serialize the state deterministically (key material is not persisted).

    The bytes are those of ``json.dumps(doc, indent=2) + "\n"`` for the
    document ``{"topology", "clock", "records", "kill"}``; the records, one
    per sensor pair, are written by :func:`records_to_json`, the template
    the trust report writer shares.
    """
    head = json.dumps(
        {"topology": topology_to_doc(state.topology), "clock": state.clock},
        indent=2,
    )
    tail = json.dumps(
        {
            "kill": {
                "killed": sorted(state.kill.killed),
                "events": [_event_to_dict(e) for e in state.kill.event_log],
            }
        },
        indent=2,
    )
    records = records_to_json(map(_record_fields, state.records_sorted()))
    # head without its closing "\n}", tail without its opening "{\n"
    return f'{head[:-2]},\n  "records": {records},\n{tail[2:]}\n'


_STATE_KEYS = ("topology", "clock", "records", "kill")


class StateFormatError(ValueError):
    """A state file whose content is not a network key state."""


def _kill_from_doc(kill: dict, t: Topology) -> KillSwitchState:
    """The kill switch from its JSON object; every sensor it names must be
    one of ``t``'s, and every event field is type checked."""
    killed = kill["killed"]
    if not isinstance(killed, list):
        raise StateFormatError("state file 'killed' must be a list of sensor ids")
    for sensor in killed:
        if not (isinstance(sensor, str) and t.has_sensor(sensor)):
            raise StateFormatError(
                f"state file 'killed' names {sensor!r}, which is not a sensor of its topology"
            )
    events = []
    for index, e in enumerate(kill["events"]):
        timestamp, sensor, action, note = e["timestamp"], e["sensor"], e["action"], e.get("note", "")
        if type(timestamp) is not int:
            problem = "'timestamp' must be an integer"
        elif not (isinstance(sensor, str) and t.has_sensor(sensor)):
            problem = f"'sensor' {sensor!r} is not a sensor of the topology"
        elif action not in ("set", "clear"):
            problem = "'action' must be \"set\" or \"clear\""
        elif not isinstance(note, str):
            problem = "'note' must be a string"
        else:
            events.append(KillEvent(timestamp, sensor, action, note))
            continue
        raise StateFormatError(f"state file kill event {index}: {problem}")
    return KillSwitchState(killed=set(killed), event_log=events)


def state_from_json(text: str) -> NetworkKeyState:
    """Parse a state file; anything but a well-formed state raises ``ValueError``.

    Every record and kill-event field is type checked, so :func:`state_to_json`
    writes back exactly what ``json.dumps`` would, and the kill section may
    only name sensors of the state's topology.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    missing = [key for key in _STATE_KEYS if key not in doc]
    if missing:
        raise ValueError(f"state file is missing {', '.join(map(repr, missing))}")
    # a JSON true/false loads as bool, an int subclass
    if type(doc["clock"]) is not int:
        raise ValueError("state file 'clock' must be an integer")
    topology = parse_topology(json.dumps(doc["topology"]))
    try:
        records = {}
        for index, r in enumerate(doc["records"]):
            pair, channel, key_id = r["pair"], r["channel"], r["key_id"]
            established_at, status = r["established_at"], r["status"]
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str) and isinstance(pair[1], str)):
                problem = "'pair' must be two strings"
            elif not (isinstance(channel, str) and isinstance(key_id, str)
                      and isinstance(status, str)):
                problem = "'channel', 'key_id' and 'status' must be strings"
            elif type(established_at) is not int:
                problem = "'established_at' must be an integer"
            else:
                pair = tuple(pair)
                records[pair] = KeyRecord(pair, channel, key_id, established_at, status)
                continue
            raise StateFormatError(f"state file record {index} (pair {pair!r}): {problem}")
        kill = _kill_from_doc(doc["kill"], topology)
    except StateFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(
            f"state file has a malformed record or kill log ({type(exc).__name__}: {exc})"
        ) from None
    return NetworkKeyState(topology, records, kill, doc["clock"])


def save_state(state: NetworkKeyState, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(state_to_json(state))


def load_state(path) -> NetworkKeyState:
    with open(path, encoding="utf-8") as f:
        return state_from_json(f.read())
