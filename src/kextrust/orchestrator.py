"""Network-wide key establishment and operator state keeping.

Wired pairs were authenticated against each other before deployment, so
their key exchange runs directly over the simulated wire protocol; every
other pair gets an abstract wireless exchange record (the wireless
handshake is conditionally-secure commodity and contributes nothing to
the trust math beyond its classification).  The state has one record per
unordered sensor pair, the operator kill switch, and a logical clock so
repeated runs with the same master seed serialize to identical bytes.
Only the wired sessions and the kill events are stored: a wireless record
is a pure function of the master seed and its pair, the killed set is the
replay of the kill events, and a record is revoked iff one of its sensors
has a ``set`` kill event.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .kljn import BudgetExhaustedError, KljnSessionConfig, run_key_exchange
from .topology import (
    SensorId,
    Topology,
    decode_json,
    topology_from_doc,
    topology_to_doc,
)
from .trust import TrustCoefficients, rank_peers, trust_matrix

CHANNEL_KLJN = "kljn"
CHANNEL_WIRELESS = "wireless"

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_REVOKED = "revoked"

Pair = tuple[SensorId, SensorId]


@dataclass
class KillEvent:
    timestamp: int
    sensor: SensorId
    action: str  # "set" (kill the sensor) or "clear" (revive it)
    note: str = ""


@dataclass
class KillSwitchState:
    """The operator's kill log, the one source of the killed sensors.

    Each event is stamped with the state's logical clock.  A sensor is
    killed while its last event is a ``set``.
    """

    event_log: list[KillEvent] = field(default_factory=list)

    @property
    def killed(self) -> frozenset[SensorId]:
        """The sensors killed after replaying ``event_log``."""
        killed: set[SensorId] = set()
        for e in self.event_log:
            (killed.add if e.action == "set" else killed.discard)(e.sensor)
        return frozenset(killed)

    def kill(self, sensor: SensorId, timestamp: int, note: str = "") -> None:
        self.event_log.append(KillEvent(timestamp, sensor, "set", note))

    def clear(self, sensor: SensorId, timestamp: int, note: str = "") -> None:
        self.event_log.append(KillEvent(timestamp, sensor, "clear", note))


@dataclass
class KeyRecord:
    pair: Pair  # canonical: pair[0] < pair[1]
    channel: str
    key_id: str
    established_at: int  # the pair's 1-based position in canonical order
    status: str
    key_bits: str | None = None  # in-memory only, never serialized


@dataclass
class NetworkKeyState:
    """Key state of a network.

    ``stored`` holds the wired-session records with status ``ok`` or
    ``failed``.  ``records`` is the read-only view of all records.
    """

    topology: Topology
    stored: dict[Pair, KeyRecord]
    kill: KillSwitchState
    clock: int
    master_seed: int
    _positions: dict[SensorId, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._positions = {s: k for k, s in enumerate(sorted(self.topology.sensor_set))}

    @property
    def records(self) -> KeyRecords:
        return KeyRecords(self)

    def pair_index(self, a: SensorId, b: SensorId) -> int | None:
        """1-based position of ``(a, b)`` among the canonical sensor pairs
        (sorted, first sensor below the second), or ``None`` if it is not one."""
        p, q = self._positions.get(a), self._positions.get(b)
        if p is None or q is None or p >= q:
            return None
        return p * (2 * len(self._positions) - p - 1) // 2 + q - p

    def pairs(self):
        """Every canonical sensor pair, in canonical order."""
        ordered = list(self._positions)
        return ((a, b) for x, a in enumerate(ordered) for b in ordered[x + 1 :])

    def record_for(self, a: SensorId, b: SensorId) -> KeyRecord:
        key = (a, b) if a < b else (b, a)
        return self.records[key]

    def records_sorted(self) -> list[KeyRecord]:
        """``list(self.records.values())`` without a position lookup per pair."""
        records = self.records
        return [records._record(pair, index) for index, pair in enumerate(self.pairs(), 1)]


class KeyRecords(Mapping):
    """All records of a state, keyed by canonical pair, in canonical order.

    Stored records are returned as they are; wireless records are derived
    from the master seed on each lookup.  A record one of whose sensors
    has a ``set`` kill event comes back as a revoked copy without key bits.
    """

    def __init__(self, state: NetworkKeyState):
        self._state, self._seed = state, state.master_seed
        self._revoked = {e.sensor for e in state.kill.event_log if e.action == "set"}

    def __getitem__(self, pair: Pair) -> KeyRecord:
        state = self._state
        index = state.pair_index(*pair)
        if pair not in state.stored and (index is None or pair in state.topology.kljn_edges):
            raise KeyError(pair)
        return self._record(pair, index)

    def _record(self, pair: Pair, index: int) -> KeyRecord:
        """The record of canonical pair ``pair`` at 1-based position ``index``:
        stored, or else derived as a wireless record."""
        record = self._state.stored.get(pair)
        if record is None:  # token of json.dumps([master_seed, a, b, "wireless"])
            a, b = pair
            token = _fingerprint(f'[{self._seed}, {_json_str(a)}, {_json_str(b)}, "wireless"]')
            record = KeyRecord(pair, CHANNEL_WIRELESS, token, index, STATUS_OK)
        if not self._revoked.isdisjoint(pair):
            record = replace(record, status=STATUS_REVOKED, key_bits=None)
        return record

    def __iter__(self):
        return self._state.pairs()

    def __len__(self) -> int:
        n = len(self._state._positions)
        return n * (n - 1) // 2


def _derive_seed(master_seed: int, *parts: str) -> int:
    material = json.dumps([master_seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _fingerprint(material: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``material``."""
    return hashlib.sha256(material.encode()).digest()[:8].hex()


def establish_network_keys(
    t: Topology,
    cfg: KljnSessionConfig,
    master_seed: int,
    target_bits: int = 128,
    attackers: dict[Pair, object] | None = None,
) -> NetworkKeyState:
    """Establish a key record for every unordered sensor pair.

    Wired edges each run a full simulated key-exchange session seeded from
    ``hash(master_seed, edge)``; a session that ends in attack detection or
    budget exhaustion marks just that record failed.  Wireless pairs get an
    opaque deterministic key token, derived when read (see
    :class:`KeyRecords`).  ``attackers`` maps canonical edges to attacker
    models, for exercising fault isolation.  The clock counts one tick per
    pair, as if every pair were established in canonical order.  A
    ``master_seed`` that is not an ``int`` (a ``bool`` included) raises
    ``ValueError``.
    """
    if type(master_seed) is not int:
        raise ValueError(f"master seed must be an int, not {master_seed!r}")
    attackers = attackers or {}
    n = len(t.sensor_set)
    state = NetworkKeyState(t, {}, KillSwitchState(), n * (n - 1) // 2, master_seed)
    for a, b in sorted(t.kljn_edges):
        index = state.pair_index(a, b)
        session_cfg = replace(cfg, seed=_derive_seed(master_seed, a, b))
        try:
            result = run_key_exchange(session_cfg, target_bits, attacker=attackers.get((a, b)))
        except BudgetExhaustedError:
            result = None
        if result is None or result.attack_detected:
            record = KeyRecord((a, b), CHANNEL_KLJN, "", index, STATUS_FAILED)
        else:
            token = _fingerprint(f"kljn|{result.key_bits}")
            record = KeyRecord((a, b), CHANNEL_KLJN, token, index, STATUS_OK, result.key_bits)
        state.stored[(a, b)] = record
    return state


def apply_kill_event(state: NetworkKeyState, sensor: SensorId, note: str = "") -> NetworkKeyState:
    """Mark a sensor compromised: log a ``set`` kill event, which revokes its
    records, and drop the key bits of its wired sessions.

    Idempotent on the records and the killed set; every call appends one
    log entry.  Mutates and returns ``state`` (single-writer contract).
    """
    peers = state.topology.kljn_set(sensor)  # an unknown id raises UnknownSensorError
    state.clock += 1
    state.kill.kill(sensor, state.clock, note)
    for peer in peers:
        record = state.stored.get((sensor, peer) if sensor < peer else (peer, sensor))
        if record is not None:
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
    killed = state.kill.killed
    matrix = trust_matrix(t, coef, killed)
    return {
        "sensors": list(t.sensors),
        "coefficients": {
            "a": coef.a,
            "b": coef.b,
            "c": coef.c,
            "provenance": coef.provenance,
        },
        "killed": sorted(killed),
        "matrix": {
            "order": matrix.order,
            "values": matrix.values.tolist(),
        },
        "rankings": {
            i: [[j, value] for j, value in rank_peers(t, coef, killed, i)]
            for i in t.sensors
        },
        "records": [_record_to_dict(r) for r in state.records_sorted()],
        "kill_log": [_event_to_dict(e) for e in state.kill.event_log],
    }


def _record_to_dict(r: KeyRecord) -> dict:
    return {
        "pair": list(r.pair),
        "channel": r.channel,
        "key_id": r.key_id,
        "established_at": r.established_at,
        "status": r.status,
    }


def _event_to_dict(event: KillEvent) -> dict:
    return {
        "timestamp": event.timestamp,
        "sensor": event.sensor,
        "action": event.action,
        "note": event.note,
    }


def json_block(items, pad: str, brackets: str = "[]") -> str:
    """A list (an object with ``brackets="{}"``) laid out as ``json.dumps(...,
    indent=2)`` lays it out where its opening line is indented by ``pad``:
    one entry per line.  ``items`` are the entries as JSON text, so an entry
    may itself span lines.  Empty gives ``[]`` or ``{}``."""
    body = f",\n{pad}  ".join(items)
    return f"{brackets[0]}\n{pad}  {body}\n{pad}{brackets[1]}" if body else brackets


def records_to_json(records) -> str:
    """The trust report's top-level ``"records"`` list as ``json.dumps(doc,
    indent=2)`` writes it.

    ``records`` yields ``(pair, channel, key_id, established_at, status)``
    per record, in the key order of the report's record objects; ``pair``
    holds two strings, ``established_at`` is an int and the rest are
    strings.
    """
    return json_block([  # a list joins faster than a generator
        f'{{\n      "pair": [\n        {_json_str(a)},\n        {_json_str(b)}\n'
        f'      ],\n      "channel": {_json_str(channel)},\n'
        f'      "key_id": {_json_str(key_id)},\n'
        f'      "established_at": {established_at},\n'
        f'      "status": {_json_str(status)}\n    }}'
        for (a, b), channel, key_id, established_at, status in records
    ], "  ")


def _json_ids(ids) -> str:
    """A list of strings as ``json.dumps`` writes it without ``indent``."""
    return f'[{", ".join(map(_json_str, ids))}]'


def state_to_json(state: NetworkKeyState) -> str:
    """Serialize the state as a version 2 document; key bits are not persisted.

    The document holds ``version``, ``topology``, ``clock``, ``master_seed``,
    the stored records and the kill events (README: "State files").  It is
    indented two spaces per level; a list of sensor ids is one line, every
    other list or object has one entry per line, and each entry is written
    as ``json.dumps`` writes it without ``indent`` (no pure-Python encoder
    runs).
    """
    t = topology_to_doc(state.topology)
    topology = [
        f'"sensors": {_json_ids(t["sensors"])}',
        f'"kljn_edges": {json_block(map(_json_ids, t["kljn_edges"]), "    ")}',
    ]
    if "wireless_sets" in t:
        sets = (f"{_json_str(s)}: {_json_ids(peers)}" for s, peers in t["wireless_sets"].items())
        topology.append(f'"wireless_sets": {json_block(sets, "    ", "{}")}')
    records = (json.dumps(_record_to_dict(state.stored[p])) for p in sorted(state.stored))
    events = (json.dumps(_event_to_dict(e)) for e in state.kill.event_log)
    return (
        f'{{\n  "version": 2,\n  "topology": {json_block(topology, "  ", "{}")},\n'
        f'  "clock": {state.clock},\n  "master_seed": {state.master_seed},\n'
        f'  "records": {json_block(records, "  ")},\n'
        f'  "kill_events": {json_block(events, "  ")}\n}}\n'
    )


_STATE_KEYS = ("version", "topology", "clock", "master_seed", "records", "kill_events")
_REESTABLISH = "re-run 'kextrust establish' to write a version 2 state file"


class StateFormatError(ValueError):
    """A state file whose content is not a network key state."""


def _kill_from_doc(events: list, t: Topology) -> KillSwitchState:
    """The kill log read from its event list.  Every sensor named must
    be one of ``t``'s and every event field is type checked."""
    if not isinstance(events, list):
        raise StateFormatError("state file kill events must be a list")
    kill = KillSwitchState()
    for index, e in enumerate(events):
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
            (kill.kill if action == "set" else kill.clear)(sensor, timestamp, note)
            continue
        raise StateFormatError(f"state file kill event {index}: {problem}")
    return kill


def _store_records(state: NetworkKeyState, records: list) -> None:
    """Check each of a file's records against the state's topology, and
    store it: only wired-session records, with status ``ok`` or ``failed``."""
    if not isinstance(records, list):
        raise StateFormatError("state file 'records' must be a list")
    kljn_edges = state.topology.kljn_edges
    for index, r in enumerate(records):
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
        elif (key := tuple(pair)) in state.stored:
            problem = "a second record for the pair"
        elif (position := state.pair_index(*key)) is None:
            problem = "'pair' must be two sensors of the topology in sorted order"
        elif channel != (kind := CHANNEL_KLJN if key in kljn_edges else CHANNEL_WIRELESS):
            problem = f"'channel' must be {kind!r}"
        elif kind == CHANNEL_WIRELESS:
            problem = "a wireless record is derived from 'master_seed', not stored"
        elif status not in (STATUS_OK, STATUS_FAILED):
            problem = "'status' must be 'ok' or 'failed'"
        elif (status == STATUS_FAILED) != (key_id == ""):
            problem = "'key_id' must be empty exactly when 'status' is 'failed'"
        elif established_at != position:
            problem = f"'established_at' must be {position}, the pair's canonical position"
        else:
            state.stored[key] = KeyRecord(key, channel, key_id, established_at, status)
            continue
        raise StateFormatError(f"state file record {index} (pair {pair!r}): {problem}")


def state_from_json(text: str) -> NetworkKeyState:
    """Parse a version 2 state file with an integer master seed; anything
    else raises ``ValueError``, with a one-line message.

    Every field is type checked.  The records must be the canonical wired
    edges, each once, with the right channel and ``established_at``; the
    kill events may only name sensors of the topology.  A file of another
    version (an earlier one has no ``version``) or without a master seed is
    refused: its keys cannot be derived, so the state must be established
    again.
    """
    doc = decode_json(text, "state file", StateFormatError)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    if "version" not in doc:
        raise ValueError(f"state file has no 'version'; {_REESTABLISH}")
    version = doc["version"]
    # a JSON true/false loads as bool, an int subclass
    if type(version) is not int or version != 2:
        raise ValueError(f"state file version {version!r} is not supported; {_REESTABLISH}")
    missing = [key for key in _STATE_KEYS if key not in doc]
    if missing:
        raise ValueError(f"state file is missing {', '.join(map(repr, missing))}")
    if type(doc["clock"]) is not int:
        raise ValueError("state file 'clock' must be an integer")
    master_seed = doc["master_seed"]
    if type(master_seed) is not int:
        raise ValueError(f"state file 'master_seed' must be an integer, not "
                         f"{json.dumps(master_seed)}; {_REESTABLISH}")
    t = topology_from_doc(doc["topology"])
    state = NetworkKeyState(t, {}, KillSwitchState(), doc["clock"], master_seed)
    try:
        _store_records(state, doc["records"])
        state.kill = _kill_from_doc(doc["kill_events"], t)
    except StateFormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(
            f"state file has a malformed record or kill log ({type(exc).__name__}: {exc})"
        ) from None
    absent = next((pair for pair in sorted(t.kljn_edges) if pair not in state.stored), None)
    if absent is not None:
        raise StateFormatError(f"state file has no record for pair {list(absent)!r}")
    return state


def write_files(files) -> None:
    """Write each ``(path, text)`` of ``files`` through a temporary file next
    to its path, and move the files into place only once every one is written.

    A directory among the paths, or two paths naming the same file, is
    refused before anything is written, and a failed or interrupted write
    leaves every earlier file at the paths whole.  Only a rename that fails
    after an earlier one succeeded (the filesystem changing during the call)
    would leave some paths replaced.
    """
    files = list(files)
    named: dict[str, object] = {}
    for path, _ in files:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        real = os.path.realpath(path)
        if real in named:
            raise ValueError(f"output paths {str(named[real])!r} and {str(path)!r} "
                             "name the same file")
        named[real] = path
    partials: dict[Path, Path] = {}
    try:
        for path, text in files:
            path = Path(path)
            partial = path.with_name(f".{path.name}.partial")
            partials[partial] = path
            try:
                partial.write_text(text, encoding="utf-8")
            except OSError as exc:  # name the path asked for, not the temporary file
                raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        for partial, path in partials.items():
            os.replace(partial, path)
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)


def save_state(state: NetworkKeyState, path) -> None:
    """Write the state file with :func:`write_files`, so an interrupted
    write leaves any earlier file at ``path`` whole."""
    write_files([(path, state_to_json(state))])


def load_state(path) -> NetworkKeyState:
    with open(path, encoding="utf-8") as f:
        return state_from_json(f.read())
