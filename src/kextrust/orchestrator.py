"""Network-wide key establishment and operator state keeping.

Wired pairs were authenticated against each other before deployment, so
their key exchange runs directly over the simulated wire protocol; every
other pair gets an abstract wireless exchange record (the wireless
handshake is conditionally-secure commodity and contributes nothing to
the trust math beyond its classification).  The state has one record per
unordered sensor pair and the operator kill switch.  Only each wired
link's key id and the kill events are stored: a wired record is its link's
key id at the link's position, failed where the key id is empty, a wireless
record is a pure function of the master seed and its pair, the killed set
is the replay of the kill events, a record is revoked iff one of its
sensors has a ``set`` kill event, and the logical clock and the events'
timestamps count one tick per sensor pair and one per kill event.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from types import MappingProxyType

from .kljn import BudgetExhaustedError, KljnSessionConfig, run_key_exchange
from .topology import (
    SensorId,
    Topology,
    decode_json,
    topology_from_doc,
    topology_to_doc,
)
from .trust import TrustCoefficients, TrustMatrix, trust_matrix

CHANNEL_KLJN = "kljn"
CHANNEL_WIRELESS = "wireless"

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_REVOKED = "revoked"

Pair = tuple[SensorId, SensorId]


@dataclass
class KillEvent:
    sensor: SensorId
    action: str  # "set" (kill the sensor) or "clear" (revive it)
    note: str = ""


@dataclass
class KillSwitchState:
    """The operator's kill log, the one source of the killed sensors.

    A sensor is killed while its last event is a ``set``.
    """

    event_log: list[KillEvent] = field(default_factory=list)

    @property
    def killed(self) -> frozenset[SensorId]:
        """The sensors killed after replaying ``event_log``."""
        killed: set[SensorId] = set()
        for e in self.event_log:
            (killed.add if e.action == "set" else killed.discard)(e.sensor)
        return frozenset(killed)

    def kill(self, sensor: SensorId, note: str = "") -> None:
        self.event_log.append(KillEvent(sensor, "set", note))

    def clear(self, sensor: SensorId, note: str = "") -> None:
        self.event_log.append(KillEvent(sensor, "clear", note))


@dataclass
class KeyRecord:
    pair: Pair  # canonical: pair[0] < pair[1]
    channel: str
    key_id: str
    established_at: int  # the pair's 1-based position in canonical order
    status: str


@dataclass
class NetworkKeyState:
    """Key state of a network.

    ``kljn_keys`` holds one key id per wired link, parallel to
    ``topology.index.links`` (the links in sorted order); a key id is
    ``""`` where the link's session failed.  :meth:`record_rows` derives
    every record from it, the master seed and the kill log,
    :meth:`records_sorted` builds them as :class:`KeyRecord` objects, and
    ``records`` is a read-only snapshot of those keyed by pair.
    """

    topology: Topology
    kljn_keys: list[str]
    kill: KillSwitchState
    master_seed: int

    @property
    def clock(self) -> int:
        """The logical clock: one tick per sensor pair, then one per kill event."""
        n = len(self.topology.sensors)
        return n * (n - 1) // 2 + len(self.kill.event_log)

    def kill_log(self) -> Iterator[tuple[int, KillEvent]]:
        """Each kill event with its timestamp, the clock once it was logged."""
        return enumerate(self.kill.event_log, self.clock - len(self.kill.event_log) + 1)

    @property
    def records(self) -> Mapping[Pair, KeyRecord]:
        """Every record keyed by canonical pair, in canonical order: a
        read-only snapshot of :meth:`records_sorted`, built on each access."""
        return MappingProxyType({r.pair: r for r in self.records_sorted()})

    def records_sorted(self) -> Iterator[KeyRecord]:
        """Every record, one canonical pair at a time in canonical order:
        the :meth:`record_rows` with each pair's ids."""
        ids = self.topology.sensors
        for x, y, channel, key_id, index, status in self.record_rows():
            yield KeyRecord((ids[x], ids[y]), channel, key_id, index, status)

    def record_rows(self) -> Iterator[tuple[int, int, str, str, int, str]]:
        """Every record as ``(x, y, channel, key_id, established_at, status)``,
        one canonical pair ``(sensors[x], sensors[y])`` at a time in canonical
        order.

        ``established_at`` is the pair's position.  The wired links are
        walked in step with the pairs: a wired pair's record has the link's
        key id, and status ``ok``, or ``failed`` where the key id is empty.
        Any other pair's record is a wireless one whose token is that of
        ``json.dumps([master_seed, a, b, "wireless"])``, written from each
        id's JSON text, encoded once.  A record one of whose sensors has a
        ``set`` kill event is revoked.
        """
        revoked = {e.sensor for e in self.kill.event_log if e.action == "set"}
        names = list(map(_json_str, self.topology.sensors))
        dead = [s in revoked for s in self.topology.sensors]
        n, index = len(names), 0
        wired = ((p * (2 * n - p - 1) // 2 + q - p, key)  # each link's position
                 for (p, q), key in zip(self.topology.index.links.tolist(), self.kljn_keys))
        at, key = next(wired, (0, ""))
        for x in range(n):
            prefix, row_dead = f"[{self.master_seed}, {names[x]}, ", dead[x]
            for y in range(x + 1, n):
                index += 1
                gone = row_dead or dead[y]
                if index == at:
                    status = STATUS_REVOKED if gone else STATUS_OK if key else STATUS_FAILED
                    yield x, y, CHANNEL_KLJN, key, index, status
                    at, key = next(wired, (0, ""))
                else:
                    token = _fingerprint(f'{prefix}{names[y]}, "wireless"]')
                    yield x, y, CHANNEL_WIRELESS, token, index, STATUS_REVOKED if gone else STATUS_OK


def _derive_seed(master_seed: int, *parts: str) -> int:
    material = json.dumps([master_seed, *parts]).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _fingerprint(material: str) -> str:
    """The first 16 hex digits of the SHA-256 of ``material``."""
    return hashlib.sha256(material.encode()).digest()[:8].hex()


def establish_network_keys(
    t: Topology,
    master_seed: int,
    target_bits: int = 128,
    attackers: dict[Pair, object] | None = None,
) -> NetworkKeyState:
    """Establish a key record for every unordered sensor pair.

    Wired edges each run a full simulated key-exchange session seeded from
    ``hash(master_seed, edge)``, in sorted order, and append the key's id
    to ``kljn_keys``; a session that ends in attack detection or budget
    exhaustion appends ``""``, which marks just that record failed.
    Wireless pairs get an opaque deterministic key token, derived when read
    (see :meth:`NetworkKeyState.records_sorted`).  ``attackers`` maps
    canonical edges to attacker models, for exercising fault isolation.  A
    ``master_seed`` that is not an ``int``, or a ``target_bits`` that is not
    an ``int`` of at least 1 (a ``bool`` is neither), raises ``ValueError``
    before any session runs, whatever the topology.
    """
    if type(master_seed) is not int:
        raise ValueError(f"master seed must be an int, not {master_seed!r}")
    if type(target_bits) is not int or target_bits < 1:
        raise ValueError(f"target_bits must be an int of at least 1, not {target_bits!r}")
    attackers = attackers or {}
    state = NetworkKeyState(t, [], KillSwitchState(), master_seed)
    for p, q in t.index.links.tolist():  # in canonical order
        a, b = t.sensors[p], t.sensors[q]
        cfg = KljnSessionConfig(seed=_derive_seed(master_seed, a, b))
        try:
            result = run_key_exchange(cfg, target_bits, attacker=attackers.get((a, b)))
        except BudgetExhaustedError:
            result = None
        failed = result is None or result.attack_detected
        state.kljn_keys.append("" if failed else _fingerprint(f"kljn|{result.key_bits}"))
    return state


def apply_kill_event(state: NetworkKeyState, sensor: SensorId, note: str = "") -> NetworkKeyState:
    """Mark a sensor compromised: log a ``set`` kill event, which revokes
    its records and ticks the clock.

    Idempotent on the records and the killed set; every call appends one
    log entry.  An unknown sensor raises ``UnknownSensorError`` before the
    state changes.  Mutates and returns ``state`` (single-writer contract).
    """
    state.topology.kljn_set(sensor)  # an unknown id raises UnknownSensorError
    state.kill.kill(sensor, note)
    return state


def trust_report(state: NetworkKeyState, coef: TrustCoefficients) -> TrustMatrix:
    """The :func:`trust_matrix` of the state's network with its killed
    sensors.  ``kextrust.cli.report_json_chunks`` writes it, with each
    sensor's ranking, the state's records and its kill log, as the
    ``report`` document.
    """
    return trust_matrix(state.topology, coef, state.kill.killed)


def state_to_json(state: NetworkKeyState) -> str:
    """Serialize the state as a version 4 document on one line, as
    ``json.dumps`` writes it; key bits are not persisted.

    The document holds ``version``, ``topology``, ``master_seed``,
    ``kljn_keys`` (one key id per wired link, in the order ``kljn_edges``
    is written) and the kill events (README: "State files").
    """
    doc = {
        "version": 4,
        "topology": topology_to_doc(state.topology),
        "master_seed": state.master_seed,
        "kljn_keys": state.kljn_keys,
        "kill_events": [vars(e) for e in state.kill.event_log],
    }
    return json.dumps(doc) + "\n"


_STATE_KEYS = ("version", "topology", "master_seed", "kljn_keys", "kill_events")
_REESTABLISH = "re-run 'kextrust establish' to write a version 4 state file"


def _kill_from_doc(events: list, t: Topology) -> KillSwitchState:
    """The kill log read from its event list.  Each event must be an object
    with ``sensor`` and ``action``, every sensor named must be one of
    ``t``'s and every event field is type checked."""
    if not isinstance(events, list):
        raise ValueError("state file kill events must be a list")
    kill = KillSwitchState()
    for index, e in enumerate(events):
        if not isinstance(e, dict):
            problem = "an event must be an object"
        elif missing := [key for key in ("sensor", "action") if key not in e]:
            problem = f"missing {', '.join(map(repr, missing))}"
        elif not (isinstance(sensor := e["sensor"], str) and t.has_sensor(sensor)):
            problem = f"'sensor' {sensor!r} is not a sensor of the topology"
        elif (action := e["action"]) not in ("set", "clear"):
            problem = "'action' must be \"set\" or \"clear\""
        elif not isinstance(note := e.get("note", ""), str):
            problem = "'note' must be a string"
        else:
            (kill.kill if action == "set" else kill.clear)(sensor, note)
            continue
        raise ValueError(f"state file kill event {index}: {problem}")
    return kill


def state_from_json(text: str) -> NetworkKeyState:
    """Parse a version 4 state file with an integer master seed; anything
    else raises ``ValueError``, with a one-line message.

    Every field is type checked.  ``kljn_keys`` must be a list of strings,
    one per wired link; each kill event must be an object, and may only
    name sensors of the topology.  A file of another version (an earlier
    one has no ``version``) or without a master seed is refused: the state
    must be established again.
    """
    doc = decode_json(text, "state file", ValueError)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    if "version" not in doc:
        raise ValueError(f"state file has no 'version'; {_REESTABLISH}")
    version = doc["version"]
    # a JSON true/false loads as bool, an int subclass
    if type(version) is not int or version != 4:
        raise ValueError(f"state file version {version!r} is not supported; {_REESTABLISH}")
    missing = [key for key in _STATE_KEYS if key not in doc]
    if missing:
        raise ValueError(f"state file is missing {', '.join(map(repr, missing))}")
    master_seed = doc["master_seed"]
    if type(master_seed) is not int:
        raise ValueError(f"state file 'master_seed' must be an integer, not "
                         f"{json.dumps(master_seed)}; {_REESTABLISH}")
    t = topology_from_doc(doc["topology"])
    keys, links = doc["kljn_keys"], len(t.index.links)
    if not (isinstance(keys, list) and len(keys) == links
            and all(isinstance(key, str) for key in keys)):
        raise ValueError(f"state file 'kljn_keys' must be a list of strings, one per "
                         f"wired link (the topology has {links})")
    return NetworkKeyState(t, keys, _kill_from_doc(doc["kill_events"], t), master_seed)


def write_files(files) -> None:
    """Write each ``(path, chunks)`` of ``files``, ``chunks`` an iterable of
    ``bytes`` and of ``str`` (written as UTF-8) written in turn, through a
    temporary file of its own next to its path (created with the mode
    ``open`` gives a new file, so that concurrent writers never share one),
    and move the files into place only once every one is written.

    A directory among the paths, or two paths naming the same file, is
    refused before anything is written.  A failed or interrupted write, or
    an exception raised by a ``chunks`` iterable, removes the temporary
    files and leaves every earlier file at the paths whole.  Only a rename
    that fails after an earlier one succeeded (the filesystem changing
    during the call) would leave some paths replaced.  A process killed
    mid-write leaves its ``.<name>.<12 hex digits>.partial`` next to the
    path, which no later call removes; it is safe to delete by hand once no
    writer is at work on that path.
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
        for path, chunks in files:
            path = Path(path)
            try:
                fd = None
                while fd is None:  # a name taken by another writer is drawn again
                    partial = path.with_name(f".{path.name}.{os.urandom(6).hex()}.partial")
                    with contextlib.suppress(FileExistsError):
                        fd = os.open(partial, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
                partials[partial] = path
                with open(fd, "wb") as f:
                    f.writelines(c.encode() if isinstance(c, str) else c for c in chunks)
            except OSError as exc:  # name the path asked for, not the temporary file
                raise type(exc)(exc.errno, exc.strerror, str(path)) from None
        for partial, path in partials.items():
            os.replace(partial, path)
    finally:
        for partial in partials:
            partial.unlink(missing_ok=True)


def load_state(path) -> NetworkKeyState:
    with open(path, encoding="utf-8") as f:
        return state_from_json(f.read())
