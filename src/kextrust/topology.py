"""Hybrid wired/wireless sensor network model.

A network is a set of sensors, an undirected set of wired KLJN links, and
per-sensor wireless peer sets.  Every peer of a sensor is classified as
exactly one of the two exchange kinds: wired-KLJN or wireless.  Wireless
sets may be given explicitly (partial-coverage experiments) or derived as
the full-mesh complement of the KLJN neighbourhood, which is the default
assumption for all-pairs reachable networks.

Topologies are immutable after construction; all operations here return
new objects or plain data.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Set
from dataclasses import dataclass, field
from importlib import resources

SensorId = str

# Order of keys in the serialized topology document.
_DOC_KEYS = ("sensors", "kljn_edges", "wireless_sets")


class TopologyFormatError(ValueError):
    """Raised when a topology document is malformed."""


class UnknownSensorError(ValueError):
    """Raised when an operation references a sensor not in the topology."""


class _PeerSets(dict):
    """Memo of sensor -> frozenset of its wired peers, built from the
    per-sensor peer lists on first lookup.

    Only known sensors are stored; any other id raises
    :class:`UnknownSensorError` on every lookup.
    """

    def __init__(self, sensors: frozenset[SensorId], index: dict[SensorId, list[SensorId]]):
        super().__init__()
        self._sensors = sensors
        self._index = index

    def __missing__(self, i: SensorId) -> frozenset[SensorId]:
        if i not in self._sensors:
            raise UnknownSensorError(f"unknown sensor {i!r}")
        peers = self[i] = frozenset(self._index.get(i, ()))
        return peers


class _ComplementSet(Set):
    """The wireless peers of ``i`` under the complement rule, as a read-only
    view: every known sensor except ``i`` and its wired peers.

    ``len`` and ``in`` take O(1); iteration walks the sensors in topology
    order.  ``&``, ``|``, ``-`` and ``^`` return frozensets.  A view
    compares equal to the frozenset of its members but is unhashable, since
    its hash could not equal that frozenset's without visiting every member.
    """

    __slots__ = ("_t", "_i", "_wired", "_len")

    def __init__(self, t: Topology, i: SensorId):
        self._t = t
        self._i = i
        self._wired = t.kljn_set(i)
        self._len = len(t.sensors) - 1 - len(self._wired)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, p) -> bool:
        return p != self._i and p not in self._wired and p in self._t.sensor_set

    def __iter__(self):
        i, wired = self._i, self._wired
        return (s for s in self._t.sensors if s != i and s not in wired)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[SensorId]:
        return frozenset(it)


def _frozen_wireless_sets(sets) -> dict[SensorId, frozenset[SensorId]]:
    """``sets`` with each peer collection made a frozenset.  An owner or a
    peer that is not a non-empty string raises :class:`TopologyFormatError`."""
    frozen = {}
    for s, peers in sets.items():
        if not isinstance(s, str) or not s:
            raise TopologyFormatError(f"wireless set owner must be a non-empty string, got {s!r}")
        frozen[s] = _checked_peers(s, peers)
    return frozen


def _checked_peers(s: SensorId, peers) -> frozenset[SensorId]:
    """``peers`` as a frozenset.  A peer that is not a non-empty string,
    hashable or not, raises :class:`TopologyFormatError` naming the first
    such peer in the given order."""
    if not isinstance(peers, (set, frozenset)):
        peers = list(peers)
    if set(map(type, peers)) - {str} or "" in peers:
        for p in peers:
            if not isinstance(p, str) or not p:
                raise TopologyFormatError(
                    f"wireless peer of {s!r} must be a non-empty string, got {p!r}"
                )
    return frozenset(peers)


@dataclass(frozen=True)
class Topology:
    """Sensors plus wired KLJN links and (optional) explicit wireless sets.

    Construction refuses, with :class:`TopologyFormatError`, a wireless-set
    owner or peer that is not a non-empty string, a sensor id that is not a
    non-empty string or repeats one, and an edge that is not a pair of two
    distinct sensors of the topology.  ``kljn_edges`` holds canonical sorted
    pairs, so link symmetry cannot be violated by construction.
    ``wireless_sets`` is ``None`` until sets are given explicitly or derived
    with :func:`derive_wireless_sets`; accessors fall back to the complement
    rule when it is ``None``.  :func:`validate` checks explicit sets against
    the sensors and the wired links.

    Construction indexes the edges once: a per-sensor list of wired peers
    and the sensor set.  Lookups read the index instead of rescanning
    ``kljn_edges``; each sensor's wired-peer frozenset is built on its first
    lookup and reused after that.  Under the complement rule
    :meth:`wireless_set` returns an O(1) view over that index.
    """

    sensors: tuple[SensorId, ...]
    kljn_edges: frozenset[tuple[SensorId, SensorId]]
    wireless_sets: dict[SensorId, frozenset[SensorId]] | None = None
    _sensor_set: frozenset[SensorId] = field(init=False, repr=False, compare=False)
    _kljn_sets: _PeerSets = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # before the sensors: fixes which message a multi-fault document gets
        if self.wireless_sets is not None:
            object.__setattr__(self, "wireless_sets", _frozen_wireless_sets(self.wireless_sets))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        seen: set[SensorId] = set()
        for s in self.sensors:
            if not isinstance(s, str) or not s:
                raise TopologyFormatError(f"sensor id must be a non-empty string, got {s!r}")
            if s in seen:
                raise TopologyFormatError(f"duplicate sensor id {s!r}")
            seen.add(s)
        edges = list(self.kljn_edges)
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise TopologyFormatError(f"KLJN edge must be a pair, got {e!r}")
            a, b = e
            for end in (a, b):
                if not isinstance(end, str) or end not in seen:
                    raise TopologyFormatError(f"KLJN edge {e!r} references unknown sensor {end!r}")
            if a == b:
                raise TopologyFormatError(f"KLJN edge {e!r} is a self-loop")
        object.__setattr__(
            self,
            "kljn_edges",
            frozenset((a, b) if a < b else (b, a) for a, b in edges),
        )
        index: dict[SensorId, list[SensorId]] = defaultdict(list)
        for a, b in self.kljn_edges:
            index[a].append(b)
            index[b].append(a)
        object.__setattr__(self, "_sensor_set", frozenset(self.sensors))
        object.__setattr__(self, "_kljn_sets", _PeerSets(self._sensor_set, index))

    @property
    def sensor_set(self) -> frozenset[SensorId]:
        return self._sensor_set

    def has_sensor(self, i: SensorId) -> bool:
        return i in self._sensor_set

    def kljn_set(self, i: SensorId) -> frozenset[SensorId]:
        """Wired-KLJN peers of ``i``, read off the per-sensor edge index."""
        return self._kljn_sets[i]

    def wireless_set(self, i: SensorId) -> Set[SensorId]:
        """Wireless peers of ``i``: the explicit frozenset if sets are given,
        else the complement rule ``sensor_set - kljn_set(i) - {i}`` as an
        O(1) read-only view (see :class:`_ComplementSet`)."""
        if not self.has_sensor(i):
            raise UnknownSensorError(f"unknown sensor {i!r}")
        if self.wireless_sets is not None:
            return self.wireless_sets.get(i, frozenset())
        return _ComplementSet(self, i)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    entities: tuple[SensorId, ...] = ()


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error_codes(self) -> set[str]:
        return {issue.code for issue in self.errors}


def decode_json(text: str, what: str, error: type[ValueError]):
    """``json.loads(text)``; text that is not JSON, or that nests too deeply
    for the decoder, raises ``error`` with a one-line message naming ``what``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        detail = f"{exc.msg} (line {exc.lineno}, column {exc.colno})"
    except RecursionError:
        detail = "nested too deeply"
    raise error(f"{what} is not valid JSON: {detail}")


def parse_topology(text: str) -> Topology:
    """Parse a JSON topology document (see :func:`topology_from_doc`)."""
    return topology_from_doc(decode_json(text, "topology document", TopologyFormatError))


def topology_from_doc(doc) -> Topology:
    """Build a topology from its decoded JSON document.

    The document is an object ``{"sensors": [...], "kljn_edges": [[a,b],...],
    "wireless_sets": {id: [...]}}`` with ``wireless_sets`` optional.  This
    checks the document's shape; :class:`Topology` refuses ids that are not
    non-empty strings, duplicate ids and edges that are not pairs of
    distinct sensors, and set-level inconsistencies such as a KLJN/wireless
    overlap are left for :func:`validate` to report.
    """
    if not isinstance(doc, dict):
        raise TopologyFormatError("topology document must be a JSON object")
    unknown_keys = set(doc) - set(_DOC_KEYS)
    if unknown_keys:
        raise TopologyFormatError(f"unknown keys in topology document: {sorted(unknown_keys)}")

    sensors = doc.get("sensors")
    if not isinstance(sensors, list):
        raise TopologyFormatError("'sensors' must be a list of sensor ids")
    edges = doc.get("kljn_edges", [])  # Topology canonicalizes and dedups
    if not isinstance(edges, list):
        raise TopologyFormatError("'kljn_edges' must be a list of [id, id] pairs")

    wireless = doc.get("wireless_sets")
    if "wireless_sets" in doc:
        if not isinstance(wireless, dict):
            raise TopologyFormatError("'wireless_sets' must be an object mapping id -> [id...]")
        for s, peers in wireless.items():
            if not isinstance(peers, list):
                raise TopologyFormatError(f"wireless set of {s!r} must be a list")

    return Topology(sensors, edges, wireless)


def topology_to_doc(t: Topology) -> dict:
    """The canonical document form: sorted sensors, edges and wireless sets."""
    doc: dict = {
        "sensors": sorted(t.sensors),
        "kljn_edges": sorted(list(e) for e in t.kljn_edges),
    }
    if t.wireless_sets is not None:
        doc["wireless_sets"] = {
            s: sorted(peers) for s, peers in sorted(t.wireless_sets.items())
        }
    return doc


def serialize_topology(t: Topology) -> str:
    """Serialize to the canonical document form (round-trips with parse)."""
    return json.dumps(topology_to_doc(t), indent=2) + "\n"


def load_topology(path) -> Topology:
    with open(path, encoding="utf-8") as f:
        return parse_topology(f.read())


def derive_wireless_sets(t: Topology) -> Topology:
    """Fill in wireless sets as ``sensors - kljn_set(i) - {i}`` for every i;
    a topology that already has explicit sets is refused."""
    if t.wireless_sets is not None:
        raise ValueError("topology already has explicit wireless sets")
    full = t.sensor_set
    derived = {i: full - t.kljn_set(i) - {i} for i in t.sensors}
    return Topology(t.sensors, t.kljn_edges, derived)


def validate(t: Topology) -> ValidationReport:
    """Check explicit wireless sets, the part of the model that
    :class:`Topology` does not enforce: a set of or naming an unknown sensor
    (``unknown-sensor``), a sensor in its own set (``self-in-wireless``), a
    wired peer in a set (``kljn-wireless-overlap``) and, as a warning, a
    sensor without a set.  Violations are data, not exceptions."""
    report = ValidationReport()
    known = t.sensor_set

    if t.wireless_sets is not None:
        for s in sorted(t.wireless_sets):
            peers = t.wireless_sets[s]
            if s not in known:
                report.errors.append(
                    ValidationIssue(
                        "unknown-sensor", f"wireless set given for unknown sensor {s!r}", (s,)
                    )
                )
                continue
            for p in sorted(peers):
                if p not in known:
                    report.errors.append(
                        ValidationIssue(
                            "unknown-sensor",
                            f"wireless set of {s!r} contains unknown sensor {p!r}",
                            (s, p),
                        )
                    )
            if s in peers:
                report.errors.append(
                    ValidationIssue(
                        "self-in-wireless", f"sensor {s!r} lists itself as a wireless peer", (s,)
                    )
                )
            for p in sorted(peers & t.kljn_set(s)):
                report.errors.append(
                    ValidationIssue(
                        "kljn-wireless-overlap",
                        f"{p!r} is both a KLJN and a wireless peer of {s!r}",
                        (s, p),
                    )
                )
        missing = sorted(known - set(t.wireless_sets))
        if missing:
            report.warnings.append(
                ValidationIssue(
                    "missing-wireless-entry",
                    f"no explicit wireless set for {missing} (treated as empty)",
                    tuple(missing),
                )
            )

    return report


def bundled_topology_path(name: str = "fig2"):
    """Path to a topology document shipped with the package.

    ``fig2`` is the ten-sensor hybrid example network used throughout the
    tests and docs (sensors A..J, six wired KLJN links).
    """
    ref = resources.files("kextrust").joinpath("data", f"{name}.json")
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled topology named {name!r}")
    return ref


def bundled_topology(name: str = "fig2") -> Topology:
    """Parse a bundled topology document and derive its wireless sets."""
    text = bundled_topology_path(name).read_text(encoding="utf-8")
    return derive_wireless_sets(parse_topology(text))
