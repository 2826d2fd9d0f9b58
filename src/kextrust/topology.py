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


def _canonical_edge(a: SensorId, b: SensorId) -> tuple[SensorId, SensorId]:
    return (a, b) if a <= b else (b, a)


class _PeerSets(dict):
    """Memo of sensor -> frozenset of its wired peers, built from the
    per-sensor peer lists on first lookup.

    Only known sensors are stored; any other id raises
    :class:`UnknownSensorError` on every lookup.  ``known_degree`` holds,
    for each stored sensor, how many of its wired peers are known sensors.
    """

    def __init__(self, sensors: frozenset[SensorId], index: dict[SensorId, list[SensorId]]):
        super().__init__()
        self._sensors = sensors
        self._index = index
        self.known_degree: dict[SensorId, int] = {}

    def __missing__(self, i: SensorId) -> frozenset[SensorId]:
        if i not in self._sensors:
            raise UnknownSensorError(f"unknown sensor {i!r}")
        peers = self[i] = frozenset(self._index.get(i, ()))
        self.known_degree[i] = len(peers & self._sensors)
        return peers


class _ComplementSet(Set):
    """The wireless peers of ``i`` under the complement rule, as a read-only
    view: every known sensor except ``i`` and its wired peers.

    ``len`` and ``in`` take O(1); iteration walks the distinct sensors in
    topology order.  ``&``, ``|``, ``-`` and ``^`` return frozensets.  A view
    compares equal to the frozenset of its members but is unhashable, since
    its hash could not equal that frozenset's without visiting every member.
    """

    __slots__ = ("_t", "_i", "_wired", "_len")

    def __init__(self, t: Topology, i: SensorId):
        self._t = t
        self._i = i
        self._wired = t.kljn_set(i)
        self._len = len(t.sensor_set) - 1 - t._kljn_sets.known_degree[i]

    def __len__(self) -> int:
        return self._len

    def __contains__(self, p) -> bool:
        return p != self._i and p not in self._wired and p in self._t.sensor_set

    def __iter__(self):
        i, wired = self._i, self._wired
        return (s for s in self._t._distinct_sensors if s != i and s not in wired)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[SensorId]:
        return frozenset(it)


@dataclass(frozen=True)
class Topology:
    """Sensors plus wired KLJN links and (optional) explicit wireless sets.

    ``kljn_edges`` holds canonical sorted pairs, so link symmetry cannot be
    violated by construction.  ``wireless_sets`` is ``None`` until sets are
    given explicitly or derived with :func:`derive_wireless_sets`; accessors
    fall back to the complement rule when it is ``None``.

    Construction indexes the edges once: a per-sensor list of wired peers
    (every edge endpoint gets an entry, so edges naming unknown sensors stay
    visible to :func:`validate`) and the sensor set.  Lookups read the index
    instead of rescanning ``kljn_edges``; each sensor's wired-peer frozenset
    is built on its first lookup and reused after that.  Under the complement
    rule :meth:`wireless_set` returns an O(1) view over that index.
    """

    sensors: tuple[SensorId, ...]
    kljn_edges: frozenset[tuple[SensorId, SensorId]]
    wireless_sets: dict[SensorId, frozenset[SensorId]] | None = None
    _sensor_set: frozenset[SensorId] = field(init=False, repr=False, compare=False)
    _kljn_sets: _PeerSets = field(init=False, repr=False, compare=False)
    _distinct_sensors: tuple[SensorId, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        object.__setattr__(
            self,
            "kljn_edges",
            frozenset(_canonical_edge(a, b) for a, b in self.kljn_edges),
        )
        if self.wireless_sets is not None:
            object.__setattr__(
                self,
                "wireless_sets",
                {s: frozenset(peers) for s, peers in self.wireless_sets.items()},
            )
        index: dict[SensorId, list[SensorId]] = defaultdict(list)
        for a, b in self.kljn_edges:
            if a != b:
                index[a].append(b)
                index[b].append(a)
        object.__setattr__(self, "_sensor_set", frozenset(self.sensors))
        object.__setattr__(self, "_kljn_sets", _PeerSets(self._sensor_set, index))
        object.__setattr__(self, "_distinct_sensors", tuple(dict.fromkeys(self.sensors)))

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


def parse_topology(text: str) -> Topology:
    """Parse a JSON topology document (see :func:`topology_from_doc`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyFormatError(
            f"topology document is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        ) from exc
    return topology_from_doc(doc)


def topology_from_doc(doc) -> Topology:
    """Build a topology from its decoded JSON document.

    The document is an object ``{"sensors": [...], "kljn_edges": [[a,b],...],
    "wireless_sets": {id: [...]}}`` with ``wireless_sets`` optional.  Only
    structural problems raise here (duplicate ids, self-loop edges, edges
    naming unknown sensors); set-level inconsistencies such as a
    KLJN/wireless overlap are left for :func:`validate` to report.
    """
    if not isinstance(doc, dict):
        raise TopologyFormatError("topology document must be a JSON object")
    unknown_keys = set(doc) - set(_DOC_KEYS)
    if unknown_keys:
        raise TopologyFormatError(f"unknown keys in topology document: {sorted(unknown_keys)}")

    raw_sensors = doc.get("sensors")
    if not isinstance(raw_sensors, list):
        raise TopologyFormatError("'sensors' must be a list of sensor ids")
    sensors: list[SensorId] = []
    seen: set[SensorId] = set()
    for s in raw_sensors:
        if not isinstance(s, str) or not s:
            raise TopologyFormatError(f"sensor id must be a non-empty string, got {s!r}")
        if s in seen:
            raise TopologyFormatError(f"duplicate sensor id {s!r}")
        seen.add(s)
        sensors.append(s)

    raw_edges = doc.get("kljn_edges", [])
    if not isinstance(raw_edges, list):
        raise TopologyFormatError("'kljn_edges' must be a list of [id, id] pairs")
    edges: list[tuple[SensorId, SensorId]] = []  # Topology canonicalizes and dedups
    for e in raw_edges:
        if not isinstance(e, list) or len(e) != 2:
            raise TopologyFormatError(f"KLJN edge must be a pair, got {e!r}")
        a, b = e
        for endpoint in (a, b):
            if not isinstance(endpoint, str) or endpoint not in seen:
                raise TopologyFormatError(f"KLJN edge {e!r} references unknown sensor {endpoint!r}")
        if a == b:
            raise TopologyFormatError(f"KLJN edge {e!r} is a self-loop")
        edges.append((a, b))

    wireless = None
    if "wireless_sets" in doc:
        raw_wireless = doc["wireless_sets"]
        if not isinstance(raw_wireless, dict):
            raise TopologyFormatError("'wireless_sets' must be an object mapping id -> [id...]")
        wireless = {}
        for s, peers in raw_wireless.items():
            if not isinstance(peers, list):
                raise TopologyFormatError(f"wireless set of {s!r} must be a list")
            for p in peers:
                if not isinstance(p, str) or not p:
                    raise TopologyFormatError(
                        f"wireless peer of {s!r} must be a non-empty string, got {p!r}"
                    )
            wireless[s] = frozenset(peers)

    return Topology(tuple(sensors), edges, wireless)


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
    """Check every topology invariant; violations are data, not exceptions."""
    report = ValidationReport()
    known = t.sensor_set

    seen: set[SensorId] = set()
    for s in t.sensors:
        if not isinstance(s, str) or not s:
            report.errors.append(
                ValidationIssue("empty-id", f"sensor id {s!r} is not a non-empty string", (str(s),))
            )
        elif s in seen:
            report.errors.append(
                ValidationIssue("duplicate-sensor", f"sensor id {s!r} appears more than once", (s,))
            )
        seen.add(s)

    for a, b in sorted(t.kljn_edges):
        if a == b:
            report.errors.append(
                ValidationIssue("self-loop", f"KLJN edge {a!r}-{b!r} is a self-loop", (a,))
            )
        for endpoint in (a, b):
            if endpoint not in known:
                report.errors.append(
                    ValidationIssue(
                        "unknown-sensor",
                        f"KLJN edge ({a!r}, {b!r}) references unknown sensor {endpoint!r}",
                        (a, b),
                    )
                )

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
            overlap = peers & t.kljn_set(s) if s in known else frozenset()
            for p in sorted(overlap):
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
