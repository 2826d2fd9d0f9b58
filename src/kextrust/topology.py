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
from collections.abc import Mapping, Set
from dataclasses import FrozenInstanceError, dataclass, field
from functools import partial
from importlib import resources
from types import MappingProxyType

import numpy as np

SensorId = str

# Order of keys in the serialized topology document.
_DOC_KEYS = ("sensors", "kljn_edges", "wireless_sets")


class TopologyFormatError(ValueError):
    """Raised when a topology document is malformed."""


class UnknownSensorError(ValueError):
    """Raised when an operation references a sensor not in the topology."""


class _PeerSets(dict):
    """Memo of sensor -> frozenset of its wired peers, built from its slice
    of the index's peer positions on first lookup.  The CSR arrays are
    copied to Python lists once, since slicing a list per lookup is cheaper
    than slicing an array.

    Only known sensors are stored; any other id raises
    :class:`UnknownSensorError` on every lookup.
    """

    def __init__(self, sensors: tuple[SensorId, ...], index: TopologyIndex):
        super().__init__()
        self._position = index.positions.get
        self._start = index.peer_start.tolist()
        self._peers = index.peer_positions.tolist()
        self._id = sensors.__getitem__

    def __missing__(self, i: SensorId) -> frozenset[SensorId]:
        p = self._position(i)
        if p is None:
            raise UnknownSensorError(f"unknown sensor {i!r}")
        peers = self[i] = frozenset(map(self._id, self._peers[self._start[p]:self._start[p + 1]]))
        return peers


class _ComplementSet(Set):
    """The wireless peers of ``i`` under the complement rule, as a read-only
    view: every known sensor except ``i`` and its wired peers.

    ``len`` and ``in`` take O(1); iteration walks the sensors in sorted
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
    """``sets`` with each peer collection made a frozenset, checked in one
    pass in the given order: an owner or a peer that is not a non-empty
    string, hashable or not, or a peer collection that is a string (which
    would read as one peer per character), raises
    :class:`TopologyFormatError` naming the first such owner or peer."""
    frozen = {}
    for s, peers in sets.items():
        if not isinstance(s, str) or not s:
            raise TopologyFormatError(f"wireless set owner must be a non-empty string, got {s!r}")
        if isinstance(peers, (str, bytes)):
            raise TopologyFormatError(
                f"wireless set of {s!r} must be a collection of sensor ids, got {peers!r}"
            )
        if not isinstance(peers, (set, frozenset)):
            peers = list(peers)
        for p in peers:
            if not isinstance(p, str) or not p:
                raise TopologyFormatError(
                    f"wireless peer of {s!r} must be a non-empty string, got {p!r}"
                )
        frozen[s] = frozenset(peers)
    return frozen


@dataclass(frozen=True, eq=False)
class TopologyIndex:
    """The integer index of a topology, built once at construction.

    ``positions`` is a read-only mapping of each sensor to its position in
    ``Topology.sensors``, its rank among the ids.  ``links`` is an (E, 2)
    ``intp`` array holding each wired link once as (lower position, higher
    position), sorted.  ``peer_start`` and ``peer_positions`` list the wired
    peers of each sensor by position (CSR): those of the sensor at position
    p are ``peer_positions[peer_start[p]:peer_start[p + 1]]``.  All three
    arrays are read-only.
    """

    positions: Mapping[SensorId, int]
    links: np.ndarray
    peer_start: np.ndarray
    peer_positions: np.ndarray

    @classmethod
    def build(cls, positions: dict[SensorId, int], ends: np.ndarray) -> TopologyIndex:
        """The index of the (E, 2) endpoint positions ``ends`` of the edges as
        given, reversed and repeated edges included."""
        n = len(positions)
        a, b = ends[:, 0], ends[:, 1]
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        links = np.stack(np.divmod(keys, n), axis=1)
        # each link both ways, sorted by tail
        tails, peers = np.divmod(np.sort(np.concatenate((keys, links[:, 1] * n + links[:, 0]))), n)
        start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(tails, minlength=n), out=start[1:])
        for array in (links, start, peers):
            array.flags.writeable = False
        return cls(MappingProxyType(positions), links, start, peers)


def _sorted_positions(sensors: list) -> dict[SensorId, int]:
    """Each sensor's position among the sorted ids.  An id that is not a
    non-empty string, or that repeats one, raises :class:`TopologyFormatError`
    naming the first such id in the given order."""
    seen: set[SensorId] = set()
    for s in sensors:
        if not isinstance(s, str) or not s:
            raise TopologyFormatError(f"sensor id must be a non-empty string, got {s!r}")
        if s in seen:
            raise TopologyFormatError(f"duplicate sensor id {s!r}")
        seen.add(s)
    ids = sorted(sensors)
    positions = dict(zip(ids, range(len(ids))))
    return positions


def _edge_ends(edges, positions: dict[SensorId, int]) -> np.ndarray:
    """The (E, 2) positions of the endpoints of ``edges``, as given, checked
    in one pass in the given order.  An edge that is not a pair of two
    distinct sensors raises :class:`TopologyFormatError` naming the first
    such edge and its first fault."""
    scanned: list[int] = []
    get = positions.get
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise TopologyFormatError(f"KLJN edge must be a pair, got {e!r}")
        a, b = e
        pa = get(a) if isinstance(a, str) else None
        if pa is None:
            raise TopologyFormatError(f"KLJN edge {e!r} references unknown sensor {a!r}")
        pb = get(b) if isinstance(b, str) else None
        if pb is None:
            raise TopologyFormatError(f"KLJN edge {e!r} references unknown sensor {b!r}")
        if a == b:
            raise TopologyFormatError(f"KLJN edge {e!r} is a self-loop")
        scanned += pa, pb
    return np.array(scanned, dtype=np.intp).reshape(-1, 2)


class Topology:
    """Sensors plus wired KLJN links and (optional) explicit wireless sets.

    Construction refuses, with :class:`TopologyFormatError`, a wireless-set
    owner or peer that is not a non-empty string or a peer collection that
    is a string, a sensor id that is not a non-empty string or repeats one,
    and an edge that is not a pair of two distinct sensors of the topology.
    ``sensors`` holds the ids sorted, in whatever order they are given, and
    ``kljn_edges`` canonical sorted pairs, so link symmetry cannot be
    violated.  ``wireless_sets`` is ``None`` until sets are given explicitly
    or derived with :func:`derive_wireless_sets`; accessors fall back to the
    complement rule when it is ``None``.  :func:`validate` checks explicit
    sets against the sensors and the wired links.

    Construction checks the wireless sets, the sensors and the edges each
    in one pass in the given order, so a fault names the first bad item
    listed, and builds :class:`TopologyIndex` once.  ``kljn_edges`` is
    built from the index on its first read; each sensor's wired-peer
    frozenset on its first lookup.  Under the complement rule
    :meth:`wireless_set` returns an O(1) view over the index.  Topologies
    compare, hash and print by ``(sensors, kljn_edges, wireless_sets)`` and
    cannot be changed.
    """

    sensors: tuple[SensorId, ...]
    wireless_sets: dict[SensorId, frozenset[SensorId]] | None
    index: TopologyIndex
    sensor_set: frozenset[SensorId]

    def __init__(self, sensors, kljn_edges, wireless_sets=None):
        set_ = partial(object.__setattr__, self)
        # before the sensors: fixes which message a multi-fault document gets
        if wireless_sets is not None:
            wireless_sets = _frozen_wireless_sets(wireless_sets)
        set_("wireless_sets", wireless_sets)
        positions = _sorted_positions(list(sensors))
        set_("sensors", tuple(positions))
        set_("index", TopologyIndex.build(positions, _edge_ends(kljn_edges, positions)))
        set_("sensor_set", frozenset(positions))
        set_("_kljn_sets", _PeerSets(self.sensors, self.index))
        set_("_kljn_edges", None)

    @property
    def kljn_edges(self) -> frozenset[tuple[SensorId, SensorId]]:
        """Each wired link once, as a sorted pair of ids."""
        if self._kljn_edges is None:
            ids = self.sensors
            object.__setattr__(self, "_kljn_edges",
                               frozenset((ids[a], ids[b]) for a, b in self.index.links.tolist()))
        return self._kljn_edges

    def _key(self) -> tuple:
        return (self.sensors, self.kljn_edges, self.wireless_sets)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(sensors={self.sensors!r}, "
                f"kljn_edges={self.kljn_edges!r}, wireless_sets={self.wireless_sets!r})")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), self._key())

    def has_sensor(self, i: SensorId) -> bool:
        return i in self.sensor_set

    def kljn_set(self, i: SensorId) -> frozenset[SensorId]:
        """Wired-KLJN peers of ``i``, read off the index."""
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
    ids = t.sensors
    doc: dict = {"sensors": list(ids),
                 "kljn_edges": [[ids[a], ids[b]] for a, b in t.index.links.tolist()]}
    if t.wireless_sets is not None:
        doc["wireless_sets"] = {
            s: sorted(peers) for s, peers in sorted(t.wireless_sets.items())
        }
    return doc


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
    sensor without a set.  Violations are data, not exceptions.  The sets
    are checked in one pass over their owners in sorted order, so the
    report lists the faults in that order; the wired peers in a set are
    first found from the wired links, each read both ways."""
    report = ValidationReport()
    known = t.sensor_set

    if t.wireless_sets is not None:
        sets, ids = t.wireless_sets, t.sensors
        # owner -> wired peers its set names, from the links: cheaper than kljn_set per owner
        overlaps: dict[SensorId, list[SensorId]] = {}
        for a, b in t.index.links.tolist():
            for s, p in ((ids[a], ids[b]), (ids[b], ids[a])):
                if p in sets.get(s, ()):
                    overlaps.setdefault(s, []).append(p)
        for s in sorted(sets):
            peers = sets[s]
            if s not in known:
                report.errors.append(
                    ValidationIssue(
                        "unknown-sensor", f"wireless set given for unknown sensor {s!r}", (s,)
                    )
                )
                continue
            for p in sorted(peers - known):
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
            for p in sorted(overlaps.get(s, ())):
                report.errors.append(
                    ValidationIssue(
                        "kljn-wireless-overlap",
                        f"{p!r} is both a KLJN and a wireless peer of {s!r}",
                        (s, p),
                    )
                )
        missing = sorted(known - set(sets))
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
