import copy
import pickle
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from kextrust.topology import (
    Topology,
    TopologyFormatError,
    UnknownSensorError,
    bundled_topology_path,
    derive_wireless_sets,
    parse_topology,
    topology_from_doc,
    topology_to_doc,
    validate,
)
from reference_data import (
    EXCHANGE_SETS,
    SENSORS,
    random_topology,
    topology_reference,
    validate_reference,
)


def test_parse_bundled_network_matches_reference_sets(fig2):
    assert list(fig2.sensors) == SENSORS
    assert len(fig2.kljn_edges) == 6
    for sensor, (kljn, _) in EXCHANGE_SETS.items():
        assert fig2.kljn_set(sensor) == frozenset(kljn), sensor


def test_parse_single_sensor_document():
    t = parse_topology('{"sensors": ["A"], "kljn_edges": []}')
    assert t.sensors == ("A",)
    assert not t.kljn_edges


def test_parse_rejects_self_loop():
    with pytest.raises(TopologyFormatError, match="self-loop"):
        parse_topology('{"sensors": ["A"], "kljn_edges": [["A", "A"]]}')


def test_parse_rejects_duplicate_sensor():
    with pytest.raises(TopologyFormatError, match="duplicate"):
        parse_topology('{"sensors": ["A", "A"], "kljn_edges": []}')


def test_parse_rejects_unknown_edge_endpoint():
    with pytest.raises(TopologyFormatError, match="unknown sensor"):
        parse_topology('{"sensors": ["A", "B"], "kljn_edges": [["A", "Q"]]}')


def test_parse_reports_syntax_position():
    with pytest.raises(TopologyFormatError, match=r"line \d+, column \d+"):
        parse_topology('{"sensors": [')


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"sensors": "A"}',
        '{"sensors": ["A"], "kljn_edges": [["A"]]}',
        '{"sensors": [""], "kljn_edges": []}',
        '{"sensors": ["A"], "kljn_edges": [], "extra": 1}',
        '{"sensors": ["A"], "kljn_edges": [], "wireless_sets": []}',
        '{"sensors": ["A", "B"], "kljn_edges": [], "wireless_sets": {"A": [1, "B"]}}',
        '{"sensors": ["A"], "kljn_edges": [], "wireless_sets": {"A": [["x"]]}}',
        '{"sensors": ["A", "B"], "kljn_edges": [[["x"], "A"]]}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(TopologyFormatError):
        parse_topology(text)


def test_directed_duplicate_edges_collapse():
    t = parse_topology('{"sensors": ["A", "B"], "kljn_edges": [["A", "B"], ["B", "A"]]}')
    assert t.kljn_edges == frozenset({("A", "B")})


def test_derived_wireless_sets_match_reference(fig2):
    for sensor, (_, wireless) in EXCHANGE_SETS.items():
        assert fig2.wireless_set(sensor) == frozenset(wireless), sensor
    # the three wireless-only sensors see all nine peers
    for sensor in ("H", "I", "J"):
        assert len(fig2.wireless_set(sensor)) == 9


def test_derive_single_sensor_network():
    t = derive_wireless_sets(Topology(("A",), frozenset()))
    assert t.wireless_set("A") == frozenset()


def test_derive_refuses_explicit_sets(fig2):
    with pytest.raises(ValueError, match="explicit wireless sets"):
        derive_wireless_sets(fig2)


def test_validate_bundled_network_clean(fig2):
    report = validate(fig2)
    assert report.ok
    assert not report.warnings


def test_validate_flags_kljn_wireless_overlap():
    t = Topology(
        ("A", "B"),
        frozenset({("A", "B")}),
        {"A": frozenset({"B"}), "B": frozenset()},
    )
    report = validate(t)
    assert not report.ok
    issue = next(i for i in report.errors if i.code == "kljn-wireless-overlap")
    assert set(issue.entities) == {"A", "B"}


def test_validate_flags_unknown_wireless_member():
    t = Topology(("A", "B"), frozenset(), {"A": frozenset({"Z"}), "B": frozenset()})
    assert "unknown-sensor" in {issue.code for issue in validate(t).errors}


def test_validate_flags_self_in_wireless():
    t = Topology(("A",), frozenset(), {"A": frozenset({"A"})})
    assert "self-in-wireless" in {issue.code for issue in validate(t).errors}


@pytest.mark.parametrize(
    "sensors, edge, message",
    [
        (("A", "B", "A"), None, "duplicate sensor id 'A'"),
        (("A", ""), None, "sensor id must be a non-empty string, got ''"),
        (("A", 3), None, "sensor id must be a non-empty string, got 3"),
        (("A", "B"), ("A", "A"), "KLJN edge ('A', 'A') is a self-loop"),
        # endpoints are checked as given, before canonical ordering
        (("A", "B"), ("A", "Q"), "KLJN edge ('A', 'Q') references unknown sensor 'Q'"),
        (("A", "B"), ("Q", "A"), "KLJN edge ('Q', 'A') references unknown sensor 'Q'"),
        (("A", "B"), ("A", 5), "KLJN edge ('A', 5) references unknown sensor 5"),
        (("A", "B"), ("A", "B", "A"), "KLJN edge must be a pair, got ('A', 'B', 'A')"),
        (("A", "B"), "AB", "KLJN edge must be a pair, got 'AB'"),
    ],
)
def test_construction_refuses_what_the_model_excludes(sensors, edge, message):
    with pytest.raises(TopologyFormatError) as excinfo:
        Topology(sensors, frozenset({edge} if edge else ()))
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "sets, message",
    [
        ({"A": [1, "B"], "B": []}, "wireless peer of 'A' must be a non-empty string, got 1"),
        ({"A": ["B", ""], "B": []}, "wireless peer of 'A' must be a non-empty string, got ''"),
        ({"A": ["B"], 1: ["A"]}, "wireless set owner must be a non-empty string, got 1"),
        ({"A": ["B"], "": ["A"]}, "wireless set owner must be a non-empty string, got ''"),
        ({"A": ["B", None, 1, ""], "B": []},
         "wireless peer of 'A' must be a non-empty string, got None"),
    ],
)
def test_construction_refuses_wireless_ids_that_are_not_strings(sets, message):
    # validate would sort such a set and raise a bare TypeError
    with pytest.raises(TopologyFormatError) as excinfo:
        Topology(("A", "B"), (), sets)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("peers", ["BC", b"BC"])
def test_construction_refuses_a_string_as_a_peer_collection(peers):
    # a string would read as one peer per character
    with pytest.raises(TopologyFormatError) as excinfo:
        Topology(["A", "B", "C"], [], {"A": peers})
    message = f"wireless set of 'A' must be a collection of sensor ids, got {peers!r}"
    assert str(excinfo.value) == message


def test_edges_may_be_any_iterable_of_pairs():
    edges = (pair for pair in [("B", "A"), ("A", "B"), ["C", "B"]])
    t = Topology(["A", "B", "C"], edges)
    assert t.sensors == ("A", "B", "C")
    assert t.kljn_edges == frozenset({("A", "B"), ("B", "C")})
    assert t.kljn_set("B") == frozenset({"A", "C"})


def test_validate_warns_on_partial_wireless_coverage():
    t = Topology(("A", "B"), frozenset(), {"A": frozenset({"B"})})
    report = validate(t)
    assert report.ok
    assert any(w.code == "missing-wireless-entry" for w in report.warnings)


def test_peer_sets_examples(fig2):
    assert fig2.kljn_set("D") == frozenset({"A", "C", "E"})
    assert fig2.wireless_set("D") == frozenset({"B", "F", "G", "H", "I", "J"})
    assert fig2.kljn_set("J") == frozenset()
    assert len(fig2.wireless_set("J")) == 9


def test_peer_sets_single_sensor():
    t = Topology(("A",), frozenset())
    assert t.kljn_set("A") == frozenset()
    assert t.wireless_set("A") == frozenset()


def test_peer_sets_unknown_sensor(fig2):
    with pytest.raises(UnknownSensorError):
        fig2.kljn_set("Q")
    with pytest.raises(UnknownSensorError):
        fig2.wireless_set("Q")


def test_serialize_parse_round_trip(fig2):
    assert topology_from_doc(topology_to_doc(fig2)) == fig2
    bare = Topology(fig2.sensors, fig2.kljn_edges)
    assert topology_from_doc(topology_to_doc(bare)) == bare


def test_serialize_key_order(fig2):
    doc = topology_to_doc(fig2)
    assert list(doc) == ["sensors", "kljn_edges", "wireless_sets"]
    assert doc["sensors"] == sorted(doc["sensors"])


def test_bundled_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        bundled_topology_path("nope")


def test_random_topologies_round_trip_and_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = derive_wireless_sets(random_topology(rng, int(rng.integers(1, 30))))
        assert topology_from_doc(topology_to_doc(t)) == t
        assert validate(t).ok
        n = len(t.sensors)
        for i in t.sensors:
            scanned = frozenset(b if a == i else a for a, b in t.kljn_edges if i in (a, b))
            assert t.kljn_set(i) == scanned
            assert t.kljn_set(i) is t.kljn_set(i)  # built once, then memoized
            kljn, wireless = t.kljn_set(i), t.wireless_set(i)
            assert not kljn & wireless
            assert i not in wireless
            assert len(kljn) + len(wireless) == n - 1


class TestComplementView:
    """Under the complement rule ``wireless_set(i)`` is a read-only view that
    must behave as the frozenset ``sensor_set - kljn_set(i) - {i}``."""

    @staticmethod
    def _topologies():
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            yield rng, random_topology(rng, n)

    def test_view_behaves_as_the_frozenset(self):
        for rng, t in self._topologies():
            probes = [*t.sensor_set, "ghost0", "ghost1", "nobody"]
            for i in t.sensor_set:
                view = t.wireless_set(i)
                ref = t.sensor_set - t.kljn_set(i) - {i}
                assert view == ref and ref == view and not view != ref
                assert len(view) == len(ref)
                assert [p for p in probes if p in view] == [p for p in probes if p in ref]
                assert list(view) == [s for s in t.sensors if s in ref]
                for other in (
                    frozenset(), ref, t.sensor_set, {i},
                    {str(p) for p in rng.choice(probes, size=int(rng.integers(1, 8)))},
                ):
                    for op in ("__and__", "__or__", "__sub__", "__xor__"):
                        got = getattr(view, op)(other)
                        assert type(got) is frozenset and got == getattr(ref, op)(other), op
                    assert other - view == other - ref
                    assert (view <= other) == (ref <= other)
                    assert (view >= other) == (ref >= other)
                    assert view.isdisjoint(other) == ref.isdisjoint(other)

    def test_view_is_unhashable(self, fig2):
        view = Topology(fig2.sensors, fig2.kljn_edges).wireless_set("A")
        with pytest.raises(TypeError):
            hash(view)
        assert frozenset(view) == fig2.wireless_set("A")

    def test_explicit_sets_stay_frozensets(self):
        for _, t in self._topologies():
            derived = derive_wireless_sets(t)
            for i in t.sensor_set:
                assert type(derived.wireless_set(i)) is frozenset
                assert derived.wireless_set(i) == t.wireless_set(i)

    def test_unknown_sensor(self):
        t = Topology(("A", "B", "C"), frozenset({("A", "C")}))
        assert t.wireless_set("A") == {"B"}
        for _ in range(2):  # an unknown id is never memoized
            with pytest.raises(UnknownSensorError):
                t.wireless_set("ghost")
            with pytest.raises(UnknownSensorError):
                t.kljn_set("ghost")


class TestValueSemantics:
    """A topology compares, hashes, prints and refuses changes by
    ``(sensors, kljn_edges, wireless_sets)``."""

    def test_equality_and_hash(self):
        t = Topology(("A", "B", "C"), [("B", "A"), ["A", "B"]])
        same = Topology(["A", "B", "C"], {("A", "B")})
        assert t == same and hash(t) == hash(same)
        assert t != Topology(("A", "B", "C"), [("A", "C")])
        listed = Topology(("C", "B", "A"), [("B", "A")])  # listing order does not count
        assert t == listed and hash(t) == hash(listed) and listed.sensors == ("A", "B", "C")
        assert t != Topology(("A", "B", "C"), [("A", "B")], {})
        assert t.__eq__(("A", "B", "C")) is NotImplemented
        with pytest.raises(TypeError):  # explicit sets are a dict
            hash(Topology(("A", "B"), [], {"A": ["B"]}))

    def test_repr(self):
        t = Topology(("A", "B", "C"), [("B", "A")])
        assert repr(t) == ("Topology(sensors=('A', 'B', 'C'), kljn_edges=frozenset({('A', 'B')}),"
                           " wireless_sets=None)")
        assert repr(Topology(("A",), [], {"A": []})) == (
            "Topology(sensors=('A',), kljn_edges=frozenset(), wireless_sets={'A': frozenset()})")

    def test_immutable(self, fig2):
        for name in ("sensors", "kljn_edges", "wireless_sets", "index", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(fig2, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(fig2, name)
        index = fig2.index
        for array in (index.links, index.peer_start, index.peer_positions):
            assert not array.flags.writeable
        with pytest.raises(TypeError):
            index.positions["A"] = 5
        assert weakref.ref(fig2)() is fig2

    def test_copy_and_pickle(self, fig2):
        for t in (fig2, Topology(fig2.sensors, fig2.kljn_edges)):
            for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert other == t and other.kljn_set("D") == t.kljn_set("D")


class _Pair(tuple):
    """A tuple-subclass edge: the edge scan takes it as a pair."""


class _Lookalike:
    """Not a str, but hashes and compares equal to the id it wraps."""

    def __init__(self, s: str):
        self.s = s

    def __hash__(self):
        return hash(self.s)

    def __eq__(self, other):
        return other == self.s

    def __repr__(self):
        return f"_Lookalike({self.s!r})"


class _Id(str):
    """A str-subclass id: the sensor and edge checks take it as an id."""


_ALPHABET = list("abcXYZ019,_\u00e9")
_SIZES = (0, 1, 2, 3, 5, 8, 13, 40, 100, 300)


def _random_ids(rng, n: int) -> list[str]:
    ids: set[str] = set()
    while len(ids) < n:
        ids.add("".join(_ALPHABET[k] for k in rng.integers(0, len(_ALPHABET), rng.integers(1, 5))))
    return [str(s) for s in rng.permutation(sorted(ids))]


def _random_document(rng, n: int, odd: bool):
    """Sensors, edges and (or ``None``) explicit sets of a random valid
    document.  Edges repeat and reverse, and come as lists, tuples and, if
    ``odd``, tuple subclasses with str-subclass ends; an ``odd`` document
    also has a str-subclass sensor id."""
    sensors = _random_ids(rng, n)
    if odd and n:
        k = int(rng.integers(0, n))
        sensors[k] = _Id(sensors[k])
    edges = []
    if n >= 2:
        for a, b in rng.integers(0, n, (int(rng.integers(0, 3 * n + 1)), 2)):
            if a != b:
                edges.append((sensors[a], sensors[b]))
        for k in rng.integers(0, len(edges), len(edges) // 3) if edges else ():
            a, b = edges[k]
            edges.append((b, a) if rng.random() < 0.5 else (a, b))
    kinds = (list, tuple, _Pair) if odd else (list, tuple)
    rendered = []
    for a, b in edges:
        if odd and rng.random() < 0.2:
            a = _Id(a)
        rendered.append(kinds[rng.integers(0, len(kinds))]((a, b)))
    sets = None
    if rng.random() < 0.5:
        sets = {s: [sensors[k] for k in rng.integers(0, n, rng.integers(0, 4))]
                for s in sensors if rng.random() < 0.9}
    return sensors, rendered, sets


def _edge_feeds(edges):
    """The same edges as a list, a generator and a frozenset."""
    yield list(edges)
    yield (e for e in edges)
    yield frozenset(e for e in edges if isinstance(e, tuple))


def _outcome(build, *args):
    try:
        built = build(*args)
    except TopologyFormatError as exc:
        return str(exc)
    return built


class TestConstructionOracle:
    """Construction checks the sets, sensors and edges in the given order
    and indexes once; the per-item checks of
    :func:`reference_data.topology_reference`, which builds no index, are
    the oracle for both."""

    def test_valid_documents_give_the_reference_sets(self):
        rng = np.random.default_rng(2024)
        for n in _SIZES:
            for trial in range(6 if n < 100 else 2):
                sensors, edges, sets = _random_document(rng, n, odd=trial % 2 == 1)
                for feed in _edge_feeds(edges):
                    feed = list(feed)
                    t = Topology(sensors, iter(feed), sets)
                    ref = topology_reference(sensors, feed, sets)
                    assert t.sensors == ref.sensors and t.sensor_set == ref.sensor_set
                    assert t.kljn_edges == ref.kljn_edges
                    assert t.wireless_sets == ref.wireless_sets
                    assert len(t.index.links) == len(ref.kljn_edges)
                    assert t.index.positions == {s: p for p, s in enumerate(sorted(sensors))}
                    for s in sensors:
                        assert t.kljn_set(s) == ref.kljn_sets[s], s
                        if sets is not None:
                            assert t.wireless_set(s) == ref.wireless_sets.get(s, frozenset())

    @staticmethod
    def _inject(rng, sensors, edges, sets):
        """One fault of a random kind at a random position."""
        n = len(sensors)
        some = sensors[rng.integers(0, n)] if n else "X"
        kind = int(rng.integers(0, 8))
        if kind == 0:  # sensor id that is not a non-empty string
            bad = [7, None, ["x"], b"s", ""][rng.integers(0, 5)]
            sensors.insert(int(rng.integers(0, n + 1)), bad)
        elif kind == 1 and n:  # duplicate id
            sensors.insert(int(rng.integers(0, n + 1)), some)
        elif kind == 2:  # edge that is not a pair
            bad = ["ab", (some,), [some, some, some], 5, {some: 1}][rng.integers(0, 5)]
            edges.insert(int(rng.integers(0, len(edges) + 1)), bad)
        elif kind == 3:  # unknown endpoint
            bad = ["ghost", 5, ["x"], None][rng.integers(0, 4)]
            edge = [some, bad] if rng.random() < 0.5 else (bad, some)
            edges.insert(int(rng.integers(0, len(edges) + 1)), edge)
        elif kind == 4 and n:  # self-loop
            edges.insert(int(rng.integers(0, len(edges) + 1)), [some, some])
        elif kind == 5 and sets is not None:  # wireless owner that is not a non-empty string
            items = list(sets.items())
            items.insert(int(rng.integers(0, len(items) + 1)), ([3, ""][rng.integers(0, 2)], []))
            sets.clear()
            sets.update(items)
        elif kind == 6 and sets:  # wireless peer that is not a non-empty string
            owner = list(sets)[rng.integers(0, len(sets))]
            sets[owner].insert(int(rng.integers(0, len(sets[owner]) + 1)),
                               [1, "", None][rng.integers(0, 3)])
        else:  # an unknown endpoint at the end
            edges.append((some, "ghost"))

    def test_faulty_documents_give_the_reference_message(self):
        rng = np.random.default_rng(7)
        for n in _SIZES:
            for trial in range(40 if n < 100 else 10):
                sensors, edges, sets = _random_document(rng, n, odd=trial % 3 == 2)
                for _ in range(int(rng.integers(1, 3))):
                    self._inject(rng, sensors, edges, sets)
                got = _outcome(Topology, sensors, iter(edges), sets)
                want = _outcome(topology_reference, sensors, iter(edges), sets)
                assert isinstance(want, str) and got == want

    def test_endpoint_that_only_equals_a_sensor_id_is_unknown(self):
        """An endpoint that is not a str but hashes and compares equal to a
        sensor id is refused as unknown, as the reference refuses it."""
        a, b = _Lookalike("A"), _Lookalike("B")
        for edge, end in [(("A", b), b), ((a, "B"), a), (_Pair(("A", b)), b)]:
            got = _outcome(Topology, ["A", "B"], [edge])
            assert got == _outcome(topology_reference, ["A", "B"], [edge])
            assert got == f"KLJN edge {edge!r} references unknown sensor {end!r}"


class TestValidateOracle:
    """:func:`validate` checks the explicit sets in one sorted pass, with the
    wired peers in a set found from the wired links; the per-owner scan of
    :func:`reference_data.validate_reference` is the oracle for its report."""

    KINDS = ("unknown-owner", "unknown-peer", "self", "wired-peer", "missing")

    @staticmethod
    def _clean(rng, n: int):
        sensors = [f"s{k:02d}" for k in rng.permutation(n)]
        edges = {tuple(sorted((sensors[a], sensors[b])))
                 for a, b in rng.integers(0, n, (n, 2)) if a != b}
        sets = {s: set() for s in sensors}
        for x, a in enumerate(sensors):
            for b in sensors[x + 1:]:
                if tuple(sorted((a, b))) not in edges and rng.random() < 0.3:
                    sets[a].add(b)
                    sets[b].add(a)
        return sensors, sorted(edges), sets

    @staticmethod
    def _inject(rng, kind, sensors, edges, sets):
        some = sensors[rng.integers(0, len(sensors))]
        if kind == "unknown-owner":
            sets[f"ghost{rng.integers(0, 3)}"] = {some}
        elif kind == "unknown-peer" and some in sets:
            sets[some].add(f"ghost{rng.integers(0, 3)}")
        elif kind == "unknown-peers" and some in sets:
            sets[some].update(f"ghost{k}" for k in rng.integers(0, 10**6, 5))
        elif kind == "self" and some in sets:
            sets[some].add(some)
        elif kind == "wired-peer" and edges:
            a, b = edges[rng.integers(0, len(edges))]
            if rng.random() < 0.5:
                a, b = b, a
            if a in sets:
                sets[a].add(b)
        elif kind == "missing":
            sets.pop(some, None)

    def test_reports_equal_the_reference(self):
        rng = np.random.default_rng(31)
        faulty = 0
        for trial in range(306):
            # the last six trials have the benchmark's shape, n = 200 and 30%
            # reach: one clean, then every fault and a set with five random
            # unknown peers, whose set order is almost never their sorted order
            big = trial >= 300
            sensors, edges, sets = self._clean(rng, 200 if big else int(rng.integers(1, 40)))
            if trial % 6 == 0:
                picks = []
            elif big:
                picks = [*self.KINDS, "unknown-peers"]
            else:
                picks = list(rng.choice(
                    self.KINDS, size=int(rng.integers(1, 4)), replace=trial % 2 == 0))
            for kind in picks:
                self._inject(rng, str(kind), sensors, edges, sets)
            t = Topology(sensors, edges, sets)
            report = validate(t)
            assert report == validate_reference(t)
            faulty += not report.ok
            if not picks:
                assert report.ok and not report.warnings
        assert faulty > 100
