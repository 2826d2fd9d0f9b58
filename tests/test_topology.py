import json

import numpy as np
import pytest

from kextrust.topology import (
    Topology,
    TopologyFormatError,
    UnknownSensorError,
    bundled_topology_path,
    derive_wireless_sets,
    parse_topology,
    serialize_topology,
    validate,
)
from reference_data import EXCHANGE_SETS, SENSORS, random_topology


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
    assert "unknown-sensor" in validate(t).error_codes()


def test_validate_flags_self_in_wireless():
    t = Topology(("A",), frozenset(), {"A": frozenset({"A"})})
    assert "self-in-wireless" in validate(t).error_codes()


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
    ],
)
def test_construction_refuses_wireless_ids_that_are_not_strings(sets, message):
    # validate would sort such a set and raise a bare TypeError
    with pytest.raises(TopologyFormatError) as excinfo:
        Topology(("A", "B"), (), sets)
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
    assert parse_topology(serialize_topology(fig2)) == fig2
    bare = Topology(fig2.sensors, fig2.kljn_edges)
    assert parse_topology(serialize_topology(bare)) == bare


def test_serialize_key_order(fig2):
    doc = json.loads(serialize_topology(fig2))
    assert list(doc) == ["sensors", "kljn_edges", "wireless_sets"]
    assert doc["sensors"] == sorted(doc["sensors"])


def test_bundled_path_unknown_name():
    with pytest.raises(FileNotFoundError):
        bundled_topology_path("nope")


def test_random_topologies_round_trip_and_invariants():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = derive_wireless_sets(random_topology(rng, int(rng.integers(1, 30))))
        assert parse_topology(serialize_topology(t)) == t
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
