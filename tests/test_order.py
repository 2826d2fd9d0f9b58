"""One sensor order: a topology sorts its sensors when it is built.

A network listed in any order, its edges shuffled or reversed and its
wireless sets in any order, builds the same topology as the sorted listing,
and everything computed from it is the same: the trust matrix's arrays bit
for bit, every ranking, every key record and the state file byte for byte.
A document with more than one fault still names the first in the order it
gives.
"""

import json

import numpy as np
import pytest

from kextrust.cli import main
from kextrust.kljn import WireSubstitutionAttacker
from kextrust.orchestrator import (
    apply_kill_event,
    establish_network_keys,
    state_to_json,
    trust_report,
)
from kextrust.topology import (
    Topology,
    TopologyFormatError,
    bundled_topology,
    parse_topology,
    topology_to_doc,
)
from kextrust.trust import coefficients_closed_form, rank_peers, trust_matrix

COEF = coefficients_closed_form()

# ids that JSON escapes or CSV quotes, and ids that sort among and around them
ODD_IDS = ('q"1', "back\\slash", "é", "☃snow", "tab\there", "a,b", "Z", "s")


def _network(seed: int):
    """A random network as document parts in sorted order: sensors, wired
    links as sorted pairs, and explicit symmetric wireless sets (or
    ``None``), plus a few sensors to kill."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 24))
    plain = [f"s{k:03d}" for k in range(n)]
    pool = [*ODD_IDS, *plain] if seed % 2 else plain
    sensors = sorted(rng.choice(pool, size=n, replace=False).tolist())
    p = float(rng.uniform(0.05, 0.4))
    edges = [(a, b) for x, a in enumerate(sensors) for b in sensors[x + 1:] if rng.random() < p]
    sets = None
    if seed % 3:
        wired = set(edges)
        sets = {s: [] for s in sensors}
        for x, a in enumerate(sensors):
            for b in sensors[x + 1:]:
                if (a, b) not in wired and rng.random() < 0.5:
                    sets[a].append(b)
                    sets[b].append(a)
    killed = rng.choice(sensors, size=int(rng.integers(0, 3)), replace=False).tolist()
    return sensors, edges, sets, killed


def _relisted(rng, sensors, edges, sets):
    """The same network listed in another order: sensors shuffled, edges
    shuffled or reversed, each edge's ends swapped at random, set owners and
    peers shuffled."""
    shuffled = rng.permutation(sensors).tolist()
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    edges = edges[::-1] if rng.random() < 0.5 else [edges[k] for k in rng.permutation(len(edges))]
    if sets is not None:
        sets = {s: rng.permutation(sets[s]).tolist() for s in rng.permutation(list(sets)).tolist()}
    return shuffled, edges, sets


def _assert_same_matrix(m, other):
    assert m.order == other.order
    for name in ("table", "base", "row_start", "cols", "ids"):
        a, b = getattr(m, name), getattr(other, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(12))
def test_listing_order_does_not_count(seed):
    sensors, edges, sets, killed = _network(seed)
    t = Topology(sensors, edges, sets)
    assert t.sensors == tuple(sensors)
    assert topology_to_doc(t)["kljn_edges"] == [list(e) for e in edges]
    m = trust_matrix(t, COEF, frozenset(killed))
    state = establish_network_keys(t, 7, 8)
    for s in killed:
        apply_kill_event(state, s, note=f"alarm {s}")
    rng = np.random.default_rng(seed + 100)
    for _ in range(3):
        other = Topology(*_relisted(rng, sensors, edges, sets))
        assert other == t and other.sensors == t.sensors
        if sets is None:  # explicit sets are a dict, so such a topology has no hash
            assert hash(other) == hash(t)
        assert parse_topology(json.dumps(topology_to_doc(other))) == t
        _assert_same_matrix(trust_matrix(other, COEF, frozenset(killed)), m)
        for i in sensors:
            assert rank_peers(other, COEF, set(killed), i) == rank_peers(t, COEF, set(killed), i)
        other_state = establish_network_keys(other, 7, 8)
        for s in killed:
            apply_kill_event(other_state, s, note=f"alarm {s}")
        assert list(other_state.records_sorted()) == list(state.records_sorted())
        assert state_to_json(other_state) == state_to_json(state)
        assert list(trust_report(other_state, COEF).order) == sensors


def test_report_on_a_state_that_lists_its_sensors_unsorted(tmp_path, capsys):
    """kextrust writes a state file's sensors and wired links sorted, and its
    k-th key belongs to the k-th link in sorted order; a file that lists its
    sensors and links in another order reports exactly as the sorted file
    does."""
    attackers = {("A", "D"): WireSubstitutionAttacker(start_period=0, seed=1)}
    state = establish_network_keys(bundled_topology(), 42, 16, attackers=attackers)
    path = tmp_path / "state.json"
    path.write_text(state_to_json(state), encoding="utf-8")
    assert main(["kill", str(path), "H"]) == 0
    assert main(["report", str(path)]) == 0
    report = capsys.readouterr().out
    statuses = {tuple(r["pair"]): r["status"] for r in json.loads(report)["records"]}
    assert [statuses[e] for e in sorted(state.topology.kljn_edges)] == [
        "ok", "failed", "ok", "ok", "ok", "ok"]
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["topology"]["sensors"].reverse()
    doc["topology"]["kljn_edges"] = [[b, a] for a, b in reversed(doc["topology"]["kljn_edges"])]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out == report
    # the keys are read in sorted link order, not in the order the links are listed
    doc["kljn_keys"].reverse()
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(path)]) == 0
    assert capsys.readouterr().out != report


@pytest.mark.parametrize("sensors, message", [
    (["z", "", "a", "a"], "sensor id must be a non-empty string, got ''"),
    (["z", "z", "a", ""], "duplicate sensor id 'z'"),
    (["z", "b", "z", "a", "a", "b"], "duplicate sensor id 'z'"),
    (["z", "z", 3], "duplicate sensor id 'z'"),
    ([3, "z", "z"], "sensor id must be a non-empty string, got 3"),
    (["b", "a", None, "a"], "sensor id must be a non-empty string, got None"),
])
def test_first_fault_in_the_given_order(sensors, message):
    with pytest.raises(TopologyFormatError) as exc:
        Topology(sensors, [])
    assert str(exc.value) == message

