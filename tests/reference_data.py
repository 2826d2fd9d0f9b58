"""Shared fixtures data: the ten-sensor example network and its published
values, random topology generators, the dense trust-matrix kernel, the
per-item topology checks and plain reference writers."""

import csv
import io
from collections import defaultdict
from types import SimpleNamespace

import numpy as np

from kextrust.topology import (
    Topology,
    TopologyFormatError,
    ValidationIssue,
    ValidationReport,
)
from kextrust.trust import geometric_partial_sum, rank_peers, trust, trust_matrix

# Exchange sets of the example network (sensors A..J, six wired links).
EXCHANGE_SETS = {
    "A": ({"B", "D"}, {"C", "E", "F", "G", "H", "I", "J"}),
    "B": ({"A", "E"}, {"C", "D", "F", "G", "H", "I", "J"}),
    "C": ({"D"}, {"A", "B", "E", "F", "G", "H", "I", "J"}),
    "D": ({"A", "C", "E"}, {"B", "F", "G", "H", "I", "J"}),
    "E": ({"B", "D"}, {"A", "C", "F", "G", "H", "I", "J"}),
    "F": ({"G"}, {"A", "B", "C", "D", "E", "H", "I", "J"}),
    "G": ({"F"}, {"A", "B", "C", "D", "E", "H", "I", "J"}),
    "H": (set(), {"A", "B", "C", "D", "E", "F", "G", "I", "J"}),
    "I": (set(), {"A", "B", "C", "D", "E", "F", "G", "H", "J"}),
    "J": (set(), {"A", "B", "C", "D", "E", "F", "G", "H", "I"}),
}

SENSORS = sorted(EXCHANGE_SETS)

# Published all-pairs trust values (gamma = 1 everywhere), row = evaluator.
# All entries are 3-decimal roundings except the 4-digit (J, G) entry.
EXPECTED_TRUST = {
    "A": [1, 1, 0.555, 1, 0.701, 0.346, 0.346, 0.173, 0.173, 0.173],
    "B": [1, 1, 0.346, 0.874, 1, 0.346, 0.346, 0.173, 0.173, 0.173],
    "C": [0.728, 0.376, 1, 1, 0.728, 0.346, 0.346, 0.173, 0.173, 0.173],
    "D": [1, 0.701, 1, 1, 1, 0.346, 0.346, 0.173, 0.173, 0.173],
    "E": [0.701, 1, 0.555, 1, 1, 0.346, 0.346, 0.173, 0.173, 0.173],
    "F": [0.376, 0.376, 0.346, 0.381, 0.376, 1, 1, 0.173, 0.173, 0.173],
    "G": [0.376, 0.376, 0.346, 0.381, 0.376, 1, 1, 0.173, 0.173, 0.173],
    "H": [0.376, 0.376, 0.346, 0.381, 0.376, 0.346, 0.346, 1, 0.173, 0.173],
    "I": [0.376, 0.376, 0.346, 0.381, 0.376, 0.346, 0.346, 0.173, 1, 0.173],
    "J": [0.376, 0.376, 0.346, 0.381, 0.376, 0.346, 0.3458, 0.173, 0.173, 1],
}


def expected_tolerance(i: str, j: str) -> float:
    # The lone 4-digit entry earns a tighter band.
    return 0.0005 if (i, j) == ("J", "G") else 0.001


def geometric_sum_naive(r: float, n: int) -> float:
    """r^1 + r^2 + ... + r^n term by term: the oracle for the closed form
    of :func:`kextrust.trust.geometric_partial_sum`."""
    total = 0.0
    term = 1.0
    for _ in range(n):
        term *= r
        total += term
    return total


def random_topology(rng, n_sensors: int, edge_prob: float | None = None) -> Topology:
    """Random network with well-formed undirected wired links."""
    sensors = tuple(f"s{k:03d}" for k in range(n_sensors))
    if edge_prob is None:
        edge_prob = float(rng.uniform(0.0, 0.5))
    edges = set()
    for a_idx in range(n_sensors):
        for b_idx in range(a_idx + 1, n_sensors):
            if rng.random() < edge_prob:
                edges.add((sensors[a_idx], sensors[b_idx]))
    return Topology(sensors, frozenset(edges))


def sparse_topology(rng, n_sensors: int, links: int) -> Topology:
    """``links`` random draws of a wired link among ``n_sensors`` sensors,
    self-loops and repeats dropped, like the benchmark's generated networks."""
    sensors = tuple(f"s{k:04d}" for k in range(n_sensors))
    picks = rng.integers(0, n_sensors, size=(links, 2))
    return Topology(sensors, frozenset((sensors[a], sensors[b]) for a, b in picks if a != b))


def with_explicit_wireless_sets(t: Topology, rng, reach: float) -> Topology:
    """``t`` with explicit, symmetric wireless sets that cover about ``reach``
    of its non-wired pairs."""
    sets = {s: set() for s in t.sensors}
    for x, a in enumerate(t.sensors):
        for b in t.sensors[x + 1:]:
            if b not in t.kljn_set(a) and rng.random() < reach:
                sets[a].add(b)
                sets[b].add(a)
    return Topology(t.sensors, t.kljn_edges, sets)


def topology_reference(sensors, kljn_edges, wireless_sets=None) -> SimpleNamespace:
    """What :class:`Topology` builds from its arguments, checked one item at
    a time in the given order: the oracle for its checks and its index.
    Returns ``sensors`` (sorted), ``sensor_set``, ``kljn_edges``,
    ``kljn_sets`` (sensor -> frozenset of wired peers) and
    ``wireless_sets``, or raises :class:`TopologyFormatError` with the
    message the topology must give."""
    if wireless_sets is not None:
        frozen = {}
        for s, peers in wireless_sets.items():
            if not isinstance(s, str) or not s:
                raise TopologyFormatError(
                    f"wireless set owner must be a non-empty string, got {s!r}")
            for p in peers:
                if not isinstance(p, str) or not p:
                    raise TopologyFormatError(
                        f"wireless peer of {s!r} must be a non-empty string, got {p!r}")
            frozen[s] = frozenset(peers)
        wireless_sets = frozen
    sensors = tuple(sensors)
    seen = set()
    for s in sensors:
        if not isinstance(s, str) or not s:
            raise TopologyFormatError(f"sensor id must be a non-empty string, got {s!r}")
        if s in seen:
            raise TopologyFormatError(f"duplicate sensor id {s!r}")
        seen.add(s)
    edges = list(kljn_edges)
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise TopologyFormatError(f"KLJN edge must be a pair, got {e!r}")
        a, b = e
        for end in (a, b):
            if not isinstance(end, str) or end not in seen:
                raise TopologyFormatError(f"KLJN edge {e!r} references unknown sensor {end!r}")
        if a == b:
            raise TopologyFormatError(f"KLJN edge {e!r} is a self-loop")
    canonical = frozenset((a, b) if a < b else (b, a) for a, b in edges)
    peers = defaultdict(set)
    for a, b in canonical:
        peers[a].add(b)
        peers[b].add(a)
    return SimpleNamespace(
        sensors=tuple(sorted(sensors)),
        sensor_set=frozenset(sensors),
        kljn_edges=canonical,
        kljn_sets={s: frozenset(peers[s]) for s in sensors},
        wireless_sets=wireless_sets,
    )


def validate_reference(t: Topology) -> ValidationReport:
    """The report of :func:`kextrust.topology.validate`, from a scan of every
    explicit set in sorted order that tests each peer on its own and reads
    the wired peers through ``kljn_set``: the oracle for its one pass."""
    report = ValidationReport()
    known = t.sensor_set
    if t.wireless_sets is not None:
        for s in sorted(t.wireless_sets):
            peers = t.wireless_sets[s]
            if s not in known:
                report.errors.append(ValidationIssue(
                    "unknown-sensor", f"wireless set given for unknown sensor {s!r}", (s,)))
                continue
            for p in sorted(peers):
                if p not in known:
                    report.errors.append(ValidationIssue(
                        "unknown-sensor", f"wireless set of {s!r} contains unknown sensor {p!r}",
                        (s, p)))
            if s in peers:
                report.errors.append(ValidationIssue(
                    "self-in-wireless", f"sensor {s!r} lists itself as a wireless peer", (s,)))
            for p in sorted(peers & t.kljn_set(s)):
                report.errors.append(ValidationIssue(
                    "kljn-wireless-overlap", f"{p!r} is both a KLJN and a wireless peer of {s!r}",
                    (s, p)))
        missing = sorted(known - set(t.wireless_sets))
        if missing:
            report.warnings.append(ValidationIssue(
                "missing-wireless-entry",
                f"no explicit wireless set for {missing} (treated as empty)", tuple(missing)))
    return report


def rank_peers_reference(t: Topology, coef, killed, i) -> list:
    """The peers of ``i`` with their scalar ``trust``, taken in id order and
    sorted on the key (minus the value, not a live wired peer): the oracle
    for the order of :func:`kextrust.trust.rank_peers`, which sorts once by
    value after listing the live wired peers first."""
    live_wired = t.kljn_set(i) - killed
    scored = [(j, trust(t, coef, killed, i, j)) for j in t.sensors if j != i]
    return sorted(scored, key=lambda p: (-p[1], p[0] not in live_wired))


def _partial_sums(r: float, counts: np.ndarray) -> np.ndarray:
    table = np.array([geometric_partial_sum(r, k) for k in range(int(counts.max(initial=0)) + 1)])
    return table[counts]


def trust_matrix_dense_reference(t: Topology, coef, killed=frozenset()) -> SimpleNamespace:
    """All-pairs trust from dense n x n count arrays: K as the adjacency
    product ``adj @ adj`` (float32, exact for n < 2**24), W and Z as full
    arrays, each looked up in a partial-sum table and summed a, b, c, as
    ``order`` and the dense float64 ``values``.  The oracle for the
    value-id build of :func:`kextrust.trust.trust_matrix`, whose blocks
    must equal it bit for bit."""
    order = list(t.sensors)
    n = len(order)
    idx = {s: p for p, s in enumerate(order)}

    ends = np.array([(idx[a], idx[b]) for a, b in t.kljn_edges], dtype=np.intp).reshape(-1, 2)
    adj = np.zeros((n, n), dtype=np.float32)
    adj[ends[:, 0], ends[:, 1]] = 1.0
    adj[ends[:, 1], ends[:, 0]] = 1.0
    wired = adj.astype(bool)

    k_mat = (adj @ adj).astype(np.int32)
    degree = wired.sum(axis=1, dtype=np.int32)
    w_mat = degree[None, :] - k_mat
    np.fill_diagonal(k_mat, 0)
    np.fill_diagonal(w_mat, 0)

    if t.wireless_sets is None:
        # |W_j| = n - 1 - deg_j, and i is in W_j unless i is wired to j
        z_mat = (n - 2 - degree)[None, :] + wired
    else:
        # Z[i, j] = |W_j| - [i in W_j]
        z_base = np.zeros(n, dtype=np.int32)
        rows: list[int] = []
        cols: list[int] = []
        for j_pos, j_id in enumerate(order):
            peers = t.wireless_set(j_id)
            z_base[j_pos] = len(peers)
            members = [idx[p] for p in peers if p in idx]
            rows += members
            cols += [j_pos] * len(members)
        z_mat = np.tile(z_base, (n, 1))
        z_mat[rows, cols] -= 1
    np.fill_diagonal(z_mat, 0)

    # summed a, then b, then c: the float order of trust()
    values = _partial_sums(coef.a, k_mat)
    values += _partial_sums(coef.b, w_mat)
    values += _partial_sums(coef.c, z_mat)
    np.minimum(values, 1.0, out=values)
    values[wired] = 1.0
    np.fill_diagonal(values, 1.0)
    if killed:
        live = np.array([s not in killed for s in order], dtype=np.float64)
        values *= live[None, :]
        np.fill_diagonal(values, live)
    return SimpleNamespace(order=order, values=values)


def matrix_to_csv_reference(order, values, full_precision: bool = False) -> str:
    """The trust matrix as CSV through ``csv.writer``, one row per evaluator,
    lines ending in ``"\\n"``: the oracle for the table-driven
    :func:`kextrust.cli.matrix_to_csv`.

    Each row is written with the line terminator ``"\\r\\n"``, so that
    ``csv`` quotes a field holding a ``\\r`` as well as one holding a
    ``\\n``, and its terminator is then cut to ``"\\n"``.  Every cell is
    formatted on its own, ``repr`` or three decimals.  (A float-keyed label
    memo, as the writer once used, would give ``-0.0`` the label of ``0.0``
    whenever ``0.0`` came first.)
    """
    def line(fields):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        return buf.getvalue()[:-2] + "\n"

    label = repr if full_precision else "{:.3f}".format
    lines = [line(["sensor", *order])]
    for row_id, row in zip(order, values):
        cells = row.tolist() if isinstance(row, np.ndarray) else map(float, row)
        lines.append(line([row_id, *map(label, cells)]))
    return "".join(lines)


def joined_chunks(chunks) -> bytes:
    """The ``str`` and ``bytes`` ``chunks`` of a writer joined as one file
    holds them: each ``str`` encoded as UTF-8."""
    return b"".join(c.encode() if isinstance(c, str) else c for c in chunks)


def report_doc(state, coef) -> dict:
    """The trust report of the key state ``state`` as a JSON-ready document,
    built from the public API only: :func:`kextrust.cli.report_json_chunks`
    must write ``json.dumps(report_doc(state, coef), indent=2) + "\\n"``."""
    t, killed = state.topology, state.kill.killed
    matrix = trust_matrix(t, coef, killed)
    return {
        "sensors": list(t.sensors),
        "coefficients": {"a": coef.a, "b": coef.b, "c": coef.c, "provenance": coef.provenance},
        "killed": sorted(killed),
        "matrix": {"order": matrix.order, "values": matrix.values.tolist()},
        "rankings": {i: [[j, value] for j, value in rank_peers(t, coef, killed, i)]
                     for i in t.sensors},
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
        # event k (from 0) is stamped C(n, 2) + k + 1: one tick per pair, then per event
        "kill_log": [
            {"timestamp": len(t.sensors) * (len(t.sensors) - 1) // 2 + k, "sensor": e.sensor,
             "action": e.action, "note": e.note}
            for k, e in enumerate(state.kill.event_log, 1)
        ],
    }
