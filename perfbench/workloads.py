"""Seeded inputs and operation schedules for the three benchmark workloads.

Everything here is a pure function of the workload seed and the sizes, so
the same seed always yields the same topology files, session schedule and
kill sequence.  The program under test only ever receives the generated
files and a command line.

Why these three workloads (see also README.md):

* ``trust_complement`` -- the paper's default full-mesh network: no
  ``wireless_sets`` key, so every wireless set comes from the complement
  rule.  At n = 1000 with 3n random wired links it stresses the topology
  accessors, the trust kernel (matrix, ranking, scalar queries) and CSV
  formatting, and leaves the key-exchange simulator and the orchestrator
  idle.  It is the workload on which a closed-form complement-rule shortcut
  would show.
* ``kljn_sessions`` -- back-to-back wired key-exchange sessions, about one
  in eight under active attack.  Only the simulator and the command line do
  work.  Clean sessions are the path a faster bit-period model would take;
  attacked sessions must keep running real waveforms and keep being caught.
* ``network_lifecycle`` -- establish keys for a 200-sensor network with
  explicit partial wireless coverage (each sensor reaches about 30% of the
  others, never a wired peer), then a seeded sequence of operator kills,
  each followed by a report; then again with a fresh master seed.  It is
  the only workload that exercises the orchestrator and the state file, and
  its explicit sets bypass any complement-rule shortcut.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("trust_complement", "kljn_sessions", "network_lifecycle")
ATTACKERS = ("wire-substitution", "current-injection")

COMPLEMENT_EDGES_PER_SENSOR = 3
LIFECYCLE_REACH = 0.3  # share of the other sensors each one reaches wirelessly
LIFECYCLE_KILLS = 2  # kill + report steps per establish
TRACE_SESSIONS = 16  # sessions in the traced run's fixed list


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the self-test shrinks them."""

    complement_n: int = 1000
    trust_queries: int = 40
    wired_queries: int = 8
    session_bits: int = 128
    attack_every: int = 8
    lifecycle_n: int = 200
    lifecycle_edges: int = 40


@dataclass(frozen=True)
class Op:
    """One command-line call: ``kind`` names it, ``argv`` is passed to ``main``."""

    kind: str
    argv: tuple[str, ...]
    info: dict


def sensor_ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"s{i:0{width}d}" for i in range(n)]


def random_edges(rng: random.Random, sensors: list[str], count: int) -> list[tuple[str, str]]:
    """``count`` distinct undirected pairs of distinct sensors, sorted."""
    edges: set[tuple[str, str]] = set()
    while len(edges) < count:
        a, b = rng.sample(sensors, 2)
        edges.add((a, b) if a < b else (b, a))
    return sorted(edges)


def wired_peers(sensors: list[str], edges) -> dict[str, set[str]]:
    peers = {s: set() for s in sensors}
    for a, b in edges:
        peers[a].add(b)
        peers[b].add(a)
    return peers


def complement_topology(seed: int, sizes: Sizes) -> dict:
    """Full-mesh network: wired links only, wireless sets left to the complement rule."""
    rng = random.Random(f"trust_complement/topology/{seed}")
    sensors = sensor_ids(sizes.complement_n)
    edges = random_edges(rng, sensors, COMPLEMENT_EDGES_PER_SENSOR * len(sensors))
    return {"sensors": sensors, "kljn_edges": [list(e) for e in edges]}


def partial_coverage_topology(seed: int, sizes: Sizes) -> dict:
    """Explicit, symmetric wireless sets covering ~``LIFECYCLE_REACH`` of the
    other sensors, each disjoint from the sensor's wired peers."""
    rng = random.Random(f"network_lifecycle/topology/{seed}")
    sensors = sensor_ids(sizes.lifecycle_n)
    edges = random_edges(rng, sensors, sizes.lifecycle_edges)
    wired = set(edges)
    wireless = {s: [] for s in sensors}
    for x, a in enumerate(sensors):
        for b in sensors[x + 1 :]:
            if (a, b) not in wired and rng.random() < LIFECYCLE_REACH:
                wireless[a].append(b)
                wireless[b].append(a)
    return {
        "sensors": sensors,
        "kljn_edges": [list(e) for e in edges],
        "wireless_sets": wireless,
    }


def write_topology(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path


# The schedules below are endless generators of steps.  A step is a list of
# operations the client issues back to back; the measuring window is only
# checked between steps.


def trust_passes(seed: int, sizes: Sizes, doc: dict, topo_path: Path, out_dir: Path):
    """Endless passes of one ``trust-matrix``, one ``rank`` and the single-pair
    ``trust`` queries, each pass with freshly drawn evaluators and peers."""
    rng = random.Random(f"trust_complement/ops/{seed}")
    sensors = doc["sensors"]
    edges = [tuple(e) for e in doc["kljn_edges"]]
    topo = str(topo_path)
    matrix = str(out_dir / "matrix.csv")
    while True:
        yield [Op("matrix", ("trust-matrix", topo, "--out", matrix), {"csv": matrix})]
        evaluator = rng.choice(sensors)
        yield [Op("rank", ("rank", topo, evaluator), {"evaluator": evaluator})]
        pairs = [rng.choice(edges) for _ in range(sizes.wired_queries)]
        pairs = [p if rng.random() < 0.5 else (p[1], p[0]) for p in pairs]
        pairs += [tuple(rng.sample(sensors, 2))
                  for _ in range(sizes.trust_queries - sizes.wired_queries)]
        rng.shuffle(pairs)
        for i, j in pairs:
            yield [Op("trust", ("trust", topo, i, j), {"pair": (i, j)})]


def session_schedule(seed: int, sizes: Sizes):
    """Endless ``simulate-kljn`` sessions; every ``attack_every``-th one is
    attacked, alternating the two attacker models, from a seeded period that
    lies before the session could have finished."""
    rng = random.Random(f"kljn_sessions/ops/{seed}")
    bits = str(sizes.session_bits)
    k = 0
    while True:
        session_seed = rng.randrange(2**32)
        if k % sizes.attack_every == sizes.attack_every - 1:
            attacker = ATTACKERS[(k // sizes.attack_every) % 2]
            start = rng.randrange(sizes.session_bits)
            yield [Op("attacked", ("simulate-kljn", "--bits", bits, "--seed", str(session_seed),
                                   "--attacker", attacker, "--attack-start", str(start)),
                      {"attacker": attacker, "start": start})]
        else:
            yield [Op("clean", ("simulate-kljn", "--bits", bits, "--seed", str(session_seed)), {})]
        k += 1


def lifecycle_schedule(seed: int, sizes: Sizes, doc: dict, topo_path: Path, out_dir: Path):
    """Endless lifecycles: ``establish`` with a fresh master seed, then
    ``LIFECYCLE_KILLS`` (``kill``, ``report``) pairs over a seeded choice of
    distinct sensors; a kill and its report form one step."""
    rng = random.Random(f"network_lifecycle/ops/{seed}")
    state = str(out_dir / "state.json")
    report, csv = str(out_dir / "report.json"), str(out_dir / "report.csv")
    bits = str(sizes.session_bits)
    while True:
        master = str(rng.randrange(2**31))
        yield [Op("establish", ("establish", str(topo_path), "--seed", master, "--bits", bits,
                                "--out", state), {"state": state})]
        victims = rng.sample(doc["sensors"], LIFECYCLE_KILLS)
        for k, sensor in enumerate(victims):
            yield [
                Op("kill", ("kill", state, sensor, "--note", f"alarm {k}"),
                   {"killed": victims[: k + 1], "state": state}),
                Op("report", ("report", state, "--out", report, "--csv", csv),
                   {"killed": victims[: k + 1], "json": report, "csv": csv}),
            ]
