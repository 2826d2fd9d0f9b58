"""Closed-loop client, per-operation checks and metrics for the benchmark.

One client issues each command only after the previous one returned.  Every
operation is one in-process call of ``kextrust.cli.main(argv)`` with stdout
and stderr captured in buffers; files go to a work directory the benchmark
owns inside the checkout.  Outputs are checked after each call, outside the
call's timing, and a failed check counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import workloads as wl
from speed import Speedometer
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


_LIBC = ctypes.CDLL(None)
_M_MMAP_THRESHOLD = -3  # glibc mallopt parameter
MMAP_THRESHOLD = 1 << 20


def prepare_process() -> None:
    """Pin BLAS to ``BLAS_THREADS`` and make peak RSS a property of the
    program rather than of the host or of earlier operations; must run
    before numpy is imported.

    numpy's transparent huge pages are turned off: their availability
    depends on the host's memory and moves both peak RSS and large-array
    timings.  glibc's mmap threshold is fixed at ``MMAP_THRESHOLD``, so
    every block of a megabyte or more is mapped and unmapped on free: the
    dynamic threshold would serve later large blocks from the heap, and peak
    RSS then moved by up to 5 MB between runs with the allocation history of
    earlier operations.  Smaller blocks stay on the heap, as in a warmed-up
    process, so the reference computation (``speed.py``) is not slowed by
    page faults."""
    if "numpy" in sys.modules:
        raise RuntimeError("prepare_process() must run before numpy is imported")
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if hasattr(_LIBC, "mallopt"):
        _LIBC.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def load_program() -> None:
    """Import the program from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "kextrust" / "cli.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import kextrust.cli  # noqa: F401
    import kextrust
    if Path(kextrust.__file__).resolve().parent != src / "kextrust":
        raise SystemExit(f"perfbench: imported kextrust from {kextrust.__file__}, not {src}")


_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import kextrust.cli
imported = time.perf_counter() - start
from speed import Speedometer
speedo = Speedometer()
for _ in range(3):
    speedo.tick()
print(imported, speedo.run_scale())
"""


def import_seconds() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the program (start-up
    excluded), and the reference scale timed in that interpreter right after
    the import: the child may run on another core than the client."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
                           str(Path(__file__).resolve().parent)],
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, scale = map(float, proc.stdout.split())
    return seconds, scale


def _blas_threads() -> int | None:
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _numpy_huge_pages(np) -> bool | None:
    core = getattr(np, "_core", None) or getattr(np, "core", None)
    getter = getattr(getattr(core, "multiarray", None), "_get_madvise_hugepage", None)
    return bool(getter()) if getter else None


def metadata(seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "numpy_huge_pages": _numpy_huge_pages(np),
        "client_threads": 1,
        "seed": seed,
        "src_lines": src_lines,
    }


@dataclass
class Result:
    code: int | None
    out: str
    err: str
    start: float
    end: float


class Client:
    """Calls ``kextrust.cli.main`` through the module attribute, so an active
    tracer sees the call."""

    def __init__(self):
        self._cli = importlib.import_module("kextrust.cli")

    def call(self, argv) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self._cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                end = perf_counter()
                code = exc.code
            except Exception:  # a traceback is a failed operation, not a crash
                end = perf_counter()
                code = None
                err.write(traceback.format_exc())
            else:
                end = perf_counter()
        return Result(code, out.getvalue(), err.getvalue(), start, end)


def _file_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def _load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class CheckError(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _expect_exit(res: Result, code: int) -> None:
    require(res.code == code, f"exit {res.code}, expected {code}: {res.err.strip()[-300:]}")


class CsvMatrix:
    """A ``sensor,...`` CSV trust matrix, checked row by row as it is read.

    Only the text lines are kept, so holding one for later lookups costs
    about the size of the file."""

    def __init__(self, text: str, sensors: list[str], wired: dict[str, set[str]], zero=()):
        import numpy as np
        lines = text.split("\n")
        require(lines.pop() == "", "CSV does not end with a newline")
        require(lines[0] == ",".join(["sensor", *sensors]), "CSV header is not the sensor order")
        require(len(lines) == len(sensors) + 1,
                f"CSV has {len(lines) - 1} rows, expected {len(sensors)}")
        self.col = {s: k for k, s in enumerate(sensors)}
        self.lines = dict(zip(sensors, lines[1:]))
        zero_cols = [self.col[s] for s in zero]
        for sensor in sensors:
            cells = self.row(sensor)
            values = np.asarray(cells, dtype=np.float64)
            require(bool(np.all((values >= 0.0) & (values <= 1.0))), f"row {sensor} outside [0, 1]")
            require(not np.any(values[zero_cols]), f"killed column nonzero in row {sensor}")
            for peer in (sensor, *wired[sensor]):
                if peer not in zero:
                    require(cells[self.col[peer]] == "1.000",
                            f"cell ({sensor}, {peer}) is {cells[self.col[peer]]}, expected 1.000")

    def row(self, sensor: str) -> list[str]:
        cells = self.lines[sensor].split(",")
        require(cells[0] == sensor and len(cells) == len(self.col) + 1,
                f"CSV row {sensor} is malformed")
        return cells[1:]

    def cell(self, i: str, j: str) -> str:
        return self.row(i)[self.col[j]]


# --------------------------------------------------------------------------
# Workloads: inputs, schedule, checks and the determinism replay.


class Workload:
    name = ""
    trace_steps = 0

    def __init__(self, seed: int, sizes: wl.Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.first_digest: bytes | None = None

    def setup(self, client: Client) -> None:
        """Generate the inputs, validate them and warm the command path."""

    def steps(self):
        raise NotImplementedError

    def before(self, op: wl.Op) -> None:
        """Called right before ``op`` is issued."""

    def check(self, op: wl.Op, res: Result) -> None:
        raise NotImplementedError

    def _same_bytes(self, op: wl.Op, data: bytes) -> None:
        """Keep a digest of the first operation's output; its replay must give
        the same bytes."""
        digest = hashlib.sha256(data).digest()
        if op.info.get("replay"):
            require(digest == self.first_digest, f"{op.kind} output differs for the same seed")
        elif self.first_digest is None:
            self.first_digest, self.first_op = digest, op

    def replay_op(self) -> wl.Op | None:
        """The first operation again, with its ``--out`` file renamed."""
        if self.first_digest is None:
            return None
        argv, info = list(self.first_op.argv), dict(self.first_op.info, replay=True)
        if "--out" in argv:
            k = argv.index("--out") + 1
            old, argv[k] = argv[k], argv[k] + ".replay"
            info = {key: argv[k] if value == old else value for key, value in info.items()}
        return wl.Op(self.first_op.kind, tuple(argv), info)

    def end_to_end(self, ops: list) -> tuple[dict, dict]:
        """(named metrics of this workload, the benchmark's generic metrics)."""
        raise NotImplementedError

    def _write_topology(self, doc: dict) -> Path:
        from kextrust.topology import parse_topology, validate
        path = wl.write_topology(doc, self.workdir / "topology.json")
        report = validate(parse_topology(path.read_text(encoding="utf-8")))
        if report.errors:
            raise SystemExit(f"perfbench: generated topology is invalid: {report.errors[:3]}")
        return path


def _median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None with fewer than 11
    samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _times(ops, kind):
    return [o.seconds for o in ops if o.op.kind == kind]


def _tail_metric(name, values, scale, unit, named):
    t = tail(values)
    if t is None:
        named[name] = {"value": max(values) * scale if values else float("nan"), "unit": unit,
                       "percentile": 100.0, "samples": len(values)}
        return named[name]["value"]
    value, pct, n = t
    named[name] = {"value": value * scale, "unit": unit, "percentile": round(pct, 2),
                   "samples": n}
    return value * scale


class TrustComplement(Workload):
    name = "trust_complement"

    def setup(self, client):
        self.doc = wl.complement_topology(self.seed, self.sizes)
        self.wired = wl.wired_peers(self.doc["sensors"], self.doc["kljn_edges"])
        self.topo = self._write_topology(self.doc)
        self.trace_steps = 2 + self.sizes.trust_queries  # one full pass
        self.matrix = None
        a, b = self.doc["kljn_edges"][0]
        _expect_exit(client.call(("trust", str(self.topo), a, b)), 0)

    def steps(self):
        return wl.trust_passes(self.seed, self.sizes, self.doc, self.topo, self.workdir)

    def before(self, op):
        # The previous pass's matrix must not sit in memory during the next
        # matrix call, where it would add to the peak RSS.
        if op.kind == "matrix":
            self.matrix = None

    def check(self, op, res):
        _expect_exit(res, 0)
        sensors = self.doc["sensors"]
        if op.kind == "matrix":
            data = _file_bytes(op.info["csv"])
            self._same_bytes(op, data)
            self.matrix = CsvMatrix(data.decode("utf-8"), sensors, self.wired)
        elif op.kind == "rank":
            i = op.info["evaluator"]
            rows = [line.split(",") for line in res.out.splitlines()]
            require(len(rows) == len(sensors) - 1, f"rank returned {len(rows)} peers")
            peers = [r[0] for r in rows]
            require(set(peers) == set(sensors) - {i}, "rank peers are not all the others")
            values = [float(r[1]) for r in rows]
            require(all(x >= y for x, y in zip(values, values[1:])), "rank is not non-increasing")
            deg = len(self.wired[i])
            require(set(peers[:deg]) == self.wired[i], "wired peers do not rank first")
            if self.matrix is not None:
                row, col = self.matrix.row(i), self.matrix.col
                for peer, value in rows:
                    require(row[col[peer]] == value,
                            f"rank value of {peer} differs from the matrix")
        else:
            i, j = op.info["pair"]
            value = res.out.strip()
            if j in self.wired[i]:
                require(value == "1.000", f"wired pair ({i}, {j}) has trust {value}")
            if self.matrix is not None:
                require(self.matrix.cell(i, j) == value,
                        f"trust({i}, {j}) = {value}, matrix has {self.matrix.cell(i, j)}")

    def end_to_end(self, ops):
        named = {}
        matrix = _median(_times(ops, "matrix"))
        rank = _median(_times(ops, "rank"))
        trust_times = _times(ops, "trust")
        trust_p50 = _median(trust_times) * 1e3
        named["matrix_s"] = {"value": matrix, "unit": "s", "samples": len(_times(ops, "matrix"))}
        named["rank_ms_p50"] = {"value": rank * 1e3, "unit": "ms",
                                "samples": len(_times(ops, "rank"))}
        named["trust_ms_p50"] = {"value": trust_p50, "unit": "ms", "samples": len(trust_times)}
        _tail_metric("trust_ms_tail", trust_times, 1e3, "ms", named)
        return named, {"primary_s": matrix, "secondary_s": rank, "tertiary_ms": trust_p50}


class KljnSessions(Workload):
    name = "kljn_sessions"

    def setup(self, client):
        self.trace_steps = wl.TRACE_SESSIONS
        self.key_bits = 0
        _expect_exit(client.call(("simulate-kljn", "--bits", "8", "--seed", str(self.seed))), 0)

    def steps(self):
        return wl.session_schedule(self.seed, self.sizes)

    def check(self, op, res):
        doc = json.loads(res.out)
        self._same_bytes(op, res.out.encode())
        if op.kind == "clean":
            _expect_exit(res, 0)
            require(doc["key_length"] == self.sizes.session_bits,
                    f"key_length {doc['key_length']}")
            require(not doc["attack_detected"] and not doc["budget_exhausted"],
                    "clean session flagged")
            self.key_bits += doc["key_length"]
        else:
            _expect_exit(res, 1)
            require(doc["attack_detected"], f"{op.info['attacker']} attack not detected")

    def end_to_end(self, ops):
        named = {}
        clean = _times(ops, "clean")
        p50 = _median(clean)
        named["session_ms_p50"] = {"value": p50 * 1e3, "unit": "ms", "samples": len(clean)}
        tail_ms = _tail_metric("session_ms_tail", clean, 1e3, "ms", named)
        host = sum(o.seconds for o in ops)
        rate = self.key_bits / host
        named["key_bits_per_s"] = {"value": rate, "unit": "1/s", "sessions": len(ops)}
        return named, {"primary_s": p50, "secondary_s": tail_ms / 1e3,
                       "tertiary_ms": 1e3 / rate}


class NetworkLifecycle(Workload):
    name = "network_lifecycle"

    def setup(self, client):
        self.doc = wl.partial_coverage_topology(self.seed, self.sizes)
        self.wired = wl.wired_peers(self.doc["sensors"], self.doc["kljn_edges"])
        self.topo = self._write_topology(self.doc)
        self.trace_steps = 1 + wl.LIFECYCLE_KILLS  # one lifecycle
        _expect_exit(client.call(("validate", str(self.topo))), 0)

    def steps(self):
        return wl.lifecycle_schedule(self.seed, self.sizes, self.doc, self.topo, self.workdir)

    def _check_records(self, records, killed):
        """``records``: (pair, channel, status) for every record."""
        n = len(self.doc["sensors"])
        require(len(records) == n * (n - 1) // 2, f"{len(records)} records")
        edges = {tuple(e) for e in self.doc["kljn_edges"]}
        kljn = {tuple(pair) for pair, channel, _ in records if channel == "kljn"}
        require(kljn == edges, "kljn records are not exactly the wired edges")
        for pair, _, status in records:
            expected = "revoked" if killed.intersection(pair) else "ok"
            require(status == expected, f"record {pair} is {status}")

    def _check_state(self, path, killed):
        # Read through the program's own loader, so a change of the file
        # layout that keeps the API passes.
        from kextrust.orchestrator import load_state
        state = load_state(path)
        require(state.kill.killed == killed, f"state has killed {sorted(state.kill.killed)}")
        self._check_records([(r.pair, r.channel, r.status) for r in state.records_sorted()],
                            killed)

    def check(self, op, res):
        _expect_exit(res, 0)
        if op.kind == "establish":
            data = _file_bytes(op.info["state"])
            self._same_bytes(op, data)
            self.state_bytes = len(data)
            self._check_state(op.info["state"], set())
        elif op.kind == "kill":
            self._check_state(op.info["state"], set(op.info["killed"]))
        else:
            killed = op.info["killed"]
            doc = _load_json(op.info["json"])
            require(doc["killed"] == sorted(killed), "report lists the wrong killed sensors")
            require(len(doc["rankings"]) == len(self.doc["sensors"]), "rankings missing")
            self._check_records([(r["pair"], r["channel"], r["status"]) for r in doc["records"]],
                                set(killed))
            CsvMatrix(Path(op.info["csv"]).read_text(encoding="utf-8"), self.doc["sensors"],
                      self.wired, zero=killed)

    def end_to_end(self, ops):
        named = {}
        establish = _median(_times(ops, "establish"))
        kills = [o for o in ops if o.op.kind == "kill"]
        reports = [o for o in ops if o.op.kind == "report"]
        pairs = [k.seconds + r.seconds for k, r in zip(kills, reports)]
        kill_to_report = _median(pairs)
        kill_ms = _median([k.seconds for k in kills]) * 1e3
        named["establish_s"] = {"value": establish, "unit": "s",
                                "samples": len(_times(ops, "establish"))}
        named["kill_to_report_s"] = {"value": kill_to_report, "unit": "s", "samples": len(pairs)}
        named["kill_ms_p50"] = {"value": kill_ms, "unit": "ms", "samples": len(kills)}
        named["state_mb"] = {"value": self.state_bytes / 1e6, "unit": "MB", "exact": True}
        return named, {"primary_s": kill_to_report, "secondary_s": establish,
                       "tertiary_ms": kill_ms}


WORKLOAD_CLASSES = {cls.name: cls for cls in (TrustComplement, KljnSessions, NetworkLifecycle)}


# --------------------------------------------------------------------------
# Runs.


@dataclass
class OpRecord:
    op: wl.Op
    start: float
    end: float
    error: str | None
    out_bytes: int = 0
    seconds: float = 0.0  # wall time in reference seconds, set by _normalize

    @property
    def raw(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    named: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)  # compared times in wall seconds/ms


def _written_bytes(op: wl.Op, res: Result) -> int:
    total = len(res.out.encode())
    argv = list(op.argv)
    paths = [argv[k + 1] for k, a in enumerate(argv) if a in ("--out", "--csv")]
    if op.kind == "kill":
        paths.append(argv[1])
    return total + sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def settle() -> None:
    """Start each operation from a collected, trimmed heap, as a fresh CLI
    process would: the previous operation's garbage and the checks' parsed
    outputs must not shift the garbage collector's timing or peak memory."""
    gc.collect()
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)


def run_op(client, workload, op, speedo, count_bytes=False) -> OpRecord:
    workload.before(op)
    settle()
    speedo.maybe_tick()
    res = client.call(op.argv)
    speedo.maybe_tick()
    try:
        workload.check(op, res)
        error = None
    except (CheckError, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        error = f"{op.kind} {' '.join(op.argv)}: {type(exc).__name__}: {exc}"
    nbytes = _written_bytes(op, res) if count_bytes else 0
    return OpRecord(op, res.start, res.end, error, nbytes)


def _normalize(records, speedo) -> None:
    speedo.tick()
    for r in records:
        r.seconds = r.raw * speedo.scale(r.start, r.end)


def _tally(result: RunResult, records) -> None:
    for r in records:
        result.attempted += 1
        if r.error:
            result.failed += 1
            result.errors.append(r.error)


# Set-ups per untraced run; setup_s is their median.
SETUP_REPS = 9


def _setup(cls, seed, sizes, base: Path, client, speedo, reps: int):
    """Set the workload up ``reps`` times in fresh directories; keep the last.

    A set-up is the program's import in a fresh interpreter, generating and
    validating the inputs, and one warm-up call.  Returns the workload and
    each set-up's (wall seconds, reference seconds)."""
    times = []
    for rep in range(reps):
        workdir = base / f"setup{rep}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        imported, import_scale = import_seconds()
        speedo.tick()
        start = perf_counter()
        workload = cls(seed, sizes, workdir)
        workload.setup(client)
        end = perf_counter()
        speedo.tick()
        times.append((imported + end - start,
                      imported * import_scale + (end - start) * speedo.scale(start, end)))
        if rep < reps - 1:
            shutil.rmtree(workdir)
    return workload, times


def measure(name, seed, seconds, sizes, base: Path) -> RunResult:
    """Untraced run: end-to-end metrics over a closed loop of ``seconds``."""
    client, speedo = Client(), Speedometer()
    workload, setup_times = _setup(WORKLOAD_CLASSES[name], seed, sizes, base, client, speedo,
                                   SETUP_REPS)
    records = []
    deadline = perf_counter() + seconds
    # The traced run's operation list is also the minimum, so every metric
    # has samples even on a slow host.
    for k, step in enumerate(workload.steps(), 1):
        records.extend(run_op(client, workload, op, speedo) for op in step)
        if k >= workload.trace_steps and perf_counter() >= deadline:
            break
    # Same seed twice: the repeat is checked for identical bytes and also
    # counts as one more latency sample.
    replay = workload.replay_op()
    if replay is not None:
        records.append(run_op(client, workload, replay, speedo))
    _normalize(records, speedo)
    result = RunResult()
    _tally(result, records)
    if replay is None:
        result.attempted += 1
        result.failed += 1
        result.errors.append("same-seed replay: no successful first operation")
    named, generic = workload.end_to_end(records)
    raw, raw_generic = workload.end_to_end([replace(r, seconds=r.raw) for r in records])
    for key, metric in named.items():
        if metric["unit"] in ("s", "ms", "1/s"):
            metric["raw"] = raw[key]["value"]
    setup_s = statistics.median(ref for _, ref in setup_times)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    named = {
        "setup_s": {"value": setup_s, "unit": "s", "setup_reps": len(setup_times),
                    "raw": statistics.median(wall for wall, _ in setup_times)},
        "error_rate": {"value": result.failed / result.attempted, "unit": "ratio",
                       "attempted": result.attempted},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        **named,
    }
    result.named = named
    result.raw = {"setup_s": named["setup_s"]["raw"], **raw_generic}
    result.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "primary_s": (generic["primary_s"], "s"),
        "secondary_s": (generic["secondary_s"], "s"),
        "tertiary_ms": (generic["tertiary_ms"], "ms"),
    }
    return result


# --------------------------------------------------------------------------
# Traced run.


def _hook_matrix(tr, args, kwargs, result):
    tr.counters["trust.cells"] += result.values.size


def _hook_session(tr, args, kwargs, result):
    c = tr.counters
    c["kljn.periods_in_sessions"] += result.periods_used
    c["kljn.key_bits"] += len(result.key_bits)
    c["kljn.undecided_periods"] += result.undecided_count
    c["kljn.discarded_periods"] += result.discard_count
    attacker = kwargs.get("attacker", args[2] if len(args) > 2 else None)
    if attacker is not None and result.attack_detected:
        c["kljn.attacked_sessions"] += 1
        c["kljn.detect_periods_total"] += result.periods_used - attacker.start_period


def _hook_noise(tr, args, kwargs, result):
    tr.counters["kljn.noise_samples"] += len(result)


def _hook_establish(tr, args, kwargs, result):
    tr.counters["orchestrator.records"] += len(result.records)
    tr.counters["orchestrator.wired_sessions"] += sum(
        1 for r in result.records.values() if r.channel == "kljn")


def _hook_to_json(tr, args, kwargs, result):
    tr.counters["orchestrator.state_bytes"] = max(tr.counters["orchestrator.state_bytes"],
                                                  len(result.encode()))


def _hook_kill(tr, args, kwargs, result):
    sensor = args[1] if len(args) > 1 else kwargs["sensor"]
    before = result.kill.killed - {sensor}
    tr.counters["orchestrator.records_revoked"] += sum(
        1 for r in result.records.values()
        if sensor in r.pair and before.isdisjoint(r.pair))


HOOKS = {
    "trust_matrix": _hook_matrix,
    "run_key_exchange": _hook_session,
    "resistor_noise": _hook_noise,
    "establish_network_keys": _hook_establish,
    "state_to_json": _hook_to_json,
    "apply_kill_event": _hook_kill,
}


def per_layer(tr: Tracer, scale: float, untraced_s: float, traced_s: float, out_bytes: int,
              nops: int) -> dict:
    """Per-layer metrics; times are scaled to reference seconds by ``scale``."""
    c = tr.counters

    def calls(name):
        return tr.stat(name).calls

    def self_s(name):
        return tr.stat(name).self_time * scale

    periods = calls("simulate_bit_period")
    period_us = tr.stat("simulate_bit_period").total * scale / periods * 1e6 if periods else 0.0
    attacked = c["kljn.attacked_sessions"]
    return {
        "topology.parse_s": (self_s("parse_topology"), "s"),
        "topology.validate_s": (self_s("validate"), "s"),
        "topology.kljn_set_calls": (calls("Topology.kljn_set"), "count"),
        "topology.kljn_set_s": (self_s("Topology.kljn_set"), "s"),
        "topology.wireless_set_calls": (calls("Topology.wireless_set"), "count"),
        "topology.wireless_set_s": (self_s("Topology.wireless_set"), "s"),
        "trust.matrix_s": (self_s("trust_matrix"), "s"),
        "trust.matrix_calls": (calls("trust_matrix"), "count"),
        "trust.cells": (c["trust.cells"], "count"),
        "trust.rank_s": (self_s("rank_peers"), "s"),
        "trust.rank_calls": (calls("rank_peers"), "count"),
        "trust.scalar_calls": (calls("trust"), "count"),
        "trust.scalar_s": (self_s("trust"), "s"),
        "trust.counts_calls": (calls("counts"), "count"),
        "trust.partial_sum_calls": (calls("geometric_partial_sum"), "count"),
        "kljn.sessions": (calls("run_key_exchange"), "count"),
        "kljn.session_s": (self_s("run_key_exchange"), "s"),
        "kljn.periods": (periods, "count"),
        "kljn.period_us": (period_us, "us"),
        "kljn.noise_s": (self_s("resistor_noise"), "s"),
        "kljn.noise_samples": (c["kljn.noise_samples"], "count"),
        "kljn.quantize_s": (self_s("quantize_words"), "s"),
        "kljn.classify_calls": (calls("classify_level"), "count"),
        "kljn.bits_per_period": (c["kljn.key_bits"] / c["kljn.periods_in_sessions"]
                                 if c["kljn.periods_in_sessions"] else 0.0, "ratio"),
        "kljn.undecided_periods": (c["kljn.undecided_periods"], "count"),
        "kljn.discarded_periods": (c["kljn.discarded_periods"], "count"),
        "kljn.detect_periods": (c["kljn.detect_periods_total"] / attacked if attacked else 0.0,
                                "count"),
        "orchestrator.establish_s": (self_s("establish_network_keys"), "s"),
        "orchestrator.wired_sessions": (c["orchestrator.wired_sessions"], "count"),
        "orchestrator.records": (c["orchestrator.records"], "count"),
        "orchestrator.state_to_json_s": (self_s("state_to_json"), "s"),
        "orchestrator.state_from_json_s": (self_s("state_from_json"), "s"),
        "orchestrator.state_bytes": (c["orchestrator.state_bytes"], "B"),
        "orchestrator.kill_s": (self_s("apply_kill_event"), "s"),
        "orchestrator.records_revoked": (c["orchestrator.records_revoked"], "count"),
        "orchestrator.report_s": (self_s("trust_report"), "s"),
        "cli.main_s": (self_s("main"), "s"),
        "cli.matrix_to_csv_s": (self_s("matrix_to_csv"), "s"),
        "cli.output_bytes": (out_bytes, "B"),
        "trace.ops": (nops, "count"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def trace(name, seed, sizes, base: Path, spans_path: Path | None) -> RunResult:
    """Traced run: a fixed operation list, replayed untraced and then traced."""
    client, plain_speed, traced_speed = Client(), Speedometer(), Speedometer()
    workload, _ = _setup(WORKLOAD_CLASSES[name], seed, sizes, base, client, plain_speed, 1)
    steps = workload.steps()
    ops = [op for _, step in zip(range(workload.trace_steps), steps) for op in step]
    untraced = [run_op(client, workload, op, plain_speed) for op in ops]
    _normalize(untraced, plain_speed)
    tracer = Tracer(HOOKS)
    traced = []
    with tracer:
        for k, op in enumerate(ops):
            tracer.op_id = k
            traced.append(run_op(client, workload, op, traced_speed, count_bytes=True))
    _normalize(traced, traced_speed)
    result = RunResult()
    _tally(result, untraced + traced)
    # The tracing itself is one more check: every traced name was found and
    # every hook fitted the program's results.
    result.attempted += 1
    if tracer.problems:
        result.failed += 1
        result.errors.extend(f"tracer: {p}" for p in sorted(tracer.problems))
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    out_bytes = sum(r.out_bytes for r in traced)
    result.metrics = per_layer(tracer, traced_speed.run_scale(), untraced_s, traced_s,
                               out_bytes, len(ops))
    if spans_path is not None:
        tracer.write(spans_path)
    return result
