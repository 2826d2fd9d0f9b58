"""In-memory call tracing of the program's public functions.

The tracer wraps functions by replacing the module attributes that callers
look up (``kextrust.cli.trust_matrix`` as well as
``kextrust.trust.trust_matrix``) and methods on their classes, so no file of
the program changes.  Each wrapped call pushes a frame; on return its
duration is charged to the parent frame, which gives every call a self
time (its duration minus the time its traced callees took).

Functions called once per operation or so record a span each: name, start,
end, parent span and operation id.  Functions called per sensor, per pair or
per bit period (well over 10^5 times in some runs) are aggregated into a
count and total/self time instead.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("kextrust", "kextrust.topology", "kextrust.trust", "kextrust.kljn",
           "kextrust.orchestrator", "kextrust.cli")

# (module, attribute or Class.method, aggregated?)
TRACED = (
    ("kextrust.cli", "main", False),
    ("kextrust.cli", "matrix_to_csv", False),
    ("kextrust.topology", "parse_topology", False),
    ("kextrust.topology", "validate", False),
    ("kextrust.topology", "Topology.kljn_set", True),
    ("kextrust.topology", "Topology.wireless_set", True),
    ("kextrust.trust", "trust_matrix", False),
    ("kextrust.trust", "rank_peers", False),
    ("kextrust.trust", "trust", True),
    ("kextrust.trust", "counts", True),
    ("kextrust.trust", "geometric_partial_sum", True),
    ("kextrust.kljn", "run_key_exchange", False),
    ("kextrust.kljn", "simulate_bit_period", True),
    ("kextrust.kljn", "resistor_noise", True),
    ("kextrust.kljn", "quantize_words", True),
    ("kextrust.kljn", "classify_level", True),
    ("kextrust.orchestrator", "establish_network_keys", False),
    ("kextrust.orchestrator", "apply_kill_event", False),
    ("kextrust.orchestrator", "trust_report", False),
    ("kextrust.orchestrator", "state_to_json", False),
    ("kextrust.orchestrator", "state_from_json", False),
)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Patches the traced functions while active; one instance per traced run.

    ``hooks`` maps a traced name to ``hook(tracer, args, kwargs, result)``,
    called after each successful call to derive counters from arguments or
    results.  Names the program no longer has, and hooks that no longer fit
    its return values, are listed in ``problems``; the traced run counts
    them as a failed check, since the metrics they feed would read 0.
    """

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[list] = []  # [name, start, end, parent, op, self]
        self.op_id = -1
        self._stack: list[list] = []  # frames: [child time, enclosing span id]
        self._undo: list[tuple[object, str, object]] = []
        self.problems: set[str] = set()

    def _wrap(self, name: str, fn, aggregated: bool):
        stack, stats, spans = self._stack, self.stats, self.spans
        hook = self.hooks.get(name)
        stat = stats[name]

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if aggregated:
                frame = [0.0, parent_span]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0, parent_span, self.op_id, 0.0])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if not aggregated:
                    span = spans[frame[1]]
                    span[1], span[2], span[5] = start, end, elapsed - frame[0]
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    self.problems.add(f"hook for {name} failed: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for module_name, attr, aggregated in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                original = getattr(owner, cls_name, object).__dict__.get(meth)
                if not callable(original):
                    self.problems.add(f"{module_name}.{attr} not found, not traced")
                    continue
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, original, self._wrap(attr, original, aggregated))
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.problems.add(f"{module_name}.{attr} not found, not traced")
                continue
            wrapper = self._wrap(attr, original, aggregated)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
        return self

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def write(self, path: Path) -> None:
        """Write spans and aggregates as JSON for offline inspection."""
        doc = {
            "span_fields": ["name", "start", "end", "parent", "op", "self_s"],
            "spans": self.spans,
            "aggregates": {k: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
                           for k, s in sorted(self.stats.items())},
            "counters": dict(sorted(self.counters.items())),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
