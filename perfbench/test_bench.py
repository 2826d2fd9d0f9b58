"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/test_bench.py      # or: python3 -m pytest perfbench

Runs every workload untraced and traced with a few operations, and checks
that every metric is emitted with a unit, that the names match
``BENCHMARK.json``, that no operation failed and that the layers a workload
exercises report nonzero per-layer metrics.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    complement_n=30, trust_queries=6, wired_queries=2, session_bits=16, attack_every=4,
    lifecycle_n=20, lifecycle_edges=6,
)

NAMED = {
    "trust_complement": {"matrix_s", "rank_ms_p50", "trust_ms_p50", "trust_ms_tail"},
    "kljn_sessions": {"session_ms_p50", "session_ms_tail", "key_bits_per_s"},
    "network_lifecycle": {"establish_s", "kill_to_report_s", "kill_ms_p50", "state_mb"},
}
COMMON = {"setup_s", "error_rate", "peak_rss_mb"}

# The layers each workload exercises.  There every per-layer metric of the
# layer must be nonzero, so a traced name or a hook that no longer fits the
# program cannot pass as a layer that got free.
EXERCISED = {
    "trust_complement": ("topology.", "trust.", "cli."),
    "kljn_sessions": ("kljn.", "cli.main_s", "cli.output_bytes"),
    "network_lifecycle": ("topology.", "trust.", "kljn.", "orchestrator.", "cli."),
}
# Events the seeds need not produce: undecided periods are rare, and
# lifecycle sessions are never attacked.
MAY_BE_ZERO = {
    ("kljn_sessions", "kljn.undecided_periods"),
    ("network_lifecycle", "kljn.undecided_periods"),
    ("network_lifecycle", "kljn.detect_periods"),
}


def _spec():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check_metrics(metrics: dict, expected: list[dict]) -> None:
    names = {m["name"] for m in expected}
    assert set(metrics) == names, set(metrics) ^ names
    for m in expected:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], (m["name"], unit)
        assert isinstance(value, (int, float)) and math.isfinite(value), (m["name"], value)


def run_selftest() -> None:
    if "kextrust" not in sys.modules:
        harness.load_program()
    spec = _spec()
    base = harness.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name in workloads.WORKLOADS:
            e2e = harness.measure(name, 3, 0.0, TINY, base / name)
            assert e2e.failed == 0 and e2e.attempted > 0, e2e.errors
            assert set(e2e.named) == COMMON | NAMED[name], set(e2e.named)
            assert e2e.named["error_rate"]["value"] == 0
            for metric in e2e.named.values():
                assert metric["unit"] and math.isfinite(metric["value"]), metric
            _check_metrics(e2e.metrics, spec["end_to_end"])
            for metric in spec["end_to_end"]:
                assert e2e.metrics[metric["name"]][0] > 0, metric["name"]

            layers = harness.trace(name, 3, TINY, base / f"{name}-trace", None)
            assert layers.failed == 0 and layers.attempted > 0, layers.errors
            _check_metrics(layers.metrics, spec["per_layer"])
            idle = [metric for metric, (value, _) in layers.metrics.items()
                    if metric.startswith(EXERCISED[name]) and value == 0
                    and (name, metric) not in MAY_BE_ZERO]
            assert not idle, (name, idle)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def test_selftest():
    run_selftest()


if __name__ == "__main__":
    harness.prepare_process()
    run_selftest()
    print("perfbench self-test passed")
