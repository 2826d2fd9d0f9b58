"""Seeded end-to-end and per-layer benchmark of the ``kextrust`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trust_complement --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it times a closed loop of command-line calls for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
replays a fixed operation list untraced and then traced and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness
import workloads

WORK = harness.ROOT / ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.prepare_process()
    harness.load_program()
    meta = harness.metadata(args.seed)
    base = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    sizes = workloads.Sizes()
    try:
        if args.trace:
            spans = WORK / "traces" / f"{args.workload}-{args.seed}.json"
            result = harness.trace(args.workload, args.seed, sizes, base, spans)
        else:
            result = harness.measure(args.workload, args.seed, args.seconds, sizes, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("# meta " + json.dumps(meta))
    for name, m in result.named.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        print(f"{name} = {m['value']:.6g} {m['unit']}  {json.dumps(extra) if extra else ''}")
    for name, (value, unit) in result.metrics.items():
        if name not in result.named:
            print(f"{name} = {value:.6g} {unit}")
    for error in result.errors[:20]:
        print(f"# FAILED {error}")
    print("# detail " + json.dumps({"workload": args.workload, "trace": args.trace, "meta": meta,
                                    "named": result.named, "raw": result.raw}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
