"""Run every workload once untraced and once traced, and print all metrics.

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Each run is a child process of ``run.py`` (so peak memory is per workload),
started only after the previous one ended.  The combined results go to
``.perfbench/results.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = next(json.loads(line[len("# detail "):]) for line in lines
                  if line.startswith("# detail "))
    return detail, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)

    results, ok = {}, True
    for name in workloads.WORKLOADS:
        detail, e2e = run(name, args.seed, args.seconds, 0)
        _, layers = run(name, args.seed, args.seconds, 1)
        results[name] = {"meta": detail["meta"], "end_to_end": detail["named"],
                         "generic": e2e["metrics"], "per_layer": layers["metrics"],
                         "attempted": e2e["attempted"] + layers["attempted"],
                         "failed": e2e["failed"] + layers["failed"]}
        ok &= e2e["correct"] and layers["correct"]
        print(f"== {name} (seed {args.seed}; {results[name]['attempted']} operations, "
              f"{results[name]['failed']} failed)")
        for metric, m in detail["named"].items():
            note = {k: v for k, v in m.items() if k not in ("value", "unit")}
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']:<6} {json.dumps(note)}")
        for metric, m in e2e["metrics"].items():
            if metric not in detail["named"]:
                print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")
        for metric, m in layers["metrics"].items():
            print(f"  {metric:<34} {m['value']:>14.6g} {m['unit']}")

    out = ROOT / ".perfbench" / "results.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"results written to {out.relative_to(ROOT)}; all checks "
          f"{'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
