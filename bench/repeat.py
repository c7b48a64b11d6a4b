"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 10 [--seconds 50] [--workload ou_monte_carlo ...] [--trace 1]

For each workload (all by default, one after the other) it runs
``bench/run.py`` once per seed, 1..N, and prints every metric by name and
unit with its median, quartiles and spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  The end-to-end table also gives each metric's bound from
BENCHMARK.json.  All results go to ``.bench_out/repeat-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"args": vars(args), "runs": {}}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        record["runs"][workload] = runs
        print(f"\n{workload}: {len(runs)} runs, failed_ratio "
              f"{sum(r['failed'] for r in runs) / sum(r['attempted'] for r in runs):g}")
        print(f"{'metric':<34}{'unit':<10}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, first in runs[0]["metrics"].items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"{name:<34}{first['unit']:<10}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{rel:>9.4f}{bound:>7}")
        print(flush=True)
    out = ROOT / ".bench_out" / f"repeat-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
