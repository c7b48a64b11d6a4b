"""One fresh benchmark process: import the package, warm up, run the op loop.

Protocol over stdin/stdout, one line each way: the worker prints ``ready``
once the package is imported and one untimed warm-up op has run.  It then
reads ``exit`` (the process was a set-up sample only) or ``go``, runs ops
in a closed loop with one caller for ``--seconds``, and prints one JSON line
with the raw results.  The program's own prints go to stderr.

Started by ``bench/run.py``; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from workloads import SEED0_DIGEST, WORKLOADS, seed0_digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package() -> SimpleNamespace:
    """Import entangle_sense from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import entangle_sense
    from entangle_sense import cli, dynamics, spinsys

    where = Path(entangle_sense.__file__).resolve().parent
    if where != SRC / "entangle_sense":
        raise SystemExit(f"worker: imported entangle_sense from {where}, not from {SRC}")
    return SimpleNamespace(cli=cli, dynamics=dynamics, spinsys=spinsys)


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run_op(workload, pkg, inputs, tracer=None, op=0) -> tuple[float, list[str]]:
    """Time one op from outside the package, then check it untimed."""
    if tracer is not None:
        tracer.install()
        tracer.begin_op(op)
    t0 = time.perf_counter()
    try:
        result = workload.run(pkg, inputs)
    except Exception:
        return time.perf_counter() - t0, ["exception:\n" + traceback.format_exc()]
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
            tracer.uninstall()
    try:
        problems, n_bytes = workload.check(pkg, inputs, result)
    except Exception:
        return elapsed, ["check raised:\n" + traceback.format_exc()]
    if tracer is not None:
        tracer.counts["cli.write.bytes"] += n_bytes
    return elapsed, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    protocol = sys.stdout
    sys.stdout = sys.stderr
    pkg = import_package()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    _, warmup_problems = run_op(workload, pkg, workload.make_input())
    print("ready", file=protocol, flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    durations: list[float] = []
    traced: list[bool] = []
    problems: list[list[str]] = []
    t_start = time.perf_counter()
    deadline = t_start + args.seconds
    while time.perf_counter() < deadline:
        k = len(durations)
        # the traced run alternates untraced and traced ops, so both see the same machine
        use_tracer = tracer if k % 2 == 1 else None
        elapsed, op_problems = run_op(workload, pkg, workload.make_input(), use_tracer, k)
        durations.append(elapsed)
        traced.append(use_tracer is not None)
        problems.append(op_problems)
        for line in op_problems[:3]:
            print(f"op {k} failed: {line}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = seed0_digest(pkg.cli, args.work_dir / "seed0")
    report = {
        "durations_s": durations,
        "traced": traced,
        "failed": [bool(p) for p in problems],
        "warmup_problems": warmup_problems,
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "digest_ok": digest == SEED0_DIGEST,
        "versions": versions(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if args.spans is not None:
            tracer.write_spans(args.spans, t_start)
    print(json.dumps(report), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
