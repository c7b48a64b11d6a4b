"""entangle-sense benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload figure_suite --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Load comes from one process with one caller thread, in a closed loop: the
next op starts when the previous one has been checked.  Set-up is measured
SETUPS times, each in a fresh worker process (interpreter start, package
import, one untimed warm-up op); the last of those processes then runs the
measured loop.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of the traced run.  Spans
and a full result record go to ``.bench_out/``.  Exits 2 without a result
when the checkout holds no package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 3
TAIL_BEYOND = 10
TIME_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LOAD = "closed loop, one process, one caller thread"


class WorkerError(RuntimeError):
    pass


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples above).  With fewer than
    ``beyond + 1`` samples no percentile qualifies; the minimum is returned
    and the count above it says so.
    """
    xs = sorted(values)
    i = max(len(xs) - beyond - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs), len(xs) - 1 - i


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "load": LOAD,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Worker:
    """A worker process, timed from launch until it reports ready."""

    def __init__(self, args, work_dir: Path, spans: Path | None, deadline: float):
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(work_dir),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            if self.readline() != "ready":
                raise WorkerError("worker did not become ready")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def readline(self) -> str:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0.0))
        if not ready:
            raise WorkerError("worker timed out")
        return self.proc.stdout.readline().strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self) -> None:
        self.proc.stdin.close()
        code = self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        if code != 0:
            raise WorkerError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, work_dir: Path, spans: Path | None) -> tuple[list[float], dict]:
    """SETUPS fresh set-ups (one when tracing); the last one runs the loop."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    n_setups = 1 if args.trace else SETUPS
    for i in range(n_setups):
        worker = Worker(args, work_dir / f"w{i}", spans, deadline)
        try:
            setups.append(worker.setup_s)
            if i < n_setups - 1:
                worker.send("exit")
                worker.finish()
                continue
            worker.send("go")
            line = worker.readline()
            worker.finish()
        finally:
            worker.kill()
    try:
        return setups, json.loads(line)
    except json.JSONDecodeError as exc:
        raise WorkerError(f"unreadable worker report: {exc}") from None


def end_to_end(setups: list[float], report: dict) -> tuple[dict, list[str]]:
    durations = report["durations_s"]
    attempted = len(durations)
    failed = sum(report["failed"])
    tail, pct, above = tail_percentile(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups: "
        + " ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{attempted} ops over {sum(durations):.3f} s of op time",
        "op_p50_ms": f"{attempted} samples",
        "op_tail_ms": f"p{pct:.1f}, {above} of {attempted} samples above"
        + ("" if above >= TAIL_BEYOND else " (too few samples for a tail)"),
        "ok_ratio": f"{attempted - failed} of {attempted} ops passed",
        "peak_rss_mb": "high-water RSS of the measuring worker",
    }
    lines = [f"{name:<14}{value:>14.6g} {unit:<5} {notes[name]}" for name, (value, unit) in metrics.items()]
    # a metric that reads 0 cannot carry a bound relative to its median, so
    # failed_ratio is printed and its complement ok_ratio is the gated metric
    lines.append(f"{'failed_ratio':<14}{failed / attempted:>14.6g} {'1':<5} "
                 f"{failed} of {attempted} ops failed (printed only; ok_ratio is gated)")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


LAYER_UNITS = (
    (".self_s", "s/op"), (".calls", "calls/op"), (".states", "states/op"),
    (".matrices", "matrices/op"), (".unique_h_ratio", "1"), (".trajectory_steps", "steps/op"),
    (".iters", "iters/op"), (".converged_ratio", "1"), (".cells", "cells/op"),
    (".ns_per_cell", "ns/cell"), (".bytes", "B/op"), (".overhead_ratio", "1"),
    (".ops", "count"), (".op_s", "s/op"), (".s", "s/op"),
)


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def per_layer(report: dict) -> tuple[dict, list[str]]:
    durations, traced = report["durations_s"], report["traced"]
    on = [d for d, t in zip(durations, traced) if t]
    off = [d for d, t in zip(durations, traced) if not t]
    layers = dict(report["layers"])
    # traced ops/s over untraced ops/s, from alternating ops of one process
    layers["trace.overhead_ratio"] = (len(on) / sum(on)) / (len(off) / sum(off)) if on and off else 0.0
    lines = [
        "# per-op means over the traced ops; self time = span time minus child spans",
        "# no layer waits in a queue in this single-threaded program, so none has a wait metric",
    ]
    lines += [f"{name:<34}{value:>14.6g} {layer_unit(name)}" for name, value in layers.items()]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "entangle_sense" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'entangle_sense'}; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"spans-{tag}.tsv.gz" if args.trace else None
    work_dir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        setups, report = measure(args, work_dir, spans)
    except WorkerError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(report["durations_s"])
    failed = sum(report["failed"])
    if args.trace:
        metrics, lines = per_layer(report)
        total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        accounted = abs(total - report["layers"]["trace.op_s"]) <= 1e-9 * max(total, 1.0)
        lines.append(f"# layer self times + unattributed = {total:.6g} s/op; traced op time "
                     f"{report['layers']['trace.op_s']:.6g} s/op ({'ok' if accounted else 'MISMATCH'})")
    else:
        metrics, lines = end_to_end(setups, report)
        accounted = True
    correct = failed == 0 and not report["warmup_problems"] and report["digest_ok"] and accounted
    record = {"machine": {**machine(), **report["versions"]}, "args": vars(args)}

    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# machine {json.dumps(record['machine'])}")
    for line in lines:
        print(line)
    print(f"# seed-0 output digest {report['digest']} ({'ok' if report['digest_ok'] else 'MISMATCH'})")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({**record, "setups_s": setups, "report": report, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
