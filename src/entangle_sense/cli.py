"""Command-line scenario runner.

`entangle-sense run --scenario fig3a --out results/` writes
`<out>/<scenario>.csv` (plot-ready data), `<out>/<scenario>.json`
(summary), and `<out>/<scenario>.meta.json` (run record).  Identical
(config, seed) pairs produce byte-identical CSV/JSON.  Each output is
rewritten in place: opened without truncation, written, then cut at its
new end, which is several times cheaper than truncating first on
filesystems that free blocks eagerly.  So a run interrupted mid-write can
leave a file holding its new bytes followed by the previous run's tail;
such a run never exits 0.

Exit codes: 0 success; 2 a config that cannot be read, decoded as UTF-8,
parsed or validated, or an output path that cannot be created or written
(one stderr line); 3 one or more fits failed to converge (the outputs
are still written), or a valid config admits no solution, such as an
unreachable calibration target or a decay amplitude that underflows to 0
(nothing is written; one stderr line names the scenario and the config
keys behind the failing inputs).
A gain curve that never crosses unity is not a failure: its crossing is
written as null.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import _rewrite, write_curve_csv
from .config import MISSING_SCENARIO, SCENARIOS, ConfigError, resolve
from .scenarios import SCENARIO_RUNNERS
from .spinsys import InfeasibleError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entangle-sense",
        description="Two-spin entanglement-enhanced magnetometry simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write CSV/JSON outputs")
    run_p.add_argument("--scenario", choices=SCENARIOS, help="scenario to run")
    run_p.add_argument("--config", type=Path, help="JSON config file merged over defaults")
    run_p.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output directory (default: $ENTANGLE_SENSE_OUT or the working directory)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="override rng seed")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress output")

    val_p = sub.add_parser("validate", help="check a config file and list every violation")
    val_p.add_argument("config", type=Path, help="JSON config file")
    return parser


def _run(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config_text = None
    if args.config is not None:
        config_text = _read_config(args.config)
        if config_text is None:
            return EXIT_CONFIG
    try:
        cfg = resolve(scenario=args.scenario, config_text=config_text, seed=args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    scenario = cfg["scenario"]
    out_dir = args.out
    if out_dir is None:
        env = os.environ.get("ENTANGLE_SENSE_OUT")
        out_dir = Path(env) if env else Path.cwd()

    rng = np.random.default_rng(int(cfg["run.seed"]))
    resolved = time.perf_counter()
    try:
        columns, summary = SCENARIO_RUNNERS[scenario](cfg, rng)
    except InfeasibleError as exc:
        keys = ", ".join(exc.config_keys) or "config"
        print(f"error: {scenario}: {keys}: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    ran = time.perf_counter()

    csv_path = out_dir / f"{scenario}.csv"
    json_path = out_dir / f"{scenario}.json"
    meta_path = out_dir / f"{scenario}.meta.json"
    payload = {"scenario": scenario, "summary": summary, "config": cfg.data}
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(str(csv_path), columns)
        _rewrite(json_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        stage_s = {
            "resolve": resolved - started,
            "run": ran - resolved,
            "write": time.perf_counter() - ran,
        }
        meta = {
            "config_hash_sha256": cfg.content_hash(),
            "outputs": [csv_path.name, json_path.name, meta_path.name],
            "stage_s": stage_s,
            "version": __version__,
            "versions": _library_versions(),
        }
        _rewrite(meta_path, json.dumps(meta, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    converged = bool(summary.get("converged", True))
    if not args.quiet:
        status = "ok" if converged else "non-convergent fit(s)"
        print(f"{scenario}: wrote {csv_path}, {json_path} ({status}, {stage_s['run']:.2f} s)")
    return EXIT_OK if converged else EXIT_NO_CONVERGENCE


def _library_versions() -> dict[str, str]:
    """Python and numpy versions, the only libraries the package imports."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def _read_config(path: Path) -> str | None:
    """The config file's text, or None after one stderr line if it cannot be read or decoded."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return None


def _validate(args: argparse.Namespace) -> int:
    text = _read_config(args.config)
    if text is None:
        return EXIT_CONFIG
    try:
        resolve(config_text=text)
        diagnostics = []
    except ConfigError as exc:
        # a config file may leave the scenario to `run --scenario`
        diagnostics = [d for d in exc.diagnostics if d != MISSING_SCENARIO]
    if not diagnostics:
        print("config is valid")
        return EXIT_OK
    for diag in diagnostics:
        print(diag)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    return _validate(args)


if __name__ == "__main__":
    sys.exit(main())
