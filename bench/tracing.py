"""Span tracing for the benchmark's traced run, from outside the package.

``Tracer`` wraps the public functions of each ``entangle_sense`` module (and
``HamiltonianSpec.assemble``).  A function is replaced in every module
namespace, and every module-level dict, that binds it: ``from .dynamics
import expm_hermitian`` in ``protocols`` and ``scenarios`` is patched there
as well as in ``dynamics``, and ``scenarios.SCENARIO_RUNNERS`` is patched so
the CLI reaches the traced runners.  Nothing under ``src/`` changes.

Each call records a span (name, start, end, parent, op id) in flat arrays in
memory; ``write_spans`` writes them out when the run ends.  A span's self
time is its duration minus the part of it that its child spans cover.  Self
times are summed into layer groups; the benchmark's own op span takes what
no wrapped function covers, reported as ``unattributed``.  Nothing waits in
a queue in this single-threaded program, so no layer has a wait time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

from workloads import SCENARIOS

PACKAGE = "entangle_sense"

# layer group of each traced function; a public function not named here
# belongs to its module's default group
GROUPS = {
    "spinsys.validate_density_matrix": "spinsys.validate",
    "spinsys.build_operator": "spinsys.build_operator",
    "dynamics.HamiltonianSpec.assemble": "dynamics.assemble",
    "dynamics.expm_hermitian": "dynamics.expm",
    "dynamics.optical_pump": "dynamics.channels",
    "dynamics.driven_decay": "dynamics.channels",
    "dynamics.apply_envelope": "dynamics.channels",
    "dynamics.ou_trajectory": "dynamics.ou_path",
    "dynamics.monte_carlo_propagate": "dynamics.mc",
    "protocols.apply_exchange_gate": "protocols.exchange_gate",
    "protocols.modulated_disentangle_scan": "protocols.scan",
    "protocols.echo_sense": "protocols.echo",
    "protocols.calibrate_gate_error": "protocols.calibrate",
    "protocols.verify_phase_recipes": "protocols.calibrate",
    "analysis.fit_sinusoid": "analysis.fit",
    "analysis.fit_stretched_exp": "analysis.fit",
    "analysis.check_jacobian": "analysis.fit",
    "analysis.sweep_gain_map": "analysis.sweep",
    "analysis.write_curve_csv": "cli.write",
    "analysis.write_grid_csv": "cli.write",
}
DEFAULT_GROUPS = {
    "spinsys": "spinsys.other",
    "dynamics": "dynamics.other",
    "protocols": "protocols.other",
    "readout": "readout",
    "analysis": "analysis.gain",
    "config": "config.resolve",
    "cli": "cli",
    "scenarios": "scenarios",
}
METHODS = {"dynamics": ("HamiltonianSpec.assemble",)}
OP_SPAN = "op"


def _elements(mat) -> int:
    """Number of matrices in a (..., d, d) array."""
    n = 1
    for size in mat.shape[:-2]:
        n *= size
    return n


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _count_states(tracer, args, kwargs, result) -> None:
    tracer.counts["spinsys.validate.states"] += _elements(_first_arg(args, kwargs))


def _count_expm(tracer, args, kwargs, result) -> None:
    h = _first_arg(args, kwargs)
    tracer.counts["dynamics.expm.matrices"] += _elements(h)
    d = h.shape[-1]
    for mat in h.reshape(-1, d, d):
        tracer.distinct_h.add(mat.tobytes())


def _count_steps(tracer, args, kwargs, result) -> None:
    tracer.counts["dynamics.mc.trajectory_steps"] += result.size


def _count_fit(tracer, args, kwargs, result) -> None:
    tracer.counts["analysis.fit.iters"] += result.n_iter
    tracer.counts["analysis.fit.converged"] += bool(result.converged)


def _count_cells(tracer, args, kwargs, result) -> None:
    tracer.counts["analysis.sweep.cells"] += result.values.size


HOOKS = {
    "spinsys.validate_density_matrix": _count_states,
    "dynamics.expm_hermitian": _count_expm,
    "dynamics.ou_trajectory": _count_steps,
    "analysis.fit_sinusoid": _count_fit,
    "analysis.fit_stretched_exp": _count_fit,
    "analysis.sweep_gain_map": _count_cells,
}


class Tracer:
    """Patches the package's public functions with span-recording wrappers."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_h: set[bytes] = set()
        self._patches: list[tuple[object, str, object, object]] = []
        self._collect()

    # -- patching ---------------------------------------------------------

    def _collect(self) -> None:
        originals: dict[int, tuple[object, object]] = {}
        for short in DEFAULT_GROUPS:
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for key, obj in vars(module).items():
                if (key.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{key}"))
            for path in METHODS.get(short, ()):
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                func = cls.__dict__[meth]
                self._patches.append((cls, meth, func, self._wrap(func, f"{short}.{path}")))
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for key, obj in vars(module).items():
                if key.startswith("__"):
                    continue
                if id(obj) in originals:
                    self._patches.append((module, key, *originals[id(obj)]))
                elif isinstance(obj, dict):
                    for item_key, value in obj.items():
                        if id(value) in originals:
                            self._patches.append((obj, item_key, *originals[id(value)]))

    def install(self) -> None:
        for target, key, _, wrapper in self._patches:
            _set(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, original, _ in self._patches:
            _set(target, key, original)

    def _wrap(self, func, name: str):
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        name_id, parent, op_id, start, end = self.name_id, self.parent, self.op_id, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer._op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the root span of one op; wrappers must be installed."""
        self._op = op
        self.distinct_h.clear()
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.op_id.append(op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())

    def end_op(self) -> None:
        idx = self._stack.pop()
        self.end[idx] = time.perf_counter()
        self.counts["dynamics.expm.distinct"] += len(self.distinct_h)
        self._op = -1

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means of every layer metric over the traced ops."""
        return layer_metrics(
            [self.names[i] for i in self.name_id], self.start, self.end, self.parent, self.counts
        )

    def write_spans(self, path: Path, t0: float) -> None:
        """Gzipped TSV, one span per line, times in seconds since ``t0``."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op_id[i]}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def _set(target, key, value) -> None:
    if isinstance(target, dict):
        target[key] = value
    else:
        setattr(target, key, value)


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        cur_s = cur_e = None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def group_of(name: str) -> str:
    if name == OP_SPAN:
        return "unattributed"
    return GROUPS.get(name, DEFAULT_GROUPS[name.split(".", 1)[0]])


LAYER_GROUPS = sorted(set(GROUPS.values()) | set(DEFAULT_GROUPS.values()))
CALL_GROUPS = (
    "spinsys.build_operator", "dynamics.assemble", "dynamics.expm", "protocols.exchange_gate",
    "protocols.echo", "protocols.calibrate", "analysis.fit", "analysis.gain",
)


def layer_metrics(names, start, end, parent, counts) -> dict[str, float]:
    """Per-op layer metrics from a span list (``names[i]`` is span i's name).

    Spans named ``op`` are the roots, one per traced op.  The self times of
    all groups, ``unattributed`` included, add up to ``trace.op_s``.
    """
    selfs = self_times(start, end, parent)
    count = defaultdict(float, counts)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    figure_s: dict[str, float] = defaultdict(float)
    n_ops = 0
    op_total = 0.0
    for i, name in enumerate(names):
        group = group_of(name)
        self_s[group] += selfs[i]
        calls[group] += 1
        if name == OP_SPAN:
            n_ops += 1
            op_total += end[i] - start[i]
        elif name.startswith("scenarios.run_"):
            figure_s[name[len("scenarios.run_"):]] += end[i] - start[i]
    per_op = 1.0 / max(n_ops, 1)
    out: dict[str, float] = {}
    for group in LAYER_GROUPS + ["unattributed"]:
        out[f"{group}.self_s"] = self_s[group] * per_op
    for group in CALL_GROUPS:
        out[f"{group}.calls"] = calls[group] * per_op
    out["spinsys.validate.states"] = count["spinsys.validate.states"] * per_op
    matrices = count["dynamics.expm.matrices"]
    out["dynamics.expm.matrices"] = matrices * per_op
    out["dynamics.expm.unique_h_ratio"] = count["dynamics.expm.distinct"] / matrices if matrices else 0.0
    out["dynamics.mc.trajectory_steps"] = count["dynamics.mc.trajectory_steps"] * per_op
    fits = calls["analysis.fit"]
    out["analysis.fit.iters"] = count["analysis.fit.iters"] * per_op
    out["analysis.fit.converged_ratio"] = count["analysis.fit.converged"] / fits if fits else 1.0
    cells = count["analysis.sweep.cells"]
    out["analysis.sweep.cells"] = cells * per_op
    out["analysis.sweep.ns_per_cell"] = self_s["analysis.sweep"] / cells * 1e9 if cells else 0.0
    out["cli.write.bytes"] = count["cli.write.bytes"] * per_op
    for fig in SCENARIOS:
        out[f"scenarios.{fig}.s"] = figure_s[fig] * per_op
    out["trace.op_s"] = op_total * per_op
    out["trace.ops"] = float(n_ops)
    return out
