"""The benchmark's ops run on the package's public API.

``bench/workloads.py`` builds the ou_monte_carlo op from ``spinsys.layout``,
``spinsys.pure_state`` and ``dynamics.HamiltonianSpec(layout=...)``, and
``bench/tracing.py``'s hooks read the results of the functions they wrap,
so a change to any of those call shapes or result types fails here, before
a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from entangle_sense import cli, dynamics, spinsys

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


def test_ou_monte_carlo_op_passes_its_gate(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pkg = SimpleNamespace(spinsys=spinsys, dynamics=dynamics)
    workload = workloads.OUMonteCarlo(0, tmp_path)
    inputs = workload.make_input()
    result = workload.run(pkg, inputs)
    problems, _ = workload.check(pkg, inputs, result)
    assert problems == []


def test_traced_figure_suite_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    pkg = SimpleNamespace(cli=cli, dynamics=dynamics, spinsys=spinsys)
    workload = workloads.FigureSuite(0, tmp_path)
    inputs = workload.make_input()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        result = workload.run(pkg, inputs)
        tracer.end_op()
    finally:
        tracer.uninstall()
    problems, _ = workload.check(pkg, inputs, result)
    assert problems == []
    metrics = tracer.layer_metrics()
    assert metrics["trace.ops"] == 1.0
    assert metrics["analysis.sweep.cells"] == 3200.0  # fig4c's two 40 x 40 maps
    self_s = sum(metrics[f"{group}.self_s"] for group in tracing.LAYER_GROUPS + ["unattributed"])
    assert self_s == pytest.approx(metrics["trace.op_s"], rel=1e-9)
