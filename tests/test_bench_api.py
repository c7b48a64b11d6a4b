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


def _ou_op_at(bench_seed, index, work_dir):
    """Gate problems and |rho_03| of the ou_monte_carlo op on input ``index`` of a run."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pkg = SimpleNamespace(spinsys=spinsys, dynamics=dynamics)
    workload = workloads.OUMonteCarlo(bench_seed, work_dir)
    for _ in range(index + 1):
        inputs = workload.make_input()
    result = workload.run(pkg, inputs)
    problems, _ = workload.check(pkg, inputs, result)
    return problems, abs(complex(result["state"].matrix[0, 3]))


# (bench seed, input index, |rho_03|) of pinned ops; the values pin the noise
# realizations, which a change of generator or draw order moves by ~1e-2.
# Input 0 is a worker's warm-up op.
GATE_PASSES = [(0, 0, 0.33217666687410247), (5, 2539, 0.28265565469419396), (8, 6804, 0.2822903787859742)]


def test_ou_monte_carlo_op_passes_its_gate(tmp_path):
    for bench_seed, index, rho03 in GATE_PASSES:
        problems, got = _ou_op_at(bench_seed, index, tmp_path)
        assert problems == [], (bench_seed, index)
        assert got == pytest.approx(rho03, rel=0.0, abs=1e-12), (bench_seed, index)


def test_ou_monte_carlo_op_misses_its_gate_on_its_own_realization(tmp_path):
    # shot noise alone: the 4 SE + 0.01 gate misses a few ops per million,
    # and this input's pinned realization lies 5.35 SE below the mean
    problems, got = _ou_op_at(3, 23631, tmp_path)
    assert len(problems) == 1 and problems[0].startswith("mc: |rho_03| = 0.27373")
    assert got == pytest.approx(0.2737305573841954, rel=0.0, abs=1e-12)


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
