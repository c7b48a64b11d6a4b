"""The benchmark's ou_monte_carlo op runs on the package's public API.

``bench/workloads.py`` builds that op from ``spinsys.layout``,
``spinsys.pure_state`` and ``dynamics.HamiltonianSpec(layout=...)``, so a
change to any of those call shapes fails here, before a benchmark run.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from entangle_sense import dynamics, spinsys

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
