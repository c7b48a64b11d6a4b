"""Tests of the benchmark harness itself: the tail rule, self time, the gates."""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail_percentile(values) == (90.0, 90.0, 10)
    value, pct, above = run.tail_percentile([float(v) for v in range(14)])
    assert (value, above) == (3.0, 10)
    assert pct == pytest.approx(100.0 * 4 / 14)


def test_tail_with_too_few_samples_reports_how_many_are_above():
    assert run.tail_percentile([5.0, 1.0, 3.0]) == (1.0, 100.0 / 3, 2)


def test_self_time_subtracts_union_of_children():
    # op [0, 10] has children a [1, 4] and b [3, 6] that overlap; a has child c [2, 3]
    start = [0.0, 1.0, 3.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert tracing.self_times(start, end, parent) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_layer_self_times_add_up_to_the_op_time():
    # a single thread nests spans: op [0, 10] > expm [1, 4] > validate [2, 3]; build [5, 6]
    names = ["op", "dynamics.expm_hermitian", "spinsys.build_operator", "spinsys.validate_density_matrix"]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 6.0, 3.0]
    parent = [-1, 0, 0, 1]
    layers = tracing.layer_metrics(names, start, end, parent, {"dynamics.expm.matrices": 1})
    assert layers["unattributed.self_s"] == pytest.approx(6.0)
    assert layers["dynamics.expm.self_s"] == pytest.approx(2.0)
    assert layers["spinsys.validate.self_s"] == pytest.approx(1.0)
    assert layers["spinsys.build_operator.calls"] == 1
    total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert total == pytest.approx(layers["trace.op_s"]) == pytest.approx(10.0)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = set(tracing.layer_metrics([], [], [], [], {})) | {"trace.overhead_ratio"}
    assert set(listed) == produced
    assert all(run.layer_unit(name) == unit for name, unit in listed.items())
    assert spec["paths"] == ["bench"] and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them():
    from entangle_sense import cli, dynamics, protocols, scenarios

    original = dynamics.expm_hermitian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert protocols.expm_hermitian is dynamics.expm_hermitian is scenarios.expm_hermitian
        assert dynamics.expm_hermitian is not original
        assert scenarios.SCENARIO_RUNNERS["fig1f"] is scenarios.run_fig1f
        assert cli.SCENARIO_RUNNERS["fig1f"].__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert protocols.expm_hermitian is original is scenarios.expm_hermitian
    assert not hasattr(scenarios.SCENARIO_RUNNERS["fig1f"], "__wrapped__")


def test_figure_suite_gate_fails_a_corrupted_output(tmp_path):
    from entangle_sense import cli

    pkg = SimpleNamespace(cli=cli)
    suite = workloads.FigureSuite(seed=3, work_dir=tmp_path)
    inputs = suite.make_input()
    result = suite.run(pkg, inputs)
    problems, n_bytes = suite.check(pkg, inputs, result)
    assert problems == [] and n_bytes > 0

    path = tmp_path / "out" / "fig1f.json"
    payload = json.loads(path.read_text())
    payload["summary"]["transfer_time_s"] *= 1.2
    path.write_text(json.dumps(payload))
    problems, _ = suite.check(pkg, inputs, result)
    assert len(problems) == 1 and problems[0].startswith("fig1f: transfer time")

    assert suite.check(pkg, inputs, {"exit_codes": {"fig2a": 3}})[0] == ["fig2a: exit code 3"]


def test_sweep_gate_fails_a_crossing_out_of_range():
    summary = {
        "boundary_no_rr": {
            "d_crossing_hz_at_experimental_ratio": 76.0e3,
            "ratio_crossing_at_experimental_d": 0.41,
        },
        "experimental_cell": {"max_gain_no_rr": 0.9, "max_gain_with_rr": 1.2},
    }
    assert workloads.check_crossings(summary) == []
    summary["boundary_no_rr"]["ratio_crossing_at_experimental_d"] = None
    summary["experimental_cell"]["max_gain_with_rr"] = 0.95
    assert len(workloads.check_crossings(summary)) == 2


def test_monte_carlo_gate_fails_a_wrong_coherence():
    variance = 0.1868
    expected = 0.5 * math.exp(-2 * variance)
    assert workloads.check_bell_coherence(complex(expected, 0.01), variance, 200) == []
    assert workloads.check_bell_coherence(complex(0.5, 0.0), variance, 200) != []
