import contextlib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entangle_sense
from entangle_sense import spinsys
from entangle_sense.cli import main
from entangle_sense.config import PARAMETERS, SCENARIOS, ConfigError, DEFAULTS, resolve, validate

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(argv):
    return main(argv)


def test_run_writes_three_files(tmp_path):
    rc = _run(["run", "--scenario", "fig2a", "--out", str(tmp_path), "--quiet"])
    assert rc == 0
    for suffix in (".csv", ".json", ".meta.json"):
        assert (tmp_path / f"fig2a{suffix}").exists()


def test_run_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = _run(["run", "--scenario", "fig3a", "--seed", "7", "--out", str(out), "--quiet"])
        assert rc == 0
    assert (a / "fig3a.csv").read_bytes() == (b / "fig3a.csv").read_bytes()
    assert (a / "fig3a.json").read_bytes() == (b / "fig3a.json").read_bytes()


def test_run_seed_changes_noisy_output(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run(["run", "--scenario", "fig3a", "--seed", "1", "--out", str(a), "--quiet"])
    _run(["run", "--scenario", "fig3a", "--seed", "2", "--out", str(b), "--quiet"])
    assert (a / "fig3a.csv").read_bytes() != (b / "fig3a.csv").read_bytes()


def test_json_echoes_resolved_config(tmp_path):
    _run(["run", "--scenario", "fig2d", "--out", str(tmp_path), "--quiet"])
    payload = json.loads((tmp_path / "fig2d.json").read_text())
    assert payload["config"]["coupling"]["d_hz"] == 58e3
    assert payload["config"]["budget"]["tau_rr_s"] == 6.1e-6
    assert payload["config"]["metadata"]["static_field_gauss"] == 205.2
    assert payload["summary"]["converged"] is True


def test_meta_contains_stable_hash(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        _run(["run", "--scenario", "fig2d", "--seed", "3", "--out", str(out), "--quiet"])
    ha = json.loads((a / "fig2d.meta.json").read_text())["config_hash_sha256"]
    hb = json.loads((b / "fig2d.meta.json").read_text())["config_hash_sha256"]
    assert ha == hb and len(ha) == 64


def test_meta_reports_package_version(tmp_path):
    _run(["run", "--scenario", "fig2d", "--out", str(tmp_path), "--quiet"])
    meta = json.loads((tmp_path / "fig2d.meta.json").read_text())
    assert meta["version"] == entangle_sense.__version__


def test_meta_reports_stage_timings(tmp_path):
    _run(["run", "--scenario", "fig2d", "--out", str(tmp_path), "--quiet"])
    meta = json.loads((tmp_path / "fig2d.meta.json").read_text())
    assert set(meta["stage_s"]) == {"resolve", "run", "write"}
    assert all(isinstance(s, float) and s >= 0.0 for s in meta["stage_s"].values())


SCIPY_GUARD = """
import sys
from pathlib import Path

src, out = sys.argv[1], Path(sys.argv[2])
sys.path.insert(0, src)
from entangle_sense import cli
from entangle_sense.config import SCENARIOS

config = out / "empty.json"
config.write_text("{}")
assert cli.main(["validate", str(config)]) == 0
assert "scipy" not in sys.modules, "validate imported scipy"
for fig in SCENARIOS:
    assert cli.main(["run", "--scenario", fig, "--seed", "0", "--out", str(out), "--quiet"]) == 0
    assert "scipy" not in sys.modules, f"{fig} imported scipy"
"""


def test_no_scenario_imports_scipy(tmp_path):
    subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, str(SRC), str(tmp_path)], check=True, cwd=tmp_path
    )
    for fig in SCENARIOS:
        versions = json.loads((tmp_path / f"{fig}.meta.json").read_text())["versions"]
        assert versions == {"python": platform.python_version(), "numpy": np.__version__}, fig


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("ENTANGLE_SENSE_OUT", str(tmp_path / "envout"))
    rc = _run(["run", "--scenario", "fig2a", "--quiet"])
    assert rc == 0
    assert (tmp_path / "envout" / "fig2a.csv").exists()


def test_invalid_scenario_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit):
        _run(["run", "--scenario", "fig9z", "--out", str(tmp_path)])


def test_missing_scenario_is_config_error(tmp_path):
    rc = _run(["run", "--out", str(tmp_path), "--quiet"])
    assert rc == 2


def test_bad_config_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    rc = _run(["run", "--scenario", "fig2a", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("target", ["file_as_out_dir", "directory_as_csv"])
def test_unwritable_out_exits_2(target, tmp_path, capsys):
    out = tmp_path
    if target == "file_as_out_dir":
        out = tmp_path / "README.md"
        out.write_text("not a directory")
    else:
        (tmp_path / "fig2a.csv").mkdir()
    rc = _run(["run", "--scenario", "fig2a", "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write outputs: ")


def test_validate_default_config_clean(tmp_path, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text("{}")
    assert _run(["validate", str(cfg)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_names_parameter_path(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nuclear": {"polarization": 1.5}}))
    assert _run(["validate", str(cfg)]) == 2
    assert "nuclear.polarization" in capsys.readouterr().out


def test_validate_missing_coupling(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "fig1f", "coupling": {"d_hz": None}}))
    assert _run(["validate", str(cfg)]) == 2
    assert "coupling.d_hz" in capsys.readouterr().out


def test_validate_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"couplng": {"d_hz": 58e3}}))
    assert _run(["validate", str(cfg)]) == 2
    assert "couplng" in capsys.readouterr().out


def test_resolve_applies_overrides():
    cfg = resolve(scenario="fig2a", seed=42, trajectories=99)
    assert cfg["run.seed"] == 42
    assert cfg["run.trajectories"] == 99
    with pytest.raises(ConfigError):
        resolve(scenario="fig2a", config_text='{"pump": {"efficiency": 2.0}}')


def test_defaults_pass_validation():
    data = json.loads(json.dumps(DEFAULTS))
    data["scenario"] = "fig2a"
    assert validate(data) == []


def _dicts(node):
    """Every dict in a nested config, the top one included."""
    if not isinstance(node, dict):
        return []
    return [node] + [d for value in node.values() for d in _dicts(value)]


MERGED_CONFIG = '{"pump": {"efficiency": 0.5}, "run": {"seed": 3}}'


@pytest.mark.parametrize("config_text", [None, MERGED_CONFIG], ids=["defaults", "merged"])
def test_resolved_configs_share_no_dict(config_text):
    defaults_before = json.dumps(DEFAULTS, sort_keys=True)
    first = resolve(scenario="fig2a", config_text=config_text)
    second = resolve(scenario="fig2a", config_text=config_text)
    second_before = json.dumps(second.data, sort_keys=True)
    ids = [{id(d) for d in _dicts(data)} for data in (DEFAULTS, first.data, second.data)]
    assert not ids[0] & ids[1] and not ids[0] & ids[2] and not ids[1] & ids[2]
    for d in _dicts(first.data):
        for key in list(d):
            d[key] = "mutated"
    assert json.dumps(DEFAULTS, sort_keys=True) == defaults_before
    assert json.dumps(second.data, sort_keys=True) == second_before


# content hashes (sha256 of the sorted, compact JSON) of the resolved fig2a
# config with the defaults and with MERGED_CONFIG, as deep copies gave them
PINNED_CONFIG_HASHES = {
    None: "2ef9676995ef4871853c2cd176d8911e2aad9f5427b26e9487a36a56d53341e1",
    MERGED_CONFIG: "d6f27e2299fd862f5376642649fea18c00f4aa80aaa6392c6e55d238dbab4788",
}


@pytest.mark.parametrize("config_text", [None, MERGED_CONFIG], ids=["defaults", "merged"])
def test_resolved_config_json_is_unchanged(config_text):
    cfg = resolve(scenario="fig2a", config_text=config_text)
    assert cfg.content_hash() == PINNED_CONFIG_HASHES[config_text]


DELETE = object()

# (dotted keys set on the defaults, or deleted, and the exact diagnostics),
# written out here rather than derived from config.PARAMETERS, so a bound
# or flag mistyped in the table fails
VALIDATE_CASES = {
    "open lower bound": (
        {"decoherence.gamma2_nv_hz": 0},
        ["decoherence.gamma2_nv_hz: value 0 outside (0.0, 1000000000.0]"],
    ),
    "closed bound reached": ({"decoherence.gamma2_x_hz": 0, "decoherence.p": 3.0}, []),
    "closed bound passed": ({"decoherence.p": 3.5}, ["decoherence.p: value 3.5 outside [0.5, 3.0]"]),
    "non-integer": ({"sweep.d_points": 2.5}, ["sweep.d_points: expected an integer"]),
    "integer bound": ({"readout.m_max": -1}, ["readout.m_max: value -1 outside [0, 1000]"]),
    "bool": ({"run.seed": True}, ["run.seed: expected a number, got bool"]),
    # non-finite values of integer keys are named by the range check, as for float keys
    "nan integer": ({"run.seed": float("nan")}, ["run.seed: value nan outside [0, 9223372036854775807]"]),
    "infinite integers": (
        {"nuclear.transitions": float("inf"), "readout.m_max": float("inf"), "sweep.m_max": float("-inf")},
        [
            "nuclear.transitions: value inf outside [1, 2]",
            "readout.m_max: value inf outside [0, 1000]",
            "sweep.m_max: value -inf outside [0, 1000]",
        ],
    ),
    "non-finite sweep points": (
        {"sweep.d_points": float("nan"), "sweep.ratio_points": float("inf"), "run.trajectories": float("nan")},
        [
            "sweep.d_points: value nan outside [2, 1000]",
            "sweep.ratio_points: value inf outside [2, 1000]",
            "run.trajectories: value nan outside [1, 1000000000]",
        ],
    ),
    "huge integer": ({"run.seed": 10**400}, [f"run.seed: value {10**400} outside [0, 9223372036854775807]"]),
    "missing key": ({"coupling.t1rho_s": DELETE}, ["coupling.t1rho_s: required parameter is missing"]),
    "ladder sum": (
        {"readout.amplitude_sum": 11.0},
        ["readout.amplitude_sum: value 11.0 above readout.m_max + 1 (10)"],
    ),
    "axis order": (
        {"sweep.d_min_hz": 2e5},
        ["sweep.d_min_hz: value 200000.0 must be below sweep.d_max_hz (150000.0)"],
    ),
    "axis spacing": (
        {"sweep.ratio_min": 1.0, "sweep.ratio_max": 1.0000000000000002},
        ["sweep.ratio_min: value 1.0 too close to sweep.ratio_max (1.0000000000000002) for 40 distinct points"],
    ),
    # the cross-field rules are checked after every key
    "cross-field rules last": (
        {"sweep.d_min_hz": 2e5, "readout.amplitude_sum": 11.0, "run.trajectories": 0},
        [
            "run.trajectories: value 0 outside [1, 1000000000]",
            "readout.amplitude_sum: value 11.0 above readout.m_max + 1 (10)",
            "sweep.d_min_hz: value 200000.0 must be below sweep.d_max_hz (150000.0)",
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_CASES))
def test_validate_messages(case):
    changes, expected = VALIDATE_CASES[case]
    data = json.loads(json.dumps(DEFAULTS))
    data["scenario"] = "fig2a"
    for key, value in changes.items():
        section, name = key.split(".")
        if value is DELETE:
            del data[section][name]
        else:
            data[section][name] = value
    assert validate(data) == expected


@pytest.mark.parametrize("command", ["run", "validate"])
def test_non_utf8_config_exits_2(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"scenario": "fig2a\xff"}')
    argv = {"run": ["run", "--config", str(cfg), "--out", str(tmp_path)], "validate": ["validate", str(cfg)]}
    assert _run(argv[command]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot read config: ")
    assert captured.out == ""
    assert not (tmp_path / "fig2a.csv").exists()


# sha256 over the non-meta CSV/JSON outputs of all ten scenarios at seed 0
# with the default config, in file-name order (the digest in ROADMAP.md)
SEED0_DIGEST = "d99da458023874264d707c36656d0f1ad1db3045e2988f71066c2ae1daa0ec5f"


def _outputs_digest(out):
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix in (".csv", ".json") and not path.name.endswith(".meta.json"):
            h.update(path.read_bytes())
    return h.hexdigest()


def test_seed0_outputs_match_digest(tmp_path):
    for scenario in SCENARIOS:
        assert _run(["run", "--scenario", scenario, "--out", str(tmp_path), "--quiet"]) == 0
    assert _outputs_digest(tmp_path) == SEED0_DIGEST


def test_cli_states_are_x_states(tmp_path, monkeypatch):
    # an X-state has nonzero entries only on the diagonal and the
    # anti-diagonal; every pumped, gated and damped state on the CLI path
    # keeps that form, so every other entry must be exactly 0
    seen = []
    validate = spinsys.validate_density_matrix

    def recording(mat):
        seen.extend(mat.reshape(-1, 4, 4))
        validate(mat)

    monkeypatch.setattr(spinsys, "validate_density_matrix", recording)
    for seed in ("0", "3"):
        for scenario in SCENARIOS:
            assert _run(["run", "--scenario", scenario, "--seed", seed, "--out", str(tmp_path), "--quiet"]) == 0
    states = np.array(seen)
    off_x = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])
    assert len(states) > 1000
    assert not states[:, off_x].any()


def test_outputs_rewritten_over_a_previous_run_match_digest(tmp_path):
    # outputs are rewritten in place: the seed-7 run on a finer sweep leaves
    # files that differ in length from the seed-0 ones, some of them longer,
    # and each must be cut at its new end
    out = tmp_path / "out"
    cfg = tmp_path / "fine.json"
    cfg.write_text(json.dumps({"sweep": {"d_points": 60, "ratio_points": 50}}))
    for scenario in SCENARIOS:
        argv = ["run", "--scenario", scenario, "--config", str(cfg), "--seed", "7", "--out", str(out)]
        assert _run(argv + ["--quiet"]) == 0
    first = {path.name: path.stat().st_size for path in out.iterdir()}
    for scenario in SCENARIOS:
        assert _run(["run", "--scenario", scenario, "--out", str(out), "--quiet"]) == 0
    assert any(size > (out / name).stat().st_size for name, size in first.items())
    assert _outputs_digest(out) == SEED0_DIGEST


# configs that once passed validation and then crashed the scenario that
# reads them, or crashed validation itself (non-finite integer keys)
CRASHING_CONFIGS = {
    "nan_seed": ("fig2a", {"run": {"seed": float("nan")}}, "run.seed"),
    "infinite_readout_m_max": ("fig2d", {"readout": {"m_max": float("inf")}}, "readout.m_max"),
    "infinite_trajectories": ("fig2b", {"run": {"trajectories": float("inf")}}, "run.trajectories"),
    "d_min_above_d_max": ("fig4c", {"sweep": {"d_min_hz": 2.0e5}}, "sweep.d_min_hz"),
    "ratio_min_above_ratio_max": ("fig4c", {"sweep": {"ratio_min": 2.0}}, "sweep.ratio_min"),
    "zero_gamma2_nv": ("fig4a", {"decoherence": {"gamma2_nv_hz": 0}}, "decoherence.gamma2_nv_hz"),
    "zero_alpha0_nv": ("fig4c", {"decoherence": {"alpha0_nv": 0}}, "decoherence.alpha0_nv"),
    "amplitude_sum_one": ("fig2d", {"readout": {"amplitude_sum": 1.0}}, "readout.amplitude_sum"),
    "amplitude_sum_above_ladder": ("fig2d", {"readout": {"amplitude_sum": 11.0}}, "readout.amplitude_sum"),
    # bounds a few ulp apart: the linspace repeats a point
    "d_bounds_one_ulp_apart": (
        "fig4c", {"sweep": {"d_min_hz": 1.0, "d_max_hz": 1.0000000000000002}}, "sweep.d_min_hz"),
    "ratio_bounds_one_ulp_apart": (
        "fig4c", {"sweep": {"ratio_min": 99.99999999999999, "ratio_max": 100}}, "sweep.ratio_min"),
    "ratio_bounds_subnormal": ("fig4c", {"sweep": {"ratio_min": 0, "ratio_max": 5e-324}}, "sweep.ratio_min"),
}


@pytest.mark.parametrize("case", sorted(CRASHING_CONFIGS))
def test_crashing_config_exits_2(case, tmp_path, capsys):
    scenario, override, path = CRASHING_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert _run(["validate", str(cfg)]) == 2
    assert path in capsys.readouterr().out
    rc = _run(["run", "--scenario", scenario, "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / f"{scenario}.csv").exists()



# configs that validate but admit no solution: the scenario exits 3 and names the key
INFEASIBLE_CONFIGS = {
    "unreachable_one_round_polarization": (
        "fig2a", {"calibration": {"one_round_x_polarization": 0.99}}, "calibration.one_round_x_polarization"),
    "all_ones_ladder": ("fig2d", {"readout": {"amplitude_sum": 10}}, "readout.amplitude_sum"),
    "nv_unpolarized_before_gate": (
        "fig2b",
        {"pump": {"efficiency": 0.0}, "calibration": {"initial_x_polarization": 0.0, "one_round_x_polarization": 0.0}},
        "pump.efficiency, calibration.initial_x_polarization"),
    "unit_snr_gain": ("fig2d", {"readout": {"snr_at_m": 1.0}}, "readout.snr_at_m"),
    "unit_snr_gain_fig4c": ("fig4c", {"readout": {"snr_at_m": 1.0}}, "readout.snr_at_m"),
    "snr_gain_beyond_geometric_ladder": ("fig4c", {"readout": {"snr_at_m": 4.0}}, "readout.m_max"),
    "zero_two_spin_amplitude_fig4a": ("fig4a", {"decoherence": {"alpha0_two_spin": 0}}, "decoherence.alpha0_two_spin"),
    "zero_two_spin_amplitude_fig4b": ("fig4b", {"decoherence": {"alpha0_two_spin": 0}}, "decoherence.alpha0_two_spin"),
    "nv_amplitude_underflow_fig4a": ("fig4a", {"decoherence": {"gamma2_nv_hz": 1e9}}, "decoherence.gamma2_nv_hz"),
    "nv_amplitude_underflow_fig4b": ("fig4b", {"decoherence": {"gamma2_nv_hz": 1e9}}, "decoherence.gamma2_nv_hz"),
}


@pytest.mark.parametrize("case", sorted(INFEASIBLE_CONFIGS))
def test_infeasible_config_exits_3(case, tmp_path, capsys):
    scenario, override, path = INFEASIBLE_CONFIGS[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(override))
    assert _run(["validate", str(cfg)]) == 0
    capsys.readouterr()
    rc = _run(["run", "--scenario", scenario, "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"error: {scenario}: ") and err.count("\n") == 1
    assert path in err
    assert "Traceback" not in err
    assert not (tmp_path / f"{scenario}.csv").exists()


# configs whose fig4a gain never falls below 1 on the tau grid: the curves
# are written and the absent crossing reads null, as in fig4c
NO_CROSSING_CONFIGS = {
    "fast_nv_decay_never_crosses_unity": {"decoherence": {"gamma2_nv_hz": 1e6}},
    "zero_two_spin_rate": {"decoherence": {"gamma2_two_spin_hz": 0}},
    "two_spin_rate_near_nv_rate": {
        "decoherence": {"gamma2_nv_hz": 26.3e3, "gamma2_two_spin_hz": 27.9e3, "p": 1.28}},
}


@pytest.mark.parametrize("case", sorted(NO_CROSSING_CONFIGS))
def test_absent_unity_crossing_writes_null(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NO_CROSSING_CONFIGS[case]))
    rc = _run(["run", "--scenario", "fig4a", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert rc == 0 and capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "fig4a.json").read_text())["summary"]
    assert summary["unity_crossing_tau_s"] is None
    assert (tmp_path / "fig4a.csv").exists()


# configs whose fig4c one-readout gain is already >= 1 at the grid's first
# coupling, at the experimental ratio: the d crossing lies off the grid
ROW_STARTS_ABOVE_UNITY_CONFIGS = {
    "grid_above_the_crossing": {"sweep": {"d_min_hz": 80000}},
    "weak_nv_amplitude": {"decoherence": {"alpha0_nv": 0.5}},
}


@pytest.mark.parametrize("case", sorted(ROW_STARTS_ABOVE_UNITY_CONFIGS))
def test_fig4c_crossing_off_the_grid_writes_null(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ROW_STARTS_ABOVE_UNITY_CONFIGS[case]))
    rc = _run(["run", "--scenario", "fig4c", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert rc == 0 and capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "fig4c.json").read_text())["summary"]
    assert summary["boundary_no_rr"]["d_crossing_hz_at_experimental_ratio"] is None


def test_module_entry_point_validates_and_lists_the_run_flags(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    config = tmp_path / "empty.json"
    config.write_text("{}")
    entry = [sys.executable, "-m", "entangle_sense"]
    done = subprocess.run([*entry, "validate", str(config)], capture_output=True, text=True, env=env)
    assert done.returncode == 0 and "config is valid" in done.stdout
    done = subprocess.run([*entry, "run", "--help"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    flags = set(re.findall(r"--[a-z]+", done.stdout)) - {"--help"}
    assert flags == {"--scenario", "--config", "--out", "--seed", "--quiet"}


# configs whose fig2c fits cannot converge: the one curve they break (flat,
# gone before the first tau, or pure noise) drives the fitter into overflow
NONCONVERGENT_FIT_CONFIGS = {
    "p_at_lower_bound": {"decoherence": {"p": 0.5}},
    "zero_x_rate": {"decoherence": {"gamma2_x_hz": 0}},
    "x_rate_at_upper_bound": {"decoherence": {"gamma2_x_hz": 1e9}},
    "tiny_nv_rate": {"decoherence": {"gamma2_nv_hz": 1e-9}},
    "nv_rate_at_upper_bound": {"decoherence": {"gamma2_nv_hz": 1e9}},
    "one_trajectory": {"run": {"trajectories": 1}},
}


@pytest.mark.parametrize("case", sorted(NONCONVERGENT_FIT_CONFIGS))
def test_nonconvergent_fit_exits_3_without_warnings(case, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NONCONVERGENT_FIT_CONFIGS[case]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = _run(["run", "--scenario", "fig2c", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    assert rc == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ""


# validate's range for each key, except that the sweep grid sizes are drawn
# only up to the default 40 x 40 grid and m_max 30: validate's upper edges
# (1000) only add cells to fig4c and cost seconds per run
RUNTIME_CAPS = {"sweep.d_points": 40, "sweep.ratio_points": 40, "sweep.m_max": 30}
CONFIG_RANGES = {
    key: (low, min(high, RUNTIME_CAPS.get(key, high))) for key, (_, low, high) in PARAMETERS.items()
}
SMALL_SWEEP = {"d_points": 4, "ratio_points": 4, "m_max": 5}


@st.composite
def edge_configs(draw):
    config: dict = {}
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_RANGES)), unique=True, max_size=4)):
        low, high = CONFIG_RANGES[key]
        inner = st.integers(low, high) if isinstance(low, int) else st.floats(low, high)
        section, name = key.split(".")
        config.setdefault(section, {})[name] = draw(st.sampled_from([low, high]) | inner)
    return config


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=edge_configs())
@example(config={"decoherence": {"gamma2_nv_hz": 1e9}})
@example(config={"decoherence": {"gamma2_nv_hz": 1e6}})
@example(config={"decoherence": {"gamma2_nv_hz": 1e-9}})
@example(config={"decoherence": {"gamma2_x_hz": 0}})
@example(config={"decoherence": {"gamma2_x_hz": 1e9}})
@example(config={"decoherence": {"p": 0.5}})
@example(config={"run": {"trajectories": 1}})
@example(config={"readout": {"amplitude_sum": 2.0805206665210703, "snr_at_m": 3.606548912716371, "m_max": 26}})
@example(config={"pump": {"efficiency": 0.0}, "calibration": {"initial_x_polarization": 0.0, "one_round_x_polarization": 0.0}})
@example(config={"decoherence": {"gamma2_nv_hz": 1e9}, "run": {"trajectories": 1, "seed": 282}})
@example(config={"decoherence": {"gamma2_nv_hz": 5e-324}})
@example(config={"decoherence": {"gamma2_nv_hz": 1e-200}})
def test_every_valid_config_runs_or_exits_cleanly(config):
    merged = {"sweep": dict(SMALL_SWEEP)}
    for section, values in config.items():
        merged.setdefault(section, {}).update(values)
    with tempfile.TemporaryDirectory() as out:
        path = f"{out}/cfg.json"
        with open(path, "w") as fh:
            json.dump(merged, fh)
        for scenario in SCENARIOS:
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                rc = main(["run", "--scenario", scenario, "--config", path, "--out", out, "--quiet"])
            text = err.getvalue()
            assert rc in (0, 2, 3), (scenario, rc, text)
            assert "Traceback" not in text and text.count("\n") <= 1, (scenario, text)
            assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [], scenario
