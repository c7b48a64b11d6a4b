"""Scenario configuration: defaults, JSON merging, and validation.

Configs are plain JSON objects merged over the built-in defaults.  The
validator reports every violation with a dotted parameter path (e.g.
``nuclear.polarization``) so configs can be fixed in one pass.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from typing import Any

import numpy as np

SCENARIOS = (
    "fig1f",
    "fig2a",
    "fig2b",
    "fig2c",
    "fig2d",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig4c",
)

DEFAULTS: dict[str, Any] = {
    "scenario": None,
    "coupling": {
        "d_hz": 58.0e3,
        # drive amplitude is not quoted; 2*pi*500 kHz is an assumption
        # recorded in run metadata (well inside the matched-drive regime)
        "rabi_rad_per_s": 2.0 * np.pi * 500.0e3,
        "t1rho_s": 132.0e-6,
    },
    "decoherence": {
        "gamma2_nv_hz": 22.0e3,
        "gamma2_x_hz": 15.0e3,
        # measured two-spin echo rate; close to the 22 + 15 kHz sum
        "gamma2_two_spin_hz": 36.0e3,
        "p": 1.6,
        "alpha0_nv": 0.96,
        "alpha0_two_spin": 0.78,
    },
    "nuclear": {
        "polarization": 0.0,
        "transitions": 1,
    },
    "budget": {
        "tau_nv_s": 5.7e-6,
        "tau_phi_s": 21.0e-6,
        "tau_rr_s": 6.1e-6,
    },
    "pump": {
        "efficiency": 0.80,
    },
    "calibration": {
        "initial_x_polarization": 0.14,
        "one_round_x_polarization": 0.76,
    },
    "readout": {
        "amplitude_sum": 4.2,
        "snr_at_m": 1.91,
        "m_max": 9,
    },
    "sweep": {
        "d_min_hz": 30.0e3,
        "d_max_hz": 150.0e3,
        "d_points": 40,
        "ratio_min": 0.1,
        "ratio_max": 1.4,
        "ratio_points": 40,
        "m_max": 30,
    },
    "run": {
        "seed": 0,
        "trajectories": 400,
    },
    "metadata": {
        "static_field_gauss": 205.2,
        "rabi_is_assumed": True,
    },
}


MISSING_SCENARIO = "scenario: required parameter is missing"


class ConfigError(ValueError):
    """Raised when a config cannot be parsed, merged or validated.

    ``diagnostics`` holds one dotted-path message per problem.
    """

    def __init__(self, diagnostics: list[str]) -> None:
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved configuration (defaults materialized)."""

    data: dict[str, Any]

    def __getitem__(self, path: str) -> Any:
        node: Any = self.data
        for part in path.split("."):
            node = node[part]
        return node

    def content_hash(self) -> str:
        canonical = json.dumps(self.data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _merge(base: dict, override: dict, path: str, diagnostics: list[str]) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            diagnostics.append(f"{here}: unknown parameter")
            continue
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                diagnostics.append(f"{here}: expected an object")
                continue
            out[key] = _merge(base[key], value, here, diagnostics)
        else:
            out[key] = value
    return out


def _check_number(data: dict, path: str, low: float, high: float, diagnostics: list[str],
                  integer: bool = False, low_open: bool = False) -> Any:
    """Check one numeric parameter; return its value when valid, else None.

    low_open excludes the lower bound, for values the scenarios divide by
    or need strictly above it.
    """
    node: Any = data
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    if node is None:
        diagnostics.append(f"{path}: required parameter is missing")
        return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        diagnostics.append(f"{path}: expected a number, got {type(node).__name__}")
        return None
    if integer and int(node) != node:
        diagnostics.append(f"{path}: expected an integer")
        return None
    above_low = low < node if low_open else low <= node
    if not (above_low and node <= high):
        diagnostics.append(f"{path}: value {node} outside {'(' if low_open else '['}{low}, {high}]")
        return None
    return node


def _check_axis(low_path: str, low: Any, high_path: str, high: Any, points: Any,
                diagnostics: list[str]) -> None:
    """Cross-field rules of a sweep axis, checked only when all three values are valid.

    low < high, and the linspace of ``points`` values between them is
    strictly increasing (bounds a few ulp apart repeat a point).
    """
    if low is None or high is None or points is None:
        return
    if not low < high:
        diagnostics.append(f"{low_path}: value {low} must be below {high_path} ({high})")
    elif np.any(np.diff(np.linspace(low, high, int(points))) <= 0):
        diagnostics.append(
            f"{low_path}: value {low} too close to {high_path} ({high}) for {points} distinct points"
        )


def validate(data: dict[str, Any]) -> list[str]:
    """Return a list of dotted-path diagnostics; empty means valid."""
    diagnostics: list[str] = []
    scenario = data.get("scenario")
    if scenario is None:
        diagnostics.append(MISSING_SCENARIO)
    elif scenario not in SCENARIOS:
        diagnostics.append(f"scenario: unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    _check_number(data, "coupling.d_hz", 1.0, 1.0e9, diagnostics)
    _check_number(data, "coupling.rabi_rad_per_s", 0.0, 1.0e12, diagnostics)
    _check_number(data, "coupling.t1rho_s", 1e-9, 1.0, diagnostics)
    _check_number(data, "decoherence.gamma2_nv_hz", 0.0, 1.0e9, diagnostics, low_open=True)
    _check_number(data, "decoherence.gamma2_x_hz", 0.0, 1.0e9, diagnostics)
    _check_number(data, "decoherence.gamma2_two_spin_hz", 0.0, 1.0e9, diagnostics)
    _check_number(data, "decoherence.p", 0.5, 3.0, diagnostics)
    _check_number(data, "decoherence.alpha0_nv", 0.0, 1.0, diagnostics, low_open=True)
    _check_number(data, "decoherence.alpha0_two_spin", 0.0, 1.0, diagnostics)
    _check_number(data, "nuclear.polarization", 0.0, 1.0, diagnostics)
    _check_number(data, "nuclear.transitions", 1, 2, diagnostics, integer=True)
    _check_number(data, "budget.tau_nv_s", 0.0, 1.0, diagnostics)
    _check_number(data, "budget.tau_phi_s", 0.0, 1.0, diagnostics)
    _check_number(data, "budget.tau_rr_s", 0.0, 1.0, diagnostics)
    _check_number(data, "pump.efficiency", 0.0, 1.0, diagnostics)
    _check_number(data, "calibration.initial_x_polarization", -1.0, 1.0, diagnostics)
    _check_number(data, "calibration.one_round_x_polarization", -1.0, 1.0, diagnostics)
    amplitude_sum = _check_number(data, "readout.amplitude_sum", 1.0, 100.0, diagnostics, low_open=True)
    _check_number(data, "readout.snr_at_m", 1.0, 100.0, diagnostics)
    m_max = _check_number(data, "readout.m_max", 0, 1000, diagnostics, integer=True)
    # the fig2d ladder a_k <= 1 over k = 0..m_max sums to at most m_max + 1
    if amplitude_sum is not None and m_max is not None and amplitude_sum > m_max + 1:
        diagnostics.append(
            f"readout.amplitude_sum: value {amplitude_sum} above readout.m_max + 1 ({m_max + 1})"
        )
    d_min = _check_number(data, "sweep.d_min_hz", 1.0, 1e9, diagnostics)
    d_max = _check_number(data, "sweep.d_max_hz", 1.0, 1e9, diagnostics)
    d_points = _check_number(data, "sweep.d_points", 2, 1000, diagnostics, integer=True)
    _check_axis("sweep.d_min_hz", d_min, "sweep.d_max_hz", d_max, d_points, diagnostics)
    ratio_min = _check_number(data, "sweep.ratio_min", 0.0, 100.0, diagnostics)
    ratio_max = _check_number(data, "sweep.ratio_max", 0.0, 100.0, diagnostics)
    ratio_points = _check_number(data, "sweep.ratio_points", 2, 1000, diagnostics, integer=True)
    _check_axis("sweep.ratio_min", ratio_min, "sweep.ratio_max", ratio_max, ratio_points, diagnostics)
    _check_number(data, "sweep.m_max", 0, 1000, diagnostics, integer=True)
    _check_number(data, "run.seed", 0, 2**63 - 1, diagnostics, integer=True)
    _check_number(data, "run.trajectories", 1, 10**9, diagnostics, integer=True)
    return diagnostics


def resolve(
    scenario: str | None = None,
    config_text: str | None = None,
    seed: int | None = None,
    trajectories: int | None = None,
) -> ScenarioConfig:
    """Merge a JSON config over the defaults, apply flag overrides, validate."""
    diagnostics: list[str] = []
    if config_text is not None:
        try:
            override = json.loads(config_text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
        if not isinstance(override, dict):
            raise ConfigError(["config: top level must be a JSON object"])
        data = _merge(DEFAULTS, override, "", diagnostics)
    else:
        data = copy.deepcopy(DEFAULTS)
    if scenario is not None:
        data["scenario"] = scenario
    if seed is not None:
        data["run"]["seed"] = seed
    if trajectories is not None:
        data["run"]["trajectories"] = trajectories
    diagnostics.extend(validate(data))
    if diagnostics:
        raise ConfigError(diagnostics)
    return ScenarioConfig(data=data)
