"""Scenario configuration: defaults, JSON merging, and validation.

Configs are plain JSON objects merged over the built-in defaults, which
come from one table, ``PARAMETERS``: each numeric key's default and range.
The validator checks every row, then the rules that relate several keys,
and reports each violation with a dotted parameter path (e.g.
``nuclear.polarization``) so configs can be fixed in one pass.
"""

from __future__ import annotations

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

# dotted key: (default, low, high); integer bounds mark an integer key
PARAMETERS: dict[str, tuple[Any, Any, Any]] = {
    "coupling.d_hz": (58.0e3, 1.0, 1.0e9),
    # drive amplitude is not quoted; 2*pi*500 kHz is an assumption
    # recorded in run metadata (well inside the matched-drive regime)
    "coupling.rabi_rad_per_s": (2.0 * np.pi * 500.0e3, 0.0, 1.0e12),
    "coupling.t1rho_s": (132.0e-6, 1e-9, 1.0),
    "decoherence.gamma2_nv_hz": (22.0e3, 0.0, 1.0e9),
    "decoherence.gamma2_x_hz": (15.0e3, 0.0, 1.0e9),
    # measured two-spin echo rate; close to the 22 + 15 kHz sum
    "decoherence.gamma2_two_spin_hz": (36.0e3, 0.0, 1.0e9),
    "decoherence.p": (1.6, 0.5, 3.0),
    "decoherence.alpha0_nv": (0.96, 0.0, 1.0),
    "decoherence.alpha0_two_spin": (0.78, 0.0, 1.0),
    "nuclear.polarization": (0.0, 0.0, 1.0),
    "nuclear.transitions": (1, 1, 2),
    "budget.tau_nv_s": (5.7e-6, 0.0, 1.0),
    "budget.tau_phi_s": (21.0e-6, 0.0, 1.0),
    "budget.tau_rr_s": (6.1e-6, 0.0, 1.0),
    "pump.efficiency": (0.80, 0.0, 1.0),
    "calibration.initial_x_polarization": (0.14, -1.0, 1.0),
    "calibration.one_round_x_polarization": (0.76, -1.0, 1.0),
    "readout.amplitude_sum": (4.2, 1.0, 100.0),
    "readout.snr_at_m": (1.91, 1.0, 100.0),
    "readout.m_max": (9, 0, 1000),
    "sweep.d_min_hz": (30.0e3, 1.0, 1e9),
    "sweep.d_max_hz": (150.0e3, 1.0, 1e9),
    "sweep.d_points": (40, 2, 1000),
    "sweep.ratio_min": (0.1, 0.0, 100.0),
    "sweep.ratio_max": (1.4, 0.0, 100.0),
    "sweep.ratio_points": (40, 2, 1000),
    "sweep.m_max": (30, 0, 1000),
    "run.seed": (0, 0, 2**63 - 1),
    "run.trajectories": (400, 1, 10**9),
}

# keys strictly above their low bound: the scenarios divide by them or need them above it
OPEN_BELOW = {"decoherence.gamma2_nv_hz", "decoherence.alpha0_nv", "readout.amplitude_sum"}


def _defaults() -> dict[str, Any]:
    out: dict[str, Any] = {"scenario": None}
    for key, (default, _, _) in PARAMETERS.items():
        section, name = key.split(".")
        out.setdefault(section, {})[name] = default
    return {**out, "metadata": {"static_field_gauss": 205.2, "rabi_is_assumed": True}}


DEFAULTS: dict[str, Any] = _defaults()


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
    """base with override merged in, every dict of it new.

    Every default leaf is an immutable scalar, so one copy per level is a
    full copy: a resolved config shares no dict with DEFAULTS or with
    another resolved config.
    """
    out = dict(base)
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
    for key, value in base.items():
        if isinstance(value, dict) and out[key] is value:
            out[key] = _merge(value, {}, path, diagnostics)
    return out


def _check_number(data: dict, path: str, low: float, high: float, diagnostics: list[str],
                  integer: bool, low_open: bool) -> Any:
    """Check one numeric parameter; return its value when valid, else None."""
    node: Any = data
    for part in path.split("."):
        node = node.get(part) if isinstance(node, dict) else None
    if node is None:
        diagnostics.append(f"{path}: required parameter is missing")
        return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        diagnostics.append(f"{path}: expected a number, got {type(node).__name__}")
        return None
    # a non-finite value fails the range check below, which names it
    if integer and isinstance(node, float) and np.isfinite(node) and not node.is_integer():
        diagnostics.append(f"{path}: expected an integer")
        return None
    above_low = low < node if low_open else low <= node
    if not (above_low and node <= high):
        diagnostics.append(f"{path}: value {node} outside {'(' if low_open else '['}{low}, {high}]")
        return None
    return node


def _check_axis(low_path: str, high_path: str, points_path: str, values: dict[str, Any],
                diagnostics: list[str]) -> None:
    """Cross-field rules of a sweep axis, checked only when all three values are valid.

    low < high, and the linspace of ``points`` values between them is
    strictly increasing (bounds a few ulp apart repeat a point).
    """
    low, high, points = values[low_path], values[high_path], values[points_path]
    if low is None or high is None or points is None:
        return
    if not low < high:
        diagnostics.append(f"{low_path}: value {low} must be below {high_path} ({high})")
    elif np.any(np.diff(np.linspace(low, high, int(points))) <= 0):
        diagnostics.append(
            f"{low_path}: value {low} too close to {high_path} ({high}) for {points} distinct points"
        )


def validate(data: dict[str, Any]) -> list[str]:
    """Return dotted-path diagnostics, per key in table order, then cross-field; empty means valid."""
    diagnostics: list[str] = []
    scenario = data.get("scenario")
    if scenario is None:
        diagnostics.append(MISSING_SCENARIO)
    elif scenario not in SCENARIOS:
        diagnostics.append(f"scenario: unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}")
    values = {
        key: _check_number(data, key, low, high, diagnostics, isinstance(low, int), key in OPEN_BELOW)
        for key, (_, low, high) in PARAMETERS.items()
    }
    amplitude_sum, m_max = values["readout.amplitude_sum"], values["readout.m_max"]
    # the fig2d ladder a_k <= 1 over k = 0..m_max sums to at most m_max + 1
    if amplitude_sum is not None and m_max is not None and amplitude_sum > m_max + 1:
        diagnostics.append(
            f"readout.amplitude_sum: value {amplitude_sum} above readout.m_max + 1 ({m_max + 1})"
        )
    _check_axis("sweep.d_min_hz", "sweep.d_max_hz", "sweep.d_points", values, diagnostics)
    _check_axis("sweep.ratio_min", "sweep.ratio_max", "sweep.ratio_points", values, diagnostics)
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
        data = _merge(DEFAULTS, {}, "", diagnostics)
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
