"""Every config key moves exactly the figures that model it.

Each key is stepped away from its default and all ten scenario runners
rerun at seed 0.  The runners' columns and summaries must change for
exactly the scenarios declared in ``REACH``, so a figure that hard-codes
a value its config sets, or a key that silently stops reaching a figure,
fails here.  The echoed config in the JSON output is not compared.
Each runner must also read exactly the keys ``REACH`` gives it, so a read
that moves nothing fails too.
"""

import json

import numpy as np
import pytest

from entangle_sense.config import DEFAULTS, PARAMETERS, SCENARIOS, ScenarioConfig, resolve
from entangle_sense.scenarios import SCENARIO_RUNNERS
from entangle_sense.spinsys import InfeasibleError

GATES = {"fig2a", "fig2b"}  # calibrated exchange gates
NOISY = {"fig2b", "fig2c", "fig3a", "fig3b"}  # shot noise from the seed
SIGNALS = {"fig3a", "fig3b", "fig4a", "fig4b"}  # NV and two-spin amplitudes
SWEEP = {"fig4c"}

# key: (step from the default, scenarios the step must move)
REACH = {
    "coupling.d_hz": (1.0e3, {"fig1f", "fig4c"} | GATES),
    # above the floor 20 * 2 pi d = 7.3e6 rad/s, so the drive sets fig1f's Rabi frequency
    "coupling.rabi_rad_per_s": (1.0e7, {"fig1f"}),
    "coupling.t1rho_s": (4.0e-6, GATES),
    "decoherence.gamma2_nv_hz": (500.0, {"fig2c"} | SIGNALS | SWEEP),
    # fig4c's experimental ratio is gamma2_x / gamma2_nv
    "decoherence.gamma2_x_hz": (500.0, {"fig2c"} | SWEEP),
    # fig2c's two-spin curve decays at gamma2_nv + gamma2_x, and fig4c sets
    # the two-spin rate to gamma2_nv * (1 + ratio) along its ratio axis
    "decoherence.gamma2_two_spin_hz": (1.0e3, SIGNALS),
    "decoherence.p": (0.05, {"fig2c"} | SIGNALS | SWEEP),
    "decoherence.alpha0_nv": (0.02, SIGNALS | SWEEP),
    "decoherence.alpha0_two_spin": (0.02, SIGNALS | SWEEP),
    # fig4a, fig4b and fig4c fix q at the values their curves compare
    "nuclear.polarization": (0.03, {"fig3a"}),
    "nuclear.transitions": (1, {"fig3a"}),
    "budget.tau_nv_s": (0.2e-6, {"fig4a", "fig4b"} | SWEEP),
    "budget.tau_phi_s": (0.6e-6, {"fig4a", "fig4b"} | SWEEP),
    # fig4a reads out once, so it has no repeated-readout dead time
    "budget.tau_rr_s": (0.2e-6, {"fig4b"} | SWEEP),
    "pump.efficiency": (0.02, GATES),
    "calibration.initial_x_polarization": (0.005, GATES),
    # the default 0.76 is near the top of the reachable range
    "calibration.one_round_x_polarization": (-0.03, GATES),
    "readout.amplitude_sum": (0.1, {"fig2d"}),
    "readout.snr_at_m": (0.05, {"fig2d"} | SWEEP),
    "readout.m_max": (1, {"fig2d"} | SWEEP),
    "sweep.d_min_hz": (1.0e3, SWEEP),
    "sweep.d_max_hz": (5.0e3, SWEEP),
    "sweep.d_points": (1, SWEEP),
    "sweep.ratio_min": (0.01, SWEEP),
    "sweep.ratio_max": (0.05, SWEEP),
    "sweep.ratio_points": (1, SWEEP),
    "sweep.m_max": (1, SWEEP),
    "run.seed": (1, NOISY),
    "run.trajectories": (1, NOISY),
    # no figure reads these; they record the experiment in the JSON output
    "metadata.static_field_gauss": (1.0, set()),
    "metadata.rabi_is_assumed": (None, set()),  # a flag: flipped, not stepped
}

# one valid config per scenario that can raise InfeasibleError
INFEASIBLE = {
    "fig2a": {"calibration": {"one_round_x_polarization": 0.99}},
    "fig2b": {
        "pump": {"efficiency": 0.0},
        "calibration": {"initial_x_polarization": 0.0, "one_round_x_polarization": 0.0},
    },
    "fig2d": {"readout": {"amplitude_sum": 10}},
    "fig3a": {"decoherence": {"gamma2_nv_hz": 1e9}},
    "fig4a": {"decoherence": {"alpha0_two_spin": 0}},
    "fig4b": {"decoherence": {"gamma2_nv_hz": 1e9}},
    "fig4c": {"readout": {"snr_at_m": 4.0}},
}


def _outputs(override):
    out = {}
    for scenario in SCENARIOS:
        cfg = resolve(scenario=scenario, config_text=json.dumps(override))
        columns, summary = SCENARIO_RUNNERS[scenario](cfg, np.random.default_rng(cfg["run.seed"]))
        arrays = {name: np.asarray(values, dtype=float).tobytes() for name, values in columns.items()}
        out[scenario] = (arrays, json.dumps(summary, sort_keys=True))
    return out


@pytest.fixture(scope="module")
def baseline():
    return _outputs({})


def test_every_key_is_declared():
    metadata = {f"metadata.{name}" for name in DEFAULTS["metadata"]}
    assert set(PARAMETERS) | metadata == set(REACH)


@pytest.mark.parametrize("key", sorted(REACH))
def test_key_moves_exactly_its_figures(key, baseline):
    step, expected = REACH[key]
    section, name = key.split(".")
    default = DEFAULTS[section][name]
    value = (not default) if step is None else default + step
    moved = _outputs({section: {name: value}})
    assert {s for s in SCENARIOS if moved[s] != baseline[s]} == expected


def _reads(scenario, override, monkeypatch):
    """The keys the runner reads from its config, and the InfeasibleError it raised, if any."""
    cfg = resolve(scenario=scenario, config_text=json.dumps(override))
    read = set()
    get = ScenarioConfig.__getitem__

    def recording(self, key):
        read.add(key)
        return get(self, key)

    with monkeypatch.context() as patch:
        patch.setattr(ScenarioConfig, "__getitem__", recording)
        try:
            SCENARIO_RUNNERS[scenario](cfg, np.random.default_rng(0))
        except InfeasibleError as exc:
            return read, exc
    return read, None


# the CLI, not the runner, reads run.seed to seed the generator
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_runner_reads_exactly_its_reach(scenario, monkeypatch):
    read, exc = _reads(scenario, {}, monkeypatch)
    assert exc is None
    assert read == {key for key, (_, moved) in REACH.items() if scenario in moved} - {"run.seed"}
    if scenario in INFEASIBLE:
        read, exc = _reads(scenario, INFEASIBLE[scenario], monkeypatch)
        assert exc is not None and exc.config_keys
        assert set(exc.config_keys) <= read
