import numpy as np
import pytest

from entangle_sense.dynamics import DecoherenceEnvelope, FieldModel, optical_pump
from entangle_sense.protocols import (
    GateParams,
    NuclearFactor,
    TWO_SPIN_LAYOUT,
    apply_exchange_gate,
    calibrate_gate_error,
    disentangle,
    dominant_frequency,
    echo_sense,
    modulated_disentangle_scan,
    overlap_factor,
    polarization_transfer,
    prepare_entangled,
    verify_phase_recipes,
    x_polarization,
)
from entangle_sense.spinsys import bell_coherence, build_operator, layout, polarized_state, pure_state

IDEAL = GateParams(d_hz=58e3)


def _ket(i):
    v = np.zeros(4)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# phase recipes and effective gates vs full propagation


def test_phase_recipes_identified_numerically():
    recipes = verify_phase_recipes(58e3)
    assert set(recipes) == {"zq", "dq"}
    assert recipes["zq"] != recipes["dq"]


def test_hhcp_swap_recipe_swaps_populations():
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(1))  # |01>
    out = apply_exchange_gate(rho, IDEAL, IDEAL.swap_time, block="zq")
    assert out.matrix[2, 2].real > 0.98  # |10>


def test_hhcp_entangle_recipe_bell_coherence_half():
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(0))
    out = apply_exchange_gate(rho, IDEAL, IDEAL.entangle_time, block="dq")
    assert abs(bell_coherence(out)) == pytest.approx(0.5, abs=0.01)


def test_hhcp_with_driven_decay_contrast():
    params = GateParams(d_hz=58e3, t1rho_s=132e-6)
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(1))
    out = apply_exchange_gate(rho, params, params.swap_time, block="zq")
    # transferred population ~ (1 + exp(-t/T1rho))/2 of ideal
    f = np.exp(-params.swap_time / 132e-6)
    assert out.matrix[2, 2].real == pytest.approx((1 + f) / 2, abs=1e-9)
    assert (1 + f) / 2 == pytest.approx(0.968, abs=2e-3)


def test_hhcp_rejects_bad_recipe():
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(0))
    with pytest.raises(ValueError):
        apply_exchange_gate(rho, IDEAL, IDEAL.swap_time, block="sideways")


# ---------------------------------------------------------------------------
# polarization transfer


def test_polarization_transfer_ideal_one_round():
    _, trace = polarization_transfer(1, 1.0, IDEAL, initial_x_polarization=0.14)
    assert trace[1] == pytest.approx(1.0, abs=1e-6)


def test_polarization_transfer_zero_rounds():
    _, trace = polarization_transfer(0, 1.0, IDEAL, initial_x_polarization=0.14)
    assert trace == [pytest.approx(0.14)]


def test_calibrated_transfer_hits_reference_ladder():
    params = calibrate_gate_error(0.76, 0.80, 58e3, 132e-6, 0.14)
    _, trace = polarization_transfer(3, 0.80, params, 0.14)
    assert trace[1] == pytest.approx(0.76, abs=1e-9)
    assert abs(trace[3] - 0.94) < 0.06


# ---------------------------------------------------------------------------
# entangling gate and modulation scan


def test_prepare_entangled_pure_input():
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(0))
    out = prepare_entangled(rho, IDEAL)
    assert abs(bell_coherence(out)) == pytest.approx(0.5, abs=1e-9)


def test_prepare_entangled_mixed_input_no_coherence():
    rho = polarized_state(TWO_SPIN_LAYOUT, {"NV": 0.0, "Xe": 0.0})
    out = prepare_entangled(rho, IDEAL)
    assert abs(bell_coherence(out)) < 1e-12


def test_modulated_scan_zero_frequencies_constant():
    rho = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), IDEAL)
    t = np.linspace(0, 20e-6, 64)
    sig = modulated_disentangle_scan(rho, 0.0, 0.0, t, IDEAL)
    assert np.ptp(sig) < 1e-12


def test_modulated_scan_single_frequency_peak():
    rho = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), IDEAL)
    t = np.linspace(0, 40e-6, 512)
    sig = modulated_disentangle_scan(rho, 300e3, 0.0, t, IDEAL)
    assert dominant_frequency(t, sig) == pytest.approx(300e3, abs=1.5 / t[-1])


def test_modulated_scan_sum_frequency_peak():
    rho = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), IDEAL)
    t = np.linspace(0, 40e-6, 512)
    sig = modulated_disentangle_scan(rho, 500e3, 250e3, t, IDEAL)
    assert dominant_frequency(t, sig) == pytest.approx(750e3, abs=1.5 / t[-1])


# ---------------------------------------------------------------------------
# sensing


@pytest.mark.parametrize(
    "params", [GateParams(d_hz=58e3, epsilon=0.03, t1rho_s=132e-6), GateParams(d_hz=58e3)]
)
def test_modulated_scan_matches_per_phase_gates(params):
    state = optical_pump(polarized_state(TWO_SPIN_LAYOUT, {"NV": 0.2, "Xe": 0.7}), 0.8)
    rho_phi = prepare_entangled(state, params)
    t_grid = np.linspace(0.0, 40e-6, 161)
    signal = modulated_disentangle_scan(rho_phi, 500e3, 250e3, t_grid, params)
    p0_nv = build_operator(TWO_SPIN_LAYOUT, {"NV": "P0", "Xe": "I"})
    reference = [
        disentangle(rho_phi, params, phase=2.0 * np.pi * (500e3 + 250e3) * t).expectation(p0_nv)
        for t in t_grid
    ]
    assert np.array_equal(signal, reference)


def test_overlap_factor_phase_matched_echo():
    field = FieldModel(amplitude_gauss=0.1, frequency_hz=100e3)
    tau = 1.0 / field.frequency_hz
    assert overlap_factor((0.5,), tau, field) == pytest.approx(2 / np.pi, abs=1e-8)


def test_overlap_factor_no_pulse_full_period():
    field = FieldModel(amplitude_gauss=0.1, frequency_hz=100e3)
    assert overlap_factor((), 1.0 / field.frequency_hz, field) == pytest.approx(0.0, abs=1e-10)


def test_overlap_factor_phase_offset():
    field = FieldModel(amplitude_gauss=0.1, frequency_hz=100e3, phase_rad=np.pi / 4)
    tau = 1.0 / field.frequency_hz
    expected = (2 / np.pi) * np.cos(np.pi / 4)
    assert overlap_factor((0.5,), tau, field) == pytest.approx(expected, abs=1e-8)
    assert expected == pytest.approx(0.45015815807855303, rel=1e-10)


def test_echo_sense_zero_field_envelope_only():
    rho = pure_state(layout("NV"), np.array([1.0, 1.0]) / np.sqrt(2))
    env = DecoherenceEnvelope(1.0, 22e3, 1.6)
    field = FieldModel(amplitude_gauss=0.0, frequency_hz=100e3)
    out = echo_sense(rho, 10e-6, field, ("NV",), envelope=env)
    assert out.matrix[0, 1] == pytest.approx(0.5 * env.decay(10e-6), abs=1e-12)


def test_echo_sense_two_spin_double_phase():
    # Bell-block phase = exactly 2x the single-spin phase for any (b, nu, tau)
    for b, nu in ((0.003, 80e3), (0.011, 150e3)):
        tau = 1.0 / nu
        field = FieldModel(amplitude_gauss=b, frequency_hz=nu)
        single = pure_state(layout("NV"), np.array([1.0, 1.0]) / np.sqrt(2))
        s_out = echo_sense(single, tau, field, ("NV",))
        phi_1 = -np.angle(s_out.matrix[0, 1] / single.matrix[0, 1])
        bell = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), IDEAL)
        b_out = echo_sense(bell, tau, field, ("NV", "Xe"))
        phi_2 = -np.angle(b_out.matrix[0, 3] / bell.matrix[0, 3])
        assert phi_2 == pytest.approx(2 * phi_1, rel=1e-9)


# ---------------------------------------------------------------------------
# readout chain


def test_laser_between_readouts_leaves_x_alone():
    rho = polarized_state(TWO_SPIN_LAYOUT, {"NV": -0.2, "Xe": 0.73})
    pumped = optical_pump(rho, 1.0)
    assert x_polarization(pumped) == pytest.approx(0.73, abs=1e-12)


def test_nuclear_contrast_factors():
    # an unpolarized nuclear spin halves the contrast unless both transitions are driven
    assert NuclearFactor(0.0, 1).amplitude_factor == pytest.approx(0.5)
    assert NuclearFactor(1.0, 1).amplitude_factor == pytest.approx(1.0)
    assert NuclearFactor(0.0, 2).amplitude_factor == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# executor envelope discipline


def test_calibrate_gate_error_reproduces_target():
    params = calibrate_gate_error(0.76, 0.80, 58e3, 132e-6, 0.14)
    assert 0.0 < params.epsilon < 0.1
    _, trace = polarization_transfer(1, 0.80, params, 0.14)
    assert trace[1] == pytest.approx(0.76, abs=1e-10)
