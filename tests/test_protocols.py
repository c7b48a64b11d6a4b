import numpy as np
import pytest

from entangle_sense.analysis import F_HAT_ECHO, precession_rate
from entangle_sense.dynamics import DriveTerm, HamiltonianSpec, expm_hermitian, optical_pump
from entangle_sense.protocols import (
    GateParams,
    NuclearFactor,
    TWO_SPIN_LAYOUT,
    apply_exchange_gate,
    calibrate_gate_error,
    disentangle,
    dominant_frequency,
    modulated_disentangle_scan,
    polarization_transfer,
    prepare_entangled,
    verify_phase_recipes,
    x_polarization,
)
from entangle_sense import protocols, spinsys
from entangle_sense.spinsys import (
    GAMMA_E,
    DensityState,
    InfeasibleError,
    LayoutError,
    StateError,
    bell_coherence,
    layout,
    polarized_state,
    pure_state,
)

IDEAL = GateParams(d_hz=58e3)
NOISY = GateParams(d_hz=58e3, epsilon=0.03, t1rho_s=132e-6)


def _ket(i):
    v = np.zeros(4)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# phase recipes and effective gates vs full propagation


def test_phase_recipes_identified_numerically():
    recipes = verify_phase_recipes()
    assert set(recipes) == {"zq", "dq"}
    assert recipes["zq"] != recipes["dq"]


def _recipes_at(d_hz):
    """Which relative drive phase realizes which block, propagated at coupling d_hz."""
    omega = protocols.RABI_OVER_COUPLING * 2.0 * np.pi * d_hz
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    found = {}
    for rel_phase in (0.0, np.pi):
        ham = HamiltonianSpec(
            layout=TWO_SPIN_LAYOUT,
            drives={"NV": DriveTerm(rabi=omega), "Xe": DriveTerm(rabi=omega, phase=rel_phase)},
            coupling_hz=d_hz,
        )
        u = expm_hermitian(ham.assemble(), 1.0 / (2.0 * d_hz))
        if abs(np.kron(minus, plus) @ u @ np.kron(plus, minus)) ** 2 > 0.95:
            found["zq"] = rel_phase
        if abs(np.kron(minus, minus) @ u @ np.kron(plus, plus)) ** 2 > 0.95:
            found["dq"] = rel_phase
    return found


@pytest.mark.parametrize("d_hz", [1.0, 58e3, 1e9])
def test_phase_recipes_do_not_depend_on_the_coupling(d_hz):
    # the recipe check runs once, at one coupling, for every coupling a
    # config may set
    assert _recipes_at(d_hz) == verify_phase_recipes() == {"zq": 0.0, "dq": np.pi}


def test_matched_drive_drives_both_spins_equally():
    expected = HamiltonianSpec(
        layout=TWO_SPIN_LAYOUT,
        drives={"NV": DriveTerm(rabi=2e6), "Xe": DriveTerm(rabi=2e6, phase=np.pi)},
        coupling_hz=58e3,
    )
    assert protocols.matched_drive(58e3, 2e6, np.pi) == expected


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


def test_exchange_gate_needs_nv_xe_pair():
    # the swapped pair and a lone NV are refused when their layouts are
    # built, and a matrix of another size never becomes a state to gate
    for labels, vec in ((("Xe", "NV"), _ket(1)), (("NV",), np.array([1.0, 0.0]))):
        with pytest.raises(LayoutError):
            apply_exchange_gate(pure_state(layout(*labels), vec), NOISY, NOISY.swap_time, block="zq")
    with pytest.raises(StateError, match="shape"):
        apply_exchange_gate(DensityState(np.eye(2) / 2.0), NOISY, NOISY.swap_time, block="zq")


def test_exchange_gate_validates_its_output_once(monkeypatch):
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(1))
    rho_phi = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), NOISY)
    shapes = []
    validate = spinsys.validate_density_matrix

    def counting(mat):
        shapes.append(mat.shape)
        validate(mat)

    monkeypatch.setattr(spinsys, "validate_density_matrix", counting)
    apply_exchange_gate(rho, NOISY, NOISY.swap_time, block="zq")
    assert shapes == [(4, 4)]
    shapes.clear()
    modulated_disentangle_scan(rho_phi, 500e3, 250e3, np.linspace(0.0, 40e-6, 801), NOISY)
    assert shapes == [(801, 4, 4)]


@pytest.mark.parametrize("params", [IDEAL, NOISY])
def test_exchange_gate_rejects_an_invalid_output(monkeypatch, params):
    # a non-unitary "rotation" scales the trace to 4: the gate must not
    # hand that state on
    monkeypatch.setattr(protocols, "exchange_unitary", lambda theta, phase, block: 2.0 * np.eye(4))
    rho = pure_state(TWO_SPIN_LAYOUT, _ket(1))
    with pytest.raises(StateError, match="trace"):
        apply_exchange_gate(rho, params, params.swap_time, block="zq")


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
    p0_nv = np.kron(np.diag([1.0, 0.0]), np.eye(2))
    reference = [
        disentangle(rho_phi, params, phase=2.0 * np.pi * (500e3 + 250e3) * t).expectation(p0_nv)
        for t in t_grid
    ]
    assert np.array_equal(signal, reference)


def test_f_hat_echo_is_the_phase_matched_echo_overlap():
    # (1/tau) |int_0^tau s(t) sin(w t) dt| with s = +1, then -1 after the
    # pi pulse at tau/2, over one field period tau = 2 pi / w
    nu = 100e3
    w, tau = 2 * np.pi * nu, 1.0 / nu
    prim = lambda t: -np.cos(w * t) / w  # noqa: E731
    overlap = abs((prim(tau / 2) - prim(0.0)) - (prim(tau) - prim(tau / 2))) / tau
    assert F_HAT_ECHO == 2 / np.pi
    assert overlap == pytest.approx(F_HAT_ECHO, rel=1e-12)
    assert precession_rate(1, tau) == pytest.approx(GAMMA_E * overlap * tau, rel=1e-12)
    assert precession_rate(2, tau) == pytest.approx(2 * precession_rate(1, tau), rel=1e-12)


def test_bell_block_accumulates_double_phase():
    # exp(-i phi (Sz x I + I x Sz)) turns the Bell coherence by twice the
    # phase that exp(-i phi Sz) gives one spin, as precession_rate(2) says
    # the single NV: in |+>, with the Xe spin in |0> and untouched
    sz, i2 = np.diag([0.5, -0.5]), np.eye(2)
    gen_1 = np.kron(sz, i2)
    gen_2 = np.kron(sz, i2) + np.kron(i2, sz)
    single = pure_state(TWO_SPIN_LAYOUT, np.kron(np.array([1.0, 1.0]) / np.sqrt(2), _ket(0)[:2]))
    bell = prepare_entangled(pure_state(TWO_SPIN_LAYOUT, _ket(0)), IDEAL)
    for b, nu in ((0.003, 80e3), (0.011, 150e3)):
        tau = 1.0 / nu
        phi = b * precession_rate(1, tau)
        u_1, u_2 = expm_hermitian(gen_1, phi), expm_hermitian(gen_2, phi)
        s_out = u_1 @ single.matrix @ u_1.conj().T
        b_out = u_2 @ bell.matrix @ u_2.conj().T
        phi_1 = -np.angle(s_out[0, 2] / single.matrix[0, 2])
        phi_2 = -np.angle(b_out[0, 3] / bell.matrix[0, 3])
        assert phi_1 == pytest.approx(phi, rel=1e-9)
        assert phi_2 / phi_1 == pytest.approx(precession_rate(2, tau) / precession_rate(1, tau), rel=1e-9)


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


def test_repeat_gate_calibration_runs_no_transfer(monkeypatch):
    first = calibrate_gate_error(0.76, 0.80, 58e3, 132e-6, 0.14)
    transfer = protocols.polarization_transfer
    calls = []
    monkeypatch.setattr(
        protocols, "polarization_transfer", lambda *args: calls.append(args) or transfer(*args)
    )
    assert calibrate_gate_error(0.76, 0.80, 58e3, 132e-6, 0.14) is first
    assert calls == []
    # an unreachable target is not cached: each call solves again and raises
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            calibrate_gate_error(0.99, 0.80, 58e3, 132e-6, 0.14)
    assert len(calls) == 4  # the two bracket ends, twice


def test_calibrate_gate_error_reproduces_target():
    params = calibrate_gate_error(0.76, 0.80, 58e3, 132e-6, 0.14)
    assert 0.0 < params.epsilon < 0.1
    _, trace = polarization_transfer(1, 0.80, params, 0.14)
    assert trace[1] == pytest.approx(0.76, abs=1e-10)
