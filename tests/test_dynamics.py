import numpy as np
import pytest

from entangle_sense import dynamics, spinsys
from entangle_sense.dynamics import (
    DecoherenceEnvelope,
    DriveTerm,
    HamiltonianSpec,
    OUNoiseModel,
    driven_decay,
    expm_hermitian,
    monte_carlo_propagate,
    optical_pump,
    ou_phase_variance,
    ou_trajectory,
    propagate,
)
from entangle_sense.protocols import GateParams
from entangle_sense.spinsys import (
    GAMMA_E,
    DensityState,
    LayoutError,
    StateError,
    layout,
    polarized_state,
    pure_state,
)

TWO = layout("NV", "Xe")
# the NV in |+> and the Xe spin in |0>: the NV coherence is rho[0, 2]; |0>
# is an Sz eigenstate, so a common field adds only a global phase to the Xe
NV_PLUS = np.kron(np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, 0.0]))
SZ = np.diag([0.5, -0.5])


def _random_state(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    mat = a @ a.conj().T
    return DensityState(mat / np.trace(mat).real)


def test_propagate_zero_hamiltonian_identity():
    rho = _random_state(0)
    ham = HamiltonianSpec(layout=TWO, drives={}, coupling_hz=0.0)
    out = propagate(rho, ham, 3.7e-6)
    assert np.allclose(out.matrix, rho.matrix, atol=1e-12)


def test_propagate_pi_pulse_inverts_population():
    omega = 2 * np.pi * 1.0e6
    ham = HamiltonianSpec(layout=TWO, drives={"NV": DriveTerm(rabi=omega)}, coupling_hz=0.0)
    rho = polarized_state(TWO, {"NV": 1.0, "Xe": 1.0})
    out = propagate(rho, ham, np.pi / omega)
    assert out.matrix[2, 2].real == pytest.approx(1.0, abs=1e-10)  # |10>


def test_hh_exchange_in_dressed_frame():
    # matched drives at Omega = 2*pi*500 kHz, d = 58 kHz: full dressed-frame
    # population exchange at 1/(2d) = 8.62 us within 5%
    d = 58.0e3
    omega = 2 * np.pi * 500.0e3
    ham = HamiltonianSpec(
        layout=TWO,
        drives={"NV": DriveTerm(rabi=omega), "Xe": DriveTerm(rabi=omega)},
        coupling_hz=d,
    )
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    rho = pure_state(TWO, np.kron(plus, minus))
    target = pure_state(TWO, np.kron(minus, plus))
    t_grid = np.linspace(6.0e-6, 11.0e-6, 251)
    overlaps = []
    h = ham.assemble()
    for t in t_grid:
        u = expm_hermitian(h, t)
        overlaps.append(np.real(np.trace(target.matrix @ u @ rho.matrix @ u.conj().T)))
    t_star = t_grid[int(np.argmax(overlaps))]
    assert max(overlaps) > 0.95
    assert abs(t_star - 1.0 / (2 * d)) / (1.0 / (2 * d)) < 0.05


def test_exchange_frequency_matches_coupling():
    d = 58.0e3
    omega = 20.0 * 2 * np.pi * d
    ham = HamiltonianSpec(
        layout=TWO,
        drives={"NV": DriveTerm(rabi=omega), "Xe": DriveTerm(rabi=omega)},
        coupling_hz=d,
    )
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    rho0 = pure_state(TWO, np.kron(plus, minus)).matrix
    proj = pure_state(TWO, np.kron(plus, minus)).matrix
    h = ham.assemble()
    t_grid = np.linspace(0.0, 4.0 / d, 1024)
    sig = np.empty(len(t_grid))
    for k, t in enumerate(t_grid):
        u = expm_hermitian(h, t)
        sig[k] = np.real(np.trace(proj @ u @ rho0 @ u.conj().T))
    freqs = np.fft.rfftfreq(len(t_grid), t_grid[1] - t_grid[0])
    spec = np.abs(np.fft.rfft(sig - sig.mean()))
    f_peak = freqs[int(np.argmax(spec))]
    assert abs(f_peak - d) / d < 0.05


def test_propagate_preserves_trace_hermiticity_spectrum():
    rho = _random_state(3)
    omega = 2 * np.pi * 300e3
    ham = HamiltonianSpec(
        layout=TWO,
        drives={"NV": DriveTerm(rabi=omega, phase=0.4), "Xe": DriveTerm(rabi=omega)},
        coupling_hz=40e3,
    )
    out = propagate(rho, ham, 5e-6)
    assert abs(np.trace(out.matrix) - 1.0) < 1e-10
    assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10
    eig_in = np.sort(np.linalg.eigvalsh(rho.matrix))
    eig_out = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.max(np.abs(eig_in - eig_out)) < 1e-9


def test_propagate_composition_time_independent():
    rho = _random_state(4)
    ham = HamiltonianSpec(
        layout=TWO,
        drives={"NV": DriveTerm(rabi=2 * np.pi * 1e5)},
        coupling_hz=58e3,
    )
    once = propagate(rho, ham, 7e-6)
    twice = propagate(propagate(rho, ham, 3e-6), ham, 4e-6)
    assert np.max(np.abs(once.matrix - twice.matrix)) < 1e-9


def test_propagate_rejects_negative_time():
    rho = _random_state(5)
    ham = HamiltonianSpec(layout=TWO, drives={}, coupling_hz=0.0)
    with pytest.raises(ValueError):
        propagate(rho, ham, -1e-6)


def test_optical_pump_full_reset():
    rho = _random_state(6)
    out = optical_pump(rho, 1.0)
    nv_pop = out.matrix[0, 0] + out.matrix[1, 1]
    assert np.real(nv_pop) == pytest.approx(1.0, abs=1e-10)


def test_optical_pump_identity_at_zero():
    rho = _random_state(7)
    assert np.allclose(optical_pump(rho, 0.0).matrix, rho.matrix, atol=1e-12)


def test_optical_pump_partial_efficiency():
    rho = polarized_state(TWO, {"NV": 0.0, "Xe": 1.0})
    out = optical_pump(rho, 0.86)
    assert np.allclose(np.diag(out.matrix).real, [0.93, 0.0, 0.07, 0.0], atol=1e-12)


def test_optical_pump_kraus_identity():
    # sum_k K_k^dag K_k = I  <=>  the channel keeps the trace of every state;
    # 20 random states span the 16-dimensional space of Hermitian 4x4 matrices
    for seed in range(20):
        out = optical_pump(_random_state(seed), 0.37)
        assert abs(np.trace(out.matrix) - 1.0) < 1e-12


def test_optical_pump_leaves_x_untouched():
    rho = polarized_state(TWO, {"NV": -0.5, "Xe": 0.62})
    out = optical_pump(rho, 0.9)
    x_pol = 2 * out.expectation(np.kron(np.eye(2), SZ))
    assert x_pol == pytest.approx(0.62, abs=1e-12)


def _reference_pump(mat, efficiency):
    """The pump with its Kraus operators lifted per call by explicit np.kron."""
    seed, identity = np.array([[1.0 + 0.0j]]), np.eye(2, dtype=complex)
    reset0, reset1 = np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex)
    reset0[0, 0] = reset1[0, 1] = 1.0
    kraus = [np.sqrt(1.0 - efficiency) * identity,
             np.sqrt(efficiency) * reset0, np.sqrt(efficiency) * reset1]
    lifted = [np.kron(np.kron(seed, k), identity) for k in kraus]
    return sum(k @ mat @ k.conj().T for k in lifted)


def test_optical_pump_matches_kron_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    efficiencies = [0.0, 0.5, 1.0, 1e-300, 1.0 - 2**-53, *rng.random(45)]
    for seed in range(200):
        rho = _random_state(seed)
        efficiency = efficiencies[seed % len(efficiencies)]
        ours = optical_pump(rho, efficiency).matrix
        assert ours.tobytes() == _reference_pump(rho.matrix, efficiency).tobytes(), (seed, efficiency)


def test_pump_kraus_constants_are_read_only():
    assert len(dynamics.PUMP_KRAUS) == 3
    for k in dynamics.PUMP_KRAUS:
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0, 0] = 2.0
    assert np.array_equal(dynamics.PUMP_KRAUS[0], np.eye(4))


def test_apply_envelope_zero_time_identity():
    # scaling a state's coherences by the envelope at t = 0 leaves them unchanged
    rho = _random_state(8)
    env = DecoherenceEnvelope(0.8, 22e3, 1.6)
    assert env.decay(0.0) == 1.0
    assert env.amplitude(0.0) == 0.8
    assert np.array_equal(env.decay(np.zeros(3)), np.ones(3))
    assert np.array_equal(rho.matrix * env.decay(0.0), rho.matrix)


def test_apply_envelope_stretch_factor_oracle():
    # exp(-(22 kHz * 19 us)**1.6) = exp(-(0.418)**1.6) = 0.780613...
    env = DecoherenceEnvelope(1.0, 22e3, 1.6)
    expected = np.exp(-(0.418**1.6))
    assert env.decay(19e-6) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.7806136552652768, rel=1e-10)
    rho = pure_state(TWO, NV_PLUS)
    assert abs(rho.matrix[0, 2] * env.decay(19e-6)) == pytest.approx(0.5 * expected, rel=1e-10)


@pytest.mark.parametrize("p", [0.5, 1.6, 3.0])
def test_zero_rate_does_not_decay(p):
    env = DecoherenceEnvelope(1.0, 0.0, p)
    scalar = env.decay(19e-6)
    assert scalar == 1.0 and isinstance(scalar, float)
    times = np.geomspace(2e-6, 120e-6, 40)
    assert np.array_equal(env.decay(times), np.ones(40))


def test_decay_exponential_composes_stretched_does_not():
    exp_env = DecoherenceEnvelope(1.0, 30e3, 1.0)
    assert exp_env.decay(10e-6) == pytest.approx(exp_env.decay(6e-6) * exp_env.decay(4e-6), rel=1e-12)
    st_env = DecoherenceEnvelope(1.0, 30e3, 1.6)
    assert st_env.decay(10e-6) != pytest.approx(st_env.decay(6e-6) * st_env.decay(4e-6), rel=1e-3)


def test_driven_decay_limits():
    psi = np.array([0.0, 1.0, 0.0, 0.0])
    rho = pure_state(TWO, psi).matrix
    # long-time limit: exchange block fully mixed
    out = driven_decay(rho, 132e-6, 1.0, "zq")
    assert isinstance(out, np.ndarray) and out.shape == (4, 4)
    assert out[1, 1].real == pytest.approx(0.5, abs=1e-6)
    assert out[2, 2].real == pytest.approx(0.5, abs=1e-6)
    # contrast factors: the |01> population keeps (1 + f) / 2
    for t, contrast in ((132e-6, np.exp(-1.0)), (8.6e-6, 0.937)):
        kept = 2 * driven_decay(rho, 132e-6, t, "zq")[1, 1].real - 1
        assert kept == pytest.approx(contrast, abs=5e-4 if t == 8.6e-6 else 1e-12)
    # a stack gives the matrices that separate calls give
    stack = np.stack([rho, _random_state(3).matrix])
    batched = driven_decay(stack, 132e-6, 8.6e-6, "dq")
    for k in range(2):
        assert np.array_equal(batched[k], driven_decay(stack[k], 132e-6, 8.6e-6, "dq"))
    with pytest.raises(ValueError, match="t1rho must be positive"):
        driven_decay(rho, 0.0, 1e-6, "zq")
    with pytest.raises(ValueError, match="duration must be >= 0"):
        driven_decay(rho, 132e-6, -1e-6, "zq")
    with pytest.raises(ValueError, match="unknown exchange block"):
        driven_decay(rho, 132e-6, 1e-6, "sideways")


def test_monte_carlo_zero_noise_equals_propagate():
    rho = pure_state(TWO, NV_PLUS)
    ham = HamiltonianSpec(layout=TWO, drives={}, coupling_hz=0.0)
    noise = OUNoiseModel(sigma_b_gauss=0.0, tau_c_s=10e-6, trajectories=5)
    out = monte_carlo_propagate(rho, ham, 5e-6, noise, seed=1)
    ref = propagate(rho, ham, 5e-6)
    assert np.allclose(out.matrix, ref.matrix, atol=1e-12)


def test_monte_carlo_deterministic_per_seed():
    rho = pure_state(TWO, NV_PLUS)
    ham = HamiltonianSpec(layout=TWO, drives={}, coupling_hz=0.0)
    noise = OUNoiseModel(sigma_b_gauss=0.02, tau_c_s=5e-6, trajectories=64)
    a = monte_carlo_propagate(rho, ham, 8e-6, noise, seed=9)
    b = monte_carlo_propagate(rho, ham, 8e-6, noise, seed=9)
    assert np.array_equal(a.matrix, b.matrix)


def test_ou_phase_variance_against_trajectories():
    # free-evolution coherence decay matches exp(-variance/2) of the OU
    # phase integral within trajectory statistics
    noise = OUNoiseModel(sigma_b_gauss=0.015, tau_c_s=8e-6, trajectories=4000)
    t = 12e-6
    n_traj, n_steps = noise.trajectories, 240
    rng = np.random.default_rng(13)
    dt = t / n_steps
    # one generator listed n_traj times: row j holds its j-th draw, the
    # path that the j-th single-path call on it would give
    paths = ou_trajectory(noise, n_steps, dt, [rng] * n_traj)
    phases = GAMMA_E * np.sum(paths, axis=1) * dt
    mc = np.mean(np.exp(1j * phases)).real
    var = ou_phase_variance(noise, t)
    analytic = np.exp(-var / 2.0)
    stat_err = np.std(np.cos(phases)) / np.sqrt(n_traj)
    assert abs(mc - analytic) < 3.5 * stat_err + 0.01


def test_monte_carlo_convergence_in_trajectories():
    rho = pure_state(TWO, NV_PLUS)
    ham = HamiltonianSpec(layout=TWO, drives={}, coupling_hz=0.0)
    t = 10e-6
    var = ou_phase_variance(OUNoiseModel(0.02, 5e-6, 1), t)
    target = 0.5 * np.exp(-var / 2.0)
    devs = []
    for n in (100, 10000):
        noise = OUNoiseModel(sigma_b_gauss=0.02, tau_c_s=5e-6, trajectories=n)
        out = monte_carlo_propagate(rho, ham, t, noise, seed=21)
        devs.append(abs(abs(out.matrix[0, 2]) - target))
    assert devs[1] < devs[0]


def _reference_expm(h, t):
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1.0j * evals * t)) @ evecs.conj().T


def _reference_ou_path(noise, n_steps, dt, rng):
    # one scalar draw per value, as the path was first written
    decay = np.exp(-dt / noise.tau_c_s)
    diffuse = noise.sigma_b_gauss * np.sqrt(1.0 - decay**2)
    x = np.empty(n_steps)
    x_cur = noise.sigma_b_gauss * rng.standard_normal()
    for k in range(n_steps):
        x[k] = x_cur
        x_cur = x_cur * decay + diffuse * rng.standard_normal()
    return x


def _driven_pair():
    return HamiltonianSpec(
        layout=TWO,
        drives={
            "NV": DriveTerm(rabi=2 * np.pi * 3e5, phase=0.3),
            "Xe": DriveTerm(rabi=2 * np.pi * 2e5, phase=-1.2),
        },
        coupling_hz=40e3,
    )


def test_ou_trajectory_matches_scalar_draws():
    noise = OUNoiseModel(sigma_b_gauss=0.01, tau_c_s=4e-6)
    for n_rngs in (1, 5):
        got = ou_trajectory(noise, 33, 0.3e-6, [np.random.default_rng(seed) for seed in range(n_rngs)])
        assert got.shape == (n_rngs, 33)
        for seed in range(n_rngs):
            ref = _reference_ou_path(noise, 33, 0.3e-6, np.random.default_rng(seed))
            assert np.array_equal(got[seed], ref)


def test_expm_hermitian_stack_matches_single_calls():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
    hs = a + np.swapaxes(a.conj(), -1, -2)
    times = rng.uniform(0.0, 2.0, size=5)
    stacked = expm_hermitian(hs, 0.7)
    timed = expm_hermitian(hs, times)
    assert stacked.shape == timed.shape == (3, 5, 4, 4)
    for i in range(3):
        for j in range(5):
            assert np.array_equal(stacked[i, j], expm_hermitian(hs[i, j], 0.7))
            assert np.array_equal(timed[i, j], expm_hermitian(hs[i, j], times[j]))
            assert np.array_equal(timed[i, j], _reference_expm(hs[i, j], times[j]))
    grid = expm_hermitian(hs[0, 0], times)
    assert grid.shape == (5, 4, 4)
    for j in range(5):
        assert np.array_equal(grid[j], _reference_expm(hs[0, 0], times[j]))


def test_monte_carlo_matches_per_trajectory_reference():
    # the closed form against the stepwise product of one 4x4 exponential
    # per step, one trajectory at a time
    draw = np.random.default_rng(17)
    sz_sum = np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ)
    for case in range(6):
        rho = _random_state(11 + case)
        ham = HamiltonianSpec(layout=TWO, coupling_hz=draw.uniform(-1e6, 1e6))
        noise = OUNoiseModel(
            sigma_b_gauss=draw.uniform(0.0, 0.02),
            tau_c_s=draw.uniform(1e-6, 20e-6),
            trajectories=int(draw.integers(1, 33)),
        )
        t, seed = draw.uniform(1e-6, 50e-6), int(draw.integers(2**32))
        out = monte_carlo_propagate(rho, ham, t, noise, seed)
        n_steps = max(10, int(np.ceil(t / (noise.tau_c_s / 10.0))))
        dt = t / n_steps
        h0 = ham.assemble()
        acc = np.zeros_like(rho.matrix)
        for traj in range(noise.trajectories):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(traj,)))
            path = _reference_ou_path(noise, n_steps, dt, rng)
            mat = rho.matrix
            for k in range(n_steps):
                u = _reference_expm(h0 + GAMMA_E * path[k] * sz_sum, dt)
                mat = u @ mat @ u.conj().T
            acc = acc + mat
        assert np.max(np.abs(out.matrix - acc / noise.trajectories)) < 1e-13, case


def test_monte_carlo_rejects_layout_mismatch_with_noise():
    # a swapped layout is refused when it is built, and a state of another
    # size never reaches the propagator
    ham = HamiltonianSpec(layout=TWO, coupling_hz=58e3)
    noise = OUNoiseModel(sigma_b_gauss=2e-3, tau_c_s=5e-6, trajectories=4)
    with pytest.raises(LayoutError):
        rho = pure_state(layout("Xe", "NV"), np.array([1.0, 0.0, 0.0, 1.0]))
        monte_carlo_propagate(rho, ham, 20e-6, noise, seed=0)
    with pytest.raises(StateError, match="shape"):
        monte_carlo_propagate(DensityState(np.eye(2) / 2.0), ham, 20e-6, noise, seed=0)


def test_monte_carlo_zero_time_returns_state_unchanged():
    rho = _random_state(12)
    noise = OUNoiseModel(sigma_b_gauss=2e-3, tau_c_s=5e-6, trajectories=8)
    ham = HamiltonianSpec(layout=TWO, coupling_hz=58e3)
    out = monte_carlo_propagate(rho, ham, 0.0, noise, seed=0)
    assert np.array_equal(out.matrix, rho.matrix)


def test_monte_carlo_refuses_a_driven_hamiltonian():
    noise = OUNoiseModel(sigma_b_gauss=2e-3, tau_c_s=5e-6, trajectories=8)
    rho = _random_state(12)
    for ham in (_driven_pair(), HamiltonianSpec(layout=TWO, drives={"Xe": DriveTerm(rabi=1e-3)})):
        for t in (0.0, 10e-6):
            with pytest.raises(ValueError, match="pure dephasing"):
                monte_carlo_propagate(rho, ham, t, noise, seed=0)


def test_monte_carlo_accepts_a_zero_drive():
    noise = OUNoiseModel(sigma_b_gauss=2e-3, tau_c_s=5e-6, trajectories=8)
    rho = _random_state(13)
    undriven = HamiltonianSpec(layout=TWO, coupling_hz=58e3)
    zero_drive = HamiltonianSpec(
        layout=TWO, drives={"NV": DriveTerm(rabi=0.0, phase=0.7), "Xe": DriveTerm(rabi=0.0)}, coupling_hz=58e3
    )
    out = monte_carlo_propagate(rho, zero_drive, 10e-6, noise, seed=3)
    assert np.array_equal(out.matrix, monte_carlo_propagate(rho, undriven, 10e-6, noise, seed=3).matrix)


@pytest.mark.parametrize(
    "sigma_b, tau_c, message",
    [(np.nan, 5e-6, "sigma_b"), (np.inf, 5e-6, "sigma_b"), (2e-3, np.nan, "tau_c"), (2e-3, np.inf, "tau_c")],
)
def test_ou_noise_model_refuses_non_finite_parameters(sigma_b, tau_c, message):
    with pytest.raises(ValueError, match=message):
        OUNoiseModel(sigma_b, tau_c)


@pytest.mark.parametrize(
    "cls, args, message",
    [
        (DecoherenceEnvelope, (1.0, np.nan, 1.6), "gamma2"),
        (DecoherenceEnvelope, (1.0, np.inf, 1.6), "gamma2"),
        (DecoherenceEnvelope, (1.0, 1e3, np.nan), "exponent p"),
        (DecoherenceEnvelope, (1.0, 1e3, np.inf), "exponent p"),
        (GateParams, (np.nan,), "coupling d"),
        (GateParams, (np.inf,), "coupling d"),
        (GateParams, (1e3, 0.0, np.nan), "t1rho"),
        (GateParams, (1e3, 0.0, np.inf), "t1rho"),
    ],
)
def test_envelope_and_gate_params_refuse_non_finite_values(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)


def test_hamiltonian_hermitian():
    ham = HamiltonianSpec(
        layout=TWO,
        drives={"NV": DriveTerm(rabi=1e6, phase=1.1), "Xe": DriveTerm(rabi=3e4)},
        coupling_hz=58e3,
    )
    h = ham.assemble()
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(ValueError, match="unknown spin"):
        HamiltonianSpec(layout=TWO, drives={"Xn": DriveTerm(rabi=1e6)})


def test_assembled_hamiltonian_is_exactly_hermitian():
    # each drive is a real multiple of the exactly Hermitian Sx and Sy, and
    # the coupling a real multiple of Sz Sz, so entry (j, i) is the exact
    # conjugate of entry (i, j) at every magnitude a finite input can take
    rng = np.random.default_rng(7)

    def magnitude():
        return rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 307.0)

    for _ in range(2000):
        ham = HamiltonianSpec(
            layout=TWO,
            drives={
                "NV": DriveTerm(rabi=magnitude(), phase=rng.uniform(-10.0, 10.0)),
                "Xe": DriveTerm(rabi=magnitude(), phase=rng.uniform(-10.0, 10.0)),
            },
            coupling_hz=magnitude(),
        )
        h = ham.assemble()
        assert np.array_equal(h, h.conj().T), ham


def test_assemble_builds_the_coupling_operator_once(monkeypatch):
    ham = HamiltonianSpec(TWO, drives={"NV": DriveTerm(rabi=3.0e5, phase=0.4)}, coupling_hz=58.0e3)
    first = ham.assemble()
    monkeypatch.setattr(spinsys, "pair_operator", None)  # a rebuild would raise
    monkeypatch.setattr(dynamics, "pair_operator", None)
    second = ham.assemble()
    assert np.array_equal(first, second)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    drive = 3.0e5 * (np.cos(0.4) * np.kron(sx, np.eye(2)) + np.sin(0.4) * np.kron(sy, np.eye(2)))
    coupling = 2.0 * np.pi * (2.0 * 58.0e3) * np.kron(SZ, SZ)
    assert np.allclose(second, drive + coupling, rtol=0.0, atol=1e-9)
