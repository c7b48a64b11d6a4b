"""Scenario implementations behind the command-line runner.

Each scenario builds its figure's data from the simulator and analysis
chain and returns (columns, summary): columns become the CSV, the
summary becomes the JSON report.  All randomness flows from the config
seed; the shot count sets the synthetic noise level as 1/sqrt(shots)
per point.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from .analysis import (
    MagnetometryCurve,
    TimingBudget,
    fit_sinusoid,
    fit_stretched_exp,
    gain_performance,
    gain_sensitivity,
    overhead_factor,
    precession_rate,
    required_amplitude_ratio_scale,
    snr_bound_check,
    sweep_gain_map,
    unity_crossing,
)
from .config import ScenarioConfig
from .dynamics import DecoherenceEnvelope, _evolve, expm_hermitian, optical_pump
from .protocols import (
    RABI_OVER_COUPLING,
    GateParams,
    NuclearFactor,
    calibrate_gate_error,
    dominant_frequency,
    matched_drive,
    modulated_disentangle_scan,
    nv_polarization,
    polarization_transfer,
    prepare_entangled,
    verify_phase_recipes,
)
from .readout import calibrate_ladder, geometric_ratio_for_gain, snr_gain, stretched_ladder
from .spinsys import (
    MINUS,
    PLUS,
    SX,
    TWO_SPIN_LAYOUT,
    InfeasibleError,
    bell_coherence,
    polarized_state,
)

# Reconstructed per-readout amplitude ladder for the repetitive-readout
# gain figure (normalized to the direct readout; digitized working point).
FIG4B_LADDER = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.30, 0.20])

# the two-spin amplitude vanishes at alpha0 = 0 and underflows at a large
# gamma2, and the NV amplitude, the gain's divisor, underflows at a large
# gamma2 too; each leaves the fig4 gain curves without a solution, and
# fig3a's signal curve without a signal to fit
GAIN_AMPLITUDE_KEYS = (
    "decoherence.alpha0_two_spin",
    "decoherence.gamma2_two_spin_hz",
    "decoherence.gamma2_nv_hz",
)


@contextmanager
def _config_keys(*keys: str) -> Iterator[None]:
    """Name the config parameters behind an InfeasibleError raised inside."""
    try:
        yield
    except InfeasibleError as exc:
        exc.config_keys = keys
        raise


def _noise_sigma(cfg: ScenarioConfig) -> float:
    return 1.0 / np.sqrt(float(cfg["run.trajectories"]))


def _gate_params(cfg: ScenarioConfig) -> GateParams:
    with _config_keys("calibration.one_round_x_polarization"):
        return calibrate_gate_error(
            p1_target=cfg["calibration.one_round_x_polarization"],
            pump_efficiency=cfg["pump.efficiency"],
            d_hz=cfg["coupling.d_hz"],
            t1rho_s=cfg["coupling.t1rho_s"],
            initial_x_polarization=cfg["calibration.initial_x_polarization"],
        )


def _envelopes(cfg: ScenarioConfig) -> tuple[DecoherenceEnvelope, DecoherenceEnvelope]:
    p = cfg["decoherence.p"]
    env_nv = DecoherenceEnvelope(cfg["decoherence.alpha0_nv"], cfg["decoherence.gamma2_nv_hz"], p)
    env_two = DecoherenceEnvelope(
        cfg["decoherence.alpha0_two_spin"], cfg["decoherence.gamma2_two_spin_hz"], p
    )
    return env_nv, env_two


def run_fig1f(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Coherent spin exchange under matched drives vs drive duration."""
    d = cfg["coupling.d_hz"]
    omega = max(cfg["coupling.rabi_rad_per_s"], RABI_OVER_COUPLING * 2.0 * np.pi * d)
    h = matched_drive(d, omega, verify_phase_recipes()["zq"]).assemble()
    # the matched drives lock the spins along their drive axes, so the
    # exchanged polarization lives on Sx (the lab z populations just
    # precess at the Rabi frequency); start NV locked, X anti-locked
    psi0 = np.kron(PLUS, MINUS)
    rho0 = np.outer(psi0, psi0.conj())
    t_grid = np.linspace(0.0, 1.2 / d, 1201)
    u = expm_hermitian(h, t_grid)
    rho = _evolve(rho0, u)
    p_x = np.real(np.trace(rho @ SX["Xe"], axis1=-2, axis2=-1)) * 2.0
    p_nv = np.real(np.trace(rho @ SX["NV"], axis1=-2, axis2=-1)) * 2.0
    k_star = int(np.argmax(p_x))
    # parabolic refinement of the transfer-time estimate
    if 0 < k_star < len(t_grid) - 1:
        y0, y1, y2 = p_x[k_star - 1], p_x[k_star], p_x[k_star + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        t_transfer = t_grid[k_star] + shift * (t_grid[1] - t_grid[0])
    else:
        t_transfer = t_grid[k_star]
    columns = {
        "t[s]": t_grid,
        "nv_polarization[1]": p_nv,
        "x_polarization[1]": p_x,
    }
    summary = {
        "transfer_time_s": float(t_transfer),
        "expected_transfer_time_s": 1.0 / (2.0 * d),
        "exchange_frequency_hz": d,
        "rabi_rad_per_s": omega,
        "max_x_polarization": float(np.max(p_x)),
        "converged": True,
    }
    return columns, summary


def run_fig2a(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """X polarization vs number of pump-swap rounds, calibrated gates."""
    params = _gate_params(cfg)
    n_rounds = 4
    _, trace = polarization_transfer(
        n_rounds,
        cfg["pump.efficiency"],
        params,
        cfg["calibration.initial_x_polarization"],
    )
    columns = {
        "rounds[1]": np.arange(n_rounds + 1, dtype=float),
        "x_polarization[1]": np.asarray(trace),
    }
    summary = {
        "gate_error": params.epsilon,
        "pump_efficiency": cfg["pump.efficiency"],
        "p_after_1": trace[1],
        "p_after_3": trace[3],
        "converged": True,
    }
    return columns, summary


def _state_before_entangling(cfg: ScenarioConfig, params: GateParams):
    state, _ = polarization_transfer(
        3, cfg["pump.efficiency"], params, cfg["calibration.initial_x_polarization"]
    )
    return optical_pump(state, cfg["pump.efficiency"])


def run_fig2b(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Sum-frequency oscillation of the entangled-state modulation scan."""
    params = _gate_params(cfg)
    state = _state_before_entangling(cfg, params)
    p_nv = nv_polarization(state)
    with _config_keys("pump.efficiency", "calibration.initial_x_polarization"):
        if p_nv == 0.0:
            raise InfeasibleError("NV unpolarized before the entangling gate; contrast undefined")
    rho_phi = prepare_entangled(state, params)
    f_nv, f_x = 500.0e3, 250.0e3  # phase-modulation frequencies; sum 750 kHz
    t_grid = np.linspace(0.0, 40.0e-6, 801)
    signal = modulated_disentangle_scan(rho_phi, f_nv, f_x, t_grid, params)
    sigma = _noise_sigma(cfg)
    noisy = signal + rng.normal(0.0, sigma, len(signal))
    curve = MagnetometryCurve(t_grid, noisy, np.full_like(t_grid, sigma), 0.0, 2)
    fit = fit_sinusoid(curve)
    amplitude = fit.parameters["amplitude"]
    columns = {
        "t[s]": t_grid,
        "nv_population[1]": noisy,
        "nv_population_noiseless[1]": signal,
    }
    summary = {
        "fft_peak_hz": dominant_frequency(t_grid, signal),
        "peak_frequency_hz": fit.parameters["rate_rad_per_gauss"] / (2.0 * np.pi),
        "spectral_resolution_hz": 1.0 / (t_grid[-1] - t_grid[0]),
        "modulation_frequencies_hz": [f_nv, f_x],
        "oscillation_amplitude": amplitude,
        "contrast": 2.0 * amplitude / p_nv,
        "nv_polarization_before_gate": p_nv,
        "bell_coherence": abs(bell_coherence(rho_phi)),
        "converged": bool(fit.converged),
    }
    return columns, summary


def run_fig2c(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Echo decays of the single spins and the entangled two-spin state."""
    p = cfg["decoherence.p"]
    gamma_nv = cfg["decoherence.gamma2_nv_hz"]
    gamma_x = cfg["decoherence.gamma2_x_hz"]
    tau_grid = np.geomspace(2.0e-6, 120.0e-6, 40)
    sigma = _noise_sigma(cfg)

    # two-spin decay: the Bell coherence of the gate chain times an envelope
    # whose rate is set to the input sum gamma_NV + gamma_X, so fitting it
    # back recovers that sum by construction rather than deriving it; the
    # entangling rotation 2 pi d / (4 d) is pi/2 at every d, so any d serves
    both_up = polarized_state(TWO_SPIN_LAYOUT, {"NV": 1.0, "Xe": 1.0})
    coherence = bell_coherence(prepare_entangled(both_up, GateParams(d_hz=1.0)))
    env_sum = DecoherenceEnvelope(1.0, gamma_nv + gamma_x, p)
    # scalar decay per tau on purpose: scalar ** is libm pow, array ** numpy's loop, 1 ulp apart
    two_spin = np.array([2.0 * abs(coherence * env_sum.decay(tau)) for tau in tau_grid])
    curves = {
        "nv": DecoherenceEnvelope(1.0, gamma_nv, p).decay(tau_grid),
        "x": DecoherenceEnvelope(1.0, gamma_x, p).decay(tau_grid),
        "two_spin": two_spin,
    }
    columns: dict[str, np.ndarray] = {"tau[s]": tau_grid}
    summary: dict[str, Any] = {"gamma2_inputs_hz": {"nv": gamma_nv, "x": gamma_x}}
    converged = True
    for name, clean in curves.items():
        noisy = clean + rng.normal(0.0, sigma, len(clean))
        columns[f"{name}_signal[1]"] = noisy
        fit = fit_stretched_exp(tau_grid, noisy, sigma)
        summary[f"{name}_fit"] = {
            "gamma2_hz": fit.parameters["gamma2_hz"],
            "gamma2_stderr_hz": fit.stderr("gamma2_hz"),
            "p": fit.parameters["p"],
            "converged": bool(fit.converged),
        }
        converged = converged and fit.converged
    summary["rate_sum_hz"] = gamma_nv + gamma_x
    summary["converged"] = bool(converged)
    return columns, summary


def run_fig2d(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Repetitive-readout amplitude ladder and cumulative SNR gain."""
    m_max = int(cfg["readout.m_max"])
    with _config_keys("readout.amplitude_sum", "readout.snr_at_m"):
        k0, s = calibrate_ladder(cfg["readout.amplitude_sum"], cfg["readout.snr_at_m"], m_max)
    ladder = stretched_ladder(k0, s, m_max)
    gains = snr_gain(ladder)
    columns = {
        "readout_index[1]": np.arange(m_max + 1, dtype=float),
        "amplitude[1]": ladder,
        "snr_gain[1]": gains,
    }
    summary = {
        "ladder_shape": {"k0": k0, "s": s},
        "amplitude_sum": float(np.sum(ladder)),
        "snr_gain_at_m": float(gains[-1]),
        "m_max": m_max,
        "converged": True,
    }
    return columns, summary


def run_fig3a(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Magnetometry signal vs field amplitude for one and two spins."""
    tau = 10.0e-6
    env_nv, env_two = _envelopes(cfg)
    factor = NuclearFactor(cfg["nuclear.polarization"], int(cfg["nuclear.transitions"]))
    nu1 = precession_rate(1, tau)
    nu2 = precession_rate(2, tau)
    b_grid = np.linspace(0.0, 2.5 * np.pi / nu1, 80)
    sigma = _noise_sigma(cfg)
    alpha1 = env_nv.amplitude(tau)
    alpha2 = env_two.amplitude(tau) * factor.amplitude_factor
    with _config_keys(*GAIN_AMPLITUDE_KEYS):
        if alpha1 == 0.0 or alpha2 == 0.0:
            raise InfeasibleError(
                f"signal amplitude 0 at tau = {tau:.3g} s (NV {alpha1:.3g}, two-spin {alpha2:.3g}); "
                "the curve would be noise alone"
            )
    clean1 = alpha1 * np.sin(nu1 * b_grid)
    clean2 = alpha2 * np.sin(nu2 * b_grid)
    noisy1 = clean1 + rng.normal(0.0, sigma, len(b_grid))
    noisy2 = clean2 + rng.normal(0.0, sigma, len(b_grid))
    sig = np.full_like(b_grid, sigma)
    fit1 = fit_sinusoid(MagnetometryCurve(b_grid, noisy1, sig, tau, 1))
    fit2 = fit_sinusoid(MagnetometryCurve(b_grid, noisy2, sig, tau, 2))
    rate1 = fit1.parameters["rate_rad_per_gauss"]
    rate2 = fit2.parameters["rate_rad_per_gauss"]
    err = np.hypot(
        fit2.stderr("rate_rad_per_gauss") / rate1,
        rate2 * fit1.stderr("rate_rad_per_gauss") / rate1**2,
    )
    columns = {
        "b[G]": b_grid,
        "single_spin_signal[1]": noisy1,
        "two_spin_signal[1]": noisy2,
    }
    summary = {
        "tau_s": tau,
        "single_spin_rate_rad_per_gauss": rate1,
        "two_spin_rate_rad_per_gauss": rate2,
        "rate_ratio": rate2 / rate1,
        "rate_ratio_stderr": float(err),
        "single_spin_amplitude": fit1.parameters["amplitude"],
        "two_spin_amplitude": fit2.parameters["amplitude"],
        "converged": bool(fit1.converged and fit2.converged),
    }
    return columns, summary


def run_fig3b(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Normalized magnetometry amplitude vs sensing time with envelopes."""
    env_nv, env_two = _envelopes(cfg)
    tau_grid = np.linspace(1.0e-6, 30.0e-6, 59)
    markers = np.array([2.0e-6, 10.0e-6, 19.0e-6])
    sigma = _noise_sigma(cfg)
    marker_nv = env_nv.amplitude(markers) + rng.normal(0.0, sigma, len(markers))
    marker_two = env_two.amplitude(markers) + rng.normal(0.0, sigma, len(markers))
    columns = {
        "tau[s]": tau_grid,
        "nv_amplitude[1]": env_nv.amplitude(tau_grid),
        "two_spin_amplitude[1]": env_two.amplitude(tau_grid),
    }
    summary = {
        "alpha0_nv": env_nv.alpha0,
        "alpha0_two_spin": env_two.alpha0,
        "marker_taus_s": markers.tolist(),
        "marker_nv_amplitudes": marker_nv.tolist(),
        "marker_two_spin_amplitudes": marker_two.tolist(),
        "converged": True,
    }
    return columns, summary


def run_fig4a(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Gain in performance and sensitivity vs sensing time."""
    env_nv, env_two = _envelopes(cfg)
    polarized = NuclearFactor(1.0, 1)
    tau_grid = np.linspace(1.0e-6, 60.0e-6, 600)
    # one readout per shot: no repeated-readout dead time, so tau_rr is 0
    budget = TimingBudget(tau_grid, cfg["budget.tau_nv_s"], cfg["budget.tau_phi_s"], 0.0, 1)
    h = overhead_factor(budget)
    with _config_keys(*GAIN_AMPLITUDE_KEYS):
        g_q1 = gain_performance(tau_grid, env_nv, env_two, polarized)
        g_q0 = gain_performance(tau_grid, env_nv, env_two, NuclearFactor(0.0, 1))
        scale = required_amplitude_ratio_scale(env_nv, env_two, polarized, budget)
    columns = {
        "tau[s]": tau_grid,
        "gain_performance_q1[1]": g_q1,
        "gain_performance_q0[1]": g_q0,
        "gain_sensitivity_q1[1]": g_q1 * h,
        "gain_sensitivity_q0[1]": g_q0 * h,
    }
    summary = {
        "unity_crossing_tau_s": unity_crossing(tau_grid, g_q1),
        "max_gain_q0": float(np.max(g_q0)),
        "max_gain_q1": float(np.max(g_q1)),
        "required_two_spin_amplitude_scale_for_unit_sensitivity": scale,
        "required_relative_increase": scale - 1.0,
        "converged": True,
    }
    return columns, summary


def run_fig4b(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Gain vs repetition count for the reconstructed readout ladder."""
    env_nv, env_two = _envelopes(cfg)
    tau = 19.0e-6
    budget = TimingBudget(
        tau_s=tau,
        tau_nv_s=cfg["budget.tau_nv_s"],
        tau_phi_s=cfg["budget.tau_phi_s"],
        tau_rr_s=cfg["budget.tau_rr_s"],
    )
    ladder = FIG4B_LADDER
    m_values = np.arange(len(ladder))
    results: dict[str, Any] = {}
    columns: dict[str, np.ndarray] = {"m[1]": m_values.astype(float), "amplitude[1]": ladder}
    for tag, q in (("q0", 0.0), ("q1", 1.0)):
        factor = NuclearFactor(q, 1)
        with _config_keys(*GAIN_AMPLITUDE_KEYS):
            report = gain_sensitivity(tau, env_nv, env_two, factor, budget, ladder, m_values)
        g_tilde = report.g_tilde
        g_rr = report.g * report.snr_gain
        columns[f"gain_sensitivity_{tag}[1]"] = g_tilde
        columns[f"gain_rr_{tag}[1]"] = g_rr
        best = int(np.argmax(g_tilde))
        ok, issues = snr_bound_check(gain_sensitivity(tau, env_nv, env_two, factor, budget, ladder, best))
        results[tag] = {
            "best_m": best,
            "max_gain_sensitivity": float(g_tilde[best]),
            "max_gain_rr": float(np.max(g_rr)),
            "first_m_with_gain_rr_above_1": int(np.argmax(g_rr > 1.0)) if np.any(g_rr > 1.0) else None,
            "bound_check_passed": ok,
            "bound_check_issues": issues,
        }
    summary = {"tau_s": tau, **results, "converged": True}
    return columns, summary


def run_fig4c(cfg: ScenarioConfig, rng: np.random.Generator) -> tuple[dict, dict]:
    """Maximum achievable sensitivity gain over coupling and decoherence.

    The repetitive-readout ladder is one of three readout-ladder models,
    each chosen for what its figure needs:

    - fig4b uses the digitised per-readout amplitudes (``FIG4B_LADDER``);
    - fig2d uses a stretched ladder fitted to both measured working
      points, ``readout.amplitude_sum`` and ``readout.snr_at_m``;
    - this sweep needs a closed form out to ``sweep.m_max``, past the
      measured readouts, so it uses the one-parameter geometric ladder
      a_k = r**k with r matched to ``readout.snr_at_m`` at
      ``readout.m_max``.
    """
    d_axis = np.linspace(cfg["sweep.d_min_hz"], cfg["sweep.d_max_hz"], int(cfg["sweep.d_points"]))
    ratio_axis = np.linspace(
        cfg["sweep.ratio_min"], cfg["sweep.ratio_max"], int(cfg["sweep.ratio_points"])
    )
    m_max = int(cfg["sweep.m_max"])
    with _config_keys("readout.snr_at_m", "readout.m_max"):
        ladder_ratio = geometric_ratio_for_gain(cfg["readout.snr_at_m"], int(cfg["readout.m_max"]))
    ladder = ladder_ratio ** np.arange(m_max + 1)
    d_exp = cfg["coupling.d_hz"]
    fixed = dict(
        alpha0_nv=cfg["decoherence.alpha0_nv"],
        alpha0_two_spin=cfg["decoherence.alpha0_two_spin"],
        gamma2_nv_hz=cfg["decoherence.gamma2_nv_hz"],
        p=cfg["decoherence.p"],
        tau_nv_s=cfg["budget.tau_nv_s"],
        tau_phi_at_d_exp_s=cfg["budget.tau_phi_s"],
        d_exp_hz=d_exp,
        tau_rr_s=cfg["budget.tau_rr_s"],
    )
    with _config_keys("decoherence.gamma2_nv_hz"):
        norr, rr = sweep_gain_map(d_axis, ratio_axis, ladder, **fixed).values
    exp_ratio = cfg["decoherence.gamma2_x_hz"] / cfg["decoherence.gamma2_nv_hz"]
    i_exp = int(np.argmin(np.abs(ratio_axis - exp_ratio)))
    j_exp = int(np.argmin(np.abs(d_axis - d_exp)))

    columns = {
        "d[Hz]": np.repeat(d_axis, len(ratio_axis)),
        "gamma2_ratio[1]": np.tile(ratio_axis, len(d_axis)),
        "max_gain_no_rr[1]": norr.T.ravel(),
        "max_gain_with_rr[1]": rr.T.ravel(),
    }
    summary = {
        "experimental_cell": {
            "d_hz": float(d_axis[j_exp]),
            "gamma2_ratio": float(ratio_axis[i_exp]),
            "max_gain_no_rr": float(norr[i_exp, j_exp]),
            "max_gain_with_rr": float(rr[i_exp, j_exp]),
        },
        "boundary_no_rr": {
            "d_crossing_hz_at_experimental_ratio": unity_crossing(d_axis, norr[i_exp], rising=True),
            "ratio_crossing_at_experimental_d": unity_crossing(ratio_axis, norr[:, j_exp]),
        },
        "fixed_inputs": {
            **fixed,
            "nuclear_polarization": 1.0,
            "repetitive_readout": False,
            "ladder_ratio": ladder_ratio,
            "m_max": m_max,
        },
        "converged": True,
    }
    return columns, summary


SCENARIO_RUNNERS: dict[str, Callable[[ScenarioConfig, np.random.Generator], tuple[dict, dict]]] = {
    "fig1f": run_fig1f,
    "fig2a": run_fig2a,
    "fig2b": run_fig2b,
    "fig2c": run_fig2c,
    "fig2d": run_fig2d,
    "fig3a": run_fig3a,
    "fig3b": run_fig3b,
    "fig4a": run_fig4a,
    "fig4b": run_fig4b,
    "fig4c": run_fig4c,
}
