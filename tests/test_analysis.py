import tracemalloc

import numpy as np
import pytest

from entangle_sense.analysis import (
    FitError,
    MagnetometryCurve,
    SensitivityReport,
    TimingBudget,
    check_jacobian,
    fit_sinusoid,
    fit_stretched_exp,
    gain_performance,
    gain_sensitivity,
    min_field,
    overhead_factor,
    precession_rate,
    required_amplitude_ratio_scale,
    snr_bound_check,
    sweep_gain_map,
    unity_crossing,
    write_curve_csv,
)
from entangle_sense.dynamics import DecoherenceEnvelope
from entangle_sense.protocols import NuclearFactor
from entangle_sense.readout import geometric_ratio_for_gain, snr_gain
from entangle_sense.spinsys import CONSTANTS, InfeasibleError

ENV_NV = DecoherenceEnvelope(0.96, 22e3, 1.6)
ENV_TWO = DecoherenceEnvelope(0.78, 36e3, 1.6)


def _sine_curve(alpha, nu, phi, c, sigma, n=60, seed=None, n_spins=1, tau=10e-6):
    b = np.linspace(0.0, 3 * np.pi / nu, n)
    y = alpha * np.sin(nu * b + phi) + c
    if seed is not None:
        y = y + np.random.default_rng(seed).normal(0, sigma, n)
    return MagnetometryCurve(b, y, np.full(n, max(sigma, 1e-9)), tau, n_spins)


# ---------------------------------------------------------------------------
# sinusoid fits


def test_sinusoid_noiseless_recovery():
    nu = 2 * CONSTANTS.gamma_e * (2 / np.pi) * 10e-6
    fit = fit_sinusoid(_sine_curve(0.8, nu, 0.3, 0.1, 1e-9))
    assert fit.converged
    assert fit.parameters["amplitude"] == pytest.approx(0.8, rel=1e-6)
    assert fit.parameters["rate_rad_per_gauss"] == pytest.approx(nu, rel=1e-6)
    assert fit.parameters["phase_rad"] == pytest.approx(0.3, abs=1e-6)
    assert fit.parameters["offset"] == pytest.approx(0.1, abs=1e-6)


def test_sinusoid_needs_enough_points():
    nu = 100.0
    b = np.linspace(0, 2 * np.pi / nu, 5)
    y = np.sin(nu * b)
    with pytest.raises(FitError):
        fit_sinusoid(MagnetometryCurve(b, y, np.full(5, 0.01), 1e-5, 1))


def test_sinusoid_monte_carlo_coverage():
    # >= 99% of seeded noisy fits recover truth within 3 sigma
    nu = precession_rate(1, 10e-6)
    inside = 0
    total = 1000
    for seed in range(total):
        fit = fit_sinusoid(_sine_curve(0.8, nu, 0.3, 0.1, 0.05, seed=seed))
        assert fit.converged
        ok = abs(fit.parameters["amplitude"] - 0.8) < 3 * fit.stderr("amplitude")
        ok = ok and abs(fit.parameters["rate_rad_per_gauss"] - nu) < 3 * fit.stderr(
            "rate_rad_per_gauss"
        )
        inside += ok
    assert inside / total >= 0.99


def test_two_spin_rate_ratio():
    nu1 = precession_rate(1, 10e-6)
    f1 = fit_sinusoid(_sine_curve(0.9, nu1, 0.0, 0.0, 0.02, seed=1))
    f2 = fit_sinusoid(_sine_curve(0.45, 2 * nu1, 0.0, 0.0, 0.02, seed=2, n_spins=2))
    ratio = f2.parameters["rate_rad_per_gauss"] / f1.parameters["rate_rad_per_gauss"]
    assert ratio == pytest.approx(2.0, abs=0.02)


def test_sinusoid_degenerate_amplitude_flagged():
    b = np.linspace(0, 1.0, 40)
    y = np.zeros(40)
    curve = MagnetometryCurve(b, y, np.full(40, 0.1), 1e-5, 1)
    try:
        fit = fit_sinusoid(curve)
        assert not fit.converged
    except FitError:
        pass  # flat data may be rejected outright at initialization


# ---------------------------------------------------------------------------
# stretched-exponential fits


def test_stretched_exp_recovery_at_snr_50():
    t = np.linspace(2e-6, 100e-6, 250)
    truth = 0.9 * np.exp(-((22e3 * t) ** 1.6))
    rng = np.random.default_rng(7)
    y = truth + rng.normal(0, 0.9 / 50, len(t))
    fit = fit_stretched_exp(t, y, 0.9 / 50)
    assert fit.converged
    assert fit.parameters["gamma2_hz"] == pytest.approx(22e3, rel=0.01)
    assert fit.parameters["p"] == pytest.approx(1.6, rel=0.05)


def test_stretched_exp_p_fixed_exponential():
    t = np.linspace(1e-6, 60e-6, 30)
    y = 0.8 * np.exp(-30e3 * t)
    fit = fit_stretched_exp(t, y, 1e-6, p_fixed=1.0)
    assert fit.converged
    assert fit.parameters["gamma2_hz"] == pytest.approx(30e3, rel=1e-6)
    assert fit.parameters["alpha0"] == pytest.approx(0.8, rel=1e-6)


def test_stretched_exp_p_stays_in_bounds():
    t = np.linspace(1e-6, 60e-6, 30)
    rng = np.random.default_rng(3)
    y = 0.8 * np.exp(-((25e3 * t) ** 0.9)) + rng.normal(0, 0.02, 30)
    fit = fit_stretched_exp(t, y, 0.02)
    assert 0.5 < fit.parameters["p"] < 3.0


def test_stretched_exp_rejects_nonpositive_times():
    with pytest.raises(FitError):
        fit_stretched_exp(np.array([0.0, 1e-6, 2e-6, 3e-6, 4e-6]), np.ones(5))


def test_stretched_exp_needs_two_points_to_start():
    # the log-log start fits a line through the points between 1e-3 and 1
    # of the peak: none (an all-zero curve) or one is not enough
    t = np.linspace(2e-6, 120e-6, 40)
    one_point = np.zeros(40)
    one_point[0] = 0.5
    for y in (np.zeros(40), one_point):
        with pytest.raises(FitError, match="at least 2 points"):
            fit_stretched_exp(t, y, 0.05)


# ---------------------------------------------------------------------------
# Jacobian consistency (analytic vs central differences)


def test_jacobians_match_finite_differences():
    nu = precession_rate(1, 10e-6)
    curve = _sine_curve(0.8, nu, 0.3, 0.1, 0.05, seed=11)
    fit = fit_sinusoid(curve)
    b, y, sig = curve.b_gauss, curve.signal, curve.sigma

    def resid_sin(x):
        return (x[0] * np.sin(x[1] * b + x[2]) + x[3] - y) / sig

    def jac_sin(x):
        arg = x[1] * b + x[2]
        out = np.empty((len(b), 4))
        out[:, 0] = np.sin(arg) / sig
        out[:, 1] = x[0] * b * np.cos(arg) / sig
        out[:, 2] = x[0] * np.cos(arg) / sig
        out[:, 3] = 1.0 / sig
        return out

    x_opt = np.array([fit.parameters[k] for k in ("amplitude", "rate_rad_per_gauss", "phase_rad", "offset")])
    assert check_jacobian(resid_sin, jac_sin, x_opt) < 1e-5

    t = np.linspace(2e-6, 100e-6, 50)
    y2 = 0.9 * np.exp(-((22e3 * t) ** 1.6))

    def resid_st(x):
        return x[0] * np.exp(-((x[1] * t) ** x[2])) - y2

    def jac_st(x):
        w = (x[1] * t) ** x[2]
        core = np.exp(-w)
        out = np.empty((len(t), 3))
        out[:, 0] = core
        out[:, 1] = -x[0] * core * x[2] * w / x[1]
        out[:, 2] = -x[0] * core * w * np.log(x[1] * t)
        return out

    assert check_jacobian(resid_st, jac_st, np.array([0.9, 22e3, 1.6])) < 1e-5


# ---------------------------------------------------------------------------
# sensitivity accounting


def test_min_field_examples():
    nu = precession_rate(1, 10e-6)
    base = min_field(0.9, nu, 0.05)
    assert base == pytest.approx(0.05 / (0.9 * 2 * np.pi * 2.8e6 * (2 / np.pi) * 1e-5), rel=1e-12)
    assert base == pytest.approx(4.96e-4, rel=0.01)
    assert min_field(1.8, nu, 0.05) == pytest.approx(base / 2)
    assert min_field(0.9, precession_rate(2, 10e-6), 0.05) == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        min_field(0.0, nu, 0.05)


def test_gain_bound_saturation():
    env = DecoherenceEnvelope(0.9, 25e3, 1.6)
    assert gain_performance(10e-6, env, env, NuclearFactor(1.0, 1)) == pytest.approx(2.0)


def test_gain_crossing_and_unpolarized_bound():
    taus = np.linspace(1e-6, 80e-6, 4000)
    g1 = np.array([gain_performance(t, ENV_NV, ENV_TWO, NuclearFactor(1.0, 1)) for t in taus])
    crossing = unity_crossing(taus, g1)
    assert abs(crossing - 25e-6) < 3e-6
    g0 = np.array([gain_performance(t, ENV_NV, ENV_TWO, NuclearFactor(0.0, 1)) for t in taus])
    assert np.all(g0 < 1.0)
    assert np.all(g1 <= 2.0 + 1e-12)


def test_gain_performance_array_matches_scalar_calls():
    taus = np.linspace(1e-6, 150e-6, 1500)
    for env_nv, env_two in ((ENV_NV, ENV_TWO), (DecoherenceEnvelope(0.9, 40e3, 2.7), ENV_TWO)):
        for q in (0.0, 1.0):
            factor = NuclearFactor(q, 1)
            g = gain_performance(taus, env_nv, env_two, factor)
            ref = np.array([gain_performance(t, env_nv, env_two, factor) for t in taus])
            assert g.shape == taus.shape
            # array ** and scalar ** round differently; the gap scales with
            # the exponents, which pass 100 here
            w = (env_nv.gamma2_hz * taus) ** env_nv.p + (env_two.gamma2_hz * taus) ** env_two.p
            assert np.all(np.abs(g - ref) <= 4 * np.finfo(float).eps * np.abs(ref) * (1 + w))
    assert isinstance(gain_performance(19e-6, ENV_NV, ENV_TWO, NuclearFactor(1.0, 1)), float)


def test_gain_performance_array_names_first_underflowing_tau():
    env_nv = DecoherenceEnvelope(0.96, 1e6, 1.6)  # exp(-(gamma tau)^p) underflows past ~63 us
    taus = np.geomspace(1e-6, 1e-3, 50)
    first = next(t for t in taus if env_nv.amplitude(t) == 0.0)
    assert first > taus[0]
    with pytest.raises(InfeasibleError, match=f"at tau = {first:.3g} s"):
        gain_performance(taus, env_nv, ENV_TWO, NuclearFactor(1.0, 1))
    with pytest.raises(InfeasibleError, match=f"at tau = {first:.3g} s"):
        gain_performance(first, env_nv, ENV_TWO, NuclearFactor(1.0, 1))


def test_overhead_factor_array_matches_scalar_calls():
    taus = np.linspace(1e-6, 100e-6, 200)
    h = overhead_factor(TimingBudget(taus, repetitions=1))
    assert np.array_equal(h, [overhead_factor(TimingBudget(t, repetitions=1)) for t in taus])
    m = np.arange(12)
    hm = overhead_factor(TimingBudget(19e-6, repetitions=m))
    assert np.array_equal(hm, [overhead_factor(TimingBudget(19e-6, repetitions=k)) for k in m])
    grid = overhead_factor(TimingBudget(taus, repetitions=m[:, None]))
    assert grid.shape == (12, 200)
    assert np.array_equal(grid[5], [overhead_factor(TimingBudget(t, repetitions=5)) for t in taus])
    assert isinstance(overhead_factor(TimingBudget(19e-6)), float)


def test_timing_budget_rejects_negative_array_element():
    taus = np.linspace(1e-6, 60e-6, 10)
    TimingBudget(taus, repetitions=np.arange(5)[:, None])
    with pytest.raises(ValueError, match="times must be >= 0"):
        TimingBudget(np.where(taus > 30e-6, -1e-6, taus))
    with pytest.raises(ValueError, match="repetition count must be >= 0"):
        TimingBudget(taus, repetitions=np.array([3, 1, -1, 2]))


def test_overhead_factor_values():
    assert overhead_factor(TimingBudget(19e-6, repetitions=1)) == pytest.approx(0.735, abs=1e-3)
    assert overhead_factor(TimingBudget(1.0, tau_phi_s=0.0, tau_nv_s=0.0)) == pytest.approx(1.0)
    # tau -> infinity limit
    assert overhead_factor(TimingBudget(10.0, repetitions=1)) > 0.999


def test_overhead_monotonicity():
    taus = np.linspace(1e-6, 100e-6, 200)
    h = [overhead_factor(TimingBudget(t, repetitions=1)) for t in taus]
    assert np.all(np.diff(h) > 0)
    hm = [overhead_factor(TimingBudget(19e-6, repetitions=m)) for m in range(1, 12)]
    assert np.all(np.diff(hm) < 0)


def test_gain_sensitivity_ideal_reduces_to_2h():
    env = DecoherenceEnvelope(1.0, 0.0, 1.0)
    budget = TimingBudget(19e-6)
    report = gain_sensitivity(19e-6, env, env, NuclearFactor(1.0, 1), budget, [1.0], m=0)
    h = overhead_factor(TimingBudget(19e-6, repetitions=0))
    assert report.g_tilde == pytest.approx(2 * h, rel=1e-12)
    assert report.snr_gain == pytest.approx(1.0)


def test_snr_bound_check_detects_violation():
    good = gain_sensitivity(
        19e-6, ENV_NV, ENV_TWO, NuclearFactor(0.0, 1), TimingBudget(19e-6), [1.0, 0.5], 1
    )
    ok, issues = snr_bound_check(good)
    assert ok and not issues
    bad = SensitivityReport(
        delta_b_gauss=1e-4,
        eta_gauss_rthz=1e-6,
        g=2.5,
        h=0.7,
        g_tilde=1.75,
        snr_gain=1.0,
        repetitions=0,
        assumptions={"n_spins": 2},
    )
    ok, issues = snr_bound_check(bad)
    assert not ok and issues


def test_gain_sensitivity_unimodal_in_m_geometric_ladder():
    r = geometric_ratio_for_gain(1.91, 9)
    ladder = r ** np.arange(31)
    budget = TimingBudget(19e-6)
    gt = [
        gain_sensitivity(19e-6, ENV_NV, ENV_TWO, NuclearFactor(0.0, 1), budget, ladder, m).g_tilde
        for m in range(31)
    ]
    signs = np.sign(np.diff(gt))
    # at most one sign change from + to - (single interior maximum)
    changes = np.sum((signs[:-1] > 0) & (signs[1:] < 0))
    assert changes <= 1


# ---------------------------------------------------------------------------
# sweep


def test_sweep_monotone_in_coupling_and_ratio():
    d_axis = np.linspace(40e3, 120e3, 9)
    ratio_axis = np.linspace(0.2, 1.2, 9)
    for use_rr in (False, True):
        grid = sweep_gain_map(d_axis, ratio_axis, use_repetitive_readout=use_rr, tau_points=200)
        assert np.all(np.diff(grid.values, axis=1) >= -1e-10)  # increasing d
        assert np.all(np.diff(grid.values, axis=0) <= 1e-10)  # increasing ratio hurts


def test_sweep_limit_region():
    # ratio -> 0 and large d: g~ approaches 2 * alpha0 ratio (h -> 1)
    grid = sweep_gain_map(
        np.array([1e6, 2e6]), np.array([1e-4, 2e-4]), use_repetitive_readout=False, tau_points=400
    )
    bound = 2 * 0.78 / 0.96
    assert grid.values.max() <= bound + 1e-9
    assert grid.values.max() > 0.98 * bound


def test_sweep_experimental_cell_flips_with_rr():
    d_axis = np.linspace(30e3, 150e3, 25)
    ratio_axis = np.linspace(0.1, 1.4, 25)
    norr = sweep_gain_map(d_axis, ratio_axis, use_repetitive_readout=False, tau_points=300)
    rr = sweep_gain_map(d_axis, ratio_axis, use_repetitive_readout=True, tau_points=300)
    assert norr.cell(58e3, 15 / 22) < 1.0
    assert rr.cell(58e3, 15 / 22) > 1.0


def _per_cell_sweep(d_axis, ratio_axis, use_rr, m_max, alpha0_nv=0.96, alpha0_two=0.78,
                    gamma2_nv_hz=22.0e3, p=1.6, tau_nv_s=5.7e-6, tau_phi_exp_s=21.0e-6,
                    d_exp_hz=58.0e3, tau_rr_s=6.1e-6, tau_points=600):
    """Reference: the sweep evaluated one (ratio, coupling) cell at a time."""
    ladder = geometric_ratio_for_gain(1.91, 9) ** np.arange(m_max + 1)
    tau_grid = np.geomspace(1e-6, 5.0 / gamma2_nv_hz, tau_points)
    values = np.empty((len(ratio_axis), len(d_axis)))
    for i, ratio in enumerate(ratio_axis):
        for j, d_hz in enumerate(d_axis):
            gamma2_two = gamma2_nv_hz * (1.0 + ratio)
            amp_ratio = (alpha0_two / alpha0_nv) * np.exp(
                (gamma2_nv_hz * tau_grid) ** p - (gamma2_two * tau_grid) ** p
            )
            g = 2.0 * amp_ratio
            tau_phi = tau_phi_exp_s * (d_exp_hz / d_hz)
            useful = tau_grid + tau_nv_s
            if not use_rr:
                h = np.sqrt(useful / (useful + tau_phi))
                values[i, j] = float(np.max(g * h))
                continue
            m = np.arange(len(ladder))
            extra = np.maximum(m - 1, 0)[:, None] * tau_rr_s
            h = np.sqrt(useful[None, :] / (useful[None, :] + tau_phi + extra))
            snr = np.sqrt(np.cumsum(ladder**2) / ladder[0] ** 2)
            values[i, j] = float(np.max(snr[:, None] * g[None, :] * h))
    return values


# (ratio axis, sweep keywords): grids where the sweep's bound-and-recompute
# max could pick the wrong cells
SWEEP_REFERENCE_CASES = {
    "default": (np.linspace(0.1, 1.4, 5), {}),
    # ratio 0: g flat in tau, so near-ties between tau cells decide the max
    "ratio from 0": (np.linspace(0.0, 1.4, 5), {}),
    # every gain beyond ratio ~0 underflows to exactly 0
    "all-zero gain rows": (np.linspace(0.0, 100.0, 9), {"gamma2_nv_hz": 1e9}),
    # rows whose largest gain is subnormal, around ratio 60
    "subnormal rows": (np.linspace(0.0, 100.0, 40), {"gamma2_nv_hz": 1e6}),
    "stretch 0.5": (np.linspace(0.0, 100.0, 9), {"gamma2_nv_hz": 1e6, "p": 0.5}),
    "exponential decay": (np.linspace(0.1, 1.4, 5), {"gamma2_nv_hz": 5e3, "p": 1.0}),
    # every gain subnormal, so rounding is no longer relative
    "subnormal gains": (np.linspace(0.1, 1.4, 5), {"alpha0_two": 1e-321}),
}


@pytest.mark.parametrize("use_rr", [False, True])
@pytest.mark.parametrize("m_max", [0, 1, 30])
def test_sweep_matches_per_cell_reference(use_rr, m_max):
    d_axis = np.linspace(30e3, 150e3, 7)
    for name, (ratio_axis, kwargs) in SWEEP_REFERENCE_CASES.items():
        grid = sweep_gain_map(d_axis, ratio_axis, use_repetitive_readout=use_rr, m_max=m_max, **kwargs)
        assert grid.values.shape == (len(ratio_axis), 7), name
        expected = _per_cell_sweep(d_axis, ratio_axis, use_rr, m_max, **kwargs)
        assert np.array_equal(grid.values, expected), name


def _sweep_peak_bytes(ratio_axis, **kwargs):
    d_axis = np.linspace(30e3, 150e3, 40)
    tracemalloc.start()
    try:
        sweep_gain_map(d_axis, ratio_axis, use_repetitive_readout=True, m_max=30, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sweep_peak_memory_stays_small():
    # the sweep builds one (m, tau) and a few (ratio, tau) arrays per
    # coupling; a (ratio, m, tau) or (coupling, m, tau) stack at this size
    # would trace 6-12 MB
    assert _sweep_peak_bytes(np.linspace(0.1, 1.4, 40)) < 2 * 2**20


def test_degenerate_sweep_peak_memory_stays_small():
    # most gains underflow to 0 here; taking their cells as candidates for
    # the exact product would trace ~11 MB
    assert _sweep_peak_bytes(np.linspace(0.0, 100.0, 40), gamma2_nv_hz=1e9) < 2 * 2**20


def test_required_amplitude_scale_reported():
    scale = required_amplitude_ratio_scale(
        ENV_NV, ENV_TWO, NuclearFactor(1.0, 1), TimingBudget(19e-6)
    )
    assert scale > 1.0  # current amplitudes fall short of unit gain
    assert scale - 1.0 == pytest.approx(0.046, abs=0.01)


# ---------------------------------------------------------------------------
# exports


def test_write_curve_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_curve_csv(str(path), {"x[s]": [1.0, 2.0], "y[1]": [0.5, 0.25]})
    text = path.read_text()
    assert text.splitlines()[0] == "x[s],y[1]"
    assert len(text.splitlines()) == 3
    with pytest.raises(ValueError):
        write_curve_csv(str(path), {"x[s]": [1.0], "y[1]": [1.0, 2.0]})
