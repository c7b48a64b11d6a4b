import csv
import tracemalloc

import numpy as np
import pytest

from entangle_sense.analysis import (
    FitError,
    MagnetometryCurve,
    TimingBudget,
    _best_repetitions,
    _rewrite,
    check_jacobian,
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
    write_curve_csv,
)
from entangle_sense.config import DEFAULTS
from entangle_sense.dynamics import DecoherenceEnvelope
from entangle_sense.protocols import NuclearFactor
from entangle_sense.readout import geometric_ratio_for_gain, snr_gain
from entangle_sense.scenarios import FIG4B_LADDER
from entangle_sense.spinsys import GAMMA_E, InfeasibleError

ENV_NV = DecoherenceEnvelope(0.96, 22e3, 1.6)
ENV_TWO = DecoherenceEnvelope(0.78, 36e3, 1.6)
TIMES = DEFAULTS["budget"]


def _budget(tau_s, repetitions=1, **times):
    """TimingBudget with the default dead times, any of them overridden."""
    return TimingBudget(tau_s, **{**TIMES, **times}, repetitions=repetitions)


def _sine_curve(alpha, nu, phi, c, sigma, n=60, seed=None, n_spins=1, tau=10e-6):
    b = np.linspace(0.0, 3 * np.pi / nu, n)
    y = alpha * np.sin(nu * b + phi) + c
    if seed is not None:
        y = y + np.random.default_rng(seed).normal(0, sigma, n)
    return MagnetometryCurve(b, y, np.full(n, max(sigma, 1e-9)), tau, n_spins)


# ---------------------------------------------------------------------------
# sinusoid fits


def test_sinusoid_noiseless_recovery():
    nu = 2 * GAMMA_E * (2 / np.pi) * 10e-6
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
    # data with p fixed at 1; the fit leaves p free and must find it
    t = np.linspace(1e-6, 60e-6, 30)
    y = 0.8 * np.exp(-30e3 * t)
    fit = fit_stretched_exp(t, y, 1e-6)
    assert fit.converged
    assert fit.parameters["p"] == pytest.approx(1.0, rel=1e-6)
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


def test_gain_sensitivity_zero_two_spin_amplitude_is_infeasible():
    # a two-spin signal without amplitude has no slope in the field
    for env_two in (DecoherenceEnvelope(0.0, 36e3, 1.6), DecoherenceEnvelope(0.78, 1e8, 1.6)):
        assert env_two.amplitude(19e-6) == 0.0
        for m in (3, np.arange(len(FIG4B_LADDER))):
            with pytest.raises(InfeasibleError, match="zero signal slope; field not resolvable"):
                gain_sensitivity(19e-6, ENV_NV, env_two, NuclearFactor(1.0, 1), _budget(19e-6), FIG4B_LADDER, m)


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


@pytest.mark.parametrize("rising", [False, True])
def test_unity_crossing_interpolates_in_either_direction(rising):
    x = np.array([10.0, 20.0, 30.0, 40.0])
    y = np.array([0.2, 0.6, 1.4, 1.8]) if rising else np.array([1.8, 1.4, 0.6, 0.2])
    assert unity_crossing(x, y, rising=rising) == 25.0
    assert unity_crossing(x, 2.0 - y, rising=not rising) == 25.0


@pytest.mark.parametrize("rising", [False, True])
def test_unity_crossing_is_none_off_the_grid(rising):
    x = np.array([10.0, 20.0, 30.0])
    start_past = np.array([1.0, 1.2, 0.8]) if rising else np.array([0.9, 1.5, 1.2])
    never = np.array([0.2, 0.5, 0.9]) if rising else np.array([1.5, 1.2, 1.0])
    assert unity_crossing(x, start_past, rising=rising) is None
    assert unity_crossing(x, never, rising=rising) is None


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
    h = overhead_factor(_budget(taus, repetitions=1))
    assert np.array_equal(h, [overhead_factor(_budget(t, repetitions=1)) for t in taus])
    m = np.arange(12)
    hm = overhead_factor(_budget(19e-6, repetitions=m))
    assert np.array_equal(hm, [overhead_factor(_budget(19e-6, repetitions=k)) for k in m])
    grid = overhead_factor(_budget(taus, repetitions=m[:, None]))
    assert grid.shape == (12, 200)
    assert np.array_equal(grid[5], [overhead_factor(_budget(t, repetitions=5)) for t in taus])
    assert isinstance(overhead_factor(_budget(19e-6)), float)


def test_timing_budget_rejects_negative_array_element():
    taus = np.linspace(1e-6, 60e-6, 10)
    _budget(taus, repetitions=np.arange(5)[:, None])
    with pytest.raises(ValueError, match="times must be >= 0"):
        _budget(np.where(taus > 30e-6, -1e-6, taus))
    with pytest.raises(ValueError, match="repetition count must be >= 0"):
        _budget(taus, repetitions=np.array([3, 1, -1, 2]))


def test_timing_budget_takes_an_array_tau_phi():
    taus = np.linspace(1e-6, 60e-6, 10)
    tau_phi = np.array([[3e-6], [21e-6], [40e-6]])
    h = overhead_factor(_budget(taus, tau_phi_s=tau_phi))
    assert h.shape == (3, 10)
    for row, t in zip(h, tau_phi[:, 0]):
        assert np.array_equal(row, overhead_factor(_budget(taus, tau_phi_s=float(t))))


@pytest.mark.parametrize("field", ["tau_s", "tau_nv_s", "tau_phi_s", "tau_rr_s"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, np.array([19e-6, np.nan]), np.array([19e-6, np.inf])])
def test_timing_budget_refuses_non_finite_times(field, bad):
    with pytest.raises(ValueError, match="times must be finite"):
        TimingBudget(**{"tau_s": 19e-6, **TIMES, field: bad})


def test_overhead_factor_values():
    assert overhead_factor(_budget(19e-6, repetitions=1)) == pytest.approx(0.735, abs=1e-3)
    assert overhead_factor(_budget(1.0, tau_phi_s=0.0, tau_nv_s=0.0)) == pytest.approx(1.0)
    # tau -> infinity limit
    assert overhead_factor(_budget(10.0, repetitions=1)) > 0.999


def test_overhead_monotonicity():
    taus = np.linspace(1e-6, 100e-6, 200)
    h = [overhead_factor(_budget(t, repetitions=1)) for t in taus]
    assert np.all(np.diff(h) > 0)
    hm = [overhead_factor(_budget(19e-6, repetitions=m)) for m in range(1, 12)]
    assert np.all(np.diff(hm) < 0)


def test_gain_sensitivity_ideal_reduces_to_2h():
    env = DecoherenceEnvelope(1.0, 0.0, 1.0)
    budget = _budget(19e-6)
    report = gain_sensitivity(19e-6, env, env, NuclearFactor(1.0, 1), budget, [1.0], m=0)
    h = overhead_factor(_budget(19e-6, repetitions=0))
    assert report.g_tilde == pytest.approx(2 * h, rel=1e-12)
    assert report.snr_gain == pytest.approx(1.0)


def test_snr_bound_check_detects_violation():
    dec = DEFAULTS["decoherence"]
    env_nv = DecoherenceEnvelope(dec["alpha0_nv"], dec["gamma2_nv_hz"], dec["p"])
    env_two = DecoherenceEnvelope(dec["alpha0_two_spin"], dec["gamma2_two_spin_hz"], dec["p"])
    good = gain_sensitivity(19e-6, env_nv, env_two, NuclearFactor(0.0, 1), _budget(19e-6), FIG4B_LADDER, 1)
    ok, issues = snr_bound_check(good)
    assert ok and not issues
    # a two-spin amplitude above the NV's lifts g past the two-spin bound
    brighter = DecoherenceEnvelope(1.0, dec["gamma2_nv_hz"], dec["p"])
    dimmer = DecoherenceEnvelope(0.4, dec["gamma2_nv_hz"], dec["p"])
    bad = gain_sensitivity(19e-6, dimmer, brighter, NuclearFactor(1.0, 1), _budget(19e-6), FIG4B_LADDER, 1)
    ok, issues = snr_bound_check(bad)
    assert not ok
    assert issues == [
        f"gain in performance {bad.g:.4f} exceeds the n-spin bound 2",
        f"repetitive-readout gain {bad.g * bad.snr_gain:.4f} exceeds n*SNR(m) = {2 * bad.snr_gain:.4f}",
    ]


def test_gain_sensitivity_unimodal_in_m_geometric_ladder():
    r = geometric_ratio_for_gain(1.91, 9)
    ladder = r ** np.arange(31)
    budget = _budget(19e-6)
    gt = [
        gain_sensitivity(19e-6, ENV_NV, ENV_TWO, NuclearFactor(0.0, 1), budget, ladder, m).g_tilde
        for m in range(31)
    ]
    signs = np.sign(np.diff(gt))
    # at most one sign change from + to - (single interior maximum)
    changes = np.sum((signs[:-1] > 0) & (signs[1:] < 0))
    assert changes <= 1


def test_gain_sensitivity_array_m_matches_scalar_calls():
    geometric = geometric_ratio_for_gain(1.91, 9) ** np.arange(31)
    for ladder, q_values in ((FIG4B_LADDER, (0.0, 1.0)), (geometric, (0.0,))):
        m = np.arange(len(ladder))
        for q in q_values:
            args = (19e-6, ENV_NV, ENV_TWO, NuclearFactor(q, 1), _budget(19e-6), ladder)
            report = gain_sensitivity(*args, m)
            scalar = [gain_sensitivity(*args, int(k)) for k in m]
            assert isinstance(scalar[0].g_tilde, float) and isinstance(scalar[0].h, float)
            assert report.g == scalar[0].g
            for field in ("h", "g_tilde", "snr_gain"):
                assert np.array_equal(getattr(report, field), [getattr(r, field) for r in scalar]), field
    with pytest.raises(ValueError, match="outside the ladder range"):
        gain_sensitivity(*args, np.array([0, len(ladder)]))


# ---------------------------------------------------------------------------
# sweep

# the fig4c inputs at the default config
SWEEP_INPUTS = {
    "alpha0_nv": DEFAULTS["decoherence"]["alpha0_nv"],
    "alpha0_two_spin": DEFAULTS["decoherence"]["alpha0_two_spin"],
    "gamma2_nv_hz": DEFAULTS["decoherence"]["gamma2_nv_hz"],
    "p": DEFAULTS["decoherence"]["p"],
    "tau_nv_s": TIMES["tau_nv_s"],
    "tau_phi_at_d_exp_s": TIMES["tau_phi_s"],
    "d_exp_hz": DEFAULTS["coupling"]["d_hz"],
    "tau_rr_s": TIMES["tau_rr_s"],
}
LADDER_RATIO = geometric_ratio_for_gain(DEFAULTS["readout"]["snr_at_m"], DEFAULTS["readout"]["m_max"])


def _ladder(m_max):
    return LADDER_RATIO ** np.arange(m_max + 1)


def _sweep(d_axis, ratio_axis, m_max=DEFAULTS["sweep"]["m_max"], **overrides):
    """The (one readout, repetitive readout) maps, each (ratio, coupling)."""
    return sweep_gain_map(d_axis, ratio_axis, _ladder(m_max), **{**SWEEP_INPUTS, **overrides}).values


def _random_ladder(rng, m_max):
    """Non-geometric ladder; about 30 % of the entries after a_0 are 0 (equal SNR steps)."""
    ladder = rng.uniform(0.0, 1.0, m_max + 1) * (rng.uniform(size=m_max + 1) < 0.7)
    ladder[0] = rng.uniform(0.1, 1.0)
    return ladder


@pytest.mark.filterwarnings("error")  # equal slopes must not divide by zero
def test_best_repetitions_matches_a_brute_force_argmax():
    eps = np.finfo(float).eps
    for seed in range(120):
        rng = np.random.default_rng(seed)
        m_max = [0, 1, 30, int(rng.integers(2, 200))][seed % 4]
        snr = snr_gain(_random_ladder(rng, m_max))
        tau_rr = 0.0 if seed % 5 == 0 else 10 ** rng.uniform(-8, -4)  # 0: every intercept 0
        extra = np.maximum(np.arange(m_max + 1) - 1, 0) * tau_rr
        # shot times around every pairwise crossing of the lines, where the best m changes
        i, k = np.triu_indices(m_max + 1, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (extra[k] * snr[i] ** 2 - extra[i] * snr[k] ** 2) / (snr[k] ** 2 - snr[i] ** 2)
        cross = cross[np.isfinite(cross) & (cross > 0)]
        base = np.concatenate([10 ** rng.uniform(-7, -2, 200), cross, np.nextafter(cross, 0), np.nextafter(cross, 1)])
        value = snr[:, None] / np.sqrt(base + extra[:, None])
        best = _best_repetitions(snr, tau_rr, base)
        assert best.shape == base.shape
        assert np.all(value[best, np.arange(len(base))] >= (1.0 - 8 * eps) * value.max(axis=0)), seed


def test_sweep_monotone_in_coupling_and_ratio():
    d_axis = np.linspace(40e3, 120e3, 9)
    ratio_axis = np.linspace(0.2, 1.2, 9)
    for values in _sweep(d_axis, ratio_axis):
        assert np.all(np.diff(values, axis=1) >= -1e-10)  # increasing d
        assert np.all(np.diff(values, axis=0) <= 1e-10)  # increasing ratio hurts


def test_sweep_limit_region():
    # ratio -> 0 and large d: g~ approaches 2 * alpha0 ratio (h -> 1)
    single = _sweep(np.array([1e6, 2e6]), np.array([1e-4, 2e-4]))[0]
    bound = 2 * 0.78 / 0.96
    assert single.max() <= bound + 1e-9
    assert single.max() > 0.98 * bound


def test_sweep_experimental_cell_flips_with_rr():
    d_axis = np.linspace(30e3, 150e3, 25)
    ratio_axis = np.linspace(0.1, 1.4, 25)
    i = int(np.argmin(np.abs(ratio_axis - 15 / 22)))
    j = int(np.argmin(np.abs(d_axis - 58e3)))
    single, repeated = _sweep(d_axis, ratio_axis)
    assert single[i, j] < 1.0
    assert repeated[i, j] > 1.0


def _fig4c_crossing_d(d_axis, row):
    """fig4c's former private d crossing, kept as the reference."""
    above = np.nonzero(row >= 1.0)[0]
    if len(above) == 0 or above[0] == 0:
        return float(d_axis[0]) if len(above) else None
    k = above[0]
    x0, x1, y0, y1 = d_axis[k - 1], d_axis[k], row[k - 1], row[k]
    return float(x0 + (1.0 - y0) * (x1 - x0) / (y1 - y0))


def test_rising_unity_crossing_matches_the_former_fig4c_crossing():
    interior = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        d_axis = np.linspace(rng.uniform(5e3, 40e3), rng.uniform(80e3, 300e3), int(rng.integers(5, 40)))
        ratio_axis = np.linspace(rng.uniform(0.05, 0.5), rng.uniform(0.6, 1.6), 6)
        for values in _sweep(d_axis, ratio_axis):
            for row in values:
                old, new = _fig4c_crossing_d(d_axis, row), unity_crossing(d_axis, row, rising=True)
                if row[0] >= 1.0:  # the old rule wrote the grid's first d
                    assert old == d_axis[0] and new is None
                else:
                    assert new == old
                    interior += new is not None
    assert interior >= 20


def _per_cell_sweep(d_axis, ratio_axis, use_rr, ladder, alpha0_nv, alpha0_two_spin, gamma2_nv_hz,
                    p, tau_nv_s, tau_phi_at_d_exp_s, d_exp_hz, tau_rr_s):
    """Reference: the sweep evaluated one (ratio, coupling) cell at a time."""
    tau_grid = np.geomspace(1e-6, 5.0 / gamma2_nv_hz, 600)
    values = np.empty((len(ratio_axis), len(d_axis)))
    for i, ratio in enumerate(ratio_axis):
        for j, d_hz in enumerate(d_axis):
            gamma2_two = gamma2_nv_hz * (1.0 + ratio)
            amp_ratio = (alpha0_two_spin / alpha0_nv) * np.exp(
                (gamma2_nv_hz * tau_grid) ** p - (gamma2_two * tau_grid) ** p
            )
            g = 2.0 * amp_ratio
            tau_phi = tau_phi_at_d_exp_s * (d_exp_hz / d_hz)
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


# (ratio axis, sweep input overrides): grids where the sweep's
# bound-and-recompute max could pick the wrong cells
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
    "subnormal gains": (np.linspace(0.1, 1.4, 5), {"alpha0_two_spin": 1e-321}),
    # no repetition dead time: every envelope line passes through 0
    "no repetition dead time": (np.linspace(0.1, 1.4, 5), {"tau_rr_s": 0.0}),
}


@pytest.mark.parametrize("use_rr", [False, True])
@pytest.mark.parametrize("m_max", [0, 1, 30, 1000])
def test_sweep_matches_per_cell_reference(use_rr, m_max):
    d_axis = np.linspace(30e3, 150e3, 7)
    ladders = {"geometric": _ladder(m_max)}  # the fig4c ladder
    cases = SWEEP_REFERENCE_CASES
    if m_max < 1000:  # and seeded ladders with equal SNR steps
        ladders.update((f"seed {k}", _random_ladder(np.random.default_rng(k), m_max)) for k in (0, 1))
    else:  # the reference is slow over 1001 repetition counts: only the grids with no tiny gains
        cases = {name: SWEEP_REFERENCE_CASES[name] for name in ("default", "ratio from 0", "no repetition dead time")}
    for name, (ratio_axis, overrides) in cases.items():
        inputs = {**SWEEP_INPUTS, **overrides}
        for kind, ladder in ladders.items():
            values = sweep_gain_map(d_axis, ratio_axis, ladder, **inputs).values
            assert values.shape == (2, len(ratio_axis), 7), name
            expected = _per_cell_sweep(d_axis, ratio_axis, use_rr, ladder, **inputs)
            assert np.array_equal(values[int(use_rr)], expected), (name, kind)


def _sweep_peak_bytes(ratio_axis, **overrides):
    d_axis = np.linspace(30e3, 150e3, 40)
    tracemalloc.start()
    try:
        _sweep(d_axis, ratio_axis, 30, **overrides)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sweep_peak_memory_stays_small():
    # the sweep builds a few (coupling, tau) and (ratio, tau) arrays and
    # one (m, candidate cell) array; a (ratio, m, tau) or (coupling, m, tau)
    # stack at this size would trace 6-12 MB
    assert _sweep_peak_bytes(np.linspace(0.1, 1.4, 40)) < 2 * 2**20


def test_degenerate_sweep_peak_memory_stays_small():
    # most gains underflow to 0 here; taking their cells as candidates for
    # the exact product would trace ~11 MB
    assert _sweep_peak_bytes(np.linspace(0.0, 100.0, 40), gamma2_nv_hz=1e9) < 2 * 2**20


def test_required_amplitude_scale_reported():
    scale = required_amplitude_ratio_scale(ENV_NV, ENV_TWO, NuclearFactor(1.0, 1), _budget(19e-6))
    assert scale > 1.0  # current amplitudes fall short of unit gain
    assert scale - 1.0 == pytest.approx(0.046, abs=0.01)


# ---------------------------------------------------------------------------
# exports


def _reference_csv(path, columns):
    # the per-cell writer that write_curve_csv replaced: its bytes are the format
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for row in zip(*arrays):
            writer.writerow([f"{v:.12g}" for v in row])


def test_write_curve_csv(tmp_path):
    path = tmp_path / "c.csv"
    write_curve_csv(str(path), {"x[s]": [1.0, 2.0], "y[1]": [0.5, 0.25]})
    assert path.read_text() == "x[s],y[1]\n1,0.5\n2,0.25\n"
    with pytest.raises(ValueError):
        write_curve_csv(str(path), {"x[s]": [1.0], "y[1]": [1.0, 2.0]})
    # byte-identical to the per-cell writer on random tables with special values
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, 1e-320])
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    for case in range(60):
        n_rows = 0 if case == 0 else int(rng.integers(1, 200))
        columns = {}
        for k in range(int(rng.integers(1, 7))):
            values = rng.choice([-1.0, 1.0], n_rows) * 10.0 ** rng.uniform(-320, 300, n_rows)
            pick = rng.random(n_rows) < 0.3
            values[pick] = rng.choice(special, int(pick.sum()))
            columns[f"c{k}[1]"] = values.tolist() if k % 2 else values
        write_curve_csv(str(ours), columns)
        _reference_csv(str(reference), columns)
        assert ours.read_bytes() == reference.read_bytes(), case
    # names are quoted exactly as csv.writer quotes them
    columns = {'a,b[s]': special, 'say "hi"[1]': special[::-1], "plain": special}
    write_curve_csv(str(ours), columns)
    _reference_csv(str(reference), columns)
    assert ours.read_bytes() == reference.read_bytes()
    assert ours.read_text().splitlines()[0] == '"a,b[s]","say ""hi""[1]",plain'


def test_rewrite_creates_a_missing_file(tmp_path):
    path = tmp_path / "new.json"
    _rewrite(path, "{}\n")
    assert path.read_bytes() == b"{}\n"


@pytest.mark.parametrize("old", ["x" * 5000, "ab"], ids=["old_longer", "old_shorter"])
def test_rewrite_replaces_every_old_byte(old, tmp_path):
    path = tmp_path / "out.csv"
    path.write_text(old)
    _rewrite(str(path), "new,text\n1,2\n")
    assert path.read_bytes() == b"new,text\n1,2\n"


def test_rewrite_writes_through_a_symlink(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_text("previous contents, longer than the new ones")
    link.symlink_to(target)
    _rewrite(link, "new")
    assert link.is_symlink() and target.read_text() == "new"
