"""Curve fitting, sensitivity metrics, and the gain parameter sweep.

The fitter is a damped least-squares engine on the normal equations
(Levenberg-Marquardt with lambda-scaled diagonal augmentation and a
Nielsen gain-ratio update).  Sinusoid and stretched-exponential models
supply analytic Jacobians; the stretched exponent p is kept in (0.5, 3)
by a sigmoid reparameterization and the rate by a log transform.

Sensitivity accounting follows the slope estimator: the minimum
detectable field is the signal noise divided by |amplitude * rate|, so
with state-independent noise the two-spin gain reduces to an
amplitude-slope ratio, bounded by 2.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .dynamics import DecoherenceEnvelope
from .protocols import NuclearFactor
from .readout import snr_gain
from .spinsys import GAMMA_E, InfeasibleError

F_HAT_ECHO = 2.0 / np.pi


class FitError(RuntimeError):
    """Raised when a fit cannot be set up (not for mere non-convergence)."""


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class MagnetometryCurve:
    """Signal vs field amplitude for an n-spin phase estimator."""

    b_gauss: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    tau_s: float
    n_spins: int

    def __post_init__(self) -> None:
        b = np.asarray(self.b_gauss, dtype=float)
        s = np.asarray(self.signal, dtype=float)
        e = np.asarray(self.sigma, dtype=float)
        if not (len(b) == len(s) == len(e)):
            raise ValueError("field, signal, and sigma grids must have equal length")
        if np.any(e <= 0):
            raise ValueError("per-point sigma must be positive")
        object.__setattr__(self, "b_gauss", b)
        object.__setattr__(self, "signal", s)
        object.__setattr__(self, "sigma", e)


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    covariance: np.ndarray
    residual_norm: float
    n_iter: int
    converged: bool
    message: str = ""

    def stderr(self, name: str) -> float:
        idx = list(self.parameters).index(name)
        return float(np.sqrt(max(self.covariance[idx, idx], 0.0)))


@dataclass(frozen=True)
class TimingBudget:
    """Per-shot dead times around one sensing window of duration tau.

    tau_s, tau_phi_s and repetitions may be arrays; shot_time then
    broadcasts them.
    """

    tau_s: float | np.ndarray
    tau_nv_s: float
    tau_phi_s: float | np.ndarray
    tau_rr_s: float
    repetitions: int | np.ndarray = 1

    def __post_init__(self) -> None:
        for t in (self.tau_s, self.tau_nv_s, self.tau_phi_s, self.tau_rr_s):
            if not np.isfinite(t).all():
                raise ValueError("times must be finite")
            if np.any(np.less(t, 0)):
                raise ValueError("times must be >= 0")
        if np.min(self.repetitions) < 0:
            raise ValueError("repetition count must be >= 0")

    @property
    def shot_time(self) -> float | np.ndarray:
        extra = np.maximum(self.repetitions - 1, 0) * self.tau_rr_s
        return self.tau_s + self.tau_nv_s + self.tau_phi_s + extra


@dataclass(frozen=True)
class SensitivityReport:
    """Two-spin gain g, overhead h, their product with the SNR gain, per repetition count."""

    g: float
    h: float | np.ndarray
    g_tilde: float | np.ndarray
    snr_gain: float | np.ndarray


@dataclass(frozen=True)
class SweepGrid:
    """Max gain-in-sensitivity maps over coupling and decoherence ratio."""

    d_axis_hz: np.ndarray
    ratio_axis: np.ndarray
    values: np.ndarray  # shape (..., len(ratio_axis), len(d_axis))

    def __post_init__(self) -> None:
        d = np.asarray(self.d_axis_hz, dtype=float)
        r = np.asarray(self.ratio_axis, dtype=float)
        if np.any(np.diff(d) <= 0) or np.any(np.diff(r) <= 0):
            raise ValueError("sweep axes must be strictly increasing")
        if self.values.shape[-2:] != (len(r), len(d)):
            raise ValueError("value grid shape must end in (ratios, couplings)")
        object.__setattr__(self, "d_axis_hz", d)
        object.__setattr__(self, "ratio_axis", r)


# ---------------------------------------------------------------------------
# Damped least-squares engine


def _lm_minimize(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, int, bool, str]:
    """Levenberg-Marquardt with Nielsen's gain-ratio damping update.

    At most 200 iterations; converged when the largest gradient component
    or the step relative to |x| falls below 1e-12.
    Returns (x, covariance, residual_norm, iterations, converged, message).
    The covariance is (J^T J)^-1 at the optimum; residuals are assumed
    already noise-weighted.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = residual(x)
    jac = jacobian(x)
    a = jac.T @ jac
    grad = jac.T @ r
    cost = 0.5 * float(r @ r)
    lam = 1e-3  # dimensionless: damping scales with diag(J^T J)
    nu = 2.0
    converged = False
    message = "max iterations reached"
    it = 0
    for it in range(1, 201):
        if np.max(np.abs(grad)) < 1e-12:
            converged, message = True, "gradient tolerance reached"
            break
        aug = a + lam * np.diag(np.clip(np.diag(a), 1e-300, None))
        try:
            step = np.linalg.solve(aug, -grad)
        except np.linalg.LinAlgError:
            converged, message = False, "rank-deficient normal equations"
            break
        if np.linalg.norm(step) < 1e-12 * (np.linalg.norm(x) + 1e-12):
            converged, message = True, "step tolerance reached"
            break
        x_new = x + step
        r_new = residual(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        predicted = 0.5 * float(step @ (lam * np.diag(a) * step - grad))
        rho = (cost - cost_new) / predicted if predicted > 0 else -1.0
        if rho > 0:
            x, r, cost = x_new, r_new, cost_new
            jac = jacobian(x)
            a = jac.T @ jac
            grad = jac.T @ r
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            lam *= nu
            nu *= 2.0
    try:
        cov = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        cov = np.full_like(a, np.nan)
        converged = False
        message = "singular Jacobian at optimum"
    return x, cov, float(np.sqrt(2.0 * cost)), it, converged, message


def check_jacobian(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> float:
    """Max relative deviation of the analytic Jacobian from central differences."""
    x = np.asarray(x, dtype=float)
    jac = jacobian(x)
    num = np.empty_like(jac)
    for k in range(len(x)):
        hk = 1e-6 * max(abs(x[k]), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[k] += hk
        xm[k] -= hk
        num[:, k] = (residual(xp) - residual(xm)) / (2.0 * hk)
    scale = max(np.max(np.abs(jac)), 1e-12)
    return float(np.max(np.abs(jac - num)) / scale)


# ---------------------------------------------------------------------------
# Model fits


def fit_sinusoid(curve: MagnetometryCurve) -> FitResult:
    """Fit S(b) = alpha * sin(nu * b + phi) + c by damped least squares.

    nu is the phase-per-gauss precession rate; initialization comes from
    the discrete spectrum of the detrended signal.
    """
    b, y, sig = curve.b_gauss, curve.signal, curve.sigma
    if len(b) < 6:
        raise FitError("need at least 6 points for a sinusoid fit")
    detrended = y - np.mean(y)
    # zero-padded discrete spectrum on the (assumed near-uniform) field grid
    db = np.mean(np.diff(b))
    n_pad = 32 * len(b)
    spectrum = np.abs(np.fft.rfft(detrended, n=n_pad))
    freqs = np.fft.rfftfreq(n_pad, db)
    k = int(np.argmax(spectrum[1:])) + 1
    nu0 = 2.0 * np.pi * freqs[k]
    if nu0 * (b[-1] - b[0]) < np.pi:
        raise FitError("data spans less than half a period")

    def projections(nu: float) -> tuple[float, float]:
        cs = float(np.sum(detrended * np.cos(nu * b)))
        sn = float(np.sum(detrended * np.sin(nu * b)))
        return np.arctan2(cs, sn), np.hypot(cs, sn)

    phi0, _ = projections(nu0)
    alpha0 = np.sqrt(2.0) * float(np.std(detrended))
    x0 = np.array([alpha0, nu0, phi0, float(np.mean(y))])

    def residual(x: np.ndarray) -> np.ndarray:
        alpha, nu, phi, c = x
        return (alpha * np.sin(nu * b + phi) + c - y) / sig

    def jacobian(x: np.ndarray) -> np.ndarray:
        alpha, nu, phi, c = x
        arg = nu * b + phi
        jac = np.empty((len(b), 4))
        jac[:, 0] = np.sin(arg) / sig
        jac[:, 1] = alpha * b * np.cos(arg) / sig
        jac[:, 2] = alpha * np.cos(arg) / sig
        jac[:, 3] = 1.0 / sig
        return jac

    x, cov, rnorm, it, ok, msg = _lm_minimize(residual, jacobian, x0)
    alpha, nu, phi, c = x
    if alpha < 0:  # canonical sign convention
        alpha, phi = -alpha, phi + np.pi
    if nu < 0:
        nu, phi = -nu, np.pi - phi
    phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
    if abs(alpha) < 1e-9 * max(np.max(np.abs(y)), 1.0):
        ok, msg = False, "degenerate fit: vanishing amplitude"
    params = {"amplitude": float(alpha), "rate_rad_per_gauss": float(nu), "phase_rad": float(phi), "offset": float(c)}
    return FitResult(params, cov, rnorm, it, ok, msg)


def _p_transform(v: float | np.ndarray) -> float | np.ndarray:
    return 0.5 + 2.5 / (1.0 + np.exp(-v))


def _p_inverse(p: float) -> float:
    if not 0.5 < p < 3.0:
        raise FitError("stretch exponent must start inside (0.5, 3)")
    frac = (p - 0.5) / 2.5
    return float(np.log(frac / (1.0 - frac)))


def fit_stretched_exp(
    times: np.ndarray,
    signals: np.ndarray,
    sigma: np.ndarray | float = 1.0,
) -> FitResult:
    """Fit S(t) = alpha0 * exp(-(gamma2 * t)^p).

    gamma2 is log-transformed and p sigmoid-bounded to (0.5, 3) inside
    the optimizer; reported parameters and covariance are in physical
    units (delta method for the covariance).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(signals, dtype=float)
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), y.shape).copy()
    if len(t) < 5:
        raise FitError("need at least 5 points for a stretched-exponential fit")
    if np.any(t <= 0):
        raise FitError("times must be positive")
    if np.any(sig <= 0):
        raise FitError("sigma must be positive")

    # log-log linearization for the starting point
    a0_init = max(float(np.max(y)) * 1.02, 1e-6)
    mask = (y > 1e-3 * a0_init) & (y < a0_init)
    if np.count_nonzero(mask) < 2:
        raise FitError("need at least 2 points between 1e-3 and 1 of the peak to start the fit")
    z = np.log(-np.log(np.clip(y[mask] / a0_init, 1e-12, 1.0 - 1e-12)))
    slope, intercept = np.polyfit(np.log(t[mask]), z, 1)
    p_init = float(np.clip(slope, 0.55, 2.95))
    g_init = float(np.exp(intercept / p_init))

    def unpack(x: np.ndarray) -> tuple[float, float, float]:
        return x[0], float(np.exp(x[1])), float(_p_transform(x[2]))

    def residual(x: np.ndarray) -> np.ndarray:
        a0, g, p = unpack(x)
        return (a0 * np.exp(-((g * t) ** p)) - y) / sig

    def jacobian(x: np.ndarray) -> np.ndarray:
        a0, g, p = unpack(x)
        w = (g * t) ** p
        core = np.exp(-w)
        jac = np.empty((len(t), 3))
        jac[:, 0] = core / sig
        jac[:, 1] = a0 * core * (-p * w) / sig  # d/du with gamma = e^u
        s_v = 1.0 / (1.0 + np.exp(-x[2]))
        dp_dv = 2.5 * s_v * (1.0 - s_v)
        jac[:, 2] = a0 * core * (-w * np.log(g * t)) * dp_dv / sig
        return jac

    x0 = [a0_init, np.log(g_init), _p_inverse(p_init)]
    # trial steps on a curve the model cannot follow overflow exp or take
    # log(0); the inf/nan they give end as rejected steps or converged=False
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, cov_t, rnorm, it, ok, msg = _lm_minimize(residual, jacobian, np.asarray(x0))
        a0, g, p = unpack(x)
        if abs(a0) < 1e-9:
            ok, msg = False, "degenerate fit: vanishing amplitude"
        # delta-method transform of the covariance to physical parameters
        tmat = np.eye(3)
        tmat[1, 1] = g  # dgamma/du
        s_v = 1.0 / (1.0 + np.exp(-x[2]))
        tmat[2, 2] = 2.5 * s_v * (1.0 - s_v)
        cov = tmat @ cov_t @ tmat.T
    params = {"alpha0": float(a0), "gamma2_hz": float(g), "p": float(p)}
    return FitResult(params, cov, rnorm, it, ok, msg)


# ---------------------------------------------------------------------------
# Sensitivity accounting


def precession_rate(n_spins: int, tau_s: float) -> float:
    """Signal phase per gauss under a Hahn echo: n * gamma_e * f_hat * tau (rad/G)."""
    return n_spins * GAMMA_E * F_HAT_ECHO * tau_s


def gain_performance(
    tau_s: float | np.ndarray,
    envelope_nv: DecoherenceEnvelope,
    envelope_two: DecoherenceEnvelope,
    factor: NuclearFactor,
) -> float | np.ndarray:
    """Fixed-shot-number gain: 2 * amplitude ratio * nuclear factor, <= 2.

    tau_s may be an array; a scalar gives a float.  Array and scalar
    results can differ in the last bits, since numpy's array ** and its
    0-d ** take different paths.
    """
    tau = np.asarray(tau_s, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("sensing time must be positive")
    a_nv = envelope_nv.amplitude(tau)
    zero = np.flatnonzero(a_nv == 0.0)
    if zero.size:
        raise InfeasibleError(f"NV amplitude underflows to 0 at tau = {tau.flat[zero[0]]:.3g} s")
    g = 2.0 * (envelope_two.amplitude(tau) / a_nv) * factor.amplitude_factor
    return g if tau.ndim else float(g)


def overhead_factor(budget: TimingBudget) -> float | np.ndarray:
    """Dead-time penalty h = sqrt(sensing+prep time over full shot time).

    An array budget gives an array of the broadcast shape; a scalar one a float.
    """
    h = np.sqrt((budget.tau_s + budget.tau_nv_s) / budget.shot_time)
    return h if h.ndim else float(h)


def gain_sensitivity(
    tau_s: float,
    envelope_nv: DecoherenceEnvelope,
    envelope_two: DecoherenceEnvelope,
    factor: NuclearFactor,
    budget: TimingBudget,
    ladder: Sequence[float],
    m: int | np.ndarray,
) -> SensitivityReport:
    """Fixed-total-time gain g~ = g * SNR-gain(m) * h(tau, m) with report.

    m may be an array of repetition counts; h, g~ and the SNR gain then
    have its shape.  A scalar m gives floats.  Raises InfeasibleError when
    the two-spin amplitude, and with it the signal slope, is 0.
    """
    ladder = np.asarray(ladder, dtype=float)
    m = np.asarray(m)
    if np.any(m < 0) or np.any(m >= len(ladder)):
        raise ValueError("repetition count outside the ladder range")
    g = gain_performance(tau_s, envelope_nv, envelope_two, factor)
    if envelope_two.amplitude(tau_s) * factor.amplitude_factor == 0:
        raise InfeasibleError("zero signal slope; field not resolvable")
    h = overhead_factor(replace(budget, tau_s=tau_s, repetitions=m))
    snr = snr_gain(ladder)[m]
    return SensitivityReport(g=g, h=h, g_tilde=g * snr * h, snr_gain=snr)


def snr_bound_check(report: SensitivityReport) -> tuple[bool, list[str]]:
    """Verify the two-spin bounds g <= 2 and g * SNR-gain <= 2 * SNR-gain; list any violations."""
    issues: list[str] = []
    if report.g > 2 + 1e-12:
        issues.append(f"gain in performance {report.g:.4f} exceeds the n-spin bound 2")
    g_rr = report.g * report.snr_gain
    if g_rr > 2 * report.snr_gain + 1e-12:
        issues.append(
            f"repetitive-readout gain {g_rr:.4f} exceeds n*SNR(m) = {2 * report.snr_gain:.4f}"
        )
    if not 0.0 < report.h <= 1.0:
        issues.append(f"overhead factor {report.h:.4f} outside (0, 1]")
    return (not issues, issues)


# ---------------------------------------------------------------------------
# Parameter-space sweep


def _best_repetitions(snr: np.ndarray, tau_rr_s: float, base_s: np.ndarray) -> np.ndarray:
    """Repetition count m maximizing snr[m] / sqrt(base_s + max(m - 1, 0) * tau_rr_s).

    Maximizing that is minimizing the line (base_s + e_m) / snr[m]**2 in
    base_s, e_m the repetition dead time, so the best m at every base
    time comes from the lower envelope of the ladder's lines.  The slopes
    1 / snr**2 never increase with m, so one pass builds the envelope; of
    two lines with equal slopes the one with the smaller intercept stays.
    The envelope's breakpoints are rounded, but the two neighbouring lines
    are equal at a breakpoint, so the m returned near one is within a few
    ulp of the best.  base_s may have any shape; m* has its shape.
    """
    slope = 1.0 / snr**2
    icept = np.maximum(np.arange(len(snr)) - 1, 0) * tau_rr_s * slope
    hull: list[int] = []
    cross: list[float] = []  # cross[i]: base time above which hull[i + 1] beats hull[i]
    for m in range(len(snr)):
        if hull and slope[m] == slope[hull[-1]]:
            if icept[m] >= icept[hull[-1]]:
                continue
            hull.pop()
            if cross:
                cross.pop()
        while hull:
            x = (icept[m] - icept[hull[-1]]) / (slope[hull[-1]] - slope[m])
            if not cross or x > cross[-1]:
                cross.append(x)
                break
            hull.pop()
            cross.pop()
        hull.append(m)
    return np.asarray(hull)[np.searchsorted(cross, base_s)]


def sweep_gain_map(
    d_axis_hz: Sequence[float],
    ratio_axis: Sequence[float],
    ladder: Sequence[float],
    alpha0_nv: float,
    alpha0_two_spin: float,
    gamma2_nv_hz: float,
    p: float,
    tau_nv_s: float,
    tau_phi_at_d_exp_s: float,
    d_exp_hz: float,
    tau_rr_s: float,
) -> SweepGrid:
    """Max gain-in-sensitivity per (coupling, ratio) cell, with one readout and with many.

    The two-spin preparation time scales inversely with the coupling; the
    two-spin decoherence rate is additive, Gamma2 = Gamma2_NV * (1 +
    ratio); nuclear polarization q = 1 throughout.  The cell gain is
    g(ratio, tau) * SNR-gain(m) * h(d, tau, m), maximized over 600
    log-spaced tau from 1 us to 5 / Gamma2_NV; ``values[0]`` has one
    readout (m = 0), ``values[1]`` the best m of ``ladder``.  g is computed
    once for all ratios.  Every h comes from ``overhead_factor``, in
    batched calls over (coupling, tau).

    For ``values[1]`` the best m at each (coupling, tau) is found without
    forming h for every m: it maximizes SNR(m) / sqrt(B + e_m), B the
    shot time with one readout and e_m the repetition dead time, which is
    the lower envelope of one line per m (see ``_best_repetitions``).
    Each (ratio, tau) cell is bounded by g * SNR(m*) * h(d, tau, m*).  The
    bound lies within a few ulp of the cell's exact max over m, as all
    factors are >= 0: the envelope's breakpoints are rounded, but the two
    lines that meet at a breakpoint are equal there, so a rounded lookup
    picks an m whose value differs from the best by rounding only.  The
    exact (SNR * g) * h over every m is then formed only at the cells
    within 1e-13 of their row's bound, a window that covers that error,
    so the result is bit-identical to a per-cell max.  Cells with g == 0
    are never taken (they contribute exactly 0, the initial value), and a
    row whose bound is below 2**-1000, where the ulp argument fails, takes
    all its g > 0 cells.

    g is ``gain_performance`` at q = 1 written in the log domain,
    2 * (alpha0_two / alpha0_nv) * exp((gamma2_NV tau)^p - (gamma2_two tau)^p),
    and parametrised by the ratio axis rather than by two envelopes.  It
    does not underflow where the quotient of the two amplitudes does (the
    NV amplitude reaching 0 leaves that quotient undefined), and the
    per-cell reference test pins this exact expression.
    """
    d_axis = np.asarray(d_axis_hz, dtype=float)
    ratios = np.asarray(ratio_axis, dtype=float)
    tau_grid = np.geomspace(1e-6, 5.0 / gamma2_nv_hz, 600)
    gamma2_two = gamma2_nv_hz * (1.0 + ratios)
    g = (alpha0_two_spin / alpha0_nv) * np.exp(
        (gamma2_nv_hz * tau_grid) ** p - (gamma2_two[:, None] * tau_grid) ** p
    )
    g *= 2.0  # (ratio, tau); q = 1: nuclear factor unity
    positive = g > 0
    snr = snr_gain(ladder)
    tau_phi = (tau_phi_at_d_exp_s * (d_exp_hz / d_axis))[:, None]
    single = TimingBudget(tau_grid, tau_nv_s, tau_phi, tau_rr_s)  # (coupling, tau)
    best = _best_repetitions(snr, tau_rr_s, single.shot_time)
    h0 = overhead_factor(single)
    bound = snr[best] * overhead_factor(replace(single, repetitions=best))
    values = np.zeros((2, len(ratios), len(d_axis)))
    cells = []
    for j in range(len(d_axis)):
        values[0, :, j] = (g * h0[j]).max(axis=1)
        approx = g * bound[j]  # (ratio, tau), within a few ulp of the exact max over m
        rowmax = approx.max(axis=1, keepdims=True)
        near = (approx >= (1.0 - 1e-13) * rowmax) | (rowmax < 2.0**-1000)
        cells.append(np.flatnonzero(near & positive))
    del h0, bound, best  # freed before the (m, cell) arrays, which hold the peak
    ii, ts = divmod(np.concatenate(cells), len(tau_grid))
    jj = np.repeat(np.arange(len(d_axis)), [len(c) for c in cells])
    h = overhead_factor(
        TimingBudget(tau_grid[ts], tau_nv_s, tau_phi[jj, 0], tau_rr_s, np.arange(len(snr))[:, None])
    )
    exact = snr[:, None] * g[ii, ts]
    exact *= h
    np.maximum.at(values[1], (ii, jj), exact.max(axis=0))
    return SweepGrid(d_axis_hz=d_axis, ratio_axis=ratios, values=values)


def unity_crossing(x: np.ndarray, y: np.ndarray, rising: bool = False) -> float | None:
    """First x where y crosses 1, by linear interpolation.

    y crosses from above (to y < 1), or from below (to y >= 1) when
    ``rising``.  None when y starts on the far side of 1 or never crosses
    it on this grid: the crossing, if any, lies off the grid.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    past = np.nonzero(y >= 1.0 if rising else y < 1.0)[0]
    if len(past) == 0 or past[0] == 0:
        return None
    k = past[0]
    x0, x1, y0, y1 = x[k - 1], x[k], y[k - 1], y[k]
    return float(x0 + (1.0 - y0) * (x1 - x0) / (y1 - y0))


def required_amplitude_ratio_scale(
    envelope_nv: DecoherenceEnvelope,
    envelope_two: DecoherenceEnvelope,
    factor: NuclearFactor,
    budget: TimingBudget,
) -> float:
    """Scale on the two-spin amplitude needed for max-over-tau g~ = 1 (m = 1).

    Reported rather than asserted: quantifies how much better the
    coherent-amplitude ratio would have to be for a net sensitivity gain
    without repetitive readout.  The max is over 2000 log-spaced tau from
    1 us to 5 / gamma2_NV.
    """
    tau_grid = np.geomspace(1e-6, 5.0 / envelope_nv.gamma2_hz, 2000)
    g = gain_performance(tau_grid, envelope_nv, envelope_two, factor)
    h = overhead_factor(replace(budget, tau_s=tau_grid, repetitions=1))
    peak = float(np.max(g * h))
    if peak <= 0:
        raise InfeasibleError("gain profile is degenerate")
    return 1.0 / peak


# ---------------------------------------------------------------------------
# Export helpers


def _rewrite(path: str | os.PathLike, text: str) -> None:
    """Write text to path over the file's old bytes, then cut it at the end.

    Opening without O_TRUNC and truncating last is several times cheaper
    than open(path, "w") where freeing a file's blocks is slow (ext4 with
    `discard`): a rewrite of equal length frees nothing.  A symlink is
    written through.  An interrupted write can leave the new bytes
    followed by the tail of the previous file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def write_curve_csv(path: str, columns: Mapping[str, Sequence[float]]) -> None:
    """CSV with `name[unit]` headers, '.' decimals, LF endings, %.12g floats.

    `csv.writer` writes the header, so names are quoted as it quotes
    them; the body is one "%.12g,...\n" row format, repeated once per row
    and applied to all values in one operation.  The file is rewritten in
    place (see `_rewrite`).
    """
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if len({len(a) for a in arrays}) != 1:
        raise ValueError("all CSV columns must have equal length")
    row_format = ",".join(["%.12g"] * len(arrays)) + "\n"
    body = (row_format * len(arrays[0])) % tuple(np.column_stack(arrays).ravel().tolist())
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(names)
    _rewrite(path, header.getvalue() + body)
