"""Repetitive-readout SNR accounting and amplitude-ladder models.

Repeated readouts of the same stored spin state, with per-readout
amplitudes a_0..a_m, combine to the quadrature-sum SNR gain
sqrt(sum a_k^2) / a_0.  The ladder itself is either a stretched
exponential calibrated to a measured working point or a one-parameter
geometric decay matched to a target gain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .spinsys import InfeasibleError, brentq, hybrd


def snr_gain(amplitudes: Sequence[float]) -> np.ndarray:
    """Cumulative SNR gain over readouts 0..m, normalized to readout 0.

    Every readout has the same noise, so the gain is sqrt(sum a_k^2) / a_0.
    """
    a = np.asarray(amplitudes, dtype=float)
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("amplitude ladder must be a non-empty 1-D sequence")
    if a[0] <= 0:
        raise ValueError("first readout amplitude must be positive")
    terms = a**2
    return np.sqrt(np.cumsum(terms) / terms[0])


def stretched_ladder(k0: float, s: float, m: int) -> np.ndarray:
    """Amplitude ladder a_k = exp(-(k/k0)^s), k = 0..m."""
    k = np.arange(m + 1, dtype=float)
    return np.exp(-((k / k0) ** s))


def calibrate_ladder(
    amplitude_sum: float,
    snr_at_m: float,
    m: int,
) -> tuple[float, float]:
    """Solve (k0, s) of a stretched ladder matching a measured working point.

    Matches sum_k a_k = amplitude_sum and the cumulative SNR gain at the
    last readout simultaneously (2-D root find by `spinsys.hybrd`).
    Raises InfeasibleError when no stretched ladder matches both.
    """
    if amplitude_sum <= 1.0 or amplitude_sum > m + 1:
        raise ValueError("amplitude sum must lie in (1, m + 1]")

    def equations(x: np.ndarray) -> np.ndarray:
        k0, s = x
        if k0 <= 0 or s <= 0:
            return np.array([1e3, 1e3])
        a = stretched_ladder(k0, s, m)
        g = np.sqrt(np.sum(a**2))
        return np.array([np.sum(a) - amplitude_sum, g - snr_at_m])

    with np.errstate(over="ignore"):  # (k/k0)**s overflows at far trial points; exp(-inf) = 0
        sol, fvec, ier = hybrd(equations, [m / 2.0, 2.0])
    residual = np.max(np.abs(fvec))
    if ier != 1 or residual > 1e-9:
        raise InfeasibleError(
            f"no stretched ladder has amplitude sum {amplitude_sum} and SNR gain "
            f"{snr_at_m} at m = {m} (root-find residual {residual:.2e})"
        )
    return sol[0], sol[1]


def geometric_ratio_for_gain(target_gain: float, m: int) -> float:
    """Decay ratio r of a_k = r^k whose cumulative gain at readout m matches.

    Raises InfeasibleError when no r in the bracket [1e-6, 1 - 1e-9]
    reaches the target, which is every target outside (1, sqrt(m + 1)).
    """

    def excess(r: float) -> float:
        a = r ** np.arange(m + 1)
        return float(np.sqrt(np.sum(a**2))) - target_gain

    ends = (excess(1e-6), excess(1.0 - 1e-9))
    if ends[0] * ends[1] > 0:
        low, high = sorted(e + target_gain for e in ends)
        raise InfeasibleError(
            f"SNR gain {target_gain} at m = {m} is outside the range "
            f"[{low:.6g}, {high:.6g}] that geometric ladders reach"
        )
    return brentq(excess, 1e-6, 1.0 - 1e-9, xtol=1e-12)
