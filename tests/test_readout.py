import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_sense.spinsys import InfeasibleError
from entangle_sense.readout import (
    calibrate_ladder,
    geometric_ratio_for_gain,
    snr_gain,
    stretched_ladder,
)


def test_optimal_beats_unweighted_on_random_ladders():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.uniform(0.05, 1.0, size=8)
        # variance of the optimally combined estimate of the signal x where
        # reading k has mean a_k x and unit noise: 1 / sum a^2, which is
        # the single-readout variance 1 / a_0^2 divided by snr_gain^2
        var_opt = a[0] ** -2 / snr_gain(a)[-1] ** 2
        assert var_opt == pytest.approx(1.0 / np.sum(a**2), rel=1e-12)
        # unweighted average estimator: sum y_k / sum a_k
        var_avg = len(a) / np.sum(a) ** 2
        var_single = np.min(a**-2.0)
        assert var_opt <= var_avg + 1e-15
        assert var_opt <= var_single + 1e-15


def test_cumulative_snr_equal_readouts():
    gains = snr_gain(np.ones(10))
    assert gains[-1] == pytest.approx(np.sqrt(10))
    assert gains[0] == pytest.approx(1.0)


def test_cumulative_snr_m0_is_unity():
    assert snr_gain([0.7])[0] == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20).map(
        lambda xs: [1.0] + xs
    )
)
def test_cumulative_snr_non_decreasing(ladder):
    gains = snr_gain(np.asarray(ladder))
    assert np.all(np.diff(gains) >= -1e-12)


def test_calibrated_ladder_matches_both_working_points():
    k0, s = calibrate_ladder(4.2, 1.91, 9)
    ladder = stretched_ladder(k0, s, 9)
    assert np.sum(ladder) == pytest.approx(4.2, abs=1e-8)
    assert snr_gain(ladder)[-1] == pytest.approx(1.91, abs=1e-8)
    assert np.all(np.diff(ladder) <= 1e-12)  # non-increasing


def test_calibrate_ladder_rejects_impossible_sum():
    with pytest.raises(ValueError):
        calibrate_ladder(0.5, 1.91, 9)


def test_geometric_ratio_for_gain():
    r = geometric_ratio_for_gain(1.91, 9)
    a = r ** np.arange(10)
    assert snr_gain(a)[-1] == pytest.approx(1.91, abs=1e-10)
    # geometric ladder matched to the SNR misses the 4.2 amplitude sum
    assert not np.isclose(np.sum(a), 4.2, atol=0.3)
    # a geometric ladder's gain at readout m lies in (1, sqrt(m + 1))
    for target, m in ((1.0, 9), (np.sqrt(10.0), 9), (1.5, 0)):
        with pytest.raises(InfeasibleError, match=f"SNR gain {target} at m = {m} is outside"):
            geometric_ratio_for_gain(target, m)


def test_geometric_ladder_fit_to_sum_gives_low_snr():
    # fitting the geometric ratio to the 4.2 cumulative amplitude instead
    # yields SNR ~ 1.5, not 1.91 -- the two working points need a
    # non-geometric ladder
    from scipy.optimize import brentq

    r = brentq(lambda x: np.sum(x ** np.arange(10)) - 4.2, 1e-6, 1 - 1e-9)
    assert snr_gain(r ** np.arange(10))[-1] == pytest.approx(1.5, abs=0.1)
