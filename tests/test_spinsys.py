import json
import math
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_sense import dynamics, protocols, readout, spinsys
from entangle_sense.config import resolve
from entangle_sense.spinsys import (
    GAMMA_E,
    P0_NV,
    SX,
    SY,
    SZ,
    SZ_SZ,
    TWO_SPIN_LAYOUT,
    DensityState,
    InfeasibleError,
    LayoutError,
    StateError,
    bell_coherence,
    brentq,
    hybrd,
    layout,
    polarized_state,
    pure_state,
    validate_density_matrix,
)

PAIR = layout("NV", "Xe")


def test_layout_labels_and_dim():
    # the (NV, Xe) pair is the only layout, and its states are 4x4
    assert PAIR == TWO_SPIN_LAYOUT and PAIR.subsystems == ("NV", "Xe")
    assert pure_state(PAIR, np.ones(4)).matrix.shape == (4, 4)
    for labels in ((), ("NV",), ("Xe", "NV"), ("NV", "NV"), ("NV", "Xe", "Xn"), ("NV", "bogus")):
        with pytest.raises(LayoutError):
            layout(*labels)
    for size in (1, 2, 8):
        with pytest.raises(StateError, match="shape"):
            pure_state(PAIR, np.ones(size))


def test_gamma_e_positive():
    assert GAMMA_E == pytest.approx(2 * np.pi * 2.8e6)


def test_pair_operators_are_read_only_kron_products():
    i2 = np.eye(2)
    sx = np.array([[0.0, 0.5], [0.5, 0.0]])
    sy = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    sz = np.diag([0.5, -0.5])
    expected = [
        (SX["NV"], np.kron(sx, i2)), (SX["Xe"], np.kron(i2, sx)),
        (SY["NV"], np.kron(sy, i2)), (SY["Xe"], np.kron(i2, sy)),
        (SZ["NV"], np.kron(sz, i2)), (SZ["Xe"], np.kron(i2, sz)),
        (P0_NV, np.kron(np.diag([1.0, 0.0]), i2)), (SZ_SZ, np.kron(sz, sz)),
    ]
    for op, reference in expected:
        assert op.shape == (4, 4) and op.dtype == complex
        assert np.array_equal(op, reference)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 7.0
    assert set(SX) == set(SY) == set(SZ) == {"NV", "Xe"}


def test_build_operator_single_sz():
    # Sz on the NV, with the Xe spin traced out, is the one-spin diag(1/2, -1/2)
    nv_block = np.einsum("ajbj->ab", SZ["NV"].reshape(2, 2, 2, 2)) / 2.0
    assert np.allclose(nv_block, np.diag([0.5, -0.5]))
    assert polarized_state(PAIR, {"NV": 1.0, "Xe": 1.0}).expectation(SZ["NV"]) == pytest.approx(0.5)


def test_build_operator_tensor_identity():
    assert np.allclose(SZ["NV"], np.diag([0.5, 0.5, -0.5, -0.5]))
    assert np.allclose(SZ["Xe"], np.diag([0.5, -0.5, 0.5, -0.5]))


def test_build_operator_zz_eigenvalues():
    assert np.allclose(np.diag(SZ_SZ), [0.25, -0.25, -0.25, 0.25])
    assert np.allclose(np.linalg.eigvalsh(SZ_SZ), [-0.25, -0.25, 0.25, 0.25])


def test_single_spin_operator_is_built_once_and_read_only(monkeypatch):
    # the modules that apply the per-spin operators share the read-only
    # constants, and a drive is assembled without building any operator
    assert dynamics.SX is SX and dynamics.SY is SY and dynamics.SZ is SZ
    assert protocols.SZ is SZ and protocols.P0_NV is P0_NV
    for op in (*SX.values(), *SY.values(), *SZ.values(), P0_NV):
        assert not op.flags.writeable
    monkeypatch.setattr(spinsys, "pair_operator", None)  # a rebuild would raise
    monkeypatch.setattr(dynamics, "pair_operator", None, raising=False)
    drive = dynamics.DriveTerm(rabi=2.0e5, phase=0.7)
    h = dynamics.HamiltonianSpec(layout=PAIR, drives={"Xe": drive}, coupling_hz=0.0).assemble()
    sx = np.kron(np.eye(2), np.array([[0.0, 0.5], [0.5, 0.0]]))
    sy = np.kron(np.eye(2), np.array([[0.0, -0.5j], [0.5j, 0.0]]))
    assert np.allclose(h, 2.0e5 * (np.cos(0.7) * sx + np.sin(0.7) * sy), rtol=0.0, atol=1e-9)


def test_zz_operator_is_built_once_and_read_only(monkeypatch):
    # SZ_SZ is the one coupling operator: assemble reads it and builds none
    assert dynamics.SZ_SZ is SZ_SZ and not SZ_SZ.flags.writeable
    monkeypatch.setattr(spinsys, "pair_operator", None)  # a rebuild would raise
    monkeypatch.setattr(dynamics, "pair_operator", None, raising=False)
    h = dynamics.HamiltonianSpec(layout=PAIR, coupling_hz=58.0e3).assemble()
    assert np.array_equal(h, 2.0 * np.pi * (2.0 * 58.0e3) * np.kron(np.diag([0.5, -0.5]), np.diag([0.5, -0.5])))


def test_commutator_algebra():
    # [Sx, Sy] = i Sz on each spin of the pair
    for label in ("NV", "Xe"):
        sx, sy, sz = SX[label], SY[label], SZ[label]
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12


def _solve(solver, f, a, b, xtol):
    """The root, or the type and message of the error, that ``solver`` gives."""
    try:
        return solver(f, a, b, xtol=xtol)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _random_bracketed_function(rng):
    """A seeded function and bracket: smooth, flat, stepped or zero at an end.

    One bracket in ten misses the root, so its ends have the same sign.
    """
    a, b = sorted(rng.uniform(-3.0, 3.0, size=2) * 10.0 ** rng.integers(-6, 1))
    r = rng.uniform(a, b) if rng.random() < 0.9 else b + rng.uniform(0.01, 1.0) * (b - a)
    k = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, 1.0) / (b - a)
    p, q = rng.normal(size=2)
    kind = rng.integers(7)
    if kind == 0:  # one real root: the quadratic factor has none
        return (lambda x: (x - r) * ((x + p) ** 2 + q**2 + 0.01)), a, b
    if kind == 1:
        return (lambda x: math.expm1(k * (x - r))), a, b
    if kind == 2:
        return (lambda x: math.tanh(k * (x - r))), a, b
    if kind == 3:  # one root in the bracket: half a period is wider than it
        return (lambda x: math.sin(min(abs(k), 3.0 / (b - a)) * (x - r))), a, b
    if kind == 4:
        return (lambda x: 1.0 if x > r else -1.0), a, b
    if kind == 5:
        power = int(rng.choice([3, 5, 9]))
        return (lambda x: k * (x - r) ** power), a, b
    end, power = (a if rng.random() < 0.5 else b), int(rng.integers(1, 3))
    return (lambda x: k * (x - end) ** power), a, b


def test_brentq_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(2024)
    outcomes = {"root": 0, "zero end": 0, ValueError: 0, RuntimeError: 0}
    for _ in range(11500):
        f, a, b = _random_bracketed_function(rng)
        xtol = float(rng.choice([1e-12, 2e-12, 1e-6]))
        ours = _solve(brentq, f, a, b, xtol)
        assert ours == _solve(scipy.optimize.brentq, f, a, b, xtol), (a, b, xtol)
        if isinstance(ours, tuple):
            outcomes[ours[0]] += 1
        else:
            outcomes["zero end" if ours in (a, b) and f(ours) == 0.0 else "root"] += 1
    assert outcomes["root"] + outcomes["zero end"] >= 10000, outcomes
    assert min(outcomes.values()) > 100, outcomes
    # the bisection half-width equals delta at the first step; a coarse xtol
    # makes the 3|sbis| - delta bound reject an interpolated step
    edges = [(lambda x: x - 0.45, 0.0, 1.0, 1.0), (lambda x: math.expm1(-3.0 * (x - 1.2)), 1.0, 1.7, 0.2)]
    for f, a, b, xtol in edges:
        assert _solve(brentq, f, a, b, xtol) == _solve(scipy.optimize.brentq, f, a, b, xtol)
    # a step at 1e-200 needs ~700 bisections to reach an xtol of 5e-324
    step = lambda x: 1.0 if x > 1e-200 else -1.0
    nan_inside = lambda x: math.nan if 0.2 < x < 0.9 else x - 0.5
    for f, xtol, error in ((step, 5e-324, RuntimeError), (step, 1e-300, RuntimeError), (nan_inside, 1e-12, ValueError)):
        ours = _solve(brentq, f, -1.0, 1.0, xtol)
        assert ours[0] is error and ours == _solve(scipy.optimize.brentq, f, -1.0, 1.0, xtol)


def _calibrations(monkeypatch, solver):
    """calibrate_gate_error and geometric_ratio_for_gain over their CLI ranges with ``solver``."""
    monkeypatch.setattr(protocols, "brentq", solver)
    monkeypatch.setattr(readout, "brentq", solver)
    protocols.calibrate_gate_error.cache_clear()  # each solver calibrates afresh
    out = []
    for pump in (0.6, 0.8, 0.95):
        for target in np.linspace(0.05, 0.95, 73):
            try:
                out.append(protocols.calibrate_gate_error(target, pump, 58e3, 132e-6, 0.14).epsilon)
            except InfeasibleError as exc:
                out.append(str(exc))
    for m in range(1, 40):
        for target in np.linspace(1.0, math.sqrt(m + 1.0), 27)[1:-1]:
            out.append(readout.geometric_ratio_for_gain(float(target), m))
    return out


def test_calibrations_match_scipy_brentq(monkeypatch):
    ours = _calibrations(monkeypatch, brentq)
    assert ours == _calibrations(monkeypatch, scipy.optimize.brentq)
    assert sum(isinstance(v, float) for v in ours) > 1050


def _fig2d_ladder_inputs(override):
    """calibrate_ladder's (amplitude sum, SNR gain, m) for a fig2d config override."""
    cfg = resolve(scenario="fig2d", config_text=json.dumps(override))
    return cfg["readout.amplitude_sum"], cfg["readout.snr_at_m"], int(cfg["readout.m_max"])


def test_hybrd_matches_scipy_fsolve(monkeypatch):
    """calibrate_ladder's equations: fsolve's x, f(x) and info, bit for bit.

    Each solve runs both solvers on the same equations, so the draws
    that do not converge (info 4 and 5) are compared too.
    """
    infos = Counter()

    def both(f, x0):
        ours = hybrd(f, x0)
        x, out, ier, _ = scipy.optimize.fsolve(f, np.array(x0), full_output=True)
        assert ours == (x.tolist(), out["fvec"].tolist(), ier), x0
        infos[ier] += 1
        return ours

    monkeypatch.setattr(readout, "hybrd", both)
    assert readout.calibrate_ladder(*_fig2d_ladder_inputs({})) == (4.065652529320893, 4.2909773652096)
    # test_cli's fig2d configs that exit 3: an all-ones ladder and a unit SNR gain
    for override in ({"readout": {"amplitude_sum": 10}}, {"readout": {"snr_at_m": 1.0}}):
        with pytest.raises(InfeasibleError):
            readout.calibrate_ladder(*_fig2d_ladder_inputs(override))
    rng = np.random.default_rng(1811)
    with np.errstate(over="ignore"):  # steep trial ladders overflow (k/k0)**s to inf
        for _ in range(800):
            m = int(rng.integers(1, 41))
            amplitude_sum = m + 1.0 - m * rng.uniform()  # in (1, m + 1]
            snr = rng.uniform(1.0, 1.1 * math.sqrt(m + 1.0))
            try:
                readout.calibrate_ladder(amplitude_sum, snr, m)
            except InfeasibleError:
                pass
    # 1 to 4 equations, scaled up to 1e±30 to reach enorm's small and large
    # sums; every tenth start is x = 0, where the Jacobian step is sqrt(eps)
    with np.errstate(all="ignore"):
        for trial in range(300):
            n = int(rng.integers(1, 5))
            a, b = rng.normal(size=(n, n)), rng.normal(size=n)
            scale = 10.0 ** rng.choice([-30, -5, 0, 5, 30], size=n)
            power = 1 if trial % 2 else 3
            x0 = rng.normal(size=n) * 10.0 ** rng.choice([-20, 0, 3]) if trial % 10 else np.zeros(n)
            both(lambda x: (a @ x**power + np.sin(x) - b) * scale, x0.tolist())
    assert infos[1] > 200 and infos[4] > 100 and infos[5] > 500, infos


def test_polarized_state_examples():
    # the Xe spin in |0>: the NV's single-spin state times |0><0|
    xe0 = np.diag([1.0, 0.0])
    for p, nv in ((1.0, np.diag([1.0, 0.0])), (0.0, np.eye(2) / 2), (0.76, np.diag([0.88, 0.12]))):
        assert np.allclose(polarized_state(PAIR, {"NV": p, "Xe": 1.0}).matrix, np.kron(nv, xe0))
    for bad in ({"NV": 1.2, "Xe": 1.0}, {"NV": 0.0, "Xe": -1.5}):
        with pytest.raises(ValueError):
            polarized_state(PAIR, bad)


def test_exchange_blocks_and_dressed_kets_are_spinsys_constants():
    assert dynamics.EXCHANGE_BLOCKS is spinsys.EXCHANGE_BLOCKS is protocols.EXCHANGE_BLOCKS
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    for ket, eigenvalue in ((spinsys.PLUS, 1.0), (spinsys.MINUS, -1.0)):
        assert not ket.flags.writeable
        assert np.allclose(sigma_x @ ket, eigenvalue * ket) and np.linalg.norm(ket) == pytest.approx(1.0)


def test_bell_coherence_phi_minus():
    psi = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2.0)
    rho = pure_state(PAIR, psi)
    assert bell_coherence(rho) == pytest.approx(0.5j)


def test_bell_coherence_mixed_zero():
    rho = polarized_state(PAIR, {"NV": 0.0, "Xe": 0.0})
    assert bell_coherence(rho) == 0.0


def test_bell_coherence_rejects_other_layouts():
    # a state of another layout is refused when its layout is built, and a
    # matrix of another size never becomes a state to read
    psi = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2.0)
    for labels, vec in (
        (("Xe", "NV"), psi),
        (("NV",), np.array([1.0, 0.0])),
        (("NV", "Xe", "Xn"), np.kron(psi, np.array([1.0, 0.0]))),
    ):
        with pytest.raises(LayoutError):
            bell_coherence(pure_state(layout(*labels), vec))
    with pytest.raises(StateError, match="shape"):
        bell_coherence(DensityState(np.eye(2) / 2.0))


def test_density_state_invariants_enforced():
    not_hermitian = np.eye(4) / 4
    not_hermitian[0, 1] = 1.0
    with pytest.raises(StateError, match="trace"):
        DensityState(np.diag([0.7, 0.7, 0.0, 0.0]))
    with pytest.raises(StateError, match="Hermiticity"):
        DensityState(not_hermitian)
    with pytest.raises(StateError, match="minimum eigenvalue"):
        DensityState(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(StateError, match="shape"):
        DensityState(np.diag([0.5, 0.5]))


@settings(max_examples=30, deadline=None)
@given(
    p1=st.floats(min_value=-1.0, max_value=1.0),
    p2=st.floats(min_value=-1.0, max_value=1.0),
)
def test_polarized_states_are_valid(p1, p2):
    rho = polarized_state(PAIR, {"NV": p1, "Xe": p2})
    validate_density_matrix(rho.matrix)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def _random_states(n, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    rho = a @ np.swapaxes(a.conj(), -1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[:, None, None]


def test_validate_stack_flags_one_bad_matrix():
    good = _random_states(50)
    validate_density_matrix(good)
    validate_density_matrix(good.reshape(5, 10, 4, 4))
    not_hermitian = good[37].copy()
    not_hermitian[0, 1] += 1e-6
    bad_matrices = {  # keyed by the invariant the error message names
        "trace": 1.01 * good[37],
        "Hermiticity": not_hermitian,
        "minimum eigenvalue": np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex),
    }
    for invariant, bad in bad_matrices.items():
        stack = good.copy()
        stack[37] = bad
        with pytest.raises(StateError, match=invariant):
            validate_density_matrix(stack)
        with pytest.raises(StateError):
            DensityState(stack.reshape(5, 10, 4, 4))


def test_non_finite_state_is_refused():
    # a NaN fails no comparison, so the trace, Hermiticity and positivity
    # checks would pass it; an all-NaN matrix would reach eigvalsh
    with pytest.raises(StateError, match="non-finite"):
        DensityState(np.diag([0.25, 0.25, 0.25, np.nan]))
    with pytest.raises(StateError, match="non-finite"):
        DensityState(np.full((4, 4), np.nan))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        stack = _random_states(50)
        stack[37, 1, 2] = bad
        with pytest.raises(StateError, match="non-finite"):
            validate_density_matrix(stack)
        with pytest.raises(StateError, match="non-finite"):
            DensityState(stack.reshape(5, 10, 4, 4))


def test_stacked_state_reads_per_element():
    mats = _random_states(6, seed=1)
    stack = DensityState(mats)
    for op in (SZ["NV"], SX["Xe"], P0_NV, SZ_SZ):
        reference = [complex(np.trace(op @ m)).real for m in mats]
        values = stack.expectation(op)
        assert values.shape == (6,)
        assert np.array_equal(values, reference)
        single = DensityState(mats[2]).expectation(op)
        assert type(single) is float and single == reference[2]
    assert np.array_equal(bell_coherence(stack), mats[:, 0, 3])
    single = bell_coherence(DensityState(mats[2]))
    assert type(single) is complex and single == mats[2, 0, 3]
    with pytest.raises(StateError, match="shape"):
        DensityState(mats[..., :2, :2])
