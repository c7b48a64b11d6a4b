import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_sense.spinsys import (
    GAMMA_E,
    DensityState,
    LayoutError,
    StateError,
    bell_coherence,
    build_operator,
    layout,
    polarized_state,
    pure_state,
    validate_density_matrix,
)


def test_layout_labels_and_dim():
    lay = layout("NV", "Xe")
    assert lay.dim == 4
    assert lay.subsystems == ("NV", "Xe")
    with pytest.raises(LayoutError):
        layout("NV", "NV")
    with pytest.raises(LayoutError):
        layout("NV", "bogus")


def test_gamma_e_positive():
    assert GAMMA_E == pytest.approx(2 * np.pi * 2.8e6)


def test_build_operator_single_sz():
    op = build_operator(layout("NV"), {"NV": "Sz"})
    assert np.allclose(op.matrix, np.diag([0.5, -0.5]))


def test_build_operator_tensor_identity():
    op = build_operator(layout("NV", "Xe"), {"NV": "Sz", "Xe": "I"})
    assert np.allclose(op.matrix, np.diag([0.5, 0.5, -0.5, -0.5]))


def test_build_operator_zz_eigenvalues():
    op = build_operator(layout("NV", "Xe"), {"NV": "Sz", "Xe": "Sz"})
    assert np.allclose(np.diag(op.matrix), [0.25, -0.25, -0.25, 0.25])


def test_commutator_algebra():
    # [Sx, Sy] = i Sz on each subsystem of a two-spin layout
    lay = layout("NV", "Xe")
    for label in lay.subsystems:
        spec = {lbl: "I" for lbl in lay.subsystems}
        sx = build_operator(lay, {**spec, label: "Sx"}).matrix
        sy = build_operator(lay, {**spec, label: "Sy"}).matrix
        sz = build_operator(lay, {**spec, label: "Sz"}).matrix
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12


def test_polarized_state_examples():
    lay = layout("NV")
    assert np.allclose(polarized_state(lay, {"NV": 1.0}).matrix, np.diag([1.0, 0.0]))
    assert np.allclose(polarized_state(lay, {"NV": 0.0}).matrix, np.eye(2) / 2)
    assert np.allclose(polarized_state(lay, {"NV": 0.76}).matrix, np.diag([0.88, 0.12]))
    with pytest.raises(ValueError):
        polarized_state(lay, {"NV": 1.2})


def test_bell_coherence_phi_minus():
    psi = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2.0)
    rho = pure_state(layout("NV", "Xe"), psi)
    assert bell_coherence(rho) == pytest.approx(0.5j)


def test_bell_coherence_mixed_zero():
    rho = polarized_state(layout("NV", "Xe"), {"NV": 0.0, "Xe": 0.0})
    assert bell_coherence(rho) == 0.0


def test_bell_coherence_rejects_other_layouts():
    psi = np.array([1.0, 0.0, 0.0, -1.0j]) / np.sqrt(2.0)
    for lay, vec in (
        (layout("Xe", "NV"), psi),
        (layout("NV"), np.array([1.0, 0.0])),
        (layout("NV", "Xe", "Xn"), np.kron(psi, np.array([1.0, 0.0]))),
    ):
        with pytest.raises(LayoutError):
            bell_coherence(pure_state(lay, vec))


def test_density_state_invariants_enforced():
    lay = layout("NV")
    with pytest.raises(StateError):
        DensityState(lay, np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(StateError):
        DensityState(lay, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(StateError):
        DensityState(lay, np.diag([1.5, -0.5]))  # negative eigenvalue


@settings(max_examples=30, deadline=None)
@given(
    p1=st.floats(min_value=-1.0, max_value=1.0),
    p2=st.floats(min_value=-1.0, max_value=1.0),
)
def test_polarized_states_are_valid(p1, p2):
    rho = polarized_state(layout("NV", "Xe"), {"NV": p1, "Xe": p2})
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
            DensityState(layout("NV", "Xe"), stack.reshape(5, 10, 4, 4))


def test_stacked_state_reads_per_element():
    pair = layout("NV", "Xe")
    mats = _random_states(6, seed=1)
    stack = DensityState(pair, mats)
    ops = [
        build_operator(pair, {"NV": "Sz", "Xe": "I"}),
        build_operator(pair, {"NV": "S+", "Xe": "S+"}),
    ]
    for op in ops:
        reference = [complex(np.trace(op.matrix @ m)) for m in mats]
        if op.hermitian:
            reference = [v.real for v in reference]
        values = stack.expectation(op)
        assert values.shape == (6,)
        assert np.array_equal(values, reference)
        single = DensityState(pair, mats[2]).expectation(op)
        assert type(single) is type(reference[2]) and single == reference[2]
    assert np.array_equal(bell_coherence(stack), mats[:, 0, 3])
    single = bell_coherence(DensityState(pair, mats[2]))
    assert type(single) is complex and single == mats[2, 0, 3]
    with pytest.raises(LayoutError):
        DensityState(pair, mats[..., :2, :2])
