"""Labeled multi-spin-1/2 Hilbert spaces: operators and density states.

Systems are tensor products of up to three spin-1/2 subsystems labeled
``NV`` (the optically addressed sensor qubit), ``Xe`` (the ancilla
electronic spin), and ``Xn`` (the ancilla nuclear spin, rarely
instantiated).  Single-spin operators follow the S = sigma/2 convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

KNOWN_LABELS = ("NV", "Xe", "Xn")

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-9
OPERATOR_HERMITICITY_TOL = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SINGLE_SPIN_SYMBOLS: dict[str, np.ndarray] = {
    "I": np.eye(2, dtype=complex),
    "Sx": _SIGMA_X / 2.0,
    "Sy": _SIGMA_Y / 2.0,
    "Sz": _SIGMA_Z / 2.0,
    "S+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "S-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "P0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "P1": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
}


class LayoutError(ValueError):
    """Raised for invalid subsystem layouts or layout mismatches."""


class StateError(ValueError):
    """Raised when a density matrix violates its invariants."""


class InfeasibleError(ValueError):
    """Raised when valid inputs admit no solution.

    A calibration target out of reach, a decay that underflows, a signal
    without slope.  ``config_keys`` names the config
    parameters behind the inputs, once a scenario has attached them.
    """

    config_keys: tuple[str, ...] = ()


@dataclass(frozen=True)
class SpinLayout:
    """Ordered collection of distinct spin-1/2 subsystem labels."""

    subsystems: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.subsystems:
            raise LayoutError("layout needs at least one subsystem")
        if len(set(self.subsystems)) != len(self.subsystems):
            raise LayoutError(f"duplicate labels in layout: {self.subsystems}")
        for label in self.subsystems:
            if label not in KNOWN_LABELS:
                raise LayoutError(f"unknown label {label!r}; expected one of {KNOWN_LABELS}")

    @property
    def dim(self) -> int:
        return 2 ** len(self.subsystems)

    def index(self, label: str) -> int:
        try:
            return self.subsystems.index(label)
        except ValueError:
            raise LayoutError(f"label {label!r} not in layout {self.subsystems}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.subsystems


def layout(*labels: str) -> SpinLayout:
    """Convenience constructor: ``layout("NV", "Xe")``."""
    return SpinLayout(tuple(labels))


# electronic gyromagnetic ratio, angular frequency per Gauss
GAMMA_E = 2.0 * np.pi * 2.8e6


@dataclass(frozen=True)
class Operator:
    """A matrix tied to a layout, optionally flagged Hermitian."""

    layout: SpinLayout
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"matrix shape {mat.shape} does not match layout dim {self.layout.dim}"
            )
        if self.hermitian:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > OPERATOR_HERMITICITY_TOL:
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class DensityState:
    """Unit-trace Hermitian positive matrix over a spin layout.

    The matrix may also be a (..., d, d) stack of such matrices, one
    state per element, validated together in one call.
    """

    layout: SpinLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape[-2:] != (self.layout.dim, self.layout.dim):
            raise LayoutError(
                f"matrix shape {mat.shape} does not match layout dim {self.layout.dim}"
            )
        validate_density_matrix(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def expectation(self, op: Operator) -> float | complex | np.ndarray:
        """Tr(op rho): a float for a Hermitian op, else complex; an array for a stack."""
        if op.layout != self.layout:
            raise LayoutError("operator layout does not match state layout")
        val = np.trace(op.matrix @ self.matrix, axis1=-2, axis2=-1)
        if val.ndim == 0:
            val = complex(val)
        return val.real if op.hermitian else val


def validate_density_matrix(mat: np.ndarray) -> None:
    """Check trace, Hermiticity, and positivity; raise StateError on violation.

    mat is one (d, d) matrix or a (..., d, d) stack; each invariant is
    checked for the whole stack at once (one eigvalsh call), and the
    error reports the worst matrix.
    """
    tr = np.trace(mat, axis1=-2, axis2=-1)
    tr_dev = np.abs(tr - 1.0)
    if np.max(tr_dev, initial=0.0) > TRACE_TOL:
        worst = complex(np.ravel(tr)[np.argmax(tr_dev)])
        raise StateError(f"trace {worst} deviates from 1 beyond {TRACE_TOL}")
    adjoint = np.swapaxes(mat.conj(), -1, -2)
    herm_dev = np.max(np.abs(mat - adjoint), initial=0.0)
    if herm_dev > HERMITICITY_TOL:
        raise StateError(f"Hermiticity deviation {herm_dev:.3e} beyond {HERMITICITY_TOL}")
    min_eig = float(np.linalg.eigvalsh((mat + adjoint) / 2.0).min(initial=np.inf))
    if min_eig < -POSITIVITY_TOL:
        raise StateError(f"minimum eigenvalue {min_eig:.3e} below -{POSITIVITY_TOL}")


def build_operator(lay: SpinLayout, spec: Mapping[str, str]) -> Operator:
    """Tensor product of single-spin symbols, one per subsystem, in layout order."""
    missing = [s for s in lay.subsystems if s not in spec]
    extra = [s for s in spec if s not in lay.subsystems]
    if missing or extra:
        raise LayoutError(f"spec must name every subsystem exactly once (missing={missing}, extra={extra})")
    mat = np.array([[1.0 + 0.0j]])
    hermitian = True
    for label in lay.subsystems:
        symbol = spec[label]
        if symbol not in SINGLE_SPIN_SYMBOLS:
            raise LayoutError(f"unknown single-spin symbol {symbol!r}")
        if symbol in ("S+", "S-"):
            hermitian = False
        mat = np.kron(mat, SINGLE_SPIN_SYMBOLS[symbol])
    return Operator(layout=lay, matrix=mat, hermitian=hermitian)


def single_spin_populations(p: float) -> np.ndarray:
    return np.diag([(1.0 + p) / 2.0, (1.0 - p) / 2.0]).astype(complex)


def polarized_state(lay: SpinLayout, polarizations: Mapping[str, float]) -> DensityState:
    """Product state of diagonal single-spin states with the given polarizations."""
    mat = np.array([[1.0 + 0.0j]])
    for label in lay.subsystems:
        if label not in polarizations:
            raise LayoutError(f"polarization missing for subsystem {label!r}")
        p = float(polarizations[label])
        if not -1.0 <= p <= 1.0:
            raise ValueError(f"polarization {p} for {label!r} out of [-1, 1]")
        mat = np.kron(mat, single_spin_populations(p))
    return DensityState(layout=lay, matrix=mat)


def pure_state(lay: SpinLayout, amplitudes: np.ndarray) -> DensityState:
    """Density state from a (normalized) state vector."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if vec.shape[0] != lay.dim:
        raise LayoutError("state vector length does not match layout dim")
    vec = vec / np.linalg.norm(vec)
    return DensityState(layout=lay, matrix=np.outer(vec, vec.conj()))


def bell_coherence(state: DensityState) -> complex | np.ndarray:
    """The <00|rho|11> matrix element of an (NV, Xe) state, per element of a stack.

    Its magnitude quantifies the usable two-spin coherence in the
    Bell-state block.
    """
    if state.layout.subsystems != ("NV", "Xe"):
        raise LayoutError(f"bell_coherence needs the (NV, Xe) pair, got {state.layout.subsystems}")
    coherence = state.matrix[..., 0, 3]
    return coherence if coherence.ndim else complex(coherence)
