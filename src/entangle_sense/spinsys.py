"""Labeled multi-spin-1/2 Hilbert spaces: operators and density states.

Systems are tensor products of up to three spin-1/2 subsystems labeled
``NV`` (the optically addressed sensor qubit), ``Xe`` (the ancilla
electronic spin), and ``Xn`` (the ancilla nuclear spin, rarely
instantiated).  Single-spin operators follow the S = sigma/2 convention.
The module also holds what every layer shares: the error types and the
Brent root finder that the calibrations use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

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


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by Brent's method, step for step as SciPy's brentq.

    A line-by-line port of SciPy's C loop (``Zeros/brentq.c``) with its
    relative tolerance 4·eps and 100 iterations, so roots are bit-identical
    to SciPy's.  Raises ValueError when f(a) and f(b) have the same sign or
    f returns NaN, and RuntimeError when 100 iterations do not converge.
    """
    rtol = 4.0 * sys.float_info.epsilon

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError("Failed to converge after 100 iterations.")


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


@lru_cache(maxsize=None)
def single_spin_operator(lay: SpinLayout, label: str, symbol: str) -> Operator:
    """``symbol`` on subsystem ``label``, identity on the others; built once per triple.

    Every call with the same arguments returns the same Operator, whose
    matrix is read-only, so a write through an alias raises.
    """
    spec = {lbl: "I" for lbl in lay.subsystems}
    spec[label] = symbol
    return build_operator(lay, spec)


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
