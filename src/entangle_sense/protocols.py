"""Exchange gates and the named protocol steps built from them.

The steps are polarization transfer, entangling and disentangling, the
phase-modulated disentangling scan, and gate-error calibration.

Gates derived from the cross-polarization sequence are applied as their
dressed-frame effective unitaries expressed in the computational basis:
a rotation by theta = 2*pi*d*t inside one exchange subspace, either the
zero-quantum block {|01>, |10>} (SWAP-like polarization transfer) or the
double-quantum block {|00>, |11>} (entangling exchange).  Which relative
drive phase realizes which block is not hard-coded: it is verified
numerically against full-Hamiltonian propagation at startup, see
:func:`verify_phase_recipes`.

Gate imperfections are modeled as a depolarizing admixture with weight
epsilon_g per gate, plus contrast damping at the driven-decay time T1rho
over the drive duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .spinsys import (
    EXCHANGE_BLOCKS,
    MINUS,
    P0_NV,
    PLUS,
    SZ,
    TWO_SPIN_LAYOUT,
    DensityState,
    InfeasibleError,
    brentq,
    polarized_state,
)
from .dynamics import (
    DriveTerm,
    HamiltonianSpec,
    driven_decay,
    expm_hermitian,
    optical_pump,
)

# matched-drive Rabi frequency over the exchange coupling 2*pi*d: strong
# enough that the dressed frame holds, for the recipe check and fig1f
RABI_OVER_COUPLING = 20.0


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class GateParams:
    """Exchange-gate parameters: coupling, unitary error, driven decay."""

    d_hz: float
    epsilon: float = 0.0
    t1rho_s: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.d_hz) and self.d_hz > 0):
            raise ValueError("coupling d must be finite and positive")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("gate error must be in [0, 1]")
        if self.t1rho_s is not None and not (np.isfinite(self.t1rho_s) and self.t1rho_s > 0):
            raise ValueError("t1rho must be finite and positive")

    @property
    def swap_time(self) -> float:
        return 1.0 / (2.0 * self.d_hz)

    @property
    def entangle_time(self) -> float:
        return 1.0 / (4.0 * self.d_hz)


@dataclass(frozen=True)
class NuclearFactor:
    """Scalar contrast model for the unresolved ancilla nuclear spin."""

    polarization: float = 0.0
    transitions: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.polarization <= 1.0:
            raise ValueError("nuclear polarization must be in [0, 1]")
        if self.transitions not in (1, 2):
            raise ValueError("addressed transitions must be 1 or 2")

    @property
    def amplitude_factor(self) -> float:
        if self.transitions == 2:
            return 1.0
        q = self.polarization
        return q + (1.0 - q) / 2.0


# ---------------------------------------------------------------------------
# Effective gate algebra


def exchange_unitary(theta: float, phase: float | np.ndarray, block: str) -> np.ndarray:
    """Rotation by theta inside one exchange subspace of the (NV, Xe) pair.

    phase may be an array; the result then has shape phase.shape + (4, 4),
    one unitary per phase.
    """
    if block not in EXCHANGE_BLOCKS:
        raise ValueError(f"unknown exchange block {block!r}")
    i, j = EXCHANGE_BLOCKS[block]
    phase = np.asarray(phase)
    u = np.zeros(phase.shape + (4, 4), dtype=complex)
    u[..., range(4), range(4)] = 1.0
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    u[..., i, i] = u[..., j, j] = c
    u[..., i, j] = -1.0j * np.exp(1.0j * phase) * s
    u[..., j, i] = -1.0j * np.exp(-1.0j * phase) * s
    return u


def apply_exchange_gate(
    state: DensityState,
    params: GateParams,
    duration: float,
    block: str,
    phase: float | np.ndarray = 0.0,
) -> DensityState:
    """Exchange rotation + driven-decay damping + depolarizing error.

    An array of phases gives a stack of output states, one per phase.
    The three steps act on matrices; the output is validated once, as one
    DensityState (one stack for an array of phases).
    """
    theta = 2.0 * np.pi * params.d_hz * duration
    u = exchange_unitary(theta, phase, block)
    mat = u @ state.matrix @ np.swapaxes(u.conj(), -1, -2)
    if params.t1rho_s is not None:
        mat = driven_decay(mat, params.t1rho_s, duration, block)
    if params.epsilon != 0.0:
        mixed = np.eye(4, dtype=complex) / 4
        mat = (1.0 - params.epsilon) * mat + params.epsilon * mixed
    return DensityState(mat)


def matched_drive(d_hz: float, omega: float, rel_phase: float) -> HamiltonianSpec:
    """The coupled pair under equal drives omega, Xe's at rel_phase to NV's."""
    return HamiltonianSpec(
        layout=TWO_SPIN_LAYOUT,
        drives={"NV": DriveTerm(rabi=omega), "Xe": DriveTerm(rabi=omega, phase=rel_phase)},
        coupling_hz=d_hz,
    )


@cache
def verify_phase_recipes() -> dict[str, float]:
    """Determine numerically which relative drive phase drives which block.

    Propagates the full two-spin drive+coupling Hamiltonian for relative
    phases 0 and pi and checks, in the dressed basis, which one realizes
    the zero-quantum flip-flop and which the double-quantum exchange.
    Returns {"zq": relative_phase, "dq": relative_phase}.

    The matched drive Omega = RABI_OVER_COUPLING * 2 pi d and 1 / t_swap =
    2 d both scale with d, so H * t_swap, and the answer, do not depend on
    the coupling: the check runs once per process, at d = 1 Hz.
    """
    d_hz = 1.0
    omega = RABI_OVER_COUPLING * 2.0 * np.pi * d_hz
    t_swap = 1.0 / (2.0 * d_hz)
    zq_in, zq_out = np.kron(PLUS, MINUS), np.kron(MINUS, PLUS)
    dq_in, dq_out = np.kron(PLUS, PLUS), np.kron(MINUS, MINUS)
    out: dict[str, float] = {}
    for rel_phase in (0.0, np.pi):
        u = expm_hermitian(matched_drive(d_hz, omega, rel_phase).assemble(), t_swap)
        p_zq = abs(zq_out.conj() @ u @ zq_in) ** 2
        p_dq = abs(dq_out.conj() @ u @ dq_in) ** 2
        if p_zq > 0.95 and p_dq < 0.05:
            out["zq"] = rel_phase
        elif p_dq > 0.95 and p_zq < 0.05:
            out["dq"] = rel_phase
    if set(out) != {"zq", "dq"}:
        raise RuntimeError(f"phase-recipe verification failed: {out}")
    return out


# ---------------------------------------------------------------------------
# Named protocol operations


def x_polarization(state: DensityState) -> float:
    return 2.0 * state.expectation(SZ["Xe"])


def nv_polarization(state: DensityState) -> float:
    return 2.0 * state.expectation(SZ["NV"])


def polarization_transfer(
    n_rounds: int,
    pump_efficiency: float,
    params: GateParams,
    initial_x_polarization: float,
) -> tuple[DensityState, list[float]]:
    """Alternate NV optical pumping with SWAP-type exchange gates.

    The NV starts unpolarized.  Returns the final state and the X
    polarization after each round (index 0 is the initial polarization).
    """
    if n_rounds < 0:
        raise ValueError("round count must be >= 0")
    state = polarized_state(TWO_SPIN_LAYOUT, {"NV": 0.0, "Xe": initial_x_polarization})
    trace = [x_polarization(state)]
    for _ in range(n_rounds):
        state = optical_pump(state, pump_efficiency)
        state = apply_exchange_gate(state, params, params.swap_time, block="zq")
        trace.append(x_polarization(state))
    return state, trace


def prepare_entangled(state: DensityState, params: GateParams) -> DensityState:
    """Half-exchange entangling gate creating Bell-block coherence."""
    return apply_exchange_gate(state, params, params.entangle_time, block="dq")


def disentangle(state: DensityState, params: GateParams, phase: float | np.ndarray = 0.0) -> DensityState:
    """Half-exchange gate converting Bell-block coherence back to populations."""
    return apply_exchange_gate(state, params, params.entangle_time, block="dq", phase=phase)


def modulated_disentangle_scan(
    rho_phi: DensityState,
    f_nv_hz: float,
    f_x_hz: float,
    t_grid: np.ndarray,
    params: GateParams,
) -> np.ndarray:
    """NV population signal vs scan time with phase-ramped disentangling gates.

    The pulse phases of the disentangling gate ramp at f_nv and f_x; on
    the double-quantum block they add, so the signal oscillates at the
    sum frequency.  All scan points go through one stacked gate.
    """
    if f_nv_hz < 0 or f_x_hz < 0:
        raise ValueError("modulation frequencies must be >= 0")
    phase = 2.0 * np.pi * (f_nv_hz + f_x_hz) * np.asarray(t_grid, dtype=float)
    return disentangle(rho_phi, params, phase=phase).expectation(P0_NV)


def dominant_frequency(t_grid: np.ndarray, signal: np.ndarray) -> float:
    """Peak of the discrete spectrum of a uniformly sampled real signal (Hz)."""
    t = np.asarray(t_grid, dtype=float)
    y = np.asarray(signal, dtype=float) - np.mean(signal)
    dt = t[1] - t[0]
    spectrum = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(len(y), dt)
    return float(freqs[np.argmax(spectrum)])


@lru_cache(maxsize=8)  # fig2a and fig2b calibrate on the same inputs; GateParams is frozen
def calibrate_gate_error(
    p1_target: float,
    pump_efficiency: float,
    d_hz: float,
    t1rho_s: float,
    initial_x_polarization: float,
) -> GateParams:
    """Solve for the depolarizing weight reproducing a one-round transfer.

    The (pump efficiency, gate error) pair is not identifiable from a
    single transfer point, so the pump efficiency is pinned and epsilon
    is found by root-bracketing on the simulated one-round X
    polarization.  Raises InfeasibleError when no epsilon in [0, 0.5]
    reaches the target.
    """
    @lru_cache(maxsize=None)  # brentq re-evaluates the two bracket ends
    def residual(eps: float) -> float:
        params = GateParams(d_hz=d_hz, epsilon=eps, t1rho_s=t1rho_s)
        _, trace = polarization_transfer(1, pump_efficiency, params, initial_x_polarization)
        return trace[1] - p1_target

    ends = (residual(0.0), residual(0.5))
    if ends[0] * ends[1] > 0:
        low, high = sorted(r + p1_target for r in ends)
        raise InfeasibleError(
            f"one-round X polarization {p1_target} is outside the range "
            f"[{low:.4g}, {high:.4g}] that gate errors in [0, 0.5] reach"
        )
    eps = brentq(residual, 0.0, 0.5, xtol=1e-12)
    return GateParams(d_hz=d_hz, epsilon=float(eps), t1rho_s=t1rho_s)
