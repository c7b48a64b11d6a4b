"""Time evolution: unitary propagation, dissipative channels, decoherence envelopes.

Everything is expressed in the doubly rotating frame of the microwave
carriers (rotating-wave approximation): drive terms are static and the
dipolar coupling enters through its secular ZZ part, so every
Hamiltonian is time-independent.  Field noise enters only in the Monte
Carlo propagator, as a fluctuating common Sz term on the electronic
spins; it models pure dephasing, so it refuses drives and gives each
noise trajectory its evolution in closed form, as one phase per level.

Coupling convention: the exchange rate d (Hz) is defined as the observed
dressed-frame flip-flop rate, so the assembled ZZ coefficient is
2*pi*(2*d).  The RWA halves the bare coefficient in the dressed frame,
which puts the full population transfer at t = 1/(2*d).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .spinsys import (
    EXCHANGE_BLOCKS,
    GAMMA_E,
    SX,
    SY,
    SZ,
    SZ_SZ,
    DensityState,
    SpinLayout,
)


@dataclass(frozen=True)
class DriveTerm:
    """Resonant microwave drive on one spin: Omega*(cos(phi)Sx + sin(phi)Sy)."""

    rabi: float  # angular frequency, rad/s
    phase: float = 0.0  # rad

    def __post_init__(self) -> None:
        for name in ("rabi", "phase"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"drive {name} must be finite")


@dataclass(frozen=True)
class HamiltonianSpec:
    """Time-independent rotating-frame Hamiltonian of the (NV, Xe) pair."""

    layout: SpinLayout  # names the space; SpinLayout admits only the pair
    drives: Mapping[str, DriveTerm] = field(default_factory=dict)  # keyed "NV" / "Xe"
    coupling_hz: float = 0.0  # dressed-frame exchange rate d, between NV and Xe

    def __post_init__(self) -> None:
        if not np.isfinite(self.coupling_hz):
            raise ValueError("coupling must be finite")
        for label in self.drives:
            if label not in SX:
                raise ValueError(f"drive on unknown spin {label!r}; the pair is NV and Xe")

    def assemble(self) -> np.ndarray:
        """Hamiltonian matrix (rad/s)."""
        h = np.zeros((4, 4), dtype=complex)
        for label, drv in self.drives.items():
            h += drv.rabi * (np.cos(drv.phase) * SX[label] + np.sin(drv.phase) * SY[label])
        if self.coupling_hz != 0.0:
            h += 2.0 * np.pi * (2.0 * self.coupling_hz) * SZ_SZ
        return h


@dataclass(frozen=True)
class DecoherenceEnvelope:
    """Stretched-exponential amplitude model exp(-(gamma2*t)**p)."""

    alpha0: float = 1.0
    gamma2_hz: float = 0.0
    p: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha0 <= 1.0:
            raise ValueError("alpha0 must be in [0, 1]")
        if not (np.isfinite(self.gamma2_hz) and self.gamma2_hz >= 0):
            raise ValueError("gamma2 must be finite and >= 0")
        if not (np.isfinite(self.p) and self.p > 0):
            raise ValueError("decay exponent p must be finite and positive")

    def decay(self, t):
        """Coherence decay factor over a contiguous interval t (no alpha0).

        Accepts scalars or arrays; returns the same shape.
        """
        out = np.exp(-((self.gamma2_hz * np.asarray(t, dtype=float)) ** self.p))
        return out if np.ndim(t) else float(out)

    def amplitude(self, t):
        """Nominal amplitude alpha0 times the decay factor."""
        return self.alpha0 * self.decay(t)


@dataclass(frozen=True)
class OUNoiseModel:
    """Ornstein-Uhlenbeck field noise for Monte Carlo dephasing."""

    sigma_b_gauss: float
    tau_c_s: float
    trajectories: int = 100

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma_b_gauss) and self.sigma_b_gauss >= 0):
            raise ValueError("sigma_b must be finite and >= 0")
        if not (np.isfinite(self.tau_c_s) and self.tau_c_s > 0):
            raise ValueError("tau_c must be finite and positive")
        if self.trajectories < 1:
            raise ValueError("need at least one trajectory")


def expm_hermitian(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(-i*h*t) for Hermitian h via eigendecomposition.

    h may be one (d, d) matrix or a (..., d, d) stack, decomposed by a
    single eigh call.  t is a scalar or an array that broadcasts against
    h.shape[:-2]; the result has shape broadcast(h.shape[:-2], t.shape)
    + (d, d).  Each matrix of the result equals the one that a separate
    call on that matrix and time would return, bit for bit.
    """
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(-1.0j * evals * np.asarray(t)[..., None])
    return (evecs * phases[..., None, :]) @ np.swapaxes(evecs.conj(), -1, -2)


def _evolve(mat: np.ndarray, u: np.ndarray) -> np.ndarray:
    return u @ mat @ np.swapaxes(u.conj(), -1, -2)


def propagate(state: DensityState, ham: HamiltonianSpec, t: float) -> DensityState:
    """Unitary evolution rho -> U rho U+ with U = exp(-i H t)."""
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    if t == 0.0:
        return state
    return DensityState(_evolve(state.matrix, expm_hermitian(ham.assemble(), t)))


def optical_pump(state: DensityState, efficiency: float) -> DensityState:
    """Reset the NV toward |0> with probability e, the Xe spin untouched.

    The map (1 - e) rho + e |0><0|_NV (x) Tr_NV rho, on the entries it
    touches: Tr_NV rho, the sum of the NV = 0 and NV = 1 blocks, lands in
    the NV = 0 block.  Each sqrt weight multiplies twice and the sum
    starts from +0, as the Kraus form K rho K+ rounds, so the two agree
    bit for bit, signed zeros included.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("pump efficiency must be in [0, 1]")
    keep, reset = np.sqrt(1.0 - efficiency), np.sqrt(efficiency)
    rho = state.matrix
    out = keep * (keep * rho) + 0.0
    out[..., :2, :2] += reset * (reset * rho[..., :2, :2])
    out[..., :2, :2] += reset * (reset * rho[..., 2:, 2:])
    return DensityState(out)


def driven_decay(mat: np.ndarray, t1rho_s: float, t: float, block: str) -> np.ndarray:
    """Damp exchange-oscillation contrast within one exchange subspace.

    Mixture of the identity (weight exp(-t/T1rho)) with a channel that
    dephases the block against its complement and replaces the block
    content by its equal-population fixed point: the block's rows and
    columns become 0 and its populations half its trace.  The collapse
    starts from mat + 0, as the projector form Q mat Q sums onto +0, so
    the two agree bit for bit, signed zeros included.  mat is one (4, 4)
    matrix or a (..., 4, 4) stack; the caller validates the state it builds.
    """
    if t1rho_s <= 0:
        raise ValueError("t1rho must be positive")
    if t < 0:
        raise ValueError("duration must be >= 0")
    if block not in EXCHANGE_BLOCKS:
        raise ValueError(f"unknown exchange block {block!r}")
    f = float(np.exp(-t / t1rho_s))
    i, j = EXCHANGE_BLOCKS[block]
    collapsed = mat + 0.0
    half_trace = (collapsed[..., i, i] + collapsed[..., j, j]) / 2.0
    collapsed[..., [i, j], :] = collapsed[..., :, [i, j]] = 0.0
    collapsed[..., i, i] = collapsed[..., j, j] = half_trace
    return f * mat + (1.0 - f) * collapsed


def ou_trajectory(noise: OUNoiseModel, n_steps: int, dt: float,
                  rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Exactly discretized stationary OU paths, one row per generator, one value per sub-step."""
    decay = np.exp(-dt / noise.tau_c_s)
    diffuse = noise.sigma_b_gauss * np.sqrt(1.0 - decay**2)
    z = np.stack([rng.standard_normal(n_steps + 1) for rng in rngs], axis=1)
    x = np.empty((n_steps, len(rngs)))
    x_cur = noise.sigma_b_gauss * z[0]
    for k in range(n_steps):
        x[k] = x_cur
        x_cur = x_cur * decay + diffuse * z[k + 1]
    return x.T


def ou_phase_variance(noise: OUNoiseModel, t: float) -> float:
    """Variance of the accumulated phase gamma_e * integral x(t') dt' for stationary OU."""
    sigma_w = GAMMA_E * noise.sigma_b_gauss
    tc = noise.tau_c_s
    return 2.0 * sigma_w**2 * tc * (t - tc * (1.0 - np.exp(-t / tc)))


def monte_carlo_propagate(
    state: DensityState,
    ham: HamiltonianSpec,
    t: float,
    noise: OUNoiseModel,
    seed: int,
) -> DensityState:
    """Average unitary evolutions over OU field-noise trajectories.

    The noise enters as a fluctuating common Sz field on the electronic
    spins.  Per-trajectory seeds derive deterministically from the master
    seed, so results do not depend on evaluation order.  Pure dephasing:
    the Hamiltonian must be diagonal (no drives), so trajectory n evolves
    by diag(exp(-i*theta_n)), theta_n = levels*t + the field's phase on Sz_NV + Sz_Xe.
    """
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    h0 = ham.assemble()
    levels = np.diag(h0).real
    if not np.array_equal(h0, np.diag(levels)):
        raise ValueError("monte_carlo_propagate models pure dephasing; drives must be zero")
    if t == 0.0:
        return state
    n_steps = max(10, int(np.ceil(t / (noise.tau_c_s / 10.0))))
    dt = t / n_steps
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(traj,)))
            for traj in range(noise.trajectories)]
    field_integral = ou_trajectory(noise, n_steps, dt, rngs).sum(axis=1) * dt
    theta = levels * t + GAMMA_E * field_integral[:, None] * np.diag(SZ["NV"] + SZ["Xe"]).real
    ph = np.exp(-1.0j * theta)
    return DensityState(state.matrix * (ph.T @ ph.conj()) / noise.trajectories)
