"""The (NV, Xe) spin pair: its operators and density states.

The sensor is two spin-1/2 electronic spins: ``NV``, the optically
addressed sensor qubit, and ``Xe``, the electronic spin of the ancilla
defect X.  Every state is a 4x4 density matrix in the basis |NV Xe> =
|00>, |01>, |10>, |11>, or a (..., 4, 4) stack of them, and every
operator the package reads is a read-only 4x4 module constant.  X's
nuclear spin is not a subsystem: it enters as a scalar contrast factor,
``protocols.NuclearFactor``.  Spin operators follow the S = sigma/2
convention.  The module also holds what every layer shares: the error
types and the two root finders that the calibrations use, Brent's and
Powell's hybrid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

TRACE_TOL = 1e-10
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-9

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_IDENTITY = np.eye(2, dtype=complex)


def pair_operator(nv: np.ndarray, xe: np.ndarray) -> np.ndarray:
    """nv (x) xe on the pair, read-only.

    Seeded with [[1 + 0j]], so every entry passes through a complex
    product: a plain np.kron(nv, xe) gives some entries other signed
    zeros (Sy on the NV, for one), and the seed-0 digest pins outputs
    computed from these exact matrices.
    """
    mat = np.kron(np.kron(np.array([[1.0 + 0.0j]]), nv), xe)
    mat.setflags(write=False)
    return mat


# Sx, Sy and Sz on each spin, P0 = |0><0| on the NV, and the NV-Xe
# coupling operator Sz (x) Sz; all Hermitian
SX = {"NV": pair_operator(_SIGMA_X / 2.0, _IDENTITY), "Xe": pair_operator(_IDENTITY, _SIGMA_X / 2.0)}
SY = {"NV": pair_operator(_SIGMA_Y / 2.0, _IDENTITY), "Xe": pair_operator(_IDENTITY, _SIGMA_Y / 2.0)}
SZ = {"NV": pair_operator(_SIGMA_Z / 2.0, _IDENTITY), "Xe": pair_operator(_IDENTITY, _SIGMA_Z / 2.0)}
P0_NV = pair_operator(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), _IDENTITY)
SZ_SZ = pair_operator(_SIGMA_Z / 2.0, _SIGMA_Z / 2.0)

# basis indices of the two exchange subspaces of the pair
EXCHANGE_BLOCKS = {"zq": (1, 2), "dq": (0, 3)}  # |01>, |10> and |00>, |11>

# the single-spin dressed kets |+> and |->, eigenstates of Sx, read-only
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)
PLUS.setflags(write=False)
MINUS.setflags(write=False)


class LayoutError(ValueError):
    """Raised for a layout other than the (NV, Xe) pair."""


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


def hybrd(
    f: Callable[[np.ndarray], np.ndarray], x0: Sequence[float]
) -> tuple[list[float], list[float], int]:
    """Root of f: R^n -> R^n by Powell's hybrid method, step for step as SciPy's fsolve.

    A statement-for-statement port of MINPACK's ``hybrd`` on the path that
    ``fsolve`` takes with its defaults: mode 1 (variables scaled by the
    column norms of the Jacobian), a dense forward-difference Jacobian
    with step sqrt(eps)·|x_j|, QR without pivoting, the dogleg step and
    Broyden rank-one updates of Q and R between Jacobians.  xtol
    1.49012e-8, the step-bound factor 100 and 200·(n + 1) evaluations are
    constants in its body, so x and f(x) are bit-identical to fsolve's.
    f is called with a float64 array, as fsolve calls it.

    Returns (x, f(x), info), info as MINPACK's: 1 converged (relative
    step below xtol, or f(x) exactly 0); 2 evaluation limit; 3 xtol too
    small to improve; 4 no progress over the last five Jacobians; 5 no
    progress over the last ten iterations.
    """
    eps = sys.float_info.epsilon
    xtol, factor = 1.49012e-8, 100.0
    n = len(x0)
    maxfev = 200 * (n + 1)
    step = math.sqrt(eps)  # fdjac1's step for epsfcn = eps

    def call(xs: list[float]) -> list[float]:
        return [float(v) for v in f(np.array(xs, dtype=float))]

    x = [float(v) for v in x0]
    fvec = call(x)
    nfev = 1
    fnorm = _enorm(fvec)
    iteration = 1
    ncsuc = ncfail = nslow1 = nslow2 = 0
    while True:  # outer loop: a fresh forward-difference Jacobian
        jeval = True
        fjac = [[0.0] * n for _ in range(n)]
        for j in range(n):
            temp = x[j]
            h = step * abs(temp)
            if h == 0.0:
                h = step
            x[j] = temp + h
            wa1 = call(x)
            x[j] = temp
            for i in range(n):
                fjac[i][j] = (wa1[i] - fvec[i]) / h
        nfev += n
        rdiag, acnorm = _qrfac(fjac)
        if iteration == 1:
            diag = [c if c != 0.0 else 1.0 for c in acnorm]
            xnorm = _enorm([diag[j] * x[j] for j in range(n)])
            delta = factor * xnorm
            if delta == 0.0:
                delta = factor
        qtf = list(fvec)  # (Q^T) fvec
        for j in range(n):
            if fjac[j][j] != 0.0:
                total = 0.0
                for i in range(j, n):
                    total = total + fjac[i][j] * qtf[i]
                temp = -total / fjac[j][j]
                for i in range(j, n):
                    qtf[i] = qtf[i] + fjac[i][j] * temp
        r = [[fjac[i][j] if j > i else 0.0 for j in range(n)] for i in range(n)]
        for j in range(n):
            r[j][j] = rdiag[j]
        _qform(fjac)
        diag = [max(diag[j], acnorm[j]) for j in range(n)]

        while True:  # inner loop: dogleg steps and Broyden updates
            wa1 = [-v for v in _dogleg(r, diag, qtf, delta)]
            wa2 = [x[j] + wa1[j] for j in range(n)]
            pnorm = _enorm([diag[j] * wa1[j] for j in range(n)])
            if iteration == 1:
                delta = min(delta, pnorm)
            wa4 = call(wa2)
            nfev += 1
            fnorm1 = _enorm(wa4)
            actred = -1.0
            if fnorm1 < fnorm:
                actred = 1.0 - (fnorm1 / fnorm) * (fnorm1 / fnorm)
            wa3 = [0.0] * n
            for i in range(n):
                total = 0.0
                for j in range(i, n):
                    total = total + r[i][j] * wa1[j]
                wa3[i] = qtf[i] + total
            temp = _enorm(wa3)
            prered = 0.0
            if temp < fnorm:
                prered = 1.0 - (temp / fnorm) * (temp / fnorm)
            ratio = 0.0
            if prered > 0.0:
                ratio = actred / prered

            if ratio < 0.1:
                ncsuc = 0
                ncfail += 1
                delta = 0.5 * delta
            else:
                ncfail = 0
                ncsuc += 1
                if ratio >= 0.5 or ncsuc > 1:
                    delta = max(delta, pnorm / 0.5)
                if abs(ratio - 1.0) <= 0.1:
                    delta = pnorm / 0.5
            if ratio >= 1e-4:  # successful step
                x = wa2
                fvec = wa4
                xnorm = _enorm([diag[j] * x[j] for j in range(n)])
                fnorm = fnorm1
                iteration += 1

            nslow1 += 1
            if actred >= 0.001:
                nslow1 = 0
            if jeval:
                nslow2 += 1
            if actred >= 0.1:
                nslow2 = 0
            if delta <= xtol * xnorm or fnorm == 0.0:
                return x, fvec, 1
            info = 0
            if nfev >= maxfev:
                info = 2
            if 0.1 * max(0.1 * delta, pnorm) <= eps * xnorm:
                info = 3
            if nslow2 == 5:
                info = 4
            if nslow1 == 10:
                info = 5
            if info != 0:
                return x, fvec, info
            if ncfail == 2:
                break

            # Broyden rank-one update of the Jacobian, carried into Q, R and qtf
            u = [0.0] * n
            v = [0.0] * n
            for j in range(n):
                total = 0.0
                for i in range(n):
                    total = total + fjac[i][j] * wa4[i]
                v[j] = (total - wa3[j]) / pnorm
                u[j] = diag[j] * ((diag[j] * wa1[j]) / pnorm)
                if ratio >= 1e-4:
                    qtf[j] = total
            w = _r1updt(r, u, v)
            _r1mpyq(fjac, v, w)
            _r1mpyq([qtf], v, w)
            jeval = False


def _enorm(x: list[float]) -> float:
    """Euclidean norm, MINPACK's: three sums keep small and large squares in range."""
    rdwarf, rgiant = 3.834e-20, 1.304e19
    s1 = s2 = s3 = x1max = x3max = 0.0
    agiant = rgiant / float(len(x))
    for xi in x:
        xabs = abs(xi)
        if rdwarf < xabs < agiant:
            s2 = s2 + xabs * xabs
        elif xabs <= rdwarf:
            if xabs <= x3max:
                if xabs != 0.0:
                    s3 = s3 + (xabs / x3max) * (xabs / x3max)
            else:
                s3 = 1.0 + s3 * ((x3max / xabs) * (x3max / xabs))
                x3max = xabs
        elif xabs <= x1max:
            s1 = s1 + (xabs / x1max) * (xabs / x1max)
        else:
            s1 = 1.0 + s1 * ((x1max / xabs) * (x1max / xabs))
            x1max = xabs
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _qrfac(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Householder QR of the square a in place, without pivoting (MINPACK's qrfac).

    a keeps the strict upper triangle of R and the Householder vectors;
    returns R's diagonal and the column norms of the input.
    """
    n = len(a)
    acnorm = [_enorm([a[i][j] for i in range(n)]) for j in range(n)]
    rdiag = [0.0] * n
    for j in range(n):
        ajnorm = _enorm([a[i][j] for i in range(j, n)])
        if ajnorm != 0.0:
            if a[j][j] < 0.0:
                ajnorm = -ajnorm
            for i in range(j, n):
                a[i][j] = a[i][j] / ajnorm
            a[j][j] = a[j][j] + 1.0
            for k in range(j + 1, n):
                total = 0.0
                for i in range(j, n):
                    total = total + a[i][j] * a[i][k]
                temp = total / a[j][j]
                for i in range(j, n):
                    a[i][k] = a[i][k] - temp * a[i][j]
        rdiag[j] = -ajnorm
    return rdiag, acnorm


def _qform(q: list[list[float]]) -> None:
    """Accumulate in place the orthogonal Q from _qrfac's Householder vectors (MINPACK's qform)."""
    n = len(q)
    for j in range(1, n):
        for i in range(j):
            q[i][j] = 0.0
    wa = [0.0] * n
    for k in range(n - 1, -1, -1):
        for i in range(k, n):
            wa[i] = q[i][k]
            q[i][k] = 0.0
        q[k][k] = 1.0
        if wa[k] != 0.0:
            for j in range(k, n):
                total = 0.0
                for i in range(k, n):
                    total = total + q[i][j] * wa[i]
                temp = total / wa[k]
                for i in range(k, n):
                    q[i][j] = q[i][j] - temp * wa[i]


def _dogleg(r: list[list[float]], diag: list[float], qtb: list[float], delta: float) -> list[float]:
    """Step minimizing ||R p - qtb|| in the scaled ball of radius delta (MINPACK's dogleg).

    The convex combination of the Gauss-Newton step and the scaled
    steepest-descent step, R upper triangular.
    """
    eps = sys.float_info.epsilon
    n = len(qtb)
    x = [0.0] * n
    for j in range(n - 1, -1, -1):  # Gauss-Newton direction by back substitution
        total = 0.0
        for i in range(j + 1, n):
            total = total + r[j][i] * x[i]
        temp = r[j][j]
        if temp == 0.0:
            for i in range(j + 1):
                temp = max(temp, abs(r[i][j]))
            temp = eps * temp
            if temp == 0.0:
                temp = eps
        x[j] = (qtb[j] - total) / temp
    qnorm = _enorm([diag[j] * x[j] for j in range(n)])
    if qnorm <= delta:
        return x

    wa1 = [0.0] * n  # scaled gradient direction
    for j in range(n):
        temp = qtb[j]
        for i in range(j, n):
            wa1[i] = wa1[i] + r[j][i] * temp
        wa1[j] = wa1[j] / diag[j]
    gnorm = _enorm(wa1)
    sgnorm = 0.0
    alpha = delta / qnorm
    if gnorm != 0.0:
        wa1 = [(wa1[j] / gnorm) / diag[j] for j in range(n)]
        wa2 = [0.0] * n
        for j in range(n):
            total = 0.0
            for i in range(j, n):
                total = total + r[j][i] * wa1[i]
            wa2[j] = total
        temp = _enorm(wa2)
        sgnorm = (gnorm / temp) / temp
        alpha = 0.0
        if sgnorm < delta:  # the dogleg point inside the trust region
            bnorm = _enorm(qtb)
            dq, sd = delta / qnorm, sgnorm / delta
            temp = (bnorm / gnorm) * (bnorm / qnorm) * sd
            root = math.sqrt((temp - dq) * (temp - dq) + (1.0 - dq * dq) * (1.0 - sd * sd))
            temp = temp - dq * (sd * sd) + root
            alpha = (dq * (1.0 - sd * sd)) / temp
    temp = (1.0 - alpha) * min(sgnorm, delta)
    return [temp * wa1[j] + alpha * x[j] for j in range(n)]


def _r1updt(s: list[list[float]], u: list[float], v: list[float]) -> list[float]:
    """R + u v^T back to upper triangular by Givens rotations, in place (MINPACK's r1updt).

    v is overwritten with the first set of rotations; the second set is
    returned, each rotation stored as one number (see `_rotation`).
    """
    n = len(u)
    w = [0.0] * n
    w[n - 1] = s[n - 1][n - 1]
    for j in range(n - 2, -1, -1):  # rotate v into a multiple of e_n, making a spike in w
        w[j] = 0.0
        if v[j] != 0.0:
            cos, sin, tau = _rotation(v[n - 1], v[j])
            v[n - 1] = sin * v[j] + cos * v[n - 1]
            v[j] = tau
            for i in range(j, n):
                temp = cos * s[j][i] - sin * w[i]
                w[i] = sin * s[j][i] + cos * w[i]
                s[j][i] = temp
    for i in range(n):
        w[i] = w[i] + v[n - 1] * u[i]
    for j in range(n - 1):  # eliminate the spike
        if w[j] != 0.0:
            cos, sin, tau = _rotation(s[j][j], w[j])
            for i in range(j, n):
                temp = cos * s[j][i] + sin * w[i]
                w[i] = -sin * s[j][i] + cos * w[i]
                s[j][i] = temp
            w[j] = tau
    s[n - 1][n - 1] = w[n - 1]
    return w


def _rotation(keep: float, drop: float) -> tuple[float, float, float]:
    """(cos, sin, tau) of the Givens rotation that zeroes drop against keep.

    tau stores the rotation as one number, as MINPACK does: sin when
    |sin| <= |cos|, else 1/cos (or 1 when 1/cos would overflow);
    `_unpack_rotation` recovers (cos, sin) from it.
    """
    if abs(keep) >= abs(drop):
        tan = drop / keep
        cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
        sin = cos * tan
        return cos, sin, sin
    cotan = keep / drop
    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
    cos = sin * cotan
    return cos, sin, 1.0 / cos if abs(cos) * sys.float_info.max > 1.0 else 1.0


def _r1mpyq(a: list[list[float]], v: list[float], w: list[float]) -> None:
    """Apply _r1updt's two sets of Givens rotations to the rows of a in place (MINPACK's r1mpyq)."""
    n = len(v)
    for j in range(n - 2, -1, -1):
        cos, sin = _unpack_rotation(v[j])
        for row in a:
            temp = cos * row[j] - sin * row[n - 1]
            row[n - 1] = sin * row[j] + cos * row[n - 1]
            row[j] = temp
    for j in range(n - 1):
        cos, sin = _unpack_rotation(w[j])
        for row in a:
            temp = cos * row[j] + sin * row[n - 1]
            row[n - 1] = -sin * row[j] + cos * row[n - 1]
            row[j] = temp


def _unpack_rotation(tau: float) -> tuple[float, float]:
    """(cos, sin) of a rotation stored as one number by `_rotation`."""
    if abs(tau) > 1.0:
        cos = 1.0 / tau
        return cos, math.sqrt(1.0 - cos * cos)
    return math.sqrt(1.0 - tau * tau), tau


@dataclass(frozen=True)
class SpinLayout:
    """The subsystem labels of a state space; only the (NV, Xe) pair exists."""

    subsystems: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.subsystems != ("NV", "Xe"):
            raise LayoutError(f"the state space is the ('NV', 'Xe') pair, not {self.subsystems}")


def layout(*labels: str) -> SpinLayout:
    """``layout("NV", "Xe")``, the one layout there is."""
    return SpinLayout(labels)


TWO_SPIN_LAYOUT = layout("NV", "Xe")

# electronic gyromagnetic ratio, angular frequency per Gauss
GAMMA_E = 2.0 * np.pi * 2.8e6


@dataclass(frozen=True)
class DensityState:
    """Unit-trace Hermitian positive 4x4 matrix of the (NV, Xe) pair.

    The matrix may also be a (..., 4, 4) stack of such matrices, one
    state per element, validated together in one call.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape[-2:] != (4, 4):
            raise StateError(f"matrix shape {mat.shape} is not (..., 4, 4)")
        validate_density_matrix(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def expectation(self, op: np.ndarray) -> float | np.ndarray:
        """Tr(op rho) of a Hermitian 4x4 op: a float, or an array for a stack."""
        val = np.trace(op @ self.matrix, axis1=-2, axis2=-1).real
        return float(val) if val.ndim == 0 else val


def validate_density_matrix(mat: np.ndarray) -> None:
    """Check trace, Hermiticity, and positivity; raise StateError on violation.

    mat is one (d, d) matrix or a (..., d, d) stack; each invariant is
    checked for the whole stack at once (one eigvalsh call), and the
    error reports the worst matrix.  Any non-finite entry is refused first:
    every comparison with NaN is False, and eigvalsh cannot converge on it.
    """
    if not np.isfinite(mat).all():
        raise StateError("matrix has a non-finite entry")
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


def polarized_state(lay: SpinLayout, polarizations: Mapping[str, float]) -> DensityState:
    """Product state of diagonal single-spin states with the given polarizations."""
    populations = []
    for label in lay.subsystems:
        p = float(polarizations[label])
        if not -1.0 <= p <= 1.0:
            raise ValueError(f"polarization {p} for {label!r} out of [-1, 1]")
        populations.append(np.diag([(1.0 + p) / 2.0, (1.0 - p) / 2.0]).astype(complex))
    return DensityState(pair_operator(*populations))


def pure_state(lay: SpinLayout, amplitudes: np.ndarray) -> DensityState:
    """Density state of the pair (``lay``) from a state vector, normalized here."""
    vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return DensityState(np.outer(vec, vec.conj()))


def bell_coherence(state: DensityState) -> complex | np.ndarray:
    """The <00|rho|11> matrix element of a state, per element of a stack.

    Its magnitude quantifies the usable two-spin coherence in the
    Bell-state block.
    """
    i, j = EXCHANGE_BLOCKS["dq"]
    coherence = state.matrix[..., i, j]
    return coherence if coherence.ndim else complex(coherence)
