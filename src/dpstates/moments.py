"""Trace moments Tr(rho^m) three ways, and what they reveal about a DPS.

The permutation route evaluates Tr(S_sigma rho^(x m)) by contracting
matrix elements along the permutation's cycle, never through an
eigendecomposition or the tensor-power operator S_sigma, so it is an
independent check on the direct route at any D.
The Monte-Carlo route simulates the interferometric swap test at the
probability level: one ancilla measurement is a Bernoulli draw with
success probability (1 + Tr rho^m)/2.

For a DPS the first two nontrivial moments determine the polarization:
|p| from t2, the sign from whether t3 matches the spectrum prediction
(possible only for D > 2, where +-p give different spectra).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

from .errors import (
    DomainError,
    InconsistentMomentsError,
    IndeterminateSignCountError,
    InvalidDimensionError,
)
from .linalg import EIG_HERM_TOL, DensityMatrix, _as_matrix, _require_hermitian, _require_square
from .metrics import p_min

RECOVERY_TOL = 1e-8


@dataclass(frozen=True)
class MomentEstimate:
    """One estimate of Tr(rho^m); shots and std_error are 0 when exact."""

    m: int
    value: float
    method: str
    shots: int = 0
    std_error: float = 0.0


def moment_exact(rho: DensityMatrix, m: int) -> MomentEstimate:
    """Sum of lambda_i^m via the dense eigensolver."""
    if m < 1:
        raise DomainError(f"moment order must be >= 1, got {m}")
    vals = np.linalg.eigvalsh(rho.matrix)
    return MomentEstimate(m=m, value=float(np.sum(vals**m)), method="exact")


def moment_permutation(rho: DensityMatrix, m: int) -> MomentEstimate:
    """Tr(S_sigma rho^(x m)) for the cyclic shift sigma(t) = t + 1 mod m.

    The matrix elements are contracted along the cycle,
    sum rho[i1, i2] rho[i2, i3] ... rho[im, i1], which costs O(D^3) time
    and O(D^2) memory for m <= 3; the D^m x D^m operator S_sigma is never
    formed.  Any single m-cycle gives Tr(rho^m); the tests check this one
    against the dense tensor-power operator of another.

    Raises:
        DomainError: m not in {2, 3}.
    """
    if m not in (2, 3):
        raise DomainError(f"permutation evaluation is provided for m in {{2, 3}}, got {m}")
    letters = ascii_lowercase[:m]
    spec = ",".join(letters[(t + 1) % m] + letters[t] for t in range(m))
    value = np.einsum(spec, *([rho.matrix] * m))
    return MomentEstimate(m=m, value=float(np.real(value)), method="permutation")


def moment_montecarlo(rho: DensityMatrix, m: int, shots: int, seed: int) -> MomentEstimate:
    """Swap-test statistics for Tr(rho^m), simulated at the probability level.

    Draws `shots` Bernoulli outcomes with success probability
    (1 + t)/2 where t is the true moment, and returns
    2 (fraction of +) - 1 with std_error = sqrt((1 - t^2)/shots).  The
    true t is available here by construction (validation mode); on
    measured data one would plug the estimate into the same expression.

    Raises:
        DomainError: shots < 1.
    """
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")
    t = moment_exact(rho, m).value
    p_plus = min(max((1.0 + t) / 2.0, 0.0), 1.0)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p_plus))
    est = 2.0 * hits / shots - 1.0
    err = math.sqrt(max(1.0 - t * t, 0.0) / shots)
    return MomentEstimate(m=m, value=est, method="montecarlo", shots=shots, std_error=err)


def dps_moment(D: int, p: float, m: int) -> float:
    """Forward moment of the DPS spectrum: (D-1)((1-p)/D)^m + ((1-p)/D + p)^m."""
    flat = (1.0 - p) / D
    return (D - 1) * flat**m + (flat + p) ** m


def dps_p_from_moments(t2: float, t3: float, D: int, tol: float = RECOVERY_TOL) -> tuple[float, bool]:
    """Recover the DPS polarization from its second and third moments.

    |p| = sqrt((D t2 - 1)/(D - 1)); the sign is the one whose spectrum
    prediction reproduces t3 within tol.  At D = 2 the two signs share a
    spectrum, so the magnitude is returned with sign_resolved = False.

    Raises:
        InconsistentMomentsError: no p in [-1/(D-1), 1] fits both moments
            (a NaN moment fits none).
        InvalidDimensionError: D < 2.
    """
    if D < 2:
        raise InvalidDimensionError(f"moment recovery needs D >= 2, got {D}")
    num = (D * t2 - 1.0) / (D - 1.0)
    if not -tol <= num <= 1.0 + tol:
        raise InconsistentMomentsError(f"t2={t2:.15g} implies p^2 = {num:.15g} outside [0, 1]")
    p_abs = math.sqrt(min(max(num, 0.0), 1.0))
    if D == 2:
        if not abs(dps_moment(D, p_abs, 3) - t3) <= tol:
            raise InconsistentMomentsError(
                f"t3={t3:.15g} does not match the spectrum prediction for |p|={p_abs:.15g}"
            )
        return p_abs, False
    fits = [
        p
        for p in (p_abs, -p_abs)
        if p >= p_min(D) - tol and abs(dps_moment(D, p, 3) - t3) <= tol
    ]
    if not fits:
        raise InconsistentMomentsError(
            f"no sign of |p|={p_abs:.15g} reproduces t3={t3:.15g} within {tol:.1e}"
        )
    return fits[0], True


def _tridiagonalize(A: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal a_k and |b_k|^2 of a Householder tridiagonal form of A.

    Step k reflects the column x below a_k onto e_1 (so |b_k| = ||x||)
    and takes the trailing block B to H B H = B - v w^dag - w v^dag.
    """
    B, n = A, A.shape[0]
    diag, off2 = [], []
    for k in range(n - 1):
        diag.append(float(B[0, 0].real))
        x = B[1:, 0]
        off2.append(float(np.vdot(x, x).real))
        B = B[1:, 1:]
        if k < n - 2 and off2[-1] > 0.0:
            v = x.copy()  # x + e^{i arg x_0} ||x|| e_1: no cancellation in v_0
            v[0] += (x[0] / abs(x[0]) if x[0] != 0 else 1.0) * math.sqrt(off2[-1])
            tau = 2.0 / np.vdot(v, v).real
            q = tau * (B @ v)
            X = np.outer(v, (q - (0.5 * tau * np.vdot(v, q)) * v).conj())
            B = B - X - X.conj().T
    diag.append(float(B[0, 0].real))
    return diag, off2


def _count_above(diag: list[float], off2: list[float], shift: float) -> int:
    # positive LDL^T pivots of T - shift 1; a vanishing pivot becomes a
    # tiny negative one, as in Sturm-sequence bisection
    pivmin = sys.float_info.min * max([1.0, *off2])
    count, d = 0, 1.0
    for k, a in enumerate(diag):
        d = a - shift - (off2[k - 1] / d if k else 0.0)
        d = d if abs(d) >= pivmin else -pivmin
        count += d > 0.0
    return count


def count_positive_charpoly(M) -> int:
    """Positive-eigenvalue count by Sylvester's law of inertia.

    Householder-reduces M to Hermitian tridiagonal form and counts the
    positive pivots d_k = a_k - |b_(k-1)|^2 / d_(k-1) of its LDL^T
    factorization; no eigensolve is involved.  (The name is historical:
    no characteristic polynomial is formed.)

    Raises:
        NonHermitianError, NonSquareError.
        IndeterminateSignCountError: an eigenvalue lies within 1e-10
            ||M||_F of zero, so the count is ill-defined at that tolerance.
    """
    A = _as_matrix(M)
    _require_square(A)
    _require_hermitian(A, EIG_HERM_TOL)
    diag, off2 = _tridiagonalize((A + A.conj().T) / 2.0)
    gap = 1e-10 * float(np.linalg.norm(A))
    above = _count_above(diag, off2, gap)
    if gap == 0.0 or _count_above(diag, off2, -gap) != above:
        raise IndeterminateSignCountError(
            "an eigenvalue is zero at working precision and cannot be counted as positive or not"
        )
    return above
