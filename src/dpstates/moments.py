"""Trace moments Tr(rho^m) three ways, and what they reveal about a DPS.

The permutation route evaluates Tr(S_sigma rho^(x m)) from matrix
elements with at most one D x D product, never through an
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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InconsistentMomentsError, IndeterminateSignCountError
from .linalg import (
    DensityMatrix,
    _require_count,
    _require_dimension,
    _require_tolerance,
    _scaled_hermitian,
    _seeded_rng,
)
from .metrics import _dps_levels, p_min

__all__ = [
    "MomentEstimate",
    "count_positive_charpoly",
    "dps_moment",
    "dps_p_from_moments",
    "moment_exact",
    "moment_montecarlo",
    "moment_permutation",
]

RECOVERY_TOL = 1e-8
"""Slack on p^2 and on t3 in moment recovery.  Absolute: unit trace fixes the scale,
since every moment of a state lies in [0, 1]."""


@dataclass(frozen=True)
class MomentEstimate:
    """One estimate of Tr(rho^m); shots and std_error are 0 when exact."""

    m: int
    value: float
    method: str
    shots: int = 0
    std_error: float = 0.0


def moment_exact(rho: DensityMatrix, m: int) -> MomentEstimate:
    """Sum of lambda_i^m via the dense eigensolver.

    Raises:
        DomainError: m not an integer >= 1 (not 2.5 or a bool).
    """
    _require_count(m, "moment order")
    vals = np.linalg.eigvalsh(rho.matrix)
    return MomentEstimate(m=m, value=float(np.sum(vals**m)), method="exact")


def moment_permutation(rho: DensityMatrix, m: int) -> MomentEstimate:
    """Tr(S_sigma rho^(x m)) for the cyclic shift sigma(t) = t + 1 mod m.

    The cycle sum rho[i1, i2] rho[i2, i3] ... rho[im, i1] is
    sum_ij P_ij rho_ji with P = rho (m = 2) or rho rho (m = 3), and
    rho_ji = conj(rho_ij) makes that ``vdot(rho, P)``: one D x D product
    at most, and the D^m x D^m operator S_sigma is never formed.  Any
    single m-cycle gives Tr(rho^m); the tests check this one against the
    dense tensor-power operator of another.

    Raises:
        DomainError: m not an integer in {2, 3}.
    """
    _require_count(m, "moment order")
    if m not in (2, 3):
        raise DomainError(f"permutation evaluation is provided for m in {{2, 3}}, got {m}")
    A = rho.matrix
    P = A if m == 2 else A @ A
    return MomentEstimate(m=m, value=float(np.vdot(A, P).real), method="permutation")


def moment_montecarlo(rho: DensityMatrix, m: int, shots: int, seed: int) -> MomentEstimate:
    """Swap-test statistics for Tr(rho^m), simulated at the probability level.

    Draws `shots` Bernoulli outcomes with success probability
    (1 + t)/2 where t is the true moment, and returns
    2 (fraction of +) - 1 with std_error = sqrt((1 - t^2)/shots).  The
    true t is available here by construction (validation mode); on
    measured data one would plug the estimate into the same expression.

    Raises:
        DomainError: m not an integer >= 1, shots not an integer in
            [1, 2^63 - 1] (the binomial draw takes an int64), or seed not
            an integer >= 0.
    """
    _require_count(shots, "shots")
    if shots > 2**63 - 1:
        raise DomainError(f"shots must be in [1, 2^63 - 1], got {shots}")
    rng = _seeded_rng(seed)
    t = moment_exact(rho, m).value
    p_plus = min(max((1.0 + t) / 2.0, 0.0), 1.0)
    hits = int(rng.binomial(shots, p_plus))
    est = 2.0 * hits / shots - 1.0
    err = math.sqrt(max(1.0 - t * t, 0.0) / shots)
    return MomentEstimate(m=m, value=est, method="montecarlo", shots=shots, std_error=err)


def dps_moment(D: int, p: float, m: int) -> float:
    """Forward moment of the DPS spectrum, (D-1)((1-p)/D)^m + ((1 + (D-1)p)/D)^m.

    p is not range-checked: :func:`dps_p_from_moments` evaluates it down
    to tol below p_min(D).

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        DomainError: m not an integer >= 1 (not 2.5 or a bool).
    """
    _require_dimension(D, 2, "a DPS moment")
    _require_count(m, "moment order")
    flat, top = _dps_levels(D, p)
    return (D - 1) * flat**m + top**m


def dps_p_from_moments(t2: float, t3: float, D: int, tol: float = RECOVERY_TOL) -> tuple[float, bool]:
    """Recover the DPS polarization from its second and third moments.

    |p| = sqrt((D t2 - 1)/(D - 1)); the sign is the one whose spectrum
    prediction reproduces t3 within tol.  At D = 2 the two signs share a
    spectrum, so only +|p| is tried and sign_resolved is False.

    Raises:
        InconsistentMomentsError: no p in [-1/(D-1), 1] fits both moments
            (a NaN moment fits none).
        InvalidDimensionError: D not an integer >= 2.
        DomainError: tol NaN, infinite or negative.
    """
    _require_dimension(D, 2, "moment recovery")
    _require_tolerance(tol, "tol")
    num = (D * t2 - 1.0) / (D - 1.0)
    if not -tol <= num <= 1.0 + tol:
        raise InconsistentMomentsError(f"t2={t2:.15g} implies p^2 = {num:.15g} outside [0, 1]")
    p_abs = math.sqrt(min(max(num, 0.0), 1.0))
    signs = (p_abs,) if D == 2 else (p_abs, -p_abs)
    fits = [p for p in signs if p >= p_min(D) - tol and abs(dps_moment(D, p, 3) - t3) <= tol]
    if not fits:
        raise InconsistentMomentsError(f"no sign of |p|={p_abs:.15g} reproduces t3={t3:.15g} within {tol:.1e}")
    return fits[0], D > 2


def count_positive_charpoly(M) -> int:
    """Number of eigenvalues of the Hermitian matrix M above 1e-10 ||M||_F.

    One LAPACK ``eigvalsh`` of the symmetrised (M + M^dag)/2 gives the
    eigenvalues, and those above gap = 1e-10 ||M||_F are counted.  An
    eigenvalue in [-gap, gap] has no sign at that tolerance, so the count
    is refused; so is the zero matrix, whose gap is 0.  A 0 x 0 matrix
    has no eigenvalues and counts 0.

    Both the Hermitian check and the band are taken on M / 2^e from
    :func:`~dpstates.linalg._scaled_hermitian`, so M and 2^k M get the
    same verdict wherever the scaling is exact.  The tests
    check every count against an eigensolve-free one, the positive LDL^T
    pivots of a Householder tridiagonal form (Sylvester's law of
    inertia).  (The name is historical: no characteristic polynomial is
    formed.)

    Raises:
        NonSquareError.
        DomainError: an entry is NaN or infinite.
        NonHermitianError: M deviates from M^dag by more than 1e-10 times
            2^e, the smallest power of two above max |m_ij|.
        IndeterminateSignCountError: an eigenvalue lies within 1e-10
            ||M||_F of zero, so the count is ill-defined at that tolerance.
    """
    A, _ = _scaled_hermitian(M)
    H = A + A.conj().T
    H /= 2.0
    vals = np.linalg.eigvalsh(H)
    gap = 1e-10 * math.sqrt(np.vdot(A, A).real)
    # the eigenvalues ascend: the k at or below gap come first, and the last of them lies in
    # [-gap, gap] if any does
    k = int(vals.searchsorted(gap, side="right"))
    if k and vals[k - 1] >= -gap:
        raise IndeterminateSignCountError(
            "an eigenvalue is zero at working precision and cannot be counted as positive or not"
        )
    return vals.size - k
