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
from dataclasses import dataclass
from string import ascii_lowercase

import numpy as np

from .errors import (
    DomainError,
    InconsistentMomentsError,
    IndeterminateSignCountError,
    InvalidDimensionError,
    NonHermitianError,
)
from .linalg import EIG_HERM_TOL, DensityMatrix, _as_matrix, _require_square
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


def count_positive_charpoly(M) -> int:
    """Number of eigenvalues of the Hermitian matrix M above 1e-10 ||M||_F.

    One LAPACK ``eigvalsh`` of the symmetrised (M + M^dag)/2 gives the
    eigenvalues, and those above gap = 1e-10 ||M||_F are counted.  An
    eigenvalue in [-gap, gap] has no sign at that tolerance, so the count
    is refused; so is the zero matrix, whose gap is 0.  A 0 x 0 matrix
    has no eigenvalues and counts 0.

    M is first scaled by the smallest power of two above max |m_ij|, which
    is exact.  Its entries are then at most 1 in modulus, so neither the
    norm nor the symmetrisation can overflow, and the gap of a nonzero M
    is never 0.  Wherever no square of an entry of M over- or underflows,
    the band is bit for bit the unscaled 1e-10 ||M||_F.  The Hermitian
    check runs on the scaled matrix, so both it and the band are
    relative to the size of M, and M and 2^k M get the same verdict
    wherever the scaling is exact.  The tests
    check every count against an eigensolve-free one, the positive LDL^T
    pivots of a Householder tridiagonal form (Sylvester's law of
    inertia).  (The name is historical: no characteristic polynomial is
    formed.)

    Raises:
        NonSquareError.
        DomainError: an entry is NaN or infinite.
        NonHermitianError: M deviates from M^dag by more than 1e-10 times
            that power of two (between max |m_ij| and twice it).
        IndeterminateSignCountError: an eigenvalue lies within 1e-10
            ||M||_F of zero, so the count is ill-defined at that tolerance.
    """
    A = _as_matrix(M)
    _require_square(A)
    top = float(np.abs(A).max(initial=0.0))
    if not math.isfinite(top):
        raise DomainError("matrix has NaN or infinite entries")
    # the factor 2^-e is exact; it is applied in two halves because 2^-e
    # overflows for a subnormal max |m_ij| (e down to -1073)
    e = math.frexp(top)[1]
    A = A * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e)
    # checked at the scale of the band, so the verdict does not depend on the scale of M
    dev = float(np.abs(A - A.conj().T).max(initial=0.0))
    if not dev <= EIG_HERM_TOL:
        raise NonHermitianError(
            f"Hermiticity deviation {dev:.3e} of M / 2^{e} exceeds {EIG_HERM_TOL:.1e}, "
            f"where 2^{e} is the smallest power of two above max |m_ij|"
        )
    vals = np.linalg.eigvalsh((A + A.conj().T) / 2.0)
    gap = 1e-10 * float(np.linalg.norm(A))
    if np.abs(vals).min(initial=math.inf) <= gap:
        raise IndeterminateSignCountError(
            "an eigenvalue is zero at working precision and cannot be counted as positive or not"
        )
    return int(np.count_nonzero(vals > gap))
