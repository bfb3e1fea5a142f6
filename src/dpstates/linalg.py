"""Dense complex Hermitian linear algebra shared by the rest of the package.

Conventions fixed here and relied on everywhere else:

* composite indices are row-major (A-major): the joint index of subsystem
  states ``|i>_A |j>_B`` is ``i * dB + j``, matching ``numpy.kron``;
* eigenvalues are returned in ascending order;
* every check has a stated scale.  A :class:`DensityMatrix` is checked
  to absolute tolerances (Hermiticity and trace 1e-12, positivity
  1e-10), since unit trace fixes its scale.  A matrix of any other scale
  is checked by :func:`_scaled_hermitian` at the scale of its largest
  entry (Hermiticity, 1e-10), and its spectrum relative to its largest
  eigenvalue modulus (reconstruction and positivity, 1e-10);
* an integer argument (a dimension, a count, a seed) is an ``int`` or a
  numpy integer at or above its least value, never a float, a bool or a
  string, and a tolerance argument is finite and >= 0: the rules below,
  which every public entry point applies.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    InvalidDimensionError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
)

__all__ = [
    "DensityMatrix",
    "Spectrum",
    "eig_hermitian",
    "partial_trace",
    "partial_transpose",
    "sqrt_psd",
    "tensor",
    "trace_norm",
]

HERM_TOL = 1e-12
EIG_HERM_TOL = 1e-10
TRACE_TOL = 1e-12
RECON_TOL = 1e-10
PSD_CLIP_TOL = 1e-10
_EPS = float(np.finfo(float).eps)


def _require_dimension(D: int, least: int, what: str) -> int:
    """The one dimension rule: D an int or numpy integer >= least (not 3.0, NaN, a bool or a string).

    Returns D as an ``int``, which callers use from then on: a narrow numpy
    integer would wrap D * D, a shape or a range formed in its dtype.
    ``type(D) is int`` comes first and returns D with no conversion:
    ``make_dps``, ``p_min`` and the moment and spectrum closed forms run
    it per call, several times over.
    """
    if type(D) is int:
        if D >= least:
            return D
    elif isinstance(D, np.integer) and D >= least:
        return int(D)
    raise InvalidDimensionError(f"{what} needs an integer dimension >= {least}, got {D!r}")


def _require_count(n: int, what: str, least: int = 1) -> int:
    """The one count rule: n an int or numpy integer >= least (not 2.5, 8000.0 or a bool), else DomainError.

    Monte-Carlo counts (trials, samples, shots) and moment orders start at 1, a ladder depth and a seed at 0.
    Returns n as an ``int``, for the reasons :func:`_require_dimension` gives.
    """
    if type(n) is int:
        if n >= least:
            return n
    elif isinstance(n, np.integer) and n >= least:
        return int(n)
    raise DomainError(f"{what} must be an integer >= {least}, got {n!r}")


def _require_tolerance(tol: float, what: str) -> None:
    """The one tolerance-argument rule: tol finite and >= 0 (not NaN, inf or -0.5), else DomainError."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"{what} must be finite and >= 0, got {tol!r}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for a seed that passes the count rule at 0, else DomainError (None too)."""
    _require_count(seed, "a seed", 0)
    return np.random.default_rng(seed)


def _as_matrix(M) -> np.ndarray:
    if isinstance(M, DensityMatrix):
        return M.matrix
    return np.asarray(M, dtype=complex)


def _require_square(M: np.ndarray) -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {M.shape}")
    return M.shape[0]


def _scaled_hermitian(M) -> tuple[np.ndarray, int]:
    """(M / 2^e, e), with 2^e the smallest power of two above max |m_ij|, checked Hermitian.

    The one scale rule for a matrix of arbitrary scale.  The division
    leaves the largest |m_ij| in [1/2, 1), so no norm or sum formed from
    the result overflows and a nonzero M keeps a nonzero norm; it is
    exact unless it takes an entry below the normal range.  The
    Hermitian check runs on the result, against EIG_HERM_TOL, so M and
    2^k M get the same verdict wherever the scaling is exact.  A zero
    (or 0 x 0) matrix has e = 0.  At e = 0 the result is M itself, not a
    copy: callers must not write to it.

    Raises:
        NonSquareError.
        DomainError: an entry is NaN or infinite.
        NonHermitianError: M deviates from M^dag by more than EIG_HERM_TOL
            times 2^e.
    """
    A = _as_matrix(M)
    _require_square(A)
    top = float(np.abs(A).max(initial=0.0))
    if not math.isfinite(top):
        raise DomainError("matrix has NaN or infinite entries")
    # 2^-e is applied in two halves because it overflows for a subnormal
    # max |m_ij| (e down to -1073)
    e = math.frexp(top)[1]
    if e:
        A = A * math.ldexp(1.0, -(e // 2))
        A *= math.ldexp(1.0, e // 2 - e)
    # A^* - A^T is conj(A - A^dag) entry by entry: the same moduli from one buffer fewer
    K = A.conj()
    K -= A.T
    dev = float(np.abs(K).max(initial=0.0))
    if not dev <= EIG_HERM_TOL:
        raise NonHermitianError(
            f"Hermiticity deviation {dev:.3e} of M / 2^{e} exceeds {EIG_HERM_TOL:.1e}, "
            f"where 2^{e} is the smallest power of two above max |m_ij|"
        )
    return A, e


class DensityMatrix:
    """Hermitian unit-trace matrix.

    Positivity is deliberately not enforced at construction: partial
    transposes and inverter outputs are legitimately indefinite.  Use
    :meth:`is_positive` when positivity matters.

    Args:
        matrix: square complex array, finite, Hermitian within 1e-12,
            trace 1 within 1e-12.  The Hermitian check is absolute, which
            is sound because unit trace fixes the scale: a state, and
            the partial transpose of one, has no entry above 1 in modulus.

    Raises:
        NonSquareError, NonHermitianError, DimensionMismatchError.
        DomainError: a NaN or infinite entry.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        M = np.array(matrix, dtype=complex)
        _require_square(M)
        # one full-size complex buffer besides M: H = M^* - M^T, the conjugate transpose of
        # M - M^dag, formed in place and freed before M is taken in place to (M + M^dag) / 2.
        # A NaN or infinite entry makes dev NaN or inf, so finiteness is looked at only
        # once the Hermitian check fails; errstate keeps inf - inf from warning.
        with np.errstate(invalid="ignore"):
            H = M.conj()
            H -= M.T
            dev = float(np.abs(H).max(initial=0.0))
        del H
        if not dev <= HERM_TOL:
            if not np.isfinite(M).all():
                raise DomainError("matrix has NaN or infinite entries")
            raise NonHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
        tr = np.trace(M)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DimensionMismatchError(f"trace {tr:.15g} differs from 1 beyond {TRACE_TOL:.1e}")
        M += M.conj().T
        M /= 2.0
        M.setflags(write=False)
        self._matrix = M

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def is_positive(self) -> bool:
        """True when every eigenvalue is at least -PSD_CLIP_TOL (absolute: unit trace fixes the scale)."""
        return bool(np.min(np.linalg.eigvalsh(self._matrix)) >= -PSD_CLIP_TOL)

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class Spectrum(NamedTuple):
    """Eigendecomposition with ascending eigenvalues.

    ``eigenvectors`` is unitary with columns aligned to ``eigenvalues``;
    ``V diag(lam) V^dag`` reconstructs the input within 1e-10 times the
    largest eigenvalue modulus.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def _eigh(M) -> tuple[np.ndarray, np.ndarray, float]:
    """(lam, V, top): the checked eigendecomposition behind every solver here.

    One ``eigh`` of M / 2^e from :func:`_scaled_hermitian`, whose
    reconstruction is checked to RECON_TOL times its largest eigenvalue
    modulus.  lam (ascending) and top = max |lam| are then multiplied
    back by 2^e, which is exact; V is unitary.  top is read off the two
    ends of lam.

    Raises:
        NonSquareError, DomainError, NonHermitianError: as :func:`eig_hermitian`.
    """
    A, e = _scaled_hermitian(M)
    vals, V = np.linalg.eigh(A)
    top = float(max(-vals[0], vals[-1])) if vals.size else 0.0
    if np.abs((V * vals) @ V.conj().T - A).max(initial=0.0) > RECON_TOL * top:
        raise NonHermitianError("eigendecomposition failed the reconstruction check")
    if e:
        vals, top = np.ldexp(vals, e), math.ldexp(top, e)
    return vals, V, top


def eig_hermitian(M) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix of any scale.

    The dense symmetric solver runs on M / 2^e from
    :func:`_scaled_hermitian`, and the eigenvalues are multiplied back by
    2^e, which is exact; they ascend.  The reconstruction is checked on
    M / 2^e, to RECON_TOL times its largest eigenvalue modulus.

    Raises:
        NonSquareError: if ``M`` is not square.
        DomainError: an entry is NaN or infinite.
        NonHermitianError: symmetry violated beyond EIG_HERM_TOL 2^e, or
            the reconstruction check failed.
    """
    vals, V, _ = _eigh(M)
    return Spectrum(eigenvalues=vals, eigenvectors=V)


def _psd_factor(M) -> tuple[np.ndarray, np.ndarray]:
    """(V, r): M = V diag(lam) V^dag checked positive semidefinite, and r the :func:`_psd_roots` of lam.

    sqrt(M) is V diag(r) V^dag.

    Raises:
        NonSquareError, DomainError, NonHermitianError, NotPSDError: as :func:`sqrt_psd`.
    """
    vals, V, top = _eigh(M)
    if vals.size and vals[0] < -PSD_CLIP_TOL * top:
        raise NotPSDError(
            f"minimum eigenvalue {vals[0]:.3e} below -{PSD_CLIP_TOL:.1e} times the largest modulus {top:.3e}"
        )
    return V, _psd_roots(vals, top)


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix of any scale.

    With top the largest eigenvalue modulus, eigenvalues in
    [-PSD_CLIP_TOL top, 0) and positive ones at roundoff level (see
    :func:`_psd_roots`) count as zero; anything below -PSD_CLIP_TOL top raises.

    Raises:
        NonSquareError, DomainError, NonHermitianError: as :func:`eig_hermitian`.
        NotPSDError: if an eigenvalue lies below -PSD_CLIP_TOL top.
    """
    V, roots = _psd_factor(M)
    S = (V * roots) @ V.conj().T
    return (S + S.conj().T) / 2.0


def _psd_roots(vals: np.ndarray, scale: float) -> np.ndarray:
    """Roots of the eigenvalues of a matrix of norm <= scale; those <= D eps scale give 0."""
    return np.sqrt(np.where(vals > vals.size * _EPS * scale, vals, 0.0))


def trace_norm(M) -> float:
    """Sum of singular values, Tr sqrt(M^dag M).

    For Hermitian input this equals the sum of eigenvalue magnitudes.
    """
    A = _as_matrix(M)
    _require_square(A)
    return float(np.sum(np.linalg.svd(A, compute_uv=False)))


def tensor(A, B) -> np.ndarray:
    """Kronecker product under the row-major composite index convention."""
    return np.kron(_as_matrix(A), _as_matrix(B))


def _split_dims(M: np.ndarray, dA: int, dB: int) -> np.ndarray:
    n = _require_square(M)
    dA = _require_dimension(dA, 1, "a subsystem")
    dB = _require_dimension(dB, 1, "a subsystem")
    if dA * dB != n:
        raise DimensionMismatchError(f"cannot split dimension {n} as {dA}x{dB}")
    return M.reshape(dA, dB, dA, dB)


def partial_trace(M, dA: int, dB: int, keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Args:
        M: (dA*dB) x (dA*dB) matrix.
        keep: "A" returns the dA x dA marginal, "B" the dB x dB one.

    Raises:
        InvalidDimensionError: dA or dB not an integer >= 1.
        DimensionMismatchError: dA * dB is not the size of M, or keep is not "A" or "B".
    """
    r = _split_dims(_as_matrix(M), dA, dB)
    k = keep.upper()
    if k == "A":
        return np.einsum("ibjb->ij", r)
    if k == "B":
        return np.einsum("aiaj->ij", r)
    raise DimensionMismatchError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(M, dA: int, dB: int, which: str = "B") -> np.ndarray:
    """Transpose the indices of one subsystem only.

    A linear involution preserving trace and Hermiticity; the output is
    generally indefinite.

    Raises:
        InvalidDimensionError: dA or dB not an integer >= 1.
        DimensionMismatchError: dA * dB is not the size of M, or which is not "A" or "B".
    """
    r = _split_dims(_as_matrix(M), dA, dB)
    w = which.upper()
    if w == "B":
        out = r.transpose(0, 3, 2, 1)
    elif w == "A":
        out = r.transpose(2, 1, 0, 3)
    else:
        raise DimensionMismatchError(f"which must be 'A' or 'B', got {which!r}")
    d = r.shape[0] * r.shape[1]
    return out.reshape(d, d)
