"""Dense complex Hermitian linear algebra shared by the rest of the package.

Conventions fixed here and relied on everywhere else:

* composite indices are row-major (A-major): the joint index of subsystem
  states ``|i>_A |j>_B`` is ``i * dB + j``, matching ``numpy.kron``;
* eigenvalues are returned in ascending order;
* Hermiticity and trace checks use 1e-12 on density matrices and 1e-10
  on matrices handed to the eigensolver; reconstruction checks use 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
)

HERM_TOL = 1e-12
EIG_HERM_TOL = 1e-10
TRACE_TOL = 1e-12
RECON_TOL = 1e-10
PSD_CLIP_TOL = 1e-10


def _as_matrix(M) -> np.ndarray:
    if isinstance(M, DensityMatrix):
        return M.matrix
    return np.asarray(M, dtype=complex)


def _require_square(M: np.ndarray) -> int:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {M.shape}")
    return M.shape[0]


def _require_hermitian(M: np.ndarray, tol: float) -> None:
    dev = np.max(np.abs(M - M.conj().T)) if M.size else 0.0
    if not dev <= tol:  # NaN fails too
        raise NonHermitianError(f"Hermiticity deviation {dev:.3e} exceeds {tol:.1e}")


class DensityMatrix:
    """Hermitian unit-trace matrix.

    Positivity is deliberately not enforced at construction: partial
    transposes and inverter outputs are legitimately indefinite.  Use
    :meth:`is_positive` when positivity matters.

    Args:
        matrix: square complex array, finite, Hermitian within 1e-12,
            trace 1 within 1e-12.

    Raises:
        NonSquareError, NonHermitianError, DimensionMismatchError.
        DomainError: a NaN or infinite entry.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix) -> None:
        M = np.array(matrix, dtype=complex)
        _require_square(M)
        if not np.all(np.isfinite(M)):
            raise DomainError("matrix has NaN or infinite entries")
        _require_hermitian(M, HERM_TOL)
        tr = np.trace(M)
        if abs(tr - 1.0) > TRACE_TOL:
            raise DimensionMismatchError(f"trace {tr:.15g} differs from 1 beyond {TRACE_TOL:.1e}")
        M = (M + M.conj().T) / 2.0
        M.setflags(write=False)
        self._matrix = M

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def is_positive(self) -> bool:
        """True when every eigenvalue is at least -PSD_CLIP_TOL."""
        return bool(np.min(np.linalg.eigvalsh(self._matrix)) >= -PSD_CLIP_TOL)

    def purity(self) -> float:
        """Tr(rho^2)."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition with ascending eigenvalues.

    ``eigenvectors`` is unitary with columns aligned to ``eigenvalues``;
    ``V diag(lam) V^dag`` reconstructs the input within 1e-10.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.conj().T


def eig_hermitian(M) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    Uses the dense symmetric solver; eigenvalues ascend and the
    reconstruction invariant is verified before returning.

    Raises:
        NonSquareError: if ``M`` is not square.
        NonHermitianError: if symmetry is violated beyond EIG_HERM_TOL.
    """
    A = _as_matrix(M)
    _require_square(A)
    _require_hermitian(A, EIG_HERM_TOL)
    vals, vecs = np.linalg.eigh(A)
    spec = Spectrum(eigenvalues=vals, eigenvectors=vecs)
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.max(np.abs(spec.reconstruct() - A)) > RECON_TOL * scale:
        raise NonHermitianError("eigendecomposition failed the reconstruction check")
    return spec


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in (-PSD_CLIP_TOL, 0) and positive ones at roundoff level
    (see :func:`psd_roots`) count as zero; anything below -PSD_CLIP_TOL raises.

    Raises:
        NotPSDError: if an eigenvalue lies below -PSD_CLIP_TOL.
    """
    A = _as_matrix(M)
    spec = eig_hermitian(A)
    vals = spec.eigenvalues
    if np.min(vals) < -PSD_CLIP_TOL:
        raise NotPSDError(f"minimum eigenvalue {np.min(vals):.3e} below -{PSD_CLIP_TOL:.1e}")
    V = spec.eigenvectors
    S = (V * psd_roots(vals, float(np.max(np.abs(vals))))) @ V.conj().T
    return (S + S.conj().T) / 2.0


def psd_roots(vals: np.ndarray, scale: float) -> np.ndarray:
    """Roots of the eigenvalues of a matrix of norm <= scale; those <= D eps scale give 0."""
    return np.sqrt(np.where(vals > vals.size * np.finfo(float).eps * scale, vals, 0.0))


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
    if dA * dB != n or dA < 1 or dB < 1:
        raise DimensionMismatchError(f"cannot split dimension {n} as {dA}x{dB}")
    return M.reshape(dA, dB, dA, dB)


def partial_trace(M, dA: int, dB: int, keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Args:
        M: (dA*dB) x (dA*dB) matrix.
        keep: "A" returns the dA x dA marginal, "B" the dB x dB one.

    Raises:
        DimensionMismatchError.
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
        DimensionMismatchError.
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
