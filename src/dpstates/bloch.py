"""Generalized Gell-Mann basis for su(D) and coherence-vector algebra.

A density matrix is expanded as ``rho = (1/D)(1 + c_D n.lambda)`` with
``c_D = sqrt(D(D-1)/2)``; the real vector ``n`` of length D^2-1 is the
coherence vector.  Its components are index arithmetic on rho and n.lambda
the inverse map, both O(D^2); only :func:`generate_basis` builds the dense
generator stack, uncached, from the same map.  The star product, whose fixed
points are exactly the pure-state vectors, and the DPS conditions ``n.n =
p^2``, ``n*n = p n`` are evaluated on A = n.lambda through sum_ij d_ijk a_i
b_j = (1/4) Tr({A, B} lambda_k); the tests take d_ijk from the stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotDPSError, UndefinedForDim2Error
from .linalg import DensityMatrix, _require_count, _require_dimension, _require_tolerance
from .metrics import DpsState, make_dps, p_min

__all__ = [
    "CoherenceVector",
    "DpsMeasurement",
    "c_norm",
    "dps_test",
    "from_coherence",
    "generate_basis",
    "invariant_ladder",
    "measure_dps",
    "star",
    "to_coherence",
]

STAR_TOL = 1e-8
"""Bound on ||n*n - p n||.  Absolute: unit trace fixes the scale, since ||n|| <= 1 for a state."""
SPECTRUM_TOL = 1e-8
"""Bound on the rank-one certificate ||rho - (1-p)/D 1 - p vv^dag||_F, and the slack on p's range.

A Frobenius residual, so at least the largest distance of an
eigenvalue from the DPS pattern (Weyl).  Absolute: unit trace fixes the
scale, since every eigenvalue of a state lies in [0, 1].
"""


def c_norm(D: int) -> float:
    """The expansion constant c_D = sqrt(D(D-1)/2); D not an integer >= 2 raises InvalidDimensionError."""
    _require_dimension(D, 2, "a coherence vector")
    return math.sqrt(D * (D - 1) / 2.0)


@dataclass(frozen=True)
class CoherenceVector:
    """Real expansion vector of a state over the :func:`generate_basis` generators of su(D).

    Raises:
        InvalidDimensionError: dim not an integer >= 2.
        DimensionMismatchError: n does not have length dim^2 - 1.
    """

    dim: int
    n: np.ndarray

    def __post_init__(self):
        _require_dimension(self.dim, 2, "a coherence vector")
        v = np.asarray(self.n, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "n", v)
        if v.shape != (self.dim * self.dim - 1,):
            raise DimensionMismatchError(
                f"coherence vector for dim {self.dim} needs length {self.dim**2 - 1}, got {v.shape}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.n))

    def dot(self, other: "CoherenceVector") -> float:
        return float(self.n @ other.n)


def _coordinates(M: np.ndarray) -> np.ndarray:
    """Re Tr(M lambda_i) of a Hermitian M in the generator order, in O(D^2).

    2 Re M_jk, then -2 Im M_jk, over j < k in the row-major order a mask
    reads; then sqrt(2/(l(l+1))) (sum_{a<l} M_aa - l M_ll), l = 1..D-1.
    """
    r, l = np.arange(M.shape[-1]), np.arange(1.0, M.shape[-1])
    upper, d = M[r[:, None] < r], M.diagonal().real
    diagonal = np.sqrt(2.0 / (l * (l + 1.0))) * (np.cumsum(d)[:-1] - l * d[1:])
    return np.concatenate((2.0 * upper.real, -2.0 * upper.imag, diagonal))


def _operator(x: np.ndarray) -> np.ndarray:
    """sum_i x_i lambda_i over the last axis of x, in O(D^2) per vector.

    The inverse of :func:`_coordinates` up to its factor 2: entry (j, k),
    j < k, is x_sym - i x_anti and (k, j) its conjugate; diagonal entry a
    is sum_{l>a} w_l - a w_a, with w_l = sqrt(2/(l(l+1))) x_diag,l.
    """
    D = math.isqrt(x.shape[-1] + 1)
    m, r, l = D * (D - 1) // 2, np.arange(D), np.arange(1.0, D)
    w = np.sqrt(2.0 / (l * (l + 1.0))) * x[..., 2 * m :]
    A = np.zeros(x.shape[:-1] + (D, D), dtype=complex)
    A[..., r[:, None] < r] = x[..., :m] - 1j * x[..., m : 2 * m]
    A += A.conj().swapaxes(-1, -2)
    A[..., r[:-1], r[:-1]] = np.cumsum(w[..., ::-1], axis=-1)[..., ::-1]
    A[..., r[1:], r[1:]] -= l * w
    return A


def generate_basis(D: int) -> np.ndarray:
    """The generalized Gell-Mann generators of su(D), one read-only (D^2-1, D, D) stack.

    Generators satisfy Tr(lambda_i lambda_j) = 2 delta_ij.  Ordering: the
    D(D-1)/2 symmetric pair matrices, then the D(D-1)/2 antisymmetric
    pair matrices, then the D-1 diagonal ones; pair blocks run
    lexicographically in (row, col).  Built uncached, in O(D^4), by the
    index map of :func:`from_coherence`; no library function calls it.
    Raises InvalidDimensionError unless D is an integer >= 2.
    """
    _require_dimension(D, 2, "a basis")
    G = _operator(np.eye(D * D - 1))
    G.setflags(write=False)
    return G


def to_coherence(rho: DensityMatrix) -> CoherenceVector:
    """Extract n_i = sqrt(D/(2(D-1))) Tr(rho lambda_i).

    Raises:
        InvalidDimensionError: D not an integer >= 2.
    """
    D = rho.dim
    _require_dimension(D, 2, "a coherence vector")
    return CoherenceVector(dim=D, n=math.sqrt(D / (2.0 * (D - 1))) * _coordinates(rho.matrix))


def from_coherence(n: CoherenceVector) -> DensityMatrix:
    """Synthesize rho = (1/D)(1 + c_D n.lambda).

    Hermitian with unit trace by construction; positivity is not
    guaranteed for arbitrary n.
    """
    D = n.dim
    return DensityMatrix((np.eye(D, dtype=complex) + c_norm(D) * _operator(n.n)) / D)


def _star_factor(D: int) -> float:
    """c_D/(D-2), the factor of the star product; UndefinedForDim2Error at D = 2."""
    if D == 2:
        raise UndefinedForDim2Error("the star product carries a 1/(D-2) factor; undefined at D=2")
    return c_norm(D) / (D - 2)


def _star_operator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """c_D/(D-2) ({A, B}/2 - Tr(AB)/D 1), the operator of the star product.

    Completeness of the generators turns sum_k (1/4) Tr({A, B} l_k) l_k
    into {A, B}/2 - Tr(AB)/D 1; BA = (AB)^dag for Hermitian A and B.
    """
    D = A.shape[0]
    factor = _star_factor(D)
    AB = A @ B
    S = (AB + AB.conj().T) / 2.0 - (np.trace(AB).real / D) * np.eye(D)
    return factor * S


def star(a: CoherenceVector, b: CoherenceVector) -> CoherenceVector:
    """Symmetric star product (a*b)_k = c_D/(D-2) sum d_ijk a_i b_j.

    Pure-state vectors are its fixed points: n*n = n.  Evaluated on the
    operators a.lambda and b.lambda, then read back by the index map.

    Raises:
        UndefinedForDim2Error: the 1/(D-2) factor is singular at D=2.
        DimensionMismatchError: a and b differ in dimension.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"star product of dim {a.dim} and dim {b.dim} vectors")
    S = _star_operator(_operator(a.n), _operator(b.n))
    return CoherenceVector(dim=a.dim, n=0.5 * _coordinates(S))


def _ladder(A: np.ndarray, r_max: int) -> list[float]:
    _require_count(r_max, "ladder depth r_max", 0)
    _star_factor(A.shape[0])  # D = 2 has no ladder, not even at r_max = 0
    out, V = [], A
    for r in range(r_max + 1):
        if r:
            V = _star_operator(A, V)
        out.append(0.5 * float(np.vdot(V, A).real))  # v.n = Tr(V A)/2
    return out


def invariant_ladder(n: CoherenceVector, r_max: int) -> list[float]:
    """Unitary invariants ([n*]^r n).n for r = 0..r_max.

    For a depolarized pure state with polarization p the r-th entry is
    p^(r+2), so the first two already pin down |p| and its sign.

    Raises:
        DomainError: r_max not an integer >= 0 (not 2.5 or a bool).
        UndefinedForDim2Error.
    """
    return _ladder(_operator(n.n), r_max)


@dataclass(frozen=True)
class DpsMeasurement:
    """What the DPS test compares with its tolerances.

    ``operator`` is A = n.lambda = (D rho - 1)/c_D, ``norm`` ||n||, ``p``
    ||n|| signed like (n*n).n and ``star_residual`` ||n*n - p n||; at D = 2
    (no star product, and +-n both pure) p = ||n||, residual None.
    ``purification`` is the unit vector v read from one column of
    B = rho - (1-p)/D 1, which is p vv^dag for a DPS, and ``certificate``
    is the rank-one residual ||B - p vv^dag||_F.  By Weyl's inequality it
    bounds how far every eigenvalue of rho lies from the DPS pattern
    {(1-p)/D + p, (1-p)/D x(D-1)}.  :meth:`verdict` decides membership;
    :meth:`state` is the one route to the DPS (p, purification).
    """

    operator: np.ndarray
    norm: float
    p: float
    star_residual: float | None
    certificate: float
    purification: np.ndarray

    def ladder(self, r_max: int) -> list[float]:
        """:func:`invariant_ladder` of this state, from its operator."""
        return _ladder(self.operator, r_max)

    def verdict(self, tol_star: float = STAR_TOL, tol_spectrum: float = SPECTRUM_TOL) -> float | None:
        """p clamped into [p_min(D), 1], or None.

        Membership needs n*n = p n within ``tol_star`` (D > 2), the
        certificate within ``tol_spectrum`` and p in [p_min(D), 1]
        widened by ``tol_spectrum``.

        Raises:
            DomainError: a tolerance NaN, infinite or negative.
        """
        _require_tolerance(tol_star, "tol_star")
        _require_tolerance(tol_spectrum, "tol_spectrum")
        lo = p_min(self.operator.shape[0])
        if self.star_residual is not None and not self.star_residual <= tol_star:
            return None
        if not (self.certificate <= tol_spectrum and lo - tol_spectrum <= self.p <= 1.0 + tol_spectrum):
            return None
        return min(max(self.p, lo), 1.0)

    def state(self) -> DpsState:
        """``make_dps(purification, p)`` at the p of the default :meth:`verdict`, or NotDPSError."""
        p = self.verdict()
        if p is None:
            raise NotDPSError("input is not a depolarized pure state within tolerance")
        return make_dps(self.purification, p)


def measure_dps(rho: DensityMatrix) -> DpsMeasurement:
    """:class:`DpsMeasurement` of ``rho``: one D x D product, the rest O(D^2), no eigensolve.

    With A^2 the one product: (n*n).n has the sign of Tr(A^3), and
    n*n - p n is c_D/(D-2) (A^2 - Tr(A^2)/D 1 - p(D-2)/c_D A), the star
    operator of A with itself less p A.  The purification is column j of
    B = rho - (1-p)/D 1 with j maximising p B_jj, signed by p and
    normalised; where that column vanishes (p = 0 and rho maximally
    mixed) it is the unit vector e_j.

    Raises:
        InvalidDimensionError: D not an integer >= 2.
    """
    D = rho.dim
    _require_dimension(D, 2, "a coherence vector")
    c = c_norm(D)
    eye = np.eye(D)
    A = (D * rho.matrix - eye) / c
    A.setflags(write=False)
    norm = float(np.linalg.norm(A)) / math.sqrt(2.0)
    p, residual = norm, None
    if D > 2:
        A2 = A @ A
        if np.vdot(A2, A).real < 0.0:
            p = -norm
        R = A2 - (p * (D - 2) / c) * A - (2.0 * norm * norm / D) * eye
        residual = _star_factor(D) * math.sqrt(np.vdot(R, R).real / 2.0)
    B = rho.matrix - ((1.0 - p) / D) * eye
    d = rho.matrix.diagonal().real  # p B_jj = p rho_jj - p(1-p)/D
    j = int(d.argmax() if p >= 0.0 else d.argmin())
    column = B[:, j] if p >= 0.0 else -B[:, j]
    size = math.sqrt(np.vdot(column, column).real)
    if size > 0.0:
        v = column / size
    else:
        v = np.zeros(D, dtype=complex)
        v[j] = 1.0
    v.setflags(write=False)
    E = B - (p * v)[:, None] * v.conj()
    return DpsMeasurement(A, norm, p, residual, math.sqrt(np.vdot(E, E).real), v)


def dps_test(rho: DensityMatrix, basis: np.ndarray | None = None) -> float | None:
    """Decide whether ``rho`` is a depolarized pure state; return its p.

    ``measure_dps(rho).verdict()``: the star condition n*n = p n (D >= 3,
    with the sign of p read off n*n.n = p^3) within STAR_TOL, the rank-one
    certificate ||rho - (1-p)/D 1 - p vv^dag||_F within SPECTRUM_TOL, and
    p in [p_min(D), 1] widened by SPECTRUM_TOL; returns p clamped into
    [p_min(D), 1], or None if any check fails.  The certificate bounds
    every eigenvalue's distance from the DPS pattern, so positivity
    needs no separate check, and no eigensolve is made.  At D = 2 the
    sign is unresolvable and p = ||n|| >= 0.  Other tolerances go
    through ``measure_dps(rho).verdict(tol_star, tol_spectrum)``, as
    ``dps analyze --tol-star/--tol-spectrum`` does.

    Args:
        basis: optional :func:`generate_basis` stack; only its dimension
            is checked against ``rho``.

    Raises:
        DimensionMismatchError, InvalidDimensionError.
    """
    if basis is not None and basis.shape[-1] != rho.dim:
        raise DimensionMismatchError(f"basis dim {basis.shape[-1]} does not match state dim {rho.dim}")
    return measure_dps(rho).verdict()
