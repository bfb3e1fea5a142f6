"""Depolarized pure states and closed-form distance measures.

A depolarized pure state (DPS) is ``(1-p) 1/D + p |psi><psi|`` with
``-1/(D-1) <= p <= 1``.  For two DPS the fidelity and trace distance
admit closed forms in (D, p, q, f) where f = |<psi|phi>|^2; both are
implemented exactly as derived and every public entry point is paired
with a brute-force oracle so a formula can never drift silently.

Note on the equal-polarization case: the general trace-distance formula
reduces at p = q to |p| sqrt(1-f) (the eigenvalues of a projector
difference are +-sqrt(1-f)), not (1-f)|p|; the latter shorthand is a
common slip and holds only at f in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InequalityViolationError,
    InvalidDimensionError,
    NonUnitVectorError,
    NotPSDError,
    PolarizationOutOfRangeError,
)
from .linalg import DensityMatrix, psd_roots, sqrt_psd, trace_norm

UNIT_TOL = 1e-12
RANGE_SLACK = 1e-12
CHAIN_TOL = 1e-9


def p_min(D: int) -> float:
    """Lower end of the polarization range, -1/(D-1)."""
    return -1.0 / (D - 1)


def p_min_cp(D: int) -> float:
    """Lower end reachable by a completely positive map, -1/(D^2-1)."""
    return -1.0 / (D * D - 1)


@dataclass(frozen=True)
class DpsState:
    """Polarization p plus the pure state it decorates."""

    dim: int
    pure: np.ndarray
    p: float

    def to_matrix(self) -> DensityMatrix:
        """(1-p) 1/D + p |psi><psi|."""
        D = self.dim
        proj = np.outer(self.pure, self.pure.conj())
        return DensityMatrix((1.0 - self.p) * np.eye(D) / D + self.p * proj)

    def spectrum(self) -> np.ndarray:
        """Closed-form eigenvalues {(1-p)/D + p, (1-p)/D x(D-1)}, ascending."""
        vals = np.full(self.dim, (1.0 - self.p) / self.dim)
        vals[-1] += self.p
        return np.sort(vals)


def make_dps(pure, p: float) -> DpsState:
    """Validate and build a DpsState.

    Raises:
        NonUnitVectorError: purification norm off 1 beyond 1e-12.
        PolarizationOutOfRangeError: p outside [-1/(D-1), 1].
        InvalidDimensionError: vector shorter than 2.
    """
    v = np.asarray(pure, dtype=complex).reshape(-1)
    D = v.shape[0]
    if D < 2:
        raise InvalidDimensionError(f"pure state needs dimension >= 2, got {D}")
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NonUnitVectorError(f"norm {nrm:.15g} differs from 1 beyond {UNIT_TOL:.1e}")
    p = float(p)
    lo = p_min(D)
    if not lo - RANGE_SLACK <= p <= 1.0 + RANGE_SLACK:
        raise PolarizationOutOfRangeError(f"p={p:.15g} outside [{lo:.15g}, 1] for D={D}")
    v = v.copy()
    v.setflags(write=False)
    return DpsState(dim=D, pure=v, p=min(max(p, lo), 1.0))


def pure_overlap(rho: DpsState, sigma: DpsState) -> float:
    """f = |<psi|phi>|^2, recomputed from the stored purifications."""
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    return float(abs(np.vdot(rho.pure, sigma.pure)) ** 2)


def _clip(x: float, lo: float, hi: float, what: str) -> float:
    if x < lo - RANGE_SLACK or x > hi + RANGE_SLACK:
        raise InequalityViolationError(f"{what}={x:.17g} outside [{lo:g}, {hi:g}] beyond slack")
    return min(max(x, lo), hi)


def fidelity_closed(rho: DpsState, sigma: DpsState) -> float:
    """Closed-form fidelity F between two DPS with a shared dimension.

    Evaluates the four-parameter (a, b, c, d) expression for sqrt(F) and
    squares it.  Oracle-gated in the test suite at 1e-8 over the full
    (D, p, q, f) range.

    On span{psi, phi} the eigenvalues half +- sqrt(disc) multiply to
    a (1 + (D-1)p)(1 + (D-1)q)/D^2; the smaller is taken as that over the
    larger, since the difference cancels to ~eps and its root to ~sqrt(eps).

    Raises:
        DimensionMismatchError.
    """
    f = pure_overlap(rho, sigma)
    D, p, q = rho.dim, rho.p, sigma.p

    a = (1.0 - p) * (1.0 - q) / (D * D)
    b = (1.0 - p) * q / D
    root = math.sqrt(max(((D - 1.0) * p + 1.0) * (1.0 - p), 0.0))
    c = (q / D) * (root - (1.0 - p))
    d = ((1.0 - q + D * q * f) / (D * D)) * ((D - 2.0) * p + 2.0 - 2.0 * root) + (
        2.0 * (1.0 - q) / (D * D)
    ) * (root - (1.0 - p))

    half = (2.0 * a + (b + 2.0 * c) * f + d + b * (1.0 - f)) / 2.0
    disc = ((b + 2.0 * c) * f + d - b * (1.0 - f)) ** 2 / 4.0 + (b + c) ** 2 * (1.0 - f) * f
    upper = max(half + math.sqrt(max(disc, 0.0)), 0.0)
    det = a * (1.0 + (D - 1.0) * p) * (1.0 + (D - 1.0) * q) / (D * D)
    lower = det / upper if upper > 0.0 else 0.0
    sqrt_f = (D - 2.0) * math.sqrt(max(a, 0.0)) + math.sqrt(upper) + math.sqrt(max(lower, 0.0))
    return _clip(sqrt_f * sqrt_f, 0.0, 1.0, "fidelity")


def fidelity_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Brute-force Uhlmann fidelity Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    Raises:
        NotPSDError: either input has an eigenvalue below -1e-10.
        DimensionMismatchError.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    s = sqrt_psd(rho.matrix)
    inner = s @ sigma.matrix @ s
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    if float(np.min(vals)) < -1e-10:
        raise NotPSDError(f"inner matrix eigenvalue {np.min(vals):.3e} below -1e-10")
    # unit-trace inputs bound ||inner|| by 1, and so its roundoff by ~eps
    return _clip(float(np.sum(psd_roots(vals, 1.0))) ** 2, 0.0, 1.0, "fidelity")


def trace_distance_closed(rho: DpsState, sigma: DpsState) -> float:
    """Closed-form trace distance between two DPS.

    (1/2)[(D-2)|q-p|/D + sum_pm |u pm r|] with u = (q-p)(1-D/2)/D and
    r = sqrt(((p+q-2qf)/2)^2 + q^2 (1-f) f); the radicand equals the
    manifestly symmetric (p+q)^2/4 - pqf.  At p = q this collapses to
    |p| sqrt(1-f).

    Raises:
        DimensionMismatchError.
    """
    f = pure_overlap(rho, sigma)
    D, p, q = rho.dim, rho.p, sigma.p
    u = (q - p) * (1.0 - D / 2.0) / D
    r = math.sqrt(max(((p + q - 2.0 * q * f) / 2.0) ** 2 + q * q * (1.0 - f) * f, 0.0))
    dist = 0.5 * ((D - 2.0) * abs(q - p) / D + abs(u + r) + abs(u - r))
    return _clip(dist, 0.0, 1.0, "trace distance")


def trace_distance_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Brute-force (1/2) ||rho - sigma||_tr.

    Raises:
        DimensionMismatchError.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    return _clip(0.5 * trace_norm(rho.matrix - sigma.matrix), 0.0, 1.0, "trace distance")


@dataclass(frozen=True)
class DistanceReport:
    """All four measures between one pair of DPS."""

    fidelity: float
    trace_distance: float
    bures: float
    angle: float


def distance_report(rho: DpsState, sigma: DpsState) -> DistanceReport:
    """Fidelity, trace distance, Bures metric and Bures angle.

    Verifies the Fuchs-van-de-Graaf chain B^2/2 <= D <= sqrt(1-F)
    before returning; a violation beyond 1e-9 means an implementation
    bug, not bad input.

    Raises:
        InequalityViolationError: chain broken beyond tolerance.
        DimensionMismatchError.
    """
    F = fidelity_closed(rho, sigma)
    dist = trace_distance_closed(rho, sigma)
    sqrt_F = math.sqrt(F)
    bures = math.sqrt(max(2.0 - 2.0 * sqrt_F, 0.0))
    angle = math.acos(min(max(sqrt_F, 0.0), 1.0))
    lower = bures * bures / 2.0
    upper = math.sqrt(max(1.0 - F, 0.0))
    # upper bound tested as D^2 <= 1-F: near F = 1 the sqrt turns one
    # ulp of rounding in F into ~1e-8 and would flag phantom violations
    # for near-identical states; squaring keeps the check exact
    if dist < lower - CHAIN_TOL or dist * dist > 1.0 - F + CHAIN_TOL:
        raise InequalityViolationError(
            f"Fuchs chain broken: B^2/2={lower:.17g}, D={dist:.17g}, sqrt(1-F)={upper:.17g}"
        )
    return DistanceReport(fidelity=F, trace_distance=dist, bures=bures, angle=angle)
