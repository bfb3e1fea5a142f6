"""Depolarized pure states and closed-form distance measures.

A depolarized pure state (DPS) is ``(1-p) 1/D + p |psi><psi|`` with
``-1/(D-1) <= p <= 1``.  For two DPS the fidelity and trace distance
admit closed forms in (D, p, q, f) where f = |<psi|phi>|^2, the fidelity
a sum of nonnegative terms in the DPS eigenvalues; every public entry
point is paired with a brute-force oracle so a formula can never drift
silently.

Each closed form is written once, as a kernel of (D, p, q, f) whose
expression text evaluates on Python floats (the per-pair entry points)
and, element by element with the same roundings, on numpy arrays:
``distance_arrays`` evaluates a whole grid of (p, q, f) at once and
applies the per-pair range checks and the Fuchs-van de Graaf chain
check to every element.  A scalar is range-checked by one chained
comparison and never enters the array machinery, so a per-pair call
pays for its arithmetic, not for numpy dispatch.

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
    FOutOfRangeError,
    InequalityViolationError,
    NonUnitVectorError,
    NotPSDError,
    PolarizationOutOfRangeError,
)
from .linalg import DensityMatrix, _psd_factor, _psd_roots, _require_dimension, trace_norm

__all__ = [
    "DistanceReport",
    "DpsState",
    "bures_from_fidelity",
    "distance_arrays",
    "distance_report",
    "fidelity_closed",
    "fidelity_oracle",
    "make_dps",
    "p_min",
    "p_min_cp",
    "pure_overlap",
    "trace_distance_closed",
    "trace_distance_oracle",
]

UNIT_TOL = 1e-12
RANGE_SLACK = 1e-12
"""Slack of :func:`_in_range`.  Absolute: each range it widens (of p, f, F, omega, beta2)
is fixed and of order 1, and that range sets the scale."""
CHAIN_TOL = 1e-9


def p_min(D: int) -> float:
    """Lower end of the polarization range, -1/(D-1); D not an integer >= 2 raises InvalidDimensionError."""
    _require_dimension(D, 2, "a polarization range")
    return -1.0 / (D - 1)


def p_min_cp(D: int) -> float:
    """Lower end reachable by a CP map, -1/(D^2-1); D not an integer >= 2 raises InvalidDimensionError."""
    _require_dimension(D, 2, "a polarization range")
    return -1.0 / (D * D - 1)


@dataclass(frozen=True)
class DpsState:
    """Polarization p plus the pure state it decorates.

    ``pure`` is kept as given, with a norm within 1e-12 of 1, and
    ``norm2`` is its <psi|psi> as :func:`make_dps` measured it.
    """

    dim: int
    pure: np.ndarray
    p: float
    norm2: float

    def to_matrix(self) -> DensityMatrix:
        """(1-p) 1/D + p |psi><psi| / <psi|psi>.

        Dividing p by ``norm2`` keeps the trace 1 at every p, and is exact
        when the norm is.
        """
        D = self.dim
        v = self.pure
        proj = np.outer(v, v.conj())
        return DensityMatrix((1.0 - self.p) * np.eye(D) / D + (self.p / self.norm2) * proj)

    def spectrum(self) -> np.ndarray:
        """Closed-form eigenvalues {(1 + (D-1)p)/D, (1-p)/D x(D-1)}, ascending."""
        return _dps_spectrum(self.dim, self.p)


def _dps_levels(D: int, p):
    """(l, t): the DPS eigenvalues (1-p)/D, D-1 times, and (1 + (D-1)p)/D, for float or array p."""
    return (1.0 - p) / D, (1.0 + (D - 1.0) * p) / D


def _dps_spectrum(D: int, p: float) -> np.ndarray:
    """Eigenvalues of a DPS at dimension D and polarization p, ascending."""
    flat, top = _dps_levels(D, p)
    return np.sort(np.append(np.full(D - 1, flat), top))


# ---------------------------------------------------------------------------
# float-or-array helpers: the math route on floats, the numpy route on
# arrays, with the same rounding element by element


def _root(x):
    """sqrt(max(x, 0))."""
    if type(x) is float:
        return 0.0 if x < 0.0 else math.sqrt(x)
    return np.sqrt(np.maximum(x, 0.0))


def _acos(x):
    if type(x) is float:
        return math.acos(x)
    # numpy's vectorized arccos differs from libm's acos in the last bit on
    # some inputs, so arrays map math.acos to match the per-pair route
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.acos, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _first_failure(ok, *values):
    """None where `ok` holds everywhere, else each value at the first failing element."""
    if ok is True:
        return None
    if not isinstance(ok, np.ndarray):
        return None if ok else values
    if ok.all():
        return None
    i = int(np.argmin(ok))
    return tuple(float(np.broadcast_to(v, ok.shape).flat[i]) for v in values)


def _in_range(x, lo: float, hi: float, error: type, what: str):
    """x clamped into [lo, hi] after a check against [lo, hi] widened by RANGE_SLACK.

    A scalar is checked by one chained comparison and returned as a
    float; an array is checked element by element.  NaN fails, and
    ``error`` names the first failing value.
    """
    if not isinstance(x, np.ndarray):
        x = float(x)
        if not lo - RANGE_SLACK <= x <= hi + RANGE_SLACK:
            raise error(f"{what}={x:.17g} outside [{lo:.15g}, {hi:.15g}]")
        return lo if x < lo else hi if x > hi else x
    bad = _first_failure((x >= lo - RANGE_SLACK) & (x <= hi + RANGE_SLACK), x)
    if bad is not None:
        raise error(f"{what}={bad[0]:.17g} outside [{lo:.15g}, {hi:.15g}]")
    return np.minimum(np.maximum(x, lo), hi)


def _unit_vector(v) -> tuple[np.ndarray, float]:
    """(v as a flat complex array, <v|v>), checked to have norm 1 within UNIT_TOL (NaN and inf fail)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm2 = np.vdot(v, v).real
    nrm = math.sqrt(norm2)
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise NonUnitVectorError(f"norm {nrm:.15g} differs from 1 beyond {UNIT_TOL:.1e}")
    return v, float(norm2)


def _polarization(p, D: int):
    """p checked against [-1/(D-1), 1] and clamped there."""
    return _in_range(p, p_min(D), 1.0, PolarizationOutOfRangeError, "p")


def _cp_polarization(p, D: int, what: str = "p"):
    """p checked against the CP range [-1/(D^2-1), 1] and clamped there."""
    return _in_range(p, p_min_cp(D), 1.0, PolarizationOutOfRangeError, what)


def _clip(x, what: str):
    """x in [0, 1]; outside it beyond slack is a bug in the formula, not bad input."""
    return _in_range(x, 0.0, 1.0, InequalityViolationError, what)


def make_dps(pure, p: float) -> DpsState:
    """Validate and build a DpsState.

    Raises:
        NonUnitVectorError: purification norm off 1 beyond 1e-12, or not finite.
        PolarizationOutOfRangeError: p outside [-1/(D-1), 1].
        InvalidDimensionError: vector shorter than 2.
    """
    v = np.asarray(pure, dtype=complex).reshape(-1)
    D = v.shape[0]
    _require_dimension(D, 2, "a pure state")
    v, norm2 = _unit_vector(v)
    v = v.copy()
    p = _polarization(float(p), D)
    v.setflags(write=False)
    return DpsState(dim=D, pure=v, p=p, norm2=norm2)


def pure_overlap(rho: DpsState, sigma: DpsState) -> float:
    """f = |<psi|phi>|^2 / (<psi|psi> <phi|phi>): the overlap of the normalised purifications.

    The norms are the ``norm2`` that :func:`make_dps` measured, so f
    costs one ``vdot``, and purifications up to 1e-12 off unit norm give
    an f within roundoff of [0, 1].
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    amp = float(abs(np.vdot(rho.pure, sigma.pure)))
    return amp * amp / (rho.norm2 * sigma.norm2)


def _fidelity(D: int, p, q, f):
    """Closed-form fidelity of (D, p, q, f), before the range check."""
    lp, tp = _dps_levels(D, p)
    lq, tq = _dps_levels(D, q)
    span = (tp * tq + lp * lq) * f + (tp * lq + lp * tq) * (1.0 - f) + 2.0 * _root(lp * tp) * _root(lq * tq)
    sqrt_f = (D - 2.0) * _root(lp * lq) + _root(span)
    return sqrt_f * sqrt_f


def fidelity_closed(rho: DpsState, sigma: DpsState) -> float:
    """Closed-form fidelity F between two DPS with a shared dimension.

    With (l, t) = ((1-p)/D, (1 + (D-1)p)/D) the DPS eigenvalues, both
    states are scalar off span{psi, phi}, and on the span the 2 x 2
    fidelity is Tr rho_2 sigma_2 + 2 sqrt(det rho_2 det sigma_2)
    (Hubner, Phys. Lett. A 163, 239 (1992)), so
    sqrt(F) = (D-2) sqrt(l_p l_q) + sqrt((t_p t_q + l_p l_q) f
    + (t_p l_q + l_p t_q)(1-f) + 2 sqrt(l_p t_p) sqrt(l_q t_q)): no
    term cancels.  The tests hold it to 1e-12 against a factored
    Uhlmann oracle and a 40-digit evaluation.

    Raises:
        DimensionMismatchError.
    """
    f = pure_overlap(rho, sigma)
    return _clip(_fidelity(rho.dim, rho.p, sigma.p, f), "fidelity")


def fidelity_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Brute-force Uhlmann fidelity Tr[sqrt(sqrt(rho) sigma sqrt(rho))]^2.

    With rho = V diag(lam) V^dag and W = V diag(sqrt(lam)), so that
    sqrt(rho) = W V^dag, the inner matrix sqrt(rho) sigma sqrt(rho) is
    V (W^dag sigma W) V^dag: its eigenvalues are those of W^dag sigma W,
    and one ``eigvalsh`` of that gives them.

    Raises:
        NotPSDError: rho has an eigenvalue below -1e-10 times its largest
            (as in :func:`~dpstates.linalg.sqrt_psd`), or
            sqrt(rho) sigma sqrt(rho) one below -1e-10.
        DimensionMismatchError.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    V, roots = _psd_factor(rho.matrix)
    W = V * roots
    vals = np.linalg.eigvalsh(W.conj().T @ sigma.matrix @ W)
    # unit-trace inputs bound ||W^dag sigma W|| by 1, so this check is absolute and its roundoff ~eps
    if vals.size and vals[0] < -1e-10:
        raise NotPSDError(f"inner matrix eigenvalue {vals[0]:.3e} below -1e-10")
    return _clip(float(np.sum(_psd_roots(vals, 1.0))) ** 2, "fidelity")


def _trace_distance(D: int, p, q, f):
    """Closed-form trace distance of (D, p, q, f), before the range check."""
    u = (q - p) * (1.0 - D / 2.0) / D
    h = (p + q - 2.0 * q * f) / 2.0
    r = _root(h * h + q * q * (1.0 - f) * f)
    return 0.5 * ((D - 2.0) * abs(q - p) / D + abs(u + r) + abs(u - r))


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
    return _clip(_trace_distance(rho.dim, rho.p, sigma.p, f), "trace distance")


def trace_distance_oracle(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Brute-force (1/2) ||rho - sigma||_tr.

    Raises:
        DimensionMismatchError.
    """
    if rho.dim != sigma.dim:
        raise DimensionMismatchError(f"dims {rho.dim} and {sigma.dim} differ")
    return _clip(0.5 * trace_norm(rho.matrix - sigma.matrix), "trace distance")


@dataclass(frozen=True)
class DistanceReport:
    """All four measures between one pair of DPS; from ``distance_arrays``,
    each field is an array over the pairs."""

    fidelity: float
    trace_distance: float
    bures: float
    angle: float


def _bures(F):
    """Bures metric sqrt(2 - 2 sqrt F) of a fidelity F in [0, 1]."""
    return _root(2.0 - 2.0 * _root(F))


def bures_from_fidelity(F):
    """(Bures metric sqrt(2 - 2 sqrt F), Bures angle acos sqrt F) of a fidelity F in [0, 1].

    F is a float or an array, checked against [0, 1] within 1e-12 and
    clamped there.  The CLI's oracle report takes its two values from
    here; the closed-form reports use the same two expressions, and fig1
    only the first.

    Raises:
        FOutOfRangeError: F (some element of it) NaN or outside [0, 1].
    """
    F = _in_range(F, 0.0, 1.0, FOutOfRangeError, "F")
    return _bures(F), _acos(_root(F))


def _measures(D: int, p, q, f):
    """(F, T, Bures metric) of (D, p, q, f), after the range and chain checks.

    Raises:
        InequalityViolationError: F or T outside [0, 1], or
        B^2/2 <= T <= sqrt(1-F) broken beyond 1e-9, at some element.
    """
    F = _clip(_fidelity(D, p, q, f), "fidelity")
    dist = _clip(_trace_distance(D, p, q, f), "trace distance")
    bures = _bures(F)
    lower = bures * bures / 2.0
    # upper bound tested as T^2 <= 1-F: near F = 1 the sqrt turns one
    # ulp of rounding in F into ~1e-8 and would flag phantom violations
    # for near-identical states; squaring keeps the check exact
    bad = _first_failure((dist >= lower - CHAIN_TOL) & (dist * dist <= 1.0 - F + CHAIN_TOL), lower, dist, F)
    if bad is not None:
        low, d, fid = bad
        raise InequalityViolationError(
            f"Fuchs chain broken: B^2/2={low:.17g}, D={d:.17g}, sqrt(1-F)={_root(1.0 - fid):.17g}"
        )
    return F, dist, bures


def _report(F, dist, bures) -> DistanceReport:
    """The checked measures with the Bures angle acos sqrt F."""
    return DistanceReport(fidelity=F, trace_distance=dist, bures=bures, angle=_acos(_root(F)))


def distance_report(rho: DpsState, sigma: DpsState) -> DistanceReport:
    """Fidelity, trace distance, Bures metric and Bures angle.

    The closed forms of ``fidelity_closed`` and ``trace_distance_closed``
    on one overlap f.  Verifies the Fuchs-van-de-Graaf chain
    B^2/2 <= D <= sqrt(1-F) before returning; a violation beyond 1e-9
    means an implementation bug, not bad input.

    Raises:
        InequalityViolationError: chain broken beyond tolerance.
        DimensionMismatchError.
    """
    return _report(*_measures(rho.dim, rho.p, sigma.p, pure_overlap(rho, sigma)))


def distance_arrays(D: int, p, q, f) -> DistanceReport:
    """``distance_report`` over arrays of (p, q, f) at one dimension D.

    p and q are the two polarizations and f = |<psi|phi>|^2; the three
    broadcast against each other and every field of the report is a
    float array of the broadcast shape (at least one-dimensional).  Each
    element equals, bit for
    bit, ``distance_report`` on ``make_dps`` states with that p, q and
    overlap, and passes the same checks: p and q in [-1/(D-1), 1] and f
    in [0, 1] (each within 1e-12, NaN rejected), F and T in [0, 1], and
    the Fuchs-van de Graaf chain.  One failing element raises for the
    whole call.

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        PolarizationOutOfRangeError: some p or q outside its range.
        FOutOfRangeError: some f outside [0, 1].
        InequalityViolationError: some element leaves [0, 1] or breaks the chain.
    """
    return _report(*_array_measures(D, p, q, f))


def _array_measures(D: int, p, q, f):
    """(F, T, Bures metric) arrays of ``distance_arrays``, after its checks, without the angle."""
    _require_dimension(D, 2, "distance_arrays")
    p, q, f = np.broadcast_arrays(*(np.array(x, dtype=float, ndmin=1) for x in (p, q, f)))
    p, q = _polarization(p, D), _polarization(q, D)
    # f is used as given, as the per-pair route uses pure_overlap's value
    _in_range(f, 0.0, 1.0, FOutOfRangeError, "f")
    return _measures(D, p, q, f)
