"""Bipartite structure of depolarized pure states.

Everything here exploits one fact: depolarization commutes with the
Schmidt decomposition of the underlying pure state, so marginals,
partial-transpose spectra and negativity of a DPS are closed-form
functions of (p, Schmidt coefficients, dA, dB).  Each closed form is
cross-checked against dense partial-trace / partial-transpose oracles
in the test suite.

A Schmidt vector is checked and evaluated as a list of Python floats,
with one array built per result: the vectors have a handful of entries,
where numpy dispatch would cost more than the arithmetic.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from .bloch import measure_dps
from .channels import maximally_entangled, twirl_p
from .errors import (
    DimensionMismatchError,
    DomainError,
    AmbiguousAtPZeroError,
    InternalCheckError,
    InvalidSchmidtVectorError,
    FOutOfRangeError,
    SubsystemOrderError,
)
from .linalg import DensityMatrix, _require_dimension, _require_tolerance
from .metrics import DpsState, _in_range, _polarization, _unit_vector, make_dps, p_min

__all__ = [
    "ConsistencyResult",
    "EntanglementReport",
    "SchmidtForm",
    "consistency_check",
    "isotropic",
    "negativity",
    "pair_threshold",
    "pt_spectrum_closed",
    "reduced_spectrum_dps",
    "schmidt_dps",
    "schmidt_pure",
    "two_qubit_canonical",
]

NEG_TOL = 1e-9
"""Partial-transpose eigenvalues above -NEG_TOL count as 0.  Absolute: unit trace fixes the
scale, since the partial transpose of a state has its eigenvalues in [-1/2, 1]."""
P_TOL = 1e-8
"""Below |p| = P_TOL the purification is not unique.  Absolute: |p| <= 1 fixes the scale."""
SCHMIDT_SUM_TOL = 1e-10
CONSISTENCY_TOL = 1e-8
"""Slack on marginal eigenvalues and on p b_j^2, a difference of them.  Absolute: unit trace
fixes the scale, since every marginal eigenvalue lies in [0, 1]."""

PPT_CAVEAT = (
    "entangled=False means no negative partial-transpose eigenvalue was found; "
    "the PPT criterion is sufficient but not necessary for entanglement in general"
)


class SchmidtForm(NamedTuple):
    """Local unitaries and coefficients diagonalizing a bipartite pure state.

    (U (x) V)|psi> = sum_j b_j |j>_A |j>_B with b descending and
    nonnegative.  Under degenerate coefficients U and V are canonical
    only up to rotations inside the degenerate block; compare b and
    reconstructed states, never U, V entrywise.
    """

    dA: int
    dB: int
    b: np.ndarray
    U: np.ndarray
    V: np.ndarray


class EntanglementReport(NamedTuple):
    """Partial-transpose spectrum summary for one DPS."""

    pt_spectrum: np.ndarray
    negativity: float
    negative_count: int
    bound: int
    entangled: bool
    caveat: str = PPT_CAVEAT


def _check_bipartite_dims(dA: int, dB: int) -> tuple[int, int]:
    """(dA, dB) as ints, each checked >= 2 and dA <= dB."""
    dA = _require_dimension(dA, 2, "each subsystem")
    dB = _require_dimension(dB, 2, "each subsystem")
    if dA > dB:
        raise SubsystemOrderError(f"requires dA <= dB, got ({dA}, {dB}); swap the subsystems")
    return dA, dB


def schmidt_pure(psi, dA: int, dB: int) -> SchmidtForm:
    """Schmidt decomposition of a bipartite pure state.

    Singular value decomposition of the dA x dB coefficient matrix
    a[i, mu] = <i, mu|psi>; the phases land in V so every b_j is real
    and nonnegative.

    Raises:
        DimensionMismatchError: length(psi) != dA*dB.
        SubsystemOrderError: dA > dB.
        NonUnitVectorError.
    """
    dA, dB = _check_bipartite_dims(dA, dB)
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.shape[0] != dA * dB:
        raise DimensionMismatchError(f"state length {v.shape[0]} != dA*dB = {dA * dB}")
    A = _unit_vector(v)[0].reshape(dA, dB)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    U = u.conj().T
    V = vh.conj()
    b = s.copy()
    for arr in (b, U, V):
        arr.setflags(write=False)
    return SchmidtForm(dA=dA, dB=dB, b=b, U=U, V=V)


def schmidt_dps(rho_d: DensityMatrix, dA: int, dB: int, *, p_tol: float = P_TOL) -> tuple[float, SchmidtForm]:
    """Recover (p, Schmidt form) of a DPS from its density matrix.

    (p, purification) come from ``measure_dps(rho_d).state()``, so
    membership is decided at the default tolerances, p is clamped into
    [p_min(D), 1] and the purification is the normalised column of
    rho - (1-p)/D 1 that the rank-one certificate already read; no
    eigensolve is made, and the one SVD is that of ``schmidt_pure``.

    Raises:
        DomainError: p_tol NaN, infinite or negative.
        NotDPSError: input fails the DPS membership test.
        AmbiguousAtPZeroError: |p| < p_tol, where every purification is
            consistent with the maximally mixed state.
        DimensionMismatchError: dA * dB is not the dimension of rho_d.
    """
    _require_tolerance(p_tol, "p_tol")
    dA, dB = _check_bipartite_dims(dA, dB)
    if rho_d.dim != dA * dB:
        raise DimensionMismatchError(f"state dim {rho_d.dim} != dA*dB = {dA * dB}")
    dps = measure_dps(rho_d).state()
    if abs(dps.p) < p_tol:
        raise AmbiguousAtPZeroError(f"|p| = {abs(dps.p):.3e} < {p_tol:.1e}: purification not unique")
    return dps.p, schmidt_pure(dps.pure, dA, dB)


def _check_schmidt_vector(b, n_slots: int) -> list[float]:
    """b flattened to Python floats, checked, clipped at 0 and padded with zeros to n_slots."""
    vec = np.asarray(b, dtype=float).reshape(-1).tolist()
    if len(vec) > n_slots:
        raise InvalidSchmidtVectorError(f"{len(vec)} Schmidt coefficients exceed {n_slots} slots")
    # both tests are negated so that NaN fails them
    total = 0.0
    for x in vec:
        if not x >= -1e-12:
            raise InvalidSchmidtVectorError("Schmidt coefficients must be nonnegative")
        total += x * x
    if not abs(total - 1.0) <= SCHMIDT_SUM_TOL:
        raise InvalidSchmidtVectorError(f"sum of b^2 is {total:.15g}, not 1")
    return [x if x > 0.0 else 0.0 for x in vec] + [0.0] * (n_slots - len(vec))


def reduced_spectrum_dps(p: float, b, dX: int) -> np.ndarray:
    """Closed-form marginal spectrum of a DPS, ascending.

    {(1-p)/dX + p b_j^2} over the n = len(b) Schmidt coefficients, in
    any order, plus (dX - n) copies of the flat value (1-p)/dX.

    p is checked against [-1/(2 dX - 1), 1]: the other factor has
    dimension at least 2, so this is the widest range dX alone allows.

    Raises:
        InvalidDimensionError: dX not an integer >= 2.
        PolarizationOutOfRangeError.
        InvalidSchmidtVectorError.
    """
    dX = _require_dimension(dX, 2, "each subsystem")
    _polarization(p, 2 * dX)  # a check only: the caller's p is used unclamped
    flat = (1.0 - p) / dX
    # b comes back padded with zeros to dX slots, which keep the flat value;
    # p * (b_j * b_j) here and (p * b_j) * b_j in pt_spectrum_closed round
    # differently, and the tests hold each spectrum to its own bits
    return np.array(sorted([flat + p * (bj * bj) for bj in _check_schmidt_vector(b, dX)]))


class ConsistencyResult(NamedTuple):
    """Outcome of the marginal consistency check."""

    verdict: str
    reason: str
    p: float | None = None
    b: np.ndarray | None = None

    @property
    def consistent(self) -> bool:
        return self.verdict == "CONSISTENT"


def _rejected(reason: str) -> ConsistencyResult:
    return ConsistencyResult(verdict="REJECTED", reason=reason)


def consistency_check(rhoA: DensityMatrix, rhoB: DensityMatrix) -> ConsistencyResult:
    """Could these two marginals have come from one DPS?

    For dA < dB a DPS gives rho_B the flat eigenvalue (1-p)/dB at least
    dB - dA times: its smallest eigenvalue when p >= 0, its largest when
    p < 0.  So only p = 1 - dB lambda_min(rho_B) and 1 - dB lambda_max(rho_B)
    are tried.  Each fits when the p b_j^2 that rho_A's spectrum then implies
    are of p's sign and, with the flat values, reproduce rho_B's spectrum,
    both on the eigenvalue scale of CONSISTENCY_TOL; where both fit (|p|
    near the tolerance), the closer fit is returned.
    At dA = dB every p in a range gives both marginals one spectrum: equal
    spectra are CONSISTENT with p and b left None, unequal ones REJECTED.
    CONSISTENT is explicitly not a proof of DPS form; the global state is
    not reconstructible from marginals alone.

    Raises:
        SubsystemOrderError: dA > dB.
    """
    dA, dB = rhoA.dim, rhoB.dim
    _check_bipartite_dims(dA, dB)
    specA = np.linalg.eigvalsh(rhoA.matrix)
    specB = np.linalg.eigvalsh(rhoB.matrix)
    if dA == dB:
        if float(np.max(np.abs(specA - specB))) < 10 * CONSISTENCY_TOL:
            return ConsistencyResult("CONSISTENT", "equal spectra at dA = dB fix no polarization")
        return _rejected("at dA = dB a DPS gives both marginals the same spectrum")
    fits = []  # (deviation of the predicted rho_B spectrum, p, b^2 or None at p = 0)
    for p in (1.0 - dB * float(specB[0]), 1.0 - dB * float(specB[-1])):
        if p < p_min(dA * dB) - 1e-6 or p > 1.0 + 1e-6:
            continue
        # p b_j^2 read off rho_A, an eigenvalue difference: dividing by a small p would
        # magnify its roundoff past the slack
        pb_sq = specA - (1.0 - p) / dA
        flat = (1.0 - p) / dB
        predB = np.sort(np.concatenate([flat + pb_sq, np.full(dB - dA, flat)]))
        dev = float(np.max(np.abs(predB - specB)))
        if dev >= 10 * CONSISTENCY_TOL:
            continue
        if abs(p) < CONSISTENCY_TOL:
            flat_dev = max(np.max(np.abs(specA - 1.0 / dA)), np.max(np.abs(specB - 1.0 / dB)))
            if flat_dev < CONSISTENCY_TOL:
                fits.append((dev, 0.0, None))
        elif float(np.min(math.copysign(1.0, p) * pb_sq)) >= -CONSISTENCY_TOL:
            fits.append((dev, p, np.clip(pb_sq / p, 0.0, None)))
    if not fits:
        return _rejected("no polarization and Schmidt vector explain both spectra")
    _, p, b_sq = min(fits, key=lambda fit: fit[0])
    if b_sq is None:
        return ConsistencyResult("CONSISTENT", "both marginals maximally mixed (p = 0)", p=0.0)
    b = np.sort(np.sqrt(b_sq))[::-1].copy()
    b.setflags(write=False)
    return ConsistencyResult("CONSISTENT", "a common (p, Schmidt vector) reproduces both spectra", p=p, b=b)


def pt_spectrum_closed(p: float, b, dA: int, dB: int) -> np.ndarray:
    """Closed-form partial-transpose spectrum of a DPS, ascending.

    With flat = (1-p)/D: {flat + p b_j^2}_j, {flat +- p b_j b_j'}_{j<j'}
    and D - dA^2 copies of flat.

    Raises:
        PolarizationOutOfRangeError: p outside [-1/(D-1), 1].
        InvalidSchmidtVectorError.
        SubsystemOrderError.
    """
    dA, dB = _check_bipartite_dims(dA, dB)
    _polarization(p, dA * dB)  # a check only: the caller's p is used unclamped
    vec = _check_schmidt_vector(b, dA)
    D = dA * dB
    flat = (1.0 - p) / D
    vals = [flat + p * bj * bj for bj in vec]
    for j in range(dA):
        for k in range(j + 1, dA):
            cross = p * vec[j] * vec[k]
            vals.append(flat + cross)
            vals.append(flat - cross)
    vals.extend([flat] * (D - dA * dA))
    vals.sort()
    return np.array(vals)


def negativity(p: float, b, dA: int, dB: int, neg_tol: float = NEG_TOL) -> EntanglementReport:
    """Negativity (sum|lambda| - 1)/(dA - 1) from the closed PT spectrum.

    Eigenvalues in (-neg_tol, 0) count as zero so boundary cases do not
    flip classification under roundoff; when nothing is below the
    threshold the negativity is exactly 0.0.  The verdict is one-sided:
    see the caveat field.

    Raises:
        DomainError: neg_tol NaN, infinite or negative.
        PolarizationOutOfRangeError: p outside [-1/(D-1), 1].
        InvalidSchmidtVectorError.
    """
    _require_tolerance(neg_tol, "neg_tol")
    dA, dB = _check_bipartite_dims(dA, dB)
    spectrum = pt_spectrum_closed(p, b, dA, dB)
    # the spectrum is ascending, so the count is where -neg_tol would go
    count = bisect.bisect_left(spectrum.tolist(), -neg_tol)
    bound = dA * (dA - 1) // 2
    if count > bound:
        raise InternalCheckError(
            f"{count} negative PT eigenvalues exceed the pair bound {bound} for dA={dA}"
        )
    if count == 0:
        neg = 0.0
    else:
        neg = float((np.sum(np.abs(spectrum)) - 1.0) / (dA - 1))
    return EntanglementReport(
        pt_spectrum=spectrum,
        negativity=neg,
        negative_count=count,
        bound=bound,
        entangled=count > 0,
    )


def pair_threshold(b, dA: int, dB: int) -> float:
    """Polarization above which the PT first goes negative.

    1/(D max_{j<j'} b_j b_j' + 1); infinity when at most one coefficient
    is nonzero (product direction, never entangled).
    """
    dA, dB = _check_bipartite_dims(dA, dB)
    vec = sorted(_check_schmidt_vector(b, dA))
    top = vec[-1] * vec[-2]
    if top <= 0.0:
        return math.inf
    return 1.0 / (dA * dB * top + 1.0)


def two_qubit_canonical(p: float, omega: float) -> tuple[DensityMatrix, tuple[float, float, float, float]]:
    """Two-qubit DPS canonical family and its partial-transpose eigenvalues.

    The state is the DPS over cos(omega/2)|00> + sin(omega/2)|11>, built
    from its closed form; the tests check it against its Pauli canonical
    form.  The returned mu_1..mu_4 are the PT eigenvalues;
    mu_4 = (1-p)/4 - (p/2) sin(omega) is the only one that can go
    negative, and does so exactly when p > 1/3 and
    sin(omega) > (1-p)/(2p).

    Raises:
        PolarizationOutOfRangeError: p outside [-1/3, 1].
        DomainError: omega outside [0, pi/2].
    """
    _in_range(omega, 0.0, math.pi / 2.0, DomainError, "omega")
    state = make_dps([math.cos(omega / 2.0), 0.0, 0.0, math.sin(omega / 2.0)], p).to_matrix()
    co, si = math.cos(omega), math.sin(omega)
    mu = (
        (1.0 + p) / 4.0 + (p / 2.0) * co,
        (1.0 + p) / 4.0 - (p / 2.0) * co,
        (1.0 - p) / 4.0 + (p / 2.0) * si,
        (1.0 - p) / 4.0 - (p / 2.0) * si,
    )
    return state, mu


def isotropic(dA: int, F: float) -> tuple[DpsState, bool]:
    """Isotropic state as a DPS over the maximally entangled state.

    p = (dA^2 F - 1)/(dA^2 - 1); separable exactly when F <= 1/dA,
    equivalently p <= 1/(dA + 1).  There are no bound entangled
    isotropic states, so the PPT verdict is two-sided here.

    Raises:
        FOutOfRangeError: F outside [0, 1].
        InvalidDimensionError: dA not an integer >= 2.
    """
    dA = _require_dimension(dA, 2, "an isotropic state")
    F = _in_range(F, 0.0, 1.0, FOutOfRangeError, "F")
    return make_dps(maximally_entangled(dA), twirl_p(dA, F)), F <= 1.0 / dA + 1e-12
