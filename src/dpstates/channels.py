"""Depolarizing maps and the protocols that realize them physically.

Two constructions take an unknown pure state to a depolarized pure
state: an ancilla-assisted unitary whose residual system state is
(1-|beta|^2) rho + |beta|^2 1/D, and twirling, which averages unitary
conjugations of an arbitrary channel into a depolarizing one with
p = (D^2 f - 1)/(D^2 - 1) where f is the Jamiolkowski fidelity.  The
protocol output comes from the unitary's closed action on legal inputs,
which the tests check against the dense D^3 x D^3 unitary; twirls are
simulated explicitly, as Gram products over the conjugated Kraus
operators (checked in the tests against the dense Kronecker-product
average), and checked against their closed form.

All Monte-Carlo entry points take explicit integer seeds; there is no
hidden global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    FOutOfRangeError,
    InternalCheckError,
    InvalidDimensionError,
    NonUnitVectorError,
    NotTracePreservingError,
    PolarizationOutOfRangeError,
    UnsupportedDimensionError,
)
from .linalg import DensityMatrix, partial_trace
from .metrics import p_min, p_min_cp

TP_TOL = 1e-10
TWIRL_CHECK_TOL = 1e-10
GRAM_ROWS = 1024  # conjugated Kraus operators per block of a twirl average


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving completely positive map in operator-sum form."""

    dim: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus)
        if not ops:
            raise NotTracePreservingError("a channel needs at least one Kraus operator")
        for K in ops:
            if K.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator shape {K.shape} != ({self.dim}, {self.dim})"
                )
            K.setflags(write=False)
        total = sum(K.conj().T @ K for K in ops)
        dev = float(np.max(np.abs(total - np.eye(self.dim))))
        if not dev <= TP_TOL:
            raise NotTracePreservingError(
                f"sum K^dag K deviates from identity by {dev:.3e} (> {TP_TOL:.1e})"
            )
        object.__setattr__(self, "kraus", ops)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Operator-sum action sum_m K_m M K_m^dag on a raw matrix."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for K in self.kraus:
            out += K @ M @ K.conj().T
        return out

    def superoperator(self) -> np.ndarray:
        """D^2 x D^2 matrix acting on row-major vec(rho)."""
        return _superop_sum(np.stack(self.kraus))


def _superop_sum(ops: np.ndarray) -> np.ndarray:
    """sum_n kron(A_n, A_n^*) over a (..., D, D) stack, as one Gram product.

    With M the stack flattened to rows vec(A_n), M^T M^* holds
    A_n[i, k] A_n[j, l]^* summed over n at ((i, k), (j, l)); reordering
    the axes to ((i, j), (k, l)) gives the kron sum.
    """
    D = ops.shape[-1]
    M = ops.reshape(-1, D * D)
    G = M.T @ M.conj()
    return G.reshape(D, D, D, D).transpose(0, 2, 1, 3).reshape(D * D, D * D)


class WeylBasis:
    """Shift and clock unitaries generating the generalized Pauli group."""

    __slots__ = ("dim", "X", "Z")

    def __init__(self, dim: int):
        self.dim = dim
        X = np.zeros((dim, dim), dtype=complex)
        for j in range(dim):
            X[(j + 1) % dim, j] = 1.0
        Z = np.diag(np.exp(2.0j * math.pi * np.arange(dim) / dim))
        X.setflags(write=False)
        Z.setflags(write=False)
        self.X = X
        self.Z = Z

    def element(self, a: int, b: int) -> np.ndarray:
        """X^a Z^b."""
        return np.linalg.matrix_power(self.X, a % self.dim) @ np.linalg.matrix_power(
            self.Z, b % self.dim
        )


def maximally_entangled(D: int) -> np.ndarray:
    """|Phi+> = sum_j |jj>/sqrt(D) as a length-D^2 vector."""
    phi = np.zeros(D * D, dtype=complex)
    for j in range(D):
        phi[j * D + j] = 1.0 / math.sqrt(D)
    return phi


@dataclass(frozen=True)
class ChiState:
    """Two-ancilla resource state alpha|Phi+> + beta|0>|uniform>.

    The branches overlap: <Phi+|(|0>|u>)> = 1/D, so normalization reads
    |alpha|^2 + |beta|^2 + 2 Re(alpha beta*)/D = 1 and |beta|^2 may
    legitimately exceed 1, up to D^2/(D^2-1).
    """

    dim: int
    alpha: complex
    beta: complex

    def __post_init__(self):
        D = self.dim
        a, b = complex(self.alpha), complex(self.beta)
        norm_sq = abs(a) ** 2 + abs(b) ** 2 + 2.0 * (a * b.conjugate()).real / D
        if abs(norm_sq - 1.0) > 1e-12:
            raise NonUnitVectorError(f"chi norm^2 = {norm_sq:.15g} differs from 1 beyond 1e-12")
        limit = D * D / (D * D - 1.0)
        if abs(b) ** 2 > limit + 1e-12:
            raise DomainError(f"|beta|^2 = {abs(b)**2:.15g} exceeds D^2/(D^2-1) = {limit:.15g}")

    def vector(self) -> np.ndarray:
        """The length-D^2 amplitude vector over the two ancillas."""
        D = self.dim
        uniform = np.zeros(D * D, dtype=complex)
        uniform[0:D] = 1.0 / math.sqrt(D)
        return self.alpha * maximally_entangled(D) + self.beta * uniform

    @property
    def beta2(self) -> float:
        return float(abs(self.beta) ** 2)


def chi_from_beta2(D: int, beta2: float) -> ChiState:
    """Real-branch ChiState with the prescribed |beta|^2.

    Solves the normalization for alpha = -beta/D + sqrt(1 - beta^2
    (1 - 1/D^2)); the discriminant is nonnegative exactly on the legal
    range 0 <= beta2 <= D^2/(D^2-1).

    Raises:
        DomainError: beta2 outside that range.
    """
    limit = D * D / (D * D - 1.0)
    if not -1e-12 <= beta2 <= limit + 1e-12:
        raise DomainError(f"beta2={beta2:.15g} outside [0, {limit:.15g}]")
    beta2 = min(max(beta2, 0.0), limit)
    beta = math.sqrt(beta2)
    alpha = -beta / D + math.sqrt(max(1.0 - beta2 * (1.0 - 1.0 / (D * D)), 0.0))
    return ChiState(dim=D, alpha=alpha, beta=beta)


class DepolarizedOutput(NamedTuple):
    state: DensityMatrix
    physically_realizable: bool


def apply_depolarizing(rho: DensityMatrix, p: float) -> DepolarizedOutput:
    """(1-p) 1/D + p rho, flagged by whether a CP map can realize this p.

    The positivity range is -1/(D-1) <= p <= 1 but only
    -1/(D^2-1) <= p <= 1 is reachable by a completely positive map on an
    unknown input; p = -1/(D^2-1) is the universal inverter.

    Raises:
        PolarizationOutOfRangeError: p outside the positivity range.
    """
    D = rho.dim
    if not p_min(D) - 1e-12 <= p <= 1.0 + 1e-12:
        raise PolarizationOutOfRangeError(f"p={p:.15g} outside [{p_min(D):.15g}, 1] for D={D}")
    out = DensityMatrix((1.0 - p) * np.eye(D) / D + p * rho.matrix)
    return DepolarizedOutput(state=out, physically_realizable=p >= p_min_cp(D) - 1e-12)


def depolarizing_kraus(D: int, p: float) -> KrausChannel:
    """Kraus form of the depolarizing map over the Weyl group.

    Valid exactly on the CP range p >= -1/(D^2-1), where the identity
    weight p + (1-p)/D^2 stays nonnegative.

    Raises:
        PolarizationOutOfRangeError: p outside the CP range.
    """
    if not p_min_cp(D) - 1e-12 <= p <= 1.0 + 1e-12:
        raise PolarizationOutOfRangeError(
            f"p={p:.15g} outside CP range [{p_min_cp(D):.15g}, 1] for D={D}"
        )
    w = WeylBasis(D)
    rest = max(1.0 - p, 0.0) / (D * D)
    ops = [math.sqrt(max(p + rest, 0.0)) * np.eye(D, dtype=complex)]
    for a in range(D):
        for b in range(D):
            if a == 0 and b == 0:
                continue
            ops.append(math.sqrt(rest) * w.element(a, b))
    return KrausChannel(dim=D, kraus=tuple(ops))


# ---------------------------------------------------------------------------
# ancilla protocol


def protocol1(psi, chi: ChiState) -> DensityMatrix:
    """Depolarize an unknown pure state with one fixed unitary + ancillas.

    The protocol unitary U on system (x) ancilla-1 (x) ancilla-2 leaves
    every |m>|Phi+> alone and sends |m>|0>|uniform> to
    (1/sqrt(D)) sum_l |l>|m>|l>.  The system marginal of U(psi (x) chi)
    is computed from that closed action in O(D^4) time and O(D^3)
    memory; the tests check it against the dense D^3 x D^3 unitary.
    The output equals (1-|beta|^2)|psi><psi| + |beta|^2 1/D.

    Raises:
        DimensionMismatchError: len(psi) != chi.dim.
        NonUnitVectorError.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    D = chi.dim
    if v.shape[0] != D:
        raise DimensionMismatchError(f"state length {v.shape[0]} != chi dimension {D}")
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        raise NonUnitVectorError("psi must be a unit vector")
    # every legal input psi (x) chi lies in the span of the |m>|Phi+> and
    # |m>|0>|uniform> on which U is fixed, so U(psi (x) chi) is
    # O[s, a1, a2] = (alpha psi_s delta_{a1 a2} + beta psi_{a1} delta_{s a2}) / sqrt(D)
    eye = np.eye(D)
    out = (chi.alpha * v[:, None, None] * eye + chi.beta * eye[:, None, :] * v[:, None]) / math.sqrt(D)
    out = out.reshape(D, D * D)
    return DensityMatrix(out @ out.conj().T)


# ---------------------------------------------------------------------------
# Jamiolkowski representation


def jamiolkowski_state(ch: KrausChannel) -> DensityMatrix:
    """(channel (x) identity) applied to |Phi+><Phi+|."""
    D = ch.dim
    phi = maximally_entangled(D)
    proj = np.outer(phi, phi.conj())
    out = np.zeros((D * D, D * D), dtype=complex)
    eye = np.eye(D, dtype=complex)
    for K in ch.kraus:
        big = np.kron(K, eye)
        out += big @ proj @ big.conj().T
    return DensityMatrix(out)


def jamiolkowski_fidelity(ch: KrausChannel) -> float:
    """f = <Phi+| E_channel |Phi+>, equal to sum_m |Tr K_m|^2 / D^2."""
    phi = maximally_entangled(ch.dim)
    E = jamiolkowski_state(ch).matrix
    f = float(np.real(np.vdot(phi, E @ phi)))
    return min(max(f, 0.0), 1.0)


def twirl_p(D: int, f: float) -> float:
    """The depolarization strength a twirl produces: (D^2 f - 1)/(D^2 - 1)."""
    return (D * D * f - 1.0) / (D * D - 1.0)


# ---------------------------------------------------------------------------
# Clifford groups


def _canonical_phase(U: np.ndarray) -> np.ndarray:
    flat = np.abs(U).ravel()
    top = float(np.max(flat))
    idx = int(np.argmax(flat >= top - 1e-9))
    pivot = U.ravel()[idx]
    return U * (abs(pivot) / pivot)


def _projectively_in(W: np.ndarray, members, D: int) -> bool:
    # |Tr(W^dag V)| = D iff V = e^{i theta} W; distinct group elements sit
    # far below D, so a 1e-6 margin is decisive and roundoff-immune
    return any(
        abs(np.einsum("ij,ij->", W.conj(), V)) > D - 1e-6 for V in members
    )


@lru_cache(maxsize=None)
def clifford_group(D: int) -> tuple:
    """All Clifford unitaries modulo global phase: 24 at D=2, 216 at D=3.

    Breadth-first closure from {Hadamard/Fourier, diagonal phase gate};
    every element is verified to conjugate each Weyl operator X^a Z^b
    into the Pauli group up to phase before the list is returned.

    Raises:
        UnsupportedDimensionError: D not in {2, 3}.
    """
    if D not in (2, 3):
        raise UnsupportedDimensionError(f"Clifford enumeration supports D in {{2, 3}}, got {D}")
    omega = np.exp(2.0j * math.pi / D)
    F = np.array([[omega ** (j * k) for k in range(D)] for j in range(D)]) / math.sqrt(D)
    S = np.diag([1.0, 1.0j]) if D == 2 else np.diag([1.0, 1.0, omega])
    gens = [F, S]
    eye = np.eye(D, dtype=complex)
    members = [eye]
    frontier = [eye]
    while frontier:
        nxt = []
        for U in frontier:
            for g in gens:
                W = g @ U
                if not _projectively_in(W, members, D):
                    W = _canonical_phase(W)
                    members.append(W)
                    nxt.append(W)
        frontier = nxt
    group = tuple(members)
    expected = {2: 24, 3: 216}[D]
    if len(group) != expected:
        raise InternalCheckError(f"Clifford closure found {len(group)} elements, expected {expected}")
    w = WeylBasis(D)
    paulis = [w.element(a, b) for a in range(D) for b in range(D)]
    for U in group:
        for P in paulis:
            if not _projectively_in(U @ P @ U.conj().T, paulis, D):
                raise InternalCheckError("Clifford element fails Pauli conjugation closure")
    return group


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary; draws as ``haar_unitaries(D, 1, rng)``."""
    return haar_unitaries(D, 1, rng)[0]


def haar_unitaries(D: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, D, D) stack of independent Haar unitaries."""
    Z = (
        rng.standard_normal((count, D, D)) + 1.0j * rng.standard_normal((count, D, D))
    ) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


def haar_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state vector.

    Raises:
        InvalidDimensionError: D < 1.
    """
    if D < 1:
        raise InvalidDimensionError(f"a Haar state needs dimension >= 1, got {D}")
    v = rng.standard_normal(D) + 1.0j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# twirling


class TwirlResult(NamedTuple):
    channel: KrausChannel
    p_hat: float
    depolarizing_deviation: float


def _superop_to_choi(S: np.ndarray, D: int) -> np.ndarray:
    return S.reshape(D, D, D, D).transpose(0, 2, 1, 3).reshape(D * D, D * D)


def _kraus_from_choi(C: np.ndarray, D: int) -> tuple:
    vals, vecs = np.linalg.eigh((C + C.conj().T) / 2.0)
    if float(vals[0]) < -1e-10:
        raise InternalCheckError(f"averaged Choi matrix has eigenvalue {vals[0]:.3e}")
    ops = []
    for mu, w in zip(vals, vecs.T):
        if mu > 1e-12:
            ops.append(math.sqrt(mu) * w.reshape(D, D))
    return tuple(ops)


def _conjugation_average(kraus: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Mean over U of the superoperator of the channel {U^dag K U}.

    Accumulated as Gram products over blocks of unitaries, so the
    conjugated Kraus stack held at once stays at about GRAM_ROWS
    operators whatever the number of unitaries.
    """
    D = kraus.shape[-1]
    step = max(1, GRAM_ROWS // len(kraus))
    acc = np.zeros((D * D, D * D), dtype=complex)
    for start in range(0, len(unitaries), step):
        U = unitaries[start : start + step, None]
        acc += _superop_sum(U.conj().swapaxes(-1, -2) @ kraus @ U)
    return acc / len(unitaries)


def _twirl_result(acc: np.ndarray, D: int, p_hat: float, dev: float) -> TwirlResult:
    kraus = _kraus_from_choi(_superop_to_choi(acc, D), D)
    return TwirlResult(channel=KrausChannel(dim=D, kraus=kraus), p_hat=p_hat, depolarizing_deviation=dev)


def _depolarizing_deviation(S: np.ndarray, D: int, p_hat: float) -> float:
    """Max entry deviation of S from the depolarizing superoperator at p_hat.

    That superoperator is (1-p)/D |vec 1><vec 1| + p 1 on row-major vec(rho).
    """
    vec1 = np.eye(D).reshape(-1)
    want = ((1.0 - p_hat) / D) * np.outer(vec1, vec1) + p_hat * np.eye(D * D)
    return float(np.max(np.abs(S - want)))


def twirl(
    ch: KrausChannel,
    mode: str = "exact-clifford",
    samples: int = 0,
    seed: int | None = None,
    exclude_identity: bool = False,
) -> TwirlResult:
    """Average U^dag . channel . U over unitaries U into a depolarizing map.

    exact-clifford (D in {2, 3}) averages over the full Clifford group
    and returns p_hat = (D^2 f - 1)/(D^2 - 1) computed from the original
    channel's Jamiolkowski fidelity; the averaged map is verified
    depolarizing on a complete operator basis.  haar-sample (D <= 6)
    averages `samples` seeded Haar conjugations and estimates p_hat from
    the averaged action on |0><0| (the Jamiolkowski fidelity itself is
    conjugation-invariant, so it carries no Monte-Carlo information);
    standard error scales as 1/sqrt(samples).

    Both modes average superoperators without forming one per unitary:
    with A = U^dag K U over every (U, K) and M the stack of rows vec(A),
    the mean is M^T M^* reordered to act on vec(rho), divided by the
    number of unitaries and accumulated over blocks of unitaries.  The
    tests check it against the dense average of
    kron(U^dag, U^T) S kron(U, U^*).

    ``exclude_identity`` averages over the group minus the identity, for
    measuring how far that deficient average is from depolarizing; the
    deviation is reported, never assumed zero.

    Raises:
        UnsupportedDimensionError: dimension outside the mode's support.
        DomainError: unknown mode or missing samples/seed.
    """
    D = ch.dim
    f = jamiolkowski_fidelity(ch)
    kraus = np.stack(ch.kraus)

    if mode == "exact-clifford":
        if D not in (2, 3):
            raise UnsupportedDimensionError(f"exact-clifford twirl needs D in {{2, 3}}, got {D}")
        group = clifford_group(D)
        # the closure seeds from the identity, so group[0] is always 1
        acc = _conjugation_average(kraus, np.stack(group[1:] if exclude_identity else group))
        p_hat = twirl_p(D, f)
        dev = _depolarizing_deviation(acc, D, p_hat)
        if not exclude_identity and dev > TWIRL_CHECK_TOL:
            raise InternalCheckError(
                f"full-group Clifford twirl deviates from depolarizing by {dev:.3e}"
            )
        return _twirl_result(acc, D, p_hat, dev)

    if mode == "haar-sample":
        if D > 6:
            raise UnsupportedDimensionError(f"haar-sample twirl supports D <= 6, got {D}")
        if samples < 1:
            raise DomainError("haar-sample twirl needs samples >= 1")
        if seed is None:
            raise DomainError("haar-sample twirl needs an explicit seed")
        acc = _conjugation_average(kraus, haar_unitaries(D, samples, np.random.default_rng(seed)))
        e00 = np.zeros((D, D), dtype=complex)
        e00[0, 0] = 1.0
        out00 = (acc @ e00.reshape(-1)).reshape(D, D)
        p_hat = float((np.real(out00[0, 0]) - 1.0 / D) / (1.0 - 1.0 / D))
        return _twirl_result(acc, D, p_hat, _depolarizing_deviation(acc, D, p_hat))

    raise DomainError(f"unknown twirl mode {mode!r}")


# ---------------------------------------------------------------------------
# recipe and local depolarization


def pdps_recipe(psi, f: float, seed: int, trials: int) -> DensityMatrix:
    """Monte-Carlo realization of a physical DPS from a pure state.

    Each trial conjugates the two-outcome map {identity w.p. f, Weyl X
    w.p. 1-f} by a fresh Haar unitary; the map itself is applied exactly
    (the average over its outcomes), so all sampling noise comes from U.
    The trial average converges to the DPS with p = (D^2 f - 1)/(D^2-1).

    Since rho = psi psi^dag, each flipped state W rho W^dag with
    W = U^dag X U is y y^dag for y = U^dag X U psi, so their mean is one
    D x trials product Y^T Y^* / trials: no per-trial matrix is formed
    beyond the Haar stack itself.  The tests check it against the
    per-trial sum over the same draws.

    Raises:
        FOutOfRangeError: f outside [0, 1].
        NonUnitVectorError.
    """
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise FOutOfRangeError(f"f={f:.15g} outside [0, 1]")
    f = min(max(f, 0.0), 1.0)
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        raise NonUnitVectorError("psi must be a unit vector")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    D = v.shape[0]
    rho = np.outer(v, v.conj())
    X = WeylBasis(D).X
    Us = haar_unitaries(D, trials, np.random.default_rng(seed))
    # W rho W^dag = y y^dag with y = U^dag X U psi, so the trial mean of
    # the flipped states is Y^T Y^* / trials; the rows of Yc = Y^* are
    # formed as (X U psi)^* U, which needs no conjugated copy of the stack
    Yc = (((Us @ v) @ X.T).conj()[:, None, :] @ Us)[:, 0, :]
    flipped = Yc.T.conj() @ Yc / trials
    return DensityMatrix(f * rho + (1.0 - f) * flipped)


def local_depolarize(
    rho: DensityMatrix, dA: int, dB: int, pA: float, pB: float
) -> DensityMatrix:
    """Independent depolarization of each half of a bipartite state.

    The four-term decomposition with weights pA pB, pA(1-pB), (1-pA) pB,
    (1-pA)(1-pB); even on a DPS input the output is generally not a DPS,
    which is why the protocols above need the global map instead.

    Raises:
        InvalidDimensionError: dA or dB below 2.
        PolarizationOutOfRangeError: either local p outside its CP range.
        DimensionMismatchError.
    """
    if dA < 2 or dB < 2:
        raise InvalidDimensionError(f"subsystem dims must be >= 2, got ({dA}, {dB})")
    if rho.dim != dA * dB:
        raise DimensionMismatchError(f"state dim {rho.dim} != dA*dB = {dA * dB}")
    for d, p, name in ((dA, pA, "pA"), (dB, pB, "pB")):
        if not p_min_cp(d) - 1e-12 <= p <= 1.0 + 1e-12:
            raise PolarizationOutOfRangeError(
                f"{name}={p:.15g} outside CP range [{p_min_cp(d):.15g}, 1]"
            )
    M = rho.matrix
    rA = partial_trace(M, dA, dB, keep="A")
    rB = partial_trace(M, dA, dB, keep="B")
    eyeA = np.eye(dA) / dA
    eyeB = np.eye(dB) / dB
    out = (
        pA * pB * M
        + pA * (1.0 - pB) * np.kron(rA, eyeB)
        + (1.0 - pA) * pB * np.kron(eyeA, rB)
        + (1.0 - pA) * (1.0 - pB) * np.kron(eyeA, eyeB)
    )
    return DensityMatrix(out)


def random_channel(D: int, kraus_count: int, seed: int) -> KrausChannel:
    """Seeded random channel from a Haar isometry (Stinespring cut)."""
    rng = np.random.default_rng(seed)
    U = haar_unitary(D * kraus_count, rng)
    W = U[:, :D]
    ops = tuple(W[m * D : (m + 1) * D, :] for m in range(kraus_count))
    return KrausChannel(dim=D, kraus=ops)
