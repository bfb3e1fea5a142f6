"""Depolarizing maps and the protocols that realize them physically.

Two constructions take an unknown pure state to a depolarized pure
state: an ancilla-assisted unitary whose residual system state is
(1-|beta|^2) rho + |beta|^2 1/D, and twirling, which averages unitary
conjugations of an arbitrary channel into a depolarizing one with
p = (D^2 f - 1)/(D^2 - 1) where f is the Jamiolkowski fidelity.  The
protocol output comes from the unitary's closed action on legal inputs,
which the tests check against the dense D^3 x D^3 unitary.

A channel is held as its Choi matrix sum_K vec(K) vec(K)^dag, the Gram
product M^T M^* over the rows vec(K); the Jamiolkowski state is that
over D and the superoperator its reshuffle.  Every average over
unitaries, the Clifford and Haar twirls and the recipe, is one Gram
mean (``_gram_mean``) over a stream of unitary stacks, formed about
GRAM_ROWS rows at a time, so memory does not grow with the number of
unitaries.  Every operator set is one read-only complex (n, D, D)
stack: Kraus operators, the Weyl operators X^a Z^b, the Clifford group.

All Monte-Carlo entry points take explicit integer seeds; there is no
hidden global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple

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
from .metrics import _in_range, _unit_vector, p_min, p_min_cp

TP_TOL = 1e-10
TWIRL_CHECK_TOL = 1e-10
GRAM_ROWS = 1024  # rows per block of a Gram mean, and unitaries per Haar draw


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving CP map in operator-sum form; ``kraus`` is one read-only (n, D, D) stack."""

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        ops = [np.asarray(K, dtype=complex) for K in self.kraus]
        if not ops:
            raise NotTracePreservingError("a channel needs at least one Kraus operator")
        for K in ops:
            if K.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"Kraus operator shape {K.shape} != ({self.dim}, {self.dim})"
                )
        kraus = np.array(ops)
        kraus.setflags(write=False)
        # the operators stacked row-wise form an isometry V, and V^dag V = sum K^dag K
        V = kraus.reshape(-1, self.dim)
        dev = float(np.max(np.abs(V.conj().T @ V - np.eye(self.dim))))
        if not dev <= TP_TOL:
            raise NotTracePreservingError(
                f"sum K^dag K deviates from identity by {dev:.3e} (> {TP_TOL:.1e})"
            )
        object.__setattr__(self, "kraus", kraus)

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Operator-sum action sum_m K_m M K_m^dag on a raw matrix."""
        return (self.kraus @ M @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=0)

    def superoperator(self) -> np.ndarray:
        """D^2 x D^2 matrix acting on row-major vec(rho), sum_K kron(K, K^*).

        The Choi matrix with its axes reordered from ((i, k), (j, l)) to
        ((i, j), (k, l)).
        """
        D = self.dim
        C = _choi(self.kraus)
        return C.reshape(D, D, D, D).transpose(0, 2, 1, 3).reshape(D * D, D * D)


def _choi(ops: np.ndarray) -> np.ndarray:
    """sum_n vec(A_n) vec(A_n)^dag over a (..., D, D) stack, as one Gram product.

    With M the stack flattened to rows vec(A_n), M^T M^* holds
    A_n[i, k] A_n[j, l]^* summed over n at ((i, k), (j, l)).  For Kraus
    operators this is the Choi matrix, (channel (x) 1)(|vec 1><vec 1|).
    """
    D = ops.shape[-1]
    M = ops.reshape(-1, D * D)
    return M.T @ M.conj()


def _require_dimension(D: int, what: str) -> None:
    if D < 1:
        raise InvalidDimensionError(f"{what} needs dimension >= 1, got {D}")


def weyl_operators(D: int) -> np.ndarray:
    """Read-only (D^2, D, D) stack of the Weyl operators; entry a*D + b is X^a Z^b.

    X |j> = |j+1 mod D> is the shift and Z |j> = omega^j |j> the clock,
    so (X^a Z^b)[i, j] is omega^(b j) where i = j + a mod D and 0
    elsewhere: one broadcast of the shift pattern against the phases.

    Raises:
        InvalidDimensionError: D < 1.
    """
    _require_dimension(D, "the Weyl group")
    k = np.arange(D)
    shifts = k[None, :, None] == (k[None, None, :] + k[:, None, None]) % D  # [a, i, j]
    phases = np.exp(2.0j * math.pi * (np.outer(k, k) % D) / D)  # [b, j]
    ops = (shifts[:, None] * phases[None, :, None, :]).reshape(D * D, D, D)
    ops.setflags(write=False)
    return ops


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
        _in_range(norm_sq, 1.0, 1.0, NonUnitVectorError, "chi norm^2")
        _in_range(abs(b) ** 2, 0.0, D * D / (D * D - 1.0), DomainError, "|beta|^2")

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
    beta2 = _in_range(beta2, 0.0, D * D / (D * D - 1.0), DomainError, "beta2")
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
    _in_range(p, p_min(D), 1.0, PolarizationOutOfRangeError, "p")
    out = DensityMatrix((1.0 - p) * np.eye(D) / D + p * rho.matrix)
    return DepolarizedOutput(state=out, physically_realizable=p >= p_min_cp(D) - 1e-12)


def depolarizing_kraus(D: int, p: float) -> KrausChannel:
    """Kraus form of the depolarizing map over the Weyl group.

    Valid exactly on the CP range p >= -1/(D^2-1), where the identity
    weight p + (1-p)/D^2 stays nonnegative.

    Raises:
        PolarizationOutOfRangeError: p outside the CP range.
    """
    _in_range(p, p_min_cp(D), 1.0, PolarizationOutOfRangeError, "p")
    rest = max(1.0 - p, 0.0) / (D * D)
    ops = math.sqrt(rest) * weyl_operators(D)
    ops[0] = math.sqrt(max(p + rest, 0.0)) * np.eye(D)
    return KrausChannel(dim=D, kraus=ops)


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
    v = _unit_vector(v)
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
    """(channel (x) identity) applied to |Phi+><Phi+|: the Choi matrix over D."""
    return DensityMatrix(_choi(ch.kraus) / ch.dim)


def jamiolkowski_fidelity(ch: KrausChannel) -> float:
    """f = <Phi+| E_channel |Phi+> = sum_m |Tr K_m|^2 / D^2."""
    tr = np.trace(ch.kraus, axis1=1, axis2=2)
    f = float(np.vdot(tr, tr).real) / (ch.dim * ch.dim)
    return min(max(f, 0.0), 1.0)


def twirl_p(D: int, f: float) -> float:
    """The depolarization strength a twirl produces: (D^2 f - 1)/(D^2 - 1)."""
    return (D * D * f - 1.0) / (D * D - 1.0)


def p_from_overlap(D: int, overlap: float) -> float:
    """The p of a DPS from <psi|rho|psi> = (1-p)/D + p: (overlap - 1/D)/(1 - 1/D)."""
    return (overlap - 1.0 / D) / (1.0 - 1.0 / D)


# ---------------------------------------------------------------------------
# Clifford groups


def _weyl_images(Ws: np.ndarray, ops: np.ndarray, paulis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer images (q, k) with W A W^dag = e^{i pi k / D} P_q, as two (m, n) arrays.

    Every operator A in the (n, D, D) stack ``ops`` is conjugated by
    every W in the (m, D, D) stack ``Ws``: one matrix product forms all
    W A, and one batched product over the W all W A W^dag.  One
    contraction with the Weyl stack P_q = ``paulis[q]`` finds each q and k.

    Raises:
        InternalCheckError: |Tr(P_q^dag W A W^dag)| <= D - 1e-6 at its
            argmax, so W A W^dag is not a phase times a Weyl operator.
    """
    m, D, n = len(Ws), Ws.shape[-1], len(ops)
    WA = Ws.reshape(m * D, D) @ ops.transpose(1, 0, 2).reshape(D, n * D)  # [(W, i), (A, l)]
    conjugated = (WA.reshape(m, D * n, D) @ Ws.conj().swapaxes(-1, -2)).reshape(m, D, n, D)
    overlaps = conjugated.swapaxes(1, 2).reshape(m * n, D * D) @ paulis.reshape(D * D, D * D).conj().T
    q = np.argmax(np.abs(overlaps), axis=1)
    top = overlaps[np.arange(len(q)), q]
    # |Tr(P_q^dag V)| = D iff V = e^{i theta} P_q; a non-Pauli V sits far below D
    if not np.all(np.abs(top) > D - 1e-6):
        raise InternalCheckError("Clifford candidate conjugates a Weyl operator out of the Pauli group")
    k = np.rint(np.angle(top) * D / math.pi).astype(int) % (2 * D)
    return q.reshape(m, n), k.reshape(m, n)


def _xz_keys(Ws: np.ndarray, paulis: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Exact key (q_X, k_X, q_Z, k_Z) of each Clifford candidate in a (m, D, D) stack.

    W X W^dag = e^{i pi k_X / D} P_{q_X} with P_q = ``paulis[q]`` the
    Weyl stack, and likewise for Z (``_weyl_images``).  X and Z generate
    the Weyl group, so a W that conjugates both into it is Clifford, and
    the key fixes W up to global phase.  ``clifford_group`` composes its
    keys in integers and calls this once, on the finished group, to
    certify every element Clifford and to check the composed keys.

    Raises:
        InternalCheckError: W does not conjugate X or Z into the Pauli group.
    """
    D = Ws.shape[-1]
    q, k = _weyl_images(Ws, paulis[[D, 1]], paulis)  # X = X^1 Z^0 and Z = X^0 Z^1
    (qx, qz), (kx, kz) = q.T.tolist(), k.T.tolist()
    return list(zip(qx, kx, qz, kz))


def _generator_table(D: int) -> tuple[np.ndarray, list[list[tuple[int, int]]]]:
    """The Clifford generators and the image of every Weyl operator under each.

    Returns the (2, D, D) stack of the Fourier (Hadamard) and diagonal
    phase gates, and ``images[g][j] = (q, k)`` with
    g P_j g^dag = e^{i pi k / D} P_q, from one certified ``_weyl_images``.
    """
    omega = np.exp(2.0j * math.pi / D)
    F = np.array([[omega ** (j * k) for k in range(D)] for j in range(D)]) / math.sqrt(D)
    S = np.diag([1.0, 1.0j]) if D == 2 else np.diag([1.0, 1.0, omega])
    gens = np.array([F, S])
    paulis = weyl_operators(D)
    q, k = _weyl_images(gens, paulis, paulis)
    return gens, [list(zip(qg, kg)) for qg, kg in zip(q.tolist(), k.tolist())]


@lru_cache(maxsize=None)
def clifford_group(D: int) -> np.ndarray:
    """All Clifford unitaries modulo global phase: 24 at D=2, 216 at D=3.

    Returned as one read-only (n, D, D) stack whose entry 0 is the
    identity.  Breadth-first closure from {Hadamard/Fourier, diagonal
    phase gate}: each layer forms every product g U of a generator g
    with the frontier in one batched matmul, in the order (for U, for g).
    Each element is keyed by its action on X and Z, (q_X, k_X, q_Z, k_Z)
    with U X U^dag = e^{i pi k_X / D} P_{q_X} and likewise for Z, which
    fixes it up to global phase (Gottesman, quant-ph/9807006).  The
    images g P_q g^dag = e^{i pi k_g[q] / D} P_{q_g[q]} of every Weyl
    operator under each generator are tabulated once, so g U gets its
    key from U's in integers: (q_g[q_X], k_X + k_g[q_X] mod 2D, and
    likewise for Z).  A candidate is new when its key is, and it joins
    with the phase that makes real and positive its first entry within
    1e-9 of the largest modulus.  One ``_xz_keys`` over the finished
    group then certifies every element Clifford and must reproduce the
    composed keys exactly.

    Raises:
        InvalidDimensionError: D not an integer.
        UnsupportedDimensionError: D not in {2, 3}.
        InternalCheckError: the group has the wrong order, or the
            composed keys disagree with the elements' own.
    """
    if not isinstance(D, (int, np.integer)):
        raise InvalidDimensionError(f"Clifford enumeration needs an integer D, got {D!r}")
    if D not in (2, 3):
        raise UnsupportedDimensionError(f"Clifford enumeration supports D in {{2, 3}}, got {D}")
    gens, images = _generator_table(D)
    keys = [(D, 0, 1, 0)]  # the identity fixes X = P_D and Z = P_1
    seen = set(keys)
    frontier = np.eye(D, dtype=complex)[None]
    layers = [frontier]
    while True:
        candidates = (gens @ frontier[:, None]).reshape(-1, D, D)
        fresh = []
        for i, ((qx, kx, qz, kz), image) in enumerate(product(keys[-len(frontier) :], images)):
            (qx2, kx2), (qz2, kz2) = image[qx], image[qz]
            key = (qx2, (kx + kx2) % (2 * D), qz2, (kz + kz2) % (2 * D))
            if key not in seen:
                seen.add(key)
                keys.append(key)
                fresh.append(i)
        if not fresh:
            break
        frontier = candidates[fresh]
        flat = frontier.reshape(len(fresh), D * D)
        mags = np.abs(flat)
        first_top = (mags >= mags.max(axis=1, keepdims=True) - 1e-9).argmax(axis=1)
        # scalar division: numpy's array division can differ from it in the last bit
        frontier *= np.array([abs(z) / z for z in flat[np.arange(len(fresh)), first_top]])[:, None, None]
        layers.append(frontier)
    group = np.concatenate(layers)
    expected = {2: 24, 3: 216}[D]
    if len(group) != expected:
        raise InternalCheckError(f"Clifford closure found {len(group)} elements, expected {expected}")
    if _xz_keys(group, weyl_operators(D)) != keys:
        raise InternalCheckError("Clifford keys composed in integers disagree with the elements' own")
    group.setflags(write=False)
    return group


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary; draws as ``haar_unitaries(D, 1, rng)``.

    Raises:
        InvalidDimensionError: D < 1.
    """
    return next(haar_unitaries(D, 1, rng))[0]


def haar_unitaries(D: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` independent Haar unitaries, as (k, D, D) stacks of k <= GRAM_ROWS.

    Each stack draws its real parts and then its imaginary parts from
    ``rng``, so up to GRAM_ROWS unitaries draw as one stack would.

    Raises:
        InvalidDimensionError: D < 1, at the call, before any draw.
    """
    _require_dimension(D, "a Haar unitary")

    def stacks():
        for start in range(0, count, GRAM_ROWS):
            k = min(GRAM_ROWS, count - start)
            Z = (rng.standard_normal((k, D, D)) + 1.0j * rng.standard_normal((k, D, D))) / math.sqrt(2.0)
            Q, R = np.linalg.qr(Z)
            d = np.diagonal(R, axis1=1, axis2=2)
            yield Q * (d / np.abs(d))[:, None, :]

    return stacks()


def haar_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state vector.

    Raises:
        InvalidDimensionError: D < 1.
    """
    _require_dimension(D, "a Haar state")
    v = rng.standard_normal(D) + 1.0j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# twirling


class TwirlResult(NamedTuple):
    channel: KrausChannel
    p_hat: float
    depolarizing_deviation: float


def _kraus_from_choi(C: np.ndarray, D: int) -> np.ndarray:
    vals, vecs = np.linalg.eigh((C + C.conj().T) / 2.0)
    if float(vals[0]) < -1e-10:
        raise InternalCheckError(f"averaged Choi matrix has eigenvalue {vals[0]:.3e}")
    keep = vals > 1e-12
    return (np.sqrt(vals[keep])[:, None] * vecs[:, keep].T).reshape(-1, D, D)


def _gram_mean(stacks: Iterable[np.ndarray], rows: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Mean over unitaries U of M^T M^* with M = rows(U), over a stream of stacks.

    Formed over sub-stacks of about GRAM_ROWS rows (one unitary's, if it
    has more), so memory does not grow with the number of unitaries.
    """
    total, count = 0.0, 0
    for Us in stacks:
        step = max(1, GRAM_ROWS // len(rows(Us[:1])))
        for start in range(0, len(Us), step):
            M = rows(Us[start : start + step])
            total = total + M.T @ M.conj()
        count += len(Us)
    return total / count


def _twirl_result(acc: np.ndarray, D: int, p_hat: float, dev: float) -> TwirlResult:
    kraus = _kraus_from_choi(acc, D)
    return TwirlResult(channel=KrausChannel(dim=D, kraus=kraus), p_hat=p_hat, depolarizing_deviation=dev)


def _depolarizing_deviation(C: np.ndarray, D: int, p_hat: float) -> float:
    """Max entry deviation of the Choi matrix C from the depolarizing one at p_hat.

    That Choi matrix is (1-p)/D 1 + p |vec 1><vec 1|.
    """
    vec1 = np.eye(D).reshape(-1)
    want = ((1.0 - p_hat) / D) * np.eye(D * D) + p_hat * np.outer(vec1, vec1)
    return float(np.max(np.abs(C - want)))


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

    Both modes average Choi matrices as the ``_gram_mean`` of the rows
    vec(U^dag K U); the tests check it against kron(U^dag, U^T) S kron(U, U^*).

    ``exclude_identity`` averages over the group minus the identity, for
    measuring how far that deficient average is from depolarizing; the
    deviation is reported, never assumed zero.  Each mode takes only its
    own arguments: exact-clifford no samples or seed, haar-sample no
    ``exclude_identity``.

    Raises:
        UnsupportedDimensionError: dimension outside the mode's support.
        DomainError: unknown mode, missing samples/seed, or an argument
            the mode does not use.
    """
    D = ch.dim

    def rows(Us):
        Us = Us[:, None]
        return (Us.conj().swapaxes(-1, -2) @ ch.kraus @ Us).reshape(-1, D * D)

    if mode == "exact-clifford":
        if samples != 0 or seed is not None:
            raise DomainError("exact-clifford twirl takes no samples or seed")
        if D not in (2, 3):
            raise UnsupportedDimensionError(f"exact-clifford twirl needs D in {{2, 3}}, got {D}")
        group = clifford_group(D)
        # the closure seeds from the identity, so group[0] is always 1
        acc = _gram_mean([group[1:] if exclude_identity else group], rows)
        p_hat = twirl_p(D, jamiolkowski_fidelity(ch))
        dev = _depolarizing_deviation(acc, D, p_hat)
        if not exclude_identity and dev > TWIRL_CHECK_TOL:
            raise InternalCheckError(
                f"full-group Clifford twirl deviates from depolarizing by {dev:.3e}"
            )
        return _twirl_result(acc, D, p_hat, dev)

    if mode == "haar-sample":
        if exclude_identity:
            raise DomainError("exclude_identity applies to the exact-clifford twirl only")
        if D > 6:
            raise UnsupportedDimensionError(f"haar-sample twirl supports D <= 6, got {D}")
        if samples < 1:
            raise DomainError("haar-sample twirl needs samples >= 1")
        if seed is None:
            raise DomainError("haar-sample twirl needs an explicit seed")
        acc = _gram_mean(haar_unitaries(D, samples, np.random.default_rng(seed)), rows)
        # <0| twirl(|0><0|) |0> is the Choi entry at ((0, 0), (0, 0))
        p_hat = p_from_overlap(D, float(acc[0, 0].real))
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

    Each flipped state W rho W^dag, W = U^dag X U, is y y^dag for
    y = U^dag X U psi, so their mean is the ``_gram_mean`` of the rows y
    over the Haar draws, whose memory does not grow with ``trials``.
    The tests check it against the per-trial sum over the same draws.

    Raises:
        FOutOfRangeError: f outside [0, 1].
        NonUnitVectorError.
    """
    f = _in_range(f, 0.0, 1.0, FOutOfRangeError, "f")
    v = _unit_vector(psi)
    if trials < 1:
        raise DomainError("trials must be >= 1")
    D = v.shape[0]
    rho = np.outer(v, v.conj())
    X = np.roll(np.eye(D), 1, axis=0)  # the shift X |j> = |j+1 mod D>

    def rows(Us):
        # y^* = (X U psi)^* U needs no conjugated copy of the stack
        return (((Us @ v) @ X.T).conj()[:, None, :] @ Us)[:, 0, :].conj()

    flipped = _gram_mean(haar_unitaries(D, trials, np.random.default_rng(seed)), rows)
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
        _in_range(p, p_min_cp(d), 1.0, PolarizationOutOfRangeError, name)
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
    """Seeded random channel from a Haar isometry (Stinespring cut).

    Raises:
        InvalidDimensionError: D < 1.
        NotTracePreservingError: kraus_count < 1.
    """
    _require_dimension(D, "a random channel")
    if kraus_count < 1:
        raise NotTracePreservingError("a channel needs at least one Kraus operator")
    rng = np.random.default_rng(seed)
    U = haar_unitary(D * kraus_count, rng)
    return KrausChannel(dim=D, kraus=U[:, :D].reshape(kraus_count, D, D))
