"""Depolarizing maps and the protocols that realize them physically.

Two constructions take an unknown pure state to a depolarized pure
state: an ancilla-assisted unitary whose residual system state is
(1-|beta|^2) rho + |beta|^2 1/D, and twirling, which averages unitary
conjugations of an arbitrary channel into a depolarizing one with
p = (D^2 f - 1)/(D^2 - 1) where f is the Jamiolkowski fidelity.  The
protocol output is that DPS, built from its closed form; the tests
check it against the marginal of the unitary's closed action and
against the dense D^3 x D^3 unitary.

A channel is held as its Choi matrix sum_K vec(K) vec(K)^dag, the Gram
product M^T M^* over the rows vec(K); the Jamiolkowski state is that
over D and the superoperator its reshuffle.  Every average over
unitaries that is sampled is one Gram mean (``_gram_mean``), formed
about GRAM_ROWS rows at a time, so memory does not grow with the number
of samples: the Haar twirl's over a stream of Haar unitary stacks, the
recipe's over rows U^dag X U psi drawn without forming U, from a Haar
vector u = U psi and a uniform direction in psi^perp.  The exact
Clifford twirl is a closed form: the Clifford group is a unitary
2-design at prime D, so its average is the depolarizing map; the
enumerated group (``clifford_group``) is only the tests' oracle.  A
twirl returns its averaged Choi matrix over D.  Every operator set is
one read-only complex (n, D, D) stack: Kraus operators, the Weyl
operators X^a Z^b, the Clifford group.

All Monte-Carlo entry points take explicit integer seeds >= 0, checked
by ``linalg._seeded_rng``, and integer sizes >= 1, checked by
``linalg._require_count``; there is no hidden global randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    FOutOfRangeError,
    InternalCheckError,
    NonUnitVectorError,
    NotTracePreservingError,
    UnsupportedDimensionError,
)
from .linalg import DensityMatrix, _require_count, _require_dimension, _seeded_rng, partial_trace
from .metrics import _cp_polarization, _in_range, _polarization, _unit_vector, make_dps, p_min_cp

__all__ = [
    "ChiState",
    "DepolarizedOutput",
    "KrausChannel",
    "TwirlResult",
    "apply_depolarizing",
    "chi_from_beta2",
    "clifford_group",
    "depolarizing_kraus",
    "haar_state",
    "haar_unitaries",
    "haar_unitary",
    "jamiolkowski_fidelity",
    "jamiolkowski_state",
    "local_depolarize",
    "maximally_entangled",
    "p_from_overlap",
    "pdps_recipe",
    "protocol1",
    "random_channel",
    "twirl",
    "twirl_p",
    "weyl_operators",
]

TP_TOL = 1e-10
# The cap bounds the exact twirl's D^2 x D^2 Choi matrix, which `dps channel twirl --out`
# writes (961 x 961 at D = 31, within MAX_WRITE_DIM) and `exclude_identity` checks positive
# by an O(D^6) eigvalsh.  `dps channel twirl` at D = 31 peaks at 92 MB RSS, 108 with the latter.
CLIFFORD_TWIRL_MAX_DIM = 31
GRAM_ROWS = 1024  # rows per block of a Gram mean
HAAR_DRAW_ENTRIES = 64 * GRAM_ROWS  # matrix entries per Haar draw: GRAM_ROWS unitaries at D <= 8


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving CP map in operator-sum form; ``kraus`` is one read-only (n, D, D) stack."""

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dim", _require_dimension(self.dim, 1, "a channel"))
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


def weyl_operators(D: int) -> np.ndarray:
    """Read-only (D^2, D, D) stack of the Weyl operators; entry a*D + b is X^a Z^b.

    X |j> = |j+1 mod D> is the shift and Z |j> = omega^j |j> the clock,
    so (X^a Z^b)[i, j] is omega^(b j) where i = j + a mod D and 0
    elsewhere: one broadcast of the shift pattern against the phases.

    Raises:
        InvalidDimensionError: D not an integer >= 1.
    """
    D = _require_dimension(D, 1, "the Weyl group")
    k = np.arange(D)
    shifts = k[None, :, None] == (k[None, None, :] + k[:, None, None]) % D  # [a, i, j]
    phases = np.exp(2.0j * math.pi * (np.outer(k, k) % D) / D)  # [b, j]
    ops = (shifts[:, None] * phases[None, :, None, :]).reshape(D * D, D, D)
    ops.setflags(write=False)
    return ops


def maximally_entangled(D: int) -> np.ndarray:
    """|Phi+> = sum_j |jj>/sqrt(D) as a length-D^2 vector; D not an integer >= 1 raises InvalidDimensionError."""
    D = _require_dimension(D, 1, "a maximally entangled state")
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
        D = _require_dimension(self.dim, 2, "a chi state")
        object.__setattr__(self, "dim", D)
        a, b = complex(self.alpha), complex(self.beta)
        # squares by multiplication: a float ** raises OverflowError past 1.3e154, * gives inf
        a2, b2 = abs(a) * abs(a), abs(b) * abs(b)
        _in_range(a2 + b2 + 2.0 * (a * b.conjugate()).real / D, 1.0, 1.0, NonUnitVectorError, "chi norm^2")
        _in_range(b2, 0.0, D * D / (D * D - 1.0), DomainError, "|beta|^2")

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
        InvalidDimensionError: D not an integer >= 2.
        DomainError: beta2 outside that range.
    """
    D = _require_dimension(D, 2, "a chi state")
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
    _polarization(p, D)  # a check only: the caller's p is used unclamped
    out = DensityMatrix((1.0 - p) * np.eye(D) / D + p * rho.matrix)
    return DepolarizedOutput(state=out, physically_realizable=p >= p_min_cp(D) - 1e-12)


def depolarizing_kraus(D: int, p: float) -> KrausChannel:
    """Kraus form of the depolarizing map over the Weyl group.

    Valid exactly on the CP range p >= -1/(D^2-1), where the identity
    weight p + (1-p)/D^2 stays nonnegative.

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        PolarizationOutOfRangeError: p outside the CP range.
    """
    D = _require_dimension(D, 2, "a polarization range")
    _cp_polarization(p, D)  # a check only: the caller's p is used unclamped
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
    is w |psi><psi| + |beta|^2 1/D, w = |alpha|^2 + 2 Re(alpha beta*)/D =
    1 - |beta|^2 by chi's normalization: the DPS over psi at p = w, built in
    O(D^2).  The tests check it against that marginal and the dense unitary.

    Raises:
        DimensionMismatchError: len(psi) != chi.dim.
        NonUnitVectorError.
    """
    v = np.asarray(psi, dtype=complex).reshape(-1)
    D = chi.dim
    if v.shape[0] != D:
        raise DimensionMismatchError(f"state length {v.shape[0]} != chi dimension {D}")
    a, b = complex(chi.alpha), complex(chi.beta)
    return make_dps(v, abs(a) * abs(a) + 2.0 * (a * b.conjugate()).real / D).to_matrix()


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
    """The depolarization strength a twirl produces: (D^2 f - 1)/(D^2 - 1).

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        FOutOfRangeError: f NaN or outside [0, 1].
    """
    D = _require_dimension(D, 2, "a twirl")
    _in_range(f, 0.0, 1.0, FOutOfRangeError, "f")  # a check only: the caller's f is used unclamped
    return (D * D * f - 1.0) / (D * D - 1.0)


def p_from_overlap(D: int, overlap: float) -> float:
    """The p of a DPS from <psi|rho|psi> = (1-p)/D + p: (overlap - 1/D)/(1 - 1/D).

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        FOutOfRangeError: overlap NaN or outside [0, 1].
    """
    D = _require_dimension(D, 2, "a polarization")
    # a check only: the caller's overlap is used unclamped
    _in_range(overlap, 0.0, 1.0, FOutOfRangeError, "overlap")
    return (overlap - 1.0 / D) / (1.0 - 1.0 / D)


# ---------------------------------------------------------------------------
# Clifford groups


def _clifford_generators(D: int) -> np.ndarray:
    """The (2, D, D) stack of the Fourier (Hadamard) gate F and the diagonal phase gate S, at D = 2 or odd D.

    At odd D, S = diag(omega^(j (j-1) / 2)) sends X to X Z; at D = 3 that
    is diag(1, 1, omega).
    """
    omega = np.exp(2.0j * math.pi / D)
    F = np.array([[omega ** (j * k) for k in range(D)] for j in range(D)]) / math.sqrt(D)
    S = np.diag([1.0, 1.0j]) if D == 2 else np.diag([omega ** (j * (j - 1) // 2 % D) for j in range(D)])
    return np.array([F, S])


def clifford_group(D: int) -> np.ndarray:
    """All Clifford unitaries modulo global phase: 24 at D=2, 216 at D=3.

    The oracle of the exact Clifford twirl, which no library path
    enumerates: the tests average over this group and compare the mean
    with the closed form ``twirl`` returns.

    Returned as one read-only (n, D, D) stack whose entry 0 is the
    identity.  Breadth-first closure from {Hadamard/Fourier, diagonal
    phase gate}: each layer forms every product g U of a generator g
    with the frontier in one batched matmul, in the order (for U, for g).
    |Tr(V^dag W)| = D exactly when W is V up to phase, and W matches
    itself, so one product of the candidates W against [group; W] finds
    each one's first match; W is new exactly when that match is W
    itself.  It joins with the phase that makes real and positive its
    first entry within 1e-9 of the largest modulus.  The loop stops once
    the group outgrows its order, so a wrong generator fails fast.

    Raises:
        InvalidDimensionError: D not an integer >= 2.
        UnsupportedDimensionError: D not in {2, 3}.
        InternalCheckError: the closure has the wrong order.
    """
    D = _require_dimension(D, 2, "Clifford enumeration")
    if D not in (2, 3):
        raise UnsupportedDimensionError(f"Clifford enumeration supports D in {{2, 3}}, got {D}")
    gens = _clifford_generators(D)
    expected = {2: 24, 3: 216}[D]
    group = np.eye(D, dtype=complex)[None]
    frontier = group
    while len(frontier) and len(group) <= expected:
        W = (gens @ frontier[:, None]).reshape(-1, D * D)
        rows = np.concatenate([group.reshape(-1, D * D), W])
        first_match = (np.abs(W.conj() @ rows.T) > D - 1e-6).argmax(axis=1)
        fresh = W[first_match == len(group) + np.arange(len(W))]
        mags = np.abs(fresh)
        first_top = (mags >= mags.max(axis=1, keepdims=True) - 1e-9).argmax(axis=1)
        # scalar division: numpy's array division can differ from it in the last bit
        fresh *= np.array([abs(z) / z for z in fresh[np.arange(len(fresh)), first_top]])[:, None]
        frontier = fresh.reshape(-1, D, D)
        group = np.concatenate([group, frontier])
    if len(group) != expected:
        raise InternalCheckError(f"Clifford closure found {len(group)} elements, expected {expected}")
    group.setflags(write=False)
    return group


# ---------------------------------------------------------------------------
# Haar sampling


def haar_unitary(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed unitary; draws as ``haar_unitaries(D, 1, rng)``.

    Raises:
        InvalidDimensionError: D not an integer >= 1.
    """
    return next(haar_unitaries(D, 1, rng))[0]


def haar_unitaries(D: int, count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """``count`` independent Haar unitaries, as (k, D, D) stacks of k <= GRAM_ROWS.

    Every stack but the last holds min(GRAM_ROWS, HAAR_DRAW_ENTRIES // D^2)
    unitaries, at least one, so a draw's memory does not grow with D.  Each
    draws its real parts and then its imaginary parts from ``rng``, so up
    to that many unitaries draw as one stack would.

    Raises:
        InvalidDimensionError: D not an integer >= 1, at the call, before any draw.
        DomainError: count not an integer >= 1, at the call, before any draw.
    """
    D = _require_dimension(D, 1, "a Haar unitary")
    count = _require_count(count, "a Haar unitary count")

    def stacks():
        size = max(1, min(GRAM_ROWS, HAAR_DRAW_ENTRIES // (D * D)))
        for start in range(0, count, size):
            k = min(size, count - start)
            Z = (rng.standard_normal((k, D, D)) + 1.0j * rng.standard_normal((k, D, D))) / math.sqrt(2.0)
            Q, R = np.linalg.qr(Z)
            d = np.diagonal(R, axis1=1, axis2=2)
            yield Q * (d / np.abs(d))[:, None, :]

    return stacks()


def haar_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random pure state vector.

    Raises:
        InvalidDimensionError: D not an integer >= 1.
    """
    D = _require_dimension(D, 1, "a Haar state")
    v = rng.standard_normal(D) + 1.0j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# twirling


class TwirlResult(NamedTuple):
    """A twirl's averaged Choi matrix over D, p_hat, and max Choi entry deviation from the depolarizing map at p_hat.

    ``jamiolkowski`` is what ``jamiolkowski_state`` gives of the averaged channel and ``--out`` writes.  The
    full group's is the depolarizing map's, at deviation 0.0, whose Kraus form is ``depolarizing_kraus(D, p_hat)``."""

    jamiolkowski: DensityMatrix
    p_hat: float
    depolarizing_deviation: float


def _gram_mean(blocks: Iterable[np.ndarray], count: int) -> np.ndarray:
    """The sum of M^T M^* over a stream of row blocks M, over the ``count`` items whose rows they hold.

    An item is a unitary, whose rows are its vec(U^dag K U) (the Haar
    twirl), or one row (the recipe).  The caller cuts the blocks to about
    GRAM_ROWS rows (one item's, if it has more), so memory does not grow
    with the number of items.
    """
    total = 0.0
    for M in blocks:
        total = total + M.T @ M.conj()
    return total / count


def _depolarizing_choi(D: int, p: float) -> np.ndarray:
    """The Choi matrix of the depolarizing map at p: (1-p)/D 1 + p |vec 1><vec 1|."""
    vec1 = np.eye(D).reshape(-1)
    return ((1.0 - p) / D) * np.eye(D * D) + p * np.outer(vec1, vec1)


def twirl(
    ch: KrausChannel,
    mode: str = "exact-clifford",
    samples: int = 0,
    seed: int | None = None,
    exclude_identity: bool = False,
) -> TwirlResult:
    """Average U^dag . channel . U over unitaries U into a depolarizing map.

    Each mode forms the averaged Choi matrix C once and returns C/D.
    exact-clifford (prime D <= CLIFFORD_TWIRL_MAX_DIM) is the average
    over the Clifford group, written in closed form: the group is a
    unitary 2-design at every prime D (Gross, Audenaert & Eisert, J. Math.
    Phys. 48, 052104 (2007)), so the average of any channel is the
    depolarizing map at p_hat = (D^2 f - 1)/(D^2 - 1), with f the
    channel's Jamiolkowski fidelity (Dankert, Cleve, Emerson & Livine,
    PRA 80, 012304 (2009)), whose C is formed in O(D^4) with no
    eigensolve.  The tests check it against the Gram mean
    over ``clifford_group`` at D in {2, 3} and over a brute-force closure
    at D = 5.  haar-sample (D <= 6) averages `samples` seeded Haar
    conjugations, as the ``_gram_mean`` of the rows vec(U^dag K U), and
    estimates p_hat from the averaged action on |0><0| (the Jamiolkowski
    fidelity itself is conjugation-invariant, so it carries no
    Monte-Carlo information); standard error scales as 1/sqrt(samples).

    ``exclude_identity`` averages over the N - 1 = D^3 (D^2 - 1) - 1
    elements of the Clifford group modulo phase other than the identity,
    (N C_dep - C)/(N - 1) with C the channel's own Choi matrix, for
    measuring how far that deficient average is from depolarizing; the
    deviation is reported, never assumed zero.  Each mode takes only its
    own arguments: exact-clifford no samples or seed, haar-sample no
    ``exclude_identity``.

    Raises:
        InvalidDimensionError: D < 2 (exact-clifford).
        UnsupportedDimensionError: dimension outside the mode's support.
        DomainError: unknown mode, samples not an integer >= 1 or a seed
            that is not an integer >= 0 (haar-sample), or an argument the
            mode does not use.
        InternalCheckError: C traced over the output is not the identity within
            TP_TOL, or (off the full group) C has an eigenvalue below -1e-10.
    """
    D = ch.dim
    if mode == "exact-clifford":
        if samples != 0 or seed is not None:
            raise DomainError("exact-clifford twirl takes no samples or seed")
        p_hat = twirl_p(D, jamiolkowski_fidelity(ch))  # it refuses D < 2
        if D > CLIFFORD_TWIRL_MAX_DIM or any(D % k == 0 for k in range(2, math.isqrt(D) + 1)):
            raise UnsupportedDimensionError(
                f"exact-clifford twirl needs a prime D <= {CLIFFORD_TWIRL_MAX_DIM} (a unitary 2-design), got {D}"
            )
        C = _depolarizing_choi(D, p_hat)
        if exclude_identity:
            N = D**3 * (D * D - 1)  # the order of the Clifford group modulo phase
            C = (N * C - _choi(ch.kraus)) / (N - 1)
    elif mode == "haar-sample":
        if exclude_identity:
            raise DomainError("exclude_identity applies to the exact-clifford twirl only")
        if D > 6:
            raise UnsupportedDimensionError(f"haar-sample twirl supports D <= 6, got {D}")
        _require_count(samples, "haar-sample twirl samples")
        step = max(1, GRAM_ROWS // len(ch.kraus))  # unitaries per block of rows
        stacks = haar_unitaries(D, samples, _seeded_rng(seed))
        Vs = (Us[i : i + step, None] for Us in stacks for i in range(0, len(Us), step))
        C = _gram_mean(((V.conj().swapaxes(-1, -2) @ ch.kraus @ V).reshape(-1, D * D) for V in Vs), samples)
    else:
        raise DomainError(f"unknown twirl mode {mode!r}")

    tp = float(np.max(np.abs(partial_trace(C, D, D, keep="B") - np.eye(D))))
    if not tp <= TP_TOL:
        raise InternalCheckError(f"averaged Choi matrix traced over the output deviates from 1 by {tp:.3e}")
    state = DensityMatrix(C / D)
    if mode == "exact-clifford" and not exclude_identity:
        return TwirlResult(jamiolkowski=state, p_hat=p_hat, depolarizing_deviation=0.0)
    # absolute, because trace preservation fixes Tr C = D: the eigenvalues lie in [0, D]
    low = D * float(np.linalg.eigvalsh(state.matrix)[0])
    if low < -1e-10:
        raise InternalCheckError(f"averaged Choi matrix has eigenvalue {low:.3e}")
    if mode == "haar-sample":
        # <0| twirl(|0><0|) |0> is the Choi entry at ((0, 0), (0, 0)), in [0, 1] once C passed both checks
        p_hat = p_from_overlap(D, float(C[0, 0].real))
    dev = float(np.max(np.abs(C - _depolarizing_choi(D, p_hat))))
    return TwirlResult(jamiolkowski=state, p_hat=p_hat, depolarizing_deviation=dev)


# ---------------------------------------------------------------------------
# recipe and local depolarization


def _flip_rows(v: np.ndarray, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rows y = c v + |Xu - c u| r with c = <u|X|u> and X the shift, one per row of (u, r).

    For a unitary U with u = U v and r the unit vector along
    U^dag (Xu - c u), y is U^dag X U v: Xu is c u plus a part orthogonal
    to u, and U^dag takes u to v and u^perp onto v^perp.  For a unit u,
    |Xu - c u| is sqrt(1 - |c|^2), here formed without the cancellation
    of 1 - |c|^2 near |c| = 1.
    """
    Xu = np.roll(u, 1, axis=1)  # X |j> = |j+1 mod D>
    c = np.einsum("ij,ij->i", u.conj(), Xu)
    s = np.linalg.norm(Xu - c[:, None] * u, axis=1)
    return c[:, None] * v + s[:, None] * r


def _flip_stream(v: np.ndarray, trials: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The rows U^dag X U v of ``trials`` Haar unitaries U, as (k, D) blocks of k <= GRAM_ROWS.

    A row depends on U only through u = U v, a Haar vector, and the
    direction r of U^dag (Xu - c u), which given u is uniform on the unit
    sphere of v^perp, since U^dag maps u^perp onto v^perp Haar-uniformly.
    So each block draws one (2, k, 2D) standard normal array, read as two
    (k, D) complex Gaussian stacks, and forms u from the first, normalized,
    and r from the second, projected off v and normalized (zero where the
    projection is, as at D = 1, where v^perp is empty): O(D) per trial
    and no unitary.
    """
    D = v.shape[0]
    for start in range(0, trials, GRAM_ROWS):
        u, w = rng.standard_normal((2, min(GRAM_ROWS, trials - start), 2 * D)).view(complex)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w -= np.outer(w @ v.conj(), v)
        norm = np.linalg.norm(w, axis=1, keepdims=True)
        yield _flip_rows(v, u, np.divide(w, norm, out=np.zeros_like(w), where=norm > 0.0))


def pdps_recipe(psi, f: float, seed: int, trials: int) -> DensityMatrix:
    """Monte-Carlo realization of a physical DPS from a pure state.

    Each trial conjugates the two-outcome map {identity w.p. f, Weyl X
    w.p. 1-f} by a fresh Haar unitary; the map itself is applied exactly
    (the average over its outcomes), so all sampling noise comes from U.
    The trial average converges to the DPS with p = (D^2 f - 1)/(D^2-1).

    Each flipped state W rho W^dag, W = U^dag X U, is y y^dag for
    y = U^dag X U psi, so their mean is the ``_gram_mean`` of the rows y,
    whose memory does not grow with ``trials``.  The rows come from
    ``_flip_stream``, which draws each y with the distribution it has
    under Haar U in O(D) and no D x D unitary, so a trial costs the O(D^2)
    of its rank-one Gram update.  The tests check a row against
    U^dag X U psi for Haar U, and the mean flipped state against its
    exact Haar moments.

    Raises:
        FOutOfRangeError: f outside [0, 1].
        NonUnitVectorError.
        DomainError: trials not an integer >= 1, or seed not an integer >= 0.
    """
    f = _in_range(f, 0.0, 1.0, FOutOfRangeError, "f")
    v, norm2 = _unit_vector(psi)
    # psi may be up to 1e-12 off unit norm; rho and every flipped row are built from the unit vector
    v = v / math.sqrt(norm2)
    _require_count(trials, "trials")
    rho = np.outer(v, v.conj())
    flipped = _gram_mean(_flip_stream(v, trials, _seeded_rng(seed)), trials)
    return DensityMatrix(f * rho + (1.0 - f) * flipped)


def local_depolarize(
    rho: DensityMatrix, dA: int, dB: int, pA: float, pB: float
) -> DensityMatrix:
    """Independent depolarization of each half of a bipartite state.

    The four-term decomposition with weights pA pB, pA(1-pB), (1-pA) pB,
    (1-pA)(1-pB); even on a DPS input the output is generally not a DPS,
    which is why the protocols above need the global map instead.

    Raises:
        InvalidDimensionError: dA or dB not an integer >= 2.
        PolarizationOutOfRangeError: either local p outside its CP range.
        DimensionMismatchError.
    """
    dA = _require_dimension(dA, 2, "each subsystem")
    dB = _require_dimension(dB, 2, "each subsystem")
    if rho.dim != dA * dB:
        raise DimensionMismatchError(f"state dim {rho.dim} != dA*dB = {dA * dB}")
    for d, p, name in ((dA, pA, "pA"), (dB, pB, "pB")):
        _cp_polarization(p, d, name)
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
        InvalidDimensionError: D not an integer >= 1.
        DomainError: kraus_count not an integer >= 0, or seed not an integer >= 0.
        NotTracePreservingError: kraus_count 0.
    """
    D = _require_dimension(D, 1, "a random channel")
    kraus_count = _require_count(kraus_count, "kraus_count", 0)
    if kraus_count < 1:
        raise NotTracePreservingError("a channel needs at least one Kraus operator")
    U = haar_unitary(D * kraus_count, _seeded_rng(seed))
    return KrausChannel(dim=D, kraus=U[:, :D].reshape(kraus_count, D, D))
