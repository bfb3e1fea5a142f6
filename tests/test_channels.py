import json
import math
import re
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dpstates
from dpstates import (
    ChiState,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    FOutOfRangeError,
    InternalCheckError,
    InvalidDimensionError,
    KrausChannel,
    NonUnitVectorError,
    NotTracePreservingError,
    PolarizationOutOfRangeError,
    UnsupportedDimensionError,
    apply_depolarizing,
    chi_from_beta2,
    clifford_group,
    depolarizing_kraus,
    dps_moment,
    haar_state,
    haar_unitary,
    jamiolkowski_fidelity,
    jamiolkowski_state,
    local_depolarize,
    make_dps,
    maximally_entangled,
    p_min,
    p_min_cp,
    partial_trace,
    pdps_recipe,
    protocol1,
    random_channel,
    tensor,
    trace_distance_oracle,
    twirl,
    twirl_p,
    weyl_operators,
)

from dpstates import channels
from conftest import random_mixed, rng_for


@pytest.mark.parametrize(
    "call",
    [
        lambda: p_min(1),
        lambda: p_min_cp(1),
        lambda: apply_depolarizing(DensityMatrix(np.eye(1)), 0.5),
        lambda: depolarizing_kraus(1, 0.5),
        lambda: twirl_p(1, 0.5),
        lambda: channels.p_from_overlap(1, 0.5),
        lambda: twirl(KrausChannel(dim=1, kraus=[np.eye(1)]), mode="haar-sample", samples=3, seed=1),
        lambda: twirl(KrausChannel(dim=1, kraus=[np.eye(1)]), mode="exact-clifford"),
        lambda: ChiState(1, 1.0, 0.0),
        lambda: chi_from_beta2(1, 0.5),
        lambda: protocol1([1.0], ChiState(1, 1.0, 0.0)),
        lambda: dps_moment(0, 0.5, 2),
        lambda: KrausChannel(dim=0, kraus=[np.zeros((0, 0))]),
    ],
    ids=[
        "p_min", "p_min_cp", "apply_depolarizing", "depolarizing_kraus", "twirl_p", "p_from_overlap",
        "haar_sample_twirl", "exact_clifford_twirl", "ChiState", "chi_from_beta2", "protocol1", "dps_moment",
        "KrausChannel",
    ],
)
def test_dimension_below_two_is_an_invalid_dimension(call):
    # 1/(D-1), 1/(D^2-1) and 1/(1-1/D) are undefined at D = 1; a channel needs only D >= 1
    with pytest.raises(InvalidDimensionError):
        call()


def kron_superoperator(kraus) -> np.ndarray:
    """Dense oracle: sum_K kron(K, K^*), acting on row-major vec(rho)."""
    return sum(np.kron(K, K.conj()) for K in kraus)


def kron_jamiolkowski(kraus) -> np.ndarray:
    """Dense oracle: sum_K kron(K, 1) |Phi+><Phi+| kron(K, 1)^dag."""
    D = kraus[0].shape[0]
    phi = maximally_entangled(D)
    proj = np.outer(phi, phi.conj())
    out = np.zeros((D * D, D * D), dtype=complex)
    for K in kraus:
        big = np.kron(K, np.eye(D))
        out += big @ proj @ big.conj().T
    return out


def reshuffle(C: np.ndarray, D: int) -> np.ndarray:
    """Reorder the axes ((i, k), (j, l)) -> ((i, j), (k, l)): Choi <-> superoperator."""
    return C.reshape(D, D, D, D).transpose(0, 2, 1, 3).reshape(D * D, D * D)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_channel(path, ch: KrausChannel) -> str:
    """Write ``ch`` as a channel file in the CLI's [re, im] encoding; returns the path."""
    kraus = [[[[z.real, z.imag] for z in row] for row in K] for K in ch.kraus]
    path.write_text(json.dumps({"dim": ch.dim, "kraus": kraus}))
    return str(path)


def conjugated_rows(kraus, Us):
    """The rows vec(U^dag K U) of every (U, K), as one block for ``channels._gram_mean``."""
    D = kraus.shape[-1]
    return (Us[:, None].conj().swapaxes(-1, -2) @ kraus @ Us[:, None]).reshape(-1, D * D)


def haar_stream(D: int, count: int, seed: int) -> np.ndarray:
    """The unitaries ``haar_unitaries`` draws from ``default_rng(seed)``, as one stack."""
    return np.concatenate(list(channels.haar_unitaries(D, count, np.random.default_rng(seed))))


def kron_twirl_average(kraus, unitaries) -> np.ndarray:
    """Dense oracle: mean over U of kron(U^dag, U^T) . S . kron(U, U^*)."""
    S = kron_superoperator(kraus)
    acc = np.zeros_like(S)
    for U in unitaries:
        acc += np.kron(U.conj().T, U.T) @ S @ np.kron(U, U.conj())
    return acc / len(unitaries)


class TestKrausChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreservingError):
            KrausChannel(dim=2, kraus=(np.eye(2) * 0.9,))
        with pytest.raises(NotTracePreservingError):
            KrausChannel(dim=2, kraus=())

    def test_apply_matches_superoperator(self):
        ch = random_channel(3, 2, seed=60)
        dm = random_mixed(3, rng_for(61))
        direct = ch.apply(dm.matrix)
        via_superop = (ch.superoperator() @ dm.matrix.reshape(-1)).reshape(3, 3)
        assert np.max(np.abs(direct - via_superop)) < 1e-13

    @pytest.mark.parametrize("D, count", [(2, 1), (3, 4), (5, 3)])
    def test_superoperator_matches_kron_oracle(self, D, count):
        ch = random_channel(D, count, seed=63 + D)
        assert np.max(np.abs(ch.superoperator() - kron_superoperator(ch.kraus))) < 1e-14

    def test_rejects_wrong_shaped_operator(self):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(dim=2, kraus=(np.eye(2), np.eye(3)))

    def test_kraus_is_one_read_only_stack(self):
        ch = KrausChannel(dim=2, kraus=[np.eye(2)])
        assert ch.kraus.shape == (1, 2, 2)
        assert not ch.kraus.flags.writeable

    @pytest.mark.parametrize("D", [0, -1])
    def test_random_channel_rejects_empty_or_negative_dimension(self, D):
        with pytest.raises(InvalidDimensionError):
            random_channel(D, 1, seed=1)

    def test_random_channel_needs_a_kraus_operator(self):
        with pytest.raises(NotTracePreservingError):
            random_channel(2, 0, seed=1)

    def test_random_channel_is_deterministic(self):
        a = random_channel(2, 3, seed=62)
        b = random_channel(2, 3, seed=62)
        for Ka, Kb in zip(a.kraus, b.kraus):
            assert np.array_equal(Ka, Kb)


def shift_and_clock(D: int) -> tuple[np.ndarray, np.ndarray]:
    """X |j> = |j+1 mod D> and Z |j> = omega^j |j>, written out entry by entry."""
    X = np.zeros((D, D), dtype=complex)
    for j in range(D):
        X[(j + 1) % D, j] = 1.0
    Z = np.diag(np.exp(2.0j * math.pi * np.arange(D) / D))
    return X, Z


class TestWeylBasis:
    """The (D^2, D, D) stack from weyl_operators: entry a*D + b is X^a Z^b."""

    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_unitary_and_commutation(self, D):
        W = weyl_operators(D)
        X, Z = W[D], W[1]
        omega = np.exp(2.0j * math.pi / D)
        assert np.max(np.abs(X @ X.conj().T - np.eye(D))) < 1e-13
        assert np.max(np.abs(Z @ X - omega * X @ Z)) < 1e-13

    def test_elements_traceless_except_identity(self):
        W = weyl_operators(3)
        for a in range(3):
            for b in range(3):
                tr = np.trace(W[3 * a + b])
                if a == b == 0:
                    assert tr == pytest.approx(3.0)
                else:
                    assert abs(tr) < 1e-13

    @pytest.mark.parametrize("D", [0, -2])
    def test_rejects_empty_or_negative_dimension(self, D):
        with pytest.raises(InvalidDimensionError):
            weyl_operators(D)

    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_order_matches_matrix_powers(self, D):
        W = weyl_operators(D)
        assert W.shape == (D * D, D, D)
        assert not W.flags.writeable
        X, Z = shift_and_clock(D)
        for a in range(D):
            for b in range(D):
                want = np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)
                assert np.max(np.abs(W[a * D + b] - want)) < 1e-13


class TestChiState:
    def test_norm_enforced(self):
        with pytest.raises(NonUnitVectorError):
            ChiState(dim=2, alpha=1.0, beta=0.5)

    def test_beta2_round_trip_and_vector_norm(self):
        for D in (2, 3, 4):
            for beta2 in (0.0, 0.3, D * D / (D * D - 1.0)):
                chi = chi_from_beta2(D, beta2)
                assert chi.beta2 == pytest.approx(beta2, abs=1e-12)
                assert np.linalg.norm(chi.vector()) == pytest.approx(1.0, abs=1e-12)

    def test_beta2_range(self):
        with pytest.raises(DomainError):
            chi_from_beta2(2, 4.0 / 3.0 + 1e-6)
        with pytest.raises(DomainError):
            chi_from_beta2(2, -0.1)


class TestApplyDepolarizing:
    def test_formula(self):
        rng = rng_for(63)
        dm = random_mixed(4, rng)
        out = apply_depolarizing(dm, 0.35)
        expect = 0.65 * np.eye(4) / 4.0 + 0.35 * dm.matrix
        assert np.max(np.abs(out.state.matrix - expect)) < 1e-14
        assert out.physically_realizable

    def test_cp_flag(self):
        dm = random_mixed(3, rng_for(64))
        assert apply_depolarizing(dm, p_min_cp(3)).physically_realizable
        assert not apply_depolarizing(dm, p_min_cp(3) - 1e-6).physically_realizable

    def test_range(self):
        dm = random_mixed(3, rng_for(65))
        with pytest.raises(PolarizationOutOfRangeError):
            apply_depolarizing(dm, p_min(3) - 1e-6)
        with pytest.raises(PolarizationOutOfRangeError):
            apply_depolarizing(dm, 1.0 + 1e-6)


class TestDepolarizingKraus:
    @pytest.mark.parametrize("D", [2, 3])
    def test_action_matches_formula(self, D):
        rng = rng_for(66, D)
        dm = random_mixed(D, rng)
        for p in (p_min_cp(D), 0.0, 0.5, 1.0):
            ch = depolarizing_kraus(D, p)
            expect = apply_depolarizing(dm, p).state.matrix
            assert np.max(np.abs(ch.apply(dm.matrix) - expect)) < 1e-12

    def test_jamiolkowski_fidelity(self):
        ch = depolarizing_kraus(3, 0.4)
        assert jamiolkowski_fidelity(ch) == pytest.approx(0.4 + 0.6 / 9.0, abs=1e-12)

    def test_cp_range_enforced(self):
        with pytest.raises(PolarizationOutOfRangeError):
            depolarizing_kraus(3, p_min_cp(3) - 1e-6)


def protocol_sources_and_targets(D: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns |m>|Phi+>, |m>|0>|uniform> and the images the protocol assigns them.

    The pair for system state m sits in columns 2m and 2m + 1, on
    system (x) ancilla-1 (x) ancilla-2 with row-major composite indices.
    """
    n = D**3
    src = np.zeros((n, 2 * D), dtype=complex)
    tgt = np.zeros((n, 2 * D), dtype=complex)
    phi = maximally_entangled(D)
    for m in range(D):
        src[m * D * D : (m + 1) * D * D, 2 * m] = phi
        src[m * D * D : m * D * D + D, 2 * m + 1] = 1.0 / math.sqrt(D)
        tgt[:, 2 * m] = src[:, 2 * m]
        for l in range(D):
            tgt[(l * D + m) * D + l, 2 * m + 1] = 1.0 / math.sqrt(D)
    return src, tgt


@lru_cache(maxsize=None)
def dense_protocol_unitary(D: int) -> np.ndarray:
    """The protocol's D^3 x D^3 unitary, built densely as an oracle for small D.

    Source and target pairs share the Gram matrix [[1, 1/D], [1/D, 1]],
    so after orthonormalizing each pair the same way the map extends to
    a unitary; the orthogonal complements, of known dimension D^3 - 2D,
    are matched by their trailing right singular vectors.
    """
    src, tgt = protocol_sources_and_targets(D)
    off = 1.0 / math.sqrt(1.0 - 1.0 / (D * D))
    src[:, 1::2] = off * (src[:, 1::2] - src[:, 0::2] / D)
    tgt[:, 1::2] = off * (tgt[:, 1::2] - tgt[:, 0::2] / D)
    ns = np.linalg.svd(src.conj().T)[2][2 * D :].conj().T
    nt = np.linalg.svd(tgt.conj().T)[2][2 * D :].conj().T
    U = tgt @ src.conj().T + nt @ ns.conj().T
    assert np.max(np.abs(U.conj().T @ U - np.eye(D**3))) < 1e-10
    return U


def closed_action_marginal(psi, chi: ChiState) -> np.ndarray:
    """System marginal of U(psi (x) chi) from the protocol unitary's closed action, as an oracle.

    Every legal input lies in the span of the |m>|Phi+> and |m>|0>|uniform>
    on which U is fixed, so U(psi (x) chi) is the D x D^2 array
    O[s, (a1, a2)] = (alpha psi_s delta_{a1 a2} + beta psi_{a1} delta_{s a2}) / sqrt(D),
    and the marginal is O O^dag: O(D^3) memory and O(D^4) time.
    """
    D = chi.dim
    v = np.asarray(psi, dtype=complex)
    eye = np.eye(D)
    out = (chi.alpha * v[:, None, None] * eye + chi.beta * eye[:, None, :] * v[:, None]) / math.sqrt(D)
    out = out.reshape(D, D * D)
    return out @ out.conj().T


def complex_chi(D: int, rng: np.random.Generator) -> ChiState:
    """A ChiState of complex Gaussian amplitudes, normalized: |beta|^2 anywhere in its range."""
    a, b = rng.standard_normal(2) + 1.0j * rng.standard_normal(2)
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2 + 2.0 * (a * b.conjugate()).real / D)
    return ChiState(dim=D, alpha=a / norm, beta=b / norm)


class TestProtocol1:
    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_dense_unitary_oracle(self, D):
        U = dense_protocol_unitary(D)
        assert np.max(np.abs(U @ U.conj().T - np.eye(D**3))) < 1e-10
        src, tgt = protocol_sources_and_targets(D)
        assert np.max(np.abs(U @ src - tgt)) < 1e-10
        rng = rng_for(92, D)
        for beta2 in (0.0, 0.3, 1.0, D * D / (D * D - 1.0)):
            psi = haar_state(D, rng)
            chi = chi_from_beta2(D, beta2)
            out = U @ np.kron(psi, chi.vector())
            oracle = partial_trace(np.outer(out, out.conj()), D, D * D, keep="A")
            assert np.max(np.abs(protocol1(psi, chi).matrix - oracle)) < 1e-12
            assert np.max(np.abs(closed_action_marginal(psi, chi) - oracle)) < 1e-12

    def test_complex_amplitudes_match_oracle(self):
        D = 3
        rng = rng_for(93)
        chi0 = chi_from_beta2(D, 0.4)
        phase = np.exp(0.7j)
        chi = ChiState(dim=D, alpha=chi0.alpha * phase, beta=chi0.beta * phase)
        psi = haar_state(D, rng)
        out = dense_protocol_unitary(D) @ np.kron(psi, chi.vector())
        oracle = partial_trace(np.outer(out, out.conj()), D, D * D, keep="A")
        assert np.max(np.abs(protocol1(psi, chi).matrix - oracle)) < 1e-12

    @pytest.mark.seed_sweep  # a closed-form construction test: each seed draws other inputs
    @settings(max_examples=60, deadline=None)
    @given(D=st.integers(2, 12), seed=st.integers(0, 2**32 - 1), extreme=st.sampled_from([None, 0.0, 1.0]))
    def test_matches_closed_action_marginal(self, D, seed, extreme):
        # complex psi and complex chi amplitudes, or the real branch at
        # |beta|^2 = 0 and at the universal inverter's D^2/(D^2 - 1)
        rng = rng_for(seed)
        psi = haar_state(D, rng)
        chi = complex_chi(D, rng) if extreme is None else chi_from_beta2(D, extreme * D * D / (D * D - 1.0))
        assert np.max(np.abs(protocol1(psi, chi).matrix - closed_action_marginal(psi, chi))) < 1e-15

    def test_memory_stays_quadratic(self):
        # the D x D^2 post-unitary state alone would take 128 MB at D = 200
        D = 200
        psi = haar_state(D, rng_for(94))
        chi = chi_from_beta2(D, 0.5)
        assert traced_peak(lambda: protocol1(psi, chi)) < 8_000_000

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_residual_formula(self, D):
        rng = rng_for(67, D)
        for beta2 in (0.0, 0.5, D * D / (D * D - 1.0)):
            psi = haar_state(D, rng)
            out = protocol1(psi, chi_from_beta2(D, beta2))
            pure = DensityMatrix(np.outer(psi, psi.conj()))
            expect = apply_depolarizing(pure, 1.0 - beta2).state
            assert trace_distance_oracle(out, expect) < 1e-10

    def test_extremal_beta2_is_universal_inverter(self):
        D = 3
        psi = haar_state(D, rng_for(68))
        out = protocol1(psi, chi_from_beta2(D, D * D / (D * D - 1.0)))
        pure = DensityMatrix(np.outer(psi, psi.conj()))
        expect = apply_depolarizing(pure, p_min_cp(D)).state
        assert trace_distance_oracle(out, expect) < 1e-10

    def test_input_validation(self):
        chi = chi_from_beta2(2, 0.1)
        with pytest.raises(NonUnitVectorError):
            protocol1(np.array([1.0, 1.0]), chi)
        with pytest.raises(DimensionMismatchError):
            protocol1(np.array([1.0, 0.0, 0.0]), chi)


def test_jamiolkowski_state_of_identity():
    ch = KrausChannel(dim=3, kraus=(np.eye(3),))
    E = jamiolkowski_state(ch)
    phi = maximally_entangled(3)
    assert np.max(np.abs(E.matrix - np.outer(phi, phi.conj()))) < 1e-14
    assert jamiolkowski_fidelity(ch) == pytest.approx(1.0)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_jamiolkowski_matches_kron_oracle(D):
    ch = random_channel(D, 3, seed=90 + D)
    E = kron_jamiolkowski(ch.kraus)
    assert np.max(np.abs(jamiolkowski_state(ch).matrix - E)) < 1e-14
    phi = maximally_entangled(D)
    assert jamiolkowski_fidelity(ch) == pytest.approx(np.vdot(phi, E @ phi).real, abs=1e-14)


@lru_cache(maxsize=None)
def clifford_closure_oracle(D: int) -> np.ndarray:
    """Brute-force Clifford closure: each candidate scanned against every member found.

    The same breadth-first order and canonical phase as ``clifford_group``,
    with membership by |Tr(W^dag V)| = D over the whole group so far.
    Read-only, as it is cached; at D = 5 it takes about 2 s.
    """
    F, S = channels._clifford_generators(D)
    group = np.eye(D, dtype=complex)[None]
    frontier = list(group)
    while frontier:
        nxt = []
        for U in frontier:
            for g in (F, S):
                W = g @ U
                if not np.any(np.abs(np.einsum("ij,nij->n", W.conj(), group)) > D - 1e-6):
                    flat = np.abs(W).ravel()
                    pivot = W.ravel()[int(np.argmax(flat >= float(np.max(flat)) - 1e-9))]
                    W = W * (abs(pivot) / pivot)
                    group = np.concatenate([group, W[None]])
                    nxt.append(W)
        frontier = nxt
    group.setflags(write=False)
    return group


def clifford_twirl_oracle(ch: KrausChannel, group: np.ndarray, exclude_identity: bool) -> np.ndarray:
    """The Choi matrix of the Gram mean over a Clifford group, without its identity if asked."""
    # both closures start from the identity, so group[0] is always 1
    group = group[1:] if exclude_identity else group
    return channels._gram_mean([conjugated_rows(ch.kraus, group)], len(group))


class TestCliffordGroup:
    @pytest.mark.parametrize("D,size", [(2, 24), (3, 216)])
    def test_enumeration(self, D, size):
        group = clifford_group(D)
        assert len(group) == size
        assert np.allclose(group[0], np.eye(D))
        for U in group:
            assert np.max(np.abs(U @ U.conj().T - np.eye(D))) < 1e-12

    @pytest.mark.parametrize("D", [2, 3])
    def test_matches_scan_oracle_bit_for_bit(self, D):
        assert np.array_equal(clifford_group(D), clifford_closure_oracle(D))

    @pytest.mark.parametrize("D", [2, 3])
    def test_conjugates_every_weyl_operator_into_the_pauli_group(self, D):
        group, paulis = clifford_group(D), weyl_operators(D)
        conjugated = group[:, None] @ paulis @ group.conj().swapaxes(-1, -2)[:, None]
        overlaps = np.abs(np.einsum("upij,qij->upq", conjugated.conj(), paulis))
        assert np.all(np.sum(overlaps > D - 1e-6, axis=-1) == 1)

    @pytest.mark.parametrize("D", [2, 3])
    def test_generators_are_the_first_layer(self, D):
        # the closure's first layer is F and S themselves, each already in its canonical phase
        assert np.array_equal(clifford_group(D)[1:3], channels._clifford_generators(D))

    @pytest.mark.parametrize(
        "gate, too_many",
        [
            (np.diag([1.0, np.exp(0.25j * math.pi)]), True),  # F and T generate an infinite group
            (np.diag([1.0, -1.0]), False),  # F and Z close on 8 elements
        ],
        ids=["T-infinite", "Z-order-8"],
    )
    def test_wrong_generator_fails_the_order_guard(self, gate, too_many, monkeypatch):
        F, _ = channels._clifford_generators(2)
        monkeypatch.setattr(channels, "_clifford_generators", lambda D: np.array([F, gate]))
        start = time.perf_counter()
        with pytest.raises(InternalCheckError, match=r"found (\d+) elements, expected 24") as caught:
            clifford_group(2)
        assert time.perf_counter() - start < 1.0
        found = int(re.search(r"found (\d+)", str(caught.value)).group(1))
        assert found > 24 if too_many else found == 8

    def test_closed_under_product(self):
        # every product U V matches exactly one member up to phase
        for D in (2, 3):
            group = clifford_group(D)
            assert not group.flags.writeable
            for U in group:
                overlaps = np.abs(np.einsum("vij,wij->vw", (U @ group).conj(), group))
                assert np.all(np.sum(overlaps > D - 1e-6, axis=1) == 1)

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            clifford_group(4)

    @pytest.mark.parametrize("D", [3.0, np.float64(2.0), "3"])
    def test_non_integer_dimension(self, D):
        with pytest.raises(InvalidDimensionError):
            clifford_group(D)


TWIRL_PRIMES = [D for D in range(2, channels.CLIFFORD_TWIRL_MAX_DIM + 1) if all(D % k for k in range(2, D))]


class TestTwirl:
    @pytest.mark.parametrize("D", [2, 3, 5, 7])
    def test_exact_clifford_collapses_to_depolarizing(self, D):
        ch = random_channel(D, 3, seed=70 + D)
        result = twirl(ch, mode="exact-clifford")
        assert result.depolarizing_deviation < 1e-10
        assert result.p_hat == pytest.approx(twirl_p(D, jamiolkowski_fidelity(ch)), abs=1e-12)
        # the returned Choi matrix, reshuffled to a superoperator, acts as the depolarizing map
        dm = random_mixed(D, rng_for(71, D))
        expect = apply_depolarizing(dm, result.p_hat).state.matrix
        got = reshuffle(D * result.jamiolkowski.matrix, D) @ dm.matrix.reshape(-1)
        assert np.max(np.abs(got.reshape(D, D) - expect)) < 1e-10

    @pytest.mark.seed_sweep  # a closed-form construction test: each seed draws other inputs
    @settings(max_examples=40, deadline=None)
    @given(
        D=st.sampled_from([2, 3]),
        kraus_count=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        exclude=st.booleans(),
    )
    def test_closed_form_matches_clifford_group_average(self, D, kraus_count, seed, exclude):
        ch = random_channel(D, kraus_count, seed=seed)
        result = twirl(ch, mode="exact-clifford", exclude_identity=exclude)
        want = clifford_twirl_oracle(ch, clifford_group(D), exclude)
        assert np.max(np.abs(D * result.jamiolkowski.matrix - want)) < 1e-14
        dev = np.max(np.abs(want - channels._depolarizing_choi(D, result.p_hat)))
        assert result.depolarizing_deviation == pytest.approx(dev, abs=1e-14)
        # the group average is a Gram mean, hence positive, and so is the closed form to roundoff
        assert np.linalg.eigvalsh(result.jamiolkowski.matrix)[0] > -1e-14

    @pytest.mark.seed_sweep  # a closed-form construction test: each seed draws other inputs
    @settings(max_examples=60, deadline=None)
    @given(
        D=st.sampled_from(TWIRL_PRIMES),
        kraus_count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_group_choi_is_the_depolarizing_choi(self, D, kraus_count, seed):
        ch = random_channel(D, kraus_count, seed=seed)
        result = twirl(ch, mode="exact-clifford")
        assert result.depolarizing_deviation == 0.0
        got = D * result.jamiolkowski.matrix
        assert np.max(np.abs(got - channels._depolarizing_choi(D, result.p_hat))) < 1e-14
        # it is the Choi matrix of the D^2 Weyl Kraus operators of depolarizing_kraus
        assert np.max(np.abs(got - channels._choi(depolarizing_kraus(D, result.p_hat).kraus))) < 1e-14

    def test_no_twirl_path_splits_a_choi_matrix(self, monkeypatch, tmp_path):
        from dpstates.cli import main

        def refuse(*args):
            raise AssertionError("a twirl formed the Weyl stack or eigendecomposed a Choi matrix")

        gram = channels._choi

        def small_gram(ops):
            assert len(ops) < ops.shape[-1] ** 2, "a twirl formed a Gram product over D^2 operators"
            return gram(ops)

        monkeypatch.setattr(channels, "weyl_operators", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(channels, "_choi", small_gram)
        for D in TWIRL_PRIMES:
            twirl(random_channel(D, 2, seed=D), mode="exact-clifford")
        path = write_channel(tmp_path / "ch.json", random_channel(3, 2, seed=3))
        out = str(tmp_path / "twirled.json")
        for flags in ([], ["--exclude-identity"], ["--mode", "haar-sample", "--samples", "50", "--seed", "1"]):
            assert main(["channel", "twirl", path, *flags, "--out", out]) == 0
            assert json.loads(Path(out).read_text())["dim"] == 9

    # D = 2 Choi matrices: the depolarizing map at p = -1 < p_min_cp is trace preserving but
    # not positive; diag(2, 0, 0, 0) is positive with trace D but not trace preserving
    NOT_PSD = channels._depolarizing_choi(2, -1.0)
    NOT_TP = np.diag([2.0, 0.0, 0.0, 0.0])
    HAAR = {"mode": "haar-sample", "samples": 20, "seed": 1}

    @pytest.mark.parametrize(
        "target, kwargs, bad, message",
        [
            ("_depolarizing_choi", {}, NOT_TP, "traced over the output"),
            ("_depolarizing_choi", {"exclude_identity": True}, NOT_TP, "traced over the output"),
            ("_depolarizing_choi", {"exclude_identity": True}, NOT_PSD, "has eigenvalue -"),
            ("_gram_mean", HAAR, NOT_TP, "traced over the output"),
            ("_gram_mean", HAAR, NOT_PSD, "has eigenvalue -"),
        ],
    )
    def test_failed_self_check_is_an_internal_error(self, target, kwargs, bad, message, monkeypatch, tmp_path, capsys):
        from dpstates.cli import main

        monkeypatch.setattr(channels, target, lambda *args: bad)
        ch = random_channel(2, 2, seed=7)
        with pytest.raises(InternalCheckError, match=message):
            twirl(ch, **kwargs)
        flags = [f"--{k.replace('_', '-')}" + ("" if v is True else f"={v}") for k, v in kwargs.items()]
        assert main(["channel", "twirl", write_channel(tmp_path / "ch.json", ch), *flags]) == 4
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("exclude", [False, True])
    def test_closed_form_matches_brute_force_group_at_five(self, exclude):
        # the library enumerates no group at D = 5; the test-side closure
        # finds all D^3 (D^2 - 1) = 3000 elements modulo phase
        group = clifford_closure_oracle(5)
        assert len(group) == 3000
        ch = random_channel(5, 3, seed=99)
        result = twirl(ch, mode="exact-clifford", exclude_identity=exclude)
        want = clifford_twirl_oracle(ch, group, exclude)
        assert np.max(np.abs(5 * result.jamiolkowski.matrix - want)) < 1e-13

    def test_no_library_path_enumerates_the_group(self, monkeypatch, tmp_path):
        from dpstates.cli import main

        def refuse(D):
            raise AssertionError("clifford_group is the tests' oracle only")

        monkeypatch.setattr(channels, "clifford_group", refuse)
        monkeypatch.setattr(dpstates, "clifford_group", refuse)
        for D in (2, 3, 5):
            ch = random_channel(D, 2, seed=D)
            assert twirl(ch, mode="exact-clifford").p_hat == twirl_p(D, jamiolkowski_fidelity(ch))
            twirl(ch, mode="exact-clifford", exclude_identity=True)
            path = write_channel(tmp_path / f"ch{D}.json", ch)
            assert main(["channel", "twirl", path, "--out", str(tmp_path / "twirled.json")]) == 0

    @pytest.mark.parametrize("D", [4, 6, 9, 37])
    def test_exact_clifford_needs_a_prime_below_the_cap(self, D):
        assert channels.CLIFFORD_TWIRL_MAX_DIM < 37
        with pytest.raises(UnsupportedDimensionError, match=f"prime D <= {channels.CLIFFORD_TWIRL_MAX_DIM}"):
            twirl(KrausChannel(dim=D, kraus=[np.eye(D)]), mode="exact-clifford")

    def test_exclude_identity_measures_deficiency(self):
        ch = random_channel(2, 2, seed=72)
        full = twirl(ch, mode="exact-clifford")
        partial = twirl(ch, mode="exact-clifford", exclude_identity=True)
        assert full.depolarizing_deviation < 1e-10
        assert partial.depolarizing_deviation > 1e-4

    def test_haar_sample_needs_seed_and_samples(self):
        ch = random_channel(2, 2, seed=73)
        with pytest.raises(DomainError):
            twirl(ch, mode="haar-sample", samples=10)
        with pytest.raises(DomainError):
            twirl(ch, mode="haar-sample", seed=1)
        with pytest.raises(UnsupportedDimensionError):
            twirl(random_channel(7, 2, seed=74), mode="haar-sample", samples=10, seed=1)
        with pytest.raises(DomainError):
            twirl(ch, mode="bogus")

    def test_rejects_arguments_the_mode_ignores(self):
        ch = random_channel(2, 2, seed=73)
        with pytest.raises(DomainError):
            twirl(ch, mode="haar-sample", samples=10, seed=1, exclude_identity=True)
        with pytest.raises(DomainError):
            twirl(ch, mode="exact-clifford", samples=10)
        with pytest.raises(DomainError):
            twirl(ch, mode="exact-clifford", seed=1)

    def test_haar_sample_converges(self):
        ch = random_channel(2, 3, seed=75)
        exact = twirl_p(2, jamiolkowski_fidelity(ch))
        est = twirl(ch, mode="haar-sample", samples=3000, seed=76)
        assert est.p_hat == pytest.approx(exact, abs=0.05)

    def test_haar_sample_is_deterministic(self):
        # 1100 samples span two Haar draws (1024 + 76), which the Gram mean
        # cuts into three blocks of at most 1024 rows (512 + 512 + 76)
        ch = random_channel(3, 2, seed=77)
        a = twirl(ch, mode="haar-sample", samples=1100, seed=78)
        b = twirl(ch, mode="haar-sample", samples=1100, seed=78)
        assert a.p_hat == b.p_hat
        assert a.depolarizing_deviation == b.depolarizing_deviation
        assert np.array_equal(a.jamiolkowski.matrix, b.jamiolkowski.matrix)

    def test_haar_sample_memory_does_not_grow_with_samples(self):
        # about 4 MB at any sample count; the whole (samples, D, D) stack
        # and its conjugated Kraus operators here would take 48 MB
        ch = random_channel(6, 3, seed=96)
        assert traced_peak(lambda: twirl(ch, mode="haar-sample", samples=20_000, seed=1)) < 16_000_000

    def test_gram_mean_bounds_rows_of_many_kraus_operators(self, monkeypatch):
        # 1500 redundant Kraus operators give 1500 rows per unitary: twirl forms
        # one unitary per block, and the mean still matches the dense oracle
        kraus = random_channel(2, 3, seed=93).kraus / math.sqrt(500)
        ch = KrausChannel(dim=2, kraus=np.repeat(kraus, 500, axis=0))
        gram_mean, sizes = channels._gram_mean, []

        def recorded(blocks, count):
            blocks = list(blocks)
            sizes.extend(len(M) for M in blocks)
            return gram_mean(blocks, count)

        monkeypatch.setattr(channels, "_gram_mean", recorded)
        result = twirl(ch, mode="haar-sample", samples=5, seed=94)
        assert sizes == [1500] * 5
        want = kron_twirl_average(ch.kraus, haar_stream(2, 5, 94))
        assert np.max(np.abs(reshuffle(2 * result.jamiolkowski.matrix, 2) - want)) < 1e-13

    @pytest.mark.parametrize("D, exclude", [(2, False), (2, True), (3, False), (3, True)])
    def test_clifford_average_matches_kron_oracle(self, D, exclude):
        ch = random_channel(D, 3, seed=95 + D)
        group = clifford_group(D)[1:] if exclude else clifford_group(D)
        got = reshuffle(channels._gram_mean([conjugated_rows(ch.kraus, group)], len(group)), D)
        assert np.max(np.abs(got - kron_twirl_average(ch.kraus, group))) < 1e-13

    @pytest.mark.parametrize("D, samples", [(4, 300), (6, 1100)])
    def test_haar_average_matches_kron_oracle(self, D, samples):
        ch = random_channel(D, 2, seed=97 + D)
        want = kron_twirl_average(ch.kraus, haar_stream(D, samples, 98))
        stream = channels.haar_unitaries(D, samples, np.random.default_rng(98))
        got = reshuffle(channels._gram_mean((conjugated_rows(ch.kraus, Us) for Us in stream), samples), D)
        assert np.max(np.abs(got - want)) < 1e-13
        # twirl draws the same unitaries from the same seed
        result = twirl(ch, mode="haar-sample", samples=samples, seed=98)
        assert np.max(np.abs(reshuffle(D * result.jamiolkowski.matrix, D) - want)) < 1e-13
        p_hat = (want[0, 0].real - 1.0 / D) / (1.0 - 1.0 / D)
        assert result.p_hat == pytest.approx(p_hat, abs=1e-13)
        dev = np.max(np.abs(reshuffle(want, D) - channels._depolarizing_choi(D, p_hat)))
        assert result.depolarizing_deviation == pytest.approx(dev, abs=1e-13)


class TestHaar:
    def test_stream_is_stacks_of_at_most_gram_rows(self):
        sizes = [len(Us) for Us in channels.haar_unitaries(3, 2500, rng_for(78))]
        assert sizes == [channels.GRAM_ROWS, channels.GRAM_ROWS, 2500 - 2 * channels.GRAM_ROWS]

    def test_stream_up_to_gram_rows_is_one_draw(self):
        # real parts, then imaginary parts, of one (count, D, D) Gaussian stack
        rng = rng_for(79)
        Z = (rng.standard_normal((400, 4, 4)) + 1.0j * rng.standard_normal((400, 4, 4))) / math.sqrt(2.0)
        (Us,) = channels.haar_unitaries(4, 400, rng_for(79))
        Q, R = np.linalg.qr(Z)
        d = np.diagonal(R, axis1=1, axis2=2)
        assert np.array_equal(Us, Q * (d / np.abs(d))[:, None, :])

    @pytest.mark.parametrize("D, size", [(8, 1024), (9, 809), (32, 64), (300, 1)])
    def test_stream_caps_the_entries_of_a_draw(self, D, size):
        assert size == max(1, min(channels.GRAM_ROWS, channels.HAAR_DRAW_ENTRIES // (D * D)))
        count = 2 * size + 1
        assert [len(Us) for Us in channels.haar_unitaries(D, count, rng_for(81))] == [size, size, 1]

    def test_unitary(self):
        U = haar_unitary(5, rng_for(79))
        assert np.max(np.abs(U @ U.conj().T - np.eye(5))) < 1e-12

    def test_state_normalized(self):
        v = haar_state(6, rng_for(80))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("D", [0, -3])
    def test_state_rejects_empty_or_negative_dimension(self, D):
        with pytest.raises(InvalidDimensionError):
            haar_state(D, rng_for(80))

    @pytest.mark.parametrize("D", [0, -3])
    def test_unitaries_reject_empty_or_negative_dimension(self, D):
        # refused at the call, before any stack is drawn
        with pytest.raises(InvalidDimensionError):
            channels.haar_unitaries(D, 5, rng_for(80))
        with pytest.raises(InvalidDimensionError):
            haar_unitary(D, rng_for(80))


class TestPdpsRecipe:
    def test_output_is_valid_state(self):
        psi = haar_state(3, rng_for(81))
        out = pdps_recipe(psi, 0.5, seed=82, trials=500)
        assert out.is_positive()
        assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        psi = haar_state(2, rng_for(83))
        a = pdps_recipe(psi, 0.7, seed=84, trials=200)
        b = pdps_recipe(psi, 0.7, seed=84, trials=200)
        assert np.array_equal(a.matrix, b.matrix)

    def test_f_range(self):
        psi = haar_state(2, rng_for(85))
        with pytest.raises(FOutOfRangeError):
            pdps_recipe(psi, 1.2, seed=86, trials=10)

    def test_f_one_is_identity(self):
        psi = haar_state(4, rng_for(87))
        out = pdps_recipe(psi, 1.0, seed=88, trials=3)
        assert np.max(np.abs(out.matrix - np.outer(psi, psi.conj()))) < 1e-13

    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_matches_per_trial_oracle(self, D):
        # for Haar U, u = U psi and r the unit vector along U^dag (Xu - c u),
        # c = <u|X|u>, the row construction is U^dag X U psi
        psi = haar_state(D, rng_for(89, D))
        X = shift_and_clock(D)[0]
        Us = haar_stream(D, 400, 90)
        u = Us @ psi
        Xu = u @ X.T
        c = np.einsum("ni,ni->n", u.conj(), Xu)
        w = Xu - c[:, None] * u
        r = np.einsum("nji,nj->ni", Us.conj(), w) / np.linalg.norm(w, axis=1, keepdims=True)
        want = np.einsum("nji,nj->ni", Us.conj(), Xu)
        assert np.max(np.abs(channels._flip_rows(psi, u, r) - want)) < 1e-14

    def test_is_the_gram_mean_of_its_rows(self):
        # 1100 trials span two blocks of rows (1024 + 76) from one seeded stream
        psi = haar_state(4, rng_for(95))
        rows = np.concatenate(list(channels._flip_stream(psi, 1100, np.random.default_rng(96))))
        assert rows.shape == (1100, 4)
        flipped = sum(np.outer(y, y.conj()) for y in rows) / len(rows)
        out = pdps_recipe(psi, 0.3, seed=96, trials=1100)
        assert np.max(np.abs(out.matrix - (0.3 * np.outer(psi, psi.conj()) + 0.7 * flipped))) < 1e-14

    @pytest.mark.seed_sweep  # it draws the seeds of its 5-SE checks of the flipped state's moments
    @pytest.mark.parametrize("D", [2, 3, 8])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_flipped_state_has_the_haar_moments(self, D, seed):
        # at f = 0 the output is the mean flipped state U^dag X U rho U^dag X^dag U; for
        # Haar U, <psi|.|psi> = E |<u|X|u>|^2 = 1/(D+1), the remaining weight spreads evenly
        # over psi^perp, and psi^perp's coherences with psi vanish; each within 5 SE
        trials = 5000
        rng = rng_for(seed)
        psi = haar_state(D, rng)
        e = haar_state(D, rng)
        e -= np.vdot(psi, e) * psi
        e /= np.linalg.norm(e)
        out = pdps_recipe(psi, 0.0, seed=seed, trials=trials).matrix
        rows = np.concatenate(list(channels._flip_stream(psi, trials, np.random.default_rng(seed))))
        a, b = rows @ psi.conj(), rows @ e.conj()  # <psi|y> and <e|y> per trial
        coherence = np.vdot(psi, out @ e)
        checks = [
            (np.vdot(psi, out @ psi).real, 1.0 / (D + 1), np.abs(a) ** 2),
            (np.vdot(e, out @ e).real, D / ((D + 1.0) * (D - 1.0)), np.abs(b) ** 2),
            (coherence.real, 0.0, (a * b.conj()).real),
            (coherence.imag, 0.0, (a * b.conj()).imag),
        ]
        for got, want, per_trial in checks:
            assert abs(got - want) <= 5.0 * np.std(per_trial) / math.sqrt(trials)

    @pytest.mark.seed_sweep  # it draws norms within 1e-12 of 1 at every f, and the recipe seeds
    @settings(max_examples=30, deadline=None)
    @given(
        D=st.integers(min_value=2, max_value=6),
        norm=st.floats(min_value=1.0 - 1e-12, max_value=1.0 + 1e-12),
        f=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @example(D=3, norm=1.0 + 0.9e-12, f=1.0, seed=0)
    def test_is_the_recipe_of_the_unit_vector(self, D, norm, f, seed):
        # the accepted norms are within 1e-12 of 1; built from psi as given, the output's
        # trace was ||psi||^2 and the DensityMatrix check refused it
        psi = norm * haar_state(D, rng_for(93, seed))
        try:
            out = pdps_recipe(psi, f, seed, trials=20).matrix
        except NonUnitVectorError:
            assume(False)
        unit = pdps_recipe(psi / np.linalg.norm(psi), f, seed, trials=20).matrix
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.max(np.abs(out - unit)) < 1e-14

    @pytest.mark.parametrize("psi", [[1.0], [np.exp(0.3j)], [1.0 + 1e-13]])
    def test_one_dimensional_state_is_returned(self, psi):
        # psi^perp is empty at D = 1: every row is c psi / ||psi|| with |c| = 1
        out = pdps_recipe(psi, 0.4, seed=97, trials=3000).matrix
        assert np.max(np.abs(out - np.outer(psi, np.conj(psi)) / np.vdot(psi, psi).real)) < 1e-15

    def test_memory_holds_no_per_trial_states(self):
        # blocks of GRAM_ROWS rows set the peak, about 1 MB at any trial
        # count; the flipped states as one (trials, D, D) stack would take 102 MB
        psi = haar_state(8, rng_for(91))
        assert traced_peak(lambda: pdps_recipe(psi, 0.6, seed=92, trials=100_000)) < 16_000_000

    def test_memory_of_a_draw_does_not_grow_with_dimension(self):
        # a block of GRAM_ROWS rows of length D and its Gaussian draw peak
        # near 7 MB at D = 64, where the 1024 Haar unitaries they stand for
        # would take 67 MB by themselves
        psi = haar_state(64, rng_for(93))
        assert traced_peak(lambda: pdps_recipe(psi, 0.6, seed=94, trials=1024)) < 16_000_000


class TestLocalDepolarize:
    def test_matches_tensored_kraus_channels(self):
        rng = rng_for(89)
        dA, dB = 2, 3
        dm = random_mixed(dA * dB, rng)
        pA, pB = 0.6, -0.05
        out = local_depolarize(dm, dA, dB, pA, pB)
        chA = depolarizing_kraus(dA, pA)
        chB = depolarizing_kraus(dB, pB)
        oracle = np.zeros((dA * dB, dA * dB), dtype=complex)
        for KA in chA.kraus:
            for KB in chB.kraus:
                K = tensor(KA, KB)
                oracle += K @ dm.matrix @ K.conj().T
        assert np.max(np.abs(out.matrix - oracle)) < 1e-12

    def test_dps_input_leaves_family_generically(self):
        from dpstates import dps_test, generate_basis

        psi = haar_state(6, rng_for(90))
        dps = make_dps(psi, 0.8)
        out = local_depolarize(dps.to_matrix(), 2, 3, 0.9, 0.5)
        assert dps_test(out, generate_basis(6)) is None

    def test_product_of_polarizations_on_dps(self):
        # on a DPS the A-then-B composition depolarizes with pA*pB only
        # when the purification is maximally entangled
        from dpstates import dps_test, generate_basis, isotropic

        dps, _ = isotropic(2, 0.9)
        out = local_depolarize(dps.to_matrix(), 2, 2, 0.7, 0.4)
        got = dps_test(out, generate_basis(4))
        assert got is not None
        assert got == pytest.approx(0.7 * 0.4 * dps.p, abs=1e-10)

    def test_cp_range_per_side(self):
        dm = random_mixed(6, rng_for(91))
        with pytest.raises(PolarizationOutOfRangeError):
            local_depolarize(dm, 2, 3, p_min_cp(2) - 1e-6, 0.5)
        with pytest.raises(PolarizationOutOfRangeError):
            local_depolarize(dm, 2, 3, 0.5, p_min_cp(3) - 1e-6)

    @pytest.mark.parametrize("dA, dB", [(1, 4), (4, 1), (-2, -2)])
    def test_rejects_trivial_or_negative_subsystem(self, dA, dB):
        # p_min_cp(1) would divide by zero
        dm = random_mixed(4, rng_for(92))
        with pytest.raises(InvalidDimensionError):
            local_depolarize(dm, dA, dB, 0.5, 0.5)

    def test_rejects_dims_that_do_not_factorize_the_state(self):
        # the CLI's only guard against --dims whose product is not D
        with pytest.raises(DimensionMismatchError):
            local_depolarize(random_mixed(4, rng_for(92)), 2, 3, 0.5, 0.5)
