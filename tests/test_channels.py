import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

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


def conjugated_rows(kraus):
    """The rows vec(U^dag K U) of every (U, K), for ``channels._gram_mean``."""
    D = kraus.shape[-1]
    return lambda Us: (Us[:, None].conj().swapaxes(-1, -2) @ kraus @ Us[:, None]).reshape(-1, D * D)


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

    def test_memory_stays_cubic(self):
        D = 12
        psi = haar_state(D, rng_for(94))
        chi = chi_from_beta2(D, 0.5)
        assert traced_peak(lambda: protocol1(psi, chi)) < 1_000_000

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


def clifford_generators(D: int) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier (Hadamard) gate F and the diagonal phase gate S."""
    omega = np.exp(2.0j * math.pi / D)
    F = np.array([[omega ** (j * k) for k in range(D)] for j in range(D)]) / math.sqrt(D)
    S = np.diag([1.0, 1.0j]) if D == 2 else np.diag([1.0, 1.0, omega])
    return F, S


def clifford_closure_oracle(D: int) -> np.ndarray:
    """Brute-force Clifford closure: each candidate scanned against every member found.

    The same breadth-first order and canonical phase as ``clifford_group``,
    with membership by |Tr(W^dag V)| = D over the whole group so far.
    """
    F, S = clifford_generators(D)
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
    return group


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
        # the library certifies only X and Z; here every X^a Z^b is checked
        group, paulis = clifford_group(D), weyl_operators(D)
        conjugated = group[:, None] @ paulis @ group.conj().swapaxes(-1, -2)[:, None]
        overlaps = np.abs(np.einsum("upij,qij->upq", conjugated.conj(), paulis))
        assert np.all(np.sum(overlaps > D - 1e-6, axis=-1) == 1)

    @pytest.mark.parametrize("D", [2, 3])
    def test_xz_keys_are_pairwise_distinct(self, D):
        keys = channels._xz_keys(clifford_group(D), weyl_operators(D))
        assert len(set(keys)) == len(keys)
        assert keys[0] == (D, 0, 1, 0)  # the identity fixes X and Z

    @pytest.mark.parametrize("D", [2, 3])
    def test_generator_table_matches_direct_conjugation(self, D):
        # images[g][j] = (q, k) says g P_j g^dag = e^{i pi k / D} P_q, for all D^2 P_j
        gens, images = channels._generator_table(D)
        paulis = weyl_operators(D)
        assert len(images) == 2
        for G, built, image in zip(clifford_generators(D), gens, images):
            assert np.array_equal(built, G)
            assert len(image) == D * D
            for P, (q, k) in zip(paulis, image):
                want = np.exp(1.0j * math.pi * k / D) * paulis[q]
                assert np.max(np.abs(G @ P @ G.conj().T - want)) < 1e-12

    @pytest.mark.parametrize("D", [2, 3])
    def test_corrupted_generator_table_fails_the_final_certification(self, D, monkeypatch):
        # a wrong phase for S Z S^dag still closes on 24 or 216 keys, so
        # only the final _xz_keys over the group can catch it
        table = channels._generator_table

        def corrupted(D):
            gens, images = table(D)
            q, k = images[1][1]
            images[1][1] = (q, (k + 2) % (2 * D))
            return gens, images

        monkeypatch.setattr(channels, "_generator_table", corrupted)
        with pytest.raises(InternalCheckError, match="composed in integers"):
            clifford_group.__wrapped__(D)

    def test_non_clifford_candidate_is_an_internal_error(self):
        U = haar_unitary(3, np.random.default_rng(5))
        with pytest.raises(InternalCheckError):
            channels._xz_keys(U[None], weyl_operators(3))

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


class TestTwirl:
    @pytest.mark.parametrize("D", [2, 3])
    def test_exact_clifford_collapses_to_depolarizing(self, D):
        ch = random_channel(D, 3, seed=70 + D)
        result = twirl(ch, mode="exact-clifford")
        assert result.depolarizing_deviation < 1e-10
        assert result.p_hat == pytest.approx(twirl_p(D, jamiolkowski_fidelity(ch)), abs=1e-12)
        # the returned channel acts as the depolarizing map
        dm = random_mixed(D, rng_for(71, D))
        expect = apply_depolarizing(dm, result.p_hat).state.matrix
        assert np.max(np.abs(result.channel.apply(dm.matrix) - expect)) < 1e-10

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
        assert all(np.array_equal(Ka, Kb) for Ka, Kb in zip(a.channel.kraus, b.channel.kraus))

    def test_haar_sample_memory_does_not_grow_with_samples(self):
        # about 4 MB at any sample count; the whole (samples, D, D) stack
        # and its conjugated Kraus operators here would take 48 MB
        ch = random_channel(6, 3, seed=96)
        assert traced_peak(lambda: twirl(ch, mode="haar-sample", samples=20_000, seed=1)) < 16_000_000

    def test_gram_mean_bounds_rows_of_many_kraus_operators(self):
        # 1500 redundant Kraus operators give 1500 rows per unitary: one
        # unitary per block, and the mean still matches the dense oracle
        kraus = random_channel(2, 3, seed=93).kraus / math.sqrt(500)
        ch = KrausChannel(dim=2, kraus=np.repeat(kraus, 500, axis=0))
        Us = haar_stream(2, 5, 94)
        got = reshuffle(channels._gram_mean([Us], conjugated_rows(ch.kraus)), 2)
        assert np.max(np.abs(got - kron_twirl_average(ch.kraus, Us))) < 1e-13

    @pytest.mark.parametrize("D, exclude", [(2, False), (2, True), (3, False), (3, True)])
    def test_clifford_average_matches_kron_oracle(self, D, exclude):
        ch = random_channel(D, 3, seed=95 + D)
        group = clifford_group(D)[1:] if exclude else clifford_group(D)
        got = reshuffle(channels._gram_mean([group], conjugated_rows(ch.kraus)), D)
        assert np.max(np.abs(got - kron_twirl_average(ch.kraus, group))) < 1e-13

    @pytest.mark.parametrize("D, samples", [(4, 300), (6, 1100)])
    def test_haar_average_matches_kron_oracle(self, D, samples):
        ch = random_channel(D, 2, seed=97 + D)
        want = kron_twirl_average(ch.kraus, haar_stream(D, samples, 98))
        stream = channels.haar_unitaries(D, samples, np.random.default_rng(98))
        got = reshuffle(channels._gram_mean(stream, conjugated_rows(ch.kraus)), D)
        assert np.max(np.abs(got - want)) < 1e-13
        # twirl draws the same unitaries from the same seed
        result = twirl(ch, mode="haar-sample", samples=samples, seed=98)
        p_hat = (want[0, 0].real - 1.0 / D) / (1.0 - 1.0 / D)
        assert result.p_hat == pytest.approx(p_hat, abs=1e-13)
        assert result.depolarizing_deviation == pytest.approx(
            channels._depolarizing_deviation(reshuffle(want, D), D, p_hat), abs=1e-13
        )


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
        # mean of the flipped states W rho W^dag, W = U^dag X U, over the same draws
        psi = haar_state(D, rng_for(89, D))
        rho = np.outer(psi, psi.conj())
        X = shift_and_clock(D)[0]
        Us = haar_stream(D, 400, 90)
        flipped = sum(U.conj().T @ X @ U @ rho @ U.conj().T @ X.conj().T @ U for U in Us) / len(Us)
        out = pdps_recipe(psi, 0.3, seed=90, trials=400)
        assert np.max(np.abs(out.matrix - (0.3 * rho + 0.7 * flipped))) < 1e-14

    def test_memory_holds_no_per_trial_states(self):
        # Haar draws of GRAM_ROWS unitaries set the peak, about 8 MB at any
        # trial count; a whole (trials, D, D) stack here would take 420 MB
        psi = haar_state(8, rng_for(91))
        assert traced_peak(lambda: pdps_recipe(psi, 0.6, seed=92, trials=100_000)) < 16_000_000


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
