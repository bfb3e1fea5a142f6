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
    InvalidDimensionError,
    KrausChannel,
    NonUnitVectorError,
    NotTracePreservingError,
    PolarizationOutOfRangeError,
    UnsupportedDimensionError,
    WeylBasis,
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
)

from dpstates import channels
from conftest import random_mixed, rng_for


def kron_superoperator(kraus) -> np.ndarray:
    """Dense oracle: sum_K kron(K, K^*), acting on row-major vec(rho)."""
    return sum(np.kron(K, K.conj()) for K in kraus)


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

    def test_random_channel_is_deterministic(self):
        a = random_channel(2, 3, seed=62)
        b = random_channel(2, 3, seed=62)
        for Ka, Kb in zip(a.kraus, b.kraus):
            assert np.array_equal(Ka, Kb)


class TestWeylBasis:
    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_unitary_and_commutation(self, D):
        w = WeylBasis(D)
        omega = np.exp(2.0j * math.pi / D)
        assert np.max(np.abs(w.X @ w.X.conj().T - np.eye(D))) < 1e-13
        assert np.max(np.abs(w.Z @ w.X - omega * w.X @ w.Z)) < 1e-13

    def test_elements_traceless_except_identity(self):
        w = WeylBasis(3)
        for a in range(3):
            for b in range(3):
                tr = np.trace(w.element(a, b))
                if a == b == 0:
                    assert tr == pytest.approx(3.0)
                else:
                    assert abs(tr) < 1e-13


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
        tracemalloc.start()
        try:
            protocol1(psi, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

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


class TestCliffordGroup:
    @pytest.mark.parametrize("D,size", [(2, 24), (3, 216)])
    def test_enumeration(self, D, size):
        group = clifford_group(D)
        assert len(group) == size
        assert np.allclose(group[0], np.eye(D))
        for U in group[:10]:
            assert np.max(np.abs(U @ U.conj().T - np.eye(D))) < 1e-12

    def test_closed_under_product(self):
        group = clifford_group(2)
        rng = rng_for(69)
        for _ in range(10):
            i, j = rng.integers(0, len(group), size=2)
            prod = group[i] @ group[j]
            hits = sum(
                1 for V in group if abs(np.einsum("ij,ij->", prod.conj(), V)) > 2.0 - 1e-6
            )
            assert hits == 1

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            clifford_group(4)


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

    def test_haar_sample_converges(self):
        ch = random_channel(2, 3, seed=75)
        exact = twirl_p(2, jamiolkowski_fidelity(ch))
        est = twirl(ch, mode="haar-sample", samples=3000, seed=76)
        assert est.p_hat == pytest.approx(exact, abs=0.05)

    def test_haar_sample_is_deterministic(self):
        # 1100 samples span three blocks of the Gram accumulation
        ch = random_channel(3, 2, seed=77)
        a = twirl(ch, mode="haar-sample", samples=1100, seed=78)
        b = twirl(ch, mode="haar-sample", samples=1100, seed=78)
        assert a.p_hat == b.p_hat
        assert a.depolarizing_deviation == b.depolarizing_deviation
        assert all(np.array_equal(Ka, Kb) for Ka, Kb in zip(a.channel.kraus, b.channel.kraus))

    @pytest.mark.parametrize("D, exclude", [(2, False), (2, True), (3, False), (3, True)])
    def test_clifford_average_matches_kron_oracle(self, D, exclude):
        ch = random_channel(D, 3, seed=95 + D)
        group = clifford_group(D)[1:] if exclude else clifford_group(D)
        got = channels._conjugation_average(np.stack(ch.kraus), np.stack(group))
        assert np.max(np.abs(got - kron_twirl_average(ch.kraus, group))) < 1e-13

    @pytest.mark.parametrize("D, samples", [(4, 300), (6, 1100)])
    def test_haar_average_matches_kron_oracle(self, D, samples):
        ch = random_channel(D, 2, seed=97 + D)
        Us = channels.haar_unitaries(D, samples, np.random.default_rng(98))
        want = kron_twirl_average(ch.kraus, Us)
        assert np.max(np.abs(channels._conjugation_average(np.stack(ch.kraus), Us) - want)) < 1e-13
        # twirl draws the same unitaries from the same seed
        result = twirl(ch, mode="haar-sample", samples=samples, seed=98)
        p_hat = (want[0, 0].real - 1.0 / D) / (1.0 - 1.0 / D)
        assert result.p_hat == pytest.approx(p_hat, abs=1e-13)
        assert result.depolarizing_deviation == pytest.approx(
            channels._depolarizing_deviation(want, D, p_hat), abs=1e-13
        )


class TestHaar:
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
        X = WeylBasis(D).X
        Us = channels.haar_unitaries(D, 400, np.random.default_rng(90))
        flipped = sum(U.conj().T @ X @ U @ rho @ U.conj().T @ X.conj().T @ U for U in Us) / len(Us)
        out = pdps_recipe(psi, 0.3, seed=90, trials=400)
        assert np.max(np.abs(out.matrix - (0.3 * rho + 0.7 * flipped))) < 1e-14

    def test_memory_holds_no_per_trial_states(self):
        # the (trials, D, D) Haar stack and its QR set the peak, about 85 MB
        psi = haar_state(8, rng_for(91))
        tracemalloc.start()
        try:
            pdps_recipe(psi, 0.6, seed=92, trials=20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90_000_000


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
