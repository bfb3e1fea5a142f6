import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstates import (
    DomainError,
    InconsistentMomentsError,
    IndeterminateSignCountError,
    InvalidDimensionError,
    NonHermitianError,
    count_positive_charpoly,
    dps_moment,
    dps_p_from_moments,
    make_dps,
    moment_exact,
    moment_montecarlo,
    moment_permutation,
    p_min,
)

from conftest import random_dps, random_mixed, rng_for


def permutation_operator(D: int, permutation: tuple[int, ...]) -> np.ndarray:
    """Dense S_sigma on the m-fold tensor power, the oracle for moment_permutation.

    S[J, K] = 1 iff digit t of K (base D) equals digit permutation[t] of J,
    so Tr(S_sigma rho^(x m)) is the cycle contraction moment_permutation
    evaluates.  It holds D^(2m) entries; keep D^m small.
    """
    m = len(permutation)
    n = D**m
    S = np.zeros((n, n))
    digits = np.empty(m, dtype=int)
    for J in range(n):
        rest = J
        for t in range(m - 1, -1, -1):
            digits[t] = rest % D
            rest //= D
        K = 0
        for t in range(m):
            K = K * D + digits[permutation[t]]
        S[J, K] = 1.0
    return S


class TestMomentExact:
    def test_matches_eigenvalue_sum(self):
        rng = rng_for(110)
        dm = random_mixed(5, rng)
        vals = np.linalg.eigvalsh(dm.matrix)
        for m in (1, 2, 3, 5):
            assert moment_exact(dm, m).value == pytest.approx(np.sum(vals**m), abs=1e-12)

    def test_first_moment_is_trace(self):
        dm = random_mixed(3, rng_for(111))
        assert moment_exact(dm, 1).value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_order(self):
        dm = random_mixed(2, rng_for(112))
        with pytest.raises(DomainError):
            moment_exact(dm, 0)


class TestMomentPermutation:
    # the cycle contraction never forms the D^m x D^m operator, so D = 32 is cheap
    @pytest.mark.parametrize("D", [2, 3, 4, 32])
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_exact(self, D, m):
        rng = rng_for(113, D, m)
        dm = random_mixed(D, rng)
        assert moment_permutation(dm, m).value == pytest.approx(
            moment_exact(dm, m).value, abs=1e-12
        )

    def test_explicit_cycle(self):
        # the other 3-cycle, as a dense operator, gives the same value
        dm = random_mixed(3, rng_for(114))
        cube = np.kron(np.kron(dm.matrix, dm.matrix), dm.matrix)
        dense = np.real(np.trace(permutation_operator(3, (2, 0, 1)) @ cube))
        assert moment_permutation(dm, 3).value == pytest.approx(dense, abs=1e-12)

    def test_order_support(self):
        dm = random_mixed(2, rng_for(117))
        with pytest.raises(DomainError):
            moment_permutation(dm, 4)


class TestPermutationOperator:
    def test_swap(self):
        S = permutation_operator(2, (1, 0))
        expect = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(S, expect)

    def test_swap_overlap_is_purity(self):
        # Tr(S rho x rho) = Tr rho^2: the swap-test identity the MC
        # estimator relies on
        dm = random_mixed(3, rng_for(119))
        S = permutation_operator(3, (1, 0))
        both = np.kron(dm.matrix, dm.matrix)
        assert np.real(np.trace(S @ both)) == pytest.approx(dm.purity(), abs=1e-12)

    def test_cyclic_action_on_basis(self):
        # matrix element convention: S[J, K] = 1 iff k_t = j_sigma(t),
        # so output slot s carries input digit sigma^-1(s)
        D = 2
        S = permutation_operator(D, (1, 2, 0))
        for j in range(D):
            for k in range(D):
                for l in range(D):
                    src = np.zeros(D**3)
                    src[(j * D + k) * D + l] = 1.0
                    out = S @ src
                    expect = np.zeros(D**3)
                    expect[(l * D + j) * D + k] = 1.0
                    assert np.array_equal(out, expect)


class TestMomentMonteCarlo:
    def test_deterministic(self):
        dm = random_mixed(3, rng_for(120))
        a = moment_montecarlo(dm, 2, shots=1000, seed=7)
        b = moment_montecarlo(dm, 2, shots=1000, seed=7)
        assert a.value == b.value

    def test_unbiased_and_std_error(self):
        dm = random_mixed(2, rng_for(121))
        truth = moment_exact(dm, 2).value
        est = moment_montecarlo(dm, 2, shots=200000, seed=8)
        assert est.std_error == pytest.approx(
            np.sqrt((1.0 - truth**2) / 200000), abs=1e-12
        )
        assert abs(est.value - truth) < 5.0 * est.std_error

    def test_requires_shots(self):
        dm = random_mixed(2, rng_for(122))
        with pytest.raises(DomainError):
            moment_montecarlo(dm, 2, shots=0, seed=1)


@settings(max_examples=25, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=6),
    t=st.floats(min_value=0.0, max_value=1.0),
    m=st.integers(min_value=1, max_value=4),
)
def test_dps_moment_closed_form(D, t, m):
    p = p_min(D) + t * (1.0 - p_min(D))
    dps = make_dps(np.eye(D, dtype=complex)[:, 0], p)
    assert dps_moment(D, p, m) == pytest.approx(
        moment_exact(dps.to_matrix(), m).value, abs=1e-12
    )


class TestRecoverP:
    @pytest.mark.parametrize("D", [3, 4, 5, 6])
    def test_round_trip_from_exact_moments(self, D):
        for p in np.linspace(p_min(D), 1.0, 9):
            t2, t3 = dps_moment(D, p, 2), dps_moment(D, p, 3)
            got, resolved = dps_p_from_moments(t2, t3, D)
            assert got == pytest.approx(p, abs=1e-9)
            assert resolved

    def test_dim2_is_sign_ambiguous(self):
        t2, t3 = dps_moment(2, -0.4, 2), dps_moment(2, -0.4, 3)
        got, resolved = dps_p_from_moments(t2, t3, 2)
        assert got == pytest.approx(0.4, abs=1e-12)
        assert not resolved

    def test_inconsistent_pair_raises(self):
        with pytest.raises(InconsistentMomentsError):
            dps_p_from_moments(0.5, 0.5, 3)

    def test_t2_below_mixed_floor_raises(self):
        with pytest.raises(InconsistentMomentsError):
            dps_p_from_moments(1.0 / 3.0 - 0.01, 0.2, 3)

    def test_nan_moment_raises(self):
        for t2, t3, D in ((np.nan, 0.5, 2), (np.nan, 0.2, 3), (0.5, np.nan, 2), (0.5, np.nan, 3)):
            with pytest.raises(InconsistentMomentsError):
                dps_p_from_moments(t2, t3, D)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidDimensionError):
            dps_p_from_moments(1.0, 1.0, 1)


class TestCountPositive:
    def test_matches_eigensolver(self):
        # Faddeev-LeVerrier coefficient signs went wrong from n = 24 on
        rng = rng_for(123)
        for D in (2, 4, 6, 24, 32, 48):
            for _ in range(20):
                A = rng.standard_normal((D, D)) + 1.0j * rng.standard_normal((D, D))
                H = (A + A.conj().T) / 2.0 + 0.5 * np.eye(D)
                vals = np.linalg.eigvalsh(H)
                if np.min(np.abs(vals)) < 1e-6:
                    continue
                assert count_positive_charpoly(H) == int(np.sum(vals > 0))

    def test_counts_partial_transpose_signature(self):
        from dpstates import partial_transpose

        dps = random_dps(4, rng_for(124), p=0.9)
        pt = partial_transpose(dps.to_matrix(), 2, 2)
        vals = np.linalg.eigvalsh(pt)
        assert count_positive_charpoly(pt) == int(np.sum(vals > 0))

    def test_singular_matrix_raises(self):
        with pytest.raises(IndeterminateSignCountError):
            count_positive_charpoly(np.diag([1.0, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            count_positive_charpoly(np.array([[0.0, 1.0], [0.0, 0.0]]))
