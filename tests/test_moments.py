import math
import sys
import warnings

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
    partial_transpose,
)

from conftest import count_solver_calls, random_dps, random_mixed, rng_for


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
    # one D x D product at most, never the D^m x D^m operator, so D = 32 is cheap
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
        # the binomial draw takes an int64: one past its largest value is refused, not an OverflowError
        assert moment_montecarlo(dm, 2, shots=2**63 - 1, seed=1).shots == 2**63 - 1
        for shots in (2**63, 10**20):
            with pytest.raises(DomainError, match=r"2\^63 - 1"):
                moment_montecarlo(dm, 2, shots=shots, seed=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: moment_exact(rho, 2.5),
        lambda rho: moment_exact(rho, True),
        lambda rho: moment_permutation(rho, 2.0),
        lambda rho: moment_montecarlo(rho, 2.5, shots=1000, seed=1),
    ],
    ids=["exact-2.5", "exact-True", "permutation-2.0", "montecarlo-2.5"],
)
def test_order_that_is_not_an_integer_is_a_domain_error(call):
    # a p_min DPS: eigvalsh may return its zero eigenvalue as -3e-17, whose 2.5th power is NaN
    rho = random_dps(3, rng_for(127), p=p_min(3)).to_matrix()
    with pytest.raises(DomainError, match="moment order must be an integer >= 1"):
        call(rho)


@pytest.mark.parametrize("m", [True, 0, 2.5])
def test_dps_moment_refuses_an_order_that_is_not_an_integer_at_least_1(m):
    # these returned 1.0, 3.0 and 0.386
    with pytest.raises(DomainError, match="moment order must be an integer >= 1"):
        dps_moment(3, 0.5, m)


@pytest.mark.seed_sweep  # it draws mixed states of every rank at D up to 48
@settings(max_examples=25, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=48),
    m=st.sampled_from([2, 3]),
    rank=st.integers(min_value=1, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_permutation_moment_matches_exact(D, m, rank, seed):
    dm = random_mixed(D, rng_for(137, seed), rank=min(rank, D))
    assert moment_permutation(dm, m).value == pytest.approx(moment_exact(dm, m).value, abs=1e-12)


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

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_at_least_0(self, tol):
        # the moments are exact: NaN and -1 used to raise InconsistentMomentsError, blaming them
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            dps_p_from_moments(dps_moment(3, 0.5, 2), dps_moment(3, 0.5, 3), 3, tol=tol)


def _tridiagonalize(A: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal a_k and |b_k|^2 of a Householder tridiagonal form of A.

    Step k reflects the column x below a_k onto e_1 (so |b_k| = ||x||)
    and takes the trailing block B to H B H = B - v w^dag - w v^dag.
    """
    B, n = A, A.shape[0]
    diag, off2 = [], []
    for k in range(n - 1):
        diag.append(float(B[0, 0].real))
        x = B[1:, 0]
        off2.append(float(np.vdot(x, x).real))
        B = B[1:, 1:]
        if k < n - 2 and off2[-1] > 0.0:
            v = x.copy()  # x + e^{i arg x_0} ||x|| e_1: no cancellation in v_0
            v[0] += (x[0] / abs(x[0]) if x[0] != 0 else 1.0) * math.sqrt(off2[-1])
            tau = 2.0 / np.vdot(v, v).real
            q = tau * (B @ v)
            X = np.outer(v, (q - (0.5 * tau * np.vdot(v, q)) * v).conj())
            B = B - X - X.conj().T
    diag.append(float(B[0, 0].real))
    return diag, off2


def _count_above(diag: list[float], off2: list[float], shift: float) -> int:
    # positive LDL^T pivots of T - shift 1; a vanishing pivot becomes a
    # tiny negative one, as in Sturm-sequence bisection
    pivmin = sys.float_info.min * max([1.0, *off2])
    count, d = 0, 1.0
    for k, a in enumerate(diag):
        d = a - shift - (off2[k - 1] / d if k else 0.0)
        d = d if abs(d) >= pivmin else -pivmin
        count += d > 0.0
    return count


def inertia_count(H: np.ndarray) -> int | None:
    """Eigensolve-free oracle for count_positive_charpoly, by Sylvester's law of inertia.

    The positive LDL^T pivots of the Householder tridiagonal form of
    (H + H^dag)/2, shifted by -+gap with gap = 1e-10 ||H||_F, count the
    eigenvalues above gap and above -gap; None when the two differ (an
    eigenvalue in the refusal band) or gap is 0.
    """
    H = np.asarray(H, dtype=complex)
    diag, off2 = _tridiagonalize((H + H.conj().T) / 2.0)
    gap = 1e-10 * float(np.linalg.norm(H))
    above = _count_above(diag, off2, gap)
    return None if gap == 0.0 or _count_above(diag, off2, -gap) != above else above


def gaussian_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0 + 0.5 * np.eye(n)


def with_spectrum(vals, rng: np.random.Generator) -> np.ndarray:
    """U diag(vals) U^dag for a Haar-random U."""
    n = len(vals)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n)))
    U = Q * (np.diag(R) / np.abs(np.diag(R)))
    return (U * np.asarray(vals)) @ U.conj().T


def sign_verdict(M: np.ndarray) -> int | type:
    """count_positive_charpoly(M), or the class of the error that refuses M."""
    try:
        return count_positive_charpoly(M)
    except (NonHermitianError, IndeterminateSignCountError) as exc:
        return type(exc)


# with test_matches_eigensolver, n = 1 to 128: Gaussian Hermitian matrices
# of every size to 16 and up to 128, and partial transposes of DPS
COUNT_SIZES = [*range(1, 17), 64, 96, 128]
PT_DIMS = [(2, 2), (2, 3), (3, 3), (2, 5), (4, 4), (3, 6), (4, 8), (8, 8), (8, 12), (8, 16)]


class TestCountPositive:
    def test_makes_one_eigvalsh(self, monkeypatch):
        H = gaussian_hermitian(32, rng_for(124))
        calls = count_solver_calls(monkeypatch)
        count_positive_charpoly(H)
        assert calls == {"eigvalsh": 1}

    def test_matches_eigensolver(self):
        # Faddeev-LeVerrier coefficient signs went wrong from n = 24 on
        rng = rng_for(123)
        for D in (2, 4, 6, 24, 32, 48):
            for _ in range(20):
                H = gaussian_hermitian(D, rng)
                vals = np.linalg.eigvalsh(H)
                if np.min(np.abs(vals)) < 1e-6:
                    continue
                assert count_positive_charpoly(H) == inertia_count(H) == int(np.sum(vals > 0))

    @pytest.mark.parametrize(
        "dims", [(n,) for n in COUNT_SIZES] + PT_DIMS, ids=lambda d: "x".join(map(str, d))
    )
    def test_matches_inertia_oracle(self, dims):
        # (n,) is a Gaussian Hermitian matrix, (dA, dB) the partial transpose of a DPS
        rng = rng_for(125, *dims)
        for _ in range(3):
            if len(dims) == 1:
                H = gaussian_hermitian(*dims, rng)
            else:
                H = partial_transpose(random_dps(dims[0] * dims[1], rng).to_matrix(), *dims)
            vals = np.linalg.eigvalsh(H)
            gap = 1e-10 * np.linalg.norm(H)
            # the data keep clear of the refusal band, so all three must count
            assert np.min(np.abs(vals)) > 2.0 * gap
            assert count_positive_charpoly(H) == inertia_count(H) == int(np.sum(vals > gap))

    def test_counts_partial_transpose_signature(self):
        dps = random_dps(4, rng_for(124), p=0.9)
        pt = partial_transpose(dps.to_matrix(), 2, 2)
        vals = np.linalg.eigvalsh(pt)
        assert count_positive_charpoly(pt) == inertia_count(pt) == int(np.sum(vals > 0))

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_refusal_band_edges(self, n, sign):
        # one eigenvalue at sign * factor * gap among ones of size ~1: the
        # band [-gap, gap] refuses factor 0.5 and counts factor 2
        rng = rng_for(126, n, sign > 0)
        rest = rng.uniform(0.5, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        gap = 1e-10 * np.linalg.norm(rest)
        for factor in (0.5, 2.0):
            for H in (np.diag([*rest, sign * factor * gap]), with_spectrum([*rest, sign * factor * gap], rng)):
                if factor == 0.5:
                    assert inertia_count(H) is None
                    with pytest.raises(IndeterminateSignCountError):
                        count_positive_charpoly(H)
                else:
                    want = int(np.sum(rest > 0)) + (sign > 0)
                    assert count_positive_charpoly(H) == inertia_count(H) == want

    def test_singular_matrix_raises(self):
        # a property of the input, refused as a DomainError (exit 3), not an internal bug
        for M in (np.diag([1.0, 0.0]), np.zeros((3, 3))):
            with pytest.raises(IndeterminateSignCountError) as info:
                count_positive_charpoly(M)
            assert isinstance(info.value, DomainError)

    def test_empty_matrix_counts_zero(self):
        assert count_positive_charpoly(np.zeros((0, 0))) == 0

    @pytest.mark.parametrize("scale", [1e300, 2.0**1023, 1e-300, 5e-324])
    def test_extreme_scales_count_without_warnings(self, scale):
        # the band comes from a scaled norm: ||A||_F itself overflows at 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_positive_charpoly(np.diag([scale, -scale])) == 1
            assert count_positive_charpoly(np.diag([scale, scale, -scale])) == 2

    def test_scaling_keeps_the_band(self):
        # the band and count of a scaled matrix are those of the matrix itself
        rng = rng_for(127)
        rest = rng.uniform(0.5, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
        gap = 1e-10 * np.linalg.norm(rest)
        for scale in (2.0**-40, 1e-7, 3.0, 2.0**60):
            with pytest.raises(IndeterminateSignCountError):
                count_positive_charpoly(scale * np.diag([*rest, 0.5 * gap]))
            assert count_positive_charpoly(scale * np.diag([*rest, 2.0 * gap])) == int(np.sum(rest > 0)) + 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_entry_is_refused_first(self, bad):
        M = np.eye(3, dtype=complex)
        M[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="NaN or infinite"):
                count_positive_charpoly(M)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            count_positive_charpoly(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_tiny_non_hermitian_matrix_is_refused(self):
        # an absolute 1e-10 check would pass this matrix and count 1
        with pytest.raises(NonHermitianError):
            count_positive_charpoly(np.array([[0.0, 1e-12], [0.0, 0.0]]))

    def test_subnormal_matrix_is_scaled_like_any_other(self):
        # max |m_ij| = 2^-1060: 2^1059 overflows, so the scaling that
        # reaches entries near 1 is applied in two halves
        tiny = math.ldexp(1.0, -1060)
        with pytest.raises(NonHermitianError, match=r"5\.000e-01 of M / 2\^-1059"):
            count_positive_charpoly(np.array([[0.0, tiny], [0.0, 0.0]]))
        assert count_positive_charpoly(tiny * np.diag([1.0, -2.0, 4.0])) == 2

    def test_huge_hermitian_matrix_is_counted(self):
        # its rounding leaves |M - M^dag| ~ 1e4, far above an absolute 1e-10
        H = 1e20 * with_spectrum([1.0, -2.0, 3.0, -4.0], rng_for(128))
        assert np.max(np.abs(H - H.conj().T)) > 1e-10
        assert count_positive_charpoly(H) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=6),
        skew=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-3]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_verdict_does_not_depend_on_scale(self, n, skew, seed):
        # a count, or the class of the refusal, is the same at 2^-300 M and 2^300 M
        rng = rng_for(129, seed)
        M = gaussian_hermitian(n, rng) + skew * rng.standard_normal((n, n))
        want = sign_verdict(M)
        for e in (-300, 300):
            assert sign_verdict(math.ldexp(1.0, e) * M) == want
