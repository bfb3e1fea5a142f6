import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstates import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    NonHermitianError,
    NonSquareError,
    NotPSDError,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    sqrt_psd,
    tensor,
    trace_norm,
)

from conftest import random_mixed, rng_for


class TestDensityMatrix:
    def test_accepts_valid(self):
        dm = DensityMatrix(np.eye(3) / 3.0)
        assert dm.dim == 3
        assert dm.is_positive()
        assert dm.purity() == pytest.approx(1.0 / 3.0)

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            DensityMatrix(np.ones((2, 3)) / 6.0)

    def test_rejects_non_hermitian(self):
        M = np.eye(2, dtype=complex) / 2.0
        M[0, 1] = 0.1
        with pytest.raises(NonHermitianError):
            DensityMatrix(M)

    def test_rejects_wrong_trace(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(2))

    def test_matrix_is_frozen(self):
        dm = DensityMatrix(np.eye(2) / 2.0)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 0.3

    def test_indefinite_matrices_are_allowed(self):
        M = np.diag([1.5, -0.5])
        dm = DensityMatrix(M)
        assert not dm.is_positive()

    def test_purity_of_pure_state(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        dm = DensityMatrix(np.outer(v, v.conj()))
        assert dm.purity() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("D", [1, 3, 8, 40])
    def test_stores_the_symmetrized_matrix_bit_for_bit(self, D):
        # (M + M^dag) / 2 out of place, as one expression, is the reference;
        # signed zeros and a skew part at the tolerance's scale are included
        rng = rng_for(41, D)
        M = random_mixed(D, rng).matrix + 1e-13 * (rng.standard_normal((D, D)) + 1.0j * rng.standard_normal((D, D)))
        M -= (np.trace(M).real - 1.0) / D * np.eye(D)
        if D > 1:
            M[0, -1], M[-1, 0] = complex(-0.0, M[0, -1].imag), complex(0.0, M[-1, 0].imag)
        given = M.copy()
        got = DensityMatrix(M).matrix
        want = (M + M.conj().T) / 2.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(M.view(np.uint64), given.view(np.uint64))

    def test_reports_the_hermiticity_deviation_of_its_input(self):
        M = random_mixed(5, rng_for(42)).matrix.copy()
        M[1, 3] += 3e-12j
        dev = float(np.abs(M - M.conj().T).max())
        with pytest.raises(NonHermitianError, match=f"deviation {dev:.3e} exceeds"):
            DensityMatrix(M)

    def test_validation_peak_memory(self):
        # a copy of M and one conjugate buffer of 14.8 MB each, and the 7.4 MB
        # modulus of their difference: about 37 MB at D = 961 (44.5 MB when the
        # difference and the symmetrization each took a further complex buffer)
        M = random_mixed(961, rng_for(43)).matrix
        tracemalloc.start()
        try:
            DensityMatrix(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40_000_000


class TestEig:
    def test_ascending_and_reconstructs(self):
        rng = rng_for(101)
        for D in (2, 4, 7):
            dm = random_mixed(D, rng)
            spec = eig_hermitian(dm)
            assert np.all(np.diff(spec.eigenvalues) >= -1e-14)
            assert np.max(np.abs(spec.reconstruct() - dm.matrix)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonSquareError):
            eig_hermitian(np.zeros((2, 3)))

    def test_tiny_non_hermitian_matrix_is_refused(self):
        # an absolute 1e-10 check passes it, and eigh reads only its lower
        # triangle: 1e-11 and 3e-11, where its Hermitian part has 5.86e-12 and 3.41e-11
        with pytest.raises(NonHermitianError):
            eig_hermitian(1e-11 * np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_huge_hermitian_matrix_is_solved(self):
        # its deviation from M^dag is 2^300 1e-12, far above an absolute 1e-10
        spec = eig_hermitian(2.0**300 * np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]]))
        assert np.allclose(spec.eigenvalues, 2.0**300 * np.array([1.0, 3.0]), rtol=1e-15, atol=0.0)


class TestSqrtPsd:
    def test_squares_back(self):
        rng = rng_for(102)
        dm = random_mixed(5, rng)
        S = sqrt_psd(dm)
        assert np.max(np.abs(S @ S - dm.matrix)) < 1e-12

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            sqrt_psd(np.diag([1.0, -0.5]))

    def test_clips_tiny_negatives(self):
        S = sqrt_psd(np.diag([1.0, -1e-12]))
        assert S[1, 1] == 0.0

    def test_tiny_indefinite_matrix_is_refused(self):
        # -2^-300 lies above an absolute -1e-10, but is a third of the largest eigenvalue
        with pytest.raises(NotPSDError):
            sqrt_psd(2.0**-300 * np.diag([-1.0, 2.0, 3.0]))


@pytest.mark.parametrize("solve", [eig_hermitian, sqrt_psd])
def test_non_finite_entry_is_refused(solve):
    M = np.eye(3, dtype=complex)
    M[0, 1] = np.nan
    with pytest.raises(DomainError, match="NaN or infinite"):
        solve(M)


@pytest.mark.parametrize(
    "entries",
    [{(0, 1): np.nan}, {(0, 0): np.inf}, {(0, 1): np.inf, (1, 0): np.inf}, {(1, 1): complex(np.inf, np.inf)}],
    ids=["nan", "inf-diagonal", "inf-pair", "complex-inf"],
)
def test_density_matrix_refuses_non_finite_entries_without_a_warning(entries):
    # each makes the Hermiticity deviation NaN or inf (inf - inf on the diagonal and in the pair)
    M = np.eye(3, dtype=complex) / 3.0
    for ij, z in entries.items():
        M[ij] = z
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="NaN or infinite"):
            DensityMatrix(M)


def two_pass_eig(M):
    """eig_hermitian's arithmetic written out: scale by 2^-e in two halves, eigh, multiply back."""
    A = np.asarray(M, dtype=complex)
    e = math.frexp(float(np.abs(A).max(initial=0.0)))[1]
    vals, V = np.linalg.eigh(A * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e))
    return np.ldexp(vals, e), V


def two_pass_sqrt(M):
    """sqrt_psd's arithmetic written out, with its own pass for the largest eigenvalue modulus."""
    vals, V = two_pass_eig(M)
    top = float(np.abs(vals).max(initial=0.0))
    S = (V * np.sqrt(np.where(vals > vals.size * np.finfo(float).eps * top, vals, 0.0))) @ V.conj().T
    return (S + S.conj().T) / 2.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
@pytest.mark.parametrize("e", [-300, -1, 0, 1, 300])
def test_solvers_match_their_two_pass_arithmetic_bit_for_bit(n, e):
    # one scaled eigendecomposition serves both solvers and skips the multiply by 2^0;
    # neither may change a bit, at any scale: a state, H and H^2 at 2^e
    rng = rng_for(104, n, e + 300)
    A = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    H = (A + A.conj().T) / 2.0
    corpus = [math.ldexp(1.0, e) * H, math.ldexp(1.0, e) * (H @ H)]
    if n:
        corpus.append(math.ldexp(1.0, e) * random_mixed(n, rng).matrix)
    for M in corpus:
        spec = eig_hermitian(M)
        vals, V = two_pass_eig(M)
        assert same_bits(spec.eigenvalues, vals) and same_bits(spec.eigenvectors, V)
        if vals.size == 0 or vals[0] >= 0.0:
            assert same_bits(sqrt_psd(M), two_pass_sqrt(M))


def test_empty_matrix_has_empty_outputs():
    # like count_positive_charpoly's 0 count, not a ValueError from an empty max
    assert eig_hermitian(np.zeros((0, 0))).eigenvalues.shape == (0,)
    assert sqrt_psd(np.zeros((0, 0))).shape == (0, 0)


# what each solver returns, brought back from 2^e M to scale 1 (e even)
UNSCALE = {
    eig_hermitian: lambda spec, e: (spec.eigenvalues * 2.0**-e, spec.eigenvectors),
    sqrt_psd: lambda root, e: (root * 2.0 ** (-e // 2),),
}


def solve_verdict(solve, M: np.ndarray, e: int):
    """solve(2^e M) unscaled, or the class of the error that refuses it."""
    try:
        return UNSCALE[solve](solve(math.ldexp(1.0, e) * M), e)
    except DomainError as exc:
        return type(exc)


@pytest.mark.parametrize("solve", [eig_hermitian, sqrt_psd])
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    skew=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-3]),
    square=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_verdict_does_not_depend_on_scale(solve, n, skew, square, seed):
    # the output, or the class of the refusal, is the same at 2^-300 M and
    # 2^300 M as at M; squaring makes M positive semidefinite, for sqrt_psd
    rng = rng_for(109, seed)
    A = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    H = (A + A.conj().T) / 2.0
    M = (H @ H if square else H) + skew * rng.standard_normal((n, n))
    want = solve_verdict(solve, M, 0)
    for e in (-300, 300):
        got = solve_verdict(solve, M, e)
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type) and all(map(np.array_equal, got, want))


def test_trace_norm_matches_eigenvalue_magnitudes():
    rng = rng_for(103)
    A = rng.standard_normal((4, 4)) + 1.0j * rng.standard_normal((4, 4))
    H = (A + A.conj().T) / 2.0
    assert trace_norm(H) == pytest.approx(np.sum(np.abs(np.linalg.eigvalsh(H))), abs=1e-12)


class TestPartialOps:
    def test_partial_trace_of_product(self):
        rng = rng_for(104)
        a = random_mixed(2, rng)
        b = random_mixed(3, rng)
        M = tensor(a, b)
        assert np.max(np.abs(partial_trace(M, 2, 3, keep="A") - a.matrix)) < 1e-14
        assert np.max(np.abs(partial_trace(M, 2, 3, keep="B") - b.matrix)) < 1e-14

    def test_partial_trace_preserves_trace(self):
        rng = rng_for(105)
        dm = random_mixed(6, rng)
        for keep in ("A", "B"):
            marg = partial_trace(dm, 2, 3, keep=keep)
            assert np.trace(marg) == pytest.approx(1.0, abs=1e-14)

    def test_partial_transpose_of_product(self):
        rng = rng_for(106)
        a = random_mixed(2, rng)
        b = random_mixed(2, rng)
        M = tensor(a, b)
        expect = tensor(a, b.matrix.T)
        assert np.max(np.abs(partial_transpose(M, 2, 2, which="B") - expect)) < 1e-14
        expect = tensor(a.matrix.T, b)
        assert np.max(np.abs(partial_transpose(M, 2, 2, which="A") - expect)) < 1e-14

    def test_partial_transpose_is_involution(self):
        rng = rng_for(107)
        dm = random_mixed(6, rng)
        twice = partial_transpose(partial_transpose(dm, 2, 3), 2, 3)
        assert np.max(np.abs(twice - dm.matrix)) < 1e-14

    def test_partial_transpose_keeps_trace_and_hermiticity(self):
        rng = rng_for(108)
        dm = random_mixed(4, rng)
        pt = partial_transpose(dm, 2, 2)
        assert np.trace(pt) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(np.eye(6) / 6.0, 2, 2, keep="A")
        with pytest.raises(DimensionMismatchError):
            partial_transpose(np.eye(4) / 4.0, 2, 3)
