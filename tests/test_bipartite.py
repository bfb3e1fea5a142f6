import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpstates import (
    AmbiguousAtPZeroError,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    FOutOfRangeError,
    InternalCheckError,
    InvalidDimensionError,
    InvalidSchmidtVectorError,
    NonUnitVectorError,
    NotDPSError,
    PolarizationOutOfRangeError,
    SubsystemOrderError,
    consistency_check,
    dps_test,
    generate_basis,
    isotropic,
    make_dps,
    negativity,
    p_min,
    pair_threshold,
    partial_trace,
    partial_transpose,
    pt_spectrum_closed,
    reduced_spectrum_dps,
    schmidt_dps,
    schmidt_pure,
    two_qubit_canonical,
)
from dpstates.bipartite import NEG_TOL
from dpstates.channels import haar_state, haar_unitary

from conftest import random_non_dps, rng_for

DIM_PAIRS = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]


def bipartite_pure(dA, dB, rng):
    return haar_state(dA * dB, rng)


class TestSchmidtPure:
    @pytest.mark.parametrize("dA,dB", DIM_PAIRS)
    def test_locally_rotates_to_diagonal_form(self, dA, dB):
        rng = rng_for(50, dA, dB)
        psi = bipartite_pure(dA, dB, rng)
        form = schmidt_pure(psi, dA, dB)
        assert form.b.shape == (dA,)
        assert np.all(np.diff(form.b) <= 1e-14)
        assert np.sum(form.b**2) == pytest.approx(1.0, abs=1e-12)
        rotated = np.kron(form.U, form.V) @ psi
        expect = np.zeros(dA * dB, dtype=complex)
        for j in range(dA):
            expect[j * dB + j] = form.b[j]
        assert np.max(np.abs(rotated - expect)) < 1e-12

    def test_rejects_subsystem_order(self):
        rng = rng_for(51)
        with pytest.raises(SubsystemOrderError):
            schmidt_pure(bipartite_pure(3, 2, rng), 3, 2)

    def test_rejects_non_unit(self):
        with pytest.raises(NonUnitVectorError):
            schmidt_pure(np.ones(4), 2, 2)

    def test_rejects_length_that_is_not_da_times_db(self):
        with pytest.raises(DimensionMismatchError):
            schmidt_pure(bipartite_pure(2, 2, rng_for(51)), 2, 3)


class TestSchmidtDps:
    @pytest.mark.parametrize("dA,dB", DIM_PAIRS)
    def test_recovers_p_and_coefficients(self, dA, dB):
        rng = rng_for(52, dA, dB)
        psi = bipartite_pure(dA, dB, rng)
        direct = schmidt_pure(psi, dA, dB)
        for p in (0.7, -0.05):
            dps = make_dps(psi, p)
            got_p, form = schmidt_dps(dps.to_matrix(), dA, dB)
            assert got_p == pytest.approx(p, abs=1e-10)
            assert np.max(np.abs(form.b - direct.b)) < 1e-9

    @pytest.mark.parametrize("p", [0.6, -0.1])
    def test_makes_no_eigensolve(self, p, monkeypatch):
        calls = []

        def counted(solver):
            def call(*args, **kwargs):
                calls.append(solver.__name__)
                return solver(*args, **kwargs)

            return call

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))
        dps = make_dps(bipartite_pure(2, 3, rng_for(56)), p)
        got_p, _ = schmidt_dps(dps.to_matrix(), 2, 3)
        assert got_p == pytest.approx(p, abs=1e-10)
        assert calls == []

    def test_rejects_non_dps(self):
        with pytest.raises(NotDPSError):
            schmidt_dps(random_non_dps(4, rng_for(53)), 2, 2)

    def test_rejects_dims_that_do_not_factorize_the_state(self):
        # the CLI's only guard against --dims whose product is not D
        dps = make_dps(bipartite_pure(2, 2, rng_for(53)), 0.5)
        with pytest.raises(DimensionMismatchError):
            schmidt_dps(dps.to_matrix(), 2, 3)

    def test_ambiguous_at_p_zero(self):
        for p in (0.0, 1e-13):
            rho = make_dps(bipartite_pure(2, 2, rng_for(54)), p).to_matrix()
            assert abs(dps_test(rho)) <= 1e-12
            with pytest.raises(AmbiguousAtPZeroError):
                schmidt_dps(rho, 2, 2)

    @pytest.mark.parametrize("p_tol", [math.nan, -0.5, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_at_least_0(self, p_tol):
        # NaN used to skip the |p| < p_tol check, -0.5 to pass every p
        rho = make_dps(bipartite_pure(2, 2, rng_for(54)), 0.5).to_matrix()
        with pytest.raises(DomainError, match="p_tol must be finite and >= 0"):
            schmidt_dps(rho, 2, 2, p_tol=p_tol)


class TestReducedSpectrum:
    @pytest.mark.parametrize("dA,dB", DIM_PAIRS)
    def test_matches_eigensolved_marginals(self, dA, dB):
        rng = rng_for(55, dA, dB)
        psi = bipartite_pure(dA, dB, rng)
        form = schmidt_pure(psi, dA, dB)
        for p in (0.45, -0.08):
            M = make_dps(psi, p).to_matrix().matrix
            specA = np.linalg.eigvalsh(partial_trace(M, dA, dB, keep="A"))
            specB = np.linalg.eigvalsh(partial_trace(M, dA, dB, keep="B"))
            assert np.max(np.abs(reduced_spectrum_dps(p, form.b, dA) - specA)) < 1e-10
            assert np.max(np.abs(reduced_spectrum_dps(p, form.b, dB) - specB)) < 1e-10

    def test_rejects_bad_coefficients(self):
        with pytest.raises(InvalidSchmidtVectorError):
            reduced_spectrum_dps(0.5, [0.9, 0.9], 2)
        with pytest.raises(InvalidSchmidtVectorError):
            reduced_spectrum_dps(0.5, [1.2, -0.1], 2)
        # three coefficients for the two slots of a qubit factor
        with pytest.raises(InvalidSchmidtVectorError):
            reduced_spectrum_dps(0.5, [0.6, 0.6, np.sqrt(0.28)], 2)
        # NaN fails both the sign and the normalization test
        for call in (
            lambda b: reduced_spectrum_dps(0.5, b, 2),
            lambda b: negativity(0.5, b, 2, 2),
            lambda b: pair_threshold(b, 2, 2),
        ):
            for b in ([math.nan, 1.0], [math.nan, math.nan]):
                with pytest.raises(InvalidSchmidtVectorError):
                    call(b)

    def test_rejects_out_of_range_p(self):
        # the other factor has dimension >= 2, so p >= p_min(2 dX) is required
        for p in (math.nan, 5.0, 1.0 + 1e-9, p_min(4) - 1e-9):
            with pytest.raises(PolarizationOutOfRangeError):
                reduced_spectrum_dps(p, [1.0, 0.0], 2)
        assert np.array_equal(reduced_spectrum_dps(1.0, [1.0, 0.0], 2), [0.0, 1.0])
        low = reduced_spectrum_dps(p_min(4), [1.0, 0.0], 2)
        assert np.array_equal(low, np.sort((1.0 - p_min(4)) / 2 + p_min(4) * np.array([1.0, 0.0])))

    @pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 4)])
    def test_any_coefficient_order(self, dA, dB):
        # a Schmidt vector with a zero, in every order: the sorted vector's
        # spectrum, and the dense partial traces of the state it describes
        b = np.zeros(dA)
        b[:2] = (0.8, 0.6)
        p = 0.45
        for order in ([1, 0] + list(range(2, dA)), list(range(dA))[::-1]):
            perm = b[order]
            diag = np.zeros(dA * dB, dtype=complex)
            for j in range(dA):
                diag[j * dB + j] = perm[j]
            M = make_dps(diag, p).to_matrix().matrix
            for dX, keep in ((dA, "A"), (dB, "B")):
                got = reduced_spectrum_dps(p, perm, dX)
                assert np.array_equal(got, reduced_spectrum_dps(p, b, dX))
                dense = np.linalg.eigvalsh(partial_trace(M, dA, dB, keep=keep))
                assert np.max(np.abs(got - dense)) < 1e-12
        assert np.array_equal(reduced_spectrum_dps(0.5, [0.0, 1.0], 2), [0.25, 0.75])


@st.composite
def dps_marginal_case(draw):
    """(dA, dB, rank, p, seed): dA <= dB <= 6, Schmidt rank 1..dA, p at an edge, 0 or anywhere in range."""
    dB = draw(st.integers(2, 6))
    dA = draw(st.integers(2, dB))
    rank = draw(st.integers(1, dA))
    D = dA * dB
    p = draw(st.sampled_from([p_min(D), 0.0, 1.0]) | st.floats(p_min(D), 1.0))
    return dA, dB, rank, p, draw(st.integers(0, 2**32 - 1))


class TestConsistencyCheck:
    def test_accepts_true_marginal_pair(self):
        rng = rng_for(56)
        dA, dB = 3, 4
        psi = bipartite_pure(dA, dB, rng)
        M = make_dps(psi, 0.6).to_matrix().matrix
        rhoA = DensityMatrix(partial_trace(M, dA, dB, keep="A"))
        rhoB = DensityMatrix(partial_trace(M, dA, dB, keep="B"))
        res = consistency_check(rhoA, rhoB)
        assert res.consistent
        assert res.p == pytest.approx(0.6, abs=1e-8)

    def test_rejects_mismatched_polarizations(self):
        rng = rng_for(57)
        dA, dB = 2, 3
        psi = bipartite_pure(dA, dB, rng)
        MA = make_dps(psi, 0.5).to_matrix().matrix
        MB = make_dps(psi, 0.2).to_matrix().matrix
        rhoA = DensityMatrix(partial_trace(MA, dA, dB, keep="A"))
        rhoB = DensityMatrix(partial_trace(MB, dA, dB, keep="B"))
        res = consistency_check(rhoA, rhoB)
        assert not res.consistent

    def test_rejects_rank_deficient_marginal(self):
        rhoA = DensityMatrix(np.diag([1.0, 0.0]))
        rhoB = DensityMatrix(np.eye(3) / 3.0)
        assert not consistency_check(rhoA, rhoB).consistent

    @pytest.mark.seed_sweep  # it draws DPS marginal pairs, pure and rank-deficient ones among them
    @settings(max_examples=60, deadline=None)
    @given(case=dps_marginal_case())
    # at |p| = 1e-8 the roundoff of rho_A's spectrum, divided by p, once made b^2 = -3e-8
    @example(case=(2, 3, 1, 1e-8, 15772))
    def test_accepts_every_dps_marginal_pair(self, case):
        dA, dB, rank, p, seed = case
        rng = rng_for(59, seed)
        w = rng.uniform(0.05, 1.0, rank)
        b_sq = np.concatenate([np.sort(w / w.sum())[::-1], np.zeros(dA - rank)])
        U, V = haar_unitary(dA, rng), haar_unitary(dB, rng)
        psi = sum(math.sqrt(b_sq[j]) * np.kron(U[:, j], V[:, j]) for j in range(rank))
        M = make_dps(psi, p).to_matrix().matrix
        res = consistency_check(
            DensityMatrix(partial_trace(M, dA, dB, keep="A")), DensityMatrix(partial_trace(M, dA, dB, keep="B"))
        )
        assert res.consistent, res.reason
        if dA == dB:
            assert res.p is None and res.b is None
            return
        assert abs(res.p - p) <= 1e-8
        if abs(p) >= 0.01:
            assert np.max(np.abs(res.b**2 - b_sq)) <= 1e-8

    def test_accepts_maximally_entangled_pure_pair(self):
        # the marginals of (|00> + |11>)/sqrt(2) at 2x3; rho_B is rank-deficient, and p = 1 is a DPS
        res = consistency_check(DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.diag([0.5, 0.5, 0.0])))
        assert res.verdict == "CONSISTENT"
        assert res.p == 1.0
        assert res.b == pytest.approx([1.0 / math.sqrt(2.0)] * 2, abs=1e-15)

    def test_accepts_product_pure_pair(self):
        # the marginals of |00> at 2x3
        res = consistency_check(DensityMatrix(np.diag([1.0, 0.0])), DensityMatrix(np.diag([1.0, 0.0, 0.0])))
        assert res.consistent
        assert res.p == 1.0
        assert np.array_equal(res.b, [1.0, 0.0])

    def test_equal_dimensions_fix_no_polarization(self):
        rng = rng_for(58)
        M = make_dps(bipartite_pure(2, 2, rng), 0.6).to_matrix().matrix
        res = consistency_check(
            DensityMatrix(partial_trace(M, 2, 2, keep="A")), DensityMatrix(partial_trace(M, 2, 2, keep="B"))
        )
        assert res.consistent
        assert res.p is None and res.b is None

    def test_rejects_unequal_spectra_at_equal_dimensions(self):
        res = consistency_check(DensityMatrix(np.diag([0.7, 0.3])), DensityMatrix(np.diag([0.6, 0.4])))
        assert res.verdict == "REJECTED"
        assert res.p is None and res.b is None

    @pytest.mark.parametrize("dB", [3, 4])
    def test_maximally_mixed_marginals_are_consistent_at_p_zero(self, dB):
        res = consistency_check(DensityMatrix(np.eye(2) / 2.0), DensityMatrix(np.eye(dB) / dB))
        assert res.verdict == "CONSISTENT"
        assert res.reason == "both marginals maximally mixed (p = 0)"
        assert res.p == 0.0
        assert res.b is None

    def test_rejects_missing_cluster(self):
        # dB >= dA + 2 forces a (dB-dA)-fold degenerate level in rho_B
        rhoA = DensityMatrix(np.diag([0.6, 0.4]))
        rhoB = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]))
        assert not consistency_check(rhoA, rhoB).consistent


class TestPtSpectrum:
    @pytest.mark.parametrize("dA,dB", DIM_PAIRS)
    def test_matches_brute_force(self, dA, dB):
        rng = rng_for(58, dA, dB)
        psi = bipartite_pure(dA, dB, rng)
        form = schmidt_pure(psi, dA, dB)
        for p in (0.9, 0.3, -0.04):
            dm = make_dps(psi, p).to_matrix()
            closed = np.sort(pt_spectrum_closed(p, form.b, dA, dB))
            # the closed form is basis-independent: use the Schmidt-diagonal
            # representative with the same coefficients
            diag = np.zeros(dA * dB, dtype=complex)
            for j in range(dA):
                diag[j * dB + j] = form.b[j]
            brute = np.sort(
                np.linalg.eigvalsh(partial_transpose(make_dps(diag, p).to_matrix(), dA, dB))
            )
            assert np.max(np.abs(closed - brute)) < 1e-10
            # local unitaries do not move the PT spectrum
            brute_orig = np.sort(np.linalg.eigvalsh(partial_transpose(dm, dA, dB)))
            assert np.max(np.abs(closed - brute_orig)) < 1e-10

    def test_counts_and_padding(self):
        closed = pt_spectrum_closed(0.5, [1.0, 0.0], 2, 3)
        assert closed.shape == (6,)
        assert np.sum(closed) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_out_of_range_p(self):
        for p in (math.nan, 2.0, p_min(6) - 1e-9):
            with pytest.raises(PolarizationOutOfRangeError):
                pt_spectrum_closed(p, [1.0, 0.0], 2, 3)
        assert np.min(pt_spectrum_closed(p_min(6), [1.0, 0.0], 2, 3)) == pytest.approx(0.0, abs=1e-15)


class TestNegativity:
    def test_ppt_case_is_exact_zero(self):
        rep = negativity(0.1, [1.0 / math.sqrt(2.0)] * 2, 2, 2)
        assert rep.negativity == 0.0
        assert rep.negative_count == 0
        assert not rep.entangled
        assert "sufficient but not necessary" in rep.caveat

    def test_npt_case_matches_trace_norm(self):
        p = 0.8
        b = [1.0 / math.sqrt(2.0)] * 2
        rep = negativity(p, b, 2, 2)
        spectrum = pt_spectrum_closed(p, b, 2, 2)
        expect = (np.sum(np.abs(spectrum)) - 1.0) / 1.0
        assert rep.negativity == pytest.approx(expect, abs=1e-12)
        assert rep.entangled
        assert rep.negative_count == 1
        assert rep.bound == 1

    def test_count_bound(self):
        b = [1.0 / math.sqrt(3.0)] * 3
        rep = negativity(0.9, b, 3, 3)
        assert rep.negative_count <= 3

    def test_rejects_out_of_range_p(self):
        for p in (math.nan, 2.0, p_min(4) - 1e-9):
            with pytest.raises(PolarizationOutOfRangeError):
                negativity(p, [1.0, 0.0], 2, 2)

    def test_count_above_the_pair_bound_is_an_internal_error(self, monkeypatch):
        # at dA = 2 one pair of Schmidt slots allows one negative PT eigenvalue; two mean a bug
        from dpstates import bipartite

        monkeypatch.setattr(bipartite, "pt_spectrum_closed", lambda *args: np.array([-0.1, -0.1, 0.6, 0.6]))
        with pytest.raises(InternalCheckError, match="2 negative PT eigenvalues exceed the pair bound 1"):
            negativity(0.8, [1.0 / math.sqrt(2.0)] * 2, 2, 2)

    @pytest.mark.parametrize("neg_tol", [math.nan, -0.5, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_and_at_least_0(self, neg_tol):
        # the state is entangled: NaN and inf used to report no negative eigenvalue,
        # and -0.5 raised InternalCheckError, the class of a bug in the library
        with pytest.raises(DomainError, match="neg_tol must be finite and >= 0"):
            negativity(0.9, [1.0 / math.sqrt(2.0)] * 2, 2, 2, neg_tol=neg_tol)


class TestPairThreshold:
    def test_formula(self):
        b = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0]
        assert pair_threshold(b, 3, 3) == pytest.approx(2.0 / 11.0, abs=1e-14)

    def test_product_state_never_negative(self):
        assert math.isinf(pair_threshold([1.0, 0.0], 2, 2))

    def test_rejects_the_splits_negativity_rejects(self):
        with pytest.raises(InvalidDimensionError):
            pair_threshold([0.6, 0.8], 2, 1)
        with pytest.raises(SubsystemOrderError):
            pair_threshold([0.6, 0.8], 3, 2)


# The array expressions these closed forms had before they were evaluated
# on Python floats: the float route must reproduce every bit of them.


def array_schmidt_vector(b, n_slots):
    vec = np.asarray(b, dtype=float).reshape(-1)
    out = np.zeros(n_slots)
    out[: vec.size] = np.clip(vec, 0.0, None)
    return out


def array_reduced_spectrum(p, b, dX):
    return np.sort((1.0 - p) / dX + p * array_schmidt_vector(b, dX) ** 2)


def array_pt_spectrum(p, b, dA, dB):
    vec = array_schmidt_vector(b, dA)
    D = dA * dB
    flat = (1.0 - p) / D
    vals = [flat + p * bj * bj for bj in vec]
    for j in range(dA):
        for k in range(j + 1, dA):
            cross = p * vec[j] * vec[k]
            vals.append(flat + cross)
            vals.append(flat - cross)
    vals.extend([flat] * (D - dA * dA))
    return np.sort(np.array(vals))


def array_negativity(p, b, dA, dB):
    spectrum = array_pt_spectrum(p, b, dA, dB)
    count = int(np.sum(spectrum < -NEG_TOL))
    neg = 0.0 if count == 0 else float((np.sum(np.abs(spectrum)) - 1.0) / (dA - 1))
    return spectrum, neg, count


def array_pair_threshold(b, dA, dB):
    sorted_desc = np.sort(array_schmidt_vector(b, dA))[::-1]
    top = float(sorted_desc[0] * sorted_desc[1])
    return math.inf if top <= 0.0 else 1.0 / (dA * dB * top + 1.0)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def schmidt_cases(draw):
    """(p, b, dA, dB): dA <= dB <= 9, b of length 1..dA with zeros, p anywhere in its range."""
    dB = draw(st.integers(min_value=2, max_value=9))
    dA = draw(st.integers(min_value=2, max_value=dB))
    n = draw(st.integers(min_value=1, max_value=dA))
    entry = st.one_of(st.sampled_from([0.0, -0.0, -5e-13]), st.floats(min_value=0.0, max_value=1.0))
    raw = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    norm = float(np.linalg.norm(raw))
    b = raw / norm if norm > 0.5 else np.eye(n)[draw(st.integers(min_value=0, max_value=n - 1))]
    lo = p_min(dA * dB)
    t = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)))
    return lo + t * (1.0 - lo), b, dA, dB


class TestFloatRouteMatchesArrays:
    @settings(max_examples=200, deadline=None)
    @given(case=schmidt_cases())
    def test_every_bit(self, case):
        p, b, dA, dB = case
        assert same_bits(reduced_spectrum_dps(p, b, dA), array_reduced_spectrum(p, b, dA))
        assert same_bits(reduced_spectrum_dps(p, b, dB), array_reduced_spectrum(p, b, dB))
        assert same_bits(pt_spectrum_closed(p, b, dA, dB), array_pt_spectrum(p, b, dA, dB))
        rep = negativity(p, b, dA, dB)
        spectrum, neg, count = array_negativity(p, b, dA, dB)
        assert same_bits(rep.pt_spectrum, spectrum)
        assert (rep.negativity.hex(), rep.negative_count) == (neg.hex(), count)
        assert pair_threshold(b, dA, dB).hex() == array_pair_threshold(b, dA, dB).hex()


def pauli_canonical_form(p: float, omega: float) -> np.ndarray:
    """The two-qubit canonical DPS as its Pauli sum, an oracle for ``two_qubit_canonical``.

    (1 + p cos(omega) (Z1 + Z2) + p sin(omega) (XX - YY) + p ZZ) / 4.
    """
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    co, si = math.cos(omega), math.sin(omega)
    return (
        np.kron(eye, eye)
        + p * co * np.kron(sz, eye)
        + p * co * np.kron(eye, sz)
        + p * si * np.kron(sx, sx)
        - p * si * np.kron(sy, sy)
        + p * np.kron(sz, sz)
    ) / 4.0


class TestTwoQubitCanonical:
    @pytest.mark.seed_sweep  # a closed-form construction test: each seed draws other inputs
    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(-1.0 / 3.0, 1.0), omega=st.floats(0.0, math.pi / 2.0))
    def test_matches_pauli_canonical_form(self, p, omega):
        state, _ = two_qubit_canonical(p, omega)
        assert np.max(np.abs(state.matrix - pauli_canonical_form(p, omega))) < 1e-15

    def test_builds_no_pauli_sum(self, capsys, tmp_path, monkeypatch):
        from dpstates.cli import main

        def refuse(*args):
            raise AssertionError("the Pauli sum was built")

        monkeypatch.setattr(np, "kron", refuse)
        two_qubit_canonical(0.55, 0.8)
        assert main(["werner2q", "--p", "0.8", "--omega", "1.3", "--out", str(tmp_path / "w.json")]) == 0

    def test_is_dps_with_matching_p(self):
        basis = generate_basis(4)
        state, _ = two_qubit_canonical(0.55, 0.8)
        assert dps_test(state, basis) == pytest.approx(0.55, abs=1e-10)

    def test_mu_matches_pt_eigenvalues(self):
        for p, omega in [(0.2, 0.3), (0.7, 1.5), (-0.3, 0.0), (1.0, math.pi / 4.0)]:
            state, mu = two_qubit_canonical(p, omega)
            brute = np.sort(np.linalg.eigvalsh(partial_transpose(state, 2, 2)))
            assert np.max(np.abs(np.sort(np.asarray(mu)) - brute)) < 1e-12

    def test_parameter_validation(self):
        from dpstates import DomainError

        with pytest.raises(PolarizationOutOfRangeError):
            two_qubit_canonical(-0.4, 0.5)
        with pytest.raises(DomainError):
            two_qubit_canonical(0.5, -0.1)


class TestIsotropic:
    def test_polarization_formula(self):
        for dA in (2, 3, 4):
            for F in (0.0, 0.3, 1.0):
                dps, separable = isotropic(dA, F)
                assert dps.p == pytest.approx((dA * dA * F - 1.0) / (dA * dA - 1.0), abs=1e-12)
                assert separable == (F <= 1.0 / dA + 1e-12)

    def test_purification_is_maximally_entangled(self):
        dps, _ = isotropic(3, 0.7)
        form = schmidt_pure(dps.pure, 3, 3)
        assert np.max(np.abs(form.b - 1.0 / math.sqrt(3.0))) < 1e-12

    def test_f_range(self):
        with pytest.raises(FOutOfRangeError):
            isotropic(2, 1.1)
        with pytest.raises(FOutOfRangeError):
            isotropic(2, -0.1)
