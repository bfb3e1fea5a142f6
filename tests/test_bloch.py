import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstates import (
    CoherenceVector,
    DensityMatrix,
    DimensionMismatchError,
    InvalidDimensionError,
    UndefinedForDim2Error,
    c_norm,
    dps_test,
    from_coherence,
    generate_basis,
    invariant_ladder,
    make_dps,
    p_min,
    star,
    to_coherence,
)
from dpstates.bloch import measure_dps

from conftest import random_dps, random_mixed, random_non_dps, rng_for


def structure_tensors(G):
    """Dense su(D) structure constants, the oracle for the operator route.

    c_ijk = -(i/4) Tr([l_i, l_j] l_k) and d_ijk = (1/4) Tr({l_i, l_j} l_k).
    """
    T = np.einsum("iab,jbc,kca->ijk", G, G, G, optimize=True)
    Tt = T.transpose(1, 0, 2)
    return np.real(-0.25j * (T - Tt)), np.real(0.25 * (T + Tt))


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
class TestBasis:
    def test_count_and_shape(self, D):
        basis = generate_basis(D)
        assert len(basis) == D * D - 1
        assert basis.shape == (D * D - 1, D, D)

    def test_hermitian_traceless(self, D):
        for g in generate_basis(D):
            assert np.max(np.abs(g - g.conj().T)) < 1e-14
            assert abs(np.trace(g)) < 1e-14

    def test_orthogonality(self, D):
        G = generate_basis(D)
        gram = np.real(np.einsum("iab,jba->ij", G, G))
        assert np.max(np.abs(gram - 2.0 * np.eye(D * D - 1))) < 1e-12

    def test_product_formula_reconstructs(self, D):
        # lam_i lam_j = (2/D) delta_ij 1 + sum_k (i c_ijk + d_ijk) lam_k
        G = generate_basis(D)
        n = len(G)
        c, d = structure_tensors(G)
        lhs = np.einsum("iab,jbc->ijac", G, G)
        rhs = (2.0 / D) * np.einsum("ij,ac->ijac", np.eye(n), np.eye(D)) + np.einsum(
            "ijk,kac->ijac", 1.0j * c + d, G
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_d3_diagonal_structure_constant():
    # d_{1,1,8} = 1/sqrt(3) in 1-based labels; indices 0,0,7 here
    _, d = structure_tensors(generate_basis(3))
    assert d[0, 0, 7] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-14)


def test_generators_are_one_read_only_stack():
    basis = generate_basis(4)
    assert basis.shape == (15, 4, 4)
    assert not basis.flags.writeable


def test_basis_builds_no_structure_tensors():
    # the D=12 stack takes 0.33 MB; dense (D^2-1)^3 structure tensors would take 47 MB each
    import tracemalloc

    generate_basis.cache_clear()
    tracemalloc.start()
    try:
        generate_basis(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        generate_basis.cache_clear()
    assert peak < 2 * 1024 * 1024


def test_basis_rejects_bad_dimension():
    with pytest.raises(InvalidDimensionError):
        generate_basis(1)


def test_ground_state_qubit_vector():
    dm = DensityMatrix(np.diag([1.0, 0.0]))
    n = to_coherence(dm)
    assert np.allclose(n.n, [0.0, 0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("D", [2, 3, 5])
def test_coherence_round_trip(D):
    rng = rng_for(20, D)
    dm = random_mixed(D, rng)
    back = from_coherence(to_coherence(dm))
    assert np.max(np.abs(back.matrix - dm.matrix)) < 1e-12


def test_coherence_vector_length_checked():
    with pytest.raises(DimensionMismatchError):
        CoherenceVector(dim=3, n=np.zeros(5))
    a = CoherenceVector(dim=3, n=np.zeros(8))
    b = CoherenceVector(dim=4, n=np.zeros(15))
    with pytest.raises(DimensionMismatchError):
        star(a, b)
    with pytest.raises(DimensionMismatchError):
        star(b, a)


@pytest.mark.parametrize("D", [3, 4, 6])
def test_pure_states_are_star_fixed_points(D):
    rng = rng_for(21, D)
    pure = random_dps(D, rng, p=1.0)
    n = to_coherence(pure.to_matrix())
    assert n.norm == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(star(n, n).n - n.n)) < 1e-12


@pytest.mark.parametrize("D", [3, 4, 5, 6])
def test_star_matches_structure_tensor_oracle(D):
    # the operator route against (c_D/(D-2)) sum_ij d_ijk a_i b_j
    rng = rng_for(27, D)
    _, d = structure_tensors(generate_basis(D))
    scale = c_norm(D) / (D - 2)
    for _ in range(5):
        a = CoherenceVector(dim=D, n=rng.standard_normal(D * D - 1))
        b = CoherenceVector(dim=D, n=rng.standard_normal(D * D - 1))
        oracle = scale * np.einsum("ijk,i,j->k", d, a.n, b.n)
        assert np.max(np.abs(star(a, b).n - oracle)) < 1e-12
        ladder, v = [], a.n
        for _ in range(4):
            ladder.append(float(v @ a.n))
            v = scale * np.einsum("ijk,i,j->k", d, a.n, v)
        assert np.allclose(invariant_ladder(a, 3), ladder, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_measurement_matches_component_route(D):
    rng = rng_for(28, D)
    for state in (random_dps(D, rng).to_matrix(), random_non_dps(D, rng), random_mixed(D, rng)):
        m = measure_dps(state)
        n = to_coherence(state)
        assert m.norm == pytest.approx(n.norm, abs=1e-13)
        vals, vecs = np.linalg.eigh(state.matrix)
        assert np.max(np.abs(m.eigenvalues - vals)) == 0.0
        assert np.max(np.abs(m.eigenvectors - vecs)) == 0.0
        if D == 2:
            assert m.p == m.norm and m.star_residual is None
            continue
        nn = star(n, n)
        p = n.norm if nn.dot(n) >= 0.0 else -n.norm
        assert m.p == pytest.approx(p, abs=1e-13)
        assert m.star_residual == pytest.approx(float(np.linalg.norm(nn.n - p * n.n)), abs=1e-13)
        assert np.allclose(m.ladder(3), invariant_ladder(n, 3), rtol=1e-12, atol=1e-13)


def test_star_rejects_dim2():
    n = CoherenceVector(dim=2, n=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(UndefinedForDim2Error):
        star(n, n)
    with pytest.raises(UndefinedForDim2Error):
        invariant_ladder(n, 2)
    with pytest.raises(UndefinedForDim2Error):
        measure_dps(DensityMatrix(np.eye(2) / 2.0)).ladder(2)


def test_c_norm_values():
    assert c_norm(2) == pytest.approx(1.0)
    assert c_norm(3) == pytest.approx(math.sqrt(3.0))


@settings(max_examples=20, deadline=None)
@given(
    D=st.integers(min_value=3, max_value=5),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_dps_star_and_ladder_invariants(D, t, seed):
    p = p_min(D) + t * (1.0 - p_min(D))
    dps = random_dps(D, rng_for(22, seed), p=p)
    n = to_coherence(dps.to_matrix())
    nn = star(n, n)
    assert np.max(np.abs(nn.n - p * n.n)) < 1e-10
    ladder = invariant_ladder(n, 3)
    for r, value in enumerate(ladder):
        assert value == pytest.approx(p ** (r + 2), abs=1e-10)


def _bases(D):
    # the basis is optional: every case runs with it and without it
    return (generate_basis(D), None)


class TestDpsTest:
    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_recovers_signed_p(self, D):
        for basis in _bases(D):
            rng = rng_for(23, D)
            for p in (p_min(D) + 1e-6, -0.1, 0.0, 0.3, 1.0):
                dps = random_dps(D, rng, p=p)
                got = dps_test(dps.to_matrix(), basis)
                assert got is not None
                assert got == pytest.approx(p, abs=1e-10)

    def test_dim2_returns_magnitude(self):
        for basis in _bases(2):
            dps = random_dps(2, rng_for(24), p=-0.6)
            got = dps_test(dps.to_matrix(), basis)
            assert got == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("D", [3, 4, 5])
    def test_rejects_generic_mixtures(self, D):
        for basis in _bases(D):
            rng = rng_for(25, D)
            for _ in range(10):
                assert dps_test(random_non_dps(D, rng), basis) is None
                assert dps_test(random_mixed(D, rng), basis) is None

    def test_rejects_non_positive(self):
        M = np.diag([0.6, 0.6, -0.2])
        for basis in _bases(3):
            assert dps_test(DensityMatrix(M), basis) is None

    def test_equal_orthogonal_mixture_d3_is_a_dps(self):
        # not a rejection case: (|0><0| + |1><1|)/2 at D=3 sits in the
        # family at p = -1/2, with |2> as the purification
        for basis in _bases(3):
            got = dps_test(DensityMatrix(np.diag([0.5, 0.5, 0.0])), basis)
            assert got == pytest.approx(-0.5, abs=1e-12)

    def test_shared_tolerance_argument(self):
        # custom tolerances go through the measurement, as dps analyze's do
        dps = random_dps(3, rng_for(26), p=0.4)
        assert measure_dps(dps.to_matrix()).verdict(1e-6, 1e-6) == pytest.approx(0.4, abs=1e-10)


def test_dps_test_checks_basis_dimension():
    dps = random_dps(4, rng_for(29), p=0.5)
    with pytest.raises(DimensionMismatchError):
        dps_test(dps.to_matrix(), generate_basis(3))


def test_dps_test_at_dim16_without_basis():
    rng = rng_for(30)
    for p in (p_min(16) + 1e-6, -0.02, 0.35, 1.0):
        got = dps_test(random_dps(16, rng, p=p).to_matrix())
        assert got == pytest.approx(p, abs=1e-10)
    for _ in range(5):
        assert dps_test(random_non_dps(16, rng)) is None
