import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpstates import (
    CoherenceVector,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    InvalidDimensionError,
    UndefinedForDim2Error,
    c_norm,
    dps_test,
    from_coherence,
    generate_basis,
    haar_state,
    invariant_ladder,
    make_dps,
    p_min,
    schmidt_dps,
    star,
    to_coherence,
)
from dpstates.bloch import (
    SPECTRUM_TOL,
    STAR_TOL,
    _ladder,
    _operator,
    _star_operator,
    measure_dps,
)
from dpstates.metrics import _dps_spectrum

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
    tracemalloc.start()
    try:
        generate_basis(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def test_d3_basis_is_the_gell_mann_matrices():
    # lambda_1, 4, 6 (symmetric), 2, 5, 7 (antisymmetric), 3, 8 in Gell-Mann's numbering
    i = 1j
    gell_mann = [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, -i, 0], [i, 0, 0], [0, 0, 0]],
        [[0, 0, -i], [0, 0, 0], [i, 0, 0]],
        [[0, 0, 0], [0, 0, -i], [0, i, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        np.diag([1.0, 1.0, -2.0]) * math.sqrt(1.0 / 3.0),
    ]
    assert np.array_equal(generate_basis(3), np.array(gell_mann, dtype=complex))


def basis_route(D):
    """The coherence-vector functions as contractions with the dense stack: the route the index maps replaced."""
    G = generate_basis(D)

    def coordinates(M):
        return np.real(np.einsum("ab,iba->i", M, G))

    def operator(x):
        return np.tensordot(x, G, axes=(0, 0))

    return coordinates, operator


@pytest.mark.seed_sweep  # it draws its own index-map inputs, other ones on each seed
@settings(max_examples=60, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=12),
    kind=st.sampled_from(("dps+", "dps-", "wishart", "rank1")),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_index_maps_match_the_basis_contraction(D, kind, t, seed):
    rng = rng_for(35, seed)
    rho, other = corpus_state(kind, D, t, rng), random_mixed(D, rng)
    coordinates, operator = basis_route(D)
    scale = math.sqrt(D / (2.0 * (D - 1)))
    n, m = to_coherence(rho), to_coherence(other)
    assert np.max(np.abs(n.n - scale * coordinates(rho.matrix))) <= 1e-15
    assert np.max(np.abs(_operator(n.n) - operator(n.n))) <= 1e-15
    assert np.max(np.abs(from_coherence(n).matrix - rho.matrix)) <= 1e-15
    if D == 2:
        return
    for a, b in ((n, n), (n, m)):
        S = _star_operator(operator(a.n), operator(b.n))
        assert np.max(np.abs(star(a, b).n - 0.5 * coordinates(S))) <= 1e-15
    # rung r applies r star products to operators an ulp apart, so its error grows with r
    ladder = _ladder(operator(n.n), 3)
    for r, (got, want) in enumerate(zip(invariant_ladder(n, 3), ladder)):
        assert abs(got - want) <= (r + 1) * 1e-15


def test_coherence_vectors_build_no_basis_at_dim_200(monkeypatch):
    # the (D^2-1, D, D) stack would take 25.6 GB at D = 200; one D x D matrix takes 0.64 MB
    import dpstates.bloch as bloch

    def refuse(D):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(bloch, "generate_basis", refuse)
    rng = rng_for(36)
    rho = random_mixed(200, rng)
    n = to_coherence(rho)
    for f in (
        lambda: to_coherence(rho),
        lambda: from_coherence(n),
        lambda: star(n, n),
        lambda: invariant_ladder(n, 2),
    ):
        tracemalloc.start()
        try:
            f()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024


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
        if D == 2:
            assert m.p == m.norm and m.star_residual is None
            continue
        nn = star(n, n)
        p = n.norm if nn.dot(n) >= 0.0 else -n.norm
        assert m.p == pytest.approx(p, abs=1e-13)
        assert m.star_residual == pytest.approx(float(np.linalg.norm(nn.n - p * n.n)), abs=1e-13)
        assert np.allclose(m.ladder(3), invariant_ladder(n, 3), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("r_max", [2.5, True, -1])
def test_ladder_depth_that_is_not_an_integer_at_least_0_is_a_domain_error(r_max):
    state = random_dps(3, rng_for(138)).to_matrix()
    for ladder in (lambda: invariant_ladder(to_coherence(state), r_max), lambda: measure_dps(state).ladder(r_max)):
        with pytest.raises(DomainError, match="ladder depth r_max must be an integer >= 0"):
            ladder()


def test_star_rejects_dim2():
    n = CoherenceVector(dim=2, n=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(UndefinedForDim2Error):
        star(n, n)
    for r_max in (0, 2):  # r_max = 0 needs no star product, and is refused all the same
        with pytest.raises(UndefinedForDim2Error):
            invariant_ladder(n, r_max)
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
        # both sit exactly on the DPS pattern, with p outside [p_min, 1]:
        # p = -0.8 at D = 3 and p = 1.2 at D = 4
        for rho in (DensityMatrix(np.diag([0.6, 0.6, -0.2])), dps_matrix(4, 1.2, 0)):
            assert measure_dps(rho).certificate <= 1e-15
            assert eigh_oracle(rho)[0] is None
            for basis in _bases(rho.dim):
                assert dps_test(rho, basis) is None

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


# ---------------------------------------------------------------------------
# the rank-one certificate against the eigh rule it replaced


def eigh_oracle(rho):
    """The eigh rule: (p or None, [(quantity, tol)] it compared).

    rho is a DPS when its smallest eigenvalue is >= -SPECTRUM_TOL, every
    eigenvalue is within SPECTRUM_TOL of {(1-p)/D + p, (1-p)/D x(D-1)},
    and (D > 2) ||n*n - p n|| <= STAR_TOL; p is returned unclamped.
    """
    m = measure_dps(rho)
    vals = np.linalg.eigh(rho.matrix)[0]
    deviation = float(np.max(np.abs(vals - _dps_spectrum(rho.dim, m.p))))
    compared = [(-float(vals[0]), SPECTRUM_TOL), (deviation, SPECTRUM_TOL)]
    if m.star_residual is not None:
        compared.append((m.star_residual, STAR_TOL))
    return (m.p if all(x <= tol for x, tol in compared) else None), compared


def near_tolerance_edge(rho) -> bool:
    """Some quantity either rule compares lies within a factor 100 of its tolerance."""
    m = measure_dps(rho)
    _, compared = eigh_oracle(rho)
    ratios = [x / tol for x, tol in compared]
    ratios += [m.certificate / SPECTRUM_TOL, (p_min(rho.dim) - m.p) / SPECTRUM_TOL, (m.p - 1.0) / SPECTRUM_TOL]
    return any(1e-2 <= r <= 1e2 for r in ratios)


def corpus_state(kind: str, D: int, t: float, rng) -> DensityMatrix:
    if kind == "dps+":
        return random_dps(D, rng, p=t).to_matrix()
    if kind == "dps-":
        return random_dps(D, rng, p=t * p_min(D)).to_matrix()
    if kind == "wishart":
        return random_mixed(D, rng)
    if kind == "rank1":
        return random_mixed(D, rng, rank=1)
    return random_non_dps(D, rng)


@settings(max_examples=200, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=16),
    kind=st.sampled_from(("dps+", "dps-", "wishart", "rank1", "mixture")),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_verdict_matches_eigh_oracle(D, kind, t, seed):
    rho = corpus_state(kind, D, t, rng_for(31, seed))
    assume(not near_tolerance_edge(rho))
    want, _ = eigh_oracle(rho)
    got = measure_dps(rho).verdict()
    assert (got is None) == (want is None)
    if got is not None:
        assert abs(got - want) <= 1e-12


def dps_matrix(D: int, p: float, seed: int) -> DensityMatrix:
    """(1-p)/D 1 + p vv^dag as given, p outside the DPS range included."""
    v = haar_state(D, rng_for(32, seed))
    return DensityMatrix((1.0 - p) / D * np.eye(D) + p * np.outer(v, v.conj()))


class TestVerdictEdges:
    @pytest.mark.parametrize("tol", [math.nan, -1e-3, math.inf])
    @pytest.mark.parametrize("which", ["tol_star", "tol_spectrum"])
    def test_rejects_a_tolerance_that_is_not_finite_and_at_least_0(self, which, tol):
        # a negative tol_star used to call an exact DPS not a DPS
        m = measure_dps(dps_matrix(3, 0.5, 3))
        with pytest.raises(DomainError, match=f"{which} must be finite and >= 0"):
            m.verdict(**{which: tol})

    @pytest.mark.parametrize("D", [2, 3, 4, 7])
    def test_pure(self, D):
        rho = dps_matrix(D, 1.0, D)
        got = measure_dps(rho).verdict()
        assert abs(got - 1.0) <= 1e-12 and got <= 1.0
        assert abs(got - eigh_oracle(rho)[0]) <= 1e-12
        assert measure_dps(rho).state().p == got

    @pytest.mark.parametrize("D", [3, 4, 6, 7])
    def test_at_p_min(self, D):
        # fl(p_min): at D = 4, 6 and 7, -1/(D-1) is not a float
        rho = dps_matrix(D, p_min(D), D)
        got = measure_dps(rho).verdict()
        assert abs(got - p_min(D)) <= 1e-12 and got >= p_min(D)
        assert abs(got - eigh_oracle(rho)[0]) <= 1e-12
        assert measure_dps(rho).state().p == got

    @pytest.mark.parametrize("D,p,want", [(4, 1.0 + 5e-9, 1.0), (4, p_min(4) - 5e-9, p_min(4)), (2, 1.0 + 5e-9, 1.0)])
    def test_verdict_is_clamped_into_range(self, D, p, want):
        # p within SPECTRUM_TOL outside [p_min, 1]: accepted, and the p
        # returned is one that make_dps, state() and schmidt_dps accept
        rho = dps_matrix(D, p, 1)
        assert measure_dps(rho).verdict() == want
        assert dps_test(rho) == want
        assert measure_dps(rho).state().p == want
        if D == 4:
            got_p, _ = schmidt_dps(rho, 2, 2)
            assert got_p == want


@pytest.mark.parametrize("D", [2, 3, 8, 64])
def test_identification_makes_no_eigensolve(D, monkeypatch):
    rng = rng_for(34, D)
    dps = random_dps(D, rng, p=0.4)
    rho, mixed = dps.to_matrix(), random_mixed(D, rng)

    def refuse(*args, **kwargs):
        raise AssertionError("identification made an eigensolve")

    for name in ("eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert dps_test(rho) == pytest.approx(0.4, abs=1e-10)
    assert measure_dps(rho).verdict() == pytest.approx(0.4, abs=1e-10)
    got = measure_dps(rho).state()
    assert abs(abs(np.vdot(got.pure, dps.pure)) - 1.0) <= 1e-12
    if D > 2:  # at D = 2 every state is a DPS
        assert dps_test(mixed) is None
    if D in (8, 64):  # schmidt_pure's SVD is the one factorization
        dA = 2 if D == 8 else 8
        p, _ = schmidt_dps(rho, dA, D // dA)
        assert p == pytest.approx(0.4, abs=1e-10)
