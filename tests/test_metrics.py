import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dpstates import (
    ChiState,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    FOutOfRangeError,
    InequalityViolationError,
    InvalidDimensionError,
    KrausChannel,
    NonUnitVectorError,
    NotPSDError,
    PolarizationOutOfRangeError,
    chi_from_beta2,
    distance_arrays,
    distance_report,
    fidelity_closed,
    fidelity_oracle,
    haar_state,
    make_dps,
    moment_montecarlo,
    p_min,
    p_min_cp,
    pdps_recipe,
    protocol1,
    pure_overlap,
    random_channel,
    schmidt_pure,
    trace_distance_closed,
    trace_distance_oracle,
    twirl,
)

from dpstates import metrics
from conftest import count_solver_calls, random_dps, random_mixed, rng_for


def test_p_bounds():
    assert p_min(2) == pytest.approx(-1.0)
    assert p_min(9) == pytest.approx(-1.0 / 8.0)
    assert p_min_cp(9) == pytest.approx(-1.0 / 80.0)


class TestMakeDps:
    def test_spectrum_pattern(self):
        rng = rng_for(30)
        dps = random_dps(5, rng, p=0.3)
        vals = dps.spectrum()
        expect = np.sort(np.concatenate([np.full(4, 0.7 / 5.0), [0.7 / 5.0 + 0.3]]))
        assert np.max(np.abs(vals - expect)) < 1e-12
        assert np.max(np.abs(np.linalg.eigvalsh(dps.to_matrix().matrix) - expect)) < 1e-12

    def test_rejects_non_unit_vector(self):
        with pytest.raises(NonUnitVectorError):
            make_dps(np.array([1.0, 1.0]), 0.5)

    def test_rejects_p_out_of_range(self):
        v = np.array([1.0, 0.0, 0.0])
        with pytest.raises(PolarizationOutOfRangeError):
            make_dps(v, 1.0 + 1e-9)
        with pytest.raises(PolarizationOutOfRangeError):
            make_dps(v, p_min(3) - 1e-9)

    def test_clamps_roundoff_overshoot(self):
        v = np.array([1.0, 0.0])
        assert make_dps(v, 1.0 + 1e-13).p == 1.0

    def test_purity(self):
        dps = make_dps(np.array([1.0, 0.0, 0.0, 0.0]), -0.2)
        assert dps.to_matrix().purity() == pytest.approx(0.25 + 0.75 * 0.04)


@pytest.mark.seed_sweep  # it draws norms within 1e-12 of 1 at every p
@settings(max_examples=40, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=6),
    norm=st.floats(min_value=1.0 - 1e-12, max_value=1.0 + 1e-12),
    t=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(D=3, norm=1.0 + 0.9e-12, t=1.0, seed=0)
@example(D=2, norm=1.0 - 0.9e-12, t=0.0, seed=0)
def test_every_accepted_purification_builds_its_matrix(D, norm, t, seed):
    # make_dps accepts ||psi|| within 1e-12 of 1; with psi's own projector the trace
    # (1-p) + p ||psi||^2 of the matrix missed 1 by up to 2e-12 at |p| = 1
    v = norm * haar_state(D, rng_for(31, seed))
    try:
        state = make_dps(v, p_min(D) + t * (1.0 - p_min(D)))
    except NonUnitVectorError:
        assume(False)
    assert np.array_equal(state.pure, v)  # kept as given
    rho = state.to_matrix()
    assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
    assert np.max(np.abs(np.linalg.eigvalsh(rho.matrix) - state.spectrum())) <= 1e-12


NON_FINITE_ENTRY_POINTS = {
    "make_dps": lambda v: make_dps(v, 0.5),
    "schmidt_pure": lambda v: schmidt_pure(v, 2, 2),
    "protocol1": lambda v: protocol1(v, chi_from_beta2(4, 0.5)),
    "pdps_recipe": lambda v: pdps_recipe(v, 0.5, seed=1, trials=10),
    "ChiState": lambda v: ChiState(4, v[0], v[1]),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan), 1e200, complex(1e200, -1e200)])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
def test_non_finite_purification_is_not_unit(entry, bad):
    # NaN compares false with everything, so a norm check must fail it; 1e200 overflows the norm to inf
    v = np.array([bad, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(NonUnitVectorError):
        NON_FINITE_ENTRY_POINTS[entry](v)


@pytest.mark.parametrize(
    "bad", [math.nan, -math.inf, complex(0.0, -math.inf), 1e200, complex(1e200, -1e200)]
)
def test_unit_vector_refuses_non_finite_and_overflowing_entries(bad):
    # the norm is sqrt(<v, v>): NaN and inf fail the unit check, and
    # 1e200 overflows <v, v> to inf without a warning
    with pytest.raises(NonUnitVectorError):
        metrics._unit_vector(np.array([bad, 0.0, 0.0], dtype=complex))


SLACK = metrics.RANGE_SLACK


@pytest.mark.parametrize(
    "x",
    [
        -0.25 - SLACK,
        np.nextafter(-0.25 - SLACK, -math.inf),
        -0.25 - SLACK / 2,
        -0.25,
        0.3,
        1.0,
        1.0 + SLACK / 2,
        1.0 + SLACK,
        np.nextafter(1.0 + SLACK, math.inf),
        math.nan,
        math.inf,
        -math.inf,
        np.float64(1.0 + SLACK / 2),
        np.float64(math.nan),
        np.int64(0),
        np.int64(2),
        True,
        False,
    ],
)
def test_in_range_scalar_route_matches_array_route(x):
    # a scalar skips the array machinery; it must get the array's clamped
    # value, bit for bit, or the same refusal with the same message
    def outcome(v):
        try:
            return metrics._in_range(v, -0.25, 1.0, PolarizationOutOfRangeError, "p")
        except DomainError as exc:
            return type(exc), str(exc)

    scalar, array = outcome(x), outcome(np.array([x], dtype=float))
    if isinstance(array, tuple):
        assert scalar == array
    else:
        assert type(scalar) is float and scalar.hex() == float(array[0]).hex()


def test_pure_overlap():
    a = make_dps(np.array([1.0, 0.0]), 0.5)
    b = make_dps(np.array([1.0, 1.0]) / math.sqrt(2.0), 0.5)
    assert pure_overlap(a, b) == pytest.approx(0.5, abs=1e-14)


class TestFidelity:
    def test_identical_states(self):
        dps = random_dps(4, rng_for(31), p=0.6)
        assert fidelity_closed(dps, dps) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_spot(self):
        rng = rng_for(32)
        for D in (2, 3, 7):
            a, b = random_dps(D, rng), random_dps(D, rng)
            closed = fidelity_closed(a, b)
            oracle = fidelity_oracle(a.to_matrix(), b.to_matrix())
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_symmetry(self):
        rng = rng_for(33)
        a, b = random_dps(5, rng), random_dps(5, rng)
        assert fidelity_closed(a, b) == pytest.approx(fidelity_closed(b, a), abs=1e-12)

    def test_pure_pure_is_overlap(self):
        rng = rng_for(34)
        a, b = random_dps(4, rng, p=1.0), random_dps(4, rng, p=1.0)
        assert fidelity_closed(a, b) == pytest.approx(pure_overlap(a, b), abs=1e-12)

    def test_oracle_on_commuting_diagonals(self):
        from dpstates import DensityMatrix

        rho = DensityMatrix(np.diag([0.7, 0.3]))
        sigma = DensityMatrix(np.diag([0.4, 0.6]))
        expect = (math.sqrt(0.7 * 0.4) + math.sqrt(0.3 * 0.6)) ** 2
        assert fidelity_oracle(rho, sigma) == pytest.approx(expect, abs=1e-12)

    def test_oracle_refuses_an_indefinite_sigma(self):
        # sigma is Hermitian with unit trace, so a DensityMatrix, but not positive:
        # at rho = 1/3 the inner matrix sqrt(rho) sigma sqrt(rho) is sigma / 3
        rho = DensityMatrix(np.eye(3) / 3.0)
        sigma = DensityMatrix(np.diag([0.8, 0.4, -0.2]))
        with pytest.raises(NotPSDError, match="inner matrix eigenvalue -6.667e-02 below -1e-10"):
            fidelity_oracle(rho, sigma)


    def test_oracle_makes_one_eigh_and_one_eigvalsh(self, monkeypatch):
        # rho's eigen-factor W gives the inner matrix W^dag sigma W; sqrt(rho) is never formed
        rng = rng_for(36)
        rho, sigma = random_mixed(5, rng), random_mixed(5, rng)
        calls = count_solver_calls(monkeypatch)
        fidelity_oracle(rho, sigma)
        assert calls == {"eigh": 1, "eigvalsh": 1}


class TestTraceDistance:
    def test_identical_states(self):
        dps = random_dps(3, rng_for(35), p=-0.2)
        assert trace_distance_closed(dps, dps) == pytest.approx(0.0, abs=1e-14)

    def test_matches_oracle_spot(self):
        rng = rng_for(36)
        for D in (2, 4, 9):
            a, b = random_dps(D, rng), random_dps(D, rng)
            closed = trace_distance_closed(a, b)
            oracle = trace_distance_oracle(a.to_matrix(), b.to_matrix())
            assert closed == pytest.approx(oracle, abs=1e-10)

    def test_equal_p_reduction(self):
        # at p = q the distance is |p| sqrt(1-f); the (1-f)|p| form
        # holds only at f in {0, 1}
        rng = rng_for(37)
        for D in (3, 9):
            for p in (-1.0 / (D * D - 1.0), 0.37):
                a, b = random_dps(D, rng, p=p), random_dps(D, rng, p=p)
                f = pure_overlap(a, b)
                closed = trace_distance_closed(a, b)
                assert closed == pytest.approx(abs(p) * math.sqrt(1.0 - f), abs=1e-12)
                assert closed == pytest.approx(
                    trace_distance_oracle(a.to_matrix(), b.to_matrix()), abs=1e-12
                )

    def test_same_purification_different_p(self):
        # commuting pair: distance is classical, (D-1)/D |p-q| for f=1
        rng = rng_for(38)
        D = 5
        psi = random_dps(D, rng, p=1.0).pure
        a, b = make_dps(psi, 0.8), make_dps(psi, -0.1)
        closed = trace_distance_closed(a, b)
        assert closed == pytest.approx((D - 1) / D * 0.9, abs=1e-12)


def dps_factor(dps) -> np.ndarray:
    """A with A A^dag = rho for a DPS, built from (psi, p) with no eigensolve.

    A = U diag(sqrt(lambda)) with lambda = ((1 + (D-1)p)/D, (1-p)/D, ...)
    and U the Householder reflector I - 2 u u^dag / (u^dag u), u = e_0 + w,
    which maps e_0 to -w, where w is psi with its first entry made real
    and nonnegative: psi up to phase.  u_0 >= 1, so nothing cancels.

    The top eigenvalue is written as the closed form writes it.  At
    D = 6 and 7, fl(-1/(D-1)) is not -1/(D-1), and there 1 + (D-1)p
    rounds to 0 while (1-p)/D + p gives -+2.8e-17; F is sqrt-conditioned
    at a singular state, so the two roundings of one spectrum move it
    by ~4e-9.
    """
    D, v = dps.dim, np.asarray(dps.pure, dtype=complex)
    w = v * (np.conj(v[0]) / abs(v[0]) if v[0] != 0 else 1.0)
    u = w.copy()
    u[0] += 1.0
    U = np.eye(D) - (2.0 / np.vdot(u, u).real) * np.outer(u, u.conj())
    lam = np.array([((D - 1.0) * dps.p + 1.0) / D] + [(1.0 - dps.p) / D] * (D - 1))
    return U * np.sqrt(np.maximum(lam, 0.0))


def factored_fidelity(a, b) -> float:
    """Uhlmann's F = ||A^dag B||_1^2 over the factors rho = A A^dag, sigma = B B^dag."""
    return float(np.linalg.svd(dps_factor(a).conj().T @ dps_factor(b), compute_uv=False).sum() ** 2)


@pytest.mark.seed_sweep  # it once failed on 2 of 20 seeds; each seed draws other edge cases
@settings(max_examples=30, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=7),
    tp=st.floats(min_value=0.0, max_value=1.0),
    tq=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_closed_forms_match_oracles(D, tp, tq, seed):
    # a DPS is singular at both ends of its range, p = p_min and p = 1,
    # and there the Uhlmann oracle takes roots of roundoff eigenvalues and
    # is off by ~sqrt(eps); within 1e-6 of either end the closed fidelity
    # is held to the factored oracle at 1e-12, elsewhere to the Uhlmann
    # oracle at 1e-9
    rng = rng_for(39, seed)
    p = p_min(D) + tp * (1.0 - p_min(D))
    q = p_min(D) + tq * (1.0 - p_min(D))
    a, b = random_dps(D, rng, p=p), random_dps(D, rng, p=q)
    if min(tp, tq) > 1e-6 and max(tp, tq) < 1.0 - 1e-6:
        assert fidelity_closed(a, b) == pytest.approx(
            fidelity_oracle(a.to_matrix(), b.to_matrix()), abs=1e-9
        )
    else:
        assert fidelity_closed(a, b) == pytest.approx(factored_fidelity(a, b), abs=1e-12)
    assert trace_distance_closed(a, b) == pytest.approx(
        trace_distance_oracle(a.to_matrix(), b.to_matrix()), abs=1e-9
    )


@pytest.mark.seed_sweep  # it draws norms within 1e-12 of 1 at every p, for the pairs (psi, psi) and (psi, phi)
@settings(max_examples=40, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=6),
    norm_a=st.floats(min_value=1.0 - 1e-12, max_value=1.0 + 1e-12),
    norm_b=st.floats(min_value=1.0 - 1e-12, max_value=1.0 + 1e-12),
    tp=st.floats(min_value=0.0, max_value=1.0),
    tq=st.floats(min_value=0.0, max_value=1.0),
    same=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(D=3, norm_a=1.0 + 0.9e-12, norm_b=1.0 + 0.9e-12, tp=1.0, tq=1.0, same=True, seed=0)
def test_closed_forms_hold_for_every_accepted_purification(D, norm_a, norm_b, tp, tq, same, seed):
    # make_dps accepts ||psi|| within 1e-12 of 1; the overlap of the purifications as
    # given reached 1 + 3.6e-12 for (psi, psi), and the closed forms refused it as a bug
    rng = rng_for(44, seed)
    psi = norm_a * haar_state(D, rng)
    phi = psi if same else norm_b * haar_state(D, rng)
    p = p_min(D) + tp * (1.0 - p_min(D))
    q = p_min(D) + tq * (1.0 - p_min(D))
    try:
        a, b = make_dps(psi, p), make_dps(phi, q)
    except NonUnitVectorError:
        assume(False)
    rep = distance_report(a, b)
    rho, sigma = a.to_matrix(), b.to_matrix()
    # the tolerances of test_closed_forms_match_oracles; the factored oracle reads unit purifications
    if min(tp, tq) > 1e-6 and max(tp, tq) < 1.0 - 1e-6:
        assert fidelity_closed(a, b) == pytest.approx(fidelity_oracle(rho, sigma), abs=1e-9)
    else:
        unit = (make_dps(s.pure / np.linalg.norm(s.pure), s.p) for s in (a, b))
        assert fidelity_closed(a, b) == pytest.approx(factored_fidelity(*unit), abs=1e-12)
    assert trace_distance_closed(a, b) == pytest.approx(trace_distance_oracle(rho, sigma), abs=1e-9)
    assert (rep.fidelity, rep.trace_distance) == (fidelity_closed(a, b), trace_distance_closed(a, b))


@pytest.mark.seed_sweep  # it draws the rays, phases and offsets at which 1 - f sits at roundoff
@settings(max_examples=40, deadline=None)
@given(
    D=st.sampled_from([3, 8, 50]),
    tp=st.floats(min_value=0.0, max_value=1.0),
    tq=st.floats(min_value=0.0, max_value=1.0),
    same_p=st.booleans(),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    offset=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(D=3, tp=0.0, tq=0.0, same_p=True, theta=0.3, offset=0.0, seed=0)
def test_trace_distance_holds_on_one_ray_and_near_it(D, tp, tq, same_p, theta, offset, seed):
    # phi = e^{i theta} psi puts f an ulp below 1, and T = |p| sqrt(1 - f) at p = q read
    # ~1e-8 from f alone; phi a small offset from that ray is the nearly-same-ray case
    rng = rng_for(45, seed)
    psi = haar_state(D, rng)
    phi = np.exp(1j * theta) * psi + offset * haar_state(D, rng)
    p = p_min(D) + tp * (1.0 - p_min(D))
    q = p if same_p else p_min(D) + tq * (1.0 - p_min(D))
    a, b = make_dps(psi, p), make_dps(phi / np.linalg.norm(phi), q)
    oracle = trace_distance_oracle(a.to_matrix(), b.to_matrix())
    assert trace_distance_closed(a, b) == pytest.approx(oracle, abs=1e-9)
    assert distance_report(a, b).trace_distance == trace_distance_closed(a, b)


@settings(max_examples=30, deadline=None)
@given(
    D=st.integers(min_value=2, max_value=7),
    tp=st.floats(min_value=0.0, max_value=1.0),
    tq=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fidelity_closed_matches_factored_oracle(D, tp, tq, seed):
    # the factored oracle never takes the root of a singular matrix, so
    # 1e-12 holds at both edges, where fidelity_oracle is off by ~sqrt(eps)
    rng = rng_for(39, seed)
    p = p_min(D) + tp * (1.0 - p_min(D))
    q = p_min(D) + tq * (1.0 - p_min(D))
    a, b = random_dps(D, rng, p=p), random_dps(D, rng, p=q)
    assert fidelity_closed(a, b) == pytest.approx(factored_fidelity(a, b), abs=1e-12), (a.p, b.p)


@pytest.mark.parametrize("D", [2, 3, 8, 16, 64])
def test_fidelity_closed_matches_factored_oracle_on_a_grid(D):
    # both edges of the square, p_min and 1, and the interior between them
    ps = p_min(D) + np.linspace(0.0, 1.0, 9) * (1.0 - p_min(D))
    rng = rng_for(47, D)
    for p in ps:
        for q in ps:
            a, b = random_dps(D, rng, p=float(p)), random_dps(D, rng, p=float(q))
            assert fidelity_closed(a, b) == pytest.approx(factored_fidelity(a, b), abs=1e-12), (p, q)


def test_dps_factor_reproduces_the_state():
    rng = rng_for(48)
    for D in (2, 5, 16):
        for p in (p_min(D), 0.0, 0.3, 1.0):
            dps = random_dps(D, rng, p=p)
            A = dps_factor(dps)
            assert np.max(np.abs(A @ A.conj().T - dps.to_matrix().matrix)) < 1e-15


def mp_fidelity(rho, sigma):
    """Uhlmann fidelity of two mpmath matrices by mp.eigh, at the working precision."""
    vals, vecs = mpmath.eigh(rho)
    root = vecs * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in vals]) * vecs.H
    inner = mpmath.eigh(root * sigma * root, eigvals_only=True)
    return mpmath.fsum(mpmath.sqrt(max(x, 0)) for x in inner) ** 2


def extended_precision_distances(a, b) -> tuple[float, float]:
    """Uhlmann fidelity and trace distance of two DPS at 40 digits, built from (psi, p).

    Each psi is normalized in mpmath first: a 1e-16 norm defect alone
    moves F by 1e-8 at a singular state.  No float matrix is formed, so
    the rounding of its entries, which moves F by ~1e-9 near a singular
    edge, never enters.
    """
    with mpmath.workdps(40):
        D = a.dim

        def state(dps):
            v = mpmath.matrix([mpmath.mpc(complex(x)) for x in dps.pure])
            v /= mpmath.norm(v)
            p = mpmath.mpf(dps.p)
            return (1 - p) / D * mpmath.eye(D) + p * (v * v.H)

        rho, sigma = state(a), state(b)
        fidelity = mp_fidelity(rho, sigma)
        distance = mpmath.fsum(abs(x) for x in mpmath.eigh(rho - sigma, eigvals_only=True)) / 2
        return float(fidelity), float(distance)


def assert_closed_forms_match_extended_precision(a, b):
    fidelity, distance = extended_precision_distances(a, b)
    assert fidelity_closed(a, b) == pytest.approx(fidelity, abs=1e-12), (a.p, b.p)
    assert trace_distance_closed(a, b) == pytest.approx(distance, abs=1e-12), (a.p, b.p)


def edge_pairs(D: int):
    """Random DPS pairs, each with a singular or pure edge on at least one side.

    p_min itself only where -1/(D-1) is an exact float: at D = 4 and 7,
    fl(p_min) makes (D-1)p + 1 round to 0 while the state's smallest
    eigenvalue is ~1e-17, and F, sqrt-conditioned there, moves by ~3e-9
    with the input.
    """
    edges = [p_min(D) + 1e-9, 1.0 - 2.0**-52, 1.0] + ([p_min(D)] if D in (2, 3, 5) else [])
    values = edges + [p_min(D) / 2.0, 0.0, 0.5]
    rng = rng_for(44, D)
    for p in values:
        for q in values:
            if p in edges or q in edges:
                yield random_dps(D, rng, p=p), random_dps(D, rng, p=q)


def nearly_orthogonal_pairs(D: int):
    """Singular pairs at p = q = p_min with psi = e_0 and phi ~ e_1 + eps e_0.

    f ~ eps^2 runs down to 1e-17, where sqrt(F) moves with sqrt(f).
    At D = 3 and 5 only, where p_min is an exact float and D > 2.  Not for
    the float-matrix oracle, which is off by 3.7e-8 at D = 5 and eps = 1e-7.
    """
    if D not in (3, 5):
        return
    e = np.eye(D)
    for eps in (3.2e-9, 1e-8, 1e-7):
        phi = e[1] + eps * e[0]
        yield make_dps(e[0], p_min(D)), make_dps(phi / np.linalg.norm(phi), p_min(D))


@pytest.mark.parametrize("D", [2, 3, 4, 5, 7])
def test_closed_forms_match_extended_precision(D):
    for a, b in [*edge_pairs(D), *nearly_orthogonal_pairs(D)]:
        assert_closed_forms_match_extended_precision(a, b)


# the oracle's own error on a singular state: _psd_roots zeroes eigenvalues
# at the roundoff level D eps, whose roots would count ~sqrt(eps) toward F
ORACLE_OWN_TOL = 2.0 * math.sqrt(np.finfo(float).eps)


@pytest.mark.parametrize("D", [2, 3, 4, 5, 7])
def test_fidelity_oracle_matches_extended_precision_of_its_input(D):
    # the 40-digit reference reads the same float matrices as the oracle,
    # so the rounding of the input cancels and only the oracle's algorithm
    # is measured (worst on this grid: 1.3e-8, at D = 2 with p = 0 and q = -1,
    # where sqrt(rho) sigma sqrt(rho) has rank one)
    for a, b in edge_pairs(D):
        rho, sigma = a.to_matrix(), b.to_matrix()
        with mpmath.workdps(40):
            exact = mp_fidelity(mpmath.matrix(rho.matrix.tolist()), mpmath.matrix(sigma.matrix.tolist()))
        assert fidelity_oracle(rho, sigma) == pytest.approx(float(exact), abs=ORACLE_OWN_TOL), (a.p, b.p)


@pytest.mark.parametrize("seed", range(5))
def test_fidelity_flake_input_matches_extended_precision(seed):
    # the input on which test_closed_forms_match_oracles fails now and then:
    # closed form 0.5000000105, float-matrix oracle 0.5
    rng = rng_for(45, seed)
    a, b = random_dps(2, rng, p=0.0), random_dps(2, rng, p=1.0 - 2.0**-52)
    assert_closed_forms_match_extended_precision(a, b)


class TestDistanceReport:
    def test_fields_are_consistent(self):
        rng = rng_for(40)
        a, b = random_dps(6, rng), random_dps(6, rng)
        rep = distance_report(a, b)
        assert rep.bures == pytest.approx(math.sqrt(2.0 - 2.0 * math.sqrt(rep.fidelity)), abs=1e-12)
        assert rep.angle == pytest.approx(math.acos(math.sqrt(rep.fidelity)), abs=1e-12)

    def test_fuchs_chain_holds(self):
        rng = rng_for(41)
        for _ in range(20):
            a, b = random_dps(4, rng), random_dps(4, rng)
            rep = distance_report(a, b)
            assert rep.bures**2 / 2.0 <= rep.trace_distance + 1e-9
            assert rep.trace_distance <= math.sqrt(1.0 - rep.fidelity) + 1e-9

    def test_dimension_mismatch_raises(self):
        rng = rng_for(42)
        with pytest.raises(DimensionMismatchError):
            fidelity_closed(random_dps(2, rng), random_dps(3, rng))
        with pytest.raises(DimensionMismatchError):
            trace_distance_oracle(random_mixed(2, rng), random_mixed(3, rng))


def test_bures_from_fidelity_floats_and_arrays_agree():
    # one helper serves the closed-form reports and the CLI's oracle report
    F = np.linspace(0.0, 1.0, 101)
    bures, angle = metrics.bures_from_fidelity(F)
    for i, x in enumerate(F.tolist()):
        b, a = metrics.bures_from_fidelity(x)
        assert b == bures[i] and a == angle[i]
        assert b == math.sqrt(max(2.0 - 2.0 * math.sqrt(x), 0.0))
        assert a == math.acos(min(max(math.sqrt(x), 0.0), 1.0))


def test_clip_guards_against_silent_violations():
    # the clip helper converts out-of-range intermediates into a loud
    # internal failure instead of quietly saturating
    from dpstates.metrics import _clip

    assert _clip(1.0 + 1e-13, "x") == 1.0
    with pytest.raises(InequalityViolationError):
        _clip(1.1, "x")
    with pytest.raises(InequalityViolationError):
        _clip(math.nan, "x")


def overlap_pair(D, p, q, f):
    """make_dps states e0 (at p) and sqrt(f) e0 + sqrt(1-f) e1 (at q)."""
    e0, e1 = np.eye(D)[0], np.eye(D)[1]
    return make_dps(e0, p), make_dps(math.sqrt(f) * e0 + math.sqrt(1.0 - f) * e1, q)


class TestDistanceArrays:
    @pytest.mark.parametrize("D", [2, 3, 5, 9])
    def test_bitwise_equal_to_per_pair_report(self, D):
        ps = np.concatenate([[p_min(D), p_min_cp(D), 0.0, 1.0], np.linspace(p_min(D), 1.0, 7)])
        fs = np.concatenate([[0.0, 1.0, 1e-15, 1.0 - 1e-15], np.linspace(0.0, 1.0, 6)])
        P, Q, F = (x.ravel() for x in np.meshgrid(ps, ps, fs, indexing="ij"))
        pairs = [overlap_pair(D, p, q, f) for p, q, f in zip(P, Q, F)]
        overlaps = np.array([pure_overlap(a, b) for a, b in pairs])
        reports = [distance_report(a, b) for a, b in pairs]
        got = distance_arrays(D, P, Q, overlaps)
        for field in ("fidelity", "trace_distance", "bures", "angle"):
            want = np.array([getattr(r, field) for r in reports])
            if field == "trace_distance":
                # above f = 1/2 the per-pair T reads 1 - f off the purifications, the arrays'
                # from f, where an ulp of f moves sqrt(1 - f) by up to sqrt(eps)
                near = overlaps > 0.5
                assert np.abs(got.trace_distance[near] - want[near]).max() <= math.sqrt(4.0 * np.finfo(float).eps)
                got_field, want = got.trace_distance[~near], want[~near]
            else:
                got_field = getattr(got, field)
            assert np.array_equal(got_field.view(np.uint64), want.view(np.uint64)), field

    @pytest.mark.parametrize("D", [2, 3, 5])
    def test_matches_oracles(self, D):
        # tolerances of test_closed_forms_match_oracles: 1e-9, and 1e-7 for
        # the Uhlmann oracle within 1e-6 of the singular end p = p_min
        rng = rng_for(43, D)
        t = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 30)])
        p = p_min(D) + t * (1.0 - p_min(D))
        q = p_min(D) + rng.permutation(t) * (1.0 - p_min(D))
        pairs = [(random_dps(D, rng, p=a), random_dps(D, rng, p=b)) for a, b in zip(p, q)]
        rep = distance_arrays(D, p, q, [pure_overlap(a, b) for a, b in pairs])
        for i, (a, b) in enumerate(pairs):
            tol = 1e-9 if min(p[i], q[i]) - p_min(D) > 1e-6 * (1.0 - p_min(D)) else 1e-7
            rho, sigma = a.to_matrix(), b.to_matrix()
            assert rep.fidelity[i] == pytest.approx(fidelity_oracle(rho, sigma), abs=tol)
            assert rep.trace_distance[i] == pytest.approx(trace_distance_oracle(rho, sigma), abs=1e-9)

    def test_broadcasts_and_keeps_scalar_inputs_arrays(self):
        rep = distance_arrays(4, np.array([[0.1], [0.5]]), 0.3, np.linspace(0.0, 1.0, 3))
        assert rep.fidelity.shape == rep.angle.shape == (2, 3)
        assert distance_arrays(4, 0.1, 0.3, 0.5).bures.shape == (1,)

    @pytest.mark.parametrize(
        "p, q, f, error",
        [
            ([0.2, p_min(5) - 1e-9, 0.4], 0.3, 0.5, PolarizationOutOfRangeError),
            (0.3, [0.2, 1.0 + 1e-9], 0.5, PolarizationOutOfRangeError),
            ([0.2, math.nan, 0.4], 0.3, 0.5, PolarizationOutOfRangeError),
            (0.3, 0.2, [0.5, math.nan], FOutOfRangeError),
            (0.3, 0.2, [0.5, 1.0 + 1e-9], FOutOfRangeError),
            (0.3, 0.2, [-1e-9, 0.5], FOutOfRangeError),
        ],
    )
    def test_one_bad_element_raises(self, p, q, f, error):
        with pytest.raises(error):
            distance_arrays(5, p, q, f)

    def test_clamps_range_roundoff_like_make_dps(self):
        pairs = [overlap_pair(3, p, 0.5, 0.5) for p in (1.0, p_min(3))]
        got = distance_arrays(3, [1.0 + 1e-13, p_min(3) - 1e-13], 0.5, pure_overlap(*pairs[0]))
        assert got.fidelity.tolist() == [distance_report(a, b).fidelity for a, b in pairs]

    def test_rejects_dimension_below_two(self):
        with pytest.raises(InvalidDimensionError):
            distance_arrays(1, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize(
        "kernel, breaks",
        [
            # T = 0 for distinct states falls below B^2/2: the chain check fires
            ("_trace_distance", lambda T, f: T * ((f < 0.4) | (f > 0.6))),
            # F past 1 + slack: the range check fires
            ("_fidelity", lambda F, f: F + 0.5 * ((f > 0.4) & (f < 0.6))),
        ],
    )
    def test_checks_run_per_element(self, monkeypatch, kernel, breaks):
        exact = getattr(metrics, kernel)
        # the per-pair trace distance also passes g = 1 - f above f = 1/2
        monkeypatch.setattr(metrics, kernel, lambda D, p, q, f, *g: breaks(exact(D, p, q, f, *g), f))
        assert distance_arrays(4, 0.5, 0.5, [0.0, 0.3, 0.8, 1.0]).fidelity.shape == (4,)
        with pytest.raises(InequalityViolationError):
            distance_arrays(4, 0.5, 0.5, [0.0, 0.3, 0.5, 0.8, 1.0])
        with pytest.raises(InequalityViolationError):
            distance_report(*overlap_pair(4, 0.5, 0.5, 0.5))


# every Monte-Carlo entry point draws from linalg._seeded_rng
SEED_TAKERS = {
    "pdps_recipe": lambda seed: pdps_recipe([1.0, 0.0], 0.5, seed, 4),
    "moment_montecarlo": lambda seed: moment_montecarlo(DensityMatrix(np.eye(2) / 2.0), 2, 10, seed),
    "random_channel": lambda seed: random_channel(2, 2, seed),
    "twirl": lambda seed: twirl(KrausChannel(2, [np.eye(2)]), mode="haar-sample", samples=4, seed=seed),
}


@pytest.mark.parametrize("seed", [None, -1, 1.5])
@pytest.mark.parametrize("name", SEED_TAKERS)
def test_seed_must_be_a_non_negative_integer(name, seed):
    with pytest.raises(DomainError):
        SEED_TAKERS[name](seed)


# every Monte-Carlo size (trials, samples, shots) is checked by linalg._require_count
COUNT_TAKERS = {
    "pdps_recipe": lambda n: pdps_recipe([1.0, 0.0], 0.5, 1, n),
    "moment_montecarlo": lambda n: moment_montecarlo(DensityMatrix(np.eye(2) / 2.0), 2, n, 1),
    "twirl": lambda n: twirl(KrausChannel(2, [np.eye(2)]), mode="haar-sample", samples=n, seed=1),
}


@pytest.mark.parametrize("count", [0, -3, 2.5, 10.5, 8000.0, True, np.bool_(True), None, "4"])
@pytest.mark.parametrize("name", COUNT_TAKERS)
def test_count_must_be_a_positive_integer(name, count):
    # neither 10.5 nor True is a count: a binomial draw would take them as 10 and 1
    with pytest.raises(DomainError):
        COUNT_TAKERS[name](count)


@pytest.mark.parametrize("count", [1, 3, np.int64(3), np.uint8(3)])
@pytest.mark.parametrize("name", COUNT_TAKERS)
def test_integer_counts_are_accepted(name, count):
    COUNT_TAKERS[name](count)
