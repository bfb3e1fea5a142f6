"""The api-calls workload: a seeded stream of single public dpstates calls.

Every call is timed on its own and checked against ``reference``.
Inputs are built once per run from the seed; a round makes the same
calls on them in the same order, so every run attempts whole rounds.
"""

from __future__ import annotations

import time

import numpy as np

import reference as ref
from reference import CheckError, close, expect

DIMS = (3, 4, 6, 8)
SPLITS = {4: (2, 2), 6: (2, 3), 8: (2, 4)}
CHARPOLY_SEEDED = (4, 8, 16)
# Fixed inputs, not drawn from the seed: Faddeev-LeVerrier loses
# coefficient signs at these sizes, so the counts are wrong on every run.
CHARPOLY_FIXED = (24, 32)
CHARPOLY_FAULT = "count_positive_charpoly: Faddeev-LeVerrier loses coefficient signs at n >= 24"
BLOCK_ROUNDS = 10  # rounds per percentile block: over 1000 calls, so ten lie beyond p99


def fill_caches(dp) -> None:
    """The program's one-time work: su(D) bases, protocol unitaries, Clifford groups."""
    for D in DIMS:
        dp.generate_basis(D)
        e0 = np.zeros(D, dtype=complex)
        e0[0] = 1.0
        dp.protocol1(e0, dp.chi_from_beta2(D, 0.5))
    for D in (2, 3):
        dp.clifford_group(D)


class Call:
    __slots__ = ("fn", "args", "check", "fault", "label")

    def __init__(self, fn: str, args: tuple, check, fault: str | None = None, size: int | None = None):
        self.fn, self.args, self.check, self.fault = fn, args, check, fault
        self.label = fn if size is None else f"{fn} n={size}"


def _item_calls(dp, D: int, rng: np.random.Generator, sign: float) -> list[Call]:
    """One dimension and sign of p: four states, all six distances, one of each other call."""
    signs = (sign, -sign, sign, -sign)
    psis = [ref.haar_vector(D, rng) for _ in signs]
    ps = [ref.positive_p(rng) if s > 0 else ref.negative_p(D, rng) for s in signs]
    mats = [ref.dps_matrix(v, p) for v, p in zip(psis, ps)]
    psi, phi, p = psis[0], psis[1], ps[0]
    A_np, B_np, N_np = mats[0], mats[1], ref.mixed_state(D, rng)
    A, B, N = dp.DensityMatrix(A_np), dp.DensityMatrix(B_np), dp.DensityMatrix(N_np)
    states = [dp.make_dps(v, p) for v, p in zip(psis, ps)]
    basis = dp.generate_basis(D)
    beta2 = float(rng.uniform(0.1, 1.0))
    chi = dp.chi_from_beta2(D, beta2)
    pd = float(rng.uniform(ref.p_min_cp(D), 1.0))
    t2, t3 = ref.moment(A_np, 2), ref.moment(A_np, 3)
    F, T = ref.fidelity(A_np, B_np), ref.trace_distance(A_np, B_np)

    def made(v, pv):
        def check(out):
            close("make_dps p", out.p, pv, 0.0)
            close("make_dps vector", out.pure, v, 0.0)
        return check

    def report(i, j):
        Fij, Tij = ref.fidelity(mats[i], mats[j]), ref.trace_distance(mats[i], mats[j])

        def check(out):
            close("closed fidelity", out.fidelity, Fij, 1e-8)
            close("closed trace distance", out.trace_distance, Tij, 1e-9)
        return check

    def depolarized(out):
        close("apply_depolarizing", out.state.matrix, ref.depolarize(A_np, pd), 1e-12)
        expect("CP flag", out.physically_realizable == (pd >= ref.p_min_cp(D) - 1e-12))

    def protocol(v):
        return lambda out: close("protocol1 output", out.matrix, ref.protocol_output(v, beta2), 1e-10)

    calls = [Call("make_dps", (v, pv), made(v, pv)) for v, pv in zip(psis, ps)]
    calls += [
        Call("distance_report", (states[i], states[j]), report(i, j))
        for i in range(len(states)) for j in range(i + 1, len(states))
    ]
    calls += [
        Call("dps_test", (A, basis), lambda out: close("dps_test p", out, p, 1e-8)),
        Call("dps_test", (N, basis), lambda out: expect(f"dps_test gave {out} for a mixed state", out is None)),
        Call("fidelity_oracle", (A, B), lambda out: close("fidelity oracle", out, F, 1e-8)),
        Call("trace_distance_oracle", (A, B), lambda out: close("trace distance oracle", out, T, 1e-9)),
    ]
    if D in SPLITS:
        dA, dB = SPLITS[D]
        s = ref.schmidt(psi, dA, dB)
        calls += [
            Call("schmidt_pure", (psi, dA, dB), lambda out: close("Schmidt coefficients", out.b, s, 1e-12)),
            Call("reduced_spectrum_dps", (p, s, dA),
                 lambda out: close("marginal A", out, ref.eigvalsh(ref.ptrace(A_np, dA, dB, "A")), 1e-12)),
            Call("reduced_spectrum_dps", (p, s, dB),
                 lambda out: close("marginal B", out, ref.eigvalsh(ref.ptrace(A_np, dA, dB, "B")), 1e-12)),
            Call("pt_spectrum_closed", (p, s, dA, dB),
                 lambda out: close("PT spectrum", out, ref.eigvalsh(ref.ptranspose_b(A_np, dA, dB)), 1e-12)),
            Call("negativity", (p, s, dA, dB), _negativity_check(A_np, dA, dB)),
        ]
    calls += [
        Call("moment_exact", (A, 2), lambda out: close("moment m=2", out.value, t2, 1e-12)),
        Call("moment_exact", (A, 3), lambda out: close("moment m=3", out.value, t3, 1e-12)),
        Call("moment_permutation", (A, 2), lambda out: close("permutation moment m=2", out.value, t2, 1e-12)),
        Call("moment_permutation", (A, 3), lambda out: close("permutation moment m=3", out.value, t3, 1e-12)),
        Call("dps_p_from_moments", (t2, t3, D), lambda out: close("p from moments", out[0], p, 1e-8)),
        Call("apply_depolarizing", (A, pd), depolarized),
        Call("protocol1", (psi, chi), protocol(psi)),
        Call("protocol1", (phi, chi), protocol(phi)),
    ]
    return calls


def _negativity_check(M, dA, dB):
    def check(out):
        neg, count = ref.negativity(M, dA, dB)
        close("negativity", out.negativity, neg, 1e-12)
        expect(f"negative count {out.negative_count} != {count}", out.negative_count == count)
    return check


def _count_check(expected: int):
    def check(out):
        expect(f"positive eigenvalue count {out} != {expected}", out == expected)
    return check


def build(dp, seed: int) -> list[Call]:
    """One round: two items per dimension (first state p > 0, then p < 0), then sign counts."""
    rng = np.random.default_rng([seed, 4])
    calls: list[Call] = []
    for D in DIMS:
        for sign in (1.0, -1.0):
            calls += _item_calls(dp, D, rng, sign)
    for n in CHARPOLY_SEEDED:
        H, k = ref.hermitian_with_signs(n, rng)
        calls.append(Call("count_positive_charpoly", (H,), _count_check(k), size=n))
    for n in CHARPOLY_FIXED:
        H = ref.gaussian_hermitian(n, 0)
        k = int(np.sum(ref.eigvalsh(H) > 0))
        calls.append(Call("count_positive_charpoly", (H,), _count_check(k), CHARPOLY_FAULT, size=n))
    return calls


def run_call(dp, call: Call) -> tuple[int, str | None]:
    """Time one call; return (ns, error or None)."""
    fn = getattr(dp, call.fn)
    t0 = time.perf_counter_ns()
    try:
        out = fn(*call.args)
    except Exception as exc:  # a raising call is a failed operation, not a benchmark crash
        return time.perf_counter_ns() - t0, f"{type(exc).__name__}: {exc}"
    ns = time.perf_counter_ns() - t0
    try:
        call.check(out)
    except CheckError as exc:
        return ns, str(exc)
    return ns, None
