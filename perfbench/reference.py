"""Independent reference computations and seeded inputs, numpy only.

Nothing here imports ``dpstates``: every truth the benchmark checks a
program output against is either a generating parameter (a Haar vector,
a known p) or recomputed by the plain dense routes below.
"""

from __future__ import annotations

import json
import math

import numpy as np


class CheckError(Exception):
    """A program output disagreed with its reference."""


def close(what: str, got, want, tol: float) -> None:
    """Raise CheckError unless |got - want| <= tol elementwise."""
    g = np.asarray(got, dtype=complex)
    w = np.asarray(want, dtype=complex)
    if g.shape != w.shape:
        raise CheckError(f"{what}: shape {g.shape} != {w.shape}")
    if not np.all(np.isfinite(g)):
        raise CheckError(f"{what}: non-finite value")
    dev = float(np.max(np.abs(g - w))) if g.size else 0.0
    if dev > tol:
        raise CheckError(f"{what}: deviation {dev:.3e} > {tol:.1e}")


def expect(what: str, ok: bool) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# seeded inputs


def haar_vector(D: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(D) + 1.0j * rng.standard_normal(D)
    return v / np.linalg.norm(v)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = (rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def p_min(D: int) -> float:
    return -1.0 / (D - 1)


def p_min_cp(D: int) -> float:
    return -1.0 / (D * D - 1)


def positive_p(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.2, 0.9))


def negative_p(D: int, rng: np.random.Generator) -> float:
    # kept away from p_min, where the state is singular and the Uhlmann
    # route loses half its digits, and away from 0, where the sign of p
    # is ill-conditioned
    return float(rng.uniform(0.6, 0.9) * p_min(D))


def dps_matrix(psi: np.ndarray, p: float) -> np.ndarray:
    D = psi.shape[0]
    return (1.0 - p) * np.eye(D) / D + p * np.outer(psi, psi.conj())


def mixed_state(D: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank Wishart state; its spectrum has no (D-1)-fold cluster."""
    G = rng.standard_normal((D, D)) + 1.0j * rng.standard_normal((D, D))
    M = G @ G.conj().T
    M = M / np.real(np.trace(M))
    return (M + M.conj().T) / 2.0


def random_kraus(D: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Kraus operators of a channel cut from a Haar isometry."""
    W = haar_unitary(D * count, rng)[:, :D]
    return [W[m * D : (m + 1) * D, :] for m in range(count)]


def hermitian_with_signs(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Hermitian matrix with eigenvalue magnitudes in [0.2, 1] and its positive count."""
    Q = haar_unitary(n, rng)
    lam = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
    H = (Q * lam) @ Q.conj().T
    return (H + H.conj().T) / 2.0, int(np.sum(lam > 0))


def gaussian_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([n, seed])
    X = rng.standard_normal((n, n)) + 1.0j * rng.standard_normal((n, n))
    return (X + X.conj().T) / 2.0


def maximally_entangled(d: int) -> np.ndarray:
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / math.sqrt(d)
    return phi


# ---------------------------------------------------------------------------
# files in the CLI's JSON encoding


def pairs(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def write_state(path, M: np.ndarray, dims=None) -> None:
    doc = {"dim": int(M.shape[0])}
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
    doc["matrix"] = pairs(M)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_channel(path, kraus: list[np.ndarray]) -> None:
    with open(path, "w") as fh:
        json.dump({"dim": int(kraus[0].shape[0]), "kraus": [pairs(K) for K in kraus]}, fh)


def read_state(path) -> tuple[np.ndarray, list | None]:
    """Load a written state file and check trace 1 and Hermiticity."""
    with open(path) as fh:
        doc = json.load(fh)
    arr = np.asarray(doc["matrix"], dtype=float)
    M = arr[..., 0] + 1.0j * arr[..., 1]
    expect(f"{path}: shape {M.shape} != dim {doc['dim']}", M.shape == (doc["dim"], doc["dim"]))
    close(f"{path}: trace", np.trace(M), 1.0, 1e-12)
    close(f"{path}: Hermiticity", M, M.conj().T, 1e-12)
    return M, doc.get("dims")


# ---------------------------------------------------------------------------
# dense reference routes


def eigvalsh(M: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((M + M.conj().T) / 2.0)


def spectral_dps_p(M: np.ndarray, tol: float = 1e-9) -> float | None:
    """p if the spectrum is one eigenvalue plus a (D-1)-fold cluster, else None.

    A Hermitian unit-trace matrix with that spectrum is exactly
    (1-p) 1/D + p |v><v| for the odd eigenvector v.  A spread between
    ``tol`` and 1e-6 is too close to call and raises.
    """
    D = M.shape[0]
    lam = eigvalsh(M)
    best = None
    for lo, hi, odd in ((0, D - 1, D - 1), (1, D, 0)):
        spread = float(lam[hi - 1] - lam[lo])
        if best is None or spread < best[0]:
            best = (spread, float(np.mean(lam[lo:hi])), float(lam[odd]))
    spread, flat, odd = best
    if tol < spread < 1e-6:
        raise CheckError(f"reference DPS test undecided: cluster spread {spread:.3e}")
    if spread > tol:
        return None
    return odd - flat


def sqrtm_psd(M: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eigh((M + M.conj().T) / 2.0)
    return (V * np.sqrt(np.clip(lam, 0.0, None))) @ V.conj().T


def fidelity(A: np.ndarray, B: np.ndarray) -> float:
    """Uhlmann fidelity as ||sqrt(A) sqrt(B)||_1^2, square roots by eigh."""
    s = np.linalg.svd(sqrtm_psd(A) @ sqrtm_psd(B), compute_uv=False)
    return float(np.sum(s)) ** 2


def trace_distance(A: np.ndarray, B: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(eigvalsh(A - B))))


def ptrace(M: np.ndarray, dA: int, dB: int, keep: str) -> np.ndarray:
    r = M.reshape(dA, dB, dA, dB)
    return np.einsum("ikjk->ij", r) if keep == "A" else np.einsum("kikj->ij", r)


def ptranspose_b(M: np.ndarray, dA: int, dB: int) -> np.ndarray:
    return M.reshape(dA, dB, dA, dB).transpose(0, 3, 2, 1).reshape(dA * dB, dA * dB)


def schmidt(psi: np.ndarray, dA: int, dB: int) -> np.ndarray:
    return np.linalg.svd(psi.reshape(dA, dB), compute_uv=False)


def negativity(M: np.ndarray, dA: int, dB: int, neg_tol: float = 1e-9) -> tuple[float, int]:
    lam = eigvalsh(ptranspose_b(M, dA, dB))
    count = int(np.sum(lam < -neg_tol))
    neg = 0.0 if count == 0 else (float(np.sum(np.abs(lam))) - 1.0) / (dA - 1)
    return neg, count


def moment(M: np.ndarray, m: int) -> float:
    return float(np.sum(eigvalsh(M) ** m))


def depolarize(M: np.ndarray, p: float) -> np.ndarray:
    D = M.shape[0]
    return (1.0 - p) * np.eye(D) / D + p * M


def local_depolarize(M: np.ndarray, dA: int, dB: int, pA: float, pB: float) -> np.ndarray:
    rA = ptrace(M, dA, dB, "A")
    rB = ptrace(M, dA, dB, "B")
    iA = np.eye(dA) / dA
    iB = np.eye(dB) / dB
    return (
        pA * pB * M
        + pA * (1.0 - pB) * np.kron(rA, iB)
        + (1.0 - pA) * pB * np.kron(iA, rB)
        + (1.0 - pA) * (1.0 - pB) * np.kron(iA, iB)
    )


def protocol_output(psi: np.ndarray, beta2: float) -> np.ndarray:
    """(1 - beta2) |psi><psi| + beta2 1/D, the protocol's defining residual."""
    return depolarize(np.outer(psi, psi.conj()), 1.0 - beta2)


def protocol_alpha(D: int, beta2: float) -> float:
    beta = math.sqrt(beta2)
    return -beta / D + math.sqrt(max(1.0 - beta2 * (1.0 - 1.0 / (D * D)), 0.0))


def jamiolkowski_f(kraus: list[np.ndarray]) -> float:
    D = kraus[0].shape[0]
    return float(sum(abs(np.trace(K)) ** 2 for K in kraus)) / (D * D)


def twirl_p(D: int, f: float) -> float:
    return (D * D * f - 1.0) / (D * D - 1.0)


def haar_states(D: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((count, D)) + 1.0j * rng.standard_normal((count, D))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def twirl_sample_sd(kraus: list[np.ndarray], rng: np.random.Generator, count: int = 20000) -> float:
    """Standard deviation of one Haar-sample twirl estimate of p.

    One sample contributes <phi|E(|phi><phi|)|phi> for a Haar phi; the
    estimator maps it to p through (y - 1/D) / (1 - 1/D).
    """
    D = kraus[0].shape[0]
    phis = haar_states(D, count, rng)
    y = sum(np.abs(np.einsum("ti,ij,tj->t", phis.conj(), K, phis)) ** 2 for K in kraus)
    return float(np.std(y)) / (1.0 - 1.0 / D)


def recipe_sample_sd(D: int, f: float, rng: np.random.Generator, count: int = 20000) -> float:
    """Standard deviation of one recipe trial's contribution to p_hat.

    A trial adds (1-f) |<phi|X|phi>|^2 for a Haar phi and the Weyl shift X.
    """
    phis = haar_states(D, count, rng)
    y = (1.0 - f) * np.abs(np.sum(phis.conj() * np.roll(phis, 1, axis=1), axis=1)) ** 2
    return float(np.std(y)) / (1.0 - 1.0 / D)
