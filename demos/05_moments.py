#!/usr/bin/env python3
"""Trace moments three ways, and what t2, t3 reveal about a DPS.

Tr rho^m equals the expectation of a cyclic permutation operator on
rho^(x m), which is what a controlled-SWAP interferometer measures: the
ancilla returns +1 with probability (1 + Tr rho^m)/2.  For a DPS the
first two nontrivial moments determine the spectrum, so p can be read
off measured data; the sign of p needs t3 and stays invisible at D=2.
"""

import numpy as np

from dpstates import (
    count_positive_charpoly,
    dps_moment,
    dps_p_from_moments,
    haar_state,
    make_dps,
    moment_exact,
    moment_montecarlo,
    moment_permutation,
    partial_transpose,
)
from dpstates.linalg import DensityMatrix

rng = np.random.default_rng(83)

A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
rho = DensityMatrix((g := A @ A.conj().T) / np.trace(g).real)
print("random mixed state at D=3, Tr rho^m three ways")
print(f"{'m':>3} {'direct':>14} {'permutation':>14} {'monte carlo':>14} {'mc std err':>11}")
for m in (2, 3):
    exact = moment_exact(rho, m).value
    perm = moment_permutation(rho, m).value
    mc = moment_montecarlo(rho, m, shots=200000, seed=400 + m)
    print(f"{m:>3} {exact:>14.9f} {perm:>14.9f} {mc.value:>14.9f} {mc.std_error:>11.2e}")

print("\nDPS moments determine p (sign from t3, D >= 3)")
for D, p in ((3, -0.35), (4, 0.35), (6, -0.18)):
    t2, t3 = dps_moment(D, p, 2), dps_moment(D, p, 3)
    got, resolved = dps_p_from_moments(t2, t3, D)
    print(f"  D={D} p={p:+.4f}: t2={t2:.6f} t3={t3:.6f} -> p={got:+.6f} sign_resolved={resolved}")

t2, t3 = dps_moment(2, -0.5, 2), dps_moment(2, -0.5, 3)
got, resolved = dps_p_from_moments(t2, t3, 2)
print(f"  D=2 p=-0.5000: +p and -p share the whole spectrum"
      f" -> |p|={got:.6f} sign_resolved={resolved}")

# simulated swap-test data end to end: measure t2, t3 of the actual
# density matrix, then invert with a tolerance matching shot noise
D, p = 4, -0.25
state = make_dps(haar_state(D, rng), p).to_matrix()
t2 = moment_montecarlo(state, 2, shots=2 * 10**6, seed=771).value
t3 = moment_montecarlo(state, 3, shots=2 * 10**6, seed=772).value
got, resolved = dps_p_from_moments(t2, t3, D, tol=5e-3)
print(f"\nfrom 2M simulated shots per moment at D={D}: p = {got:+.5f}"
      f" (true {p:+.2f}, sign_resolved={resolved})")

# counting signs without diagonalizing: by Sylvester's law of inertia
# the positive LDL^T pivots of the Householder tridiagonal form count the
# positive eigenvalues, as long as none sits numerically at zero
print("\nnegative-eigenvalue counting via LDL^T inertia")
b = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
psi = np.zeros(9, dtype=complex)
psi[[0, 4, 8]] = b
for p in (0.2, 0.5):
    pt = partial_transpose(make_dps(psi, p).to_matrix().matrix, 3, 3)
    positive = count_positive_charpoly(pt)
    eigen = int(np.sum(np.linalg.eigvalsh(pt) > 0))
    print(f"  PT of uniform 3x3 DPS at p={p}: inertia says {positive} positive,"
          f" eigensolver says {eigen}, so {9 - positive} negative")
