#!/usr/bin/env python3
"""Closed-form distances between two DPS, checked against brute force.

Between rho_d(psi, p) and rho_d(phi, q) every common measure reduces to
a function of (D, p, q, f) with f = |<psi|phi>|^2: the fidelity from
the two 2x2 blocks on span{psi, phi} and the scalar rest, the trace
distance from a 2x2 eigenproblem.  The
brute-force routes (Uhlmann fidelity via matrix square roots, trace
norm via SVD) know nothing about the family, which is what makes the
comparison meaningful.
"""

import numpy as np

from dpstates import (
    distance_report,
    fidelity_closed,
    fidelity_oracle,
    haar_state,
    make_dps,
    p_min,
    p_min_cp,
    pure_overlap,
    trace_distance_closed,
    trace_distance_oracle,
)

rng = np.random.default_rng(7)

print("closed form vs oracle on random pairs")
print(f"{'D':>3} {'p':>8} {'q':>8} {'f':>7} {'fidelity':>12} {'|dF|':>9} {'trace dist':>12} {'|dT|':>9}")
for D in (2, 3, 5, 9):
    p = float(rng.uniform(p_min(D), 1.0))
    q = float(rng.uniform(p_min(D), 1.0))
    a, b = make_dps(haar_state(D, rng), p), make_dps(haar_state(D, rng), q)
    F = fidelity_closed(a, b)
    T = trace_distance_closed(a, b)
    dF = abs(F - fidelity_oracle(a.to_matrix(), b.to_matrix()))
    dT = abs(T - trace_distance_oracle(a.to_matrix(), b.to_matrix()))
    print(
        f"{D:>3} {p:>8.4f} {q:>8.4f} {pure_overlap(a, b):>7.4f}"
        f" {F:>12.8f} {dF:>9.1e} {T:>12.8f} {dT:>9.1e}"
    )

# equal polarizations: T collapses to |p| sqrt(1-f), independent of D
print("\nequal polarizations, D=9, p=q=-1/80 (the most mixed physical value)")
D, p = 9, p_min_cp(9)
e = np.eye(D, dtype=complex)
for f in (0.0, 0.25, 0.5, 0.75, 1.0):
    phi = np.sqrt(f) * e[0] + np.sqrt(1.0 - f) * e[1]
    T = trace_distance_closed(make_dps(e[0], p), make_dps(phi, p))
    print(f"  f={f:.2f}  T={T:.12f}   |p| sqrt(1-f)={abs(p) * np.sqrt(1 - f):.12f}")
print("  at f=0 the two depolarized states are 1/80 apart, far below the")
print("  pure-state distance 1: depolarization compresses the whole geometry")

# the four measures arrive together and the Fuchs-van-de-Graaf chain
# B^2/2 <= T <= sqrt(1-F) is verified internally on every call
rep = distance_report(make_dps(haar_state(4, rng), 0.62), make_dps(haar_state(4, rng), -0.18))
print(f"\ndistance_report at D=4: F={rep.fidelity:.6f}  T={rep.trace_distance:.6f}"
      f"  B={rep.bures:.6f}  angle={rep.angle:.6f}")
print(f"  chain: {rep.bures**2 / 2:.6f} <= {rep.trace_distance:.6f}"
      f" <= {np.sqrt(1 - rep.fidelity):.6f}")

# at fixed overlap the trace distance is V-shaped in p: zero at p=0
# (both states collapse to 1/D) and growing toward both ends
print("\ntrace distance along p at f=0.5, D=9")
phi = np.sqrt(0.5) * e[0] + np.sqrt(0.5) * e[1]
for p in (-0.125, -0.0125, 0.0, 0.3, 0.65, 1.0):
    T = trace_distance_closed(make_dps(e[0], p), make_dps(phi, p))
    print(f"  p={p:>8.4f}  T={T:.8f}")
