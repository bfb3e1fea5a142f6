#!/usr/bin/env python3
"""Partial transpose and negativity of bipartite DPS, in closed form.

Once the purification is written in Schmidt form with coefficients b_j,
the partial transpose of the DPS has an explicit spectrum: D - dA^2
untouched flat values (1-p)/D, one shifted value per b_j^2, and a
+-p b_j b_k pair per coefficient pair.  Only the minus branch can go
negative, which bounds the number of negative eigenvalues by
dA(dA-1)/2 and gives a per-pair entanglement threshold in p.
"""

import numpy as np

from dpstates import (
    haar_state,
    isotropic,
    make_dps,
    negativity,
    pair_threshold,
    partial_transpose,
    pt_spectrum_closed,
    schmidt_dps,
    schmidt_pure,
    two_qubit_canonical,
)

rng = np.random.default_rng(31)

dA, dB = 3, 4
psi = haar_state(dA * dB, rng)
form = schmidt_pure(psi, dA, dB)
print(f"random pure state on {dA}x{dB}: Schmidt coefficients {np.round(form.b, 6)}")

p = 0.55
closed = pt_spectrum_closed(p, form.b, dA, dB)
brute = np.sort(np.linalg.eigvalsh(partial_transpose(make_dps(psi, p).to_matrix().matrix, dA, dB)))
print(f"PT spectrum at p={p}: closed vs brute agree to {np.max(np.abs(np.sort(closed) - brute)):.1e}")

# the DPS itself still knows its purification: recover both from the
# density matrix alone
p_rec, form_rec = schmidt_dps(make_dps(psi, p).to_matrix(), dA, dB)
print(f"recovered from the matrix: p={p_rec:.12f}, coefficient error "
      f"{np.max(np.abs(form_rec.b - form.b)):.1e}")

# two different states, same negativity 5/54: a Bell pair inside 3x3
# past its threshold, and the uniform (singlet-like) vector past its
print("\ntwo coincidental fixed points at dA=dB=3")
bell = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
uniform = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
for name, b, p in (("bell pair  p=1/3  ", bell, 1.0 / 3.0), ("uniform    p=23/72", uniform, 23.0 / 72.0)):
    rep = negativity(p, b, 3, 3)
    print(f"  {name}: negativity={rep.negativity:.12f} (=5/54={5/54:.12f}),"
          f" negative eigenvalues: {rep.negative_count}")

print("\nper-pair thresholds (entangled once p exceeds them)")
print(f"  bell in 3x3    : {pair_threshold(bell, 3, 3):.6f} (= 2/11)")
print(f"  uniform in 3x3 : {pair_threshold(uniform, 3, 3):.6f} (= 1/4)")
for p in (0.15, 0.20, 0.26):
    counts = [negativity(p, b, 3, 3).negative_count for b in (bell, uniform)]
    print(f"  p={p:.2f} -> negative counts bell/uniform: {counts[0]}/{counts[1]}")

# two qubits: mu_4 = (1-p)/4 - (p/2) sin(omega) drives everything
print("\ntwo-qubit canonical family (p, omega)")
for p, omega in ((0.3, 1.2), (0.5, 0.3), (0.5, 1.2), (1.0, np.pi / 2)):
    state, mu = two_qubit_canonical(p, omega)
    tangled = mu[3] < 0
    print(f"  p={p:.2f} omega={omega:.2f}: mu={np.round(mu, 4)} -> {'NPT' if tangled else 'PPT'}")

# isotropic states have no bound entanglement, so here (and only here)
# PPT settles separability in both directions
print("\nisotropic states: separable exactly when F <= 1/dA")
for dA in (2, 3):
    for F in (0.2, 1.0 / dA, 0.8):
        state, separable = isotropic(dA, F)
        print(f"  dA={dA} F={F:.3f}: p={state.p:+.4f} separable={separable}")
