#!/usr/bin/env python3
"""Recognizing depolarized pure states from the density matrix alone.

A DPS is rho = (1-p) 1/D + p |psi><psi| with -1/(D-1) <= p <= 1.  Its
coherence vector n has norm |p|, is a fixed direction of the symmetric
star product (n*n = p n), and generates the whole ladder of invariants
([n*]^r n) . n = p^(r+2).  The identification test below uses nothing
but those facts, so it works without knowing psi or p in advance.  It
evaluates them on the traceless operator n.lambda, so it needs no basis.
The coherence-vector functions read n off the entries of rho by index
arithmetic, in O(D^2), so none of them takes or builds a basis either.
"""

import numpy as np

from dpstates import (
    c_norm,
    dps_test,
    haar_state,
    invariant_ladder,
    make_dps,
    star,
    to_coherence,
)
from dpstates.linalg import DensityMatrix

rng = np.random.default_rng(2024)

D = 4
p = -0.21
psi = haar_state(D, rng)
state = make_dps(psi, p)
rho = state.to_matrix()

print(f"DPS at D={D}, p={p}")
print(f"  spectrum        : {np.round(state.spectrum(), 6)}")
print(f"  purity          : {rho.purity():.6f}  (1/D + (D-1)p^2/D = {1/D + (D-1)*p**2/D:.6f})")

n = to_coherence(rho)
print(f"  |n|             : {n.norm:.12f}  (should be |p| = {abs(p)})")

nn = star(n, n)
print(f"  |n*n - p n|     : {np.linalg.norm(nn.n - p * n.n):.2e}")
print(f"  ladder          : {[f'{v:.8f}' for v in invariant_ladder(n, 3)]}")
print(f"  expected        : {[f'{p**r:.8f}' for r in (2, 3, 4, 5)]}")

verdict = dps_test(rho)
print(f"  dps_test        : p = {verdict:.12f}")

# a generic mixture of two pure states is not in the family unless the
# weights are equal and the states orthogonal
phi = haar_state(D, rng)
w = 0.7
mix = DensityMatrix(w * np.outer(psi, psi.conj()) + (1 - w) * np.outer(phi, phi.conj()))
print(f"\n0.7/0.3 two-state mixture: dps_test -> {dps_test(mix)}")

full = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
generic = DensityMatrix((g := full @ full.conj().T) / np.trace(g).real)
print(f"generic full-rank state  : dps_test -> {dps_test(generic)}")

# at D=2 the star product does not exist and +p/-p share a spectrum,
# so only the magnitude is identifiable
two = make_dps(haar_state(2, rng), -0.6)
print(f"\nD=2 with p=-0.6          : dps_test -> {dps_test(two.to_matrix()):.12f} (magnitude only)")

print(f"\nstar normalization c_D at D=3..6: {[round(c_norm(d), 6) for d in range(3, 7)]}")
