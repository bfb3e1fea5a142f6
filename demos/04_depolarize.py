#!/usr/bin/env python3
"""Three physical routes to a DPS and how strongly each can depolarize.

The Kraus route mixes Weyl unitaries and covers the completely positive
range p >= -1/(D^2-1).  The ancilla protocol reaches the same range with
a single fixed unitary on system + two D-level ancillas, where the
ancilla amplitude beta sets p = 1 - |beta|^2 and the extremal choice
lands exactly on the universal-inverter boundary.  Twirling takes any
channel to a depolarizing one; over the exact Clifford average (any
prime D) that is an identity, over Haar samples it is an estimate.
"""

import numpy as np

from dpstates import (
    apply_depolarizing,
    chi_from_beta2,
    haar_state,
    jamiolkowski_fidelity,
    make_dps,
    p_min_cp,
    pdps_recipe,
    protocol1,
    random_channel,
    trace_distance_oracle,
    twirl,
    twirl_p,
)
from dpstates.linalg import DensityMatrix

rng = np.random.default_rng(55)

D = 3
psi = haar_state(D, rng)
pure = DensityMatrix(np.outer(psi, psi.conj()))

print(f"ancilla protocol at D={D}: residual = (1-b2)|psi><psi| + b2 1/D")
limit = D * D / (D * D - 1.0)
for beta2 in (0.0, 0.4, 0.8, limit):
    out = protocol1(psi, chi_from_beta2(D, beta2))
    expected = apply_depolarizing(pure, 1.0 - beta2).state
    dev = trace_distance_oracle(out, expected)
    tag = "  <- universal inverter, p = -1/(D^2-1)" if beta2 == limit else ""
    print(f"  b2={beta2:.6f} -> p={1 - beta2:+.6f}, simulation vs formula: {dev:.1e}{tag}")
print(f"  p_min_cp({D}) = {p_min_cp(D):+.6f}")

ch = random_channel(D, kraus_count=3, seed=914)
f = jamiolkowski_fidelity(ch)
print(f"\nrandom 3-Kraus channel at D={D}: Jamiolkowski fidelity f = {f:.8f}")

exact = twirl(ch, mode="exact-clifford")
print(f"exact Clifford twirl : p_hat = {exact.p_hat:.12f}")
print(f"  (D^2 f - 1)/(D^2-1) = {twirl_p(D, f):.12f},"
      f" residual non-depolarizing part {exact.depolarizing_deviation:.1e}")

# the Clifford group is a unitary 2-design at every prime D, so the
# exact twirl needs no enumeration of its 3000 elements at D = 5
ch5 = random_channel(5, kraus_count=2, seed=915)
f5 = jamiolkowski_fidelity(ch5)
exact5 = twirl(ch5, mode="exact-clifford")
deficient5 = twirl(ch5, mode="exact-clifford", exclude_identity=True)
print(f"exact Clifford twirl at D=5: p_hat = {exact5.p_hat:.12f},"
      f" (D^2 f - 1)/(D^2-1) = {twirl_p(5, f5):.12f}")
print(f"  without the identity: non-depolarizing part {deficient5.depolarizing_deviation:.1e}")

print("Haar-sampled twirl converges like 1/sqrt(samples):")
for samples in (64, 256, 1024, 4096):
    est = twirl(ch, mode="haar-sample", samples=samples, seed=100 + samples)
    print(f"  samples={samples:>5} -> p_hat={est.p_hat:+.6f}  error={est.p_hat - twirl_p(D, f):+.2e}")

# the two-outcome recipe {identity w.p. f, shift w.p. 1-f}, conjugated
# by a fresh Haar unitary U each trial, realizes the physical DPS range;
# a trial needs only U^dag X U psi, drawn from the Haar vector U psi and
# a uniform direction orthogonal to psi without forming U
f, trials = 0.7, 20000
psi2 = haar_state(2, rng)
out = pdps_recipe(psi2, f, seed=501, trials=trials)
p_target = twirl_p(2, f)
p_hat = (float(np.real(np.vdot(psi2, out.matrix @ psi2))) - 0.5) / 0.5
print(f"\nMonte-Carlo recipe at D=2, f={f}, {trials} trials:")
print(f"  target p = {p_target:.6f}, estimated p = {p_hat:.6f}")

lowest = make_dps(psi2, p_min_cp(2))
print(f"\nmost depolarizing physical map at D=2 sends |psi> to spectrum "
      f"{np.round(lowest.spectrum(), 6)}")
print("  (the universal-NOT: every direction on the sphere is inverted as far")
print("  as complete positivity allows)")
