"""
Entangling power: Monte Carlo against the closed form
=====================================================

The entangling power of a gate is the average linear entropy it
creates from Haar-random product inputs.  The closed form needs only
the chamber coordinates; the Monte Carlo estimate needs only matrix
arithmetic.  Watching them converge is a strong end-to-end check.
"""

import numpy as np

from weylforge import (
    GateMatrix,
    entangling_power_closed,
    entangling_power_mc,
    extract_coordinates,
    haar_product_states,
)
from weylforge.gates import NAMED_GATES

SEED = 20240816

for name in ("cnot", "sqrtswap", "swap"):
    gate = GateMatrix(NAMED_GATES[name])
    exact = entangling_power_closed(extract_coordinates(gate))
    print(f"{name}: closed form e_p = {exact:.9f}")
    for n in (1_000, 10_000, 100_000, 1_000_000):
        est = entangling_power_mc(gate, n, seed=SEED)
        if est.std_error > 1e-12:
            note = f"({abs(est.mean - exact) / est.std_error:.2f} standard errors off)"
        else:
            note = "(zero to machine precision)"
        print(f"  n = {n:>9,}: {est.mean:.9f} +- {est.std_error:.1e}  {note}")
    print()

# The stream is keyed by (seed, batch index): batch j holds states
# j*4096 onwards, drawn by haar_product_states(seed, j, count) whoever
# draws it.  So the estimate is exactly reproducible no matter how the
# work is chunked.  Rebuild the b-gate estimate from batches shared by
# two workers (even and odd j), each filling one reused buffer, and sum
# the per-batch sums in batch order, as the estimator does.
b_gate = GateMatrix(NAMED_GATES["b"])
n, batch = 50_000, 4096
batches = (n + batch - 1) // batch
buffer = np.empty((batch, 4), dtype=complex)
sums = [0.0] * batches
for worker in (0, 1):
    for j in range(worker, batches, 2):
        count = min(batch, n - j * batch)
        states = haar_product_states(SEED, j, count, out=buffer[:count])
        images = states @ np.asarray(b_gate).T
        conc = 2.0 * np.abs(images[:, 0] * images[:, 3] - images[:, 1] * images[:, 2])
        sums[j] = (0.5 * conc**2).sum()
rebuilt = float(np.sum(sums)) / n
est_a = entangling_power_mc(b_gate, n, seed=SEED)
print(f"b gate, rebuilt from two workers' batches: {rebuilt!r}")
print(f"b gate, entangling_power_mc:               {est_a.mean!r}")
print("bit-identical:", rebuilt == est_a.mean)
if rebuilt != est_a.mean:
    raise SystemExit("the chunked rebuild differs from the estimator")

est_c = entangling_power_mc(b_gate, n, seed=SEED + 1)
print(f"different seed moves the estimate by {abs(est_a.mean - est_c.mean):.2e}")
