"""
Compiling any gate from two applications of one entangler
=========================================================

Two applications of the gate C[phi] = G(pi/4, phi, 0), padded with
single-qubit rotations, reach a phi-dependent slice of the chamber:
a class (c1, c2, c3) is reachable exactly when |c3|/2 <= phi <=
pi/4 - |c3|/2.  At phi = pi/8 the slice is the whole chamber: every
two-qubit gate comes out of exactly two applications.
"""

import numpy as np

from weylforge import (
    circuit_matrix,
    extract_coordinates,
    feasible_phi_intervals,
    synthesize,
    verify_equivalence,
)
from weylforge.synth import LocalLayer, NonlocalLayer
from weylforge.gates import NAMED_GATES

EIGHTH = np.pi / 8

# --- a generic target class
target = (0.61, 0.24, -0.08)
circuit = synthesize(target, EIGHTH)
print(f"target class {target}")
print(f"layers ({circuit.nonlocal_count()} nonlocal):")
for layer in circuit.layers:
    if isinstance(layer, NonlocalLayer):
        print(f"   C[phi = {layer.phi:.6f}]")
    else:
        print("   local dressing")
recovered = extract_coordinates(circuit_matrix(circuit))
print("round trip:", tuple(round(float(v), 10) for v in recovered))
print("verified:", verify_equivalence(circuit, target))
print()

# --- an exact matrix target, global phase included
gate = np.asarray(NAMED_GATES["dcnot"], dtype=complex)
circuit = synthesize(gate, EIGHTH)
residual = np.abs(circuit_matrix(circuit).matrix - gate).max()
print(f"dcnot as a matrix target: reconstruction residual {residual:.2e}")
print()

# --- why pi/8 and not some other phi: each solution branch reaches a
# class on one closed interval of phi, and pi/8 lies in both of them
for name, c in (("swap", (np.pi / 4, np.pi / 4, np.pi / 4)), ("generic", target)):
    print(f"{name} target {tuple(round(float(v), 6) for v in c)}: feasible phi")
    for branch, lo, hi in feasible_phi_intervals(c):
        print(f"   {branch}: [{lo:.10f}, {hi:.10f}]")
print(f"swap keeps phi = pi/8 = {EIGHTH:.10f} alone; a milder target keeps more")
