"""Reference computations the benchmark checks weylforge against.

Nothing here imports weylforge: every quantity is computed from its
textbook definition, so a check compares the program with a calculation
that shares none of its code.

Conventions match the package: qubit 0 is the first tensor factor,
basis order |00>, |01>, |10>, |11>, and the Weyl chamber is
pi/4 >= c1 >= c2 >= |c3|.
"""

import numpy as np

QUARTER = np.pi / 4

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_XX, _YY, _ZZ = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)

# Makhlin's magic basis, columns Phi+, i Psi+, Psi-, i Phi-: in it every
# local gate of unit determinant is a real orthogonal matrix.
BELL = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2)


def core_gate(c) -> np.ndarray:
    """exp(-i (c1 XX + c2 YY + c3 ZZ)) through a Hermitian eigensolve."""
    c1, c2, c3 = (float(v) for v in c)
    h = c1 * _XX + c2 * _YY + c3 * _ZZ
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def spe(phi: float) -> np.ndarray:
    """C[phi] = exp(-i (pi/4 XX + phi YY))."""
    return core_gate((QUARTER, phi, 0.0))


def haar_su2(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random SU(2) matrix: QR of a complex Ginibre matrix with
    the phases of R's diagonal moved into Q, then det set to 1."""
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return q / np.sqrt(np.linalg.det(q))


def dress(c, rng: np.random.Generator) -> np.ndarray:
    """A member of class c: Haar SU(2) locals on both sides of the core
    and a uniformly random global phase."""
    left = np.kron(haar_su2(rng), haar_su2(rng))
    right = np.kron(haar_su2(rng), haar_su2(rng))
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    return phase * left @ core_gate(c) @ right


def in_chamber(c) -> bool:
    c1, c2, c3 = c
    return QUARTER >= c1 >= c2 >= abs(c3)


def chamber_points(uniform):
    """Rejection sampling of classes uniformly by chamber volume.

    uniform yields points of the unit cube; each is scaled onto the box
    [0, pi/4] x [0, pi/4] x [-pi/4, pi/4] and kept when it lies in the
    chamber (one point in six does).
    """
    lo = np.array([0.0, 0.0, -QUARTER])
    span = np.array([QUARTER, QUARTER, 2 * QUARTER])
    for u in uniform:
        c = tuple(float(v) for v in lo + span * np.asarray(u))
        if in_chamber(c):
            yield c


def chamber_point(u) -> tuple:
    """Map a point (u0, u1, u2, u3) of the unit 4-cube onto the chamber,
    uniformly by volume, with |c3| increasing in u0 alone.

    At |c3| = t the chamber's section is the triangle t <= c2 <= c1 <= pi/4
    of area (pi/4 - t)^2 / 2 on each sign of c3, so t has the cumulative
    distribution 1 - (1 - t/(pi/4))^3.  Within the triangle c1 - t has
    density proportional to itself and c2 is uniform below c1; u3 picks
    the sign of c3.
    """
    u0, u1, u2, u3 = (float(v) for v in u)
    t = QUARTER * (1.0 - (1.0 - u0) ** (1.0 / 3.0))
    a = (QUARTER - t) * float(np.sqrt(u1))
    return (t + a, t + a * u2, t if u3 < 0.5 else -t)


def stratified_chamber_points(rng: np.random.Generator, n: int) -> list:
    """n classes, uniform by volume, stratified on |c3|: the k-th class
    draws u0 from [k/n, (k+1)/n), so every round holds one class from
    each of n equal-volume slabs of |c3|.  The order is shuffled, so each
    class taken alone is uniform over the chamber."""
    u = rng.random((n, 4))
    u[:, 0] = (np.arange(n) + u[:, 0]) / n
    return [chamber_point(u[k]) for k in rng.permutation(n)]


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i in the given base."""
    out, f = 0.0, 1.0 / base
    while i:
        i, digit = divmod(i, base)
        out += digit * f
        f /= base
    return out


def shifted_halton(rng: np.random.Generator, dim: int):
    """Endless Halton sequence under a random Cranley-Patterson shift.

    Every point is uniform on the unit cube, as with independent draws,
    but the points of any stretch spread evenly over it, so a short run
    samples the cube with much less spread than independent draws would.
    """
    bases = (2, 3, 5, 7, 11)[:dim]
    shift = rng.random(dim)
    i = 1
    while True:
        yield np.mod([radical_inverse(i, b) for b in bases] + shift, 1.0)
        i += 1


def makhlin_invariants(u) -> tuple:
    """(G1, G2) of a 4x4 unitary: with m = U_B^T U_B in the Bell basis,
    G1 = tr^2 m / (16 det U) and G2 = (tr^2 m - tr m^2) / (4 det U)."""
    u = np.asarray(u, dtype=complex)
    ub = BELL.conj().T @ u @ BELL
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr**2 / (16 * det)
    g2 = (tr**2 - np.trace(m @ m)) / (4 * det)
    return complex(g1), complex(g2)


def concurrence(s) -> float:
    """2|ad - bc| of a pure state (a, b, c, d)."""
    a, b, c, d = np.asarray(s, dtype=complex)
    return float(2 * abs(a * d - b * c))


def entangling_power(c) -> float:
    """e_p = (3 - sum_{i<j} cos 4c_i cos 4c_j) / 18."""
    f = np.cos(4 * np.asarray(c, dtype=float))
    return float((3 - (f[0] * f[1] + f[1] * f[2] + f[2] * f[0])) / 18)


def perfect_entangler(c, slack: float = 1e-12) -> bool:
    """The perfect-entangler polyhedron in this package's chamber:
    c1 + c2 >= pi/4 and c2 + |c3| <= pi/4."""
    c1, c2, c3 = c
    return c1 + c2 >= QUARTER - slack and c2 + abs(c3) <= QUARTER + slack


def plane_distance(c) -> float:
    """Distance of a class from the nearer of the two polyhedron planes."""
    c1, c2, c3 = c
    return min(abs(c1 + c2 - QUARTER), abs(c2 + abs(c3) - QUARTER)) / np.sqrt(2)


def layers_product(d) -> np.ndarray:
    """Multiply out a serialized circuit (leftmost layer acts first) with
    this module's own C[phi], global phase included."""
    total = np.eye(4, dtype=complex)
    for layer in d["layers"]:
        if layer["kind"] == "nonlocal":
            m = spe(float(layer["phi"]))
        elif layer["kind"] == "local":
            top = np.array([[complex(*z) for z in row] for row in layer["top"]])
            bottom = np.array([[complex(*z) for z in row] for row in layer["bottom"]])
            m = np.kron(top, bottom)
        else:
            raise ValueError(f"unknown layer kind {layer['kind']!r}")
        total = m @ total
    return np.exp(1j * float(d["global_phase"])) * total
