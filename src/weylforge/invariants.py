"""Local invariants of two-qubit gates and the perfect-entangler test.

Two gates differ by single-qubit operations alone exactly when they
share the pair of invariants (g1, g2) computed here.  Both are read off
the symmetric matrix m = (Q+ U Q)^T (Q+ U Q), where Q changes basis to
the magic (Bell-phase) frame: in that frame local gates become real
orthogonal matrices, so the spectrum of m is blind to them.
"""

from typing import NamedTuple

import numpy as np

from .linalg import Tolerances, DEFAULT_TOLERANCES, as_gate, su4_normalize

__all__ = [
    "MAGIC_FRAME",
    "LocalInvariants",
    "m_matrix",
    "local_invariants",
    "invariants_from_coords",
    "is_perfect_entangler",
]

# Columns are Bell states with fixed phases: the frame in which the
# two-qubit gate group factors as SO(4) x canonical content.
MAGIC_FRAME = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / np.sqrt(2)
)
MAGIC_FRAME.setflags(write=False)


class LocalInvariants(NamedTuple):
    """The pair (g1, g2); g1 is complex, g2 is real."""

    g1: complex
    g2: float


def m_matrix(g) -> np.ndarray:
    """The magic-frame Gram matrix m = (Q+ U Q)^T (Q+ U Q)."""
    u = as_gate(g).matrix
    ub = MAGIC_FRAME.conj().T @ u @ MAGIC_FRAME
    return ub.T @ ub


def local_invariants(g, tol: Tolerances = DEFAULT_TOLERANCES) -> LocalInvariants:
    """Compute the local-equivalence invariants of a two-qubit gate.

    Returns ``LocalInvariants(g1, g2)`` with

        g1 = tr^2[m] / (16 det U)
        g2 = (tr^2[m] - tr[m^2]) / (4 det U)

    g2 is real for any unitary input; its residual imaginary part is
    checked against ``tol.comparison`` and dropped.
    """
    gate = as_gate(g, tol=tol)
    return _gram_invariants(m_matrix(gate), np.linalg.det(gate.matrix), tol)


def _gram_invariants(m, det, tol: Tolerances = DEFAULT_TOLERANCES) -> LocalInvariants:
    """(g1, g2) from a Gram matrix m and the determinant of its gate."""
    tr = np.trace(m)
    tr2 = np.trace(m @ m)
    g1 = tr**2 / (16.0 * det)
    g2 = (tr**2 - tr2) / (4.0 * det)
    if abs(g2.imag) > tol.comparison:
        raise ValueError(f"g2 has non-real value {g2:.6g}; input is not unitary enough")
    return LocalInvariants(complex(g1), float(g2.real))


def invariants_from_coords(coords) -> LocalInvariants:
    """Local invariants of the canonical gate at (c1, c2, c3).

    Closed form, no 4x4 matrix involved:

        g1 = ((cos 2(c1-c2)) e^{-2i c3} + (cos 2(c1+c2)) e^{2i c3})^2 / 4
        g2 = cos 4c1 + cos 4c2 + cos 4c3
    """
    c1, c2, c3 = (float(v) for v in coords)
    half = np.cos(2 * (c1 - c2)) * np.exp(-2j * c3) + np.cos(2 * (c1 + c2)) * np.exp(
        2j * c3
    )
    g1 = 0.25 * half**2
    g2 = np.cos(4 * c1) + np.cos(4 * c2) + np.cos(4 * c3)
    return LocalInvariants(complex(g1), float(g2))


def _hull_contains_origin(points: np.ndarray, tol: float) -> bool:
    """Does the convex hull of <= 4 points on the unit circle contain 0?"""
    # dedupe: coincident eigenvalues collapse to one hull vertex
    uniq: list[complex] = []
    for p in points:
        if all(abs(p - q) > 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) == 1:
        return abs(uniq[0]) <= tol
    if len(uniq) == 2:
        # distance from the origin to the segment p-q
        p, q = uniq
        d = q - p
        t = np.clip(-(p.conjugate() * d).real / abs(d) ** 2, 0.0, 1.0)
        return abs(p + t * d) <= tol
    # 3 or 4 points on the unit circle are automatically in convex
    # position; sorting by angle walks the hull boundary
    uniq.sort(key=lambda z: np.arctan2(z.imag, z.real))
    area = sum(
        (uniq[i].real * uniq[(i + 1) % len(uniq)].imag
         - uniq[(i + 1) % len(uniq)].real * uniq[i].imag)
        for i in range(len(uniq))
    )
    if area < 0:
        uniq.reverse()
    for i in range(len(uniq)):
        p, q = uniq[i], uniq[(i + 1) % len(uniq)]
        d = q - p
        # signed distance of the origin left of edge p->q
        cross = p.real * d.imag - p.imag * d.real
        if cross / abs(d) < -tol:
            return False
    return True


def is_perfect_entangler(g, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """True when g can turn some product state into a maximally
    entangled one.

    Criterion: after normalizing to unit determinant, the convex hull of
    the four (unit-modulus) eigenvalues of m must contain the origin.
    """
    gate = su4_normalize(g, tol=tol)
    eig = np.linalg.eigvals(m_matrix(gate))
    return _hull_contains_origin(eig, tol=1e-9)
