"""Local invariants of two-qubit gates and the perfect-entangler test.

Two gates differ by single-qubit operations alone exactly when they
share the pair of invariants (g1, g2) computed here.  Both are read off
the symmetric matrix m = (Q+ U Q)^T (Q+ U Q), where Q changes basis to
the magic (Bell-phase) frame: in that frame local gates become real
orthogonal matrices, so the spectrum of m is blind to them.

A gate is a perfect entangler when its chamber point lies in the
polyhedron c1 + c2 >= pi/4, c2 + |c3| <= pi/4, decided within a slack
of 1e-12 radians (``_CHAMBER_SLACK``) on the coordinates that
canonical.extract_coordinates reads off one Gram matrix.
"""

from typing import NamedTuple

import numpy as np

from .linalg import _gate

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


def _magic(u: np.ndarray) -> np.ndarray:
    """Ub = Q+ u Q: the 4x4 array u in the magic frame."""
    return MAGIC_FRAME.conj().T @ u @ MAGIC_FRAME


def m_matrix(g) -> np.ndarray:
    """The magic-frame Gram matrix m = (Q+ U Q)^T (Q+ U Q)."""
    ub = _magic(_gate("g", g).matrix)
    return ub.T @ ub


def local_invariants(g) -> LocalInvariants:
    """Compute the local-equivalence invariants of a two-qubit gate.

    Returns ``LocalInvariants(g1, g2)`` with

        g1 = tr^2[m] / (16 det U)
        g2 = (tr^2[m] - tr[m^2]) / (4 det U)

    read off the determinant-normalized gate (det U = 1): these are the
    invariants of canonical.extract_coordinates' class reading, which
    cross-checks them against the chamber point and is memoized on the
    gate.  g2 is real for any unitary input; its residual imaginary part
    is checked against 1e-8 and dropped.
    """
    # canonical imports this module, so import it at call time
    from .canonical import _read_class

    return _read_class(g)[0]


# a gate is projected onto the unitaries on entry, so Im g2 is rounding
_G2_IMAG_TOL = 1e-8


def _gram_invariants(m) -> LocalInvariants:
    """(g1, g2) from the Gram matrix m of a gate with determinant 1."""
    tr = np.trace(m)
    tr2 = np.trace(m @ m)
    g1 = tr**2 / 16.0
    g2 = (tr**2 - tr2) / 4.0
    if abs(g2.imag) > _G2_IMAG_TOL:
        raise ValueError(f"g2 has non-real value {g2:.6g}; input is not unitary enough")
    return LocalInvariants(complex(g1), float(g2.real))


def invariants_from_coords(coords) -> LocalInvariants:
    """Local invariants of the canonical gate at (c1, c2, c3).

    Closed form, no 4x4 matrix involved:

        g1 = ((cos 2(c1-c2)) e^{-2i c3} + (cos 2(c1+c2)) e^{2i c3})^2 / 4
        g2 = cos 4c1 + cos 4c2 + cos 4c3

    coords is a coordinate triple of finite numbers; ValueError otherwise.
    """
    # canonical imports this module, so import it at call time
    from .canonical import _coords

    c1, c2, c3 = _coords(coords)
    half = np.cos(2 * (c1 - c2)) * np.exp(-2j * c3) + np.cos(2 * (c1 + c2)) * np.exp(
        2j * c3
    )
    g1 = 0.25 * half**2
    g2 = np.cos(4 * c1) + np.cos(4 * c2) + np.cos(4 * c3)
    return LocalInvariants(complex(g1), float(g2))


# slack of the chamber-point decisions, radians: the fold snaps overshoot
# below 1e-12, and extracted named classes sit within 1e-15 of their planes
_CHAMBER_SLACK = 1e-12


def _pe_point(c) -> bool:
    """Is the chamber point c in the perfect-entangler polyhedron?"""
    c1, c2, c3 = c
    quarter = np.pi / 4
    return (
        c1 + c2 >= quarter - _CHAMBER_SLACK
        and c2 + abs(c3) <= quarter + _CHAMBER_SLACK
    )


def is_perfect_entangler(target) -> bool:
    """True when the target can turn some product state into a maximally
    entangled one.

    target is a coordinate triple or a 4x4 gate; ValueError otherwise.
    Criterion: the chamber point c of its class lies in the polyhedron

        c1 + c2 >= pi/4,  c2 + |c3| <= pi/4

    (Zhang et al., PRA 67, 042313 (2003)), within 1e-12 radians.  That
    is the condition that the convex hull of the eigenvalues of m holds
    the origin, read on the coordinates rather than the spectrum.
    """
    # canonical imports this module, so import it at call time
    from .canonical import _chamber_point

    return _pe_point(_chamber_point(target))
