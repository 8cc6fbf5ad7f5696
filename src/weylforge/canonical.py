"""Canonical coordinates of two-qubit gates and the KAK-type decomposition.

Every two-qubit gate factors as

    g = e^{i phase} (a1 (x) b1) . G(c1, c2, c3) . (a2 (x) b2)

with single-qubit factors a_i, b_i and a core G(c) that carries all the
nonlocal content.  The triple (c1, c2, c3) is unique once folded into
the chamber pi/4 >= c1 >= c2 >= |c3|, with c3 >= 0 on the face
c1 = pi/4; folding uses the residual freedom of the decomposition:
shifting any coordinate by a multiple of pi/2, permuting the
coordinates, and flipping the signs of any two.  The fold is one pass,
not a search (Zhang et al., PRA 67, 042313 (2003)): shift into
(-pi/4, pi/4], sort by magnitude, fix the signs of the two largest, and
settle the sign of c3 on the c1 = pi/4 face.

This module builds the core gate, reduces arbitrary triples to the
chamber, recovers coordinates from a matrix, and performs the full
decomposition.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    PAULIS,
    ConsistencyError,
    GateMatrix,
    Tolerances,
    _memoize,
    _trusted_gate,
    as_gate,
    eig_commuting_symmetric_pair,
    kron2,
    rot_x,
    rot_y,
    rot_z,
    split_local,
    su4_normalize,
)
from .invariants import MAGIC_FRAME, _gram_invariants, invariants_from_coords, m_matrix

__all__ = [
    "CanonicalCoords",
    "SpectralPhases",
    "KakFactors",
    "canonical_gate",
    "spectral_phases",
    "in_weyl_chamber",
    "reduce_to_weyl",
    "coords_equivalent",
    "extract_coordinates",
    "kak_decompose",
]

QUARTER = np.pi / 4
HALF = np.pi / 2


class CanonicalCoords(NamedTuple):
    """Coordinate triple of a local-equivalence class, radians."""

    c1: float
    c2: float
    c3: float


class SpectralPhases(NamedTuple):
    """The four magic-frame eigenphases of a canonical gate; they sum to 0."""

    lam1: float
    lam2: float
    lam3: float
    lam4: float


@dataclass(frozen=True)
class KakFactors:
    """Result of kak_decompose.

    (a1 (x) b1) . canonical_gate(core) . (a2 (x) b2) . e^{i global_phase}
    reproduces the input within 1e-8; all four locals have determinant 1.
    """

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    core: CanonicalCoords
    global_phase: float


def _coords(c) -> CanonicalCoords:
    """c as a CanonicalCoords of floats; ValueError unless all are finite."""
    c1, c2, c3 = (float(v) for v in c)
    if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(c3)):
        raise ValueError(f"coordinates must be finite, got {(c1, c2, c3)}")
    return CanonicalCoords(c1, c2, c3)


def canonical_gate(c) -> GateMatrix:
    """The core gate G(c1,c2,c3) = exp(-i sum_k c_k sigma_k (x) sigma_k).

    Written out in the computational basis:

        [ e^{-ic3} c-        .           .      -i e^{-ic3} s- ]
        [      .        e^{ic3} c+  -i e^{ic3} s+       .      ]
        [      .       -i e^{ic3} s+   e^{ic3} c+       .      ]
        [ -i e^{-ic3} s-     .           .        e^{-ic3} c-  ]

    with c± = cos(c1 ± c2), s± = sin(c1 ± c2).  Unitary by construction,
    so not checked again; non-finite c raise ValueError.
    """
    c1, c2, c3 = _coords(c)
    cm, cp = np.cos(c1 - c2), np.cos(c1 + c2)
    sm, sp = np.sin(c1 - c2), np.sin(c1 + c2)
    em, ep = np.exp(-1j * c3), np.exp(1j * c3)
    m = np.array(
        [
            [em * cm, 0, 0, -1j * em * sm],
            [0, ep * cp, -1j * ep * sp, 0],
            [0, -1j * ep * sp, ep * cp, 0],
            [-1j * em * sm, 0, 0, em * cm],
        ]
    )
    return _trusted_gate(m, 0.0)


def spectral_phases(c) -> SpectralPhases:
    """Eigenphases of the canonical gate at c.

    In the magic frame G(c) is diagonal with entries e^{-i lam_k}; the
    frame of this package places them in slot order (lam1, lam4, lam3,
    lam2).  The four phases sum to zero.
    """
    c1, c2, c3 = _coords(c)
    return SpectralPhases(
        c1 - c2 + c3,
        -c1 + c2 + c3,
        -(c1 + c2 + c3),
        c1 + c2 - c3,
    )


def in_weyl_chamber(c, tol: float = 1e-12) -> bool:
    """Chamber predicate pi/4 >= c1 >= c2 >= |c3|, with slack tol."""
    c1, c2, c3 = _coords(c)
    return c1 <= QUARTER + tol and c1 >= c2 - tol and c2 >= abs(c3) - tol


def _reduce_with_ops(c):
    """Chamber representative plus the group element that reaches it.

    The element is recorded as (shift K, sign pattern, permutation) with
    representative[t] = (sign * (c + K*pi/2))[perm[t]].  One pass:

    1. shift each coordinate by a multiple of pi/2 into (-pi/4, pi/4];
    2. order the coordinates by magnitude, largest first;
    3. apply the one even sign flip that makes the two largest
       non-negative;
    4. on the face c1 = pi/4 the sign of c3 is not part of the class:
       if c3 < 0 there, flip (c1, c3) and shift c1 by pi/2, which keeps
       c1 at pi/4 and makes c3 positive.
    """
    c = [float(v) for v in c]
    # Python's float % is floor-mod (fmod with the sign of the divisor),
    # not a rounded quotient: -5.6e-17 maps to pi/2 and then to an exact
    # 0, not to a tiny negative coordinate
    vals = [v % HALF for v in c]
    vals = [v - HALF if v > QUARTER else v for v in vals]
    K = [round((v - x) / HALF) for v, x in zip(vals, c)]
    perm = sorted(range(3), key=lambda i: -abs(vals[i]))
    pat = [1, 1, 1]
    for t in (0, 1):
        if vals[perm[t]] < 0:
            pat[perm[t]] *= -1
            pat[perm[2]] *= -1
    rep = [pat[i] * vals[i] for i in perm]
    if rep[0] >= QUARTER - 1e-12 and rep[2] < 0:
        pat[perm[0]] *= -1
        pat[perm[2]] *= -1
        K[perm[0]] += pat[perm[0]]
        rep = [HALF - rep[0], rep[1], -rep[2]]
    return tuple(rep), (tuple(K), tuple(pat), tuple(perm))


def _snap_to_chamber(cand) -> CanonicalCoords:
    """Clamp sub-1e-12 predicate overshoot so the ordering chain is strict,
    and round a negative c3 through pi/2 as step 1 does, so it refolds to itself."""
    c1, c2, c3 = cand
    c1 = min(c1, QUARTER)
    c2 = min(c2, c1)
    if abs(c3) > c2:
        c3 = np.sign(c3) * c2
    if c3 < 0:
        c3 = (c3 + HALF) - HALF
        c2 = max(c2, -c3)
        c1 = max(c1, c2)
    # adding 0.0 turns -0.0 into +0.0
    return CanonicalCoords(float(c1) + 0.0, float(c2) + 0.0, float(c3) + 0.0)


def reduce_to_weyl(c) -> CanonicalCoords:
    """Fold an arbitrary coordinate triple into the chamber.

    One pass: shift each coordinate into (-pi/4, pi/4], order by
    magnitude, make the two largest non-negative with an even sign flip.
    Distinct chamber points name distinct classes except on the face
    c1 = pi/4, where (pi/4, c2, c3) and (pi/4, c2, -c3) name one class;
    the fold returns c3 >= 0 there.
    """
    cand, _ = _reduce_with_ops(_coords(c))
    return _snap_to_chamber(cand)


# extraction precision (about sqrt(eps) at a degenerate phase) plus the fold's 1e-12 snap
_SAME_CLASS_TOL = 1e-7


def _class_match(a, b, tol: float):
    """"direct" or "mirror" if chamber points a and b name one class, else None.

    The mirror c -> (pi/2 - c1, c2, -c3) keeps the class on the face
    c1 = pi/4, and rounding decides on which side of it the fold lands.
    """
    for how, image in (("direct", a), ("mirror", (HALF - a[0], a[1], -a[2]))):
        if max(abs(p - q) for p, q in zip(image, b)) <= tol:
            return how
    return None


def coords_equivalent(a, b, tol: float = 1e-9) -> bool:
    """Do two coordinate triples name the same local-equivalence class?

    Compares chamber representatives, across the face c1 = pi/4 too,
    cross-checked against the closed form invariants of both triples.
    """
    same_rep = _class_match(reduce_to_weyl(a), reduce_to_weyl(b), tol) is not None
    ia = invariants_from_coords(a)
    ib = invariants_from_coords(b)
    same_inv = abs(ia.g1 - ib.g1) <= 1e-7 and abs(ia.g2 - ib.g2) <= 1e-7
    if same_rep and not same_inv:
        raise ConsistencyError(
            f"chamber representatives of {tuple(a)} and {tuple(b)} coincide "
            "but their invariants disagree"
        )
    return same_rep and same_inv


# Single-qubit fix-ups for the three generator types of the folding
# group, used when the decomposition needs the chamber representative
# *and* matching local factors:
#
#   shift by k*pi/2 on axis i:
#       G(c) = e^{-ik pi/2} ((i sigma_i)^{-k} (x) (i sigma_i)^{-k}) G(c + k pi/2 e_i)
#   sign flip of the two axes != i:
#       G(c) = e^{i pi} ((i sigma_i) (x) I) G(flip c) ((i sigma_i) (x) I)
#   transposition of axes j,k (i fixed):
#       G(c) = (w+ (x) w+) G(swap c) (w (x) w),  w = exp(-i pi/4 sigma_i)

_AXIS_ROT = (rot_x, rot_y, rot_z)


def _chamber_locals(cprime, K, pat, perm):
    """Locals (La, Lb, Ra, Rb), phase, and final triple realizing

        G(cprime) = e^{i phase} (La (x) Lb) G(final) (Ra (x) Rb)

    for the fold element (K, pat, perm).  The locals do not depend on
    cprime; the table _fixup_products holds their Kronecker products,
    built by this function once per element.
    """
    eye = np.eye(2, dtype=complex)
    La, Lb, Ra, Rb = eye, eye, eye, eye
    phase = 0.0
    cur = np.asarray(cprime, dtype=float).copy()
    for i in range(3):
        k = int(K[i])
        if k == 0:
            continue
        u = np.linalg.matrix_power(1j * PAULIS[i], (4 - (k % 4)) % 4)
        La = La @ u
        Lb = Lb @ u
        phase -= k * HALF
        cur[i] += k * HALF
    if pat != (1, 1, 1):
        i = pat.index(1)
        u = 1j * PAULIS[i]
        La = La @ u
        Ra = u @ Ra
        phase += np.pi
        cur = cur * np.array(pat)
    # realize the permutation as transpositions applied left to right
    target = list(perm)
    work = list(range(3))
    for t in range(3):
        if work[t] == target[t]:
            continue
        j = work.index(target[t])
        i = next(ax for ax in range(3) if ax not in (t, j))
        w = _AXIS_ROT[i](QUARTER)
        La = La @ w.conj().T
        Lb = Lb @ w.conj().T
        Ra = w @ Ra
        Rb = w @ Rb
        cur[[t, j]] = cur[[j, t]]
        work[t], work[j] = work[j], work[t]
    return (La, Lb, Ra, Rb), phase, cur


def extract_coordinates(g, tol: Tolerances = DEFAULT_TOLERANCES) -> CanonicalCoords:
    """Chamber coordinates of the class of an arbitrary two-qubit gate.

    The magic-frame Gram matrix of the determinant-normalized gate has
    eigenvalues e^{-2i lam_k}.  Halving the computed phases gives the
    lam's up to ordering and mod-pi branches; the linear inversion

        c1 = (lam1+lam4)/2,  c2 = (lam2+lam4)/2,  c3 = (lam1+lam2)/2

    is applied to the phases in the order they come and the result is
    folded into the chamber once.  Neither the ordering nor the branch
    needs a search: permuting the phases acts on (c1, c2, c3) as a
    permutation with an even sign flip, and adding pi to any lam moves
    two coordinates by pi/2, both of which the fold absorbs.  On the
    face c1 = pi/4 the fold returns c3 >= 0.  The result is
    cross-checked against the gate's local invariants, read off the same
    Gram matrix (det = 1 after normalization).  A GateMatrix keeps the
    reading, so local_invariants and is_perfect_entangler on the same
    gate read nothing again.
    """
    return _read_class(g, tol)[1]


def _read_class(g, tol: Tolerances):
    """(invariants, coordinates) of g off one Gram matrix; see extract_coordinates.

    Memoized on the gate (GateMatrix._reading): a gate's class is read once.
    """
    gate = as_gate(g, tol=tol)
    if gate._reading is not None:
        return gate._reading
    m = m_matrix(su4_normalize(gate))
    target = _gram_invariants(m)
    l1, l2, _, l4 = -np.angle(np.linalg.eigvals(m)) / 2.0
    rep = reduce_to_weyl(((l1 + l4) / 2, (l2 + l4) / 2, (l1 + l2) / 2))
    got = invariants_from_coords(rep)
    if abs(got.g1 - target.g1) > 1e-7 or abs(got.g2 - target.g2) > 1e-7:
        raise ConsistencyError(
            f"coordinates {tuple(rep)} do not reproduce the gate invariants"
        )
    return _memoize(gate, "_reading", (target, rep))


@functools.cache
def _fixup_products(k4, pat, perm):
    """(kron2(La, Lb), kron2(Ra, Rb)) of _chamber_locals for one fold element.

    The locals depend on the group element alone, and on each shift K
    only through K mod 4 (the power of i sigma_i), so the key is
    (K mod 4, pat, perm): 64 x 4 x 6 = 1,536 entries at most, filled as
    folds reach them.  A raw core from _kak_locals has |K| <= 3, so
    K mod 4 is 0 exactly when K is, and the products are the bits
    _chamber_locals gives for K itself.  Both are read-only.
    """
    (la, lb, ra, rb), _, _ = _chamber_locals((0.0, 0.0, 0.0), k4, pat, perm)
    left, right = kron2(la, lb), kron2(ra, rb)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def _kak_locals(gate: GateMatrix):
    """One KAK decomposition into unsplit 4x4 locals: (left, core, right, lam).

    left . G(core) . right reproduces gate up to a global phase, which
    the caller reads off the overlap with the gate; left and right are
    local with determinant 1, and core is the chamber point.  Steps:
    strip the determinant phase; move to the magic frame, where the Gram
    matrix m = Ub^T Ub is symmetric unitary and its real and imaginary
    parts commute; diagonalize both parts in one real orthogonal frame;
    read the eigenphases lam, giving the raw core, and the frame, giving
    the right local; recover the left local by division; fold the raw
    core into the chamber, compensating with the fold element's
    single-qubit fix-ups, whose products come from the table
    _fixup_products.  The fold's bookkeeping is checked within 1e-10:
    (pat * (raw + K pi/2))[perm] must be the folded point.

    Memoized on the gate (GateMatrix._kak), with read-only arrays:
    synthesize, kak_decompose and witness_basis_for_gate share one
    decomposition of a gate.
    """
    if gate._kak is not None:
        return gate._kak
    u = su4_normalize(gate).matrix

    q = MAGIC_FRAME
    ub = q.conj().T @ u @ q
    m = ub.T @ ub
    pairs, frame = eig_commuting_symmetric_pair(m.real, m.imag)
    if np.linalg.det(frame) < 0:
        frame = frame.copy()
        frame[:, 0] = -frame[:, 0]

    lam = -np.arctan2(pairs[:, 1], pairs[:, 0]) / 2.0
    # det 1 forces sum(lam) to a multiple of pi; an odd multiple would put
    # the frame product in the wrong SO(4) component, so shift one branch
    if round(lam.sum() / np.pi) % 2 != 0:
        lam[0] -= np.sign(lam.sum()) * np.pi
    d = np.exp(-1j * lam)

    o2 = frame.T
    o1 = (ub @ frame) * d.conj()[None, :]
    imag_leak = np.abs(o1.imag).max()
    if imag_leak > 1e-7:
        raise ConsistencyError(
            f"left factor is not real orthogonal (imaginary part {imag_leak:.3e})"
        )
    o1 = o1.real

    a_left = q @ o1 @ q.conj().T
    a_right = q @ o2 @ q.conj().T

    raw = _raw_core(lam).tolist()
    cand, (K, pat, perm) = _reduce_with_ops(raw)
    moved = [pat[i] * (raw[i] + K[i] * HALF) for i in perm]
    if max(abs(x - y) for x, y in zip(moved, cand)) > 1e-10:
        raise ConsistencyError("chamber fix-up bookkeeping mismatch")
    left, right = _fixup_products(tuple(k % 4 for k in K), pat, perm)
    core = _snap_to_chamber(cand)
    return _memoize(gate, "_kak", (a_left @ left, core, right @ a_right, lam))


def _raw_core(lam) -> np.ndarray:
    """The unfolded core of the magic-frame eigenphases, whose diagonal
    slots carry (lam1, lam4, lam3, lam2)."""
    return np.array(
        [(lam[0] + lam[1]) / 2, (lam[3] + lam[1]) / 2, (lam[0] + lam[3]) / 2]
    )


def kak_decompose(g, tol: Tolerances = DEFAULT_TOLERANCES) -> KakFactors:
    """Full canonical decomposition of a two-qubit gate.

    The decomposition itself is _kak_locals (see there).  This function
    adds three self-checks and the split: the eigenphases must assemble
    into canonical_gate of the raw core within 1e-9; both locals are
    split into SU(2) tensor factors; and the factors must reassemble
    into the input within 1e-6, with the global phase read off their
    overlap.  synthesize calls _kak_locals directly and lets its own
    dressed-circuit residual stand in for these checks; both share the
    decomposition memoized on a GateMatrix.
    """
    gate = as_gate(g, tol=tol)
    left, core, right, lam = _kak_locals(gate)

    q = MAGIC_FRAME
    core_check = np.abs(
        q @ np.diag(np.exp(-1j * lam)) @ q.conj().T - canonical_gate(_raw_core(lam)).matrix
    ).max()
    if core_check > 1e-9:
        raise ConsistencyError(
            f"eigenphases do not assemble into a canonical core ({core_check:.3e})"
        )

    a1, b1 = split_local(left)
    a2, b2 = split_local(right)

    # the SU(2) splits fix each factor only up to a joint sign, so read
    # the global phase off the overlap with the input instead of
    # accumulating it through the fix-ups
    recon = kron2(a1, b1) @ canonical_gate(core).matrix @ kron2(a2, b2)
    overlap = (gate.matrix * recon.conj()).sum()
    phase = float(np.angle(overlap))
    residual = np.abs(np.exp(1j * phase) * recon - gate.matrix).max()
    if residual > 1e-6:
        raise ConsistencyError(f"reassembly residual {residual:.3e} exceeds 1e-6")

    for arr in (a1, b1, a2, b2):
        arr.setflags(write=False)
    return KakFactors(a1=a1, b1=b1, a2=a2, b2=b2, core=core, global_phase=phase)
