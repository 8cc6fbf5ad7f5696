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
chamber, reads a matrix's class once, and builds the full decomposition
from that one reading: a fold element only moves the magic-frame
eigenphases of G(c) among their slots (Kraus and Cirac, PRA 63, 062309
(2001)), so its locals are a column order of the reading's eigenvectors.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    ConsistencyError,
    GateMatrix,
    _gate,
    _joint_diagonalize,
    _memoize,
    _real,
    _trusted_gate,
    kron2,
    split_local,
    su4_normalize,
)
from .invariants import (
    _CHAMBER_SLACK,
    MAGIC_FRAME,
    _gram_invariants,
    _magic,
    invariants_from_coords,
)

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
    reproduces the input within 1e-6, as kak_decompose checks; all four
    locals have determinant 1.
    """

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    core: CanonicalCoords
    global_phase: float


def _coords(c) -> CanonicalCoords:
    """c as a CanonicalCoords of floats, not yet folded: the one place a
    triple becomes floats.  ValueError naming the shape unless c holds
    three real numbers (a string is not read as its characters), and
    unless all three are finite."""
    try:
        if isinstance(c, str):  # it would unpack into three characters
            raise TypeError
        c1, c2, c3 = c
        c1, c2, c3 = float(c1), float(c2), float(c3)
    except (TypeError, ValueError):
        raise ValueError(
            f"expected a coordinate triple of real numbers, got shape {np.shape(c)}"
        ) from None
    if not (math.isfinite(c1) and math.isfinite(c2) and math.isfinite(c3)):
        raise ValueError(f"coordinates must be finite, got {(c1, c2, c3)}")
    return CanonicalCoords(c1, c2, c3)


def _target(t):
    """(gate, None) for a gate, (None, coords) for a coordinate triple.

    The one reader of a target argument: a GateMatrix or any 4x4
    array-like is read by linalg._gate, its errors naming target; a
    shape-(3,) triple becomes _coords(t), finite floats not yet folded.
    Anything else, a string included, is a ValueError naming the shape.
    """
    shape = np.shape(t)
    if shape == (4, 4):
        return _gate("target", t), None
    if shape == (3,):
        return None, _coords(t)
    raise ValueError(f"expected a coordinate triple or a 4x4 gate, got shape {shape}")


def _chamber_point(t) -> CanonicalCoords:
    """The chamber point of a target's class: the memoized class reading
    of a gate (extract_coordinates), the fold of a triple (reduce_to_weyl)."""
    gate, coords = _target(t)
    return _read_class(gate)[1] if coords is None else reduce_to_weyl(coords)


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


# Row j: the signs of (c1, c2, c3) in the eigenphase of G(c) in magic-frame
# slot j.  They are the four sign vectors of product -1, so the phases
# sum to zero, and the two rows with +1 in column t sum to 2 e_t.
_SLOT_SIGNS = ((1, -1, 1), (1, 1, -1), (-1, -1, -1), (-1, 1, 1))
_CORE_SLOTS = [[j for j, row in enumerate(_SLOT_SIGNS) if row[t] > 0] for t in range(3)]


def _slot_phases(c) -> list:
    """The eigenphases of G(c) in slot order, summed left to right."""
    c1, c2, c3 = c
    return [s1 * c1 + s2 * c2 + s3 * c3 for s1, s2, s3 in _SLOT_SIGNS]


def _raw_core(lam) -> list:
    """The inverse of _slot_phases, up to a shift common to all four."""
    return [(lam[a] + lam[b]) / 2 for a, b in _CORE_SLOTS]


def spectral_phases(c) -> SpectralPhases:
    """Eigenphases of the canonical gate at c.

    In the magic frame G(c) is diagonal with entries e^{-i lam_k}; the
    frame of this package places them in slot order (lam1, lam4, lam3,
    lam2), with the signs of _SLOT_SIGNS.  The four phases sum to zero.
    """
    lam1, lam4, lam3, lam2 = _slot_phases(_coords(c))
    return SpectralPhases(lam1, lam2, lam3, lam4)


def in_weyl_chamber(c, tol: float = _CHAMBER_SLACK) -> bool:
    """Chamber predicate pi/4 >= c1 >= c2 >= |c3|, with slack tol radians,
    finite and >= 0 (default 1e-12, the chamber slack): the only settable
    tolerance on coordinates, as GateMatrix's unitarity is on gates."""
    c1, c2, c3 = _coords(c)
    tol = _real("tol", tol, 0.0, want="a finite number >= 0")
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
    if rep[0] >= QUARTER - _CHAMBER_SLACK and rep[2] < 0:
        pat[perm[0]] *= -1
        pat[perm[2]] *= -1
        K[perm[0]] += pat[perm[0]]
        rep = [HALF - rep[0], rep[1], -rep[2]]
    return tuple(rep), (tuple(K), tuple(pat), tuple(perm))


def _image(element, c) -> tuple:
    """c's image under the fold element (K, pat, perm), as _reduce_with_ops."""
    K, pat, perm = element
    return tuple(pat[i] * (c[i] + K[i] * HALF) for i in perm)


@functools.cache
def _slot_order(pat, perm) -> tuple:
    """order[j]: the slot of c whose eigenphase lands in slot j of c's
    image under (K, pat, perm), give or take pi/2 times an integer of the
    parity of sum(K).  Row j times the image is row r times c + K pi/2,
    r[i] = row[perm.index(i)] * pat[i], again of product -1: 24 keys."""
    return tuple(
        _SLOT_SIGNS.index(tuple(row[perm.index(i)] * pat[i] for i in range(3)))
        for row in _SLOT_SIGNS
    )


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


# the fold element c -> (pi/2 - c1, c2, -c3)
_MIRROR = ((-1, 0, 0), (-1, 1, -1), (0, 1, 2))


def _class_match(a, b, tol: float):
    """"direct" or "mirror" if chamber points a and b name one class, else None.

    The mirror c -> (pi/2 - c1, c2, -c3) keeps the class on the face
    c1 = pi/4, and rounding decides on which side of it the fold lands.
    """
    for how, image in (("direct", a), ("mirror", _image(_MIRROR, a))):
        if max(abs(p - q) for p, q in zip(image, b)) <= tol:
            return how
    return None


# two triples of one class fold to points apart by the fold's rounding
# and the chamber slack, far below this
_EQUIVALENT_TOL = 1e-9


def coords_equivalent(a, b) -> bool:
    """Do two coordinate triples name the same local-equivalence class?

    Compares chamber representatives within 1e-9 rad, across the face
    c1 = pi/4 too, cross-checked against the closed form invariants of
    both triples.
    """
    same_rep = _class_match(reduce_to_weyl(a), reduce_to_weyl(b), _EQUIVALENT_TOL) is not None
    ia = invariants_from_coords(a)
    ib = invariants_from_coords(b)
    same_inv = abs(ia.g1 - ib.g1) <= 1e-7 and abs(ia.g2 - ib.g2) <= 1e-7
    if same_rep and not same_inv:
        raise ConsistencyError(
            f"chamber representatives of {tuple(a)} and {tuple(b)} coincide "
            "but their invariants disagree"
        )
    return same_rep and same_inv


def extract_coordinates(g) -> CanonicalCoords:
    """Chamber coordinates of the class of an arbitrary two-qubit gate.

    The magic-frame Gram matrix of the determinant-normalized gate has
    eigenvalues e^{-2i lam_k}, which one joint eigensolve of its real and
    imaginary parts reads.  Halving their phases gives the lam's up to
    ordering and mod-pi branches; the linear inversion

        c1 = (lam1+lam4)/2,  c2 = (lam2+lam4)/2,  c3 = (lam1+lam2)/2

    is applied to the phases in the order they come and the result is
    folded into the chamber once.  Neither the ordering nor the branch
    needs a search: permuting the phases acts on (c1, c2, c3) as a
    permutation with an even sign flip, and adding pi to any lam moves
    two coordinates by pi/2, both of which the fold absorbs.  On the
    face c1 = pi/4 the fold returns c3 >= 0.  The result is
    cross-checked against the gate's local invariants, read off the same
    Gram matrix.  A GateMatrix keeps this one reading (_read_class), so
    every other question about the gate reads nothing again, and
    kak_decompose(g).core is this point, bit for bit.
    """
    return _read_class(g)[1]


def _read_class(g):
    """(invariants, coords, Ub, frame, lam, (K, pat, perm)).

    The one spectral reading of g (see extract_coordinates), memoized on
    the gate: one normalization, magic-frame matrix Ub, Gram matrix, joint
    eigensolve (eigenvectors frame, eigenphases lam) and fold.  The fold's
    bookkeeping is checked within 1e-10, the point against the Gram
    invariants within 1e-7."""
    gate = _gate("g", g)
    if gate._reading is not None:
        return gate._reading
    ub = _magic(su4_normalize(gate).matrix)
    m = ub.T @ ub
    target = _gram_invariants(m)
    frame, diagonal = _joint_diagonalize(m)
    lam = -np.angle(diagonal) / 2.0
    # det 1 forces sum(lam) to a multiple of pi; an odd multiple would put
    # the frame product in the wrong SO(4) component, so shift one branch
    total = float(lam.sum())
    if round(total / math.pi) % 2 != 0:
        lam[0] -= math.copysign(math.pi, total)
    raw = _raw_core(lam.tolist())
    cand, fold = _reduce_with_ops(raw)
    if max(abs(x - y) for x, y in zip(_image(fold, raw), cand)) > 1e-10:
        raise ConsistencyError("fold bookkeeping mismatch")
    rep = _snap_to_chamber(cand)
    got = invariants_from_coords(rep)
    if abs(got.g1 - target.g1) > 1e-7 or abs(got.g2 - target.g2) > 1e-7:
        raise ConsistencyError(
            f"coordinates {tuple(rep)} do not reproduce the gate invariants"
        )
    return _memoize(gate, (target, rep, ub, frame, lam, fold))


def _kak_locals(gate: GateMatrix, element=None):
    """One KAK decomposition into unsplit 4x4 locals: (left, point, right, phases).

    left . G(point) . right reproduces gate up to a global phase, which
    the caller reads off the overlap; left and right are local with
    determinant 1.  point is the chamber point, or its image under a
    fold element (K, pat, perm); phases are its slot phases, read-only.
    Built from the memoized reading alone: the reading's frame, its
    columns in the slot order of the fold (and element) and made proper,
    is the right local in the magic frame; the left is Ub times it
    divided by the point's slot phases, times -i when the pi/2 shifts
    add up odd, and must be real within 1e-7.
    """
    _, point, ub, frame, _, (K, pat, perm) = _read_class(gate)
    order, shifts = _slot_order(pat, perm), sum(K)
    if element is not None:
        point = CanonicalCoords(*_image(element, point))
        order = tuple(order[j] for j in _slot_order(*element[1:]))
        shifts += sum(element[0])
    frame = frame[:, order]
    if np.linalg.det(frame) < 0:
        frame[:, 0] = -frame[:, 0]
    phases = np.array(_slot_phases(point))
    o1 = (ub @ frame) * np.exp(1j * (phases - HALF * (shifts % 2)))[None, :]
    imag_leak = np.abs(o1.imag).max()
    if imag_leak > 1e-7:
        raise ConsistencyError(
            f"left factor is not real orthogonal (imaginary part {imag_leak:.3e})"
        )
    q = MAGIC_FRAME
    left = q @ o1.real @ q.conj().T
    right = q @ frame.T @ q.conj().T
    phases.setflags(write=False)
    return left, point, right, phases


def kak_decompose(g) -> KakFactors:
    """Full canonical decomposition of a two-qubit gate.

    The decomposition itself is _kak_locals (see there), built from the
    gate's one reading, so core is extract_coordinates(g) bit for bit.
    This function adds three self-checks and the split: the core's slot
    phases must assemble into canonical_gate(core) within 1e-9; both
    locals are split into SU(2) tensor factors; and the factors must
    reassemble into the input within 1e-6, with the global phase read
    off their overlap.  synthesize and witness_basis_for_gate call
    _kak_locals directly, each certifying its own result in place of
    these checks; all share the reading memoized on a GateMatrix.
    """
    gate = _gate("g", g)
    left, core, right, phases = _kak_locals(gate)

    q = MAGIC_FRAME
    core_check = np.abs(
        q @ np.diag(np.exp(-1j * phases)) @ q.conj().T - canonical_gate(core).matrix
    ).max()
    if core_check > 1e-9:
        raise ConsistencyError(
            f"eigenphases do not assemble into a canonical core ({core_check:.3e})"
        )

    a1, b1 = split_local(left)
    a2, b2 = split_local(right)

    # the SU(2) splits fix each factor only up to a joint sign, and
    # _kak_locals drops the phase of the frame's column order, so read
    # the global phase off the overlap with the input
    recon = kron2(a1, b1) @ canonical_gate(core).matrix @ kron2(a2, b2)
    overlap = (gate.matrix * recon.conj()).sum()
    phase = float(np.angle(overlap))
    residual = np.abs(np.exp(1j * phase) * recon - gate.matrix).max()
    if residual > 1e-6:
        raise ConsistencyError(f"reassembly residual {residual:.3e} exceeds 1e-6")

    for arr in (a1, b1, a2, b2):
        arr.setflags(write=False)
    return KakFactors(a1=a1, b1=b1, a2=a2, b2=b2, core=core, global_phase=phase)
