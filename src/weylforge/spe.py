"""Special perfect entanglers: the C[phi] family and its witness bases.

A perfect entangler maximally entangles some product state; a special
perfect entangler (SPE) maximally entangles every member of a full
orthonormal product basis.  The SPEs form the one-parameter family of
classes (pi/4, phi, 0), 0 <= phi <= pi/4, realized here by the gate

    C[phi] = exp(-i (pi/4 sigma_1 (x) sigma_1 + phi sigma_2 (x) sigma_2))

whose endpoints are the CNOT class (phi = 0) and the DCNOT class
(phi = pi/4), with the B gate at the midpoint phi = pi/8.  Equivalently,
the SPEs are exactly the classes with entangling power 2/9.  is_spe
decides membership on the folded chamber point: pi/4 - c1 and |c3| must
both be within a slack of 1e-12 radians (invariants._CHAMBER_SLACK).

The witness basis construction exhibits, for each class member and each
angle theta, a concrete product basis whose four images are all
maximally entangled.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import GateMatrix, _array, _real, as_gate, kron2
from .canonical import (
    QUARTER,
    CanonicalCoords,
    _chamber_locals,
    _chamber_point,
    canonical_gate,
    kak_decompose,
)
from .entangle import _per_batch, _sample_run
from .invariants import _CHAMBER_SLACK

__all__ = [
    "SpeParams",
    "WitnessBasis",
    "spe_gate",
    "is_spe",
    "witness_basis",
    "witness_basis_for_gate",
    "check_basis_images",
    "separability_preservation_probe",
]


@dataclass(frozen=True)
class SpeParams:
    """Family parameter phi, radians in [0, pi/4]; any real number in that
    range, stored as a float (ValueError otherwise, a string included)."""

    phi: float

    def __post_init__(self):
        phi = _real("phi", self.phi, 0.0, QUARTER + _CHAMBER_SLACK, "in [0, pi/4]")
        object.__setattr__(self, "phi", phi)


def _phi(p) -> float:
    """Accept SpeParams or a bare angle."""
    return p.phi if isinstance(p, SpeParams) else SpeParams(p).phi


@dataclass(frozen=True)
class WitnessBasis:
    """An orthonormal product basis whose images under the matching SPE
    representative are all maximally entangled.

    states holds the four basis vectors as rows, in the order
    |00>, |10>, (a|0> + b|1>)|1>, (-conj(b)|0> + conj(a)|1>)|1>
    with a = cos(theta), b = e^{2i phi} sin(theta).
    """

    theta: float
    phi: float
    states: np.ndarray
    a: complex
    b: complex


def spe_gate(p) -> GateMatrix:
    """The gate C[phi]; its canonical coordinates are (pi/4, phi, 0)."""
    return canonical_gate(CanonicalCoords(QUARTER, _phi(p), 0.0))


def is_spe(target) -> bool:
    """Is the class of target a special perfect entangler?

    target is a coordinate triple or a 4x4 gate; ValueError otherwise.
    Tests that the chamber point of its class lies on the family segment
    (pi/4, phi, 0): pi/4 - c1 and |c3| within the chamber slack, 1e-12
    rad (invariants._CHAMBER_SLACK).  Equivalent to entangling power
    exactly 2/9.
    """
    c1, _, c3 = _chamber_point(target)
    return QUARTER - c1 <= _CHAMBER_SLACK and abs(c3) <= _CHAMBER_SLACK


def witness_basis(theta: float, p) -> WitnessBasis:
    """Witness product basis for the SPE representative at (0, pi/4, phi).

    Valid for every finite real theta (ValueError otherwise); the family
    member must be taken in the coordinate form canonical_gate(0, pi/4,
    phi) (locally equivalent to C[phi]).  For bases matched to an
    arbitrary SPE matrix, see witness_basis_for_gate.
    """
    theta = _real("theta", theta)
    phi = _phi(p)
    a = complex(np.cos(theta))
    b = np.exp(2j * phi) * np.sin(theta)
    states = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, a, 0, b],
            [0, -b.conjugate(), 0, a.conjugate()],
        ],
        dtype=complex,
    )
    states.setflags(write=False)
    return WitnessBasis(theta=theta, phi=phi, states=states, a=a, b=complex(b))


# the fold's (shift, sign pattern, permutation) from (0, pi/4, phi) to
# the segment point (pi/4, phi, 0)
_REP_TO_SEGMENT = ((0, 0, 0), (1, 1, 1), (1, 2, 0))


def witness_basis_for_gate(g, theta: float):
    """Product basis maximally entangled by an arbitrary SPE matrix.

    The witness construction is tied to the representative
    canonical_gate(0, pi/4, phi); entanglement of an image is not a
    class property, so for any other member the basis must be carried
    through the decomposition locals rather than reused as is.  Returns
    the four transported basis vectors as rows.

    Raises ValueError when theta is not a finite real number, or when g
    is not a special perfect entangler.
    """
    theta = _real("theta", theta)
    factors = kak_decompose(g)
    if not is_spe(factors.core):
        raise ValueError(
            f"gate with canonical coordinates {tuple(factors.core)} is not "
            "a special perfect entangler"
        )
    phi = factors.core.c2
    # G(0, pi/4, phi) = e^{it} (la (x) lb) G(pi/4, phi, 0) (ra (x) rb) by
    # one fixed permutation, whatever phi
    (_, _, ra, rb), _, _ = _chamber_locals((0.0, QUARTER, phi), *_REP_TO_SEGMENT)
    base = witness_basis(theta, phi).states
    # g = phase . (left locals) . G(0,pi/4,phi) . (ra+ a2 (x) rb+ b2),
    # so pre-rotating the basis by the inverse right local lines it up
    right = kron2(ra.conj().T @ factors.a2, rb.conj().T @ factors.b2)
    transported = base @ right.conj()
    transported.setflags(write=False)
    return transported


def check_basis_images(g, basis) -> np.ndarray:
    """Concurrences of the four images g|psi_i> of an orthonormal basis.

    basis is a WitnessBasis or a 4x4 array of finite numbers, states as
    rows, orthonormal within 1e-9; ValueError naming basis otherwise.
    """
    states = _array("basis", basis.states if isinstance(basis, WitnessBasis) else basis, (4, 4))
    gram = states.conj() @ states.T
    residual = np.abs(gram - np.eye(4)).max()
    if residual > 1e-9:
        raise ValueError(f"basis is not orthonormal (Gram residual {residual:.3e})")
    images = states @ as_gate(g).matrix.T
    # concurrence_pure's arithmetic; the Gram test stands for its 1e-12 norm test
    return np.array([2.0 * abs(v[0] * v[3] - v[1] * v[2]) for v in images])


def separability_preservation_probe(g, n: int, seed: int) -> float:
    """Fraction of Haar product states whose image under g stays product.

    Counts images with concurrence <= 1e-7 among n samples, drawn from
    the same counter-based stream as the entangling-power estimator.
    Only the SWAP class and the local class preserve all of them; for
    any other gate the preserved set has measure zero and the returned
    fraction collapses.
    """
    n, seed = _sample_run(n, seed)
    gate = as_gate(g).matrix
    kept = _per_batch(gate, n, seed, lambda conc: int(np.count_nonzero(conc <= 1e-7)))
    return sum(kept) / n
