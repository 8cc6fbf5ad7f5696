"""Special perfect entanglers: the C[phi] family and its witness bases.

A perfect entangler maximally entangles some product state; a special
perfect entangler (SPE) maximally entangles every member of a full
orthonormal product basis.  The SPEs form the one-parameter family of
classes (pi/4, phi, 0), 0 <= phi <= pi/4, realized here by the gate

    C[phi] = exp(-i (pi/4 sigma_1 (x) sigma_1 + phi sigma_2 (x) sigma_2))

whose endpoints are the CNOT class (phi = 0) and the DCNOT class
(phi = pi/4), with the B gate at the midpoint phi = pi/8.  Equivalently,
the SPEs are exactly the classes with entangling power 2/9, detected by

    cos4c1 cos4c2 + cos4c2 cos4c3 + cos4c3 cos4c1 = -1.

The witness basis construction exhibits, for each class member and each
angle theta, a concrete product basis whose four images are all
maximally entangled.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import Tolerances, DEFAULT_TOLERANCES, GateMatrix, as_gate, kron2
from .canonical import (
    QUARTER,
    CanonicalCoords,
    canonical_gate,
    kak_decompose,
    reduce_to_weyl,
)
from .entangle import _image_concurrences, _sample_run, concurrence_pure

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
    """Family parameter phi, radians in [0, pi/4]."""

    phi: float

    def __post_init__(self):
        if not 0.0 <= self.phi <= QUARTER + 1e-12:
            raise ValueError(f"phi = {self.phi!r} outside [0, pi/4]")


def _phi(p) -> float:
    """Accept SpeParams or a bare angle."""
    if isinstance(p, SpeParams):
        return p.phi
    return SpeParams(float(p)).phi


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


def is_spe(c, tol: float = 1e-9) -> bool:
    """Is the class at coordinates c a special perfect entangler?

    Tests the pairwise-cosine criterion against -1; equivalent to
    entangling power exactly 2/9, and to the chamber representative
    lying on the family segment (pi/4, phi, 0).
    """
    f1, f2, f3 = (np.cos(4.0 * float(v)) for v in c)
    return bool(abs(f1 * f2 + f2 * f3 + f3 * f1 + 1.0) <= tol)


def witness_basis(theta: float, p) -> WitnessBasis:
    """Witness product basis for the SPE representative at (0, pi/4, phi).

    Valid for every theta; the family member must be taken in the
    coordinate form canonical_gate(0, pi/4, phi) (locally equivalent to
    C[phi]).  For bases matched to an arbitrary SPE matrix, see
    witness_basis_for_gate.
    """
    theta = float(theta)
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


def witness_basis_for_gate(g, theta: float, tol: Tolerances = DEFAULT_TOLERANCES):
    """Product basis maximally entangled by an arbitrary SPE matrix.

    The witness construction is tied to the representative
    canonical_gate(0, pi/4, phi); entanglement of an image is not a
    class property, so for any other member the basis must be carried
    through the decomposition locals rather than reused as is.  Returns
    the four transported basis vectors as rows.

    Raises ValueError when g is not a special perfect entangler.
    """
    factors = kak_decompose(g, tol=tol)
    if not is_spe(factors.core):
        raise ValueError(
            f"gate with canonical coordinates {tuple(factors.core)} is not "
            "a special perfect entangler"
        )
    phi = factors.core.c2
    rep = kak_decompose(
        canonical_gate(CanonicalCoords(0.0, QUARTER, phi)), tol=tol
    )
    base = witness_basis(theta, phi).states
    # g = phase . (left locals) . G(0,pi/4,phi) . (u2+ a2 (x) v2+ b2),
    # so pre-rotating the basis by the inverse right local lines it up
    right = kron2(rep.a2.conj().T @ factors.a2, rep.b2.conj().T @ factors.b2)
    transported = base @ right.conj()
    transported.setflags(write=False)
    return transported


def check_basis_images(g, basis, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Concurrences of the four images g|psi_i> of an orthonormal basis.

    basis: a WitnessBasis or a (4, 4) array of states as rows.
    Raises ValueError when the supplied basis is not orthonormal.
    """
    if isinstance(basis, WitnessBasis):
        states = basis.states
    else:
        states = np.asarray(basis, dtype=complex)
        if states.shape != (4, 4):
            raise ValueError(f"expected four state vectors, got shape {states.shape}")
    gram = states.conj() @ states.T
    residual = np.abs(gram - np.eye(4)).max()
    if residual > 1e-9:
        raise ValueError(f"basis is not orthonormal (Gram residual {residual:.3e})")
    images = states @ as_gate(g, tol=tol).matrix.T
    return np.array([concurrence_pure(v) for v in images])


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
    kept = sum(
        int(np.count_nonzero(conc <= 1e-7))
        for conc in _image_concurrences(gate, n, seed)
    )
    return kept / n
