"""Two-application synthesis of arbitrary two-qubit gates from C[phi].

Any target class (c1, c2, c3) can be reached by sandwiching one layer of
single-qubit rotations between two applications of a single special
perfect entangler:

    C[phi] . ( e^{-i c1 sigma_2}  (x)  e^{-i a sigma_3} e^{-i b sigma_2}
               e^{-i a sigma_3} ) . C[phi]

The middle angles (a, b) solve a pair of trigonometric constraints with
two solution branches; writing k = cos 4phi, A = cos 2c2, B = cos 2c3
and v = (1 - cos 2b)(1 - k), the branches are the two roots

    v = (1 + A)(1 - B)        (sols1)
    v = (1 - A)(1 + B)        (sols2)

of v^2 - 2(1 - AB)v + (1 - A^2)(1 - B^2) = 0, with

    cos^2 2a = (opposite root) * tan^2 2phi / (2(1 - k) - v).

A branch is feasible when cos 2b lands in [-1, 1] and cos^2 2a in
[0, 1]; not every phi admits a feasible branch for every target, but
phi = pi/8 (the B gate) always does, so `--phi auto` means pi/8.
phi = 0 and phi = pi/4 are never admissible for generic targets.  These
conditions decide feasibility in closed form: feasible_phi_profile
evaluates them over a phi grid without synthesizing, and
infeasibility_reasons (and the message of InfeasibleSynthesisError)
names the condition each branch violates and by how much.

Inverse cosines give a0 in [0, pi/4] and b0 in [0, pi/2].  The signed
matching equation cos 2a sin 2b sin 4phi = sin 2c2 sin 2c3 then fixes
the quadrant: with a = a0, cos 2a, sin 4phi and sin 2c2 are all
non-negative, so b takes the sign of c3.  That leaves one solution per
feasible branch (-a0 gives the same class, pi/2 +- a0 needs the opposite b).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    ConsistencyError,
    GateMatrix,
    Tolerances,
    _trusted_gate,
    as_gate,
    kron2,
    rot_y,
    rot_z,
)
from .invariants import invariants_from_coords
from .canonical import (
    _SAME_CLASS_TOL,
    QUARTER,
    CanonicalCoords,
    _chamber_locals,
    _class_match,
    _read_class,
    kak_decompose,
    reduce_to_weyl,
)
from .spe import _phi, spe_gate

__all__ = [
    "UnsupportedPhiError",
    "DegenerateTargetError",
    "InfeasibleSynthesisError",
    "SynthesisSolution",
    "NonlocalLayer",
    "LocalLayer",
    "Circuit",
    "b_gate_params",
    "spe_params",
    "synthesize",
    "special_circuit",
    "circuit_matrix",
    "verify_equivalence",
    "feasible_phi_profile",
    "infeasibility_reasons",
    "circuit_to_dict",
    "circuit_from_dict",
]


class UnsupportedPhiError(ValueError):
    """phi = 0 or pi/4: these family members cannot drive the synthesis."""


class DegenerateTargetError(ValueError):
    """The closed-form angle equations are singular for this target."""


class InfeasibleSynthesisError(RuntimeError):
    """No candidate solution verified; carries the candidates tried.

    The message names the violated condition of each infeasible branch.
    This is a property of the (target, phi) pair, not a malformed input:
    the caller should retry with another phi (pi/8 always works).
    """

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = list(candidates)


@dataclass(frozen=True)
class SynthesisSolution:
    """One middle-layer solution: the angles and the branch they solve."""

    phi: float
    a: float
    b: float
    branch: str


@dataclass(frozen=True)
class NonlocalLayer:
    """One application of C[phi]."""

    phi: float


@dataclass(frozen=True)
class LocalLayer:
    """Simultaneous single-qubit operations; top acts on qubit 0."""

    top: np.ndarray
    bottom: np.ndarray

    def __post_init__(self):
        for name in ("top", "bottom"):
            m = np.array(getattr(self, name), dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate layers (leftmost acts first) plus a global phase."""

    layers: tuple
    global_phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    def nonlocal_count(self) -> int:
        return sum(1 for layer in self.layers if isinstance(layer, NonlocalLayer))


def _product(c: Circuit) -> np.ndarray:
    """The layers multiplied out, times the global phase; unchecked."""
    total = np.eye(4, dtype=complex)
    for layer in c.layers:
        if isinstance(layer, NonlocalLayer):
            m = spe_gate(layer.phi).matrix
        elif isinstance(layer, LocalLayer):
            m = kron2(layer.top, layer.bottom)
        else:
            raise TypeError(f"unknown layer type {type(layer).__name__}")
        total = m @ total
    return np.exp(1j * c.global_phase) * total


def circuit_matrix(c: Circuit, tol: Tolerances = DEFAULT_TOLERANCES) -> GateMatrix:
    """Multiply out a circuit, including its global phase; checked as a
    raw gate is, since circuit_from_dict reads layers from outside."""
    return GateMatrix(_product(c), tol=tol)


def b_gate_params(c2: float, c3: float):
    """Middle-layer angles for driving the synthesis with the B gate.

    Closed form specific to phi = pi/8:

        sin 2a = sqrt( cos2c2 cos2c3 / (1 - 2 sin^2 c2 cos^2 c3) )
        cos 2b = 1 - 4 sin^2 c2 cos^2 c3

    Returns principal values a, b in [0, pi/2].  The denominator
    vanishes exactly when the numerator does (the DCNOT corner), where
    a drops out of the circuit and is fixed to 0.
    """
    c2, c3 = float(c2), float(c3)
    num = np.cos(2 * c2) * np.cos(2 * c3)
    den = 1.0 - 2.0 * np.sin(c2) ** 2 * np.cos(c3) ** 2
    cos2b = 1.0 - 4.0 * np.sin(c2) ** 2 * np.cos(c3) ** 2
    if not -1.0 - 1e-9 <= cos2b <= 1.0 + 1e-9:
        raise ValueError(f"cos 2b = {cos2b!r} outside [-1, 1]; target not in chamber?")
    b = 0.5 * np.arccos(np.clip(cos2b, -1.0, 1.0))
    if abs(den) <= 1e-12:
        if abs(num) > 1e-12:
            raise DegenerateTargetError(
                f"sin 2a = {num!r}/{den!r} is singular for target (c2={c2}, c3={c3})"
            )
        return 0.0, float(b)
    sin2a_sq = num / den
    if not -1e-9 <= sin2a_sq <= 1.0 + 1e-9:
        raise ValueError(
            f"sin^2 2a = {sin2a_sq!r} outside [0, 1]; target not in chamber?"
        )
    a = 0.5 * np.arcsin(np.sqrt(np.clip(sin2a_sq, 0.0, 1.0)))
    return float(a), float(b)


def _admissible_phi(p) -> float:
    phi = _phi(p)
    if phi <= 1e-12 or phi >= QUARTER - 1e-12:
        raise UnsupportedPhiError(
            f"phi = {phi!r} cannot drive synthesis; phi must lie strictly "
            "inside (0, pi/4)"
        )
    return phi


def _branch_roots(phi: float, c2: float, c3: float):
    """Feasible (branch, a0, b0) triples, and why each other branch fails.

    Returns (roots, failures): roots holds one triple per feasible
    branch, failures one line per infeasible branch naming the violated
    condition and its value, e.g. "sols1: cos 2b = -1.37 outside
    [-1, 1] by 0.37".  phi is feasible for the target exactly when
    roots is non-empty.
    """
    k = np.cos(4 * phi)
    A = np.cos(2 * c2)
    B = np.cos(2 * c3)
    tan_sq = np.tan(2 * phi) ** 2
    roots = []
    failures = []
    for branch, v, opposite in (
        ("sols1", (1 + A) * (1 - B), (1 - A) * (1 + B)),
        ("sols2", (1 - A) * (1 + B), (1 + A) * (1 - B)),
    ):
        cos2b = 1.0 - v / (1.0 - k)
        if not -1.0 - 1e-9 <= cos2b <= 1.0 + 1e-9:
            failures.append(
                f"{branch}: cos 2b = {cos2b:.6g} outside [-1, 1] "
                f"by {abs(cos2b) - 1.0:.3g}"
            )
            continue
        b0 = 0.5 * np.arccos(np.clip(cos2b, -1.0, 1.0))
        den = 2.0 * (1.0 - k) - v
        if den <= 1e-12:
            # cos 2b = -1 makes the a-rotations cancel; feasible only
            # when the opposite root contributes nothing
            leak = opposite * tan_sq
            if leak <= 1e-9:
                roots.append((branch, 0.0, float(b0)))
            else:
                failures.append(
                    f"{branch}: cos 2b = -1 needs (opposite root) "
                    f"tan^2 2phi = 0, got {leak:.3g}"
                )
            continue
        cos2a_sq = opposite * tan_sq / den
        if not -1e-9 <= cos2a_sq <= 1.0 + 1e-9:
            bound = "> 1" if cos2a_sq > 1.0 else "< 0"
            failures.append(
                f"{branch}: cos^2 2a = {cos2a_sq:.6g} {bound} "
                f"by {max(cos2a_sq - 1.0, -cos2a_sq):.3g}"
            )
            continue
        a0 = 0.5 * np.arccos(np.sqrt(np.clip(cos2a_sq, 0.0, 1.0)))
        roots.append((branch, float(a0), float(b0)))
    return roots, failures


def infeasibility_reasons(target, p) -> list:
    """Why C[phi] misses the class of target: one line per failing branch.

    Empty when both branches are feasible; two lines mean phi cannot
    reach the target.  Each line names the violated condition of the
    closed-form solution and its value (see the module docstring).
    """
    phi = _admissible_phi(p)
    c = reduce_to_weyl(CanonicalCoords(*(float(v) for v in target)))
    return _branch_roots(phi, c.c2, c.c3)[1]


def spe_params(p, target) -> list:
    """Middle-layer solutions for synthesizing target with C[phi].

    One solution per feasible branch, in the order (sols1, sols2), with
    a = a0 and b = b0 carrying the sign of c3 (see the module
    docstring).  The list may be empty (infeasible phi), which is a
    result, not an error.
    """
    phi = _admissible_phi(p)
    c = reduce_to_weyl(target)
    return [
        SynthesisSolution(phi=phi, a=a0, b=b0 if c.c3 >= 0 else -b0, branch=branch)
        for branch, a0, b0 in _branch_roots(phi, c.c2, c.c3)[0]
    ]


def _middle_layer(c1: float, sol: SynthesisSolution) -> LocalLayer:
    bottom = rot_z(sol.a) @ rot_y(sol.b) @ rot_z(sol.a)
    return LocalLayer(top=rot_y(c1), bottom=bottom)


def _core_circuit(c: CanonicalCoords, sol: SynthesisSolution) -> Circuit:
    return Circuit(
        layers=(
            NonlocalLayer(phi=sol.phi),
            _middle_layer(c.c1, sol),
            NonlocalLayer(phi=sol.phi),
        )
    )


def synthesize(target, p, tol: Tolerances = DEFAULT_TOLERANCES) -> Circuit:
    """Compile a target gate or class into exactly two C[phi] applications.

    Coordinate targets produce the bare two-application circuit whose
    class matches the target.  Matrix targets additionally get outer
    local layers and a global phase so the assembled circuit reproduces
    the matrix itself within 1e-7.

    Each solution from spe_params, sols1 first, is certified by the class
    test of verify_equivalence on its unchecked product (the layers are
    unitary by construction); the first that verifies wins.
    """
    shape = np.shape(target)
    if shape == (4, 4):
        gate = as_gate(target, tol=tol)
        factors = kak_decompose(gate, tol=tol)
        chamber = factors.core
    elif shape == (3,):
        gate = factors = None
        chamber = reduce_to_weyl(target)
    else:
        raise ValueError(
            f"target must be a coordinate triple or a 4x4 gate, got shape {shape}"
        )

    candidates = spe_params(p, chamber)
    for sol in candidates:
        core = _core_circuit(chamber, sol)
        core_gate = _trusted_gate(_product(core), 0.0)
        if _in_class(core_gate, chamber, tol):
            break
    else:
        reasons = infeasibility_reasons(chamber, p)
        if candidates:
            reasons.append(f"none of {len(candidates)} candidates verified")
        raise InfeasibleSynthesisError(
            f"no solution at phi = {_phi(p)!r} reaches target class "
            f"{tuple(chamber)}: " + "; ".join(reasons),
            candidates,
        )
    if gate is None:
        return core

    # dress the class circuit into the exact matrix: with the circuit's
    # own decomposition M = e^{ib}(p1 (x) q1) G(core) (p2 (x) q2) and the
    # target's g = e^{ig}(a1 (x) b1) G(core) (a2 (x) b2),
    #   g = e^{i(g-b)} (a1 p1+ (x) b1 q1+) M (p2+ a2 (x) q2+ b2)
    inner = kak_decompose(core_gate, tol=tol)
    p1, q1, p2, q2, beta = inner.a1, inner.b1, inner.a2, inner.b2, inner.global_phase
    if _class_match(inner.core, factors.core, _SAME_CLASS_TOL) == "mirror":
        # inner.core is named from the other side of the face c1 = pi/4:
        # the fold's fix-ups give G(inner.core) = e^{it} (la (x) lb) G(m)
        # (ra (x) rb) with m = (pi/2 - c1, c2, -c3), which matches factors.core
        mirror = ((-1, 0, 0), (-1, 1, -1), (0, 1, 2))
        (la, lb, ra, rb), t, _ = _chamber_locals(inner.core, *mirror)
        p1, q1, p2, q2, beta = p1 @ la, q1 @ lb, ra @ p2, rb @ q2, beta + t
    lead = LocalLayer(top=p2.conj().T @ factors.a2, bottom=q2.conj().T @ factors.b2)
    trail = LocalLayer(top=factors.a1 @ p1.conj().T, bottom=factors.b1 @ q1.conj().T)
    full = Circuit(
        layers=(lead, *core.layers, trail),
        global_phase=float(factors.global_phase - beta),
    )
    residual = np.abs(_product(full) - gate.matrix).max()
    if residual > 1e-7:
        raise ConsistencyError(
            f"dressed circuit misses the target matrix by {residual:.3e}"
        )
    return full


def verify_equivalence(c: Circuit, target, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Does the circuit implement the target class?

    Checks the local invariants within 1e-8 and, independently, the
    extracted chamber coordinates within 1e-7, directly or across the
    face c1 = pi/4, where (pi/4, c2, c3) and (pi/4, c2, -c3) name one
    class (Zhang et al., PRA 67, 042313 (2003)).
    """
    return _in_class(circuit_matrix(c, tol=tol), reduce_to_weyl(target), tol)


def _in_class(gate: GateMatrix, chamber: CanonicalCoords, tol: Tolerances) -> bool:
    """verify_equivalence's test, for a chamber point that is already folded."""
    got, coords = _read_class(gate, tol)
    want = invariants_from_coords(chamber)
    if abs(got.g1 - want.g1) > 1e-8 or abs(got.g2 - want.g2) > 1e-8:
        return False
    return _class_match(coords, chamber, _SAME_CLASS_TOL) is not None


def special_circuit(kind: str, p) -> Circuit:
    """Fixed-form circuits for the CNOT and DCNOT classes.

    cnot  (valid 0 < phi < pi/4):
        C[phi] . ( e^{-i pi/4 sigma_2} (x) e^{-i pi/2 sigma_3} ) . C[phi]
        The top rotation is the generic-circuit top at c1 = pi/4; the
        bottom pair of z-rotations is the (a, b) = (pi/4, 0) middle
        layer, which collapses to a single z-rotation.
    dcnot (valid pi/8 <= phi < pi/4):
        C[phi] . ( e^{-i pi/4 sigma_2} (x)
                   e^{-i pi/4 sigma_3} e^{-i b sigma_2} e^{-i pi/4 sigma_3}
                 ) . C[phi]   with cos 2b = -cot^2 2phi.
    """
    phi = _phi(p)
    if kind == "cnot":
        if not 0.0 < phi < QUARTER:
            raise ValueError(
                f"cnot circuit needs phi strictly inside (0, pi/4), got {phi!r}"
            )
        middle = LocalLayer(top=rot_y(QUARTER), bottom=rot_z(np.pi / 2))
    elif kind == "dcnot":
        if not np.pi / 8 <= phi < QUARTER:
            raise ValueError(
                f"dcnot circuit needs phi in [pi/8, pi/4), got {phi!r}"
            )
        cos2b = -1.0 / np.tan(2 * phi) ** 2
        b = 0.5 * np.arccos(np.clip(cos2b, -1.0, 1.0))
        bottom = rot_z(QUARTER) @ rot_y(b) @ rot_z(QUARTER)
        middle = LocalLayer(top=rot_y(QUARTER), bottom=bottom)
    else:
        raise ValueError(f"unknown special circuit kind {kind!r}")
    return Circuit(layers=(NonlocalLayer(phi=phi), middle, NonlocalLayer(phi=phi)))


def feasible_phi_profile(target, grid_size: int) -> list:
    """Synthesis feasibility over a uniform phi grid inside (0, pi/4).

    Returns [(phi, feasible), ...] for grid_size interior points; grid
    endpoints 0 and pi/4 are excluded since they are never admissible.
    Feasibility is decided in closed form, without synthesizing: phi is
    feasible when some solution branch has a root (cos 2b in [-1, 1],
    cos^2 2a in [0, 1]).  infeasibility_reasons says which condition
    fails.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    chamber = reduce_to_weyl(CanonicalCoords(*(float(v) for v in target)))
    profile = []
    for k in range(grid_size):
        phi = (k + 1) * QUARTER / (grid_size + 1)
        roots, _ = _branch_roots(phi, chamber.c2, chamber.c3)
        profile.append((phi, bool(roots)))
    return profile


# JSON layer encoding: complex entries as [re, im] pairs


def _mat_to_lists(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _mat_from_lists(rows) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in rows],
        dtype=complex,
    )


def circuit_to_dict(c: Circuit) -> dict:
    """Serializable form of a circuit; inverse of circuit_from_dict."""
    layers = []
    for layer in c.layers:
        if isinstance(layer, NonlocalLayer):
            layers.append({"kind": "nonlocal", "phi": float(layer.phi)})
        elif isinstance(layer, LocalLayer):
            layers.append(
                {
                    "kind": "local",
                    "top": _mat_to_lists(layer.top),
                    "bottom": _mat_to_lists(layer.bottom),
                }
            )
        else:
            raise TypeError(f"unknown layer type {type(layer).__name__}")
    return {"layers": layers, "global_phase": float(c.global_phase)}


def circuit_from_dict(data: dict) -> Circuit:
    """Rebuild a circuit from its serialized form."""
    layers = []
    for entry in data["layers"]:
        kind = entry["kind"]
        if kind == "nonlocal":
            layers.append(NonlocalLayer(phi=float(entry["phi"])))
        elif kind == "local":
            layers.append(
                LocalLayer(
                    top=_mat_from_lists(entry["top"]),
                    bottom=_mat_from_lists(entry["bottom"]),
                )
            )
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return Circuit(layers=tuple(layers), global_phase=float(data.get("global_phase", 0.0)))
