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
[0, 1].  With tan^2 2phi = (1 - k)/(1 + k) these read k <= 1 - v/2 and
2k^2 + (v - opp)k + (v + opp - 2) <= 0, and the quadratic factors as
2(k + A)(k - B) on sols1 and 2(k - A)(k + B) on sols2.  In the chamber
(A <= B) the quadratic bound implies the linear one, so each branch is
feasible on one closed interval of phi:

    sols1:  |c3|/2 <= phi <= pi/4 - c2/2
    sols2:   c2/2  <= phi <= pi/4 - |c3|/2

Both contain phi = pi/8 (the B gate), so `--phi auto` means pi/8, and
their union |c3|/2 <= phi <= pi/4 - |c3|/2 depends on c3 alone.
phi = 0 and phi = pi/4 are never admissible.  Feasibility is decided
once, in _branch_roots, by these intervals widened by 1e-12 rad
(invariants._CHAMBER_SLACK), since a chamber point read off a matrix
can sit an ulp from the printed one.  A phi admitted just outside an
end is solved at that end, and its candidate must still pass the class
test, or synthesis raises "none of N candidates verified".
infeasibility_reasons says how far phi lies outside each excluded
branch's interval and which condition it violates.

Inverse cosines give a0 in [0, pi/4] and b0 in [0, pi/2].  The signed
matching equation cos 2a sin 2b sin 4phi = sin 2c2 sin 2c3 then fixes
the quadrant: with a = a0, cos 2a, sin 4phi and sin 2c2 are all
non-negative, so b takes the sign of c3.  That leaves one solution per
feasible branch (-a0 gives the same class, pi/2 +- a0 needs the opposite b).
"""

import math
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
    split_local,
)
from .invariants import _CHAMBER_SLACK, invariants_from_coords
from .canonical import (
    _SAME_CLASS_TOL,
    QUARTER,
    CanonicalCoords,
    _class_match,
    _fixup_products,
    _kak_locals,
    _read_class,
    reduce_to_weyl,
)
from .spe import _phi, spe_gate

__all__ = [
    "UnsupportedPhiError",
    "InfeasibleSynthesisError",
    "SynthesisSolution",
    "NonlocalLayer",
    "LocalLayer",
    "Circuit",
    "spe_params",
    "synthesize",
    "special_circuit",
    "circuit_matrix",
    "verify_equivalence",
    "feasible_phi_intervals",
    "feasible_phi_profile",
    "infeasibility_reasons",
    "circuit_to_dict",
    "circuit_from_dict",
]


class UnsupportedPhiError(ValueError):
    """phi = 0 or pi/4: these family members cannot drive the synthesis."""


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


def _admissible_phi(p) -> float:
    phi = _phi(p)
    if phi <= 1e-12 or phi >= QUARTER - 1e-12:
        raise UnsupportedPhiError(
            f"phi = {phi!r} cannot drive synthesis; phi must lie strictly "
            "inside (0, pi/4)"
        )
    return phi


def _intervals(c2: float, c3: float) -> list:
    """[(branch, lo, hi), ...] of the chamber point (., c2, c3)."""
    return [("sols1", abs(c3) / 2, QUARTER - c2 / 2), ("sols2", c2 / 2, QUARTER - abs(c3) / 2)]


def _within(phi: float, lo: float, hi: float) -> bool:
    """The feasibility decision: phi in [lo, hi] widened by the chamber slack."""
    return lo - _CHAMBER_SLACK <= phi <= hi + _CHAMBER_SLACK


def _branch_roots(phi: float, c2: float, c3: float):
    """Feasible (branch, a0, b0) triples, and why each other branch fails.

    A branch has a root exactly when _within admits phi; a phi just
    outside an end is solved at that end, where both conditions hold at
    once (clipping each arccos argument alone leaves small-c3 classes
    1e-6 off).  A failure line names how far phi lies outside the
    interval, after the condition it violates where rounding leaves
    one: "sols1: cos 2b = -49.2 outside [-1, 1] by 48.2, phi lies 0.343
    below its interval".
    """
    # (1 + A)(1 - B) and (1 - A)(1 + B) in half angles, which stay
    # accurate where the cosines would cancel near the interval ends
    sols1 = 4.0 * (math.cos(c2) * math.sin(c3)) ** 2
    sols2 = 4.0 * (math.sin(c2) * math.cos(c3)) ** 2
    roots = []
    failures = []
    branches = zip(_intervals(c2, c3), (sols1, sols2), (sols2, sols1))
    for (branch, lo, hi), v, opposite in branches:
        admitted = _within(phi, lo, hi)
        at = min(max(phi, lo), hi) if admitted else phi
        one_minus_k = 2.0 * math.sin(2 * at) ** 2  # 1 - cos 4phi, exact near phi = 0
        cos2b = 1.0 - v / one_minus_k
        den = 2.0 * one_minus_k - v  # (1 + cos 2b)(1 - k)
        # cos 2b = -1 makes the a-rotations cancel: 0/0, read as a = 0
        cos2a_sq = 1.0 if den <= 1e-12 * one_minus_k else opposite * np.tan(2 * at) ** 2 / den
        if admitted:
            b0 = 0.5 * np.arccos(min(max(cos2b, -1.0), 1.0))
            a0 = 0.5 * np.arccos(math.sqrt(min(max(cos2a_sq, 0.0), 1.0)))
            roots.append((branch, float(a0), float(b0)))
            continue
        reason = f"{branch}: "
        if abs(cos2b) > 1.0:
            reason += f"cos 2b = {_past_one(cos2b)} outside [-1, 1] by {abs(cos2b) - 1.0:.3g}, "
        elif cos2a_sq > 1.0:
            reason += f"cos^2 2a = {_past_one(cos2a_sq)} > 1 by {cos2a_sq - 1.0:.3g}, "
        side, by = ("below", lo - phi) if phi < lo else ("above", phi - hi)
        failures.append(reason + f"phi lies {by:.3g} {side} its interval")
    return roots, failures


def _past_one(x) -> str:
    """x, of magnitude above 1, to 6 digits; in full where 6 digits would
    round it onto the bound and the line would read "= 1 > 1"."""
    text = f"{x:.6g}"
    return repr(float(x)) if abs(float(text)) == 1.0 else text


def infeasibility_reasons(target, p) -> list:
    """Why C[phi] misses the class of target: one line per failing branch.

    Empty when both branches are feasible; two lines mean phi cannot
    reach the target.  Each line names how far phi lies outside the
    branch's interval and the violated condition (see _branch_roots).
    """
    phi = _admissible_phi(p)
    c = reduce_to_weyl(target)
    return _branch_roots(phi, c.c2, c.c3)[1]


def feasible_phi_intervals(target) -> list:
    """The phi at which each branch reaches the class of target.

    Returns [(branch, lo, hi), ...] for sols1 and sols2; synthesis
    admits a branch within 1e-12 rad of its interval (see the module
    docstring).  Both contain pi/8; 0 and pi/4 are never admissible.
    """
    _, c2, c3 = reduce_to_weyl(target)
    return _intervals(c2, c3)


def spe_params(p, target) -> list:
    """Middle-layer solutions for synthesizing target with C[phi].

    One solution per feasible branch, in the order (sols1, sols2), with
    a = a0 and b = b0 carrying the sign of c3 (see the module
    docstring); a branch is feasible within 1e-12 rad of its interval.
    The list may be empty (infeasible phi), which is a result, not an
    error.
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
    class matches the target; each solution from spe_params, sols1
    first, is tested by the class test of verify_equivalence on its
    product (the layers are unitary by construction), and the first
    that passes wins.

    Matrix targets additionally get outer local layers and a global
    phase so the assembled circuit reproduces the matrix itself.  The
    target and each candidate's product are decomposed once each
    (canonical._kak_locals); a candidate passes when its chamber point
    names the target's class within 1e-7, and the dressed circuit's
    residual against the target, at most 1e-7, certifies the result.
    A larger residual raises ConsistencyError.
    """
    shape = np.shape(target)
    if shape == (4, 4):
        gate = as_gate(target, tol=tol)
        a1, chamber, a2, _ = _kak_locals(gate)
    elif shape == (3,):
        gate = None
        chamber = reduce_to_weyl(target)
    else:
        raise ValueError(
            f"target must be a coordinate triple or a 4x4 gate, got shape {shape}"
        )

    candidates = spe_params(p, chamber)
    cphi = spe_gate(p).matrix
    for sol in candidates:
        core = _core_circuit(chamber, sol)
        _, middle, _ = core.layers
        mid = kron2(middle.top, middle.bottom)
        # multiplied in the order _product uses, so the same bits
        core_m = _trusted_gate(cphi @ (mid @ cphi), 0.0)
        if gate is None:
            if _in_class(core_m, chamber, tol):
                return core
        else:
            # the core product M = e^{ib} P1 G(inner) P2 names the target's
            # class directly, or from the other side of the face c1 = pi/4
            p1, inner, p2, _ = _kak_locals(core_m)
            how = _class_match(inner, chamber, _SAME_CLASS_TOL)
            if how is not None:
                break
    else:
        reasons = infeasibility_reasons(chamber, p)
        if candidates:
            reasons.append(f"none of {len(candidates)} candidates verified")
        intervals = ", ".join(
            f"{branch} [{lo:.12g}, {hi:.12g}]"
            for branch, lo, hi in feasible_phi_intervals(chamber)
        )
        reasons.append(f"feasible phi: {intervals}")
        raise InfeasibleSynthesisError(
            f"no solution at phi = {_phi(p)!r} reaches target class "
            f"{tuple(chamber)}: " + "; ".join(reasons),
            candidates,
        )

    if how == "mirror":
        # the fold's fix-ups give G(inner) = e^{it} (la (x) lb) G(m)
        # (ra (x) rb) with m = (pi/2 - c1, c2, -c3), the target's point,
        # for the fold element K = (-1, 0, 0) (key 3 mod 4), pat (-1, 1, -1)
        left, right = _fixup_products((3, 0, 0), (-1, 1, -1), (0, 1, 2))
        p1, p2 = p1 @ left, right @ p2
    # with the target g = e^{ig} A1 G(chamber) A2 and M = e^{ib} P1 G(chamber) P2,
    #   g = e^{i(g-b)} (A1 P1+) M (P2+ A2)
    # where the phase is read off the overlap with g
    lead_top, lead_bottom = split_local(p2.conj().T @ a2)
    trail_top, trail_bottom = split_local(a1 @ p1.conj().T)
    # the circuit's own product, multiplied as _product multiplies it
    lead, trail = kron2(lead_top, lead_bottom), kron2(trail_top, trail_bottom)
    recon = trail @ (cphi @ (mid @ (cphi @ lead)))
    phase = float(np.angle((gate.matrix * recon.conj()).sum()))
    residual = np.abs(np.exp(1j * phase) * recon - gate.matrix).max()
    if residual > 1e-7:
        raise ConsistencyError(
            f"dressed circuit misses the target matrix by {residual:.3e}"
        )
    return Circuit(
        layers=(
            LocalLayer(top=lead_top, bottom=lead_bottom),
            *core.layers,
            LocalLayer(top=trail_top, bottom=trail_bottom),
        ),
        global_phase=phase,
    )


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


# the special classes and the branch the paper builds each on
_SPECIAL_CLASSES = {
    "cnot": ((QUARTER, 0.0, 0.0), "sols1"),
    "dcnot": ((QUARTER, QUARTER, 0.0), "sols2"),
}


def special_circuit(kind: str, p) -> Circuit:
    """Two-application circuits for the CNOT and DCNOT classes.

    The generic circuit on the paper's branch, where spe_params has a
    root on it (ValueError elsewhere); phi within 1e-12 of 0 or pi/4
    raises UnsupportedPhiError:

    cnot  sols1, (a, b) = (pi/4, 0): the middle layer collapses to
          e^{-i pi/4 sigma_2} (x) e^{-i pi/2 sigma_3}; 0 < phi < pi/4.
    dcnot sols2, a = pi/4 and cos 2b = -cot^2 2phi; pi/8 <= phi < pi/4.
    """
    if kind not in _SPECIAL_CLASSES:
        raise ValueError(f"unknown special circuit kind {kind!r}")
    target, branch = _SPECIAL_CLASSES[kind]
    chamber = reduce_to_weyl(target)
    sols = [s for s in spe_params(p, chamber) if s.branch == branch]
    if not sols:
        (why,) = [r for r in infeasibility_reasons(chamber, p) if r.startswith(branch)]
        raise ValueError(f"no {kind} circuit at phi = {_phi(p)!r}: {why}")
    return _core_circuit(chamber, sols[0])


def feasible_phi_profile(target, grid_size: int) -> list:
    """Synthesis feasibility over a uniform phi grid inside (0, pi/4).

    Returns [(phi, feasible), ...] for grid_size interior points; grid
    endpoints 0 and pi/4 are excluded since they are never admissible.
    phi is feasible when synthesis admits a branch there (_within);
    infeasibility_reasons says why each branch fails elsewhere.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    intervals = feasible_phi_intervals(target)
    grid = [(k + 1) * QUARTER / (grid_size + 1) for k in range(grid_size)]
    return [(phi, any(_within(phi, lo, hi) for _, lo, hi in intervals)) for phi in grid]


# JSON layer encoding: complex entries as [re, im] pairs


def _mat_to_lists(m) -> list:
    # the complex entries viewed as (re, im) float pairs
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(a.shape + (2,)).tolist()


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
