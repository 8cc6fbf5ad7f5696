import numpy as np
import pytest

from weylforge import (
    canonical_gate,
    extract_coordinates,
    kron2,
    reduce_to_weyl,
    spectral_phases,
)
from weylforge.linalg import eig_commuting_symmetric_pair, su4_normalize
from weylforge.invariants import (
    MAGIC_FRAME,
    invariants_from_coords,
    is_perfect_entangler,
    local_invariants,
    m_matrix,
)
from weylforge.entangle import MAGIC_STATES
from weylforge.gates import NAMED_GATES

from conftest import boundary_classes, chamber_point, dressed, haar_su2

QUARTER = np.pi / 4

# invariant pairs for the built-in gates
KNOWN_INVARIANTS = {
    "identity": (1 + 0j, 3.0),
    "cnot": (0j, 1.0),
    "dcnot": (0j, -1.0),
    "b": (0j, 0.0),
    "swap": (-1 + 0j, -3.0),
    "sqrtswap": (-0.25j, 0.0),
}


@pytest.mark.parametrize("name,expected", sorted(KNOWN_INVARIANTS.items()))
def test_named_gate_invariants(name, expected):
    inv = local_invariants(NAMED_GATES[name])
    assert abs(inv.g1 - expected[0]) < 1e-12
    assert abs(inv.g2 - expected[1]) < 1e-12


def test_magic_frame_is_unitary():
    assert np.abs(MAGIC_FRAME @ MAGIC_FRAME.conj().T - np.eye(4)).max() < 1e-15


def test_magic_frame_columns_are_signed_permuted_magic_states():
    perm = MAGIC_STATES[:, [0, 3, 2, 1]] @ np.diag([1.0, -1.0, 1.0, -1.0])
    assert np.abs(MAGIC_FRAME - perm).max() < 1e-15


def test_m_matrix_is_symmetric_unitary():
    rng = np.random.default_rng(41)
    for _ in range(5):
        m = m_matrix(dressed(chamber_point(rng), rng))
        assert np.abs(m - m.T).max() < 1e-12
        assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-12


def test_pair_solver_keeps_m_eigenvalues_on_the_unit_circle():
    rng = np.random.default_rng(45)
    for _ in range(5):
        m = m_matrix(dressed(chamber_point(rng), rng))
        pairs, _ = eig_commuting_symmetric_pair(m.real, m.imag)
        moduli = np.hypot(pairs[:, 0], pairs[:, 1])
        assert np.abs(moduli - 1.0).max() < 1e-9


def test_m_eigenvalue_phases_halve_to_the_spectral_phases():
    rng = np.random.default_rng(46)
    for _ in range(5):
        c = chamber_point(rng)
        ev = list(np.linalg.eigvals(m_matrix(canonical_gate(c))))
        for lam in spectral_phases(c):
            want = np.exp(-2j * lam)
            k = int(np.argmin([abs(e - want) for e in ev]))
            assert abs(ev[k] - want) < 1e-9
            del ev[k]


def test_invariants_unchanged_by_local_dressing():
    rng = np.random.default_rng(42)
    for _ in range(10):
        c = chamber_point(rng)
        base = local_invariants(canonical_gate(c))
        dress = local_invariants(dressed(c, rng))
        assert abs(base.g1 - dress.g1) < 1e-10
        assert abs(base.g2 - dress.g2) < 1e-10


def test_closed_form_matches_matrix_invariants():
    # the coordinate formulas hold for arbitrary triples, not just
    # chamber representatives
    rng = np.random.default_rng(43)
    for _ in range(30):
        c = rng.uniform(-np.pi, np.pi, size=3)
        inv_c = invariants_from_coords(c)
        inv_m = local_invariants(canonical_gate(c))
        assert abs(inv_c.g1 - inv_m.g1) < 1e-10
        assert abs(inv_c.g2 - inv_m.g2) < 1e-10


def test_perfect_entangler_named_gates():
    rng = np.random.default_rng(47)
    for name, want in (
        ("cnot", True),
        ("dcnot", True),
        ("b", True),
        ("sqrtswap", True),
        ("swap", False),
        ("identity", False),
    ):
        g = np.asarray(NAMED_GATES[name])
        members = [g] + [
            np.exp(1j * rng.uniform(-np.pi, np.pi))
            * kron2(haar_su2(rng), haar_su2(rng))
            @ g
            @ kron2(haar_su2(rng), haar_su2(rng))
            for _ in range(20)
        ]
        for member in members:
            assert is_perfect_entangler(member) == want, name
        assert is_perfect_entangler(extract_coordinates(g)) == want, name


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


def _hull_perfect_entangler(g) -> bool:
    """The spectral PE test the chamber-point test replaced, kept as the
    reference: the hull of the eigenvalues of m holds the origin."""
    return _hull_contains_origin(np.linalg.eigvals(m_matrix(su4_normalize(g))), tol=1e-9)


def _pe_plane_distance(c) -> float:
    c1, c2, c3 = reduce_to_weyl(c)
    return min(abs(c1 + c2 - QUARTER), abs(c2 + abs(c3) - QUARTER)) / np.sqrt(2)


def test_perfect_entangler_matches_the_hull_reference_off_the_planes():
    # the hull test's 1e-9 slack in eigenvalue units blurs the planes,
    # so the two agree only away from them, or exactly on them
    rng = np.random.default_rng(48)
    classes = [chamber_point(rng) for _ in range(500)] + boundary_classes(rng, 10)
    compared = 0
    for c in classes:
        dist = _pe_plane_distance(c)
        if 1e-15 < dist < 1e-6:
            continue
        g = dressed(c, rng)
        assert is_perfect_entangler(g) == _hull_perfect_entangler(g), c
        compared += 1
    assert compared >= 600


def _plane_band(plane: int, side: int, d: float, rng):
    """A class d off a PE plane, inside the polyhedron for side = +1 and
    outside for side = -1, and at least 0.05 from the other plane."""
    if plane == 1:  # c1 + c2 = pi/4
        c1 = rng.uniform(QUARTER / 2 + 0.05, QUARTER - 0.05)
        c2 = QUARTER - c1 + side * d
        return (c1, c2, rng.uniform(-c2, c2) / 2)
    # c2 + |c3| = pi/4
    c2 = rng.uniform(QUARTER / 2 + 0.05, QUARTER - 0.05)
    c3 = rng.choice([-1.0, 1.0]) * (QUARTER - c2 - side * d)
    return (rng.uniform(c2, QUARTER), c2, c3)


@pytest.mark.parametrize("plane", [1, 2])
@pytest.mark.parametrize("side", [1, -1])
def test_perfect_entangler_sides_of_each_plane_at_1e_10(plane, side):
    # the gate path and the coordinate-triple path
    wrong = []
    for seed in range(200):
        rng = np.random.default_rng([49, seed])
        c = _plane_band(plane, side, 1e-10, rng)
        for target in (dressed(c, rng), c):
            if is_perfect_entangler(target) != (side > 0):
                wrong.append(c)
    assert wrong == []


def _folding_image(c):
    """(c2, c1, c3) with the first two signs flipped and c3 shifted by
    pi/2: a permutation, an even sign flip and a shift, so one class."""
    c1, c2, c3 = c
    return (-c2, -c1, c3 + np.pi / 2)


def test_perfect_entangler_takes_a_coordinate_triple():
    rng = np.random.default_rng(50)
    for _ in range(200):
        c = chamber_point(rng)
        want = is_perfect_entangler(dressed(c, rng))
        assert is_perfect_entangler(c) == want, c
        assert is_perfect_entangler(list(_folding_image(c))) == want, c


@pytest.mark.parametrize(
    "bad", [np.zeros(2), np.zeros(4), np.eye(2), np.eye(3), np.zeros((3, 1)), 0.5]
)
def test_perfect_entangler_rejects_other_shapes(bad):
    with pytest.raises(ValueError, match="shape"):
        is_perfect_entangler(bad)


def test_perfect_entangler_rejects_local_gates():
    rng = np.random.default_rng(44)
    for _ in range(5):
        assert not is_perfect_entangler(kron2(haar_su2(rng), haar_su2(rng)))


def _controlled(theta):
    u = np.array(
        [
            [np.cos(theta), np.sin(theta) * np.exp(-0.4j)],
            [-np.sin(theta) * np.exp(0.4j), np.cos(theta)],
        ]
    )
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = u
    return g


def test_perfect_entangler_boundary_of_controlled_family():
    # the controlled family [x, 0, 0] touches the perfect-entangler
    # region only at x = pi/4, i.e. theta = pi/2
    assert is_perfect_entangler(_controlled(np.pi / 2))
    assert not is_perfect_entangler(_controlled(np.pi / 2 - 0.02))
    assert not is_perfect_entangler(_controlled(np.pi / 2 + 0.02))


def test_invariants_of_controlled_family_relation():
    for theta in (0.3, 0.7, 1.1):
        inv = local_invariants(_controlled(theta))
        assert abs(inv.g1 - np.cos(theta) ** 2) < 1e-12
        assert abs(inv.g2 - (2 * np.cos(theta) ** 2 + 1)) < 1e-12
