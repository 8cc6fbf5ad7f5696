from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import weylforge.canonical as canonical
from weylforge import (
    DEFAULT_TOLERANCES,
    CanonicalCoords,
    ConsistencyError,
    GateMatrix,
    canonical_gate,
    coords_equivalent,
    extract_coordinates,
    in_weyl_chamber,
    kak_decompose,
    kron2,
    reduce_to_weyl,
    spectral_phases,
)
from weylforge.invariants import MAGIC_FRAME, invariants_from_coords
from weylforge.linalg import PAULIS
from weylforge.gates import NAMED_GATES

from conftest import chamber_point, dressed, haar_su2, mirror_face_targets

QUARTER = np.pi / 4
HALF = np.pi / 2

# chamber coordinates of the built-in gates
KNOWN_COORDS = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (QUARTER, 0.0, 0.0),
    "dcnot": (QUARTER, QUARTER, 0.0),
    "b": (QUARTER, np.pi / 8, 0.0),
    "swap": (QUARTER, QUARTER, QUARTER),
    "sqrtswap": (np.pi / 8, np.pi / 8, np.pi / 8),
}


def _expm_oracle(c):
    """exp(-i sum c_k sigma_k x sigma_k) by eigendecomposition."""
    h = sum(ck * kron2(p, p) for ck, p in zip(c, PAULIS))
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-1j * w)) @ v.conj().T


def test_canonical_gate_matches_matrix_exponential():
    rng = np.random.default_rng(51)
    triples = [rng.uniform(-np.pi, np.pi, size=3) for _ in range(25)]
    triples += [(0, 0, 0), (QUARTER, 0, 0), (QUARTER, QUARTER, QUARTER)]
    for c in triples:
        g = canonical_gate(c)
        assert np.abs(g.matrix - _expm_oracle(c)).max() < 1e-12


def test_canonical_gate_is_symmetric():
    rng = np.random.default_rng(52)
    for _ in range(5):
        m = canonical_gate(rng.uniform(-np.pi, np.pi, size=3)).matrix
        assert np.abs(m - m.T).max() < 1e-14


def test_spectral_phases_match_magic_frame_diagonal():
    # Q^dag G Q is diagonal with entries exp(-i lam) in slot order
    # (lam1, lam4, lam3, lam2)
    rng = np.random.default_rng(53)
    for _ in range(10):
        c = rng.uniform(-np.pi, np.pi, size=3)
        lam = spectral_phases(c)
        d = MAGIC_FRAME.conj().T @ canonical_gate(c).matrix @ MAGIC_FRAME
        assert np.abs(d - np.diag(np.diag(d))).max() < 1e-10
        want = np.exp(-1j * np.array([lam.lam1, lam.lam4, lam.lam3, lam.lam2]))
        assert np.abs(np.diag(d) - want).max() < 1e-10


def test_spectral_phases_sum_to_zero_and_invert():
    rng = np.random.default_rng(54)
    for _ in range(10):
        c = rng.uniform(-np.pi, np.pi, size=3)
        lam = spectral_phases(c)
        assert abs(sum(lam)) < 1e-12
        back = (
            (lam.lam1 + lam.lam4) / 2,
            (lam.lam2 + lam.lam4) / 2,
            (lam.lam1 + lam.lam2) / 2,
        )
        assert np.abs(np.subtract(back, c)).max() < 1e-12


def test_in_weyl_chamber_predicate():
    assert in_weyl_chamber((0, 0, 0))
    assert in_weyl_chamber((QUARTER, QUARTER, QUARTER))
    assert in_weyl_chamber((0.3, 0.2, -0.1))
    assert not in_weyl_chamber((0.3, 0.4, 0.0))       # c2 > c1
    assert not in_weyl_chamber((QUARTER + 0.1, 0, 0))  # c1 too large
    assert not in_weyl_chamber((0.3, 0.1, 0.2))       # |c3| > c2


def test_reduce_is_idempotent_on_chamber_points():
    rng = np.random.default_rng(55)
    for _ in range(20):
        c = chamber_point(rng)
        r = reduce_to_weyl(c)
        assert np.abs(np.subtract(r, c)).max() < 1e-12


def test_reduce_lands_in_chamber_and_preserves_invariants():
    rng = np.random.default_rng(56)
    for _ in range(50):
        c = rng.uniform(-np.pi, np.pi, size=3)
        r = reduce_to_weyl(c)
        assert in_weyl_chamber(r, tol=1e-9)
        inv_c = invariants_from_coords(c)
        inv_r = invariants_from_coords(r)
        assert abs(inv_c.g1 - inv_r.g1) < 1e-9
        assert abs(inv_c.g2 - inv_r.g2) < 1e-9


def test_reduce_respects_coordinate_symmetries():
    rng = np.random.default_rng(57)
    half = np.pi / 2
    for _ in range(10):
        c = rng.uniform(-np.pi, np.pi, size=3)
        base = reduce_to_weyl(c)
        shifted = reduce_to_weyl(c + half * np.eye(3)[rng.integers(3)])
        flipped = reduce_to_weyl(c * np.array([1.0, -1.0, -1.0]))
        permuted = reduce_to_weyl(c[[2, 0, 1]])
        for other in (shifted, flipped, permuted):
            assert np.abs(np.subtract(base, other)).max() < 1e-12


def test_reduce_known_foldings():
    # exp(-i pi/2 XX) is a local gate
    assert np.abs(np.subtract(reduce_to_weyl((np.pi / 2, 0, 0)), (0, 0, 0))).max() < 1e-12
    # past the chamber wall the first coordinate folds back
    r = reduce_to_weyl((3 * np.pi / 8, 0, 0))
    assert np.abs(np.subtract(r, (np.pi / 8, 0, 0))).max() < 1e-12
    # on the c1 = pi/4 wall the sign of c3 is not part of the class
    r = reduce_to_weyl((QUARTER, 0.3, -0.1))
    assert np.abs(np.subtract(r, (QUARTER, 0.3, 0.1))).max() < 1e-12


# Reference fold: enumerate the 192 group elements that can reach the
# chamber (per-coordinate shift into [0, pi/2) with an optional extra
# -pi/2, four even sign patterns, six permutations) and keep the
# lexicographically greatest candidate inside the chamber.

_SIGN_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
_BOUNDARY_VALUES = (
    0.0, QUARTER, -QUARTER, np.pi / 2, -np.pi / 2, np.pi / 8, 3 * QUARTER, 0.3, -0.3
)


def _brute_force_reduce(c):
    base = np.mod(np.asarray(c, dtype=float), np.pi / 2)
    best = None
    for shifts in product((0.0, np.pi / 2), repeat=3):
        vals = base - np.array(shifts)
        for pat in _SIGN_PATTERNS:
            flipped = vals * np.array(pat)
            for perm in permutations(range(3)):
                cand = tuple(flipped[list(perm)])
                if in_weyl_chamber(cand) and (best is None or cand > best):
                    best = cand
    return canonical._snap_to_chamber(best)


def _fold_cases():
    rng = np.random.default_rng(63)
    cases = [rng.uniform(-2 * np.pi, 2 * np.pi, size=3) for _ in range(300)]
    cases += [np.array(c) for c in product(_BOUNDARY_VALUES, repeat=3)]
    return cases


def test_reduce_matches_brute_force_reference():
    for c in _fold_cases():
        got = reduce_to_weyl(c)
        want = _brute_force_reduce(c)
        assert np.abs(np.subtract(got, want)).max() < 1e-12, (c, got, want)


# chamber faces and edges through a chamber point (c1, c2, c3)
_FACES_AND_EDGES = (
    lambda c1, c2, c3: (c1, c2, c3),
    lambda c1, c2, c3: (QUARTER, c2, c3),
    lambda c1, c2, c3: (c1, c1, c3),
    lambda c1, c2, c3: (c1, c2, c2),
    lambda c1, c2, c3: (c1, c2, -c2),
    lambda c1, c2, c3: (c1, c2, 0.0),
    lambda c1, c2, c3: (c1, 0.0, 0.0),
    lambda c1, c2, c3: (c1, c1, c1),
    lambda c1, c2, c3: (c1, c1, -c1),
    lambda c1, c2, c3: (QUARTER, c2, c2),
    lambda c1, c2, c3: (QUARTER, c2, -c2),
    lambda c1, c2, c3: (QUARTER, QUARTER, c3),
    lambda c1, c2, c3: (QUARTER, c2, 0.0),
)


def _assert_fold_is_bit_idempotent(c):
    once = reduce_to_weyl(c)
    twice = reduce_to_weyl(once)
    assert [v.hex() for v in twice] == [v.hex() for v in once], (c, once, twice)


def test_fold_is_bit_idempotent_where_a_negative_c3_used_to_round():
    _assert_fold_is_bit_idempotent(
        (0.3643337675334865, 0.3247516106443723, -0.3247516106443723)
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from(_FACES_AND_EDGES),
    st.sampled_from(list(permutations(range(3)))),
    st.sampled_from(_SIGN_PATTERNS),
    st.integers(-2, 2),
)
def test_fold_is_bit_idempotent_on_faces_and_edges(u, v, w, face, perm, pat, k):
    # the face point itself, and an image of it under the folding group
    c1 = u * QUARTER
    c2 = v * c1
    point = np.array(face(c1, c2, w * c2))
    image = np.array(pat) * point[list(perm)]
    image[0] += k * np.pi / 2
    _assert_fold_is_bit_idempotent(point)
    _assert_fold_is_bit_idempotent(image)


def test_chamber_locals_replay_the_fold():
    for c in _fold_cases():
        rep, ops = canonical._reduce_with_ops(c)
        _, _, replayed = canonical._chamber_locals(c, *ops)
        assert np.abs(replayed - np.asarray(rep)).max() < 1e-10, (c, ops)


# Reference for the Python-float fold: the numpy fold it replaced, kept
# verbatim.  The two must agree bit for bit, ops included.
def _numpy_fold(c):
    c = np.asarray(c, dtype=float)
    # np.mod rather than a rounded quotient: -5.6e-17 maps to pi/2 and
    # then to an exact 0, not to a tiny negative coordinate
    vals = np.mod(c, HALF)
    vals = np.where(vals > QUARTER, vals - HALF, vals)
    K = np.round((vals - c) / HALF).astype(int)
    perm = [int(i) for i in np.argsort(-np.abs(vals), kind="stable")]
    pat = np.ones(3, dtype=int)
    for t in (0, 1):
        if vals[perm[t]] < 0:
            pat[[perm[t], perm[2]]] *= -1
    rep = (pat * vals)[perm]
    if rep[0] >= QUARTER - 1e-12 and rep[2] < 0:
        pat[[perm[0], perm[2]]] *= -1
        K[perm[0]] += pat[perm[0]]
        rep = np.array([HALF - rep[0], rep[1], -rep[2]])
    ops = (tuple(int(k) for k in K), tuple(int(s) for s in pat), tuple(perm))
    return tuple(float(v) for v in rep), ops


def _assert_fold_matches_numpy(c):
    rep, ops = canonical._reduce_with_ops(c)
    want_rep, want_ops = _numpy_fold(c)
    assert [v.hex() for v in rep] == [v.hex() for v in want_rep], c
    assert ops == want_ops, c
    assert all(type(v) is float for v in rep), c
    assert all(type(k) is int for part in ops for k in part), c


_SPECIAL_VALUES = (
    0.0, -0.0, QUARTER, -QUARTER, HALF, -HALF, np.pi, 1e-17, -1e-17,
    QUARTER + 1e-13, QUARTER - 1e-13, -5.6e-17, np.pi / 8,
)


def test_fold_matches_the_numpy_fold_on_random_and_special_triples():
    rng = np.random.default_rng(65)
    for c in rng.uniform(-4.0, 4.0, size=(2000, 3)):
        _assert_fold_matches_numpy(c)
    for c in product(_SPECIAL_VALUES, repeat=3):
        _assert_fold_matches_numpy(c)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.tuples(*(st.floats(-10.0, 10.0) for _ in range(3))))
def test_fold_matches_the_numpy_fold_property(c):
    _assert_fold_matches_numpy(c)


def test_extract_on_the_mirror_face():
    for t in mirror_face_targets():
        got = extract_coordinates(canonical_gate(t))
        assert np.abs(np.subtract(got, (QUARTER, t.c2, abs(t.c3)))).max() < 1e-8, t


def test_kak_on_the_mirror_face():
    rng = np.random.default_rng(64)
    for t in mirror_face_targets():
        want = (QUARTER, t.c2, abs(t.c3))
        for g in (canonical_gate(t).matrix, dressed(t, rng)):
            f = kak_decompose(g)
            assert np.abs(np.subtract(f.core, want)).max() < 1e-8, t
            recon = (
                np.exp(1j * f.global_phase)
                * kron2(f.a1, f.b1)
                @ canonical_gate(f.core).matrix
                @ kron2(f.a2, f.b2)
            )
            assert np.abs(recon - g).max() < 1e-7


def test_extract_folds_once(monkeypatch):
    calls = []
    fold = canonical.reduce_to_weyl

    def counting(c):
        calls.append(c)
        return fold(c)

    monkeypatch.setattr(canonical, "reduce_to_weyl", counting)
    rng = np.random.default_rng(65)
    for c in [chamber_point(rng) for _ in range(5)] + mirror_face_targets(count=5):
        calls.clear()
        extract_coordinates(dressed(c, rng))
        assert len(calls) == 1


def test_coords_equivalent():
    assert coords_equivalent((np.pi / 2, 0, 0), (0, 0, 0))
    assert coords_equivalent((3 * np.pi / 8, 0, 0), (np.pi / 8, 0, 0))
    assert not coords_equivalent((QUARTER, 0, 0), (QUARTER, QUARTER, 0))


def test_coords_equivalent_across_the_mirror_face():
    # (pi/4 - d, c2, c3) lies within d of the class (pi/4, c2, -c3); the
    # fold may name either side of the face, depending on rounding
    rng = np.random.default_rng(0)
    for d in (5e-13, 1e-12, 2e-12):
        for _ in range(200):
            c2 = rng.uniform(0.0, QUARTER)
            c3 = rng.uniform(-c2, c2)
            assert coords_equivalent((QUARTER - d, c2, c3), (QUARTER, c2, -c3)), (d, c2, c3)


def test_the_mirror_identifies_only_the_face():
    assert not coords_equivalent((0.6, 0.3, 0.1), (0.6, 0.3, -0.1))
    assert not coords_equivalent((QUARTER - 1e-6, 0.3, 0.1), (QUARTER, 0.3, -0.1))
    near = (QUARTER - 1e-12, 0.3, -0.1)
    assert canonical._class_match(near, near, 1e-9) == "direct"
    assert canonical._class_match(near, (QUARTER, 0.3, 0.1), 1e-9) == "mirror"
    assert canonical._class_match(near, (QUARTER, 0.3, 0.1 + 1e-8), 1e-9) is None


def test_chamber_locals_realize_the_mirror():
    # G(c) = e^{i t} (La (x) Lb) G(pi/2 - c1, c2, -c3) (Ra (x) Rb)
    rng = np.random.default_rng(1)
    for t in mirror_face_targets(count=10):
        c = (t.c1 - rng.uniform(0.0, 1e-12), t.c2, t.c3)
        (la, lb, ra, rb), phase, mirrored = canonical._chamber_locals(
            c, (-1, 0, 0), (-1, 1, -1), (0, 1, 2)
        )
        assert np.abs(mirrored - (np.pi / 2 - c[0], c[1], -c[2])).max() < 1e-15
        recon = (
            np.exp(1j * phase)
            * kron2(la, lb)
            @ canonical_gate(mirrored).matrix
            @ kron2(ra, rb)
        )
        assert np.abs(recon - canonical_gate(c).matrix).max() < 1e-14


@pytest.mark.parametrize("name,expected", sorted(KNOWN_COORDS.items()))
def test_extract_named_gate_coordinates(name, expected):
    got = extract_coordinates(NAMED_GATES[name])
    assert np.abs(np.subtract(got, expected)).max() < 1e-12


def test_extract_recovers_dressed_random_classes():
    rng = np.random.default_rng(58)
    worst = 0.0
    for _ in range(30):
        c = chamber_point(rng)
        got = extract_coordinates(dressed(c, rng))
        worst = max(worst, np.abs(np.subtract(got, c)).max())
    assert worst < 1e-8


def test_extract_ignores_global_phase():
    g = NAMED_GATES["b"]
    a = extract_coordinates(g)
    b = extract_coordinates(np.exp(1.3j) * np.asarray(g))
    assert np.abs(np.subtract(a, b)).max() < 1e-10


def test_kak_reassembles_the_gate():
    rng = np.random.default_rng(59)
    for _ in range(30):
        g = dressed(chamber_point(rng), rng)
        f = kak_decompose(g)
        recon = (
            np.exp(1j * f.global_phase)
            * kron2(f.a1, f.b1)
            @ canonical_gate(f.core).matrix
            @ kron2(f.a2, f.b2)
        )
        assert np.abs(recon - g).max() < 1e-7


def test_kak_core_is_a_chamber_point_with_unimodular_locals():
    rng = np.random.default_rng(60)
    for _ in range(10):
        f = kak_decompose(dressed(chamber_point(rng), rng))
        assert in_weyl_chamber(f.core, tol=1e-9)
        for loc in (f.a1, f.b1, f.a2, f.b2):
            assert abs(np.linalg.det(loc) - 1) < 1e-9
            assert not loc.flags.writeable


def test_kak_of_local_gate_has_trivial_core():
    rng = np.random.default_rng(61)
    f = kak_decompose(kron2(haar_su2(rng), haar_su2(rng)))
    assert np.abs(np.asarray(f.core)).max() < 1e-9


def test_kak_rejects_nonunitary_input():
    with pytest.raises(ValueError):
        kak_decompose(np.eye(4) * 1.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_rejected(bad):
    for c in ((bad, 0.0, 0.0), (0.1, bad, 0.0), (0.1, 0.0, bad)):
        with pytest.raises(ValueError, match="finite"):
            reduce_to_weyl(c)
        with pytest.raises(ValueError, match="finite"):
            canonical_gate(c)


@pytest.mark.parametrize("name", sorted(NAMED_GATES))
def test_kak_reassembles_the_named_gates(name):
    # degenerate Gram spectra, bare and dressed
    rng = np.random.default_rng(63)
    for g in (NAMED_GATES[name], dressed(KNOWN_COORDS[name], rng)):
        f = kak_decompose(g)
        recon = (
            np.exp(1j * f.global_phase)
            * kron2(f.a1, f.b1)
            @ canonical_gate(f.core).matrix
            @ kron2(f.a2, f.b2)
        )
        assert np.abs(recon - g).max() < 1e-12
        assert np.abs(np.subtract(f.core, KNOWN_COORDS[name])).max() < 1e-12


# ------------------------------------------------------ memo and fix-up table


def test_cached_arrays_reject_writes():
    rng = np.random.default_rng(120)
    g = GateMatrix(dressed(chamber_point(rng), rng))
    left, core, right, lam = canonical._kak_locals(g)
    assert canonical._kak_locals(g)[0] is left
    for arr in (left, right, lam, *canonical._fixup_products((1, 0, 3), (1, -1, -1), (2, 0, 1))):
        with pytest.raises(ValueError):
            arr[0] = 0
    # the class reading holds tuples only, and the gate takes no new slot values
    inv, coords = canonical._read_class(g, DEFAULT_TOLERANCES)
    assert canonical._read_class(g, DEFAULT_TOLERANCES)[1] is coords
    with pytest.raises(AttributeError):
        g._kak = None


def test_fixup_table_is_the_product_of_the_chamber_locals():
    # every key (K mod 4, even sign pattern, permutation) gives bit for
    # bit the products of _chamber_locals' locals, for K mod 4 and for
    # the negative shift of the same residue (raw cores have |K| <= 3)
    patterns = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
    keys = list(product(product(range(4), repeat=3), patterns, permutations(range(3))))
    assert len(keys) == 1536
    for k4, pat, perm in keys:
        left, right = canonical._fixup_products(k4, pat, perm)
        for K in (k4, tuple(k - 4 if k else 0 for k in k4)):
            (la, lb, ra, rb), _, _ = canonical._chamber_locals((0.3, 0.2, 0.1), K, pat, perm)
            assert left.tobytes() == kron2(la, lb).tobytes(), (K, pat, perm)
            assert right.tobytes() == kron2(ra, rb).tobytes(), (K, pat, perm)
    assert canonical._fixup_products.cache_info().currsize == 1536
