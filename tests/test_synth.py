import itertools
import json
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylforge import (
    Circuit,
    GateMatrix,
    InfeasibleSynthesisError,
    LocalLayer,
    NonlocalLayer,
    SpeParams,
    UnsupportedPhiError,
    circuit_from_dict,
    circuit_matrix,
    circuit_to_dict,
    extract_coordinates,
    feasible_phi_intervals,
    feasible_phi_profile,
    infeasibility_reasons,
    is_perfect_entangler,
    kak_decompose,
    kron2,
    reduce_to_weyl,
    spe_params,
    special_circuit,
    synthesize,
    verify_equivalence,
)
from weylforge.canonical import _SAME_CLASS_TOL, _class_match
from weylforge.invariants import invariants_from_coords, local_invariants
from weylforge.linalg import rot_x, rot_y
from weylforge.gates import NAMED_GATES
from weylforge.synth import SynthesisSolution, _branch_roots, _core_circuit

from conftest import boundary_classes, chamber_point, dressed, mirror_face_targets

QUARTER = np.pi / 4
EIGHTH = np.pi / 8


def b_gate_params(c2, c3):
    """Reference: the dedicated pi/8 (B gate) formula of the sols2 branch.

        sin 2a = sqrt( cos2c2 cos2c3 / (1 - 2 sin^2 c2 cos^2 c3) )
        cos 2b = 1 - 4 sin^2 c2 cos^2 c3

    Principal values a, b in [0, pi/2] for a chamber point.  The
    denominator vanishes with the numerator at the DCNOT corner, where
    a drops out of the circuit and is fixed to 0.
    """
    num = np.cos(2 * c2) * np.cos(2 * c3)
    den = 1.0 - 2.0 * np.sin(c2) ** 2 * np.cos(c3) ** 2
    cos2b = 1.0 - 4.0 * np.sin(c2) ** 2 * np.cos(c3) ** 2
    b = 0.5 * np.arccos(np.clip(cos2b, -1.0, 1.0))
    if abs(den) <= 1e-12:
        return 0.0, float(b)
    a = 0.5 * np.arcsin(np.sqrt(np.clip(num / den, 0.0, 1.0)))
    return float(a), float(b)


def _sols2_at_the_b_gate(c2, c3):
    (sol,) = [s for s in spe_params(EIGHTH, (QUARTER, c2, c3)) if s.branch == "sols2"]
    return sol


def test_b_gate_params_at_the_family_corners():
    # the cnot column, (a, b) = (pi/4, 0), and the dcnot column, where
    # 0/0 resolves to a = 0 and arccos near -1 amplifies rounding to
    # sqrt(eps): the reference and the sols2 root agree with both
    for c2, a_want, b_want, b_tol in (
        (0.0, QUARTER, 0.0, 1e-12),
        (QUARTER, 0.0, np.pi / 2, 1e-7),
    ):
        sol = _sols2_at_the_b_gate(c2, 0.0)
        for a, b in (b_gate_params(c2, 0.0), (sol.a, sol.b)):
            assert abs(a - a_want) < 1e-12
            assert abs(b - b_want) < b_tol


def test_b_gate_params_agrees_with_general_branch_roots():
    # at phi = pi/8 the second branch reduces to the dedicated formulas
    rng = np.random.default_rng(91)
    for _ in range(25):
        c2 = rng.uniform(0.0, QUARTER)
        c3 = rng.uniform(0.0, c2)
        a_ref, b_ref = b_gate_params(c2, c3)
        sol = _sols2_at_the_b_gate(c2, c3)
        assert abs(np.sin(2 * sol.a) - np.sin(2 * a_ref)) < 1e-10
        assert abs(np.cos(2 * sol.b) - np.cos(2 * b_ref)) < 1e-10


def test_solutions_satisfy_the_matching_equation():
    # |cos 2a sin 2b sin 4phi| must reproduce |sin 2c2 sin 2c3|
    rng = np.random.default_rng(92)
    for phi in (EIGHTH, 0.3):
        for _ in range(10):
            c = reduce_to_weyl(chamber_point(rng))
            for s in spe_params(phi, c):
                lhs = abs(np.cos(2 * s.a) * np.sin(2 * s.b) * np.sin(4 * phi))
                rhs = abs(np.sin(2 * c.c2) * np.sin(2 * c.c3))
                assert abs(lhs - rhs) < 1e-8


def test_solutions_satisfy_the_signed_matching_equation():
    # cos 2a sin 2b sin 4phi = sin 2c2 sin 2c3, sign included: the
    # quadrant of (a, b) is fixed by it, not searched
    rng = np.random.default_rng(99)
    classes = [chamber_point(rng) for _ in range(20)] + boundary_classes(rng, 2)
    for phi in (EIGHTH, 0.3, 0.5):
        for target in classes:
            c = reduce_to_weyl(target)
            for s in spe_params(phi, c):
                lhs = np.cos(2 * s.a) * np.sin(2 * s.b) * np.sin(4 * phi)
                rhs = np.sin(2 * c.c2) * np.sin(2 * c.c3)
                assert abs(lhs - rhs) < 1e-8, (c, phi, s)


def test_spe_params_gives_one_solution_per_feasible_branch():
    rng = np.random.default_rng(100)
    for _ in range(20):
        c = reduce_to_weyl(chamber_point(rng))
        for phi in (EIGHTH, 0.3):
            sols = spe_params(phi, c)
            roots, failures = _branch_roots(phi, c.c2, c.c3)
            assert [s.branch for s in sols] == [r[0] for r in roots]
            assert len(sols) + len(failures) == 2


def test_phi_endpoints_are_rejected():
    for phi in (0.0, QUARTER):
        with pytest.raises(UnsupportedPhiError):
            spe_params(phi, (QUARTER, 0.1, 0.0))
        with pytest.raises(UnsupportedPhiError):
            synthesize((QUARTER, 0.1, 0.0), phi)


@pytest.mark.parametrize("phi", [None, "0.3", [0.3], np.array([0.3]), 0.3j])
def test_a_phi_that_is_not_a_real_number_is_rejected(phi):
    with pytest.raises(ValueError, match="phi must be a real number"):
        spe_params(phi, (QUARTER, 0.1, 0.0))
    with pytest.raises(ValueError, match="phi must be a real number"):
        synthesize((QUARTER, 0.1, 0.0), phi)
    with pytest.raises(ValueError, match="phi must be a real number"):
        SpeParams(phi)


def test_synthesize_random_chamber_targets():
    rng = np.random.default_rng(93)
    for _ in range(25):
        c = chamber_point(rng)
        circ = synthesize(c, EIGHTH)
        assert circ.nonlocal_count() == 2
        assert verify_equivalence(circ, c)


def test_synthesize_mirror_face_targets_at_the_b_gate():
    for t in mirror_face_targets():
        circ = synthesize(t, EIGHTH)
        assert circ.nonlocal_count() == 2
        assert verify_equivalence(circ, t)


def _assert_face_dressing_synthesizes(c, g):
    # extraction names the class of c (from either side of the face),
    # and the dressed circuit reproduces g itself
    got = extract_coordinates(g)
    assert _class_match(got, reduce_to_weyl(c), _SAME_CLASS_TOL) is not None, (c, got)
    circ = synthesize(g, EIGHTH)
    assert circ.nonlocal_count() == 2
    assert np.abs(circuit_matrix(circ).matrix - g).max() < 1e-7, c


@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-12, 1e-10])
def test_dressed_gates_at_the_mirror_face_synthesize(offset):
    # at offset 1e-12 the fold's face test rep[0] >= pi/4 - 1e-12 is
    # decided by rounding, so the target and the circuit may be named
    # from opposite sides of the face; seeds 9, 36, 38, 42, 135, 136,
    # 151 and 168 are such dressings
    for seed in range(200):
        rng = np.random.default_rng(seed)
        c2 = rng.uniform(0.0, QUARTER)
        c3 = rng.uniform(-c2, c2)
        c = (QUARTER - offset, c2, c3)
        _assert_face_dressing_synthesizes(c, dressed(c, rng))


_MIRROR_FACE_AND_EDGES = (
    lambda t, u: (t, u),
    lambda t, u: (t, t),
    lambda t, u: (t, -t),
    lambda t, u: (QUARTER, u),
    lambda t, u: (t, 0.0),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from(_MIRROR_FACE_AND_EDGES),
    st.sampled_from([0.0, 1e-14, 1e-12, 1e-10]),
    st.integers(0, 2**32 - 1),
)
def test_dressed_gates_at_the_mirror_face_synthesize_property(v, w, edge, offset, seed):
    t = v * QUARTER
    c = (QUARTER - offset, *edge(t, w * t))
    _assert_face_dressing_synthesizes(c, dressed(c, np.random.default_rng(seed)))


def test_synthesize_accepts_params_object_and_identity_target():
    circ = synthesize((0.0, 0.0, 0.0), SpeParams(EIGHTH))
    assert circ.nonlocal_count() == 2
    assert verify_equivalence(circ, (0.0, 0.0, 0.0))


def test_synthesize_matrix_target_reproduces_the_matrix():
    rng = np.random.default_rng(94)
    for _ in range(10):
        g = dressed(chamber_point(rng), rng)
        circ = synthesize(g, EIGHTH)
        assert circ.nonlocal_count() == 2
        assert np.abs(circuit_matrix(circ).matrix - g).max() < 1e-7


def test_synthesize_rejects_malformed_targets():
    with pytest.raises(ValueError):
        synthesize(np.eye(2), EIGHTH)
    with pytest.raises(ValueError):
        synthesize("swap", EIGHTH)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_synthesize_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        synthesize((bad, 0.1, 0.0), EIGHTH)


def test_noisy_dressed_gates_synthesize_without_consistency_errors():
    # dressed gates plus complex Gaussian noise of log-uniform amplitude
    # in [1e-12, 10^-9.5]; those within the default unitarity tolerance
    # (387 of 400) must decompose and synthesize, reproducing the gate
    # that passed validation
    rng = np.random.default_rng(3)
    accepted = 0
    for _ in range(400):
        c = chamber_point(rng)
        u = dressed(c, rng)
        amplitude = 10 ** rng.uniform(-12, -9.5)
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        try:
            g = GateMatrix(u + amplitude * noise)
        except ValueError:
            continue
        accepted += 1
        kak_decompose(g)
        circ = synthesize(g, EIGHTH)
        assert np.abs(circuit_matrix(circ).matrix - g.matrix).max() < 1e-7
    assert accepted == 387


@pytest.mark.parametrize(
    "coords",
    [
        # 2 c_k at atan r of each weight (3 pi/7, 2 pi/7, pi/7 mod pi)
        (3 * np.pi / 14, np.pi / 7, np.pi / 14),
        (3 * np.pi / 14, np.pi / 7, -np.pi / 14),
        # the same for the weights r = 1.4656, 0.7549 and -0.5437
        (np.arctan(1.4655712318767680) / 2, np.arctan(0.7548776662466927) / 2,
         np.arctan(0.5436890126920764) / 2),
        (np.arctan(1.4655712318767680) / 2, np.arctan(0.7548776662466927) / 2,
         -np.arctan(0.5436890126920764) / 2),
    ],
)
def test_classes_whose_gram_pairs_merge_under_several_weights(coords):
    rng = np.random.default_rng(64)
    for _ in range(3):
        g = dressed(coords, rng)
        f = kak_decompose(g)
        assert np.abs(np.subtract(f.core, coords)).max() < 1e-9
        circ = synthesize(g, EIGHTH)
        assert np.abs(circuit_matrix(circ).matrix - g).max() < 1e-7


def test_trusted_gates_are_checked_once(monkeypatch):
    # a GateMatrix is validated where it is built from a raw array; the
    # circuits synthesize builds are unitary by construction and are not
    # checked again, while circuit_matrix stays a boundary for circuits
    # read from JSON
    counts = {"validations": 0}
    validate = GateMatrix.__init__

    def counting_validate(self, *args, **kwargs):
        counts["validations"] += 1
        validate(self, *args, **kwargs)

    monkeypatch.setattr(GateMatrix, "__init__", counting_validate)
    rng = np.random.default_rng(95)
    g = GateMatrix(dressed(chamber_point(rng), rng))
    extract_coordinates(g)
    assert counts["validations"] == 1
    circ = synthesize(g, EIGHTH)
    assert counts["validations"] == 1
    circuit_matrix(circ)
    assert counts["validations"] == 2


def _count_calls(monkeypatch, names):
    """Count calls of the named "module.function"s of weylforge, through
    every weylforge module that binds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.startswith("weylforge")]
    for name in names:
        home, fn = name.split(".")
        original = getattr(sys.modules[f"weylforge.{home}"], fn)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, attr, wrapper)
    return counts


_SYNTHESIS_TRAFFIC = (
    "linalg._joint_diagonalize",
    "linalg.split_local",
    "canonical._read_class",
    "canonical.kak_decompose",
    "spe.spe_gate",
)


def test_matrix_synthesis_decomposes_each_matrix_once(monkeypatch):
    # one reading of the target, one of the core product, each the basis
    # of its decomposition, one split per outer layer, and C[phi] built once
    rng = np.random.default_rng(105)
    g = GateMatrix(dressed(chamber_point(rng), rng))
    counts = _count_calls(monkeypatch, _SYNTHESIS_TRAFFIC)
    synthesize(g, EIGHTH)
    assert counts == {
        "linalg._joint_diagonalize": 2,
        "linalg.split_local": 2,
        "canonical._read_class": 2,
        "canonical.kak_decompose": 0,
        "spe.spe_gate": 1,
    }


def test_coordinate_synthesis_keeps_the_class_test(monkeypatch):
    # a coordinate target has no matrix to dress, so the class test of
    # verify_equivalence certifies its circuit
    counts = _count_calls(monkeypatch, _SYNTHESIS_TRAFFIC)
    synthesize((0.6, 0.45, 0.25), EIGHTH)
    assert counts == {
        "linalg._joint_diagonalize": 1,
        "linalg.split_local": 0,
        "canonical._read_class": 1,
        "canonical.kak_decompose": 0,
        "spe.spe_gate": 1,
    }


_OFF_FACE = (
    # c1 = pi/4 (the mirror face), c1 = c2, c2 = |c3| with either sign
    lambda t, u, d: (QUARTER - d, t, u),
    lambda t, u, d: (t, t - d, float(np.clip(u, d - t, t - d))),
    lambda t, u, d: (t, abs(u), abs(u) - d),
    lambda t, u, d: (t, abs(u), d - abs(u)),
)


@pytest.mark.parametrize("noise", [0.0, 1e-10])
@pytest.mark.parametrize("face", range(len(_OFF_FACE)))
def test_dressed_gates_on_and_near_the_faces_synthesize(face, noise):
    # the class test on the core's chamber point must hold up where the
    # fold is decided by rounding: on each face and 1e-14 to 1e-8 inside
    # it, with and without input noise (largest entry 1e-10)
    for seed in range(12):
        rng = np.random.default_rng([106, face, seed])
        t = rng.uniform(0.0, QUARTER)
        u = rng.uniform(-t, t)
        for d in (0.0, 1e-14, 1e-12, 1e-10, 1e-8):
            c = _OFF_FACE[face](t, u, d)
            u_in = dressed(c, rng)
            e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            g = GateMatrix(u_in + noise * e / np.abs(e).max())
            circ = synthesize(g, EIGHTH)
            assert circ.nonlocal_count() == 2
            assert np.abs(circuit_matrix(circ).matrix - g.matrix).max() < 1e-7, (c, seed)


def _assert_names_the_distance(message, offset):
    # each branch's line says how far phi lies outside its interval
    side = "above" if offset > 0 else "below"
    for branch in ("sols1", "sols2"):
        assert re.search(
            rf"{branch}: [^;]*phi lies {abs(offset):.3g} {side} its interval", message
        ), message


@pytest.mark.parametrize("offset", [-1e-6, -1e-7, 1e-7, 1e-6])
def test_dressed_swap_misses_phi_next_to_pi8(offset):
    # a matrix target next to pi/8 gets no candidate and reports that as
    # infeasible, not as an internal fault
    for seed in range(5):
        rng = np.random.default_rng([107, seed])
        g = dressed((QUARTER, QUARTER, QUARTER), rng)
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize(g, EIGHTH + offset)
        assert exc.value.candidates == []
        _assert_names_the_distance(str(exc.value), offset)


def test_swap_is_out_of_reach_away_from_the_b_class():
    with pytest.raises(InfeasibleSynthesisError) as exc:
        synthesize((QUARTER, QUARTER, QUARTER), 0.05)
    assert isinstance(exc.value.candidates, list)
    # ... and reachable exactly at phi = pi/8
    circ = synthesize((QUARTER, QUARTER, QUARTER), EIGHTH)
    assert verify_equivalence(circ, (QUARTER, QUARTER, QUARTER))


def test_generic_targets_fail_near_the_phi_endpoints():
    # with both trailing coordinates nonzero, the required cos^2(2a)
    # blows up as phi approaches either end of the entangler family, so
    # near-endpoint gates cannot reach generic classes in two
    # applications
    target = (0.6, 0.45, 0.25)
    for phi in (1e-6, QUARTER - 1e-6):
        with pytest.raises(InfeasibleSynthesisError):
            synthesize(target, phi)


def test_feasible_phi_profile_for_swap_and_cnot():
    profile = feasible_phi_profile((QUARTER, QUARTER, QUARTER), 31)
    assert len(profile) == 31
    feasible = [phi for phi, ok in profile if ok]
    assert len(feasible) == 1
    assert abs(feasible[0] - EIGHTH) < 1e-15
    profile = feasible_phi_profile((QUARTER, 0.0, 0.0), 31)
    assert all(ok for _, ok in profile)


def _scanned_phi_profile(target, grid_size):
    """Reference: the profile by synthesizing at every grid phi."""
    profile = []
    for k in range(grid_size):
        phi = (k + 1) * QUARTER / (grid_size + 1)
        try:
            synthesize(target, phi)
        except InfeasibleSynthesisError:
            profile.append((phi, False))
        else:
            profile.append((phi, True))
    return profile


def test_feasible_phi_profile_matches_the_synthesis_scan_on_random_classes():
    rng = np.random.default_rng(96)
    for _ in range(30):
        c = chamber_point(rng)
        assert feasible_phi_profile(c, 31) == _scanned_phi_profile(c, 31)


def test_feasible_phi_profile_matches_the_synthesis_scan_on_faces_and_edges():
    rng = np.random.default_rng(97)
    for c in boundary_classes(rng, 4):
        assert feasible_phi_profile(c, 31) == _scanned_phi_profile(c, 31), c


_FACES = (
    lambda c1, c2, c3: (c1, c2, c3),
    lambda c1, c2, c3: (QUARTER, c2, c3),
    lambda c1, c2, c3: (c1, c1, c3),
    lambda c1, c2, c3: (c1, c2, c2),
    lambda c1, c2, c3: (c1, c2, -c2),
    lambda c1, c2, c3: (c1, c2, 0.0),
    lambda c1, c2, c3: (QUARTER, c2, 0.0),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from(_FACES),
)
def test_feasible_phi_profile_matches_the_synthesis_scan_property(u, v, w, face):
    c1 = u * QUARTER
    c2 = v * c1
    c = face(c1, c2, w * c2)
    assert feasible_phi_profile(c, 31) == _scanned_phi_profile(c, 31)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from(_FACES),
)
def test_feasible_phi_intervals_are_the_branch_roots_property(u, v, w, face):
    c1 = u * QUARTER
    c2 = v * c1
    chamber = reduce_to_weyl(face(c1, c2, w * c2))
    intervals = feasible_phi_intervals(chamber)
    assert [branch for branch, _, _ in intervals] == ["sols1", "sols2"]
    # the paper's claim in closed form: pi/8 reaches every class
    assert any(lo <= EIGHTH <= hi for _, lo, hi in intervals)
    # a phi grid, and 1e-13 to 1e-6 to either side of each end; a branch
    # has a root exactly within 1e-12 of its interval
    offsets = (-1e-6, -1e-7, -1e-10, -1e-13, 1e-13, 1e-10, 1e-7, 1e-6)
    ends = [e + d for _, lo, hi in intervals for e in (lo, hi) for d in offsets]
    for phi in _grid(40) + [e for e in ends if 1e-12 < e < QUARTER - 1e-12]:
        roots = {r[0] for r in _branch_roots(phi, chamber.c2, chamber.c3)[0]}
        for branch, lo, hi in intervals:
            within = lo - 1e-12 <= phi <= hi + 1e-12
            assert within == (branch in roots), (chamber, phi, branch)


def test_feasible_phi_intervals_of_the_named_classes():
    s1 = np.pi / 16
    named = {
        "sqrtswap": ((EIGHTH, EIGHTH, EIGHTH), [(s1, 3 * s1), (s1, 3 * s1)]),
        "cnot": ((QUARTER, 0.0, 0.0), [(0.0, QUARTER), (0.0, QUARTER)]),
        "dcnot": ((QUARTER, QUARTER, 0.0), [(0.0, EIGHTH), (EIGHTH, QUARTER)]),
    }
    for name, (c, want) in named.items():
        got = feasible_phi_intervals(c)
        assert [branch for branch, _, _ in got] == ["sols1", "sols2"], name
        for (_, lo, hi), (lo_want, hi_want) in zip(got, want):
            assert abs(lo - lo_want) < 1e-12 and abs(hi - hi_want) < 1e-12, name
    # swap: both branches at pi/8 alone
    swap = (QUARTER, QUARTER, QUARTER)
    for _, lo, hi in feasible_phi_intervals(swap):
        assert lo <= EIGHTH <= hi and hi - lo < 1e-8


def test_swap_misses_phi_next_to_pi8():
    # both of swap's intervals are the point pi/8, so 1e-7 or 1e-6 from it
    # no branch has a root, and the error says how far phi lies outside
    swap = (QUARTER, QUARTER, QUARTER)
    for offset in (-1e-6, -1e-7, 1e-7, 1e-6):
        assert spe_params(EIGHTH + offset, swap) == []
        with pytest.raises(InfeasibleSynthesisError) as exc:
            synthesize(swap, EIGHTH + offset)
        _assert_names_the_distance(str(exc.value), offset)


def test_every_interval_end_synthesizes():
    # the ends are where the closed form is most sensitive, above all for
    # small |c3| and near the identity, where a matrix's chamber point
    # can sit an ulp outside the planted class's end: there the admitted
    # root must build a circuit that verifies, for a coordinate target
    # and for a dressed matrix of the class alike
    rng = np.random.default_rng(108)
    classes = [chamber_point(rng) for _ in range(40)] + boundary_classes(rng, 2)
    for _ in range(40):
        c1, c2, c3 = chamber_point(rng)
        classes.append((c1, c2, c3 * 10.0 ** rng.uniform(-9, 0)))
    classes.append((2.09e-3, 1.28e-5, 1.28e-5))
    for c in classes:
        ends = [(lo, lo + 1e-13, hi, hi - 1e-13) for _, lo, hi in feasible_phi_intervals(c)]
        for phi in [e for e in sum(ends, ()) if 1e-12 < e < QUARTER - 1e-12]:
            assert verify_equivalence(synthesize(c, phi), c), (c, phi)
            g = GateMatrix(dressed(c, rng))
            circ = synthesize(g, phi)
            assert np.abs(circuit_matrix(circ).matrix - g.matrix).max() < 1e-7, (c, phi)


def _enumerated_choice(target, phi):
    """Reference: the middle-layer quadrant by search, not closed form.

    Expands each feasible branch root into the eight sign variants
    a in {a0, -a0, pi/2 - a0, a0 - pi/2}, b in {b0, -b0}, in that
    order, screens each by its local invariants and returns the first
    that verify_equivalence accepts, or None.
    """
    chamber = reduce_to_weyl(target)
    want = invariants_from_coords(chamber)
    for branch, a0, b0 in _branch_roots(phi, chamber.c2, chamber.c3)[0]:
        for a in (a0, -a0, np.pi / 2 - a0, a0 - np.pi / 2):
            for b in (b0, -b0):
                sol = SynthesisSolution(phi=phi, a=float(a), b=float(b), branch=branch)
                core = _core_circuit(chamber, sol)
                got = local_invariants(circuit_matrix(core))
                if abs(got.g1 - want.g1) > 1e-8 or abs(got.g2 - want.g2) > 1e-8:
                    continue
                if verify_equivalence(core, chamber):
                    return sol
    return None


def _assert_matches_the_enumeration(target, phi):
    ref = _enumerated_choice(target, phi)
    try:
        circ = synthesize(target, phi)
    except InfeasibleSynthesisError:
        assert ref is None, (target, phi)
        return
    assert ref is not None, (target, phi)
    chamber = reduce_to_weyl(target)
    got = circuit_to_dict(circ)
    sol = next(
        s for s in spe_params(phi, chamber)
        if circuit_to_dict(_core_circuit(chamber, s)) == got
    )
    assert (sol.branch, sol.a) == (ref.branch, ref.a), (target, phi)
    # within 1e-7 of c3 = 0 the search kept b0 whatever the sign of c3
    if abs(chamber.c3) > 1e-7:
        assert sol.b == ref.b, (target, phi)


def _grid(size=31):
    return [(k + 1) * QUARTER / (size + 1) for k in range(size)]


def test_synthesis_matches_the_enumeration_on_random_classes():
    rng = np.random.default_rng(101)
    for _ in range(30):
        c = chamber_point(rng)
        for phi in _grid():
            _assert_matches_the_enumeration(c, phi)


def test_synthesis_matches_the_enumeration_on_faces_and_edges():
    rng = np.random.default_rng(102)
    for c in boundary_classes(rng, 4):
        for phi in _grid():
            _assert_matches_the_enumeration(c, phi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.sampled_from(_FACES),
    st.floats(0.01, QUARTER - 0.01),
)
def test_synthesis_matches_the_enumeration_property(u, v, w, face, phi):
    c1 = u * QUARTER
    c2 = v * c1
    _assert_matches_the_enumeration(face(c1, c2, w * c2), phi)


def test_infeasibility_reasons_name_each_failing_branch():
    swap = (QUARTER, QUARTER, QUARTER)
    assert infeasibility_reasons(swap, EIGHTH) == []
    low = infeasibility_reasons(swap, 0.05)
    assert [r.split(":")[0] for r in low] == ["sols1", "sols2"]
    assert all("cos 2b = " in r and "outside [-1, 1] by" in r for r in low)
    high = infeasibility_reasons(swap, 0.3)
    assert [r.split(":")[0] for r in high] == ["sols1", "sols2"]
    assert all("cos^2 2a = " in r and "> 1 by" in r for r in high)
    rng = np.random.default_rng(98)
    for _ in range(10):
        assert infeasibility_reasons(chamber_point(rng), EIGHTH) == []


def test_infeasible_synthesis_error_names_the_violated_conditions():
    with pytest.raises(InfeasibleSynthesisError) as exc:
        synthesize((QUARTER, QUARTER, QUARTER), 0.3)
    message = str(exc.value)
    for reason in infeasibility_reasons((QUARTER, QUARTER, QUARTER), 0.3):
        assert reason in message


def test_infeasible_synthesis_error_names_the_feasible_intervals():
    target = (0.6, 0.45, 0.25)
    with pytest.raises(InfeasibleSynthesisError) as exc:
        synthesize(target, 0.05)
    message = str(exc.value)
    for reason in infeasibility_reasons(target, 0.05):
        assert reason in message
    # sols1 [|c3|/2, pi/4 - c2/2], sols2 [c2/2, pi/4 - |c3|/2]
    assert "feasible phi: sols1 [0.125, 0.560398163397], sols2 [0.225, 0.660398163397]" in message


def test_feasible_phi_profile_validates_grid():
    with pytest.raises(ValueError):
        feasible_phi_profile((QUARTER, 0.0, 0.0), 1)


def test_special_circuit_cnot_family():
    for phi in np.linspace(0.03, QUARTER - 0.03, 10):
        circ = special_circuit("cnot", phi)
        assert circ.nonlocal_count() == 2
        assert verify_equivalence(circ, (QUARTER, 0.0, 0.0))


def test_special_circuit_dcnot_family():
    for phi in np.linspace(EIGHTH, QUARTER - 0.02, 10):
        circ = special_circuit("dcnot", phi)
        assert circ.nonlocal_count() == 2
        assert verify_equivalence(circ, (QUARTER, QUARTER, 0.0))


@pytest.mark.parametrize("phi", [1e-11, 1e-9, 1e-7, 2e-7, QUARTER - 1e-9])
def test_cnot_synthesizes_near_the_phi_endpoints(phi):
    # 1 - cos 4phi vanishes by subtraction below phi ~ 1e-8 and read as
    # cos 2b = -1 up to phi ~ 2.5e-7; CNOT is reachable at every phi
    cnot = (QUARTER, 0.0, 0.0)
    for circ in (synthesize(cnot, phi), special_circuit("cnot", phi)):
        assert circ.nonlocal_count() == 2
        assert verify_equivalence(circ, cnot)


def test_special_circuit_range_checks():
    for phi in (0.0, QUARTER):
        with pytest.raises(ValueError):
            special_circuit("cnot", phi)
    for phi in (EIGHTH - 0.05, QUARTER):
        with pytest.raises(ValueError):
            special_circuit("dcnot", phi)
    with pytest.raises(ValueError):
        special_circuit("swap", EIGHTH)


def test_circuit_matrix_applies_layers_left_to_right():
    first = LocalLayer(rot_y(0.3), np.eye(2))
    second = LocalLayer(rot_x(0.4), np.eye(2))
    total = circuit_matrix(Circuit(layers=(first, second))).matrix
    assert np.abs(total - kron2(rot_x(0.4) @ rot_y(0.3), np.eye(2))).max() < 1e-14


def test_circuit_global_phase_enters_the_matrix():
    layer = LocalLayer(np.eye(2), np.eye(2))
    total = circuit_matrix(Circuit(layers=(layer,), global_phase=0.9)).matrix
    assert np.abs(total - np.exp(0.9j) * np.eye(4)).max() < 1e-14


def test_circuit_matrix_rejects_a_non_unitary_circuit_read_from_json():
    rng = np.random.default_rng(104)
    g = dressed(chamber_point(rng), rng)
    data = json.loads(json.dumps(circuit_to_dict(synthesize(g, EIGHTH))))
    circuit_matrix(circuit_from_dict(data))
    lead = data["layers"][0]
    lead["top"] = (1.01 * np.asarray(lead["top"])).tolist()
    with pytest.raises(ValueError, match="not unitary"):
        circuit_matrix(circuit_from_dict(data))


def test_local_layer_matrices_are_read_only():
    layer = LocalLayer(rot_y(0.3), rot_x(0.1))
    with pytest.raises(ValueError):
        layer.top[0, 0] = 0.0


def test_nonlocal_layer_carries_phi():
    assert NonlocalLayer(0.2).phi == 0.2


def test_circuit_serialization_round_trip_is_exact():
    rng = np.random.default_rng(95)
    g = dressed(chamber_point(rng), rng)
    circ = synthesize(g, EIGHTH)
    data = json.loads(json.dumps(circuit_to_dict(circ)))
    back = circuit_from_dict(data)
    assert back.global_phase == circ.global_phase
    assert np.array_equal(
        circuit_matrix(back).matrix, circuit_matrix(circ).matrix
    )
    for lay_a, lay_b in zip(circ.layers, back.layers):
        assert type(lay_a) is type(lay_b)


# ------------------------------------------------------------ per-gate memo


def _gate_outputs(g, order):
    """The five readings of g, taken in the given order, as comparable bits."""
    steps = {
        "coords": lambda: [v.hex() for v in extract_coordinates(g)],
        "invariants": lambda: repr(local_invariants(g)),
        "pe": lambda: is_perfect_entangler(g),
        "circuit": lambda: repr(circuit_to_dict(synthesize(g, EIGHTH))),
        "kak": lambda: _kak_bits(kak_decompose(g)),
    }
    return {name: steps[name]() for name in order}


def _kak_bits(f):
    parts = [m.tobytes() for m in (f.a1, f.b1, f.a2, f.b2)]
    return parts + [[v.hex() for v in f.core], f.global_phase.hex()]


_READINGS = ("coords", "invariants", "pe", "circuit", "kak")


def test_one_gate_is_read_once_whatever_the_order(monkeypatch):
    # classification, synthesis and decomposition of one gate share its
    # one reading: the target's magic-frame matrix and eigensolve plus the
    # core product's make 2 magic-frame changes and 2 diagonalizer calls
    rng = np.random.default_rng(121)
    u = dressed(chamber_point(rng), rng)
    # each reading on a gate of its own: nothing shared
    want = {name: _gate_outputs(GateMatrix(u), [name])[name] for name in _READINGS}
    counts = _count_calls(
        monkeypatch, ("invariants._magic", "linalg._joint_diagonalize")
    )
    for order in itertools.permutations(_READINGS):
        counts.update(dict.fromkeys(counts, 0))
        got = _gate_outputs(GateMatrix(u), order)
        assert counts == {
            "invariants._magic": 2,
            "linalg._joint_diagonalize": 2,
        }, order
        assert got == want, order


def test_one_gate_is_normalized_once_whatever_the_order(monkeypatch):
    # the one reading normalizes the gate, and synthesis its core product
    rng = np.random.default_rng(125)
    u = dressed(chamber_point(rng), rng)
    counts = _count_calls(monkeypatch, ("linalg.su4_normalize",))
    for order in itertools.permutations(_READINGS):
        counts.update(dict.fromkeys(counts, 0))
        _gate_outputs(GateMatrix(u), order)
        assert counts == {"linalg.su4_normalize": 2}, order


def test_threads_reading_one_gate_agree():
    # more threads than cores, switching often, race to fill the memo
    # slots of one fresh gate; each gets the bits of an unshared reading
    rng = np.random.default_rng(122)
    u = dressed(chamber_point(rng), rng)
    want = _gate_outputs(GateMatrix(u), _READINGS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            g = GateMatrix(u)
            start = threading.Barrier(4, timeout=30)
            results = [None] * 4

            def read(slot, order):
                start.wait()
                results[slot] = _gate_outputs(g, order)

            orders = [_READINGS, _READINGS[::-1]] * 2
            threads = [threading.Thread(target=read, args=(i, o)) for i, o in enumerate(orders)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert results == [want] * 4
    finally:
        sys.setswitchinterval(interval)
