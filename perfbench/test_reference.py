"""Textbook values for the benchmark's reference computations.

    python -m pytest perfbench/test_reference.py -q
"""

import numpy as np
import pytest

import reference as ref

Q = ref.QUARTER

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
SQRT_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ]
)


def test_core_gate_is_the_matrix_exponential():
    # at (t, 0, 0) the core is cos t I - i sin t XX, since XX squares to I
    t = 0.3
    xx = np.fliplr(np.eye(4))
    want = np.cos(t) * np.eye(4) - 1j * np.sin(t) * xx
    assert np.abs(ref.core_gate((t, 0, 0)) - want).max() < 1e-14
    # the three terms commute, so the exponential factorizes
    c = (0.7, 0.4, -0.2)
    parts = [ref.core_gate((c[0], 0, 0)), ref.core_gate((0, c[1], 0)), ref.core_gate((0, 0, c[2]))]
    assert np.abs(ref.core_gate(c) - parts[0] @ parts[1] @ parts[2]).max() < 1e-14


def test_makhlin_invariants_of_cnot_and_swap():
    assert np.allclose(ref.makhlin_invariants(CNOT), (0, 1), atol=1e-12)
    assert np.allclose(ref.makhlin_invariants(SWAP), (-1, -3), atol=1e-12)
    # the cores of the cnot and swap classes carry the same invariants
    assert np.allclose(ref.makhlin_invariants(ref.core_gate((Q, 0, 0))), (0, 1), atol=1e-12)
    assert np.allclose(ref.makhlin_invariants(ref.core_gate((Q, Q, Q))), (-1, -3), atol=1e-12)


def test_dressing_keeps_the_invariants():
    rng = np.random.default_rng(5)
    c = (0.6, 0.25, -0.1)
    want = ref.makhlin_invariants(ref.core_gate(c))
    for _ in range(5):
        u = ref.dress(c, rng)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12
        assert np.allclose(ref.makhlin_invariants(u), want, atol=1e-12)


def test_haar_su2_is_special_unitary_with_haar_moments():
    rng = np.random.default_rng(6)
    draws = [ref.haar_su2(rng) for _ in range(20000)]
    for u in draws[:20]:
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12
    # under Haar measure |u00|^2 is uniform on [0, 1]: mean 1/2, variance 1/12
    p = np.array([abs(u[0, 0]) ** 2 for u in draws])
    assert abs(p.mean() - 0.5) < 0.01
    assert abs(p.var() - 1 / 12) < 0.005


def test_concurrence():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    product = np.kron([np.cos(0.3), np.sin(0.3)], [1j / np.sqrt(2), 1 / np.sqrt(2)])
    assert ref.concurrence(bell) == pytest.approx(1.0, abs=1e-15)
    assert ref.concurrence(product) == pytest.approx(0.0, abs=1e-15)


def test_entangling_power_closed_form():
    assert ref.entangling_power((Q, 0, 0)) == pytest.approx(2 / 9, abs=1e-15)
    assert ref.entangling_power((Q, np.pi / 8, 0)) == pytest.approx(2 / 9, abs=1e-15)
    assert ref.entangling_power((Q, Q, Q)) == pytest.approx(0.0, abs=1e-15)
    assert ref.entangling_power((0, 0, 0)) == pytest.approx(0.0, abs=1e-15)


def test_sqrt_swap_is_a_perfect_entangler_but_not_special():
    sqrtswap = (np.pi / 8,) * 3
    assert np.allclose(
        ref.makhlin_invariants(SQRT_SWAP), ref.makhlin_invariants(ref.core_gate(sqrtswap)),
        atol=1e-12,
    )
    assert ref.perfect_entangler(sqrtswap)
    # special perfect entanglers are exactly the classes with e_p = 2/9
    assert ref.entangling_power(sqrtswap) == pytest.approx(1 / 6, abs=1e-15)


def test_perfect_entanglers_fill_half_the_chamber():
    rng = np.random.default_rng(7)
    uniform = (rng.random(3) for _ in range(60000))
    points = list(ref.chamber_points(uniform))
    assert all(ref.in_chamber(c) for c in points)
    # one box point in six lands in the chamber
    assert len(points) / 60000 == pytest.approx(1 / 6, abs=0.01)
    share = np.mean([ref.perfect_entangler(c) for c in points])
    assert share == pytest.approx(0.5, abs=0.015)


def test_stratified_points_are_uniform_by_volume():
    rng = np.random.default_rng(9)
    points = ref.stratified_chamber_points(rng, 20000)
    assert all(ref.in_chamber(c) for c in points)
    # plain floats, whose repr the command line parses
    assert all(type(v) is float for c in points[:10] for v in c)
    share = np.mean([ref.perfect_entangler(c) for c in points])
    assert share == pytest.approx(0.5, abs=0.01)
    # |c3| has density 3 (1 - x)^2 in x = |c3| / (pi/4): mean 1/4
    t = np.abs([c[2] for c in points]) / Q
    assert t.mean() == pytest.approx(0.25, abs=0.005)
    # one class per slab of |c3|
    slabs = np.floor(20000 * (1 - (1 - t) ** 3)).astype(int)
    assert sorted(slabs) == list(range(20000))
    # the two sides of the mirror c3 -> -c3 hold equal volume
    assert np.mean([c[2] > 0 for c in points]) == pytest.approx(0.5, abs=0.01)


def test_shifted_halton_is_uniform_and_seeded():
    seq = ref.shifted_halton(np.random.default_rng(8), 3)
    pts = np.array([next(seq) for _ in range(4096)])
    assert pts.min() >= 0 and pts.max() < 1
    assert np.abs(pts.mean(axis=0) - 0.5).max() < 0.01
    again = ref.shifted_halton(np.random.default_rng(8), 3)
    assert np.array_equal(next(again), pts[0])


def test_layers_product_reproduces_c_phi_circuit():
    phi = np.pi / 8
    top = np.array([[0, 1], [1, 0]])
    encode = [[[float(z.real), float(z.imag)] for z in row] for row in top.astype(complex)]
    d = {
        "layers": [
            {"kind": "nonlocal", "phi": phi},
            {"kind": "local", "top": encode, "bottom": encode},
            {"kind": "nonlocal", "phi": phi},
        ],
        "global_phase": 0.5,
    }
    want = np.exp(0.5j) * ref.spe(phi) @ np.kron(top, top) @ ref.spe(phi)
    assert np.abs(ref.layers_product(d) - want).max() < 1e-14
