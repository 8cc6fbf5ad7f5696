import ast
import inspect
import pathlib
import re

import numpy as np
import pytest

import weylforge

from weylforge.linalg import (
    ConsistencyError,
    GateMatrix,
    as_gate,
    _MIX_WEIGHTS,
    eig_commuting_symmetric_pair,
    kron2,
    rot_x,
    rot_y,
    rot_z,
    split_local,
    su4_normalize,
)
from weylforge.gates import CNOT, NAMED_GATES

from conftest import dressed, haar_su2


def haar_u4(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_gate_matrix_accepts_unitary_and_is_immutable():
    g = GateMatrix(CNOT)
    assert g.unitarity_residual < 1e-15
    assert np.shape(g) == (4, 4)
    assert not g.matrix.flags.writeable
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 2.0


def test_gate_matrix_rejects_nonunitary():
    with pytest.raises(ValueError):
        GateMatrix(np.eye(4) * 1.5)
    with pytest.raises(ValueError):
        GateMatrix(np.eye(3))


def test_gate_matrix_tolerance_is_adjustable():
    near = np.eye(4, dtype=complex)
    near[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        GateMatrix(near)
    g = GateMatrix(near, unitarity=1e-4)
    assert g.unitarity_residual < 1e-4


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0, -1e-12])
def test_gate_matrix_rejects_a_tolerance_that_is_not_a_finite_number_at_least_0(bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        GateMatrix(CNOT, unitarity=bad)
    # a non-unitary matrix, which a NaN tolerance used to let through
    with pytest.raises(ValueError, match="unitarity tolerance"):
        GateMatrix(np.diag([1.0, 0.0, 1.0, 2.0]), unitarity=bad)


def test_gate_matrix_takes_a_zero_tolerance_for_exact_gates():
    assert GateMatrix(CNOT, unitarity=0.0).unitarity_residual == 0.0
    with pytest.raises(ValueError, match="not unitary"):
        GateMatrix(CNOT * (1.0 + 1e-15), unitarity=0.0)


def test_as_gate_passthrough_and_coercion():
    g = GateMatrix(CNOT)
    assert as_gate(g) is g
    assert np.array_equal(as_gate(CNOT).matrix, np.asarray(CNOT, dtype=complex))


def test_kron2_matches_numpy_kron():
    # the same products as np.kron of the complex-cast factors, so the
    # same bits, signed zeros included
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ar, br = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        t = rng.uniform(-4, 4, size=3)
        for x, y in (
            (a, b),
            (ar, br),
            (a, br),
            (rot_x(t[0]), rot_y(t[1])),
            (rot_z(t[2]), rot_x(t[0])),
            (haar_su2(rng), haar_su2(rng)),
        ):
            got = kron2(x, y)
            want = np.kron(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex))
            assert got.shape == (4, 4) and got.dtype == complex
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def test_no_numpy_kron_in_the_package():
    # every Kronecker product of two 2x2 operators goes through kron2
    src = pathlib.Path(weylforge.__file__).parent
    hits = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "np.kron(" in line
    ]
    assert hits == []


def _callers(name) -> list:
    """(module, function) around each call of name in the package."""
    src = pathlib.Path(weylforge.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                found += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                ]
    return sorted(found)


def test_one_spectral_solver_in_the_package():
    # a gate's spectrum is solved in canonical's one reading; the public
    # pair diagonalizer is its input checks plus the same code
    src = pathlib.Path(weylforge.__file__).parent
    text = {path.name: path.read_text() for path in sorted(src.glob("*.py"))}
    assert [n for n, t in text.items() if "np.linalg.eigvals" in t or "np.linalg.eig(" in t] == []
    assert _callers("eigvals") == _callers("eig") == _callers("eigvalsh") == []
    assert _callers("eigh") == [("linalg", "_joint_diagonalize")]
    assert _callers("_joint_diagonalize") == [
        ("canonical", "_read_class"),
        ("linalg", "eig_commuting_symmetric_pair"),
    ]
    assert _callers("eig_commuting_symmetric_pair") == []
    assert "_kak_locals" not in text["cli.py"]


# parameter names that would make a tolerance or slack settable
_KNOB = re.compile(r"tol|slack|unitarity|(^|_)eps|threshold|margin")


def test_only_gate_matrix_and_in_weyl_chamber_take_a_tolerance():
    # the unitarity tolerance is set where a gate enters, and the chamber
    # predicate keeps its slack; no other public callable takes one
    knobs = {}
    for name in weylforge.__all__:
        obj = getattr(weylforge, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:
            # exception classes that keep the builtin constructor
            assert issubclass(obj, Exception), name
            continue
        found = [
            p.name
            for p in params
            if _KNOB.search(p.name.lower()) or p.kind is inspect.Parameter.VAR_KEYWORD
        ]
        if found:
            knobs[name] = found
    assert knobs == {"GateMatrix": ["unitarity"], "in_weyl_chamber": ["tol"]}


def test_kron2_is_multiplicative():
    rng = np.random.default_rng(4)
    a, b, c, d = (haar_su2(rng) for _ in range(4))
    lhs = kron2(a, b) @ kron2(c, d)
    assert np.abs(lhs - kron2(a @ c, b @ d)).max() < 1e-12


def test_rotation_closed_forms():
    # exp(-i t sigma) written out for each axis
    t = 0.37
    c, s = np.cos(t), np.sin(t)
    assert np.allclose(rot_x(t), [[c, -1j * s], [-1j * s, c]], atol=1e-15)
    assert np.allclose(rot_y(t), [[c, -s], [s, c]], atol=1e-15)
    assert np.allclose(rot_z(t), np.diag([np.exp(-1j * t), np.exp(1j * t)]), atol=1e-15)


@pytest.mark.parametrize("rot", [rot_x, rot_y, rot_z])
def test_rotations_form_one_parameter_groups(rot):
    a, b = 0.81, -1.43
    assert np.allclose(rot(a) @ rot(b), rot(a + b), atol=1e-14)
    assert np.allclose(rot(0.0), np.eye(2), atol=1e-15)
    assert abs(np.linalg.det(rot(a)) - 1) < 1e-14
    assert np.allclose(rot(a) @ rot(a).conj().T, np.eye(2), atol=1e-14)


def test_su4_normalize_fixes_determinant():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = haar_u4(rng)
        v = su4_normalize(u)
        assert abs(np.linalg.det(v.matrix) - 1) < 1e-12
        # proportional to the input
        ratio = v.matrix[np.abs(u) > 0.3] / u[np.abs(u) > 0.3]
        assert np.allclose(ratio, ratio.flat[0], atol=1e-12)


def test_su4_normalize_is_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(5):
        v = su4_normalize(haar_u4(rng))
        w = su4_normalize(v)
        assert np.abs(w.matrix - v.matrix).max() < 1e-12


def test_su4_normalize_principal_branch():
    # a small overall phase is removed outright, not shifted by i
    v = su4_normalize(np.exp(0.2j) * np.eye(4))
    assert np.allclose(v.matrix, np.eye(4), atol=1e-14)


def _commuting_pair(rng, d1, d2):
    z = rng.normal(size=(4, 4))
    o, r = np.linalg.qr(z)
    o = o * np.sign(np.diag(r))
    return o @ np.diag(d1) @ o.T, o @ np.diag(d2) @ o.T, o


def test_jacobi_pair_diagonalizes_commuting_symmetric_matrices():
    rng = np.random.default_rng(21)
    # repeated eigenvalue in the first matrix forces the pair logic:
    # the second matrix must resolve the degenerate block
    d1 = np.array([2.0, 2.0, -1.0, 0.5])
    d2 = np.array([0.3, -0.7, 0.1, 0.9])
    x, y, _ = _commuting_pair(rng, d1, d2)
    pairs, frame = eig_commuting_symmetric_pair(x, y)
    assert np.allclose(frame.T @ frame, np.eye(4), atol=1e-12)
    dx = frame.T @ x @ frame
    dy = frame.T @ y @ frame
    assert np.abs(dx - np.diag(np.diag(dx))).max() < 1e-9
    assert np.abs(dy - np.diag(np.diag(dy))).max() < 1e-9
    got = sorted(map(tuple, np.round(pairs, 9)))
    want = sorted(zip(np.round(d1, 9), np.round(d2, 9)))
    assert np.allclose(got, want, atol=1e-9)


def test_jacobi_pair_rejects_asymmetric_input():
    rng = np.random.default_rng(22)
    x, y, _ = _commuting_pair(rng, np.arange(4.0), np.arange(4.0) ** 2)
    x[0, 1] += 0.1
    with pytest.raises(ValueError):
        eig_commuting_symmetric_pair(x, y)


def test_jacobi_pair_rejects_noncommuting_input():
    rng = np.random.default_rng(23)
    x, _, _ = _commuting_pair(rng, np.arange(4.0), np.arange(4.0))
    z = rng.normal(size=(4, 4))
    y = z + z.T
    with pytest.raises(ValueError):
        eig_commuting_symmetric_pair(x, y)


def test_split_local_recovers_tensor_factors():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = kron2(haar_su2(rng), haar_su2(rng))
        a, b = split_local(m)
        assert np.abs(kron2(a, b) - m).max() < 1e-12
        assert abs(np.linalg.det(a) - 1) < 1e-12


def test_split_local_absorbs_global_phase():
    rng = np.random.default_rng(32)
    m = np.exp(0.7j) * kron2(haar_su2(rng), haar_su2(rng))
    a, b = split_local(m)
    assert np.abs(kron2(a, b) - m).max() < 1e-12


def test_split_local_rejects_entangling_input():
    with pytest.raises(ConsistencyError):
        split_local(np.asarray(CNOT, dtype=complex))


def _noisy(u, amplitude, rng):
    return u + amplitude * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))


def test_gate_matrix_stores_the_nearest_unitary():
    rng = np.random.default_rng(41)
    u = haar_u4(rng)
    raw = _noisy(u, 1e-8, rng)
    g = GateMatrix(raw, unitarity=1e-6)
    # the residual is the input's, the stored matrix is unitary to rounding
    assert g.unitarity_residual == np.abs(raw.conj().T @ raw - np.eye(4)).max()
    assert g.unitarity_residual > 1e-9
    assert np.abs(g.matrix.conj().T @ g.matrix - np.eye(4)).max() < 1e-14
    # the polar factor: no unitary lies closer to the input (Frobenius)
    w, _, vh = np.linalg.svd(raw)
    assert np.array_equal(g.matrix, w @ vh)
    assert np.abs(g.matrix - raw).max() < 1e-7
    assert np.linalg.norm(g.matrix - raw) <= np.linalg.norm(u - raw)


@pytest.mark.parametrize("name", ["identity", "cnot", "dcnot", "swap"])
def test_gate_matrix_keeps_exact_permutation_gates_bit_for_bit(name):
    g = GateMatrix(NAMED_GATES[name])
    assert np.array_equal(g.matrix, NAMED_GATES[name])
    assert g.unitarity_residual == 0.0


def test_su4_normalize_keeps_the_input_residual():
    rng = np.random.default_rng(42)
    g = GateMatrix(_noisy(haar_u4(rng), 1e-8, rng), unitarity=1e-6)
    v = su4_normalize(g)
    assert v.unitarity_residual == g.unitarity_residual
    assert abs(np.linalg.det(v.matrix) - 1) < 1e-14
    assert not v.matrix.flags.writeable


_B_PHI = np.pi / 8


def _loose_spe():
    """A dressed C[pi/8] times I + 1e-9 H, H Hermitian: unitarity residual
    about 1e-8, and the nearest unitary is the dressed gate itself."""
    rng = np.random.default_rng(43)
    u = dressed((np.pi / 4, _B_PHI, 0.0), rng)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    raw = u @ (np.eye(4) + 1e-9 * (h + h.conj().T))
    return u, raw


_BASIS = weylforge.witness_basis(0.3, _B_PHI)

# every public function that takes a gate, as a call on one gate
_GATE_TAKERS = {
    "as_gate": weylforge.as_gate,
    "su4_normalize": weylforge.su4_normalize,
    "extract_coordinates": weylforge.extract_coordinates,
    "local_invariants": weylforge.local_invariants,
    "is_perfect_entangler": weylforge.is_perfect_entangler,
    "kak_decompose": weylforge.kak_decompose,
    "entangling_power_mc": lambda g: weylforge.entangling_power_mc(g, 5000, 1),
    "witness_basis_for_gate": lambda g: weylforge.witness_basis_for_gate(g, 0.3),
    "check_basis_images": lambda g: weylforge.check_basis_images(g, _BASIS),
    "synthesize": lambda g: weylforge.synthesize(g, _B_PHI),
    "separability_preservation_probe": (
        lambda g: weylforge.separability_preservation_probe(g, 5000, 1)
    ),
}


def test_a_gate_checked_at_a_loose_tolerance_is_taken_everywhere():
    u, raw = _loose_spe()
    g = GateMatrix(raw, unitarity=1e-6)
    assert 1e-9 < g.unitarity_residual < 1e-7
    assert np.abs(g.matrix - u).max() < 1e-14
    out = {name: call(g) for name, call in _GATE_TAKERS.items()}
    assert out["as_gate"] is g
    assert out["su4_normalize"].unitarity_residual == g.unitarity_residual
    for coords in (out["extract_coordinates"], out["kak_decompose"].core):
        assert np.abs(np.subtract(coords, (np.pi / 4, _B_PHI, 0))).max() < 1e-12
    assert out["is_perfect_entangler"]
    assert abs(out["local_invariants"].g1) < 1e-12
    assert abs(out["entangling_power_mc"].mean - 2 / 9) < 0.02
    images = weylforge.check_basis_images(g, out["witness_basis_for_gate"])
    assert np.abs(images - 1.0).max() < 1e-9
    assert out["separability_preservation_probe"] == 0.0
    circuit = out["synthesize"]
    # the circuit-taking functions, on the circuit synthesized from g
    assert np.abs(weylforge.circuit_matrix(circuit).matrix - g.matrix).max() < 1e-7
    assert weylforge.verify_equivalence(circuit, out["extract_coordinates"])


@pytest.mark.parametrize("name", sorted(_GATE_TAKERS))
def test_the_same_raw_array_is_checked_at_the_default(name):
    _, raw = _loose_spe()
    with pytest.raises(ValueError, match="not unitary"):
        _GATE_TAKERS[name](raw)


def test_a_circuit_with_a_raw_layer_is_checked_at_the_default():
    # circuit_matrix, and verify_equivalence through it, check the product
    top = np.eye(2) * (1.0 + 1e-8)
    circuit = weylforge.Circuit(layers=(weylforge.LocalLayer(top=top, bottom=np.eye(2)),))
    with pytest.raises(ValueError, match="not unitary"):
        weylforge.circuit_matrix(circuit)
    with pytest.raises(ValueError, match="not unitary"):
        weylforge.verify_equivalence(circuit, (0.0, 0.0, 0.0))


def _circle_pair(rng, angles):
    """Commuting X, Y with joint eigenpairs (cos t, sin t): the real and
    imaginary parts of a symmetric unitary."""
    z = rng.normal(size=(4, 4))
    o, r = np.linalg.qr(z)
    o = o * np.sign(np.diag(r))
    angles = np.asarray(angles, dtype=float)
    return o @ np.diag(np.cos(angles)) @ o.T, o @ np.diag(np.sin(angles)) @ o.T


def _off_diagonal(m):
    return np.abs(m - np.diag(np.diag(m))).max()


def test_pair_resolves_eigenpairs_merged_by_the_first_weight():
    # (cos t, sin t) pairs at t = atan r +- 0.6 share one eigenvalue of
    # X + r Y, so eigh of that combination alone mixes their eigenvectors
    r = _MIX_WEIGHTS[0]
    rng = np.random.default_rng(43)
    angles = [np.arctan(r) + 0.6, np.arctan(r) - 0.6, 2.1, -1.9]
    x, y = _circle_pair(rng, angles)
    merged = np.linalg.eigvalsh(x + r * y)
    assert np.sort(np.diff(np.sort(merged)))[0] < 1e-12
    _, single = np.linalg.eigh(x + r * y)
    assert _off_diagonal(single.T @ x @ single) > 1e-3

    pairs, frame = eig_commuting_symmetric_pair(x, y)
    assert np.allclose(frame.T @ frame, np.eye(4), atol=1e-12)
    assert _off_diagonal(frame.T @ x @ frame) < 1e-9
    assert _off_diagonal(frame.T @ y @ frame) < 1e-9
    got = np.sort(np.arctan2(pairs[:, 1], pairs[:, 0]))
    assert np.allclose(got, np.sort(angles), atol=1e-9)



def test_pair_resolves_gram_pairs_merged_by_the_first_three_weights():
    # eigenphases summing to 0 whose half-sums (t1+t2)/2, (t1+t3)/2 and
    # (t1+t4)/2 sit at the angles atan r of the first three weights
    a, b, c = (np.arctan(r) for r in _MIX_WEIGHTS[:3])
    angles = [a + b + c, a - b - c, b - a - c, c - a - b]
    x, y = _circle_pair(np.random.default_rng(44), angles)
    for r in _MIX_WEIGHTS[:3]:
        _, single = np.linalg.eigh(x + r * y)
        assert _off_diagonal(single.T @ x @ single) > 1e-3

    pairs, frame = eig_commuting_symmetric_pair(x, y)
    assert _off_diagonal(frame.T @ x @ frame) < 1e-9
    assert _off_diagonal(frame.T @ y @ frame) < 1e-9
    got = np.sort(pairs[:, 0] + 1j * pairs[:, 1])
    assert np.allclose(got, np.sort(np.exp(1j * np.array(angles))), atol=1e-9)
