import numpy as np
import pytest

import weylforge.spe as spe
from weylforge import (
    ConsistencyError,
    GateMatrix,
    SpeParams,
    canonical_gate,
    check_basis_images,
    concurrence_pure,
    extract_coordinates,
    is_spe,
    kron2,
    reduce_to_weyl,
    separability_preservation_probe,
    spe_gate,
    witness_basis,
    witness_basis_for_gate,
)
from weylforge.gates import CNOT, NAMED_GATES, SQRT_SWAP, SWAP

from conftest import boundary_classes, chamber_point, dressed, haar_state, haar_su2

QUARTER = np.pi / 4


def test_spe_params_validates_range():
    assert SpeParams(0.2).phi == 0.2
    SpeParams(0.0)
    SpeParams(QUARTER)
    with pytest.raises(ValueError):
        SpeParams(-0.1)
    with pytest.raises(ValueError):
        SpeParams(QUARTER + 0.01)


def test_spe_params_stores_a_float():
    for phi in (np.float64(0.2), np.array(0.2), 0):
        assert type(SpeParams(phi).phi) is float


@pytest.mark.parametrize("phi", [None, "0.3", [0.3], np.array([0.3]), 0.3j])
def test_spe_gate_rejects_a_phi_that_is_not_a_real_number(phi):
    with pytest.raises(ValueError, match="phi must be a real number"):
        spe_gate(phi)


def test_spe_gate_lives_on_the_family_segment():
    for phi in np.linspace(0.0, QUARTER, 9):
        c = extract_coordinates(spe_gate(phi))
        assert np.abs(np.subtract(c, (QUARTER, phi, 0.0))).max() < 1e-10


def test_is_spe_known_classes():
    assert is_spe((QUARTER, 0.0, 0.0))        # cnot
    assert is_spe((QUARTER, np.pi / 8, 0.0))  # b
    assert is_spe((QUARTER, QUARTER, 0.0))    # dcnot
    assert not is_spe((QUARTER, QUARTER, QUARTER))  # swap
    assert not is_spe((np.pi / 8, np.pi / 8, np.pi / 8))
    assert not is_spe((0.0, 0.0, 0.0))


def _cosine_spe(c, tol: float = 1e-9) -> bool:
    """The pairwise-cosine SPE test the segment test replaced, kept as
    the reference."""
    f1, f2, f3 = (np.cos(4.0 * float(v)) for v in c)
    return bool(abs(f1 * f2 + f2 * f3 + f3 * f1 + 1.0) <= tol)


def test_is_spe_matches_the_cosine_reference_off_the_segment():
    # the cosine test is quadratic in the distance to the segment, so
    # the two agree only away from it, or exactly on it
    rng = np.random.default_rng(87)
    classes = [chamber_point(rng) for _ in range(500)] + boundary_classes(rng, 10)
    compared = 0
    for c in classes:
        c1, _, c3 = reduce_to_weyl(c)
        dist = np.hypot(QUARTER - c1, c3)
        if 1e-15 < dist < 1e-6:
            continue
        coords = extract_coordinates(dressed(c, rng))
        assert is_spe(coords) == _cosine_spe(coords), c
        compared += 1
    assert compared >= 600


def _off_segment(along: str, d: float, rng):
    if along == "c1":
        c1 = QUARTER - d
        return (c1, rng.uniform(0.0, c1), 0.0)
    return (QUARTER, rng.uniform(1e-3, QUARTER), d)


@pytest.mark.parametrize("along", ["c1", "c3"])
@pytest.mark.parametrize("d", [1e-6, 1e-10])
def test_is_spe_rejects_classes_just_off_the_segment(along, d):
    flagged = []
    for seed in range(200):
        rng = np.random.default_rng([88, seed])
        c = _off_segment(along, d, rng)
        if is_spe(extract_coordinates(dressed(c, rng))):
            flagged.append(c)
    assert flagged == []


def test_witness_basis_is_an_orthonormal_product_basis():
    rng = np.random.default_rng(81)
    for _ in range(10):
        theta = rng.uniform(0, np.pi / 2)
        phi = rng.uniform(0, QUARTER)
        basis = witness_basis(theta, phi)
        gram = basis.states @ basis.states.conj().T
        assert np.abs(gram - np.eye(4)).max() < 1e-12
        for row in basis.states:
            assert concurrence_pure(row) < 1e-12


def test_witness_images_are_maximally_entangled():
    # the construction is tied to the (0, pi/4, phi) representative;
    # any other class member needs the transported basis instead
    from weylforge import canonical_gate

    for theta in np.linspace(0.1, np.pi / 2 - 0.1, 5):
        for phi in np.linspace(0.0, QUARTER, 5):
            g = canonical_gate((0.0, QUARTER, phi))
            conc = check_basis_images(g, witness_basis(theta, phi))
            assert conc.min() > 1 - 1e-9


def test_witness_transport_covers_the_plain_family_gate():
    for phi in (0.05, np.pi / 8, 0.7):
        basis = witness_basis_for_gate(spe_gate(phi), theta=0.4)
        conc = check_basis_images(spe_gate(phi), basis)
        assert conc.min() > 1 - 1e-9


def test_witness_transport_to_dressed_gate():
    rng = np.random.default_rng(82)
    for phi in (0.1, np.pi / 8, 0.6):
        g = dressed((QUARTER, phi, 0.0), rng)
        basis = witness_basis_for_gate(g, theta=0.9)
        for row in basis:
            assert concurrence_pure(row) < 1e-9
        assert check_basis_images(g, basis).min() > 1 - 1e-9


def test_is_spe_exactly_when_the_witness_basis_exists():
    # c3 = 1e-12 sits on the slack edge of the segment, where the answer
    # rests on the last bits of the one chamber point both functions read
    spe = 0
    for seed in range(400):
        u = dressed((QUARTER, 0.3, 1e-12), np.random.default_rng(seed))
        try:
            witness_basis_for_gate(GateMatrix(u), 0.4)
            built = True
        except ValueError as exc:
            assert "not a special perfect entangler" in str(exc)
            built = False
        assert is_spe(GateMatrix(u)) == built, seed
        spe += built
    # both answers occur
    assert 0 < spe < 400


def test_witness_transport_stays_maximal_along_the_segment():
    # the right local of G(0, pi/4, phi) is a constant of the fold, so
    # the transported basis must stay maximal at both segment ends too
    rng = np.random.default_rng(86)
    phis = [0.0, np.pi / 8, QUARTER] + list(rng.uniform(0.0, QUARTER, 6))
    for phi in phis:
        for g in (spe_gate(phi), dressed((QUARTER, phi, 0.0), rng)):
            for theta in (0.3, 1.1):
                basis = witness_basis_for_gate(g, theta=theta)
                assert check_basis_images(g, basis).min() >= 1 - 1e-9, (phi, theta)


def test_witness_basis_for_a_fresh_gate_reads_it_once(monkeypatch):
    # one eigensolve, and no split or full decomposition: the basis is
    # transported by the 4x4 right local onto (0, pi/4, phi)
    from test_synth import _count_calls

    rng = np.random.default_rng(130)
    g = GateMatrix(dressed((QUARTER, 0.3, 0.0), rng))
    counts = _count_calls(
        monkeypatch,
        ("linalg._joint_diagonalize", "linalg.split_local", "canonical.kak_decompose"),
    )
    basis = witness_basis_for_gate(g, 0.4)
    assert counts == {
        "linalg._joint_diagonalize": 1,
        "linalg.split_local": 0,
        "canonical.kak_decompose": 0,
    }
    assert check_basis_images(g, basis).min() >= 1 - 1e-9


def test_witness_transport_refuses_a_non_spe_before_decomposing(monkeypatch):
    from test_synth import _count_calls

    rng = np.random.default_rng(131)
    counts = _count_calls(monkeypatch, ("canonical._kak_locals",))
    for c in ((0.2, 0.1, 0.05), (QUARTER, 0.3, 1e-6)):
        with pytest.raises(ValueError, match="not a special perfect entangler"):
            witness_basis_for_gate(dressed(c, rng), theta=0.5)
    assert counts == {"canonical._kak_locals": 0}


def test_witness_transport_certifies_its_images(monkeypatch):
    # a right local onto the segment point (pi/4, phi, 0) instead of
    # (0, pi/4, phi) misaligns the basis, and the image check says so
    original = spe._kak_locals
    monkeypatch.setattr(spe, "_kak_locals", lambda gate, element: original(gate))
    rng = np.random.default_rng(132)
    with pytest.raises(ConsistencyError, match="concurrence"):
        witness_basis_for_gate(dressed((QUARTER, 0.3, 0.0), rng), theta=0.5)


def test_witness_transport_rejects_non_spe_gates():
    with pytest.raises(ValueError):
        witness_basis_for_gate(SWAP, theta=0.5)
    rng = np.random.default_rng(83)
    with pytest.raises(ValueError):
        witness_basis_for_gate(dressed((0.2, 0.1, 0.05), rng), theta=0.5)


@pytest.mark.parametrize("along", ["c1", "c3"])
def test_witness_transport_rejects_gates_1e_6_off_the_segment(along):
    for seed in range(200):
        rng = np.random.default_rng([89, seed])
        g = dressed(_off_segment(along, 1e-6, rng), rng)
        with pytest.raises(ValueError):
            witness_basis_for_gate(g, theta=0.5)


def test_check_basis_images_rejects_non_orthonormal_rows():
    basis = witness_basis(0.4, 0.2).states.copy()
    basis[1] = basis[0]
    with pytest.raises(ValueError):
        check_basis_images(spe_gate(0.2), basis)


def test_a_basis_that_passes_its_gram_test_gets_its_concurrences():
    # |s|^2 = 1 + 2e-10 per row: within the 1e-9 Gram test, outside the
    # 1e-12 norm test of concurrence_pure, which the images do not take
    basis = np.eye(4) * (1 + 1e-10)
    assert check_basis_images(CNOT, basis).tolist() == [0.0] * 4
    g = NAMED_GATES["b"]
    assert np.abs(check_basis_images(g, basis) - check_basis_images(g, np.eye(4))).max() <= 1e-9


def test_the_image_concurrences_are_those_of_concurrence_pure():
    # check_basis_images repeats concurrence_pure's arithmetic, bit for bit
    g = spe_gate(0.2)
    basis = witness_basis_for_gate(g, 0.4)
    want = [concurrence_pure(v) for v in basis @ g.matrix.T]
    assert check_basis_images(g, basis).tolist() == want


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, 1.0)])
def test_check_basis_images_rejects_non_finite_entries(bad):
    basis = witness_basis(0.4, 0.2).states.copy()
    basis[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_basis_images(CNOT, basis)


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_witness_basis_rejects_a_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        witness_basis(theta, 0.1)
    with pytest.raises(ValueError, match="theta must be finite"):
        witness_basis_for_gate(spe_gate(0.1), theta)


def test_sqrtswap_image_concurrence_closed_form():
    # C(sqrtswap (a x b)) = 1 - |<a|b>|^2; maximal only for orthogonal a, b
    rng = np.random.default_rng(84)
    for _ in range(50):
        a, b = haar_state(rng), haar_state(rng)
        c = concurrence_pure(np.asarray(SQRT_SWAP) @ np.kron(a, b))
        assert abs(c - (1 - abs(np.vdot(a, b)) ** 2)) < 1e-12


def _perp(v):
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def test_sqrtswap_cannot_maximally_entangle_a_product_basis():
    # image concurrences of any orthonormal product basis pair up to
    # C1 + C2 = C3 + C4 = 1, so no basis maps to four maximal states
    rng = np.random.default_rng(85)
    s = np.asarray(SQRT_SWAP)
    for _ in range(50):
        a, b, c = (haar_state(rng) for _ in range(3))
        rows = [
            np.kron(a, b),
            np.kron(a, _perp(b)),
            np.kron(_perp(a), c),
            np.kron(_perp(a), _perp(c)),
        ]
        conc = [concurrence_pure(s @ r) for r in rows]
        assert abs(conc[0] + conc[1] - 1) < 1e-12
        assert abs(conc[2] + conc[3] - 1) < 1e-12


def test_separability_probe_sorts_gates():
    n = 10_000
    assert separability_preservation_probe(SWAP, n, seed=11) == 1.0
    rng = np.random.default_rng(86)
    local = kron2(haar_su2(rng), haar_su2(rng))
    assert separability_preservation_probe(local, n, seed=12) == 1.0
    assert separability_preservation_probe(CNOT, n, seed=13) < 0.01
    assert separability_preservation_probe(NAMED_GATES["b"], n, seed=14) < 0.01


@pytest.mark.parametrize("theta", [None, "0.4", [0.4], np.array([0.4]), 0.4j])
def test_witness_basis_rejects_a_theta_that_is_not_a_real_number(theta):
    with pytest.raises(ValueError, match="theta must be a real number"):
        witness_basis(theta, 0.1)
    with pytest.raises(ValueError, match="theta must be a real number"):
        witness_basis_for_gate(spe_gate(0.1), theta)
