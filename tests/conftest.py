"""Shared helpers: Haar sampling, chamber points (faces and edges too),
gate dressing.

Every test seeds its own ``np.random.default_rng`` so the suite is
deterministic end to end.  The acceptance module records one line per
criterion through the ``record_criterion`` fixture; those lines are
echoed in the terminal summary.
"""

import numpy as np
import pytest

from weylforge import CanonicalCoords, canonical_gate, kron2

QUARTER = np.pi / 4

_ACCEPTANCE_LINES = []


def haar_su2(rng) -> np.ndarray:
    """Haar-random SU(2) element via QR of a complex Gaussian."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.sqrt(np.linalg.det(q).astype(complex))


def haar_state(rng, dim: int = 2) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def chamber_point(rng) -> CanonicalCoords:
    """A coordinate triple sampled inside the chamber."""
    c1 = rng.uniform(0.0, np.pi / 4)
    c2 = rng.uniform(0.0, c1)
    c3 = rng.uniform(-c2, c2)
    return CanonicalCoords(c1, c2, c3)


def mirror_face_targets(seed: int = 62, count: int = 60) -> list:
    """Targets (pi/4, c2, c3) on the c1 = pi/4 face, c3 != 0 drawn on (-c2, c2).

    On this face (pi/4, c2, c3) and (pi/4, c2, -c3) name one class, whose
    chamber representative carries c3 >= 0.
    """
    rng = np.random.default_rng(seed)
    targets = []
    while len(targets) < count:
        c2 = rng.uniform(0.0, np.pi / 4)
        c3 = rng.uniform(-c2, c2)
        if c3 != 0.0:
            targets.append(CanonicalCoords(np.pi / 4, c2, c3))
    return targets


def boundary_classes(rng, per_kind):
    """Seeded points of every chamber face and edge, plus its corners.

    Faces c1 = pi/4, c1 = c2, c2 = |c3| (both signs) and the plane
    c3 = 0; edges O-A1 (c2 = c3 = 0), O-A3 (c1 = c2 = |c3|), A1-A3
    (c1 = pi/4, c2 = |c3|), A3-A3' (c1 = c2 = pi/4) and the SPE segment
    (pi/4, phi, 0); corners SWAP, identity, CNOT, DCNOT.
    """
    points = [
        (QUARTER, QUARTER, QUARTER),
        (0.0, 0.0, 0.0),
        (QUARTER, 0.0, 0.0),
        (QUARTER, QUARTER, 0.0),
    ]
    for _ in range(per_kind):
        c1 = rng.uniform(0.0, QUARTER)
        c2 = rng.uniform(0.0, c1)
        t = rng.uniform(0.0, QUARTER)
        u = rng.uniform(-t, t)
        points += [
            (QUARTER, t, u),
            (c1, c1, rng.uniform(-c1, c1)),
            (c1, c2, c2),
            (c1, c2, -c2),
            (c1, c2, 0.0),
            (c1, 0.0, 0.0),
            (c1, c1, c1),
            (c1, c1, -c1),
            (QUARTER, t, t),
            (QUARTER, t, -t),
            (QUARTER, QUARTER, u),
            (QUARTER, t, 0.0),
        ]
    return points


def dressed(coords, rng) -> np.ndarray:
    """A random member of the class of ``coords``, random global phase."""
    phase = np.exp(1j * rng.uniform(-np.pi, np.pi))
    return phase * (
        kron2(haar_su2(rng), haar_su2(rng))
        @ canonical_gate(coords).matrix
        @ kron2(haar_su2(rng), haar_su2(rng))
    )


@pytest.fixture
def record_criterion():
    def _record(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name}"
        if detail:
            line += f"  [{detail}]"
        _ACCEPTANCE_LINES.append(line)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
