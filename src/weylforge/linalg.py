"""Dense complex linear algebra for one- and two-qubit matrices.

Everything in this package works on plain numpy arrays: 2x2 blocks for
single-qubit operators and 4x4 blocks for two-qubit gates (row-major,
basis order |00>, |01>, |10>, |11>, qubit 0 = first tensor factor).
This module holds the shared kernel: the ``GateMatrix`` wrapper, which
checks a raw array once where it enters and stores the nearest unitary,
so every later step trusts it, and which memoizes the two readings of
its class that the other modules take; Kronecker composition, SU(4)
normalization, the simultaneous diagonalizer for a commuting pair of
real symmetric matrices, the Kronecker-factor splitter, and the
package's only argument readers: ``_real`` and ``_integer`` for scalars,
``_array`` for arrays.
"""

import math
import operator

import numpy as np

__all__ = [
    "ConsistencyError",
    "GateMatrix",
    "as_gate",
    "kron2",
    "su4_normalize",
    "eig_commuting_symmetric_pair",
    "split_local",
    "rot_x",
    "rot_y",
    "rot_z",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

for _p in PAULIS:
    _p.setflags(write=False)


# the default max |U+U - I| entry of a raw gate: rounding of a unitary
# written out to about 15 digits stays far below it
_UNITARITY_TOL = 1e-9


class ConsistencyError(RuntimeError):
    """An internal numerical invariant failed.

    Raised when an algorithm's self-check fails on input that passed
    validation -- this signals a numerical breakdown (or a bug), never
    a problem with user input.
    """


def _real(name: str, value, lo=-math.inf, hi=math.inf, want="finite") -> float:
    """value as a finite float in [lo, hi]; else ValueError "{name} must be
    a real number" (a string is not one) or "{name} must be {want}"."""
    try:
        if isinstance(value, str):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a real number, got {value!r}") from None
    if not (lo <= x <= hi and math.isfinite(x)):
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return x


def _integer(name: str, value, lo=-math.inf, hi=math.inf, want="") -> int:
    """operator.index(value) in [lo, hi]; else ValueError "{name} must be
    an integer" or "{name} must be {want}"."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not lo <= k <= hi:
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return k


def _array(name: str, value, shape: tuple, dtype=complex) -> np.ndarray:
    """value as a new finite array of dtype and shape; else ValueError
    "{name} must be a RxC array of numbers" (a string is not a number, nor
    is a complex entry where dtype is float), "{name} must be RxC", each
    naming the shape it got, or "{name} contains non-finite entries"."""
    size = "x".join(map(str, shape)) if len(shape) > 1 else f"length-{shape[0]}"
    try:
        a = np.asarray(value)
    except ValueError:  # ragged rows
        a = np.array(value, dtype=object)
    if a.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ValueError(f"{name} must be a {size} array of numbers, got shape {a.shape}")
    if a.shape != shape:
        raise ValueError(f"{name} must be {size}, got shape {a.shape}")
    a = np.array(a, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


class GateMatrix:
    """A 4x4 unitary, checked once where it enters.

    A raw array must be 4x4, finite and within ``unitarity`` of unitary
    (max |U+U - I|, default 1e-9), else a ValueError naming matrix; the
    stored read-only matrix is its nearest unitary, the polar factor W V+.
    ``unitarity`` must be a finite number >= 0, else ValueError.  It is
    the only settable tolerance on gates (in_weyl_chamber's tol is one on
    coordinates): every function that takes a gate takes this one as it
    is, and checks a raw array at the default.
    ``unitarity_residual`` is the input's residual before projection;
    gates built in closed form carry their source's, or 0.0.

    Two private slots memoize what the package reads off the gate, each
    filled on first use: ``_reading``, the class reading of
    ``canonical._read_class`` (invariants and chamber point, one Gram
    matrix), and ``_kak``, the decomposition of ``canonical._kak_locals``
    (left, core, right, lam; one joint eigensolve).  Classifying a gate
    and synthesizing it, or decomposing it, then share that work.  The
    memo cannot go stale: the gate is immutable and its matrix is
    read-only, and the cached arrays are read-only too.  Two threads
    that race to fill a slot compute the same value, so no lock is
    needed.
    """

    __slots__ = ("matrix", "unitarity_residual", "_reading", "_kak")
    # np.shape reads this rather than converting the gate to an array
    shape = (4, 4)

    def __init__(self, matrix, unitarity: float = _UNITARITY_TOL):
        unitarity = _real("unitarity tolerance", unitarity, 0.0, want="a finite number >= 0")
        m = _array("matrix", matrix, (4, 4))
        residual = float(np.abs(m.conj().T @ m - np.eye(4)).max())
        if residual > unitarity:
            raise ValueError(
                f"matrix is not unitary: residual {residual:.3e} exceeds "
                f"tolerance {unitarity:.1e}"
            )
        w, _, vh = np.linalg.svd(m)
        _set_slots(self, w @ vh, residual)

    def __setattr__(self, name, value):
        raise AttributeError("GateMatrix is immutable")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.matrix, dtype=dtype or complex)

    def __repr__(self):
        return f"GateMatrix(residual={self.unitarity_residual:.2e})\n{self.matrix}"


def _set_slots(gate: GateMatrix, m: np.ndarray, residual: float) -> GateMatrix:
    m.setflags(write=False)
    object.__setattr__(gate, "matrix", m)
    object.__setattr__(gate, "unitarity_residual", residual)
    object.__setattr__(gate, "_reading", None)
    object.__setattr__(gate, "_kak", None)
    return gate


def _memoize(gate: GateMatrix, slot: str, value: tuple) -> tuple:
    """Fill one of gate's memo slots with value, its arrays made read-only."""
    for part in value:
        if isinstance(part, np.ndarray):
            part.setflags(write=False)
    object.__setattr__(gate, slot, value)
    return value


def _trusted_gate(m: np.ndarray, residual: float) -> GateMatrix:
    """A GateMatrix around an array unitary by construction, unchecked."""
    return _set_slots(object.__new__(GateMatrix), m, residual)


def as_gate(g) -> GateMatrix:
    """A GateMatrix as it is, trusted at the tolerance it was made with;
    any 4x4 array-like checked at the default, GateMatrix(g)."""
    if isinstance(g, GateMatrix):
        return g
    return GateMatrix(g)


def kron2(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators, first factor on qubit 0.

    Entry (2i + k, 2j + l) is a[i, j] * b[k, l], formed by one broadcast
    multiply: the same products np.kron forms, so the same bits, without
    its general-rank bookkeeping.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def rot_x(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_x)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rot_y(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_y)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rot_z(angle: float) -> np.ndarray:
    """exp(-i * angle * sigma_z)."""
    return np.array([[np.exp(-1j * angle), 0], [0, np.exp(1j * angle)]])


def su4_normalize(g) -> GateMatrix:
    """Rescale a 4x4 unitary to unit determinant.

    The scale factor is the principal fourth root of 1/det(g), i.e. the
    root whose argument lies in (-pi/4, pi/4]; the rescaled gate keeps
    its input's residual and is not checked again.  Idempotent up to
    floating-point noise.
    """
    gate = as_gate(g)
    factor = (1.0 / np.linalg.det(gate.matrix)) ** 0.25
    return _trusted_gate(factor * gate.matrix, gate.unitarity_residual)


# weights r = tan(m pi / 7) of X + r Y, tried in order; see the Notes below
_MIX_WEIGHTS = tuple(float(np.tan(m * np.pi / 7)) for m in (1, 2, 3, 0))
# a weight that separates every eigenpair leaves rounding, far below this
_DIAGONALITY_TOL = 1e-9
# symmetry and Kronecker residuals: rounding on the package's unitary inputs
_RESIDUAL_TOL = 1e-8


def eig_commuting_symmetric_pair(x, y):
    """Simultaneously diagonalize two commuting real symmetric 4x4 matrices.

    Parameters
    ----------
    x, y : (4, 4) finite real, symmetric, ||XY - YX||_max <= 1e-8; else ValueError.

    Returns
    -------
    pairs : (4, 2) ndarray
        Row k holds (x_k, y_k), the k-th diagonal values of the two
        transformed matrices.
    frame : (4, 4) ndarray
        Real orthogonal O with O.T @ X @ O and O.T @ Y @ O diagonal
        within 1e-9.

    Notes
    -----
    ``numpy.linalg.eigh`` of X + r Y (Tucci, quant-ph/0507171) for each r
    in ``_MIX_WEIGHTS`` in turn, until the off-diagonal residual is within
    1e-9.  Eigenpairs that differ by |d| (sin b, -cos b) lie
    |d| sqrt(1 + r^2) |sin(b - atan r)| apart in X + r Y, so eigh
    separates them to rounding unless atan r is near b (mod pi).  The
    angles m pi/7 are pi/7 apart, so each b comes within pi/14 of at most
    one m.  Gram pairs (cos t, sin t) have b = +-2 c_k, so each canonical
    coordinate rules out at most one class {m, -m} of the four {0},
    {+-1}, {+-2}, {+-3}; one class is left, and the weights m = 1, 2, 3, 0
    keep all six differences at least pi/14 away at one of them.
    """
    X = _array("x", x, (4, 4), float)
    Y = _array("y", y, (4, 4), float)
    sym = max(np.abs(X - X.T).max(), np.abs(Y - Y.T).max())
    if sym > _RESIDUAL_TOL:
        raise ValueError(f"inputs are not symmetric (residual {sym:.3e})")
    comm = np.abs(X @ Y - Y @ X).max()
    if comm > 1e-8:
        raise ValueError(
            f"matrices do not commute: ||XY - YX||_max = {comm:.3e} exceeds 1e-8"
        )

    offs = []
    for r in _MIX_WEIGHTS:
        _, frame = np.linalg.eigh(X + r * Y)
        d = frame.T @ np.stack([X, Y]) @ frame
        offs.append(np.abs(d * (1 - np.eye(4))).max())
        if offs[-1] <= _DIAGONALITY_TOL:
            return np.column_stack([d[0].diagonal(), d[1].diagonal()]), frame
    raise ConsistencyError(
        f"joint diagonalization failed: off-diagonal residual {min(offs):.3e} "
        f"at best over the weights {_MIX_WEIGHTS}"
    )


def split_local(m):
    """Factor a local 4x4 unitary into SU(2) tensor factors.

    Given m = a (x) b (up to the joint sign ambiguity), returns 2x2
    unitaries (a, b), both with determinant 1, whose Kronecker product
    reproduces m.  Uses the rank-one structure of the rearranged matrix:
    reshuffling m so that kron() becomes an outer product reduces the
    problem to the leading singular vector pair.

    Raises ValueError naming m unless it is a 4x4 array of finite numbers,
    and ConsistencyError if it is not a Kronecker product within 1e-8.
    """
    M = _array("m", m, (4, 4))
    R = M.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(R)
    a = (u[:, 0] * np.sqrt(s[0])).reshape(2, 2)
    b = (vh[0, :] * np.sqrt(s[0])).reshape(2, 2)
    # pull each factor onto SU(2); det(a)*det(b) = +1 for any local
    # unitary of determinant 1, so both renormalizations succeed together
    z = np.sqrt(np.linalg.det(a))
    if abs(z) < 1e-12:
        raise ConsistencyError("Kronecker factor has numerically zero determinant")
    a = a / z
    b = b * z
    residual = np.abs(kron2(a, b) - M).max()
    if residual > _RESIDUAL_TOL:
        raise ConsistencyError(
            f"matrix is not a Kronecker product (residual {residual:.3e})"
        )
    return a, b
