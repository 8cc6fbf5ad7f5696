"""Pure-state entanglement measures and gate entangling power.

State conventions: a two-qubit pure state is a length-4 complex vector
over |00>, |01>, |10>, |11| with unit norm.  The magic basis used for
the separability and maximal-entanglement criteria is the phase-fixed
Bell family {Phi+, -i Phi-, Psi-, -i Psi+}; in that basis a state is
separable exactly when its squared coefficients sum to zero, and
maximally entangled exactly when they all carry one common phase.

Entangling power of a gate is the average output linear entropy over
Haar-random product inputs; it has the closed form

    e_p = (1/18) [3 - (cos4c1 cos4c2 + cos4c2 cos4c3 + cos4c3 cos4c1)]

in canonical coordinates, and a Monte Carlo estimator whose sample
stream is counter-based: batch j of a run with seed s draws from an
independent generator keyed (s, j), so any partition of the batch range
over parallel workers reproduces the single-worker result bit for bit.
Seeds and batch indices are integers in [0, 2**63); anything else is a
ValueError, since Philox would alias or reject it.

The sampling formula is part of that stream contract, down to its
rounding steps: each qubit's phase factor exp(i ph/2) is computed once,
and its conjugate, bit-identical to exp(-i ph/2), serves the |1>
amplitude.  tests/test_entangle.py pins the stream to the reference
formula with four exponentials.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import Tolerances, DEFAULT_TOLERANCES, ConsistencyError, as_gate

__all__ = [
    "MAGIC_STATES",
    "EpEstimate",
    "concurrence_pure",
    "linear_entropy",
    "magic_coefficients",
    "classify_state",
    "entangling_power_closed",
    "entangling_power_mc",
    "haar_product_states",
]

_SQ2 = np.sqrt(2.0)

# Columns: Phi+, -i Phi-, Psi-, -i Psi+ over |00>,|01>,|10>,|11>.
MAGIC_STATES = np.array(
    [
        [1, -1j, 0, 0],
        [0, 0, 1, -1j],
        [0, 0, -1, -1j],
        [1, 1j, 0, 0],
    ],
    dtype=complex,
) / _SQ2
MAGIC_STATES.setflags(write=False)

_BATCH = 4096
# Philox key words are read as int64 first: 2**63 and -2**63 alias
_KEY_LIMIT = 2**63


@dataclass(frozen=True)
class EpEstimate:
    """Monte Carlo entangling-power estimate with its provenance."""

    mean: float
    std_error: float
    samples: int
    seed: int


def _state(s) -> np.ndarray:
    v = np.asarray(s, dtype=complex).reshape(-1)
    if v.shape != (4,):
        raise ValueError(f"expected a length-4 state vector, got shape {v.shape}")
    norm2 = float(np.vdot(v, v).real)
    if abs(norm2 - 1.0) > 1e-12:
        raise ValueError(f"state is not normalized: |s|^2 = {norm2!r}")
    return v


def concurrence_pure(s) -> float:
    """Concurrence 2|ad - bc| of a normalized pure state (a,b,c,d)."""
    v = _state(s)
    return float(2.0 * abs(v[0] * v[3] - v[1] * v[2]))


def linear_entropy(s) -> float:
    """Linear entropy 1 - tr(rho_A^2) of the reduced state of qubit 0.

    Equals concurrence_pure(s)^2 / 2; ranges over [0, 1/2].
    """
    v = _state(s).reshape(2, 2)
    rho = v @ v.conj().T
    return float(1.0 - np.trace(rho @ rho).real)


def magic_coefficients(s) -> np.ndarray:
    """Expansion coefficients (mu_1..mu_4) of s in the magic basis."""
    return MAGIC_STATES.conj().T @ _state(s)


def classify_state(s) -> str:
    """Sort a pure state into 'separable', 'maximal', or 'intermediate'.

    Separable: the squared magic coefficients sum to zero (within 1e-9).
    Maximal: every nonzero squared coefficient carries the same phase
    (within 1e-9), referenced to the largest one.  Both criteria are
    cross-checked against the concurrence, which they must reproduce.
    """
    v = _state(s)
    conc = concurrence_pure(v)
    w = magic_coefficients(v) ** 2
    if abs(w.sum()) <= 1e-9:
        if conc > 1e-9:
            raise ConsistencyError(
                f"separability criterion disagrees with concurrence {conc!r}"
            )
        return "separable"
    ref = w[np.argmax(np.abs(w))]
    ref = ref / abs(ref)
    live = np.abs(w) > 1e-12
    shared = np.abs(np.angle(w[live] * ref.conjugate())).max() <= 1e-9
    if shared:
        if conc < 1.0 - 1e-9:
            raise ConsistencyError(
                f"common-phase criterion disagrees with concurrence {conc!r}"
            )
        return "maximal"
    return "intermediate"


def entangling_power_closed(c) -> float:
    """Closed-form entangling power of the class at coordinates c."""
    f1, f2, f3 = (np.cos(4.0 * float(v)) for v in c)
    return float((3.0 - (f1 * f2 + f2 * f3 + f3 * f1)) / 18.0)


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _key_word(name: str, value) -> int:
    """value as one word of a Philox key: an integer in [0, 2**63)."""
    k = _integer(name, value)
    if not 0 <= k < _KEY_LIMIT:
        raise ValueError(f"{name} must be an integer in [0, 2**63), got {value!r}")
    return k


def haar_product_states(seed: int, batch_index: int, count: int) -> np.ndarray:
    """One batch of Haar-random two-qubit product states, shape (count, 4).

    Each qubit is drawn by inverse CDF on the Bloch sphere (cos theta
    uniform on [-1, 1], azimuth ph uniform).  The generator is keyed by
    (seed, batch_index), both integers in [0, 2**63), making batches
    mutually independent and the whole stream reproducible under any
    work partition.  Each qubit's phase factor e = exp(i ph/2) is
    computed once; e.conj() is bit-identical to exp(-i ph/2) and serves
    the |1> amplitude.  This formula is part of the stream contract.
    """
    key = [_key_word("seed", seed), _key_word("batch_index", batch_index)]
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((count, 4))
    ct1, ph1 = 2.0 * u[:, 0] - 1.0, 2.0 * np.pi * u[:, 1]
    ct2, ph2 = 2.0 * u[:, 2] - 1.0, 2.0 * np.pi * u[:, 3]
    e1 = np.exp(0.5j * ph1)
    e2 = np.exp(0.5j * ph2)
    a0 = np.sqrt((1.0 + ct1) / 2.0) * e1
    a1 = np.sqrt((1.0 - ct1) / 2.0) * e1.conj()
    b0 = np.sqrt((1.0 + ct2) / 2.0) * e2
    b1 = np.sqrt((1.0 - ct2) / 2.0) * e2.conj()
    states = np.empty((count, 4), dtype=complex)
    np.multiply(a0, b0, out=states[:, 0])
    np.multiply(a0, b1, out=states[:, 1])
    np.multiply(a1, b0, out=states[:, 2])
    np.multiply(a1, b1, out=states[:, 3])
    return states


def _sample_run(n, seed) -> tuple:
    """(n, seed) of a sampling run as plain ints, or ValueError: n a
    positive integer, seed an integer in [0, 2**63)."""
    n = _integer("sample count", n)
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    return n, _key_word("seed", seed)


def _image_concurrences(gate: np.ndarray, n: int, seed: int):
    """Yield, batch by batch, the concurrences of gate|psi> over n Haar
    product states psi drawn from the stream keyed by seed.

    Batches hold 4096 states (the last one the remainder), batch j drawn
    by haar_product_states(seed, j, count).
    """
    for j in range((n + _BATCH - 1) // _BATCH):
        count = min(_BATCH, n - j * _BATCH)
        images = haar_product_states(seed, j, count) @ gate.T
        yield 2.0 * np.abs(images[:, 0] * images[:, 3] - images[:, 1] * images[:, 2])


def entangling_power_mc(
    g, n: int, seed: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> EpEstimate:
    """Monte Carlo entangling power: mean output linear entropy over n
    Haar product states.

    The per-sample entropy is evaluated through the concurrence identity
    E = C^2/2, which keeps product images at exactly zero.  Batches of
    4096 are accumulated separately and summed once at the end, so the
    result is bitwise independent of how batches are grouped into
    workers.
    """
    n, seed = _sample_run(n, seed)
    gate = as_gate(g, tol=tol).matrix
    sums = []
    squares = []
    for conc in _image_concurrences(gate, n, seed):
        entropy = 0.5 * conc**2
        sums.append(entropy.sum())
        squares.append((entropy * entropy).sum())
    total = float(np.sum(sums))
    total_sq = float(np.sum(squares))
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - total * total / n) / (n - 1))
        std_error = float(np.sqrt(var / n))
    else:
        std_error = 0.0
    return EpEstimate(mean=mean, std_error=std_error, samples=n, seed=seed)
