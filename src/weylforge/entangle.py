"""Pure-state entanglement measures and gate entangling power.

State conventions: a two-qubit pure state is a length-4 complex vector
over |00>, |01>, |10>, |11| with unit norm; the four state measures
refuse anything else with a ValueError naming s.  The magic basis used
for the separability and maximal-entanglement criteria is the
phase-fixed Bell family {Phi+, -i Phi-, Psi-, -i Psi+}; in that basis a
state is separable exactly when its squared coefficients sum to zero,
and maximally entangled exactly when they all carry one common phase.

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

The batches of a run are split into contiguous ranges, one per worker
thread: as many workers as the process may run on cores, at most one per
batch, the calling thread being the first.  Each worker allocates one
workspace (states, images and concurrence scratch for at most 4096 rows)
and writes every batch of its range into it in place, the sampler
filling its states through out=.  An array the loop yields is
overwritten by the next batch.  A worker reduces batch j to slot j of a
list, and the caller sums the slots in batch order, so the result is
that of one worker, bit for bit.  The image product runs in blocks of
2048 rows, small enough that BLAS computes each on the calling thread
rather than waking its own thread pool.  Neither the sampling formula
nor the stream changes: the in-place steps are the same ufuncs, in the
same order, as the allocating expressions they replace.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import ConsistencyError, _array, _integer, as_gate
from .canonical import _read_class, _target

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
# OpenBLAS threads a product of 4096 rows by a 4x4 matrix, not one of
# 4000; at half that its CPU time equals its wall time
_PRODUCT_ROWS = 2048
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
    v = _array("s", s, (4,))
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


def entangling_power_closed(target) -> float:
    """Closed-form entangling power of the class of target.

    target is a coordinate triple or a 4x4 gate; ValueError otherwise.
    A triple is evaluated as given, unfolded (the formula is
    class-invariant), a gate at its extracted chamber point.
    """
    gate, c = _target(target)
    if c is None:
        c = _read_class(gate)[1]
    f1, f2, f3 = (np.cos(4.0 * v) for v in c)
    return float((3.0 - (f1 * f2 + f2 * f3 + f3 * f1)) / 18.0)


def _key_word(name: str, value) -> int:
    """value as one word of a Philox key: an integer in [0, 2**63)."""
    return _integer(name, value, 0, _KEY_LIMIT - 1, "an integer in [0, 2**63)")


def haar_product_states(
    seed: int, batch_index: int, count: int, out: np.ndarray | None = None
) -> np.ndarray:
    """One batch of Haar-random two-qubit product states, shape (count, 4).

    Each qubit is drawn by inverse CDF on the Bloch sphere (cos theta
    uniform on [-1, 1], azimuth ph uniform).  The generator is keyed by
    (seed, batch_index), both integers in [0, 2**63), making batches
    mutually independent and the whole stream reproducible under any
    work partition; count is an integer >= 0 (ValueError otherwise).
    Each qubit's phase factor e = exp(i ph/2) is computed once; e.conj()
    is bit-identical to exp(-i ph/2) and serves the |1> amplitude.  This
    formula is part of the stream contract.

    out, as in numpy's ufuncs, is an optional (count, 4) complex128 array
    that receives the states and is returned; any other shape or dtype is
    a ValueError, since a narrower dtype would round the stream.  The
    states written are bit-identical to those of the allocating call.
    """
    key = [_key_word("seed", seed), _key_word("batch_index", batch_index)]
    count = _integer("count", count, 0, want="an integer >= 0")
    if out is None:
        out = np.empty((count, 4), dtype=complex)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == (count, 4)
        and out.dtype == np.complex128
    ):
        got = (
            f"{out.shape} {out.dtype}"
            if isinstance(out, np.ndarray)
            else type(out).__name__
        )
        raise ValueError(f"out must be a ({count}, 4) complex128 array, got {got}")
    gen = np.random.Generator(np.random.Philox(key=key))
    u = gen.random((count, 4))
    # Per qubit, columns (cos theta, ph) become the amplitudes (a0, a1)
    # in place, through the same ufuncs and rounding steps as
    # a0 = sqrt((1 + ct)/2) * e and a1 = sqrt((1 - ct)/2) * e.conj().
    amps = np.empty((4, count), dtype=complex)
    root = np.empty(count)
    for q in (0, 1):
        ct, ph = u[:, 2 * q], u[:, 2 * q + 1]
        a0, a1 = amps[2 * q], amps[2 * q + 1]
        np.multiply(2.0, ct, out=ct)
        np.subtract(ct, 1.0, out=ct)
        np.multiply(2.0 * np.pi, ph, out=ph)
        np.multiply(0.5j, ph, out=a0)
        np.exp(a0, out=a0)
        np.conjugate(a0, out=a1)
        np.subtract(1.0, ct, out=root)
        np.divide(root, 2.0, out=root)
        np.sqrt(root, out=root)
        np.multiply(root, a1, out=a1)
        np.add(1.0, ct, out=root)
        np.divide(root, 2.0, out=root)
        np.sqrt(root, out=root)
        np.multiply(root, a0, out=a0)
    a0, a1, b0, b1 = amps
    np.multiply(a0, b0, out=out[:, 0])
    np.multiply(a0, b1, out=out[:, 1])
    np.multiply(a1, b0, out=out[:, 2])
    np.multiply(a1, b1, out=out[:, 3])
    return out


def _sample_run(n, seed) -> tuple:
    """(n, seed) of a sampling run as plain ints, or ValueError: n a
    positive integer, seed an integer in [0, 2**63)."""
    return _integer("sample count", n, 1, want="positive"), _key_word("seed", seed)


def _batch_count(n: int) -> int:
    return (n + _BATCH - 1) // _BATCH


def _image_product(psi: np.ndarray, gate: np.ndarray, out: np.ndarray) -> None:
    """out = psi @ gate.T, bit for bit, in blocks of _PRODUCT_ROWS rows.

    A one-row block would take numpy's vector-matrix path, whose rounding
    differs from the matrix product's, so a one-row tail joins the block
    before it.
    """
    count = len(psi)
    edges = [*range(0, max(count - 1, 1), _PRODUCT_ROWS), count]
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(psi[lo:hi], gate.T, out=out[lo:hi])


def _image_concurrences(gate: np.ndarray, n: int, seed: int, batches=None):
    """Yield, batch by batch, the concurrences of gate|psi> over n Haar
    product states psi drawn from the stream keyed by seed.

    Batches hold 4096 states (the last one the remainder), batch j drawn
    by haar_product_states(seed, j, count) into the states buffer.
    batches, a range of batch indices, picks the ones to yield (all of
    them by default).  One workspace of min(n, 4096) rows serves the
    whole call: states, images and concurrence scratch are written in
    place, so the yielded array is a view that the next batch overwrites.
    Consume each batch before asking for the next.  The arithmetic, and
    so the stream, is that of the allocating formula 2|i0 i3 - i1 i2|
    over images = states @ gate.T.
    """
    if batches is None:
        batches = range(_batch_count(n))
    rows = min(n, _BATCH)
    states = np.empty((rows, 4), dtype=complex)
    images = np.empty((rows, 4), dtype=complex)
    ad = np.empty(rows, dtype=complex)
    bc = np.empty(rows, dtype=complex)
    conc = np.empty(rows)
    for j in batches:
        count = min(_BATCH, n - j * _BATCH)
        im, x, y, c = images[:count], ad[:count], bc[:count], conc[:count]
        psi = haar_product_states(seed, j, count, out=states[:count])
        _image_product(psi, gate, im)
        np.multiply(im[:, 0], im[:, 3], out=x)
        np.multiply(im[:, 1], im[:, 2], out=y)
        np.subtract(x, y, out=x)
        np.abs(x, out=c)
        np.multiply(2.0, c, out=c)
        yield c


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _per_batch(gate: np.ndarray, n: int, seed: int, reduce) -> list:
    """[reduce(concurrences of batch j) for each batch j] of the run
    (gate, n, seed), with the batches split over worker threads.

    Worker k owns the k-th of w contiguous ranges of batch indices,
    w = min(cores, batches); the calling thread is worker 0, so a run of
    one batch starts no thread.  Every thread is joined before this
    returns or raises.  A worker stops at its first exception, and the
    one re-raised is that of the lowest worker, which is the exception
    of the earliest failing batch, as in a serial loop.
    """
    batches = _batch_count(n)
    workers = min(_cores(), batches)
    results = [None] * batches
    errors = [None] * workers

    def work(k):
        owned = range(k * batches // workers, (k + 1) * batches // workers)
        try:
            for j, conc in zip(owned, _image_concurrences(gate, n, seed, owned)):
                results[j] = reduce(conc)
        except BaseException as exc:  # re-raised by the caller below
            errors[k] = exc

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def entangling_power_mc(g, n: int, seed: int) -> EpEstimate:
    """Monte Carlo entangling power: mean output linear entropy over n
    Haar product states.

    The per-sample entropy is evaluated through the concurrence identity
    E = C^2/2, which keeps product images at exactly zero.  Batches of
    4096 are accumulated separately, on as many threads as there are
    cores, and summed once at the end in batch order, so the result is
    bitwise independent of how batches are grouped into workers.
    """
    n, seed = _sample_run(n, seed)
    gate = as_gate(g).matrix

    def moments(entropy):
        # entropy = 0.5 * conc**2, then its square, in the batch's buffer
        np.square(entropy, out=entropy)
        np.multiply(0.5, entropy, out=entropy)
        total = entropy.sum()
        np.square(entropy, out=entropy)
        return total, entropy.sum()

    sums, squares = zip(*_per_batch(gate, n, seed, moments))
    total = float(np.sum(sums))
    total_sq = float(np.sum(squares))
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - total * total / n) / (n - 1))
        std_error = float(np.sqrt(var / n))
    else:
        std_error = 0.0
    return EpEstimate(mean=mean, std_error=std_error, samples=n, seed=seed)
