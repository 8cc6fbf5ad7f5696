"""The Monte Carlo batches of a run are split over worker threads; these
tests pin the estimates to one serial loop, bit for bit, and check what
the workers do with errors and threads."""

import sys
import threading

import numpy as np
import pytest

from weylforge import GateMatrix, NAMED_GATES, entangling_power_mc
from weylforge import entangle
from weylforge.entangle import _BATCH, _image_product
from weylforge.spe import separability_preservation_probe

from conftest import chamber_point, dressed

COUNTS = (1, 3, 4095, _BATCH, _BATCH + 1, _BATCH + 1357, 32 * _BATCH)


def _serial_concurrences(gate, n, seed):
    """Reference loop: one workspace, every batch on the calling thread,
    the image product in one matmul per batch."""
    rows = min(n, _BATCH)
    states = np.empty((rows, 4), dtype=complex)
    images = np.empty((rows, 4), dtype=complex)
    for j in range((n + _BATCH - 1) // _BATCH):
        count = min(_BATCH, n - j * _BATCH)
        psi = entangle.haar_product_states(seed, j, count, out=states[:count])
        im = np.matmul(psi, gate.T, out=images[:count])
        yield 2.0 * np.abs(im[:, 0] * im[:, 3] - im[:, 1] * im[:, 2])


def _serial_mc(g, n, seed):
    """(mean, std_error) of the GateMatrix g as float.hex, summed as
    entangling_power_mc sums."""
    sums, squares = [], []
    for conc in _serial_concurrences(g.matrix, n, seed):
        entropy = 0.5 * np.square(conc)
        sums.append(entropy.sum())
        squares.append(np.square(entropy).sum())
    total, total_sq = float(np.sum(sums)), float(np.sum(squares))
    mean = total / n
    if n > 1:
        var = max(0.0, (total_sq - total * total / n) / (n - 1))
        std_error = float(np.sqrt(var / n))
    else:
        std_error = 0.0
    return mean.hex(), std_error.hex()


def _serial_probe(g, n, seed):
    kept = sum(
        int(np.count_nonzero(conc <= 1e-7))
        for conc in _serial_concurrences(g.matrix, n, seed)
    )
    return (kept / n).hex()


def _mc_hex(g, n, seed):
    est = entangling_power_mc(g, n, seed)
    return est.mean.hex(), est.std_error.hex()


def _gates():
    rng = np.random.default_rng(1401)
    named = [GateMatrix(NAMED_GATES[k]) for k in ("cnot", "b", "sqrtswap", "swap")]
    return named + [GateMatrix(dressed(chamber_point(rng), rng)) for _ in range(3)]


@pytest.mark.parametrize("n", COUNTS)
def test_estimates_and_probes_match_the_serial_loop(n):
    for i, g in enumerate(_gates()):
        seed = 31 * i + n
        assert _mc_hex(g, n, seed) == _serial_mc(g, n, seed), (i, n)
        want = _serial_probe(g, n, seed)
        assert separability_preservation_probe(g, n, seed).hex() == want, (i, n)


@pytest.mark.parametrize("workers", [1, 2, 3, 7, 32, 64])
def test_every_partition_reproduces_one_worker(workers, monkeypatch):
    # more workers than cores, with a short switch interval, so that
    # threads interleave within batches
    g = _gates()[4]
    n = 5 * _BATCH + 1357
    want = _serial_mc(g, n, 9), _serial_probe(g, n, 9)
    monkeypatch.setattr(entangle, "_cores", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _mc_hex(g, n, 9), separability_preservation_probe(g, n, 9).hex()
    finally:
        sys.setswitchinterval(interval)
    assert got == want


@pytest.mark.parametrize(
    "count", [1, 3, 511, 512, 513, 1357, 2047, 2048, 2049, 4095, _BATCH]
)
def test_blocked_image_product_is_the_one_matmul_product(count):
    rng = np.random.default_rng(count)
    for g in _gates():
        gate = g.matrix
        psi = entangle.haar_product_states(int(rng.integers(2**63)), 0, count)
        out = np.empty_like(psi)
        _image_product(psi, gate, out)
        assert out.tobytes() == (psi @ gate.T).tobytes(), count


def _sampler_log(monkeypatch, fail_on=()):
    """Patch the module-global sampler to record (batch, thread) of each
    call and to raise a fresh error on the batches in fail_on.  Thread
    objects are recorded, not idents, which a later thread may reuse."""
    original = entangle.haar_product_states
    calls, raised = [], []

    def sampler(seed, batch_index, count, out=None):
        calls.append((batch_index, threading.current_thread()))
        if batch_index in fail_on:
            raised.append(RuntimeError(f"sampler failed on batch {batch_index}"))
            raise raised[-1]
        return original(seed, batch_index, count, out=out)

    monkeypatch.setattr(entangle, "haar_product_states", sampler)
    return calls, raised


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize(
    "run",
    [
        lambda g, n: entangling_power_mc(g, n, 4),
        lambda g, n: separability_preservation_probe(g, n, 4),
    ],
    ids=["entangling_power_mc", "separability_preservation_probe"],
)
def test_a_worker_error_reaches_the_caller_after_every_thread_ends(
    run, workers, monkeypatch
):
    # with 8 workers, batch 5 is drawn on a worker thread, not the caller
    monkeypatch.setattr(entangle, "_cores", lambda: workers)
    g = GateMatrix(NAMED_GATES["b"])
    before = threading.active_count()
    _, raised = _sampler_log(monkeypatch, fail_on={5})
    with pytest.raises(RuntimeError, match="batch 5") as info:
        run(g, 32 * _BATCH)
    assert info.value is raised[0]
    assert threading.active_count() == before
    monkeypatch.undo()
    monkeypatch.setattr(entangle, "_cores", lambda: workers)
    run(g, 32 * _BATCH)
    assert threading.active_count() == before


def test_the_earliest_failing_batch_is_the_one_raised(monkeypatch):
    monkeypatch.setattr(entangle, "_cores", lambda: 4)
    _sampler_log(monkeypatch, fail_on={5, 20})
    with pytest.raises(RuntimeError, match="batch 5"):
        entangling_power_mc(GateMatrix(NAMED_GATES["cnot"]), 32 * _BATCH, 4)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_the_sampler_runs_once_per_batch(workers, monkeypatch):
    monkeypatch.setattr(entangle, "_cores", lambda: workers)
    calls, _ = _sampler_log(monkeypatch)
    g = GateMatrix(NAMED_GATES["sqrtswap"])
    entangling_power_mc(g, 10 * _BATCH + 7, 3)
    assert sorted(j for j, _ in calls) == list(range(11))
    assert len({thread for _, thread in calls}) == workers


def test_one_batch_runs_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(entangle, "_cores", lambda: 8)
    calls, _ = _sampler_log(monkeypatch)
    before = threading.active_count()
    separability_preservation_probe(GateMatrix(NAMED_GATES["cnot"]), _BATCH, 3)
    assert calls == [(0, threading.current_thread())]
    assert threading.active_count() == before
