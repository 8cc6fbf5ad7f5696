"""The Monte Carlo batch loop writes every batch into one per-call
workspace; these tests pin that reuse to the allocating stream."""

import numpy as np
import pytest

from weylforge import GateMatrix, canonical_gate, haar_product_states
from weylforge.entangle import _BATCH, _image_concurrences
from weylforge.gates import CNOT
from weylforge.spe import separability_preservation_probe


def test_sampler_fills_and_returns_out_with_the_allocating_states():
    for seed in (0, 1, 77, 2**31 - 1, 2**63 - 1):
        for batch_index in (0, 1, 31, 1000):
            for count in (1, 3, 1357, _BATCH):
                buf = np.empty((count, 4), dtype=complex)
                got = haar_product_states(seed, batch_index, count, out=buf)
                assert got is buf
                want = haar_product_states(seed, batch_index, count)
                assert np.array_equal(buf, want), (seed, batch_index, count)


@pytest.mark.parametrize(
    "out",
    [
        np.empty((5, 4), dtype=np.complex64),
        np.empty((5, 4), dtype=np.float64),
        np.empty((5, 3), dtype=complex),
        np.empty((6, 4), dtype=complex),
        np.empty(20, dtype=complex),
        [[0j] * 4] * 5,
    ],
    ids=["complex64", "float64", "narrow", "tall", "flat", "list"],
)
def test_sampler_rejects_out_of_the_wrong_shape_or_dtype(out):
    with pytest.raises(ValueError, match=r"\(5, 4\) complex128"):
        haar_product_states(7, 0, 5, out=out)


def test_batch_loop_yields_views_of_one_buffer():
    gate = GateMatrix(CNOT).matrix
    batches = list(_image_concurrences(gate, 3 * _BATCH, 0))
    assert len(batches) == 3
    for earlier, later in zip(batches, batches[1:]):
        assert np.shares_memory(earlier, later)


def test_separability_probe_counts_the_keyed_stream_exactly():
    # A gate within 1e-7 of the identity class keeps about a third of the
    # images under the threshold, so a final short batch that read stale
    # rows of the reused buffer would change the count.
    g = canonical_gate((1e-7, 0, 0))
    n = _BATCH + 1357
    kept = 0
    for j, count in enumerate((_BATCH, 1357)):
        images = haar_product_states(5, j, count) @ np.asarray(g).T
        conc = 2 * np.abs(images[:, 0] * images[:, 3] - images[:, 1] * images[:, 2])
        kept += int(np.count_nonzero(conc <= 1e-7))
    probe = separability_preservation_probe(g, n, 5)
    assert probe == kept / n
    assert 0.2 < probe < 0.5
