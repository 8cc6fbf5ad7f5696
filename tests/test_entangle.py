import numpy as np
import pytest

from weylforge import (
    GateMatrix,
    canonical_gate,
    classify_state,
    concurrence_pure,
    entangling_power_closed,
    entangling_power_mc,
    extract_coordinates,
    haar_product_states,
    kron2,
    linear_entropy,
    magic_coefficients,
)
import weylforge.entangle as entangle
from weylforge.entangle import MAGIC_STATES, _BATCH
from weylforge.gates import CNOT, NAMED_GATES, SWAP

from conftest import chamber_point, dressed, haar_state

TWO_NINTHS = 2.0 / 9.0


def _four_exponential_states(seed, batch_index, count, out=None):
    """Reference sampler: the earlier formula with four complex
    exponentials and a stack of four temporaries.  The stream contract
    says the sampler must reproduce it bit for bit.  Like the sampler,
    it fills and returns out when one is given."""
    gen = np.random.Generator(np.random.Philox(key=[seed, batch_index]))
    u = gen.random((count, 4))
    ct1, ph1 = 2.0 * u[:, 0] - 1.0, 2.0 * np.pi * u[:, 1]
    ct2, ph2 = 2.0 * u[:, 2] - 1.0, 2.0 * np.pi * u[:, 3]
    a0 = np.sqrt((1.0 + ct1) / 2.0) * np.exp(0.5j * ph1)
    a1 = np.sqrt((1.0 - ct1) / 2.0) * np.exp(-0.5j * ph1)
    b0 = np.sqrt((1.0 + ct2) / 2.0) * np.exp(0.5j * ph2)
    b1 = np.sqrt((1.0 - ct2) / 2.0) * np.exp(-0.5j * ph2)
    states = np.stack([a0 * b0, a0 * b1, a1 * b0, a1 * b1], axis=1)
    if out is None:
        return states
    out[...] = states
    return out


def test_concurrence_known_states():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(concurrence_pure(bell) - 1) < 1e-15
    assert concurrence_pure(np.array([1, 0, 0, 0], dtype=complex)) < 1e-15
    plus = np.full(4, 0.5)  # (|0>+|1>)(|0>+|1>)/2
    assert concurrence_pure(plus) < 1e-15
    alpha = 0.3
    tilted = np.array([np.cos(alpha), 0, 0, np.sin(alpha)])
    assert abs(concurrence_pure(tilted) - np.sin(2 * alpha)) < 1e-15


def test_linear_entropy_is_half_squared_concurrence():
    rng = np.random.default_rng(71)
    for _ in range(20):
        s = haar_state(rng, dim=4)
        assert abs(linear_entropy(s) - concurrence_pure(s) ** 2 / 2) < 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        concurrence_pure(np.ones(3))
    with pytest.raises(ValueError):
        concurrence_pure(np.ones(4))  # not normalized


@pytest.mark.parametrize(
    "measure", [concurrence_pure, linear_entropy, magic_coefficients, classify_state]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
def test_state_measures_reject_non_finite_entries(measure, bad):
    with pytest.raises(ValueError, match="non-finite"):
        measure(np.array([bad, 0, 0, 0], dtype=complex))


def test_magic_coefficients_are_deltas_on_magic_states():
    for k in range(4):
        mu = magic_coefficients(MAGIC_STATES[:, k])
        want = np.zeros(4)
        want[k] = 1.0
        assert np.abs(mu - want).max() < 1e-15


def test_concurrence_equals_magic_coefficient_square_sum():
    rng = np.random.default_rng(72)
    for _ in range(30):
        s = haar_state(rng, dim=4)
        mu = magic_coefficients(s)
        assert abs(abs((mu**2).sum()) - concurrence_pure(s)) < 1e-12


def test_classify_state_labels():
    assert classify_state(np.array([0, 1, 0, 0], dtype=complex)) == "separable"
    for k in range(4):
        assert classify_state(MAGIC_STATES[:, k]) == "maximal"
    tilted = np.array([np.cos(0.3), 0, 0, np.sin(0.3)])
    assert classify_state(tilted) == "intermediate"


def test_entangling_power_closed_named_classes():
    cases = {
        "identity": 0.0,
        "cnot": TWO_NINTHS,
        "dcnot": TWO_NINTHS,
        "b": TWO_NINTHS,
        "swap": 0.0,
        "sqrtswap": 1.0 / 6.0,
    }
    for name, want in cases.items():
        c = extract_coordinates(NAMED_GATES[name])
        assert abs(entangling_power_closed(c) - want) < 1e-12, name


@pytest.mark.parametrize("c", [(np.nan, 0.0, 0.0), (0.1, np.inf, 0.0), (0.1, 0.0, -np.inf)])
def test_entangling_power_closed_rejects_non_finite_coordinates(c):
    with pytest.raises(ValueError, match="coordinates must be finite"):
        entangling_power_closed(c)


def test_entangling_power_closed_is_class_invariant():
    rng = np.random.default_rng(73)
    from weylforge import reduce_to_weyl

    for _ in range(20):
        c = rng.uniform(-np.pi, np.pi, size=3)
        a = entangling_power_closed(c)
        b = entangling_power_closed(reduce_to_weyl(c))
        assert abs(a - b) < 1e-12


def test_entangling_power_closed_stays_in_range():
    rng = np.random.default_rng(79)
    values = [
        entangling_power_closed(c)
        for c in rng.uniform(-np.pi, np.pi, size=(100_000, 3))
    ]
    assert min(values) >= 0.0
    assert max(values) <= TWO_NINTHS + 1e-12


def test_entangling_power_unchanged_by_dagger_and_swap():
    rng = np.random.default_rng(74)
    for _ in range(8):
        g = dressed(chamber_point(rng), rng)
        ep = entangling_power_closed(extract_coordinates(g))
        ep_dag = entangling_power_closed(extract_coordinates(g.conj().T))
        ep_swapped = entangling_power_closed(extract_coordinates(np.asarray(SWAP) @ g))
        assert abs(ep - ep_dag) < 1e-10
        assert abs(ep - ep_swapped) < 1e-10


def test_haar_product_states_shape_norm_determinism():
    a = haar_product_states(9, 0, 100)
    b = haar_product_states(9, 0, 100)
    c = haar_product_states(9, 1, 100)
    assert a.shape == (100, 4)
    assert np.abs(np.linalg.norm(a, axis=1) - 1).max() < 1e-12
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # product states carry no entanglement
    conc = 2 * np.abs(a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2])
    assert conc.max() < 1e-12


def test_haar_product_states_marginal_statistics():
    # |<00|psi>|^2 = p q with p, q independent uniform on [0, 1]
    s = haar_product_states(10, 0, 200_000)
    w = np.abs(s[:, 0]) ** 2
    assert abs(w.mean() - 0.25) < 3e-3


def test_mc_estimate_matches_closed_form_for_cnot():
    est = entangling_power_mc(GateMatrix(CNOT), 200_000, 2024)
    assert est.samples == 200_000
    assert est.seed == 2024
    assert abs(est.mean - TWO_NINTHS) < 3 * est.std_error


def test_mc_estimate_vanishes_for_swap():
    est = entangling_power_mc(GateMatrix(SWAP), 5000, 1)
    assert est.mean < 1e-12
    assert est.std_error < 1e-12


def test_mc_estimate_is_locally_invariant_within_noise():
    # same seed stream, locally dressed gate: the estimates differ only
    # through the dressing's effect on each sample, so 3 combined
    # standard errors is a generous band
    rng = np.random.default_rng(75)
    c = chamber_point(rng)
    bare = entangling_power_mc(canonical_gate(c), 200_000, 31)
    dress = entangling_power_mc(dressed(c, rng), 200_000, 31)
    combined = np.hypot(bare.std_error, dress.std_error)
    assert abs(bare.mean - dress.mean) < 3 * combined


def test_mc_estimate_is_reproducible_and_batch_decomposable():
    g = GateMatrix(NAMED_GATES["b"])
    n = _BATCH + 1357  # forces an uneven final batch
    est1 = entangling_power_mc(g, n, 77)
    est2 = entangling_power_mc(g, n, 77)
    assert est1.mean == est2.mean
    assert est1.std_error == est2.std_error

    # the value is exactly the mean over the same keyed sample stream
    total = 0.0
    for i, count in enumerate((_BATCH, 1357)):
        s = haar_product_states(77, i, count)
        out = s @ np.asarray(g).T
        conc = 2 * np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
        total += (conc**2 / 2).sum()
    assert est1.mean == total / n


def test_sampler_reproduces_the_four_exponential_formula():
    for seed in (0, 1, 77, 2**31 - 1, 2**63 - 1):
        for batch_index in (0, 1, 31, 1000):
            for count in (1, 3, 1357, _BATCH):
                want = _four_exponential_states(seed, batch_index, count)
                got = haar_product_states(seed, batch_index, count)
                assert got.shape == want.shape
                assert np.array_equal(got, want), (seed, batch_index, count)


@pytest.mark.parametrize("name", ["cnot", "b", "sqrtswap"])
def test_mc_estimates_match_the_four_exponential_stream(name, monkeypatch):
    g = GateMatrix(NAMED_GATES[name])
    runs = [(1, 3), (_BATCH + 1357, 77), (131072, 7)]
    new = [entangling_power_mc(g, n, seed) for n, seed in runs]
    monkeypatch.setattr(entangle, "haar_product_states", _four_exponential_states)
    old = [entangling_power_mc(g, n, seed) for n, seed in runs]
    for a, b in zip(new, old):
        assert (a.mean.hex(), a.std_error.hex()) == (b.mean.hex(), b.std_error.hex())


@pytest.mark.parametrize(
    "seed", [-1, 2**63, -(2**63), 2**64 - 1, 2**64, 7.0, "7", None]
)
def test_sampling_rejects_seeds_outside_the_key_range(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        entangling_power_mc(GateMatrix(CNOT), 100, seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        haar_product_states(seed, 0, 10)


@pytest.mark.parametrize("batch_index", [-1, 2**63, 2**64 - 1, 1.0])
def test_sampler_rejects_batch_indices_outside_the_key_range(batch_index):
    with pytest.raises(ValueError, match="batch_index"):
        haar_product_states(7, batch_index, 10)


def test_sampling_accepts_the_ends_of_the_key_range_and_numpy_integers():
    g = GateMatrix(CNOT)
    top = entangling_power_mc(g, 10, 2**63 - 1)
    assert top.seed == 2**63 - 1
    assert entangling_power_mc(g, 10, np.uint64(7)) == entangling_power_mc(g, 10, 7)
    assert haar_product_states(0, 2**63 - 1, 2).shape == (2, 4)


@pytest.mark.parametrize("n", [100.0, 1.5, "100", None])
def test_mc_estimate_rejects_non_integer_sample_counts(n):
    with pytest.raises(ValueError, match="sample count"):
        entangling_power_mc(GateMatrix(CNOT), n, 5)


def test_mc_estimate_single_sample_has_zero_error():
    est = entangling_power_mc(GateMatrix(CNOT), 1, 5)
    assert est.std_error == 0.0


def test_mc_estimate_rejects_empty_sample():
    with pytest.raises(ValueError):
        entangling_power_mc(GateMatrix(CNOT), 0, 5)


def test_canonical_gate_images_of_magic_states_stay_maximal():
    rng = np.random.default_rng(75)
    for _ in range(5):
        g = canonical_gate(chamber_point(rng)).matrix
        for k in range(4):
            assert abs(concurrence_pure(g @ MAGIC_STATES[:, k]) - 1) < 1e-12
