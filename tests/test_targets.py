"""Every public function that takes a class, against every input form.

A target is read once, by canonical._target: a coordinate triple or a
4x4 gate, a ValueError naming the shape otherwise.  The table below
calls each public function that takes a triple, a gate or either with
each form; nothing may raise TypeError.  A gate and its extracted
triple must give the same answer bit for bit, and a guard walks the
public API so a new ``target`` parameter cannot miss the reader.
"""

import inspect

import numpy as np
import pytest

import weylforge as wf

from conftest import boundary_classes, chamber_point, dressed

EIGHTH = np.pi / 8
QUARTER = np.pi / 4
TRIPLE = (0.6, 0.25, -0.1)
_GATE = wf.canonical_gate(TRIPLE).matrix
_CIRCUIT = wf.synthesize(TRIPLE, EIGHTH)

TRIPLES = {
    "tuple": TRIPLE,
    "list": list(TRIPLE),
    "ndarray": np.array(TRIPLE),
    "CanonicalCoords": wf.CanonicalCoords(*TRIPLE),
}
GATES = {"4x4": _GATE, "GateMatrix": wf.GateMatrix(_GATE)}
MALFORMED = {
    "(5,)": (0.1,) * 5,
    "(4,4,1)": np.zeros((4, 4, 1)),
    "(2,2)": np.eye(2),
    "(3,1)": np.zeros((3, 1)),
    "'123'": "123",
    "'cnot'": "cnot",
    "None": None,
    "(4,4) of text": [["x"] * 4] * 4,
    # the inputs of test_perfect_entangler_rejects_other_shapes and
    # test_synthesize_rejects_malformed_targets
    "(2,)": np.zeros(2),
    "(4,)": np.zeros(4),
    "(3,3)": np.eye(3),
    "0.5": 0.5,
    "'swap'": "swap",
}
FORMS = {**TRIPLES, **GATES, **MALFORMED}

# a valid value for every parameter a target function takes besides target
_OTHER_ARGS = {"p": EIGHTH, "c": _CIRCUIT, "grid_size": 5}

TARGET_FUNCTIONS = {
    "synthesize",
    "is_perfect_entangler",
    "is_spe",
    "entangling_power_closed",
    "spe_params",
    "verify_equivalence",
    "feasible_phi_intervals",
    "feasible_phi_profile",
    "infeasibility_reasons",
}
# about raw coordinates, so a triple only
TRIPLE_FUNCTIONS = {
    "reduce_to_weyl": wf.reduce_to_weyl,
    "coords_equivalent": lambda t: wf.coords_equivalent(t, TRIPLE),
    "invariants_from_coords": wf.invariants_from_coords,
    "canonical_gate": wf.canonical_gate,
    "spectral_phases": wf.spectral_phases,
    "in_weyl_chamber": wf.in_weyl_chamber,
}
GATE_FUNCTIONS = {
    "extract_coordinates": wf.extract_coordinates,
    "local_invariants": wf.local_invariants,
}


def _target_takers() -> set:
    """Names of the public callables with a parameter named target."""
    found = set()
    for name in wf.__all__:
        obj = getattr(wf, name)
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:
            # exception classes that keep the builtin constructor
            assert issubclass(obj, Exception), name
            continue
        if "target" in params:
            found.add(name)
    return found


def _call_with_target(name, t):
    fn = getattr(wf, name)
    others = [p for p in inspect.signature(fn).parameters if p != "target"]
    return fn(target=t, **{p: _OTHER_ARGS[p] for p in others})


def _accepts(name) -> set:
    if name in TARGET_FUNCTIONS:
        return set(TRIPLES) | set(GATES)
    return set(TRIPLES) if name in TRIPLE_FUNCTIONS else set(GATES)


def _call(name, t):
    if name in TARGET_FUNCTIONS:
        return _call_with_target(name, t)
    return {**TRIPLE_FUNCTIONS, **GATE_FUNCTIONS}[name](t)


_ALL = sorted(TARGET_FUNCTIONS | set(TRIPLE_FUNCTIONS) | set(GATE_FUNCTIONS))


@pytest.mark.parametrize("form", list(FORMS))
@pytest.mark.parametrize("name", _ALL)
def test_each_function_answers_or_names_the_shape(name, form):
    # pytest.raises(ValueError) lets a TypeError through as a failure
    if form in _accepts(name):
        _call(name, FORMS[form])
    else:
        with pytest.raises(ValueError, match="shape"):
            _call(name, FORMS[form])


def test_the_target_takers_are_the_nine():
    assert _target_takers() == TARGET_FUNCTIONS


@pytest.mark.parametrize("form", list(MALFORMED))
def test_every_target_parameter_rejects_the_malformed_rows(form):
    # found through the signatures, so a new target parameter is covered
    for name in sorted(_target_takers()):
        with pytest.raises(ValueError, match="shape"):
            _call_with_target(name, MALFORMED[form])


def _classes():
    """Interior, face, edge and SPE-segment classes."""
    rng = np.random.default_rng(2101)
    points = [chamber_point(rng) for _ in range(40)]
    points += boundary_classes(rng, 3)
    points += [(QUARTER, phi, 0.0) for phi in np.linspace(0.0, QUARTER, 9)]
    return points


_PHIS = (0.01, 0.2, EIGHTH, 0.5, QUARTER - 0.01)


def test_a_gate_and_its_extracted_triple_give_the_same_answers():
    rng = np.random.default_rng(2102)
    for c in _classes():
        gate = wf.GateMatrix(dressed(c, rng))
        point = wf.extract_coordinates(gate)
        circuits = (_CIRCUIT, wf.synthesize(point, EIGHTH))
        for f in (
            wf.is_perfect_entangler,
            wf.is_spe,
            wf.entangling_power_closed,
            wf.feasible_phi_intervals,
            lambda t: wf.feasible_phi_profile(t, 31),
            *(lambda t, p=p: wf.spe_params(p, t) for p in _PHIS),
            *(lambda t, p=p: wf.infeasibility_reasons(t, p) for p in _PHIS),
            *(lambda t, k=k: wf.verify_equivalence(k, t) for k in circuits),
        ):
            assert f(gate) == f(point), (c, f)


def test_a_gate_target_is_a_class_test_in_verify_equivalence():
    rng = np.random.default_rng(2103)
    for _ in range(20):
        c = chamber_point(rng)
        circuit = wf.synthesize(c, EIGHTH)
        # another member of the class, not the circuit's own matrix
        assert wf.verify_equivalence(circuit, dressed(c, rng))
        assert not wf.verify_equivalence(circuit, dressed(chamber_point(rng), rng))
