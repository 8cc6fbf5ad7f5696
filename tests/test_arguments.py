"""Every public scalar and array argument, against every malformed form.

A scalar is read once, by linalg._real (a finite float in a range; a
string is never a number) or linalg._integer (operator.index in a
range); either raises ValueError "{name} must be a real number" (or
"an integer") or "{name} must be {range}".  The table below names each
public callable and scalar parameter; each is called with None, a
numeric string, a list, a complex number, NaN, +-inf and a value outside
its range, and each call must raise ValueError, so a TypeError or a
silent answer fails.  A guard walks the public API so a new scalar
parameter cannot miss the readers, and the serialized-circuit reader
gets a battery of malformed dicts.

An array is read once, by linalg._array (a new finite array of one
shape and dtype); it raises ValueError "{name} must be a RxC array of
numbers", "{name} must be RxC" or "{name} contains non-finite entries".
A second table calls each array parameter with None, a string, object
entries, ragged rows, numeric strings, a wrong shape, NaN and inf, and a
real one with complex entries too; a second guard walks the public API
for array parameters.

A gate is read once, by linalg._gate, which reads a raw array as
GateMatrix does but names the caller's parameter, g or target; a third
table and guard cover every public function that takes a gate.
"""

import inspect
import json
import math
import pathlib
import re

import numpy as np
import pytest

import weylforge as wf

EIGHTH = np.pi / 8

# parameter names that carry a scalar; rot_* take an "angle"
SCALARS = {
    "unitarity",
    "tol",
    "n",
    "seed",
    "batch_index",
    "count",
    "p",
    "phi",
    "theta",
    "grid_size",
    "global_phase",
    "angle",
}

# (callable, parameter) -> a value outside its range, or None where
# every finite real number is in it
TABLE = {
    ("GateMatrix", "unitarity"): -1e-3,
    ("in_weyl_chamber", "tol"): -1e-3,
    ("entangling_power_mc", "n"): 0,
    ("entangling_power_mc", "seed"): 2**63,
    ("haar_product_states", "seed"): -1,
    ("haar_product_states", "batch_index"): 2**63,
    ("haar_product_states", "count"): -1,
    ("separability_preservation_probe", "n"): 0,
    ("separability_preservation_probe", "seed"): -1,
    ("SpeParams", "phi"): 1.0,
    ("NonlocalLayer", "phi"): -0.1,
    ("spe_gate", "p"): 1.0,
    ("witness_basis", "p"): 1.0,
    ("witness_basis", "theta"): None,
    ("witness_basis_for_gate", "theta"): None,
    ("spe_params", "p"): 1.0,
    ("synthesize", "p"): 1.0,
    ("special_circuit", "p"): -0.1,
    ("infeasibility_reasons", "p"): 1.0,
    ("feasible_phi_profile", "grid_size"): 1,
    ("Circuit", "global_phase"): None,
}

# unchecked numpy kernels on the synthesis hot path
KERNELS = {"rot_x", "rot_y", "rot_z"}
# result records the package builds; their fields are outputs
RECORDS = {
    "SynthesisSolution",
    "WitnessBasis",
    "EpEstimate",
    "KakFactors",
    "LocalInvariants",
    "CanonicalCoords",
    "SpectralPhases",
}

# a valid value for every parameter a table callable takes
VALID = {
    "matrix": wf.CNOT,
    "g": wf.CNOT,  # CNOT is a special perfect entangler, C[0]
    "c": (0.3, 0.1, 0.0),
    "target": (0.6, 0.25, -0.1),
    "kind": "cnot",
    "layers": (),
    "unitarity": 1e-9,
    "tol": 1e-12,
    "n": 10,
    "seed": 7,
    "batch_index": 0,
    "count": 3,
    "p": EIGHTH,
    "phi": EIGHTH,
    "theta": 0.4,
    "grid_size": 5,
    "global_phase": 0.5,
}

# what a message calls the parameter, where that is not its own name
LABEL = {"unitarity": "unitarity tolerance", "n": "sample count", "p": "phi"}

BAD = {
    "None": None,
    "'0.3'": "0.3",
    "[0.3]": [0.3],
    "0.3j": 0.3j,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


def _call(name, param, value, **given):
    fn = getattr(wf, name)
    kwargs = {
        p: VALID[p]
        for p, spec in inspect.signature(fn).parameters.items()
        if spec.default is inspect.Parameter.empty or p in VALID
    }
    kwargs.update(given)
    kwargs[param] = value
    return fn(**kwargs)


def _scalar_takers() -> set:
    """(callable, parameter) pairs of the public API with a scalar
    parameter, the kernels and records left out."""
    found = set()
    for name in wf.__all__:
        obj = getattr(wf, name)
        if not callable(obj) or name in KERNELS | RECORDS:
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:
            # exception classes that keep the builtin constructor
            assert issubclass(obj, Exception), name
            continue
        found |= {(name, p) for p in params if p in SCALARS}
    return found


def test_the_scalar_takers_are_the_table():
    assert _scalar_takers() == set(TABLE)


def test_the_package_exports_the_module_lists():
    modules = (wf.linalg, wf.invariants, wf.canonical, wf.entangle, wf.spe, wf.synth, wf.gates)
    names = [name for m in modules for name in m.__all__]
    assert len(set(names)) == len(names)
    assert sorted(wf.__all__) == sorted(names + ["__version__"])
    for m in modules:
        for name in m.__all__:
            assert getattr(wf, name) is getattr(m, name), name
    assert isinstance(wf.__version__, str)


def test_the_exempt_names_are_public_and_the_kernels_take_an_angle():
    assert KERNELS | RECORDS <= set(wf.__all__)
    for name in KERNELS:
        assert "angle" in inspect.signature(getattr(wf, name)).parameters


@pytest.mark.parametrize("name,param", sorted(TABLE))
def test_each_scalar_takes_a_valid_value(name, param):
    _call(name, param, VALID[param])


def _malformed():
    """(name, param, value) of every call the table asks for."""
    for (name, param), out_of_range in sorted(TABLE.items()):
        for form, value in BAD.items():
            yield pytest.param(name, param, value, id=f"{name}-{param}-{form}")
        if out_of_range is not None:
            yield pytest.param(name, param, out_of_range, id=f"{name}-{param}-{out_of_range}")


@pytest.mark.parametrize("name,param,value", _malformed())
def test_each_scalar_rejects_a_malformed_value_naming_it(name, param, value):
    label = re.escape(LABEL.get(param, param))
    # pytest.raises(ValueError) lets a TypeError through as a failure
    with pytest.raises(ValueError, match=f"^{label} must be "):
        _call(name, param, value)


def test_witness_basis_for_gate_reads_theta_before_the_gate():
    # SWAP is no special perfect entangler, but the bad theta is named
    with pytest.raises(ValueError, match="theta must be a real number"):
        wf.witness_basis_for_gate(wf.SWAP, "x")


def test_a_numpy_scalar_is_read_as_a_plain_number():
    assert wf.GateMatrix(wf.CNOT, unitarity=np.float32(1e-6)) is not None
    assert wf.haar_product_states(np.int64(7), np.uint8(0), np.int16(3)).shape == (3, 4)
    assert type(wf.NonlocalLayer(np.float64(0.2)).phi) is float
    assert type(wf.Circuit((), np.float64(0.5)).global_phase) is float
    assert wf.feasible_phi_profile((0.3, 0.1, 0.0), np.int64(3)) == wf.feasible_phi_profile(
        (0.3, 0.1, 0.0), 3
    )


def test_the_readers_live_in_linalg_alone():
    # no other module defines a scalar or array reader, calls
    # operator.index or words the non-finite array message
    src = pathlib.Path(wf.__file__).parent
    pattern = re.compile(
        r"def _(real|integer|array)\b|operator\.index|^import operator"
        r"|contains non-finite entries"
    )
    hits = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "linalg.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
    linalg = (src / "linalg.py").read_text()
    assert "def _real(" in linalg and "def _integer(" in linalg
    assert "def _array(" in linalg and "contains non-finite entries" in linalg


# arrays

# parameter names that carry an array
ARRAYS = {"matrix", "x", "y", "m", "basis", "s", "top", "bottom", "out"}
# every other parameter name of the public API: gates and coordinate
# triples (canonical._target, canonical._coords, linalg.as_gate), a
# serialized circuit, a circuit kind and a circuit's layers
OTHERS = {"g", "target", "c", "coords", "a", "b", "data", "kind", "layers"}
# an unchecked kernel on the synthesis hot path
ARRAY_KERNELS = {"kron2"}
# written in place, not read; haar_product_states checks it itself
WRITTEN = {("haar_product_states", "out")}

# (callable, parameter) -> the shape the parameter must have
ARRAY_TABLE = {
    ("GateMatrix", "matrix"): (4, 4),
    ("eig_commuting_symmetric_pair", "x"): (4, 4),
    ("eig_commuting_symmetric_pair", "y"): (4, 4),
    ("split_local", "m"): (4, 4),
    ("check_basis_images", "basis"): (4, 4),
    ("concurrence_pure", "s"): (4,),
    ("linear_entropy", "s"): (4,),
    ("magic_coefficients", "s"): (4,),
    ("classify_state", "s"): (4,),
    ("LocalLayer", "top"): (2, 2),
    ("LocalLayer", "bottom"): (2, 2),
}
# read as real arrays, so a complex entry is malformed too
REAL = {"x", "y"}

VALID.update(
    x=np.diag([1.0, 2.0, 3.0, 4.0]),
    y=np.eye(4),
    m=wf.kron2(wf.rot_y(0.3), wf.rot_z(0.2)),
    basis=np.eye(4),
    s=np.array([1.0, 0.0, 0.0, 0.0]),
    top=np.eye(2),
    bottom=np.eye(2),
)


def _public_signatures():
    """(name, parameter names) of the public callables, the kernels,
    records and exception classes left out."""
    for name in wf.__all__:
        obj = getattr(wf, name)
        if not callable(obj) or name in KERNELS | ARRAY_KERNELS | RECORDS:
            continue
        if not (isinstance(obj, type) and issubclass(obj, Exception)):
            yield name, set(inspect.signature(obj).parameters)


def test_the_array_takers_are_the_table():
    found = {(name, p) for name, params in _public_signatures() for p in params & ARRAYS}
    assert found - WRITTEN == set(ARRAY_TABLE)
    assert WRITTEN <= found and ARRAY_KERNELS <= set(wf.__all__)


def test_every_public_parameter_name_is_sorted():
    # a new name must join SCALARS, ARRAYS or OTHERS before it is public
    for name, params in _public_signatures():
        assert params <= SCALARS | ARRAYS | OTHERS, name


@pytest.mark.parametrize("name,param", sorted(ARRAY_TABLE))
def test_each_array_takes_a_valid_value(name, param):
    _call(name, param, VALID[param])


def _nested(shape, entry) -> list:
    return [entry] * shape[0] if len(shape) == 1 else [[entry] * shape[1]] * shape[0]


def _bad_arrays(param, shape):
    """form -> a malformed value of an array parameter of that shape."""
    valid = np.array(VALID[param], dtype=float if param in REAL else complex)
    nan, inf = valid.copy(), valid.copy()
    nan.flat[0], inf.flat[-1] = math.nan, math.inf
    bad = {
        "None": None,
        "'ab'": "ab",
        "objects": _nested(shape, object()),
        "ragged": (
            [1, [0, 0], 0, 0]
            if len(shape) == 1
            else [[0] * shape[1]] * (shape[0] - 1) + [[0] * (shape[1] - 1)]
        ),
        "numeric strings": _nested(shape, "1"),
        # the four entries of a normalized state, as a 2x2 matrix
        "wrong shape": {(4,): np.eye(2) / math.sqrt(2), (2, 2): np.eye(4)}.get(shape, np.eye(2)),
        "nan": nan,
        "inf": inf,
    }
    if param in REAL:
        bad["complex"] = valid * (1 + 1j)
    return bad


def _malformed_arrays():
    for (name, param), shape in sorted(ARRAY_TABLE.items()):
        for form, value in _bad_arrays(param, shape).items():
            yield pytest.param(name, param, value, id=f"{name}-{param}-{form}")


@pytest.mark.parametrize("name,param,value", _malformed_arrays())
def test_each_array_rejects_a_malformed_value_naming_it(name, param, value):
    # pytest.raises(ValueError) lets a TypeError through as a failure, and
    # the warnings filter turns a numpy warning into a failure too
    with pytest.raises(ValueError, match=f"^{param} (must be|contains non-finite entries)"):
        _call(name, param, value)


# gates

# (callable, gate parameter): every public function that reads a gate.  A
# target also takes a coordinate triple, so only its 4x4 forms are read
# as a gate; the others are a shape error (canonical._target).
GATE_TABLE = {
    ("as_gate", "g"),
    ("su4_normalize", "g"),
    ("m_matrix", "g"),
    ("local_invariants", "g"),
    ("extract_coordinates", "g"),
    ("kak_decompose", "g"),
    ("entangling_power_mc", "g"),
    ("witness_basis_for_gate", "g"),
    ("check_basis_images", "g"),
    ("separability_preservation_probe", "g"),
    ("is_perfect_entangler", "target"),
    ("entangling_power_closed", "target"),
    ("is_spe", "target"),
    ("spe_params", "target"),
    ("synthesize", "target"),
    ("verify_equivalence", "target"),
    ("feasible_phi_intervals", "target"),
    ("feasible_phi_profile", "target"),
    ("infeasibility_reasons", "target"),
}


def test_the_gate_takers_are_the_table():
    found = {(name, p) for name, params in _public_signatures() for p in params & {"g", "target"}}
    assert found == GATE_TABLE


def _bad_gates(param):
    """form -> a malformed gate; a target gets the 4x4 forms only."""
    nan, inf = np.eye(4, dtype=complex), np.eye(4, dtype=complex)
    nan[0, 0], inf[3, 3] = math.nan, math.inf
    bad = {
        "objects": _nested((4, 4), object()),
        "letters": [["a"] * 4] * 4,
        "numeric strings": _nested((4, 4), "1"),
        "nan": nan,
        "inf": inf,
        "not unitary": 2 * np.eye(4),
    }
    if param == "g":
        bad.update({"None": None, "'x'": "x", "1x1": [[1]], "2x2": np.eye(2)})
        bad["ragged"] = [[0] * 4] * 3 + [[0] * 3]
    return bad


def _malformed_gates():
    for name, param in sorted(GATE_TABLE):
        for form, value in _bad_gates(param).items():
            yield pytest.param(name, param, value, id=f"{name}-{param}-{form}")


@pytest.mark.parametrize("name,param,value", _malformed_gates())
def test_each_gate_rejects_a_malformed_value_naming_it(name, param, value):
    # the caller's parameter, not GateMatrix's matrix
    kwargs = {"c": wf.Circuit(())} if name == "verify_equivalence" else {}
    with pytest.raises(
        ValueError, match=f"^{param} (must be|contains non-finite entries|is not unitary)"
    ):
        _call(name, param, value, **kwargs)


def test_a_gate_matrix_keeps_the_name_matrix():
    with pytest.raises(ValueError, match="^matrix must be 4x4"):
        wf.GateMatrix(np.eye(2))
    with pytest.raises(ValueError, match="^matrix is not unitary"):
        wf.GateMatrix(2 * np.eye(4))


@pytest.mark.parametrize("layers", [5, None])
def test_a_circuit_names_layers_that_are_not_a_sequence(layers):
    with pytest.raises(ValueError, match="^layers must be a sequence of layers"):
        wf.Circuit(layers=layers)


# circuits


def _pairs(m) -> list:
    return [[[float(np.real(x)), float(np.imag(x))] for x in row] for row in m]


_EYE = _pairs(np.eye(2))
_NAN = _pairs(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _local(**fields) -> dict:
    return {"layers": [{"kind": "local", "top": _EYE, "bottom": _EYE, **fields}]}


def _nonlocal(**fields) -> dict:
    return {"layers": [{"kind": "nonlocal", **fields}]}


# serialized circuit -> what the ValueError must name
MALFORMED_CIRCUITS = {
    "{}": ({}, "'layers'"),
    "list": ([], "'layers'"),
    "str": ("layers", "'layers'"),
    "None": (None, "'layers'"),
    "layers str": ({"layers": "ab"}, "layers must be a list"),
    "layers None": ({"layers": None}, "layers must be a list"),
    "layers dict": ({"layers": {"kind": "local"}}, "layers must be a list"),
    "layer {}": ({"layers": [{}]}, "'kind'"),
    "layer str": ({"layers": ["nonlocal"]}, "'kind'"),
    "layer None": ({"layers": [None]}, "'kind'"),
    "unknown kind": ({"layers": [{"kind": "swap"}]}, "unknown layer kind 'swap'"),
    "no phi": (_nonlocal(), "'phi'"),
    "phi str": (_nonlocal(phi="0.3"), "phi must be a real number"),
    "phi None": (_nonlocal(phi=None), "phi must be a real number"),
    "phi list": (_nonlocal(phi=[0.3]), "phi must be a real number"),
    "phi nan": (_nonlocal(phi=math.nan), r"phi must be in \[0, pi/4\]"),
    "phi 1": (_nonlocal(phi=1.0), r"phi must be in \[0, pi/4\]"),
    "no top": ({"layers": [{"kind": "local", "bottom": _EYE}]}, "'top'"),
    "no bottom": ({"layers": [{"kind": "local", "top": _EYE}]}, "'bottom'"),
    "top str": (_local(top="ab"), "top must be rows"),
    "top None": (_local(top=None), "top must be rows"),
    "top numbers": (_local(top=[[1, 0], [0, 1]]), "top must be rows"),
    "top triples": (_local(top=[[[1, 0, 0], [0, 0, 0]]] * 2), "top must be rows"),
    "top text pairs": (_local(top=[[["1", "0"], ["0", "0"]]] * 2), "top must be rows"),
    "top ragged": (_local(top=[_EYE[0], _EYE[1][:1]]), "top must be rows"),
    "top 1x2": (_local(top=_EYE[:1]), r"top must be 2x2, got shape \(1, 2\)"),
    "bottom 3x3": (_local(bottom=_pairs(np.eye(3))), "bottom must be 2x2"),
    "top nan": (_local(top=_NAN), "top contains non-finite entries"),
    "bottom nan": (_local(bottom=_NAN), "bottom contains non-finite entries"),
    "phase str": ({"layers": [], "global_phase": "x"}, "global_phase must be a real number"),
    "phase None": ({"layers": [], "global_phase": None}, "global_phase must be a real number"),
    "phase nan": ({"layers": [], "global_phase": math.nan}, "global_phase must be finite"),
}


@pytest.mark.parametrize("case", list(MALFORMED_CIRCUITS))
def test_a_malformed_circuit_dict_names_its_field(case):
    data, message = MALFORMED_CIRCUITS[case]
    with pytest.raises(ValueError, match=message):
        wf.circuit_from_dict(data)


def test_a_nan_layer_read_from_json_is_refused():
    # json reads the non-standard token NaN; a layer holding one is refused
    text = json.dumps(_local(top=_NAN))
    assert "NaN" in text
    with pytest.raises(ValueError, match="non-finite"):
        wf.circuit_from_dict(json.loads(text))


def test_a_circuit_holds_only_its_two_layer_types():
    with pytest.raises(ValueError, match="unknown layer type str"):
        wf.Circuit(layers=("x",))
    with pytest.raises(ValueError, match="unknown layer type ndarray"):
        wf.Circuit(layers=(wf.NonlocalLayer(EIGHTH), np.eye(4)))


def test_a_layer_is_checked_where_it_is_built():
    with pytest.raises(ValueError, match="phi must be a real number"):
        wf.NonlocalLayer(phi="abc")
    with pytest.raises(ValueError, match="top contains non-finite entries"):
        wf.LocalLayer(top=np.full((2, 2), np.nan), bottom=np.eye(2))
    with pytest.raises(ValueError, match="bottom contains non-finite entries"):
        wf.LocalLayer(top=np.eye(2), bottom=np.diag([1.0, np.inf]))


def test_a_synthesized_circuit_survives_its_round_trip():
    circuit = wf.synthesize(wf.B_GATE, EIGHTH)
    data = json.loads(json.dumps(wf.circuit_to_dict(circuit)))
    again = wf.circuit_from_dict(data)
    assert wf.circuit_to_dict(again) == wf.circuit_to_dict(circuit)
