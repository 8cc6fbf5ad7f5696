"""Every public scalar argument, against every malformed form.

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


def _call(name, param, value):
    fn = getattr(wf, name)
    kwargs = {
        p: VALID[p]
        for p, spec in inspect.signature(fn).parameters.items()
        if spec.default is inspect.Parameter.empty or p in VALID
    }
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
    # no other module defines a scalar reader or calls operator.index
    src = pathlib.Path(wf.__file__).parent
    pattern = re.compile(r"def _(real|integer)\b|operator\.index|^import operator")
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
