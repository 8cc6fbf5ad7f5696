import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import weylforge
import weylforge.cli as cli
import weylforge.invariants as invariants
from weylforge import (
    circuit_from_dict,
    circuit_matrix,
    extract_coordinates,
    kak_decompose,
    local_invariants,
    verify_equivalence,
)
from weylforge.cli import main
from weylforge.synth import _mat_to_lists
from weylforge.gates import NAMED_GATES

from conftest import boundary_classes

QUARTER = np.pi / 4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_named_gate(capsys):
    code, out, _ = run(capsys, "analyze", "cnot")
    assert code == 0
    assert "coords: 0.785398163397 0 0" in out
    assert "perfect_entangler: true" in out
    assert "spe: true" in out


def test_analyze_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "sqrtswap", "--json")
    assert code == 0
    report = json.loads(out)
    assert abs(report["coords"][0] - np.pi / 8) < 1e-12
    assert abs(report["g1"][1] + 0.25) < 1e-12
    assert report["perfect_entangler"] is True
    assert report["spe"] is False
    assert report["spe_phi"] is None


def _count_gram_builds(monkeypatch):
    """Count magic-frame changes, one per Gram matrix (the reading's and
    m_matrix's), through every weylforge module that binds it."""
    calls = [0]
    original = invariants._magic

    def counting(u):
        calls[0] += 1
        return original(u)

    for name, mod in list(sys.modules.items()):
        if name.startswith("weylforge") and getattr(mod, "_magic", None) is original:
            monkeypatch.setattr(mod, "_magic", counting)
    return calls


# (perfect entangler, special perfect entangler) of the built-in gates
NAMED_FLAGS = {
    "identity": (False, False),
    "cnot": (True, True),
    "dcnot": (True, True),
    "b": (True, True),
    "swap": (False, False),
    "sqrtswap": (True, False),
}


def test_analyze_reads_each_named_gate_off_one_gram_matrix(capsys, monkeypatch):
    assert sorted(NAMED_FLAGS) == sorted(NAMED_GATES)
    expected = {
        name: (extract_coordinates(m), local_invariants(m))
        for name, m in NAMED_GATES.items()
    }
    calls = _count_gram_builds(monkeypatch)
    for name, (pe, spe) in NAMED_FLAGS.items():
        calls[0] = 0
        code, out, _ = run(capsys, "analyze", name, "--json")
        assert code == 0
        assert calls[0] == 1, name
        report = json.loads(out)
        coords, inv = expected[name]
        assert report["coords"] == [float(v) + 0.0 for v in coords], name
        assert abs(complex(*report["g1"]) - inv.g1) < 1e-12, name
        assert abs(report["g2"] - inv.g2) < 1e-12, name
        assert (report["perfect_entangler"], report["spe"]) == (pe, spe), name
        assert report["spe_phi"] == (report["coords"][1] if spe else None), name


def test_table_reads_each_row_off_one_gram_matrix(capsys, monkeypatch):
    calls = _count_gram_builds(monkeypatch)
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    assert calls[0] == len(json.loads(out)["rows"]) == 7


def test_parser_is_built_once_per_process(capsys):
    # each in-process output must match a fresh process's
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(weylforge.__file__))
    script = "import sys; from weylforge.cli import main; sys.exit(main(sys.argv[1:]))"
    cli._build_parser.cache_clear()
    for argv in (["table"], ["analyze", "cnot"], ["analyze", "cnot", "--no-such-flag"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert cli._build_parser.cache_info().misses == 1


def test_analyze_gate_file_and_mc_block(tmp_path, capsys):
    path = tmp_path / "gate.json"
    path.write_text(
        json.dumps({"name": "mine", "matrix": _mat_to_lists(NAMED_GATES["b"])})
    )
    code, out, _ = run(
        capsys, "analyze", str(path), "--json", "--mc-samples", "4096", "--seed", "3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["name"] == "mine"
    assert report["mc"]["samples"] == 4096
    assert abs(report["mc"]["mean"] - 2 / 9) < 0.01


def test_analyze_rejects_unknown_gate(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_analyze_rejects_malformed_gate_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"matrix": "garbage"}')
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "error:" in err


def test_mc_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("WEYLFORGE_SEED", "42")
    _, out_env, _ = run(capsys, "analyze", "cnot", "--json", "--mc-samples", "4096")
    monkeypatch.delenv("WEYLFORGE_SEED")
    _, out_flag, _ = run(
        capsys, "analyze", "cnot", "--json", "--mc-samples", "4096", "--seed", "42"
    )
    assert json.loads(out_env)["mc"] == json.loads(out_flag)["mc"]


def _noisy_cnot_file(tmp_path):
    # CNOT plus 1e-8 complex Gaussian noise: unitarity residual about 4e-8
    rng = np.random.default_rng(3)
    noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    matrix = np.asarray(NAMED_GATES["cnot"]) + 1e-8 * noise
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps({"name": "noisy", "matrix": _mat_to_lists(matrix)}))
    return str(path)


def test_analyze_honours_the_loaded_tolerance(tmp_path, capsys):
    path = _noisy_cnot_file(tmp_path)
    for extra in ([], ["--mc-samples", "1000"]):
        code, out, err = run(capsys, "analyze", path, "--json", "--tolerance", "1e-6", *extra)
        assert code == 0, err
        report = json.loads(out)
        assert report["perfect_entangler"] is True
        assert abs(report["entangling_power"] - 2 / 9) < 1e-9
        assert ("mc" in report) == bool(extra)
        code, _, err = run(capsys, "analyze", path, *extra)
        assert code == 2
        assert "not unitary" in err


def test_analyze_reports_the_input_residual_and_its_tolerance(tmp_path, capsys):
    path = _noisy_cnot_file(tmp_path)
    code, out, _ = run(capsys, "analyze", path, "--json", "--tolerance", "1e-6")
    assert code == 0
    report = json.loads(out)
    assert 1e-9 < report["unitarity_residual"] < 1e-6
    assert report["unitarity_tolerance"] == 1e-6
    code, out, _ = run(capsys, "analyze", path, "--tolerance", "1e-6")
    assert code == 0
    residual = re.search(r"^unitarity_residual: (\S+) \(tolerance (\S+)\)$", out, re.M)
    assert float(residual.group(1)) == float(f"{report['unitarity_residual']:.3e}")
    assert float(residual.group(2)) == 1e-6


def test_synthesize_projects_a_gate_accepted_at_a_loose_tolerance(tmp_path, capsys):
    path = _noisy_cnot_file(tmp_path)
    code, out, err = run(capsys, "synthesize", path, "--tolerance", "1e-6")
    assert code == 0, err
    assert "verification: PASS" in out
    code, _, err = run(capsys, "synthesize", path)
    assert code == 2
    assert "not unitary" in err


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_a_tolerance_that_is_not_a_finite_number_at_least_0_exits_2(
    tmp_path, capsys, command, tolerance
):
    # diag(1, 0, 1, 2) has residual 3: a NaN or infinite tolerance used to
    # pass it, and a negative one to reject every gate with a misleading line
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"matrix": _mat_to_lists(np.diag([1.0, 0.0, 1.0, 2.0]))}))
    for gate in ("cnot", str(path)):
        code, out, err = run(capsys, command, gate, "--json", "--tolerance", tolerance)
        assert code == 2, (gate, out)
        assert out == ""
        want = f"unitarity tolerance must be a finite number >= 0, got {float(tolerance)!r}"
        assert want in err and "Traceback" not in err


def test_analyze_checks_mc_samples_before_loading(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.json", "--mc-samples", "0")
    assert code == 2
    assert "--mc-samples must be positive" in err


def test_analyze_rejects_seeds_outside_the_key_range(capsys, monkeypatch):
    for seed in ("18446744073709551616", "9223372036854775808", "-1"):
        code, out, err = run(capsys, "analyze", "cnot", "--mc-samples", "100", "--seed", seed)
        assert code == 2
        assert out == ""
        assert err == f"error: seed must be an integer in [0, 2**63), got {seed}\n"
    monkeypatch.setenv("WEYLFORGE_SEED", str(-(2**63)))
    code, _, err = run(capsys, "analyze", "cnot", "--mc-samples", "100")
    assert code == 2
    assert "[0, 2**63)" in err and "Traceback" not in err


def test_seed_is_read_only_when_sampling(capsys, monkeypatch):
    for seed in ("abc", "-5"):
        monkeypatch.setenv("WEYLFORGE_SEED", seed)
        code, _, err = run(capsys, "analyze", "cnot")
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "analyze", "cnot", "--mc-samples", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("coords", ["nan,0.1,0", "0.7,inf,0", "0.7,0.1,-inf"])
@pytest.mark.parametrize("phi", ["0.3", "auto"])
def test_synthesize_rejects_non_finite_coords(capsys, coords, phi):
    code, out, err = run(capsys, "synthesize", "--coords", coords, "--phi", phi)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite" in err


def test_synthesize_writes_verifiable_circuit(tmp_path, capsys):
    out_path = tmp_path / "circ.json"
    code, out, _ = run(
        capsys,
        "synthesize",
        "--coords",
        "0.7,0.3,0.1",
        "--phi",
        "auto",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert "verification: PASS" in out
    circ = circuit_from_dict(json.loads(out_path.read_text()))
    assert circ.nonlocal_count() == 2
    assert verify_equivalence(circ, (0.7, 0.3, 0.1))


def test_synthesize_mirror_face_coords(capsys):
    code, out, _ = run(
        capsys,
        "synthesize",
        "--coords",
        "0.7853981633974483,0.4,0.1",
        "--phi",
        "0.39269908169872414",
    )
    assert code == 0
    assert "verification: PASS" in out


def test_synthesize_at_the_sols1_lower_end(capsys):
    # phi = |c3|/2 is the sols1 interval's lower end; the branch products
    # written as cosine differences put cos^2 2a above 1 there by 4.6e-9
    coords = (0.20336950326551628, 0.08357101699614722, -0.0008865451936572732)
    code, out, err = run(
        capsys,
        "synthesize",
        "--coords",
        ",".join(repr(v) for v in coords),
        "--phi",
        "0.0004432725968286366",
        "--json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["verified"] is True
    assert verify_equivalence(circuit_from_dict(payload["circuit"]), coords)


def test_synthesize_matrix_gate_round_trip(capsys):
    code, out, _ = run(capsys, "synthesize", "dcnot", "--phi", "auto", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    circ = circuit_from_dict(payload["circuit"])
    assert np.abs(
        circuit_matrix(circ).matrix - np.asarray(NAMED_GATES["dcnot"], dtype=complex)
    ).max() < 1e-7


def test_synthesize_auto_picks_the_b_class_for_swap(capsys):
    code, out, _ = run(capsys, "synthesize", "swap", "--phi", "auto", "--json")
    assert code == 0
    assert abs(json.loads(out)["phi"] - np.pi / 8) < 1e-15


def test_synthesize_auto_is_the_b_gate_on_faces_edges_and_corners(capsys):
    # boundary_classes starts with SWAP, which only pi/8 reaches
    for c in boundary_classes(np.random.default_rng(103), 2):
        coords = ",".join(repr(float(v)) for v in c)
        code, out, err = run(
            capsys, "synthesize", "--coords", coords, "--phi", "auto", "--json"
        )
        assert code == 0, (c, err)
        payload = json.loads(out)
        assert payload["phi"] == np.pi / 8, c
        assert payload["verified"] is True, c
        assert verify_equivalence(circuit_from_dict(payload["circuit"]), c), c


def test_synthesize_infeasible_phi_exits_one(capsys):
    code, _, err = run(capsys, "synthesize", "swap", "--phi", "0.05")
    assert code == 1
    assert "feasibility profile" in err


def test_synthesize_infeasible_phi_names_the_violated_condition(capsys):
    code, _, err = run(capsys, "synthesize", "swap", "--phi", "0.05")
    assert code == 1
    # the profile is one feasible interval per branch; swap keeps pi/8 alone
    rows = [line for line in err.splitlines() if "feasible for" in line]
    assert rows == [
        f"  {branch}  feasible for 0.392699081699 <= phi <= 0.392699081699"
        for branch in ("sols1", "sols2")
    ]
    assert re.search(r"sols1: cos 2b = -\S+ outside \[-1, 1\] by ", err)
    assert re.search(r"sols2: cos 2b = -\S+ outside \[-1, 1\] by ", err)


def test_synthesize_next_to_pi8_names_the_distance_to_each_interval(capsys):
    # swap's intervals are the point pi/8 = 0.39269908...; 0.3927 lies
    # 9.18e-7 above both, where no branch has a root
    code, _, err = run(capsys, "synthesize", "swap", "--phi", "0.3927")
    assert code == 1
    for branch in ("sols1", "sols2"):
        assert re.search(rf"{branch}: [^;]*phi lies 9.18e-07 above its interval", err)
    assert "candidates verified" not in err


def test_synthesize_auto_synthesizes_once(capsys, monkeypatch):
    # auto goes straight to pi/8: one synthesis, one set of middle-layer
    # solutions, and no feasibility profile on the success path
    import weylforge.cli as cli
    import weylforge.synth as synth

    calls = {"synthesize": 0, "spe_params": 0, "feasible_phi_profile": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        wrapped = counting(name, getattr(synth, name))
        monkeypatch.setattr(synth, name, wrapped)
        if hasattr(cli, name):
            monkeypatch.setattr(cli, name, wrapped)
    code, out, _ = run(
        capsys, "synthesize", "--coords", "0.7,0.3,0.1", "--phi", "auto", "--json"
    )
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert calls == {"synthesize": 1, "spe_params": 1, "feasible_phi_profile": 0}


def test_synthesize_rejects_phi_endpoint(capsys):
    code, _, err = run(capsys, "synthesize", "swap", "--phi", "0")
    assert code == 2
    assert "error:" in err


def test_synthesize_needs_exactly_one_target(capsys):
    code, _, _ = run(capsys, "synthesize")
    assert code == 2
    code, _, _ = run(capsys, "synthesize", "swap", "--coords", "0.1,0,0")
    assert code == 2


def test_table_lists_the_named_classes(capsys):
    code, out, _ = run(capsys, "table", "--json")
    assert code == 0
    data = json.loads(out)
    rows = {r["operator"]: r for r in data["rows"]}
    assert len(rows) == 7
    assert abs(rows["cnot"]["g2"] - 1) < 1e-9
    assert abs(rows["swap"]["g1"][0] + 1) < 1e-9
    assert abs(rows["b"]["coords"][1] - np.pi / 8) < 1e-9
    assert abs(rows["AxB"]["g2"] - 3) < 1e-9
    theta = data["controlled_u"]["theta"]
    ctrl = next(r for r in data["rows"] if r["operator"].startswith("controlled"))
    assert abs(ctrl["g2"] - (2 * ctrl["g1"][0] + 1)) < 1e-9
    assert abs(ctrl["entangling_power"] - (1 - np.cos(2 * theta)) / 9) < 1e-9


def test_chamber_requires_an_output(capsys):
    code, _, err = run(capsys, "chamber")
    assert code == 2
    assert "error:" in err


def test_chamber_csv_and_svg_agree(tmp_path, capsys):
    csv_path = tmp_path / "chamber.csv"
    svg_path = tmp_path / "chamber.svg"
    code, _, _ = run(capsys, "chamber", "--csv", str(csv_path), "--svg", str(svg_path))
    assert code == 0

    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "section,label,c1,c2,c3"
    parsed = [r.split(",") for r in rows[1:]]
    sections = {p[0] for p in parsed}
    assert sections == {"chamber_vertex", "spe_segment", "point"}
    verts = [p for p in parsed if p[0] == "chamber_vertex"]
    assert [p[1] for p in verts] == ["O", "A1", "A2"]

    svg = svg_path.read_text()
    poly = re.search(r'class="chamber" points="([^"]+)"', svg).group(1)
    poly_xy = [tuple(map(float, pair.split(","))) for pair in poly.split()]
    for (x, y), row in zip(poly_xy, verts):
        assert abs(x - float(row[2])) < 1e-12
        assert abs(y - float(row[3])) < 1e-12

    cx = [float(v) for v in re.findall(r'cx="([^"]+)"', svg)]
    cy = [float(v) for v in re.findall(r'cy="([^"]+)"', svg)]
    points = [p for p in parsed if p[0] == "point"]
    for x, y, row in zip(cx, cy, points):
        assert abs(x - float(row[2])) < 1e-12
        assert abs(y - float(row[3])) < 1e-12


_E_NOTATION = re.compile(r"[-+]?\d+(?:\.\d*)?e[-+]?\d+")


@pytest.mark.parametrize("argv", [["table"]] + [["analyze", n] for n in sorted(NAMED_GATES)])
def test_text_output_prints_no_rounding_noise(capsys, argv):
    # values below the chamber slack print as 0; the unitarity residual
    # is a measured residual and keeps its own e-notation
    code, out, _ = run(capsys, *argv)
    assert code == 0
    noise = [
        (line, m)
        for line in out.splitlines()
        if not line.startswith("unitarity_residual:")
        for m in _E_NOTATION.findall(line)
        if abs(float(m)) < invariants._CHAMBER_SLACK
    ]
    assert noise == []


def test_table_signs_g1_by_its_printed_imaginary_part(capsys):
    _, out, _ = run(capsys, "table")
    g1 = {line.split()[0]: line.split()[4] for line in out.splitlines()[1:8]}
    assert g1["swap"] == "-1+0i"
    assert g1["sqrtswap"] == "0-0.25i"
    assert g1["AxB"] == "1+0i"
    assert g1["controlled-U(theta=0.7)"] == "0.58498357145+0i"


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table")
    _, second, _ = run(capsys, "table")
    assert first == second


@pytest.mark.parametrize("phi", ["0.3927", "0.3926990827", "0.39269908", "0.39"])
def test_failure_lines_never_round_a_violation_onto_its_bound(capsys, phi):
    # a value past 1 by less than 5e-7 prints in full, not as "= 1 > 1"
    code, _, err = run(capsys, "synthesize", "swap", "--phi", phi)
    assert code == 1
    assert "by " in err
    assert "= 1 > 1" not in err
    assert not re.search(r"cos 2b = -?1 outside", err), err


def test_analyze_and_synthesize_echo_one_point_for_a_gate_file(tmp_path, capsys):
    # on the slack edge of the SPE segment the last bits of c3 decide it
    from conftest import dressed

    for seed in range(8):
        u = dressed((np.pi / 4, 0.3, 1e-12), np.random.default_rng(seed))
        path = tmp_path / f"edge{seed}.json"
        path.write_text(json.dumps({"name": "edge", "matrix": _mat_to_lists(u)}))
        _, report, _ = run(capsys, "analyze", str(path), "--json")
        _, synth, _ = run(capsys, "synthesize", str(path), "--phi", "auto", "--json")
        assert json.loads(report)["coords"] == json.loads(synth)["target"], seed


def test_synthesize_reads_a_gate_target_once(capsys, monkeypatch):
    # the echoed target is the chamber point synthesis decided on, the
    # gate's one memoized reading: the echo and the decomposition read it
    # once each, the core product once, and the diagonalizer runs for the
    # target and the core product only
    from test_synth import _count_calls

    counts = _count_calls(
        monkeypatch, ("canonical._read_class", "linalg._joint_diagonalize")
    )
    code, out, _ = run(capsys, "synthesize", "cnot", "--phi", "auto", "--json")
    assert code == 0
    assert counts == {
        "canonical._read_class": 3,
        "linalg._joint_diagonalize": 2,
    }
    core = kak_decompose(weylforge.GateMatrix(NAMED_GATES["cnot"])).core
    assert json.loads(out)["target"] == [float(v) for v in core]
