"""Command-line front end.

Four subcommands:

    analyze     classify a gate: coordinates, invariants, entangling power
    synthesize  compile a gate or class into two C[phi] applications
    table       nonlocal properties of the named equivalence classes
    chamber     chamber-projection figure data (CSV and/or SVG)

Gate arguments accept either a built-in name (cnot, dcnot, swap,
sqrtswap, b, identity) or a path to a JSON file of the form

    {"name": "...", "matrix": [[[re, im], ...], ...]}

with a row-major 4x4 matrix over |00>, |01>, |10>, |11>; qubit 0 is the
first tensor factor.  synthesize --phi auto is pi/8, the B gate, which
reaches every class; only an explicit phi can be infeasible (exit 1,
phi feasibility profile on stderr).  Exit codes: 0 success, 1
infeasible synthesis, 2 invalid input.  WEYLFORGE_SEED supplies the
default Monte Carlo seed; --seed overrides it.  Only analyze
--mc-samples reads the seed, and exits 2 unless it is in [0, 2**63).
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .linalg import _UNITARITY_TOL, GateMatrix, kron2, rot_y, rot_z
from .invariants import _CHAMBER_SLACK, is_perfect_entangler
from .canonical import QUARTER, CanonicalCoords, _read_class, extract_coordinates
from .entangle import entangling_power_closed, entangling_power_mc
from .spe import is_spe
from .synth import (
    InfeasibleSynthesisError,
    circuit_to_dict,
    feasible_phi_intervals,
    synthesize,
    _mat_from_lists,
)
from .gates import NAMED_GATES

__all__ = ["main"]

PI_8 = np.pi / 8

# theta, phase defining the controlled-U table row (x = theta/2)
_CTRL_THETA = 0.7
_CTRL_PHASE = 0.4


class _CliError(Exception):
    """Carries an exit code and a message for the top-level handler."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    """x to 12 significant digits; below the chamber slack it is rounding
    noise and prints as 0."""
    x = float(x)
    # the + 0.0 turns -0.0 into +0.0
    return "%.12g" % (0.0 if abs(x) < _CHAMBER_SLACK else x + 0.0)


def _mc_seed(seed):
    """--seed, else WEYLFORGE_SEED, else 0; the sampler checks its range."""
    if seed is not None:
        return seed
    raw = os.environ.get("WEYLFORGE_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise _CliError(2, f"WEYLFORGE_SEED must be an integer, got {raw!r}")


def _load_gate(spec: str, unitarity: float):
    """Resolve a named gate or a gate file into (name, GateMatrix), checked
    at the unitarity tolerance given."""
    if spec in NAMED_GATES:
        return spec, GateMatrix(NAMED_GATES[spec], unitarity)
    if not os.path.exists(spec):
        raise _CliError(
            2,
            f"{spec!r} is neither a built-in gate "
            f"({', '.join(sorted(NAMED_GATES))}) nor a readable file",
        )
    try:
        with open(spec) as fh:
            data = json.load(fh)
        matrix = _mat_from_lists(data["matrix"], "matrix")
        gate = GateMatrix(matrix, unitarity)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise _CliError(2, f"cannot load gate from {spec!r}: {exc}")
    return data.get("name"), gate


def _parse_coords(text: str) -> CanonicalCoords:
    parts = text.split(",")
    if len(parts) != 3:
        raise _CliError(2, f"--coords wants three comma-separated values, got {text!r}")
    try:
        return CanonicalCoords(*(float(p) for p in parts))
    except ValueError:
        raise _CliError(2, f"--coords values must be numbers, got {text!r}")


# ---------------------------------------------------------------- analyze


def _class_fields(g):
    """(chamber point, the coords, g1, g2 and entangling_power fields) of
    the class of g, for an analyze report or a table row."""
    inv, coords = _read_class(g)[:2]
    return coords, {
        "coords": [float(v) + 0.0 for v in coords],
        "g1": [inv.g1.real + 0.0, inv.g1.imag + 0.0],
        "g2": inv.g2 + 0.0,
        "entangling_power": float(entangling_power_closed(coords)) + 0.0,
    }


def _analysis_report(gate, name, args) -> dict:
    """The analyze report of a gate loaded at --tolerance, which is only
    echoed here; every flag is read off one chamber point."""
    coords, fields = _class_fields(gate)
    spe = is_spe(coords)
    report = {
        "name": name,
        "unitarity_residual": gate.unitarity_residual,
        "unitarity_tolerance": args.tolerance,
        **fields,
        "perfect_entangler": is_perfect_entangler(coords),
        "spe": spe,
        "spe_phi": float(coords.c2) if spe else None,
    }
    if args.mc_samples is not None:
        est = entangling_power_mc(gate, args.mc_samples, _mc_seed(args.seed))
        report["mc"] = {
            "mean": est.mean,
            "std_error": est.std_error,
            "samples": est.samples,
            "seed": est.seed,
        }
    return report


def _cmd_analyze(args) -> int:
    if args.mc_samples is not None and args.mc_samples < 1:
        raise _CliError(2, "--mc-samples must be positive")
    name, gate = _load_gate(args.gate, args.tolerance)
    report = _analysis_report(gate, name, args)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
        return 0
    if report["name"]:
        print(f"gate: {report['name']}")
    print(
        f"unitarity_residual: {report['unitarity_residual']:.3e} "
        f"(tolerance {report['unitarity_tolerance']:.1e})"
    )
    print(f"coords: {' '.join(_fmt(v) for v in report['coords'])}")
    print(f"G1: {_fmt(report['g1'][0])} {_fmt(report['g1'][1])}i")
    print(f"G2: {_fmt(report['g2'])}")
    print(f"entangling_power: {_fmt(report['entangling_power'])}")
    print(f"perfect_entangler: {'true' if report['perfect_entangler'] else 'false'}")
    print(f"spe: {'true' if report['spe'] else 'false'}")
    if report["spe_phi"] is not None:
        print(f"spe_phi: {_fmt(report['spe_phi'])}")
    if "mc" in report:
        mc = report["mc"]
        print(
            f"mc: mean {_fmt(mc['mean'])}  std_error {_fmt(mc['std_error'])}  "
            f"samples {mc['samples']}  seed {mc['seed']}"
        )
    return 0


# -------------------------------------------------------------- synthesize


def _cmd_synthesize(args) -> int:
    """Synthesize a gate or --coords target; a gate's echoed target is
    extract_coordinates, the one point analyze prints and synthesis uses."""
    if (args.gate is None) == (args.coords is None):
        raise _CliError(2, "give exactly one target: a gate file/name or --coords")
    if args.gate is not None:
        _, target = _load_gate(args.gate, args.tolerance)
        chamber = extract_coordinates(target)
    else:
        target = chamber = _parse_coords(args.coords)

    if args.phi == "auto":
        phi = PI_8
    else:
        try:
            phi = float(args.phi)
        except ValueError:
            raise _CliError(2, f"--phi wants a number or 'auto', got {args.phi!r}")

    # synthesize returns only circuits whose class it has verified
    try:
        circuit = synthesize(target, phi)
    except InfeasibleSynthesisError as exc:
        print("phi feasibility profile:", file=sys.stderr)
        for branch, lo, hi in feasible_phi_intervals(chamber):
            print(
                f"  {branch}  feasible for {_fmt(lo)} <= phi <= {_fmt(hi)}",
                file=sys.stderr,
            )
        print(exc, file=sys.stderr)
        print("pick a feasible phi from the profile (pi/8 always works)", file=sys.stderr)
        return 1
    except ValueError as exc:
        # covers unsupported phi (must differ from 0 and pi/4) and bad input
        raise _CliError(2, str(exc))

    payload = circuit_to_dict(circuit)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise _CliError(2, f"cannot write {args.out!r}: {exc}")

    if args.json:
        json.dump(
            {
                "phi": float(phi),
                "target": list(chamber),
                "verified": True,
                "nonlocal_layers": circuit.nonlocal_count(),
                "out": args.out,
                "circuit": payload,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"target: {' '.join(_fmt(v) for v in chamber)}")
        print(f"phi: {_fmt(phi)}")
        print(f"nonlocal_layers: {circuit.nonlocal_count()}")
        print("verification: PASS")
        if args.out:
            print(f"wrote: {args.out}")
        else:
            json.dump(payload, sys.stdout, indent=2)
            print()
    return 0


# ------------------------------------------------------------------ table


def _controlled_u() -> np.ndarray:
    t, p = _CTRL_THETA, _CTRL_PHASE
    u = np.array(
        [
            [np.cos(t), np.sin(t) * np.exp(-1j * p)],
            [-np.sin(t) * np.exp(1j * p), np.cos(t)],
        ],
        dtype=complex,
    )
    g = np.eye(4, dtype=complex)
    g[2:, 2:] = u
    return g


def _table_rows():
    local_pair = kron2(rot_y(0.4), rot_z(0.9))
    entries = [
        ("cnot", NAMED_GATES["cnot"]),
        ("dcnot", NAMED_GATES["dcnot"]),
        ("b", NAMED_GATES["b"]),
        ("swap", NAMED_GATES["swap"]),
        ("sqrtswap", NAMED_GATES["sqrtswap"]),
        (f"controlled-U(theta={_fmt(_CTRL_THETA)})", _controlled_u()),
        ("AxB", local_pair),
    ]
    return [{"operator": label, **_class_fields(matrix)[1]} for label, matrix in entries]


def _cmd_table(args) -> int:
    rows = _table_rows()
    if args.json:
        json.dump(
            {
                "rows": rows,
                "controlled_u": {"theta": _CTRL_THETA, "phase": _CTRL_PHASE},
            },
            sys.stdout,
            indent=2,
        )
        print()
        return 0
    header = ["operator", "c1", "c2", "c3", "G1", "G2", "e_p"]
    lines = [header]
    for r in rows:
        re_part, im_part = (_fmt(v) for v in r["g1"])
        # the sign goes by the printed imaginary part, which may have rounded to 0
        g1 = f"{re_part}{'' if im_part.startswith('-') else '+'}{im_part}i"
        lines.append(
            [
                r["operator"],
                *(_fmt(v) for v in r["coords"]),
                g1,
                _fmt(r["g2"]),
                _fmt(r["entangling_power"]),
            ]
        )
    widths = [max(len(row[i]) for row in lines) for i in range(len(header))]
    for row in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(
        "\ncontrolled-U acts on qubit 1 as "
        "[[cos t, sin t e^{-ip}], [-sin t e^{ip}, cos t]] "
        f"with t={_fmt(_CTRL_THETA)}, p={_fmt(_CTRL_PHASE)}; "
        "its class satisfies G2 = 2 G1 + 1 and e_p = (1 - cos 4x)/9 at x = t/2."
    )
    return 0


# ---------------------------------------------------------------- chamber

# chamber projection onto the (c1, c2) plane, with the family segment
# and its three marked gates; all coordinates in radians

_CHAMBER_DATA = (
    ("chamber_vertex", "O", (0.0, 0.0, 0.0)),
    ("chamber_vertex", "A1", (QUARTER, 0.0, 0.0)),
    ("chamber_vertex", "A2", (QUARTER, QUARTER, 0.0)),
    ("spe_segment", "A1", (QUARTER, 0.0, 0.0)),
    ("spe_segment", "A2", (QUARTER, QUARTER, 0.0)),
    ("point", "A1 (CNOT)", (QUARTER, 0.0, 0.0)),
    ("point", "B", (QUARTER, PI_8, 0.0)),
    ("point", "A2 (DCNOT)", (QUARTER, QUARTER, 0.0)),
)


def _chamber_csv() -> str:
    lines = ["section,label,c1,c2,c3"]
    for section, label, coords in _CHAMBER_DATA:
        lines.append(
            f"{section},{label}," + ",".join(_fmt(v) for v in coords)
        )
    return "\n".join(lines) + "\n"


def _chamber_svg() -> str:
    # geometry in raw radian coordinates inside a scaled group, so the
    # numbers in the file equal the CSV values; labels overlaid in
    # pixel coordinates
    verts = [c for s, _, c in _CHAMBER_DATA if s == "chamber_vertex"]
    seg = [c for s, _, c in _CHAMBER_DATA if s == "spe_segment"]
    points = [(label, c) for s, label, c in _CHAMBER_DATA if s == "point"]
    poly = " ".join(f"{_fmt(c[0])},{_fmt(c[1])}" for c in verts)
    scale = 400.0
    ox, oy = 40.0, 380.0

    def px(c):
        return ox + scale * c[0], oy - scale * c[1]

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="460" height="440" '
        'viewBox="0 0 460 440">',
        f'  <g transform="translate({_fmt(ox)},{_fmt(oy)}) scale({_fmt(scale)},-{_fmt(scale)})">',
        f'    <polygon class="chamber" points="{poly}" '
        'fill="#d0d8e8" stroke="#333" stroke-width="0.004"/>',
        f'    <line class="spe-segment" x1="{_fmt(seg[0][0])}" y1="{_fmt(seg[0][1])}" '
        f'x2="{_fmt(seg[1][0])}" y2="{_fmt(seg[1][1])}" '
        'stroke="#b03030" stroke-width="0.008"/>',
    ]
    for label, c in points:
        parts.append(
            f'    <circle class="gate-point" cx="{_fmt(c[0])}" cy="{_fmt(c[1])}" '
            'r="0.012" fill="#b03030"/>'
        )
    parts.append("  </g>")
    parts.append('  <g font-family="sans-serif" font-size="14" fill="#222">')
    for label, c in points:
        x, y = px(c)
        parts.append(f'    <text x="{_fmt(x + 8)}" y="{_fmt(y + 4)}">{label}</text>')
    x0, y0 = px((0.0, 0.0, 0.0))
    parts.append(f'    <text x="{_fmt(x0 - 14)}" y="{_fmt(y0 + 16)}">O</text>')
    parts.append(f'    <text x="{_fmt(ox + scale * QUARTER / 2)}" y="{_fmt(oy + 30)}">c1</text>')
    parts.append(f'    <text x="{_fmt(ox - 30)}" y="{_fmt(oy - scale * QUARTER / 2)}">c2</text>')
    parts.append("  </g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_chamber(args) -> int:
    if not args.csv and not args.svg:
        raise _CliError(2, "chamber needs --csv and/or --svg output paths")
    try:
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(_chamber_csv())
            print(f"wrote: {args.csv}")
        if args.svg:
            with open(args.svg, "w") as fh:
                fh.write(_chamber_svg())
            print(f"wrote: {args.svg}")
    except OSError as exc:
        raise _CliError(2, f"cannot write chamber output: {exc}")
    return 0


# ------------------------------------------------------------------- main


# one parser per process: building it costs more than an in-process
# command such as synthesize --coords ... --phi auto
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylforge",
        description="two-qubit gate classification and synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify a gate by nonlocal content")
    pa.add_argument("gate", help="built-in gate name or JSON gate file")
    pa.add_argument("--mc-samples", type=int, default=None, metavar="N",
                    help="also run a Monte Carlo entangling-power estimate")
    pa.add_argument("--seed", type=int, default=None, metavar="S")
    pa.add_argument("--tolerance", type=float, default=_UNITARITY_TOL, metavar="T",
                    help="unitarity tolerance for gate loading")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("synthesize", help="compile a target into two C[phi] layers")
    ps.add_argument("gate", nargs="?", default=None,
                    help="built-in gate name or JSON gate file")
    ps.add_argument("--coords", default=None, metavar="C1,C2,C3",
                    help="target class coordinates instead of a gate")
    ps.add_argument("--phi", default="auto", metavar="PHI|auto",
                    help="family parameter; 'auto' means pi/8, the B gate, "
                         "which reaches every class")
    ps.add_argument("--out", default=None, metavar="PATH",
                    help="write the circuit JSON here")
    ps.add_argument("--tolerance", type=float, default=_UNITARITY_TOL, metavar="T")
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=_cmd_synthesize)

    pt = sub.add_parser("table", help="nonlocal properties of the named classes")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=_cmd_table)

    pc = sub.add_parser("chamber", help="chamber figure data")
    pc.add_argument("--csv", default=None, metavar="PATH")
    pc.add_argument("--svg", default=None, metavar="PATH")
    pc.set_defaults(func=_cmd_chamber)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
