"""The three workloads: their inputs, one operation, and its checks.

Each workload makes one round of inputs from the seed; a run repeats
that round.  op() holds every call into weylforge that is timed;
check() compares its output with reference.py and returns a list of
problems (empty when the output is right).
"""

import contextlib
import io
import json

import numpy as np

import reference as ref

PI8 = np.pi / 8
QUARTER = ref.QUARTER

# Classes closer than this (radians, along the normal) to either plane
# of the perfect-entangler polyhedron are redrawn: the program's flag
# decides on a hull test with slack 1e-9 and is ill-conditioned there.
PE_MARGIN = 1e-6

# Monte Carlo samples per certify operation (32 batches of 4096), enough
# for the sampling kernel to outweigh the extraction, and the number of
# standard errors the estimate may stray from the closed form.
MC_SAMPLES = 131072
MC_K = 6.0
# Absolute slack for classes whose every sample is 0 up to rounding (SWAP).
MC_FLOOR = 1e-12

# named classes: coordinates, and whether the class is an SPE
NAMED = {
    "cnot": ((QUARTER, 0.0, 0.0), True),
    "dcnot": ((QUARTER, QUARTER, 0.0), True),
    "b": ((QUARTER, PI8, 0.0), True),
    "sqrtswap": ((PI8, PI8, PI8), False),
    "swap": ((QUARTER, QUARTER, QUARTER), False),
}


def _off_by(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class Workload:
    round_size: int

    def once(self, wf, item, out):
        """Checks made once per run, on the first input and its output."""
        return []


class Compile(Workload):
    """Analysis report of a dressed matrix, then synthesis at pi/8."""

    round_size = 32

    def inputs(self, seed):
        rng = np.random.default_rng([1, seed])
        items = []
        for c in ref.chamber_points(ref.shifted_halton(rng, 3)):
            if ref.plane_distance(c) < PE_MARGIN:
                continue
            items.append({"coords": c, "matrix": ref.dress(c, rng)})
            if len(items) == self.round_size:
                return items

    def op(self, wf, item):
        g = wf.GateMatrix(item["matrix"])
        coords = wf.extract_coordinates(g)
        inv = wf.local_invariants(g)
        report = {
            "coords": coords,
            "g1": inv.g1,
            "g2": inv.g2,
            "ep": wf.entangling_power_closed(coords),
            "pe": wf.is_perfect_entangler(g),
            "spe": wf.is_spe(coords),
        }
        report["circuit"] = wf.circuit_to_dict(wf.synthesize(g, PI8))
        return report

    def check(self, item, out):
        c, u = item["coords"], item["matrix"]
        problems = []
        if _off_by(out["coords"], c) > 1e-8:
            problems.append(f"coords {tuple(out['coords'])} != planted {c}")
        g1, g2 = ref.makhlin_invariants(u)
        if abs(out["g1"] - g1) > 1e-8 or abs(out["g2"] - g2) > 1e-8:
            problems.append(f"invariants {out['g1']}, {out['g2']} != {g1}, {g2}")
        if abs(out["ep"] - ref.entangling_power(c)) > 1e-8:
            problems.append(f"e_p {out['ep']} != closed form {ref.entangling_power(c)}")
        if out["pe"] != ref.perfect_entangler(c):
            problems.append(f"perfect-entangler flag {out['pe']} wrong at {c}")
        if out["spe"]:
            problems.append(f"SPE flag set for generic class {c}")
        layers = out["circuit"]["layers"]
        phis = [layer["phi"] for layer in layers if layer["kind"] == "nonlocal"]
        if len(phis) != 2 or any(abs(p - PI8) > 1e-12 for p in phis):
            problems.append(f"nonlocal layers at {phis}, want two at pi/8")
        miss = _off_by(ref.layers_product(out["circuit"]), u)
        if miss > 1e-7:
            problems.append(f"circuit misses the target matrix by {miss:.3e}")
        return problems


class AutoPhi(Workload):
    """`weylforge synthesize --coords ... --phi auto --json`, in-process."""

    # An operation's cost is a step function of |c3| alone: the scan's
    # feasible phi, each verified by an extraction, thin out as |c3|
    # grows.  So a round is stratified on |c3|, which keeps the classes
    # in its middle, and with them the median time, alike from seed to
    # seed.
    round_size = 32

    def inputs(self, seed):
        rng = np.random.default_rng([2, seed])
        points = ref.stratified_chamber_points(rng, self.round_size)
        return [{"coords": c} for c in points]

    def op(self, wf, item):
        argv = [
            "synthesize",
            "--coords", ",".join(repr(v) for v in item["coords"]),
            "--phi", "auto",
            "--json",
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = wf.cli.main(argv)
        return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}

    def check(self, item, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}: {out['stderr'].strip()}"]
        c = item["coords"]
        payload = json.loads(out["stdout"])
        problems = []
        if abs(payload["phi"] - PI8) > 1e-12:
            problems.append(f"chose phi {payload['phi']}, want pi/8")
        if payload["verified"] is not True or payload["nonlocal_layers"] != 2:
            problems.append(
                f"verified {payload['verified']}, nonlocal_layers "
                f"{payload['nonlocal_layers']}"
            )
        if _off_by(payload["target"], c) > 0:
            problems.append(f"target echoed as {payload['target']}, sent {c}")
        got = ref.makhlin_invariants(ref.layers_product(payload["circuit"]))
        want = ref.makhlin_invariants(ref.core_gate(c))
        if _off_by(got, want) > 1e-8:
            problems.append(f"circuit invariants {got} != target {want}")
        return problems


class Certify(Workload):
    """Monte Carlo entangling power and the SPE test on planted classes;
    SPE members also get a witness basis and its images checked."""

    # per round: 4 classes on the SPE segment, the 5 named classes and
    # 3 generic chamber classes
    round_size = 12

    def inputs(self, seed):
        rng = np.random.default_rng([3, seed])
        phis = ref.shifted_halton(rng, 1)
        generic = ref.chamber_points(ref.shifted_halton(rng, 3))
        planted = [("segment", (QUARTER, QUARTER * float(next(phis)[0]), 0.0), True)
                   for _ in range(4)]
        planted += [(name, c, spe) for name, (c, spe) in NAMED.items()]
        planted += [("generic", next(generic), False) for _ in range(3)]
        return [
            {
                "label": label,
                "coords": c,
                "spe": spe,
                "matrix": ref.dress(c, rng),
                "theta": float(rng.uniform(0.0, np.pi)),
                "mc_seed": int(rng.integers(2**31)),
            }
            for label, c, spe in planted
        ]

    def op(self, wf, item):
        g = wf.GateMatrix(item["matrix"])
        out = {"est": wf.entangling_power_mc(g, MC_SAMPLES, item["mc_seed"])}
        out["coords"] = wf.extract_coordinates(g)
        out["spe"] = wf.is_spe(out["coords"])
        if item["spe"]:
            out["basis"] = wf.witness_basis_for_gate(g, item["theta"])
            out["conc"] = wf.check_basis_images(g, out["basis"])
        return out

    def check(self, item, out):
        c, u = item["coords"], item["matrix"]
        problems = []
        est = out["est"]
        gap = abs(est.mean - ref.entangling_power(c))
        if est.samples != MC_SAMPLES or gap > MC_K * est.std_error + MC_FLOOR:
            problems.append(
                f"{item['label']} {c}: MC mean {est.mean} is {gap:.3e} from the "
                f"closed form, std error {est.std_error:.3e}"
            )
        if _off_by(out["coords"], c) > 1e-8:
            problems.append(f"{item['label']}: coords {tuple(out['coords'])} != {c}")
        if out["spe"] != item["spe"]:
            problems.append(f"{item['label']} {c}: SPE flag {out['spe']}")
        if item["spe"]:
            rows = np.asarray(out["basis"])
            gram = _off_by(rows.conj() @ rows.T, np.eye(4))
            product = max(ref.concurrence(r) for r in rows)
            images = [ref.concurrence(u @ r) for r in rows]
            if gram > 1e-9 or product > 1e-9:
                problems.append(
                    f"{item['label']}: witness Gram residual {gram:.3e}, "
                    f"row concurrence {product:.3e}"
                )
            if min(images) < 1 - 1e-9 or _off_by(out["conc"], images) > 1e-9:
                problems.append(
                    f"{item['label']}: image concurrences {list(out['conc'])}, "
                    f"reference {images}"
                )
        return problems

    def once(self, wf, item, out):
        """A repeated call with the same gate, sample count and seed must
        return a bit-identical estimate."""
        again = wf.entangling_power_mc(
            wf.GateMatrix(item["matrix"]), MC_SAMPLES, item["mc_seed"]
        )
        first = out["est"]
        if (again.mean.hex(), again.std_error.hex()) != (
            first.mean.hex(), first.std_error.hex()
        ):
            return [f"repeated MC call gave {again}, first gave {first}"]
        return []


WORKLOADS = {"compile": Compile(), "auto_phi": AutoPhi(), "certify": Certify()}
