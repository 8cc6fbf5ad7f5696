"""Spans around the public functions of each weylforge module.

The tracer replaces each listed function by a wrapper in every weylforge
module namespace that binds it, because calls across modules go through
those bindings (synth calls its own imported extract_coordinates, cli
its own feasible_phi_profile).  Spans stay in memory until the run ends.
"""

import functools
import json
import sys
import time

# Module -> functions wrapped in the traced run.  gates holds only
# constants and is left out.
LAYERS = {
    "linalg": ("eig_commuting_symmetric_pair", "split_local", "su4_normalize"),
    "invariants": (
        "local_invariants",
        "m_matrix",
        "invariants_from_coords",
        "is_perfect_entangler",
    ),
    "canonical": (
        "reduce_to_weyl",
        "extract_coordinates",
        "kak_decompose",
        "canonical_gate",
    ),
    "entangle": ("haar_product_states", "entangling_power_mc", "concurrence_pure"),
    "spe": ("spe_gate", "is_spe", "witness_basis_for_gate", "check_basis_images"),
    "synth": (
        "spe_params",
        "synthesize",
        "circuit_matrix",
        "verify_equivalence",
        "feasible_phi_profile",
        "circuit_to_dict",
    ),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span,
    operation id, and for spe_params the number of candidates returned
    (for synthesize, 1 when it returned a circuit, 0 when it raised)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_result = name == "synth.spe_params"
        counts_return = name == "synth.synthesize"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counts_result:
                    outcome = len(result)
                elif counts_return:
                    outcome = 1
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, outcome)

        return wrapper

    def install(self):
        """Bind a wrapper in place of every listed function, in every
        loaded weylforge module that holds it."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "weylforge" or key.startswith("weylforge.")
        ]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"weylforge.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def per_op(self, ops: int) -> dict:
        """Per-layer metrics per operation: calls and self time of each
        wrapped function, candidates from spe_params, and the share of
        synthesize calls that returned a circuit (0 when it is not
        called).  Spans outside the timed operations (op < 0) are left
        out."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(FUNCTIONS, 0)
        self_s = dict.fromkeys(FUNCTIONS, 0.0)
        candidates = returned = 0
        for i, (name, start, end, _, op, outcome) in enumerate(self.spans):
            if op < 0:
                continue
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if name == "synth.spe_params":
                candidates += outcome
            elif name == "synth.synthesize":
                returned += outcome
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = (calls[name] / ops, "count")
            out[f"{name}.self_ms"] = (1e3 * self_s[name] / ops, "ms")
        out["synth.spe_params.candidates"] = (candidates / ops, "count")
        synth_calls = calls["synth.synthesize"]
        ratio = returned / synth_calls if synth_calls else 0.0
        out["synth.synthesize.feasible_ratio"] = (ratio, "ratio")
        return out

    def write(self, path):
        """One JSON object per span, in call order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, outcome) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "outcome": outcome,
                }) + "\n")
