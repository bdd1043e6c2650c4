"""Per-layer tracing from outside the program.

Each layer function is replaced by a wrapper in its defining module and in
every ``qaffine`` module that imported it by name (``from .weyl import
length``), so no call can bypass it.  A wrapper records one span per call:
function, start, end, parent span and the operation it served.  Spans stay in
memory (up to ``SPAN_CAP``; later ones are only counted) and are written out
when the run ends.  Self time is a span's duration minus the time covered by
its child spans.
"""

import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path in that module, metric name)
LAYERS = (
    ("weyl", "WeylElt.__mul__", "weyl.WeylElt.mul"),
    ("weyl", "enumerate_weyl", "weyl.enumerate_weyl"),
    ("weyl", "length", "weyl.length"),
    ("weyl", "chamber_decompose", "weyl.chamber_decompose"),
    ("weyl", "cocovers_superregular", "weyl.cocovers_superregular"),
    ("weyl", "bruhat_leq", "weyl.bruhat_leq"),
    ("cartan", "build", "cartan.build"),
    ("cartan", "RootSystem.root_lattice_check", "cartan.root_lattice_check"),
    ("coeffring", "Scalar.__mul__", "coeffring.Scalar.mul"),
    ("coeffring", "Scalar.__add__", "coeffring.Scalar.add"),
    ("coeffring", "weight_diff", "coeffring.weight_diff"),
    ("nilhecke", "is_central", "nilhecke.is_central"),
    ("nilhecke", "act_on_homology", "nilhecke.act_on_homology"),
    ("peterson", "b_op", "peterson.b_op"),
    ("peterson", "b_element", "peterson.b_element"),
    ("peterson", "j_class", "peterson.j_class"),
    ("peterson", "hom_product_basis", "peterson.hom_product_basis"),
    ("quantum", "schubert_poly", "quantum.schubert_poly"),
    ("quantum", "chevalley", "quantum.chevalley"),
    ("quantum", "product_basis", "quantum.product_basis"),
    ("qbruhat", "build_qbg", "qbruhat.build_qbg"),
    ("qbruhat", "verify_tilted_embedding", "qbruhat.verify_tilted_embedding"),
    ("parabolic", "ParabolicData.minimal_reps", "parabolic.minimal_reps"),
    ("parabolic", "lm_map", "parabolic.lm_map"),
    ("parabolic", "pi_P", "parabolic.pi_P"),
    ("parabolic", "theta_cominuscule", "parabolic.theta_cominuscule"),
    ("cli", "main", "cli.main"),
)
MODULES = tuple(dict.fromkeys(m for m, _, _ in LAYERS))
SPAN_CAP = 100_000


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name in LAYERS]
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.leaf_calls = [0] * len(LAYERS)  # calls with no traced child
        self.spans = []  # (span id, parent id, layer, start, end, op)
        self.dropped = 0
        self.on = False
        self.op = -1
        self._stack = []
        self._next_id = 0
        self._patches = []  # (holder, attribute, function, wrapper)

    def install(self) -> None:
        """Wrap every layer function wherever qaffine holds a reference to it."""
        if not self._patches:
            mods = {m: sys.modules[f"qaffine.{m}"] for m in MODULES}
            for fid, (mod, path, _name) in enumerate(LAYERS):
                owner = mods[mod]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._wrap(fid, orig)
                holders = [owner] if outer else [m for k, m in sys.modules.items() if k.split(".")[0] == "qaffine"]
                self._patches += [(holder, key, orig, wrapper) for holder in holders
                                  for key, val in vars(holder).items()
                                  if val is orig]  # also catches aliases such as Scalar.__rmul__
        for holder, key, _orig, wrapper in self._patches:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put the program's own functions back."""
        for holder, key, orig, _wrapper in self._patches:
            setattr(holder, key, orig)

    def _wrap(self, fid, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [perf_counter(), 0.0, 0, sid]  # start, child seconds, child calls, span id
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                self.calls[fid] += 1
                self.self_s[fid] += dur - frame[1]
                if not frame[2]:
                    self.leaf_calls[fid] += 1
                if parent is not None:
                    parent[1] += dur
                    parent[2] += 1
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((sid, parent[3] if parent is not None else -1, fid, frame[0], end, self.op))
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    @contextmanager
    def active(self, op: int = -1):
        self.on, self.op = True, op
        try:
            yield
        finally:
            self.on, self.op = False, -1

    def layer_metrics(self) -> dict:
        """Calls and self seconds per layer function, plus per-module rollups."""
        out = {}
        rollup = dict.fromkeys(MODULES, 0.0)
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[fid], "count")
            out[f"{name}.self_s"] = (self.self_s[fid], "s")
            rollup[LAYERS[fid][0]] += self.self_s[fid]
        for mod, secs in rollup.items():
            out[f"{mod}.self_s"] = (secs, "s")
        j = self.names.index("peterson.j_class")
        central = self.names.index("nilhecke.is_central")
        computed = self.calls[j] - self.leaf_calls[j]  # a cache hit calls no traced layer
        out["peterson.j_class.hit_ratio"] = (self.leaf_calls[j] / self.calls[j] if self.calls[j] else 0.0, "ratio")
        out["nilhecke.is_central.per_j_class"] = (self.calls[central] / computed if computed else 0.0, "ratio")
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "layers": self.names,
                    "span_fields": ["id", "parent", "layer", "start_s", "end_s", "op"],
                    "spans": self.spans,
                    "spans_dropped": self.dropped,
                },
                fh,
            )
