"""Spans around glab's public functions, installed from outside the package.

`install` wraps every public function of each layer module, the
methods of `GroupAlgebra` and `Workspace`, and each law in
`verify.LAW_TABLE`. A wrapped call is one span. Its self time is its
duration minus the time of the wrapped calls it made. `layer_metrics`
turns the summed spans of a workload into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter

LAYERS = ("instance", "finring", "grp", "galg", "ideals", "idem", "lcp",
          "chk", "verify", "cli")
CLASSES = (("galg", "GroupAlgebra"), ("verify", "Workspace"))

# The functions whose counts and times are reported by name.
NAMED = (
    "instance.build_instance", "finring.build_ring", "finring.audit_ring",
    "grp.build_group", "galg.GroupAlgebra.__init__",
    "galg.GroupAlgebra.mul", "galg.GroupAlgebra.mul_row",
    "galg.GroupAlgebra.mul_col", "galg.GroupAlgebra.square_all",
    "galg.GroupAlgebra.is_central",
    "ideals.enumerate_ideals", "ideals.ideal_sum", "ideals.principal",
    "ideals.span", "ideals.dual_code", "ideals.ann_left", "ideals.ann_right",
    "idem.enumerate_idempotents", "idem.decompose_idempotent",
    "idem.lift_idempotent",
    "lcp.lcp_scan", "lcp.refine_certificate",
    "lcp.lcp_residue_correspondence",
    "chk.code_checkable_census", "chk.is_checkable",
    "cli.render_text", "cli.render_tsv",
)

# The check ids of verify-all, in report order.
LAWS = (
    "dual-lattice.sum-meet", "dual-lattice.meet-join",
    "dual-lattice.size-product", "lcp-split.biconditional",
    "lcp-split.pair-idempotent-count", "split-refine.partition",
    "split-refine.dual-of-sum", "idem-dual.formula",
    "hat-transfer.central-image", "hat-transfer.size",
    "residue-lcp.forward", "residue-lcp.biconditional",
    "residue-lcp.idempotent-restricted", "radical-lift.iteration",
    "checkable-routes.ann-principal", "checkable-routes.dual-principal",
    "checkable-routes.dual-hat-ann", "checkable-routes.block-intersection",
    "ann-identities.right-of-element", "ann-identities.left-of-element",
    "ann-identities.double-left", "ann-identities.double-right",
    "ann-identities.size-left", "ann-identities.size-right",
)

CENSUS = "ideals.enumerate_ideals"
DUAL = "ideals.dual_code"
WORKSPACE_DUAL = "verify.Workspace.dual"


def _per_layer_specs() -> list[tuple[str, str, str]]:
    specs = [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    for key in NAMED:
        specs += [(f"{key}.calls", "count", "lower"),
                  (f"{key}.total_s", "s", "lower"),
                  (f"{key}.self_s", "s", "lower")]
    specs += [(f"verify.law.{law}.s", "s", "lower") for law in LAWS]
    specs += [("ideals.census_yield", "ratio", "higher"),
              (f"{WORKSPACE_DUAL}.calls", "count", "lower"),
              ("verify.dual_cache_hit_ratio", "ratio", "higher"),
              ("trace.wall_s", "s", "lower"),
              ("trace.unwrapped_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _per_layer_specs()


class Tracer:
    """Counts, total and self time of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.returned: Counter = Counter()   # items in list results
        self.edges: Counter = Counter()      # (caller key, callee key)
        self._stack: list[list] = []         # [key, child seconds] per span
        self._open: Counter = Counter()

    def wrap(self, key: str, fn):
        clock, stack, open_spans = self.clock, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            open_spans[key] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[key] -= 1
                self.calls[key] += 1
                self.self_time[key] += elapsed - frame[1]
                # A recursive call lies inside its outer span: count it once.
                if not open_spans[key]:
                    self.total[key] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                self.edges[(parent, key)] += 1
            if type(result) is list:
                self.returned[key] += len(result)
            return result

        return traced

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time),
                "returned": dict(self.returned),
                "edges": [[p, c, n] for (p, c), n in self.edges.items()]}


def merge(traces: list[dict]) -> dict:
    """Sum the dumps of several traced processes."""
    out = {part: Counter() for part in ("calls", "total", "self", "returned")}
    edges: Counter = Counter()
    for trace in traces:
        for part, sums in out.items():
            sums.update(trace[part])
        for parent, child, n in trace["edges"]:
            edges[(parent, child)] += n
    merged = {part: dict(sums) for part, sums in out.items()}
    merged["edges"] = [[p, c, n] for (p, c), n in edges.items()]
    return merged


def layer_metrics(trace: dict, passes: int = 1) -> dict[str, float]:
    """Per-layer metrics of a merged trace, per pass over the workload.

    Leaves out the trace.* metrics, which need the wall times of the
    processes as the parent saw them.
    """
    calls, total, self_time = trace["calls"], trace["total"], trace["self"]
    edges = {(p, c): n for p, c, n in trace["edges"]}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for key, s in self_time.items()
            if key.split(".", 1)[0] == layer) / passes
    for key in NAMED:
        out[f"{key}.calls"] = calls.get(key, 0) // passes
        out[f"{key}.total_s"] = total.get(key, 0.0) / passes
        out[f"{key}.self_s"] = self_time.get(key, 0.0) / passes
    for law in LAWS:
        out[f"verify.law.{law}.s"] = total.get(f"verify.law.{law}", 0.0) / passes
    attempts = (edges.get((CENSUS, "ideals.principal"), 0)
                + edges.get((CENSUS, "ideals.ideal_sum"), 0))
    out["ideals.census_yield"] = (
        trace["returned"].get(CENSUS, 0) / attempts if attempts else 0.0)
    dual_calls = calls.get(WORKSPACE_DUAL, 0)
    out[f"{WORKSPACE_DUAL}.calls"] = dual_calls // passes
    out["verify.dual_cache_hit_ratio"] = (
        1 - edges.get((WORKSPACE_DUAL, DUAL), 0) / dual_calls
        if dual_calls else 0.0)
    return out


def _glab_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "glab" or name.startswith("glab.")) and m is not None]


def install(tracer: Tracer) -> list:
    """Wrap the layers' functions; return what `uninstall` restores.

    A function is rebound wherever a glab module holds it, because
    modules import names from each other with `from .x import y`.
    """
    layers = {layer: importlib.import_module(f"glab.{layer}")
              for layer in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                wrappers[obj] = tracer.wrap(f"{layer}.{name}", obj)
    undo = []
    for module in _glab_modules():
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                undo.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    for layer, cls_name in CLASSES:
        cls = getattr(layers[layer], cls_name)
        for name, obj in list(vars(cls).items()):
            key = f"{layer}.{cls_name}.{name}"
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(obj, types.FunctionType):
                undo.append((cls, name, obj))
                setattr(cls, name, tracer.wrap(key, obj))
            elif isinstance(obj, functools.cached_property):
                prop = functools.cached_property(tracer.wrap(key, obj.func))
                prop.__set_name__(cls, name)
                undo.append((cls, name, obj))
                setattr(cls, name, prop)
    table = layers["verify"].LAW_TABLE
    for i, (check_id, law, fn) in enumerate(table):
        undo.append((table, i, table[i]))
        table[i] = (check_id, law, tracer.wrap(f"verify.law.{check_id}", fn))
    return undo


def uninstall(undo: list) -> None:
    for target, name, obj in reversed(undo):
        if isinstance(target, list):
            target[name] = obj
        else:
            setattr(target, name, obj)
