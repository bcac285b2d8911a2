"""Layer-boundary tracing of evogrid from outside the package.

`Tracer.install()` replaces the public functions and methods of each layer
module (module attributes wherever evogrid binds them, and class attributes
of the classes the module defines) with wrappers; `Tracer.restore()` puts
every original object back.  A wrapper always counts its call.  It records a
span (name, start, end, parent span, operation id) when the call enters its
layer from another layer, or when the function is one of the named timed
functions below; calls that stay inside one layer are counted only, which
keeps hot label plumbing such as `TimeFrame.position` cheap to trace.

Spans stay in flat in-memory arrays until `write()` saves them once.  A
span's self time is its duration minus the durations of its child spans, and
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("scenario", "rng", "algebra", "evolution", "representation", "dynamics", "lagrangian", "suites", "cli")
ROOT = "bench.op"

# operator dunders and dataclass hooks that carry real work
_DUNDERS = frozenset({"__post_init__", "__call__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__"})

# Named functions always get a span, so their inclusive times are complete.
TIMED = frozenset({
    "scenario.load_scenario",
    "rng.SplitMix64.haar_unitary",
    "algebra.verify_automorphism",
    "evolution.pullback",
    "evolution.GridEvolutionSpace.restricted_index_array",
    "representation.SpectralMeasure.projection",
    "representation.integrate",
    "representation.DiagonalOperator.to_dense",
    "representation.DenseOperator.to_dense",
    "representation.ConjugatedDiagonalOperator.to_dense",
    "representation.DiagonalOperator.norm",
    "representation.DenseOperator.norm",
    "representation.ConjugatedDiagonalOperator.norm",
    "dynamics.evolution_unitary",
    "dynamics.check_group_law",
    "dynamics.commutant_witness",
    "lagrangian.action_from_lagrangian",
    "lagrangian.verify_lagrangian",
    "cli.main",
})

_TO_DENSE = (
    "representation.DiagonalOperator.to_dense",
    "representation.DenseOperator.to_dense",
    "representation.ConjugatedDiagonalOperator.to_dense",
)
_NORM = (
    "representation.DiagonalOperator.norm",
    "representation.DenseOperator.norm",
    "representation.ConjugatedDiagonalOperator.norm",
)

# metric name -> (kind, traced names); "calls" sums call counts, "s" is the
# time inside spans of those names that are not nested in one another
NAMED = {
    "evolution.position_calls": ("calls", ("evolution.TimeFrame.position",)),
    "evolution.linear_index_calls": ("calls", ("evolution.GridEvolutionSpace.linear_index",)),
    "evolution.restrict_point_calls": ("calls", ("evolution.GridEvolutionSpace.restrict_point",)),
    "evolution.pullback_calls": ("calls", ("evolution.pullback",)),
    "evolution.pullback_s": ("s", ("evolution.pullback",)),
    "evolution.restricted_index_array_s": ("s", ("evolution.GridEvolutionSpace.restricted_index_array",)),
    "representation.projection_calls": ("calls", ("representation.SpectralMeasure.projection",)),
    "representation.projection_s": ("s", ("representation.SpectralMeasure.projection",)),
    "representation.integrate_calls": ("calls", ("representation.integrate",)),
    "representation.integrate_s": ("s", ("representation.integrate",)),
    "representation.to_dense_calls": ("calls", _TO_DENSE),
    "representation.to_dense_s": ("s", _TO_DENSE),
    "representation.norm_calls": ("calls", _NORM),
    "representation.norm_s": ("s", _NORM),
    "representation.dense_s": ("s", _TO_DENSE + _NORM),
    "dynamics.evolution_unitary_calls": ("calls", ("dynamics.evolution_unitary",)),
    "dynamics.evolution_unitary_s": ("s", ("dynamics.evolution_unitary",)),
    "dynamics.check_group_law_s": ("s", ("dynamics.check_group_law",)),
    "dynamics.commutant_witness_calls": ("calls", ("dynamics.commutant_witness",)),
    "dynamics.commutant_witness_s": ("s", ("dynamics.commutant_witness",)),
    "rng.haar_unitary_calls": ("calls", ("rng.SplitMix64.haar_unitary",)),
    "rng.haar_unitary_s": ("s", ("rng.SplitMix64.haar_unitary",)),
    "scenario.load_s": ("s", ("scenario.load_scenario",)),
    "lagrangian.action_from_lagrangian_s": ("s", ("lagrangian.action_from_lagrangian",)),
    "lagrangian.evaluate_calls": ("calls", ("lagrangian.Lagrangian.evaluate",)),
    "lagrangian.verify_lagrangian_s": ("s", ("lagrangian.verify_lagrangian",)),
    "algebra.verify_automorphism_s": ("s", ("algebra.verify_automorphism",)),
    "algebra.automorphism_haar_calls": ("calls", ("algebra.Automorphism.haar",)),
}


def _haar_entries(tracer: "Tracer", args, kwargs) -> None:
    tracer.tallies["rng.haar_entries"] += int(args[1]) ** 2  # haar_unitary(self, n): n x n draws


def _dense_bytes(tracer: "Tracer", args, kwargs) -> None:
    # computed, not measured: one complex128 N x N matrix per materialisation
    tracer.tallies["representation.dense_bytes"] += 16 * args[0].dimension ** 2


def _witness_args(tracer: "Tracer", args, kwargs) -> None:
    # the argument objects stay alive for the whole operation, so ids identify them
    key = (tracer._op[0],) + tuple(id(a) for a in args) + tuple(sorted(kwargs.items()))
    tracer.witness_keys.add(key)


# per-call hooks by traced name; only the two operator kinds that build a new
# matrix count towards dense bytes
_HOOKS = {
    "rng.SplitMix64.haar_unitary": _haar_entries,
    "representation.DiagonalOperator.to_dense": _dense_bytes,
    "representation.ConjugatedDiagonalOperator.to_dense": _dense_bytes,
    "dynamics.commutant_witness": _witness_args,
}


class Tracer:
    """Wraps evogrid's layer entry points; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []  # traced name per name id
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.tallies = {"rng.haar_entries": 0, "representation.dense_bytes": 0}
        self.witness_keys: set[tuple] = set()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._layers = ["bench"]
        self._op = [0]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        timed = name in TIMED
        hook = _HOOKS.get(name)
        calls = self.calls
        span_name, span_parent, span_op = self.span_name, self.span_parent, self.span_op
        span_start, span_end = self.span_start, self.span_end
        stack, layers, op = self._stack, self._layers, self._op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[nid] += 1
            if hook is not None:
                hook(self, args, kwargs)
            if not timed and layers[-1] == layer:
                return fn(*args, **kwargs)
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_op.append(op[0])
            span_end.append(0.0)
            stack.append(idx)
            layers.append(layer)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                layers.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """A root span around one benchmark operation; spans inside carry `op_id`."""
        self._op[0] = op_id
        idx = len(self.span_start)
        self.span_name.append(0)  # the root name, registered first by install()
        self.span_parent.append(self._stack[-1])
        self.span_op.append(op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._layers.append("bench")
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()
            self._layers.pop()

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._name_id(ROOT, "bench")
        modules = {layer: importlib.import_module(f"evogrid.{layer}") for layer in LAYERS}
        package = [m for n, m in sorted(sys.modules.items()) if n == "evogrid" or n.startswith("evogrid.")]
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._install_class(obj, layer)
                elif callable(obj):
                    wrapped = self._wrap(obj, f"{layer}.{attr}", layer)
                    for mod in package:
                        for bound, value in list(vars(mod).items()):
                            if value is obj:
                                self._replace(mod, bound, wrapped)

    def _install_class(self, cls: type, layer: str) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._replace(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer)))
            elif callable(raw) and not isinstance(raw, type):
                self._replace(cls, attr, self._wrap(raw, name, layer))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original attribute, last replaced first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def self_times(self, spans: dict) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        duration = spans["end"] - spans["start"]
        child = np.zeros_like(duration)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], duration[has_parent])
        return duration - child

    def outermost_time(self, spans: dict, names) -> float:
        """Time inside spans of `names`, counting nested ones once."""
        ids = [i for i, n in enumerate(self.names) if n in names]
        member = np.isin(spans["name"], ids)
        if not member.any():
            return 0.0
        inside = np.zeros(member.size, dtype=bool)
        up = spans["parent"].copy()
        while True:
            live = up >= 0
            if not live.any():
                break
            inside[live] |= member[up[live]]
            up[live] = spans["parent"][up[live]]
        keep = member & ~inside
        return float(np.sum(spans["end"][keep] - spans["start"][keep]))

    def call_count(self, names) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n in names)

    def metrics(self) -> dict[str, float]:
        """Named per-layer metrics and per-layer self time and share."""
        spans = self.arrays()
        out: dict[str, float] = {}
        for metric, (kind, names) in NAMED.items():
            names = frozenset(names)
            out[metric] = self.call_count(names) if kind == "calls" else self.outermost_time(spans, names)
        out.update(self.tallies)
        self_time = self.self_times(spans)
        span_layer = np.array(self.layer_of, dtype=object)[spans["name"]]
        # shares are of the time spent inside evogrid, so runner glue such as
        # the correctness gate does not dilute them
        layer_self = {layer: float(np.sum(self_time[span_layer == layer])) for layer in LAYERS}
        total = sum(layer_self.values())
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
            out[f"{layer}.self_share"] = value / total if total > 0 else 0.0
        out["representation.dense_share"] = out["representation.dense_s"] / total if total > 0 else 0.0
        witness_calls = out["dynamics.commutant_witness_calls"]
        out["dynamics.commutant_witness_useful_ratio"] = len(self.witness_keys) / witness_calls if witness_calls else 0.0
        return out

    def write(self, path) -> None:
        """Save every span once, with the name and layer tables."""
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            layers=np.array(json.dumps(self.layer_of)),
            calls=np.array(self.calls, dtype=np.int64),
            **{f"span_{k}": v for k, v in spans.items()},
        )
