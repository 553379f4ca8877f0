"""Per-layer tracing from outside vlink.

`Tracer.install` replaces every public function of the vlink package
modules, under each name it is bound to in each module namespace (for
example `vlink.model.plan_contraction` and `vlink.contraction.plan_contraction`
are separate bindings of one function), plus `QuantumTangle.of`, with a
wrapper that records a span: name, start, end, parent span, op id.  A span
is named after the defining module and function, so a call through any
binding lands on the same layer.  Spans stay in memory until `write`;
`restore` puts the original functions back.

A few wrappers also run a counter hook after the call (distinct tangles
planned or keyed, multiply-adds of executed plans, qt_glue terms, move
sites).  Hook time is charged to no span: it is subtracted from the
parent's self time.
"""

from __future__ import annotations

import importlib
import time
import types

MODULES = (
    "vlink",
    "vlink.diagram",
    "vlink.contraction",
    "vlink.algebra",
    "vlink.model",
    "vlink.moves",
    "vlink.characterize",
    "vlink.cli",
)

#: Complex128 entries.
BYTES_PER_ENTRY = 16

QUANTUM = (
    "algebra.QuantumTangle.of",
    "algebra.qt_add",
    "algebra.qt_scale",
    "algebra.qt_glue",
    "algebra.det_tangle",
    "algebra.tangle_derivative",
)
PROBES = (
    "characterize.kernel_residual",
    "characterize.gram_psd",
    "characterize.fd_check",
    "characterize.enumerate_tangles",
)

MARKER = "__perfbench_wrapped__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op id, hook seconds of children]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.patched: list[tuple[object, str, object]] = []
        self.planned: set[int] = set()
        self.keyed: set[int] = set()
        self.counts = {
            "madds": 0,
            "peak_arity": 0,
            "peak_bytes": 0,
            "glue_pairs": 0,
            "glue_kept": 0,
            "sites": 0,
            "hook_errors": 0,
        }
        self.hooks = {
            "contraction.execute_plan": self._on_execute,
            "contraction.plan_contraction": self._on_plan,
            "diagram.canonical_key": self._on_key,
            "algebra.qt_glue": self._on_qt_glue,
            "moves.enumerate_move_sites": self._on_sites,
        }

    # -- hooks (count only inside ops) --------------------------------------

    def _on_execute(self, args, kwargs, result):
        n, plan = _arg(args, kwargs, 1, "n"), _arg(args, kwargs, 3, "plan")
        c = self.counts
        c["madds"] += sum(n ** (s.result_arity + len(s.contracted)) for s in plan.steps)
        c["peak_arity"] = max(c["peak_arity"], plan.peak_arity)
        c["peak_bytes"] = max(c["peak_bytes"], n**plan.peak_arity * BYTES_PER_ENTRY)

    def _on_plan(self, args, kwargs, result):
        self.planned.add(hash(_arg(args, kwargs, 0, "t")))

    def _on_key(self, args, kwargs, result):
        self.keyed.add(hash(_arg(args, kwargs, 0, "t")))

    def _on_qt_glue(self, args, kwargs, result):
        a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
        self.counts["glue_pairs"] += len(a) * len(b)
        self.counts["glue_kept"] += len(result)

    def _on_sites(self, args, kwargs, result):
        self.counts["sites"] += len(result)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self.hooks.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None and self.op >= 0:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["hook_errors"] += 1
                if parent >= 0:
                    spans[parent][5] += clock() - record[2]
            return result

        wrapper.__name__, wrapper.__qualname__ = fn.__name__, fn.__qualname__
        wrapper.__doc__, wrapper.__wrapped__ = fn.__doc__, fn
        setattr(wrapper, MARKER, True)
        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("vlink"):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                self.patched.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        qt = importlib.import_module("vlink.algebra").QuantumTangle
        original = qt.__dict__["of"]
        self.patched.append((qt, "of", original))
        qt.of = staticmethod(self._wrap(original.__func__, "algebra.QuantumTangle.of"))

    def restore(self) -> bool:
        """Put every original binding back; True when no wrapper remains."""
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        return not any(remaining_wrappers())

    # -- results ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def layer_metrics(self, ops: int, busy_s: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics over spans inside ops, as name -> (value, unit),
        and the eight layers with the most self time per op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        covered = 0.0
        for i, (name, start, end, parent, op, hooks) in enumerate(self.spans):
            if op < 0:
                continue
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i] - hooks
            if parent < 0:
                covered += end - start
        c = self.counts

        def per_op(x):
            return x / ops

        def self_ms(*names):
            return per_op(1e3 * sum(self_s.get(n, 0.0) for n in names))

        def ratio(num, den):
            return num / den if den else 0.0

        n_plan = calls.get("contraction.plan_contraction", 0)
        n_key = calls.get("diagram.canonical_key", 0)
        out = {
            "contraction.execute_plan.calls": (per_op(calls.get("contraction.execute_plan", 0)), "count/op"),
            "contraction.execute_plan.self_ms": (self_ms("contraction.execute_plan"), "ms/op"),
            "contraction.execute_plan.madds": (per_op(c["madds"]), "count/op"),
            "contraction.peak_arity_max": (float(c["peak_arity"]), "count"),
            "contraction.peak_bytes_max": (float(c["peak_bytes"]), "B"),
            "contraction.plan_contraction.calls": (per_op(n_plan), "count/op"),
            "contraction.plan_contraction.self_ms": (self_ms("contraction.plan_contraction"), "ms/op"),
            "contraction.plan_contraction.distinct_ratio": (ratio(len(self.planned), n_plan), "ratio"),
            "model.tangle_tensor.calls": (per_op(calls.get("model.tangle_tensor", 0)), "count/op"),
            "model.tangle_tensor.self_ms": (self_ms("model.tangle_tensor"), "ms/op"),
            "model.qt_evaluate.self_ms": (self_ms("model.qt_evaluate"), "ms/op"),
            "diagram.canonical_key.calls": (per_op(n_key), "count/op"),
            "diagram.canonical_key.self_ms": (self_ms("diagram.canonical_key"), "ms/op"),
            "diagram.canonical_key.distinct_ratio": (ratio(len(self.keyed), n_key), "ratio"),
            "algebra.quantum.calls": (per_op(sum(calls.get(n, 0) for n in QUANTUM)), "count/op"),
            "algebra.quantum.self_ms": (self_ms(*QUANTUM), "ms/op"),
            "algebra.qt_glue.kept_ratio": (ratio(c["glue_kept"], c["glue_pairs"]), "ratio"),
            "algebra.glue.calls": (per_op(calls.get("algebra.glue", 0)), "count/op"),
            "algebra.glue.self_ms": (self_ms("algebra.glue"), "ms/op"),
            "diagram.build_tangle.calls": (per_op(calls.get("diagram.build_tangle", 0)), "count/op"),
            "diagram.build_tangle.self_ms": (self_ms("diagram.build_tangle"), "ms/op"),
            "moves.enumerate_move_sites.calls": (per_op(calls.get("moves.enumerate_move_sites", 0)), "count/op"),
            "moves.enumerate_move_sites.self_ms": (self_ms("moves.enumerate_move_sites"), "ms/op"),
            "moves.sites_used_ratio": (ratio(calls.get("moves.apply_move", 0), c["sites"]), "ratio"),
            "moves.apply_move.calls": (per_op(calls.get("moves.apply_move", 0)), "count/op"),
            "moves.apply_move.self_ms": (self_ms("moves.apply_move"), "ms/op"),
            "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
            "cli.build_parser.self_ms": (self_ms("cli.build_parser"), "ms/op"),
            "model.load_model.self_ms": (self_ms("model.load_model"), "ms/op"),
            "diagram.parse_tangle.calls": (per_op(calls.get("diagram.parse_tangle", 0)), "count/op"),
            "diagram.parse_tangle.self_ms": (self_ms("diagram.parse_tangle"), "ms/op"),
            "characterize.probe.self_ms": (self_ms(*PROBES), "ms/op"),
            "trace.coverage": (ratio(covered, busy_s), "ratio"),
        }
        top = sorted(self_s.items(), key=lambda kv: -kv[1])[:8]
        return out, [(name, per_op(1e3 * s)) for name, s in top]


def remaining_wrappers():
    """Names in vlink namespaces still bound to a tracing wrapper."""
    qt = importlib.import_module("vlink.algebra").QuantumTangle
    if hasattr(qt.of, MARKER):
        yield "algebra.QuantumTangle.of"
    for modname in MODULES:
        for attr, obj in vars(importlib.import_module(modname)).items():
            if hasattr(obj, MARKER):
                yield f"{modname}.{attr}"
