"""Outside-in per-layer tracing of the ``repro`` package.

:class:`LayerTracer` patches the public entry points of every ``repro``
module from the outside: module-level functions (in every module that
holds a reference to them) and the public methods of public classes.
Each wrapped call records a span with its parent on an in-memory stack;
a layer's *self time* is the span's duration minus the time its child
spans cover.  Spans are folded into per-function totals as they close,
so the trace costs memory per function, not per call.

Every action handed to ``EventQueue.schedule`` (``schedule_at``
delegates to it) is wrapped as well and charged to the layer of the
module that defined it, so ``sim.events`` self time is heap work plus
dispatch only.

The wrappers cost time of their own.  :meth:`LayerTracer.install`
calibrates that cost on a no-op, and :meth:`LayerTracer.split` moves
the estimate out of the layers into a ``tracing`` row, so that layer
self times, ``other`` and ``tracing`` add up to the traced wall.

Nothing in ``src/`` changes: :meth:`LayerTracer.uninstall` puts back
every attribute it replaced.  Tracing is single-threaded by design;
calls from other threads pass straight through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import threading
import types
from collections import defaultdict
from enum import EnumMeta
from time import perf_counter_ns

#: Modules whose layer is the module itself, not its package.
_MODULE_LAYERS = (
    "repro.sim.events",
    "repro.sim.transfer",
    "repro.cluster.system",
    "repro.cluster.master",
    "repro.cluster.datanode",
)

#: Every layer a trace reports, in report order.
LAYERS = (
    "core",
    "repair",
    "sim.transfer",
    "sim.events",
    "sim",
    "cluster.system",
    "cluster.master",
    "cluster.datanode",
    "cluster",
    "ec",
    "integrity",
    "obs",
    "recovery",
    "lifetime",
    "faults",
    "workloads",
    "analysis",
)

#: Layers whose entry calls count the bytes of their array arguments and
#: charge self time to the call that entered the layer.
_ENTRY_LAYERS = frozenset({"ec", "integrity"})

#: Modules never patched: entry points the workloads do not call, and
#: ``repro.net`` — bandwidth value types and unit helpers whose accessors
#: run in the planners' inner loops (a span each would cost more than the
#: call); their time stays with the caller.
_SKIP_MODULES = frozenset({"repro.cli", "repro.__main__", "repro.obs.demo"})
_SKIP_PACKAGES = ("repro.net",)

#: Dunder methods worth a span; other dunders are cheap protocol glue.
_DUNDERS = frozenset({"__init__", "__call__"})

#: Constructors whose instances a trace keeps, for state read after the run.
_CAPTURE = frozenset({"RecoveryOrchestrator.__init__", "EventQueue.__init__"})

#: Entry points whose ``on_done`` callback reports repair outcomes.
_OUTCOME_PROBES = frozenset(
    {"ClusterSystem.repair_async", "ClusterSystem.repair_multi_async"}
)

_CALIBRATION_CALLS = 20_000


def layer_of(module: str | None) -> str:
    """The layer a module belongs to (``other`` outside ``repro``)."""
    if not module or not module.startswith("repro."):
        return "other"
    for name in _MODULE_LAYERS:
        if module == name or module.startswith(name + "."):
            return name[len("repro."):]
    return module.split(".")[1]


def repro_modules() -> list[types.ModuleType]:
    """Import and return every ``repro`` module the tracer may patch."""
    import repro

    mods = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name in _SKIP_MODULES or info.name.startswith(_SKIP_PACKAGES):
            continue
        mods.append(importlib.import_module(info.name))
    return mods


def _array_bytes(args) -> int:
    total = 0
    for a in args:
        nbytes = getattr(a, "nbytes", None)
        if nbytes is not None:
            total += int(nbytes)
        elif isinstance(a, (bytes, bytearray, memoryview)):
            total += len(a)
        elif isinstance(a, (list, tuple)):
            total += sum(int(getattr(x, "nbytes", 0)) for x in a)
    return total


def _noop() -> None:
    return None


class LayerTracer:
    """Patch, trace and restore the ``repro`` package's entry points.

    Use as a context manager, or call :meth:`install` / :meth:`uninstall`.
    Spans are only recorded while :attr:`active` is true, so a caller can
    leave the patches in place and keep its own checks out of the trace.
    """

    def __init__(self) -> None:
        #: (owner, attribute name, original value) per replaced attribute
        self.patches: list[tuple[object, str, object]] = []
        self.active = False
        #: function or action key -> its layer
        self.layer_of_key: dict[str, str] = {}
        #: key -> [spans, inclusive ns, self ns, child spans opened]
        self.functions: dict[str, list[int]] = {}
        #: keys of wrapped scheduled actions (a subset of ``functions``)
        self.action_keys: set[str] = set()
        #: entry key -> [self ns, spans, child spans] of its layer below
        #: that entry call
        self.entries: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        #: layer -> bytes of array arguments handed in at layer entry
        self.layer_bytes: dict[str, int] = defaultdict(int)
        #: instances built by the constructors named in ``_CAPTURE``
        self.instances: list[object] = []
        #: repair outcomes seen by ``on_done`` callbacks
        self.outcomes: list[object] = []
        #: calibrated wrapper cost, ns per span: inside the span's own
        #: interval, and charged to the parent's self time
        self.span_ns = 0.0
        self.parent_ns = 0.0
        #: root frame: [start, child ns, child spans, entry, layer]
        self._root = [0, 0, 0, None, "other"]
        self._stack: list[list] = [self._root]
        self._main = threading.get_ident()
        self._action_memo: dict[object, tuple[str, str]] = {}

    # ---- wrappers ------------------------------------------------------ #

    def _stats(self, key: str, layer: str) -> list[int]:
        stats = self.functions.get(key)
        if stats is None:
            stats = self.functions[key] = [0, 0, 0, 0]
            self.layer_of_key[key] = layer
        return stats

    def _wrap(self, fn, layer: str, key: str):
        tracer = self
        stack = self._stack
        main = self._main
        get_ident = threading.get_ident
        stats = self._stats(key, layer)
        track_entry = layer in _ENTRY_LAYERS
        entries = self.entries
        layer_bytes = self.layer_bytes
        qualname = key.split(":", 1)[1]
        capture = qualname in _CAPTURE
        probe = qualname in _OUTCOME_PROBES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or get_ident() != main:
                return fn(*args, **kwargs)
            if capture:
                tracer.instances.append(args[0])
            if probe and "on_done" in kwargs:
                kwargs["on_done"] = tracer._outcome_probe(kwargs["on_done"])
            parent = stack[-1]
            parent[2] += 1
            entry = None
            if track_entry:
                if parent[4] == layer:
                    entry = parent[3]
                else:
                    entry = key
                    layer_bytes[layer] += _array_bytes(args)
            frame = [0, 0, 0, entry, layer]
            stack.append(frame)
            frame[0] = start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                own = duration - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                stats[3] += frame[2]
                stack[-1][1] += duration
                if entry is not None:
                    row = entries[entry]
                    row[0] += own
                    row[1] += 1
                    row[2] += frame[2]

        traced.__perfbench_traced__ = True
        return traced

    def _outcome_probe(self, callback):
        outcomes = self.outcomes

        def on_done(result):
            if isinstance(result, dict):
                outcomes.extend(result.values())
            else:
                outcomes.append(result)
            return callback(result)

        return on_done

    def _describe_action(self, action) -> tuple[str, str]:
        fn = action
        while isinstance(fn, functools.partial):
            fn = fn.func
        # a bound method of a patched class holds the shared wrapper code;
        # unwrap to the original so each action keeps its own key
        fn = inspect.unwrap(getattr(fn, "__func__", fn))
        memo_key = getattr(fn, "__code__", None) or type(fn)
        found = self._action_memo.get(memo_key)
        if found is None:
            module = getattr(fn, "__module__", None) or type(fn).__module__
            qual = getattr(fn, "__qualname__", None) or type(fn).__qualname__
            found = self._action_memo[memo_key] = (
                layer_of(module),
                f"{module}:{qual}",
            )
        return found

    def _wrap_action(self, action):
        layer, key = self._describe_action(action)
        self.action_keys.add(key)
        stats = self._stats(key, layer)
        stack = self._stack
        tracer = self

        def run_action():
            if not tracer.active:
                return action()
            stack[-1][2] += 1
            frame = [0, 0, 0, None, layer]
            stack.append(frame)
            frame[0] = start = perf_counter_ns()
            try:
                return action()
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                stats[3] += frame[2]
                stack[-1][1] += duration

        return run_action

    # ---- patching ------------------------------------------------------ #

    def install(self) -> "LayerTracer":
        if self.patches:
            raise RuntimeError("tracer already installed")
        self._calibrate()
        modules = repro_modules()
        holders: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for mod in modules:
            for name, value in vars(mod).items():
                if isinstance(value, types.FunctionType):
                    holders[id(value)].append((mod, name))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    self._patch_function(value, mod.__name__, holders)
                elif isinstance(value, type):
                    self._patch_class(value, mod.__name__)
        self._patch_schedule()
        return self

    def _patch_function(self, fn, module: str, holders) -> None:
        if not self._traceable(fn):
            return
        wrapped = self._wrap(fn, layer_of(module), f"{module}:{fn.__qualname__}")
        for owner, name in holders.get(id(fn), ()):
            if vars(owner).get(name) is fn:
                self.patches.append((owner, name, fn))
                setattr(owner, name, wrapped)

    def _patch_class(self, cls: type, module: str) -> None:
        if isinstance(cls, EnumMeta) or issubclass(cls, BaseException):
            return
        layer = layer_of(module)
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in _DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, kind = raw.__func__, type(raw)
            elif isinstance(raw, types.FunctionType):
                fn, kind = raw, None
            else:
                continue
            if not self._traceable(fn):
                continue
            if cls.__name__ == "EventQueue" and name == "schedule":
                continue  # wrapped with its actions by _patch_schedule
            wrapped = self._wrap(fn, layer, f"{module}:{fn.__qualname__}")
            self.patches.append((cls, name, raw))
            setattr(cls, name, kind(wrapped) if kind else wrapped)

    @staticmethod
    def _traceable(fn) -> bool:
        return not (
            inspect.isgeneratorfunction(fn)
            or inspect.iscoroutinefunction(fn)
            or getattr(fn, "__isabstractmethod__", False)
            or getattr(fn, "__perfbench_traced__", False)
        )

    def _patch_schedule(self) -> None:
        from repro.sim.events import EventQueue

        original = vars(EventQueue)["schedule"]
        tracer = self

        def schedule(queue, delay, action):
            if tracer.active:
                action = tracer._wrap_action(action)
            return original(queue, delay, action)

        schedule.__qualname__ = original.__qualname__
        traced = self._wrap(
            schedule, "sim.events", f"repro.sim.events:{original.__qualname__}"
        )
        self.patches.append((EventQueue, "schedule", original))
        EventQueue.schedule = traced

    def uninstall(self) -> None:
        self.active = False
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _calibrate(self) -> None:
        """Estimate the wrapper's cost per span on a no-op (best of 5)."""
        key = "perfbench:calibration"
        traced = self._wrap(_noop, "other", key)
        best = None
        for _ in range(5):
            stats = self.functions[key]
            stats[:] = [0, 0, 0, 0]
            t0 = perf_counter_ns()
            for _ in range(_CALIBRATION_CALLS):
                _noop()
            plain = perf_counter_ns() - t0
            self.active = True
            t0 = perf_counter_ns()
            for _ in range(_CALIBRATION_CALLS):
                traced()
            wrapped = perf_counter_ns() - t0
            self.active = False
            total = max(0.0, (wrapped - plain) / _CALIBRATION_CALLS)
            inside = stats[1] / _CALIBRATION_CALLS - plain / _CALIBRATION_CALLS
            inside = min(max(0.0, inside), total)
            if best is None or total < best[0]:
                best = (total, inside)
        self.span_ns = best[1]
        self.parent_ns = best[0] - best[1]
        del self.functions[key]
        del self.layer_of_key[key]
        self._root[:] = [0, 0, 0, None, "other"]

    # ---- results -------------------------------------------------------- #

    def layer_totals(self) -> dict[str, list[int]]:
        """layer -> [spans, raw self ns, child spans opened]."""
        out: dict[str, list[int]] = {layer: [0, 0, 0] for layer in LAYERS}
        for key, (spans, _incl, own, children) in self.functions.items():
            row = out.setdefault(self.layer_of_key[key], [0, 0, 0])
            row[0] += spans
            row[1] += own
            row[2] += children
        return out

    def rescale(self, overhead_s: float) -> None:
        """Scale the per-span cost so all spans together cost ``overhead_s``.

        The no-op calibration under-prices real calls (argument packing,
        cache misses), so a caller that timed the same work untraced
        passes the measured difference; the calibrated split between a
        span's own interval and its parent's is kept.
        """
        spans = sum(s[0] for s in self.functions.values())
        per_span = self.span_ns + self.parent_ns
        if spans <= 0 or per_span <= 0 or overhead_s <= 0:
            return
        factor = overhead_s * 1e9 / spans / per_span
        self.span_ns *= factor
        self.parent_ns *= factor

    def split(self, wall_s: float) -> dict[str, float]:
        """Self seconds per layer, plus ``other`` and ``tracing``.

        ``wall_s`` is the traced wall the caller measured around the
        traced region.  Each layer's raw self time loses the wrapper cost
        of its own spans and of the child spans it opened; ``other`` is
        the part of the wall outside every span, and ``tracing`` the
        rest, so the values add up to ``wall_s``.
        """
        out: dict[str, float] = {}
        raw_sum = 0
        for layer, (spans, own, children) in self.layer_totals().items():
            raw_sum += own
            out[layer] = self._net_s(own, spans, children)
        raw_other = wall_s - raw_sum / 1e9
        out["other"] = max(0.0, raw_other - self._root[2] * self.parent_ns / 1e9)
        out["tracing"] = wall_s - sum(out.values())
        return out

    def _net_s(self, own: int, spans: int, children: int) -> float:
        cost = spans * self.span_ns + children * self.parent_ns
        return max(0.0, own - cost) / 1e9

    def self_s(self, predicate) -> float:
        """Self seconds summed over keys that match ``predicate``."""
        return sum(
            self._net_s(s[2], s[0], s[3])
            for k, s in self.functions.items()
            if predicate(k)
        )

    def entry_self_s(self, predicate) -> float:
        """Self seconds of ``ec``/``integrity`` below entry calls whose
        key matches ``predicate``."""
        return sum(
            self._net_s(*row) for k, row in self.entries.items() if predicate(k)
        )

    def spans(self, predicate) -> int:
        """Spans summed over keys that match ``predicate``."""
        return sum(s[0] for k, s in self.functions.items() if predicate(k))
