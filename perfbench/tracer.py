"""Out-of-program tracing for the benchmark's per-layer ledger.

The benchmark never edits ``src/``: every span here is recorded by a
wrapper that :class:`Tracer` installs around a *public* function of one
layer (``Cache.touch_range``, ``Proxy.invoke``, ``Bus.transfer`` ...)
and removes again when the traced run ends.  Wrappers go in before the
world is built, so code that binds a method at construction binds the
wrapper.

A span records its name, wall start/end, simulated start/end, its
parent span and a trace id shared by every span one top-level call
caused.  Generator methods (the simulator's processes) are wrapped by a
generator that times each resume as its own span and passes ``send`` /
``throw`` / ``close`` through unchanged, so the simulated behaviour --
and the run's fingerprint -- stays identical.

Self time is a span's duration minus its children's.  The simulator's
hot loop is attributed through :class:`LedgerProfiler`, a
:class:`repro.sim.SimProfiler` that also records each event callback as
a span of its own, so callback time outside any wrapped span can be
charged to the layer owning the process (``switch-fwd`` -> net,
``server-ticks`` -> hostos) and the rest is "unattributed".  The ledger then reconciles:
layer self times + loop self time + unattributed == the traced run's
wall time.
"""

from __future__ import annotations

import gzip
import inspect
import json
import os
import re
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim import SimProfiler, Simulator

# Process-name suffixes collapse the same way SimProfiler collapses them.
_SUFFIX = re.compile(r"-\d+$")

# Event-callback categories whose time outside any wrapped span belongs
# to a layer (the process is that layer's own machinery).
CATEGORY_LAYERS: Tuple[Tuple[re.Pattern, str], ...] = (
    (re.compile(r"^switch-fwd$|-tx$"), "net"),
    (re.compile(r"-ticks$|-daemons$|-rx-bh$"), "hostos"),
    (re.compile(r"^subscriber-N$"), "tivopc.population"),
)


def category_layer(label: str) -> Optional[str]:
    """The layer owning an event category, or None (unattributed)."""
    for pattern, layer in CATEGORY_LAYERS:
        if pattern.search(label):
            return layer
    return None


class LedgerProfiler(SimProfiler):
    """A SimProfiler that also splits each callback into span / residual."""

    def __init__(self, sim: Simulator, tracer: "Tracer") -> None:
        super().__init__(sim)
        self.tracer = tracer

    def observe(self, event) -> None:
        self.tracer.callback(self._label(event), super().observe, event)

    def observe_cont(self, process) -> None:
        self.tracer.callback(_SUFFIX.sub("-N", process.name),
                             super().observe_cont, process)


class Tracer:
    """Span recorder plus the counters the ledger folds.

    ``counts`` holds per-layer work counts, ``samples`` per-call
    simulated durations (for percentiles), ``self_s`` per-layer self
    time (``callback:<category>`` for simulator callbacks), ``incl_s``
    per-layer time including children, and ``cb_events`` callbacks per
    event category.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_trace = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.top_wall = 0.0
        self.cb_events: Dict[str, int] = defaultdict(int)
        self.sim: Optional[Simulator] = None    # the newest simulator
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _sim_now(self) -> int:
        return self.sim.now if self.sim is not None else 0

    def open(self, trace: Optional[int] = None) -> None:
        """Open a span under the innermost open span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if trace is None:
            if parent is not None:
                trace = parent[1]
            else:
                trace = self._next_trace
                self._next_trace += 1
        stack.append([len(self.spans), trace, perf_counter(), 0.0,
                      self._sim_now(), parent[0] if parent else -1])
        self.spans.append(None)

    def close(self, name: str, layer: str) -> int:
        """Close the innermost span; returns its trace id."""
        index, trace, start, children, sim_start, parent = self._stack.pop()
        end = perf_counter()
        duration = end - start
        self.self_s[layer] += duration - children
        self.incl_s[layer] += duration
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.top_wall += duration
        self.spans[index] = (trace, parent, name, start, end, sim_start,
                             self._sim_now())
        return trace

    def reset_stack(self) -> None:
        """Forget open spans (a forked worker inherits its parent's)."""
        self._stack = []

    def callback(self, label: str, dispatch: Callable, arg) -> None:
        """Run one simulator callback as a span of its own.

        Its self time -- callback time no wrapped span covers -- is
        kept under ``callback:<label>`` for the ledger to charge to the
        layer owning the process.
        """
        self.cb_events[label] += 1
        self.open()
        try:
            dispatch(arg)
        finally:
            self.close(label, "callback:" + label)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str,
             on_call: Optional[Callable] = None,
             on_done: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Calls are counted under ``calls:<Owner.attr>``.
        ``on_call(tracer, args, kwargs)`` runs before the call;
        ``on_done(tracer, args, kwargs, result, sim_elapsed_ns)`` after
        it returns (for generators: after the last resume).  A property
        has its getter wrapped.
        """
        original = vars(owner)[attr]
        is_property = isinstance(original, property)
        function = original.fget if is_property else original
        name = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self
        count_key = f"calls:{name}"

        if inspect.isgeneratorfunction(function):
            def wrapper(*args, **kwargs):
                tracer.counts[count_key] += 1
                if on_call is not None:
                    on_call(tracer, args, kwargs)
                return tracer._traced_gen(function(*args, **kwargs), name,
                                          layer, args, kwargs, on_done)
        else:
            def wrapper(*args, **kwargs):
                tracer.counts[count_key] += 1
                if on_call is not None:
                    on_call(tracer, args, kwargs)
                sim_start = tracer._sim_now()
                tracer.open()
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.close(name, layer)
                if on_done is not None:
                    on_done(tracer, args, kwargs, result,
                            tracer._sim_now() - sim_start)
                return result

        wrapper.__wrapped__ = function
        wrapper.__name__ = function.__name__
        self._patches.append((owner, attr, original))
        setattr(owner, attr, property(wrapper) if is_property else wrapper)

    def _traced_gen(self, gen, name: str, layer: str, args, kwargs,
                    on_done):
        """Drive ``gen``, timing each resume as one span."""
        trace = None
        sim_start = self._sim_now()
        value, error = None, None
        while True:
            self.open(trace)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                self.close(name, layer)
                if on_done is not None:
                    on_done(self, args, kwargs, stop.value,
                            self._sim_now() - sim_start)
                return stop.value
            except BaseException:
                self.close(name, layer)
                raise
            trace = self.close(name, layer)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:      # noqa: BLE001 - re-thrown in
                value, error = None, exc

    def attach_simulators(self) -> None:
        """Give every simulator built from now on a LedgerProfiler."""
        tracer = self
        original = Simulator.__init__

        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            sim.attach_profiler(LedgerProfiler(sim, tracer))
            tracer.sim = sim

        self._patches.append((Simulator, "__init__", original))
        Simulator.__init__ = init

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- accounting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every accumulator, for deltas across a timed span."""
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "counts": dict(self.counts),
                "cb_events": dict(self.cb_events),
                "samples": {k: len(v) for k, v in self.samples.items()},
                "top_wall": self.top_wall}

    def delta(self, before: dict) -> dict:
        """Accumulators accrued since ``before`` (a :meth:`snapshot`)."""
        now = self.snapshot()
        out = {key: {k: v - before[key].get(k, 0)
                     for k, v in now[key].items()
                     if v != before[key].get(k, 0)}
               for key in ("self_s", "incl_s", "counts", "cb_events")}
        out["samples"] = {k: v[before["samples"].get(k, 0):]
                          for k, v in self.samples.items()}
        out["top_wall"] = now["top_wall"] - before["top_wall"]
        return out

    def write_spans(self, path: str) -> None:
        """Write the in-memory spans, gzipped, once the run is over."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8",
                       compresslevel=1) as handle:
            handle.write('{"fields": ["trace", "parent", "name", "wall_start",'
                         ' "wall_end", "sim_start", "sim_end"], "spans": [\n')
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                handle.write(("," if i else "") + json.dumps(span) + "\n")
            handle.write("]}\n")


def fold_ledger(delta: dict, run_s: float) -> Dict[str, float]:
    """Fold one timed span's accumulators into per-layer self times.

    Span self times go to their layer; callback self times go to the
    layer owning the event category, else to ``unattributed``; and
    ``sim.loop`` is the wall time outside every top-level span -- the
    engine's own loop.  Self times of a span tree sum to its roots'
    durations, so the ledger sums to ``run_s``; the caller checks it.
    """
    ledger: Dict[str, float] = defaultdict(float)
    for key, seconds in delta["self_s"].items():
        if key.startswith("callback:"):
            key = category_layer(key[len("callback:"):]) or "unattributed"
        ledger[key] += seconds
    ledger["sim.loop"] += run_s - delta["top_wall"]
    return dict(ledger)
