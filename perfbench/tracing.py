"""The traced run: spans around calls into each layer's public functions.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces
public functions and methods of every layer with wrappers that record a
span per call; spans are aggregated in memory by ``(name, parent)`` —
call count and total seconds — and read out once the run ends.  A
layer's self time is the total of its spans minus the part their child
spans cover.

Pool workers of the service layer are forked after :func:`install`, so
they carry the wrappers too.  Each worker drains its spans into the
cell result it returns (``extras["bench_spans"]``); the parent's
``ResultStore.put`` wrapper takes them out again before the cell is
encoded and merges them, so cached bytes are the same traced or not.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager
from time import perf_counter

#: The layers (modules under ``src/repro/``) a span name can start with.
LAYERS = ("sim", "net", "clocks", "core", "baselines", "engine_vec",
          "faults", "topology", "analysis", "harness", "service")

#: Protocols whose ``System.run`` counts as the ``core`` layer; the
#: rest are the ``baselines``.
CORE_PROTOCOLS = ("ftgcs", "lynch_welch")


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[str] = []
        self.spans: dict[tuple, list] = {}
        self.counts: dict[str, float] = {}
        self.paused = False


class Tracer:
    """In-memory span and counter aggregation, one table per thread."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def adopt_child(self) -> None:
        """Forget the parent's spans in a freshly forked worker."""
        if os.getpid() != self.owner:
            self.owner = os.getpid()
            self._lock = threading.Lock()
            self._local = threading.local()
            self._states = []

    def count(self, name: str, value: float = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + value

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` with a span per call.

        ``name`` is a span name or a function of the call's arguments.
        A call nested directly in a span of the same name (recursion)
        is not a span of its own.  ``before(args)`` runs before the
        call; ``after(args, result, before_value)`` after it, outside
        the span, to record counters.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.paused:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            stack = state.stack
            parent = stack[-1] if stack else None
            if parent == span:
                return fn(*args, **kwargs)
            context = before(args) if before is not None else None
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                _record(state.spans, span, parent, elapsed)
            if after is not None:
                after(args, result, context)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        state = self._state()
        if state.paused:
            yield
            return
        stack = state.stack
        parent = stack[-1] if stack else None
        stack.append(name)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            _record(state.spans, name, parent, elapsed)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording spans."""
        state = self._state()
        previous, state.paused = state.paused, True
        try:
            yield
        finally:
            state.paused = previous

    def drain(self) -> dict:
        """Every thread's spans and counters, merged; tables cleared."""
        spans: dict[tuple, list] = {}
        counts: dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            table, state.spans = state.spans, {}
            tally, state.counts = state.counts, {}
            _merge_into(spans, counts, {"spans": table, "counts": tally})
        return {"spans": spans, "counts": counts}

    def merge(self, data: dict) -> None:
        state = self._state()
        _merge_into(state.spans, state.counts, data)


def _record(spans: dict, name: str, parent, elapsed: float) -> None:
    entry = spans.get((name, parent))
    if entry is None:
        spans[(name, parent)] = [1, elapsed]
    else:
        entry[0] += 1
        entry[1] += elapsed


def _merge_into(spans: dict, counts: dict, data: dict) -> None:
    for key, (calls, total) in data["spans"].items():
        entry = spans.get(key)
        if entry is None:
            spans[key] = [calls, total]
        else:
            entry[0] += calls
            entry[1] += total
    for key, value in data["counts"].items():
        counts[key] = counts.get(key, 0) + value


# ----------------------------------------------------------------------
# The cell runner used by both the serial sweep and the service pool
# ----------------------------------------------------------------------

# Module-level so that pool workers can unpickle the runner by name.
_REAL_RUN_CELL = None
_TRACER: Tracer | None = None
_MAIN_PID = os.getpid()


def bench_run_cell(spec):
    """``run_cell`` plus the cell's wall time in
    ``extras["bench_cell_s"]`` (build, run and collect) and, in a
    traced pool worker, the worker's spans in ``extras["bench_spans"]``.
    """
    tracer = _TRACER
    worker = tracer is not None and os.getpid() != _MAIN_PID
    if worker:
        tracer.adopt_child()
    start = perf_counter()
    if tracer is None:
        cell = _REAL_RUN_CELL(spec)
    else:
        with tracer.span("harness.cell"):
            cell = _REAL_RUN_CELL(spec)
    cell.extras["bench_cell_s"] = perf_counter() - start
    if worker:
        cell.extras["bench_spans"] = tracer.drain()
    return cell


def install_cell_runner() -> None:
    """Route the sweep engine's and the job manager's cell execution
    through :func:`bench_run_cell`."""
    global _REAL_RUN_CELL
    from repro.harness import sweep
    from repro.service import jobs
    if _REAL_RUN_CELL is None:
        _REAL_RUN_CELL = sweep.run_cell
    sweep.run_cell = bench_run_cell
    jobs.run_cell = bench_run_cell


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------

def _patch(owner, attr: str, tracer: Tracer, name, before=None,
           after=None) -> None:
    original = owner.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = tracer.wrap(original.__func__, name, before, after)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, tracer.wrap(original, name, before, after))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; call once per process,
    before any service pool is forked."""
    global _TRACER, _MAIN_PID
    _TRACER = tracer
    _MAIN_PID = os.getpid()
    count = tracer.count

    # harness
    from repro.harness.sweep import SweepRunner
    _patch(SweepRunner, "run", tracer, "harness.sweep")

    # topology
    from repro.harness import scenario as scenario_module
    from repro.harness import sweep as sweep_module
    from repro.topology import schedule as schedule_module
    from repro.topology.cluster_graph import ClusterGraph
    for attr, value in list(vars(ClusterGraph).items()):
        if isinstance(value, classmethod):
            _patch(ClusterGraph, attr, tracer, "topology.graph_build")
    _patch(ClusterGraph, "augment", tracer, "topology.graph_build")
    build_schedule = tracer.wrap(schedule_module.build_schedule,
                                 "topology.schedule_build")
    for module in (schedule_module, sweep_module, scenario_module):
        module.build_schedule = build_schedule
    for cls in set(schedule_module.SCHEDULES.values()):
        if "events" in vars(cls):
            _patch(cls, "events", tracer, "topology.schedule_build")
        if "node_events" in vars(cls):
            _patch(cls, "node_events", tracer, "topology.schedule_build",
                   after=lambda a, r, c: count("topology.node_events",
                                               len(r)))

    # core / baselines
    from repro.core.max_estimate import MaxEstimate
    from repro.core.node import FtgcsNode
    from repro.core.protocol import System, SystemBuilder
    _patch(SystemBuilder, "build", tracer, "core.build")

    def run_span(args):
        system = args[0]
        return ("core.run" if system.protocol.name in CORE_PROTOCOLS
                else "baselines.run")

    def after_system_run(args, result, _):
        network = args[0].protocol.network
        count("net.messages_sent", network.messages_sent)
        count("net.messages_delivered", network.messages_delivered)
        count("net.messages_lost", network.dropped_loss)
        count("net.dropped_link_down", network.dropped_link_down)
        count("faults.adversary_actions",
              (result.adversary or {}).get("rounds_acted", 0))

    _patch(System, "run", tracer, run_span, after=after_system_run)
    _patch(FtgcsNode, "on_message", tracer, "core.on_message")
    _patch(MaxEstimate, "on_pulse", tracer, "core.max_pulse",
           after=lambda a, r, c: count("core.max_pulses"))

    # sim
    from repro.sim.kernel import Simulator

    def after_sim_run(args, result, before_events):
        count("sim.events", args[0].events_processed - before_events)

    for attr in ("run", "run_until_idle"):
        _patch(Simulator, attr, tracer, "sim.run",
               before=lambda a: a[0].events_processed,
               after=after_sim_run)

    # net
    from repro.net.network import Network
    for attr in ("send", "send_with_delay", "broadcast"):
        _patch(Network, attr, tracer, "net.send")

    # clocks: rate and value updates, reads, and the alarm paths.
    # ``AlarmManager._on_fire`` is left out: it runs the alarm
    # callbacks, which are the caller's (mostly core) work.
    from repro.clocks.alarms import AlarmManager
    from repro.clocks.base import IntegratingClock
    from repro.clocks.hardware import HardwareClock
    from repro.clocks.logical import LogicalClock, ScaledClock
    _patch(LogicalClock, "set_delta", tracer, "clocks.update",
           after=lambda a, r, c: count("clocks.rate_changes"))
    _patch(LogicalClock, "set_gamma", tracer, "clocks.update")
    _patch(HardwareClock, "_apply_change", tracer, "clocks.update")
    for cls in (LogicalClock, ScaledClock):
        _patch(cls, "jump_to", tracer, "clocks.update",
               after=lambda a, r, c: count("clocks.jumps"))
    for attr in ("value", "time_of_value"):
        _patch(IntegratingClock, attr, tracer, "clocks.read")
    for attr in ("at_value", "cancel_alarm"):
        _patch(IntegratingClock, attr, tracer, "clocks.alarm")
    _patch(AlarmManager, "reschedule", tracer, "clocks.alarm")

    # engine_vec
    from repro.engine_vec import engine as engine_module

    def after_vec_run(args, result, _):
        detail = result.detail
        count("engine_vec.rounds", detail["rounds"])
        count("engine_vec.node_rounds", detail["rounds"] * detail["nodes"])
        count("faults.adversary_actions",
              (result.adversary or {}).get("rounds_acted", 0))

    engine_module.build_vec_system = tracer.wrap(
        engine_module.build_vec_system, "engine_vec.build")
    _patch(engine_module.VecSystem, "run", tracer, "engine_vec.run",
           after=after_vec_run)

    # faults
    from repro.faults.adversary import ADVERSARIES, AdversaryModel
    for cls in {AdversaryModel, *ADVERSARIES.values()}:
        for attr in ("act", "act_pairs"):
            if attr in vars(cls):
                _patch(cls, attr, tracer, "faults.act")

    # analysis
    from repro.analysis.sampling import SkewSampler
    for attr in ("_sample_tick", "sample_now"):
        _patch(SkewSampler, attr, tracer, "analysis.sample",
               after=lambda a, r, c: count("analysis.samples"))

    # service (the codec lives in repro.harness.serialize; its calls
    # are the service's encode/decode work)
    from repro.harness import serialize
    from repro.service.store import ResultStore
    serialize.encode = tracer.wrap(serialize.encode, "service.encode")
    serialize.decode = tracer.wrap(serialize.decode, "service.decode")

    def entry_bytes(store, spec) -> int:
        from repro.harness.sweep import spec_hash
        with tracer.paused():
            return os.path.getsize(store.path_for(spec_hash(spec)))

    def after_get(args, result, _):
        if result is not None:
            count("service.bytes_read", entry_bytes(args[0], args[1]))

    def before_put(args):
        spans = args[2].extras.pop("bench_spans", None)
        if spans is not None:
            tracer.merge(spans)

    _patch(ResultStore, "get", tracer, "service.store_get", after=after_get)
    _patch(ResultStore, "put", tracer, "service.store_put",
           before=before_put,
           after=lambda a, r, c: count("service.bytes_written",
                                       os.path.getsize(r)))


# ----------------------------------------------------------------------
# Per-layer metrics and the no-change predictions
# ----------------------------------------------------------------------

#: Per-layer time metric -> the span whose inclusive seconds it reports
#: (``layer_metrics`` adds each layer's ``self_s``).
SPAN_METRICS = {
    "harness.sweep_s": "harness.sweep",
    "topology.graph_build_s": "topology.graph_build",
    "topology.schedule_build_s": "topology.schedule_build",
    "core.build_s": "core.build",
    "core.run_s": "core.run",
    "core.max_pulse_s": "core.max_pulse",
    "baselines.run_s": "baselines.run",
    "sim.run_s": "sim.run",
    "net.send_s": "net.send",
    "engine_vec.build_s": "engine_vec.build",
    "engine_vec.run_s": "engine_vec.run",
    "faults.adversary_s": "faults.act",
    "analysis.sample_s": "analysis.sample",
    "service.store_get_s": "service.store_get",
    "service.decode_s": "service.decode",
    "service.store_put_s": "service.store_put",
    "service.encode_s": "service.encode",
}
COUNT_METRICS = (
    "topology.node_events", "core.max_pulses", "sim.events",
    "net.messages_sent", "net.messages_lost", "net.dropped_link_down",
    "clocks.rate_changes", "clocks.jumps", "engine_vec.rounds",
    "engine_vec.node_rounds", "faults.adversary_actions",
    "analysis.samples", "service.bytes_read", "service.bytes_written",
)


def span_totals(data: dict) -> tuple[dict, dict]:
    """(inclusive seconds, self seconds) per span name."""
    inclusive: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, parent), (_, total) in data["spans"].items():
        inclusive[name] = inclusive.get(name, 0.0) + total
        own[name] = own.get(name, 0.0) + total
        if parent is not None:
            own[parent] = own.get(parent, 0.0) - total
    return inclusive, own


def span_lines(data: dict, passes: int) -> list[str]:
    """The aggregated span table, one ``(name, parent)`` per line, per
    pass, heaviest first."""
    rows = sorted(data["spans"].items(), key=lambda item: -item[1][1])
    return [f"{name:24s} <- {parent or '-':24s} {calls / passes:12.1f} "
            f"calls {total / passes:10.4f} s"
            for (name, parent), (calls, total) in rows]


def layer_metrics(data: dict, passes: int) -> dict[str, float]:
    """Per-pass span and counter metrics plus each layer's self time."""
    inclusive, own = span_totals(data)
    counts = data["counts"]
    metrics = {metric: inclusive.get(span, 0.0) / passes
               for metric, span in SPAN_METRICS.items()}
    # The clock layer has several span names that nest in one another;
    # its time is that of the clock spans not inside another one.
    metrics["clocks.s"] = sum(
        total for (name, parent), (_, total) in data["spans"].items()
        if name.startswith("clocks.")
        and not (parent or "").startswith("clocks.")) / passes
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0) / passes
    sent = counts.get("net.messages_sent", 0)
    metrics["net.delivered_ratio"] = (
        counts.get("net.messages_delivered", 0) / sent if sent else 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            seconds for name, seconds in own.items()
            if name.split(".", 1)[0] == layer) / passes
    return metrics


#: What each workload must and must not reach.  ``("metric", "==", 0)``
#: is a no-change prediction: the layer is bypassed, so a change there
#: cannot move this workload.  The ``>`` rows guard that a workload
#: still reaches the layer it is meant to load.
PREDICTIONS = {
    "event_ftgcs": [
        ("engine_vec.*", "==", 0), ("service.*", "==", 0),
        ("sim.events", ">", 0), ("core.max_pulses", ">", 0),
        ("clocks.rate_changes", ">", 0), ("net.messages_sent", ">", 0),
        ("harness.cells_errored", "==", 0),
        ("harness.cells_mismatched", "==", 0),
        ("analysis.bound_violations", "==", 0),
    ],
    "vec_scale": [
        ("sim.*", "==", 0), ("net.*", "==", 0), ("clocks.*", "==", 0),
        ("core.max_pulse*", "==", 0), ("service.*", "==", 0),
        ("engine_vec.node_rounds", ">", 0),
        ("faults.adversary_actions", ">", 0),
        ("harness.cells_errored", "==", 0),
        ("harness.cells_mismatched", "==", 0),
        ("analysis.bound_violations", "==", 0),
    ],
    "service_faulted": [
        ("engine_vec.*", "==", 0),
        ("service.hit_ratio_cold", "==", 0),
        ("service.hit_ratio_warm", "==", 1),
        ("net.messages_lost", ">", 0), ("topology.node_events", ">", 0),
        ("service.bytes_written", ">", 0), ("service.bytes_read", ">", 0),
        ("harness.cells_errored", "==", 0),
        ("harness.cells_mismatched", "==", 0),
    ],
}


def check_predictions(workload: str, metrics: dict) -> list[str]:
    """The predictions that do not hold (empty when all do)."""
    broken = []
    for pattern, op, value in PREDICTIONS[workload]:
        if pattern.endswith("*"):
            names = [name for name in metrics
                     if name.startswith(pattern[:-1])]
        else:
            names = [pattern]
        for name in names:
            got = metrics[name]
            ok = got == value if op == "==" else got > value
            if not ok:
                broken.append(f"{name} = {got!r}, predicted {op} {value}")
    return broken
