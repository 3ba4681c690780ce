"""Ledger-side tracing: spans recorded around calls into each layer.

Nothing in ``src/`` is instrumented.  Every span here is taken from the
outside, around a public call:

* :class:`Recorder` keeps spans in memory (``name, start_ns, end_ns,
  parent``) and writes them out as JSON lines when the run is over;
* :class:`Timed` forwards to an object held in a *public* attribute
  (``env.action_space``, ``env.feature_extractor``, ...) and times the
  named methods;
* :class:`PhaseStepper` is an :class:`repro.engines.Engine` that replays
  ``CycleEngine``'s per-cycle decisions through the model's public phase
  methods, timing each phase.  It is registered under :data:`STEPPER`
  (``selectable=False``) so any code that builds a simulator from plain
  configuration — ``run_scenario``, ``ExperimentConfig`` — runs traced
  without a mirror of that code living here.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from repro.engines import CycleEngine, register_engine

STEPPER = "ledger-stepper"

_clock = time.perf_counter_ns


class Recorder:
    """In-memory span store with a stack of open spans (one per child run)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start_ns": _clock(),
                "end_ns": None,
                "parent": self._open[-1] if self._open else None,
            }
        )
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end_ns"] = _clock()
            self._open.pop()

    def add(self, name: str, start_ns: int, busy_ns: int) -> int:
        """A closed child of the open span: ``busy_ns`` of work laid out from
        ``start_ns``.  Used for per-cycle phase time aggregated per epoch, so
        only the duration of such a span is meaningful; returns its end."""
        end_ns = start_ns + busy_ns
        self.spans.append(
            {
                "name": name,
                "start_ns": start_ns,
                "end_ns": end_ns,
                "parent": self._open[-1] if self._open else None,
            }
        )
        return end_ns

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span_counts(self) -> dict[str, int]:
        return dict(Counter(span["name"] for span in self.spans))

    def durations_s(self, name: str) -> list[float]:
        return [
            (span["end_ns"] - span["start_ns"]) / 1e9
            for span in self.spans
            if span["name"] == name
        ]

    def busy_s(self) -> dict[str, float]:
        """Total duration per span name."""
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = (
                totals.get(span["name"], 0.0) + (span["end_ns"] - span["start_ns"]) / 1e9
            )
        return totals

    def nesting_errors(self) -> list[str]:
        """Children must lie inside their parent and not outlast it in sum."""
        errors = []
        child_total = [0] * len(self.spans)
        for index, span in enumerate(self.spans):
            parent = span["parent"]
            if parent is None:
                continue
            outer = self.spans[parent]
            if span["start_ns"] < outer["start_ns"] or span["end_ns"] > outer["end_ns"]:
                errors.append(f"span {index} ({span['name']}) leaves parent {outer['name']}")
            child_total[parent] += span["end_ns"] - span["start_ns"]
        for index, total in enumerate(child_total):
            span = self.spans[index]
            if total > span["end_ns"] - span["start_ns"]:
                errors.append(f"children of span {index} ({span['name']}) exceed it")
        return errors

    def write(self, path) -> None:
        """One JSON line per span, with self time (span minus its children)."""
        self_ns = [span["end_ns"] - span["start_ns"] for span in self.spans]
        for span in self.spans:
            if span["parent"] is not None:
                self_ns[span["parent"]] -= span["end_ns"] - span["start_ns"]
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                row = {
                    "id": index,
                    **span,
                    "self_ns": self_ns[index],
                    "workload": self.workload,
                    "repeat": 0,  # the traced pass is a single repeat
                }
                handle.write(json.dumps(row) + "\n")


def timed_call(call, recorder: Recorder, span_name: str):
    """``call`` wrapped in a span."""

    def timed(*args, **kwargs):
        with recorder.span(span_name):
            return call(*args, **kwargs)

    return timed


class Timed:
    """Forward to ``target``; calls to the methods in ``spans`` are timed."""

    def __init__(self, target, recorder: Recorder, spans: dict[str, str]) -> None:
        self._target = target
        for method, span_name in spans.items():
            setattr(self, method, timed_call(getattr(target, method), recorder, span_name))

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class PhaseStepper:
    """``CycleEngine``'s loop, replayed phase by phase under a clock.

    Uses public members only: ``traffic.generate`` / ``next_injection_cycle``,
    ``model.inject_packet``, the ``nonempty_sources`` / ``active_routers``
    sets, ``divider_table()`` and the four phase methods.  Cycles it
    classifies idle or DVFS-gated are advanced by a real ``CycleEngine``'s
    public ``run(n)`` (booked as ``engines.fastpath``); ``model.traffic`` is
    detached while this engine runs so that inner engine never draws traffic
    a second time.  Each hook-free ``run`` call — one epoch — emits one
    ``engines.run`` span whose children are the aggregated phase times.

    ``model.finish_epoch`` is called by the simulator facade, not by the
    engine, so it is timed by shadowing the bound method on this one model.
    """

    name = STEPPER

    def __init__(self, model, recorder: Recorder) -> None:
        if not (model.activity_tracking and model.idle_fast_path):
            raise ValueError("the phase stepper mirrors the default engine toggles only")
        self.model = model
        self._recorder = recorder
        self._inner = CycleEngine(model)
        model.finish_epoch = timed_call(model.finish_epoch, recorder, "noc.finish_epoch")

    @property
    def idle_cycles(self) -> int:
        return self.model.idle_cycles

    @property
    def skipped_router_steps(self) -> int:
        return self.model.skipped_router_steps

    def step(self) -> None:
        self._advance(self.model.cycle + 1)

    def run(self, cycles: int, *, on_cycle=None) -> None:
        model = self.model
        end = model.cycle + cycles
        if on_cycle is None:
            self._advance(end)
            return
        while model.cycle < end:
            on_cycle(model.cycle)
            self._advance(model.cycle + 1)

    def _advance(self, end: int) -> None:
        model = self.model
        recorder = self._recorder
        traffic = model.traffic
        next_injection_cycle = traffic.next_injection_cycle if traffic is not None else None
        clock = _clock
        fast_path = self._inner.run
        nonempty_sources = model.nonempty_sources
        active_routers = model.active_routers
        dividers = model.divider_table()
        generate_ns = inject_ns = step_ns = apply_ns = overheads_ns = fastpath_ns = 0
        generate_calls = packets_generated = stepped = movements_total = 0
        idle_before = model.idle_cycles
        skipped_before = model.skipped_router_steps
        with recorder.span("engines.run"):
            epoch_start = clock()
            model.traffic = None
            try:
                cycle = model.cycle
                while cycle < end:
                    t0 = clock()
                    if traffic is not None:
                        packets = traffic.generate(cycle)
                        t1 = clock()
                        generate_ns += t1 - t0
                        generate_calls += 1
                        t0 = t1
                        if packets:
                            for packet in packets:
                                model.inject_packet(packet)
                            t0 = clock()
                            inject_ns += t0 - t1
                            packets_generated += len(packets)
                    # From here t0 is the end of the previous phase: the
                    # idle/gated classification is booked with the fast path
                    # it selects, as in the engine it mirrors.
                    if not nonempty_sources and not active_routers:
                        span = 1
                        if end - cycle > 1:
                            if traffic is None:
                                span = end - cycle
                            else:
                                next_injection = next_injection_cycle(cycle + 1)
                                if next_injection is None:
                                    span = end - cycle
                                elif next_injection > cycle + 1:
                                    span = min(next_injection, end) - cycle
                        fast_path(span)
                        fastpath_ns += clock() - t0
                        cycle += span
                        continue
                    for divider in dividers:
                        if cycle % divider == 0:
                            break
                    else:
                        fast_path(1)
                        fastpath_ns += clock() - t0
                        cycle += 1
                        continue
                    model.inject_from_sources(cycle)
                    t1 = clock()
                    movements = model.step_routers(cycle)
                    t2 = clock()
                    model.apply_movements(movements, cycle)
                    t3 = clock()
                    model.record_cycle_overheads()
                    t4 = clock()
                    inject_ns += t1 - t0
                    step_ns += t2 - t1
                    apply_ns += t3 - t2
                    overheads_ns += t4 - t3
                    stepped += 1
                    movements_total += len(movements)
                    cycle += 1
                    model.cycle = cycle
            finally:
                model.traffic = traffic
            at = epoch_start
            for name, busy_ns in (
                ("traffic.generate", generate_ns),
                ("noc.inject", inject_ns),
                ("noc.step_routers", step_ns),
                ("noc.apply_movements", apply_ns),
                ("noc.overheads", overheads_ns),
                ("engines.fastpath", fastpath_ns),
            ):
                at = recorder.add(name, at, busy_ns)
        recorder.count("traffic.generate_calls", generate_calls)
        recorder.count("traffic.packets_generated", packets_generated)
        recorder.count("noc.cycles_stepped", stepped)
        recorder.count("noc.movements", movements_total)
        recorder.count("engines.idle_cycles", model.idle_cycles - idle_before)
        recorder.count(
            "engines.skipped_router_steps", model.skipped_router_steps - skipped_before
        )


def register_stepper(recorder: Recorder) -> str:
    """Register the phase stepper for ``recorder``; returns its engine name."""
    register_engine(
        STEPPER,
        lambda model: PhaseStepper(model, recorder),
        selectable=False,
        replace_existing=True,
    )
    return STEPPER
