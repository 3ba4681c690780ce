"""The user-facing simulator facade: one model, one engine.

:class:`NoCSimulator` couples a passive :class:`~repro.noc.model.NoCModel`
(topology, routers, links, power, statistics, reconfiguration surface) with
an execution engine from the :mod:`repro.engines` registry (selected by
``SimulatorConfig.engine``: the reference ``cycle`` loop by default, or the
calendar-queue ``event`` engine).  Every engine produces byte-identical
telemetry, so which one runs is purely a performance choice.

The facade preserves the historical ``NoCSimulator`` API: construction,
``step``/``run``/``run_epoch``/``drain``, packet ingress, the DVFS /
routing / VC / fault reconfiguration surface, and the engine toggles
(``activity_tracking``, ``idle_fast_path``) and observability counters
(``idle_cycles``, ``skipped_router_steps``).  Code that needs the layers
directly should use ``simulator.model`` and ``simulator.engine``; a private
attribute is not forwarded through the facade (``AttributeError``).

``SimulatorConfig`` and the ``TrafficSource`` protocol now live in
:mod:`repro.noc.model` and are re-exported here unchanged.
"""

from __future__ import annotations

from typing import Callable

from repro.noc.model import NoCModel, SimulatorConfig, TrafficSource
from repro.noc.packet import Packet
from repro.noc.stats import EpochTelemetry

__all__ = ["NoCModel", "NoCSimulator", "SimulatorConfig", "TrafficSource"]

#: Mutable state the facade transparently forwards to the model, so the
#: historical ``simulator.attr = value`` spellings keep working.
_MODEL_FIELDS = frozenset(
    {
        "traffic",
        "cycle",
        "activity_tracking",
        "idle_fast_path",
        "idle_cycles",
        "skipped_router_steps",
    }
)


class NoCSimulator:
    """Flit-accurate simulator of a mesh/torus NoC (model + engine facade)."""

    def __init__(self, config: SimulatorConfig, traffic: TrafficSource | None = None) -> None:
        # Imported lazily: repro.engines imports the model module, so a
        # module-level import here would be circular.
        from repro.engines import build_engine

        self.model = NoCModel(config, traffic)
        self.engine = build_engine(config.engine, self.model)

    # ------------------------------------------------------------------
    # engine selection
    # ------------------------------------------------------------------

    def set_engine(self, name: str) -> None:
        """Swap the execution engine mid-run (telemetry is engine-agnostic)."""
        from repro.engines import build_engine

        self.engine = build_engine(name, self.model)

    @property
    def engine_name(self) -> str:
        return self.engine.name

    # ------------------------------------------------------------------
    # simulation loop (delegated to the engine)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        self.engine.step()

    def run(self, cycles: int, *, on_cycle: Callable[[int], None] | None = None) -> None:
        """Advance ``cycles`` cycles; ``on_cycle`` runs before each one.

        The hook receives the cycle number about to be simulated and may
        reconfigure the simulator (DVFS, routing, fault injection) — this is
        how scripted scenarios apply mid-epoch events.  With a hook attached
        every engine steps strictly cycle by cycle (span batching would skip
        hook invocations).
        """
        self.engine.run(cycles, on_cycle=on_cycle)

    def run_epoch(
        self, cycles: int, *, on_cycle: Callable[[int], None] | None = None
    ) -> EpochTelemetry:
        """Run ``cycles`` cycles and return the telemetry observed over them."""
        if cycles <= 0:
            raise ValueError("an epoch must span at least one cycle")
        model = self.model
        stats_before = model.stats.snapshot()
        energy_before = model.power.snapshot()
        self.engine.run(cycles, on_cycle=on_cycle)
        return model.finish_epoch(cycles, stats_before, energy_before)

    def drain(self, max_cycles: int = 10_000) -> int:
        """Run without new traffic until all queued/in-flight flits deliver.

        Returns the number of cycles it took; draining an already-empty
        network is O(1) (the emptiness check reads the activity sets).
        Raises ``RuntimeError`` — including the remaining backlog, for
        debuggability — if the network fails to drain within ``max_cycles``
        (e.g. a failed link has trapped packets).
        """
        model = self.model
        saved_traffic = model.traffic
        model.traffic = None
        try:
            for elapsed in range(max_cycles + 1):
                if self._fully_drained():
                    return elapsed
                self.engine.step()
        finally:
            model.traffic = saved_traffic
        raise RuntimeError(
            f"network failed to drain within {max_cycles} cycles "
            f"(source_queue_backlog={model.source_queue_backlog}, "
            f"buffered_flits={model.buffered_flits})"
        )

    def _fully_drained(self) -> bool:
        return self.model.network_empty()

    def _network_empty(self) -> bool:
        return self.model.network_empty()

    # ------------------------------------------------------------------
    # model surface (delegated)
    # ------------------------------------------------------------------

    def inject_packet(self, packet: Packet) -> None:
        self.model.inject_packet(packet)

    def set_global_dvfs_level(self, level_index: int) -> None:
        self.model.set_global_dvfs_level(level_index)

    def set_dvfs_level(self, node: int, level_index: int) -> None:
        self.model.set_dvfs_level(node, level_index)

    def set_routing_algorithm(self, name: str) -> None:
        self.model.set_routing_algorithm(name)

    def set_enabled_vcs(self, count: int) -> None:
        self.model.set_enabled_vcs(count)

    def fail_link(self, src: int, dst: int) -> None:
        self.model.fail_link(src, dst)

    def repair_link(self, src: int, dst: int) -> None:
        self.model.repair_link(src, dst)

    @property
    def config(self) -> SimulatorConfig:
        return self.model.config

    @property
    def topology(self):
        return self.model.topology

    @property
    def routers(self):
        return self.model.routers

    @property
    def links(self):
        return self.model.links

    @property
    def stats(self):
        return self.model.stats

    @property
    def power(self):
        return self.model.power

    @property
    def dvfs_level_index(self) -> int:
        return self.model.dvfs_level_index

    @property
    def dvfs_levels(self):
        return self.model.dvfs_levels

    @property
    def routing_name(self) -> str:
        return self.model.routing_name

    @property
    def enabled_vcs(self) -> int:
        return self.model.enabled_vcs

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        return self.model.failed_links

    @property
    def source_queue_backlog(self) -> int:
        return self.model.source_queue_backlog

    @property
    def buffered_flits(self) -> int:
        return self.model.buffered_flits

    # ------------------------------------------------------------------
    # transparent forwarding (mutable toggles + counters)
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails: forward public names to the
        # model so the pre-split surface (toggles, counters) keeps working.
        if name in ("model", "engine"):  # guard partially-initialised instances
            raise AttributeError(name)
        if name.startswith("_") and not name.startswith("__"):
            raise AttributeError(
                f"NoCSimulator does not forward private attribute {name!r}; "
                "use NoCSimulator.model (state/phases) or NoCSimulator.engine "
                "(execution loop) directly"
            )
        return getattr(self.model, name)

    def __setattr__(self, name: str, value) -> None:
        if name in _MODEL_FIELDS:
            setattr(self.model, name, value)
            return
        object.__setattr__(self, name, value)
