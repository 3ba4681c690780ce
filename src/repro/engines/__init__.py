"""Pluggable simulation engines for the NoC model.

An engine decides *when* the passive :class:`~repro.noc.model.NoCModel`
executes its cycle phases; the model owns every piece of state.  All
engines are telemetry-equivalent — statistics, energy floats and the
``idle_cycles`` counter are byte-identical whichever one runs — so the
``engine`` knob on :class:`~repro.noc.model.SimulatorConfig` (and the
``--engine`` CLI flag) is purely a performance choice:

* ``cycle`` — :class:`CycleEngine`, the reference cycle-driven loop with
  activity tracking, DVFS-gated-cycle skip and idle-span batching;
* ``event`` — :class:`EventEngine`, a calendar queue over injection and
  pipeline events (rebuilt against the current divider table whenever a
  DVFS retune can have happened) that additionally leaps gated spans
  while flits are parked (the large-mesh scaling path);
* ``flow`` — :class:`FlowEngine`, the *approximate* flow-level
  fast-forward engine: max-min fair rate allocations advanced in single
  leaps between traffic/DVFS/fault discontinuities
  (``EngineInfo(approximate=True)`` — telemetry is synthesized, compare
  with ``suite diff --approx``, never byte parity).

New engines register through :func:`register_engine`, declare capabilities
via :class:`EngineInfo`, and become available everywhere a name is
accepted.
"""

from repro.engines.base import (
    DEFAULT_ENGINE,
    Engine,
    EngineInfo,
    build_engine,
    engine_info,
    engine_infos,
    engine_names,
    get_engine_factory,
    register_engine,
    selectable_engine_names,
    validate_engine_name,
)
from repro.engines.cycle import CycleEngine
from repro.engines.event import EventEngine
from repro.engines.flow import FlowEngine

register_engine("cycle", CycleEngine)
register_engine("event", EventEngine)
register_engine("flow", FlowEngine, approximate=True)

__all__ = [
    "CycleEngine",
    "DEFAULT_ENGINE",
    "Engine",
    "EngineInfo",
    "EventEngine",
    "FlowEngine",
    "build_engine",
    "engine_info",
    "engine_infos",
    "engine_names",
    "get_engine_factory",
    "register_engine",
    "selectable_engine_names",
    "validate_engine_name",
]
