"""The engine protocol and registry.

An *engine* owns simulated time for one :class:`~repro.noc.model.NoCModel`:
it decides which cycles execute the model's phases and which collapse into
batched spans, while the model owns every piece of state.  All engines obey
one telemetry contract — whatever the scheduling strategy, the model's
statistics, energy floats and activity counters must end up byte-identical
to the reference cycle engine's (the property suite enforces this).

Engines are registered by name (``register_engine``) so configuration can
select one as plain data: ``SimulatorConfig(engine="event")`` flows through
scenario specs, suite units and the CLI's ``--engine`` flag without any
caller importing a concrete engine class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.noc.model import NoCModel


@runtime_checkable
class Engine(Protocol):
    """What every simulation engine must provide.

    ``run``/``step`` advance the attached model's clock; the telemetry
    contract is that after any sequence of calls the model's ``stats``,
    ``power`` and ``idle_cycles`` match the reference cycle engine bit for
    bit (``skipped_router_steps`` is engine observability and only needs to
    be monotone and honest).
    """

    #: Registry name of the engine ("cycle", "event", ...).
    name: str
    #: The model this engine advances.
    model: "NoCModel"

    def run(self, cycles: int, *, on_cycle: Callable[[int], None] | None = None) -> None:
        """Advance ``cycles`` cycles; ``on_cycle`` runs before each one.

        The hook receives the cycle number about to be simulated and may
        reconfigure the model (DVFS, routing, fault injection); with a hook
        attached every engine steps strictly cycle by cycle (span batching
        would skip hook invocations).
        """
        ...  # pragma: no cover - protocol definition

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class EngineInfo:
    """Capability metadata the registry keeps alongside each factory.

    ``selectable``
        The engine is a sensible choice for a *single* simulation and is
        offered by ``--engine``.  Internal engines (an instrumented stepper,
        say) register with ``selectable=False``: they stay reachable as
        explicit configuration (``SimulatorConfig(engine=...)``) but are
        never offered.
    ``approximate``
        The engine trades the byte-identical telemetry contract for speed:
        its statistics are synthesized from an analytical model rather than
        simulated per flit.  Approximate engines must never be compared to
        exact ones with byte parity — use ``suite diff --approx`` (or
        explicit ``--tolerance FIELD=EPS`` bounds) instead.
    """

    name: str
    selectable: bool = True
    approximate: bool = False


_REGISTRY: dict[str, Callable[["NoCModel"], Engine]] = {}
_INFO: dict[str, EngineInfo] = {}


def register_engine(
    name: str,
    factory: Callable[["NoCModel"], Engine],
    *,
    selectable: bool = True,
    approximate: bool = False,
    replace_existing: bool = False,
) -> None:
    """Add an engine factory (usually the class itself) under ``name``."""
    if not name:
        raise ValueError("engines need a non-empty name")
    if name in _REGISTRY and not replace_existing:
        raise ValueError(f"engine {name!r} is already registered")
    _REGISTRY[name] = factory
    _INFO[name] = EngineInfo(
        name=name,
        selectable=selectable,
        approximate=approximate,
    )


def engine_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def engine_info(name: str) -> EngineInfo:
    """Capability metadata for the engine registered under ``name``."""
    validate_engine_name(name)
    return _INFO[name]


def engine_infos() -> tuple[EngineInfo, ...]:
    """Metadata for every registered engine, sorted by name."""
    return tuple(_INFO[name] for name in engine_names())


def validate_engine_name(name: str) -> str:
    """Return ``name`` if registered, raise ``ValueError`` otherwise."""
    if name not in _REGISTRY:
        known = ", ".join(engine_names())
        raise ValueError(f"unknown engine {name!r}; known: {known}")
    return name


def get_engine_factory(name: str) -> Callable[["NoCModel"], Engine]:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise KeyError(f"unknown engine {name!r}; known: {known}") from None


def build_engine(name: str, model: "NoCModel") -> Engine:
    """Instantiate the engine registered under ``name`` for ``model``."""
    return get_engine_factory(name)(model)


DEFAULT_ENGINE = "cycle"


def selectable_engine_names() -> tuple[str, ...]:
    """Engine names an ``--engine`` flag accepts: the registry's selectable ones."""
    return tuple(info.name for info in engine_infos() if info.selectable)
