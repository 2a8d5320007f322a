"""Discrete-event simulation substrate.

Public surface:

* :class:`~repro.sim.engine.Simulator` — clock + event queue
* :class:`~repro.sim.engine.Clock` (``sim.clock``) — the blessed
  scheduling API — and its cancellable :class:`~repro.sim.engine.Timer`
* :class:`~repro.sim.engine.Event`, :class:`~repro.sim.engine.Process`,
  :class:`~repro.sim.engine.Timeout`, :class:`~repro.sim.engine.AnyOf`,
  :class:`~repro.sim.engine.AllOf`
* :class:`~repro.sim.resources.Store`, :class:`~repro.sim.resources.Resource`,
  :class:`~repro.sim.resources.Container`
* :class:`~repro.sim.rng.RandomStreams`
* :class:`~repro.sim.profile.SimProfiler` — hot-loop attribution
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Clock,
    Event,
    Process,
    Simulator,
    Timeout,
    Timer,
)
from repro.sim.profile import SimProfiler, profiled
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Clock",
    "Container",
    "Event",
    "Timer",
    "Process",
    "RandomStreams",
    "Resource",
    "SimProfiler",
    "Simulator",
    "Store",
    "Timeout",
    "profiled",
]
