"""repro — a reproduction of HYDRA (ASPLOS 2008).

"Tapping into the Fountain of CPUs — On Operating System Support for
Programmable Devices", Weinsberg, Dolev, Anker, Ben-Yehuda, Wyckoff.

The blessed public surface is :mod:`repro.api`: the names the examples
and docs read (``from repro.api import HydraRuntime, ...``); everything
else is imported from its subpackage.  This package root re-exports the
facade lazily, so ``repro.api`` and any of its names are also reachable
as attributes of :mod:`repro`, and every subpackage resolves on first
access, without forcing the whole framework to import for users who
only want a subpackage.

Packages:

* :mod:`repro.api` — the blessed public surface, re-exported here.
* :mod:`repro.sim` — discrete-event engine (from scratch).
* :mod:`repro.hw` — simulated hardware: CPUs, L2 cache, buses,
  programmable NIC / GPU / smart disk, power model.
* :mod:`repro.hostos` — simulated Linux-2.6-class kernel: ticks,
  scheduler latency, UDP sockets, NFS.
* :mod:`repro.net` — packets, links, gigabit switch, device-side ports.
* :mod:`repro.media` — synthetic MPEG streams and decode cost models.
* :mod:`repro.core` — the HYDRA framework itself: Offcodes, ODF
  manifests, channels and providers, the runtime, dynamic loaders, and
  the Section-5 ILP layout optimizer.
* :mod:`repro.tivopc` — the TiVoPC case study (servers, clients,
  testbed, metrics).
* :mod:`repro.rdma` / :mod:`repro.hw.spin` — one-sided RDMA verbs and
  sPIN NIC handlers, the substrates beyond the paper's providers.
* :mod:`repro.faults` / :mod:`repro.resilience` — fault injection, the
  chaos soak, live migration and the self-healing supervisor.
* :mod:`repro.telemetry` — causal spans and the metrics registry.
* :mod:`repro.virt` — the Section-8 VMM demultiplexing sketch.
* :mod:`repro.evaluation` — drivers and reporting for every table and
  figure in the paper's evaluation, the sweeps and the sharded fleet.
"""

__version__ = "1.2.0"


def __getattr__(name):
    """Lazily resolve subpackages and the facade's names (PEP 562).

    Eagerly importing the facade here would cycle (core modules import
    ``repro.units`` during their own import); the lazy hook gives
    ``repro.api`` — and ``from repro import HydraRuntime`` for any
    facade name — without that cost.
    """
    import importlib
    import importlib.util
    if name.startswith("_"):
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    # Submodules resolve directly — routing them through repro.api would
    # cycle while a subpackage (which imports e.g. repro.units) is
    # itself mid-import.
    if importlib.util.find_spec(f"repro.{name}") is not None:
        return importlib.import_module(f"repro.{name}")
    api = importlib.import_module("repro.api")
    if name in api.__all__:
        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
