"""The deployment pipeline (Figure 5's control flow).

``CreateOffcode`` kicks off five phases:

1. **Parse** — load the ODF and, transitively, everything it imports.
2. **Resolve** — build the offloading layout graph and solve it
   (:mod:`repro.core.layout.resolver`), pinning Offcodes that earlier
   deployments already placed (component reuse, Section 5).
3. **Adapt** — compile source-form Offcodes for their targets; derive
   binary images for object-form ones.
4. **Load** — run each device's loader (host-linked or device-linked),
   instantiate the implementation from the Depot at its site, give it an
   OOB channel, and record everything in the resource tree so a failing
   parent tears its children down.
5. **Start** — two-phase bring-up: ``Initialize`` everywhere first
   ("peer Offcodes may not have been offloaded yet"), then
   ``StartOffcode`` everywhere ("at this point, inter-Offcode
   communication is facilitated").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import DeploymentError
from repro.core.channel import ChannelConfig
from repro.core.layout.objectives import Objective
from repro.core.layout.resolver import ResolvedLayout
from repro.core.loader import LoadReport, OffcodeImage, compile_for_target
from repro.core.odf import OdfDocument
from repro.core.offcode import Offcode
from repro.sim.engine import Event
from repro.telemetry.spans import emit as trace_emit

__all__ = ["DeploymentReport", "DeploymentPipeline", "OOB_CHANNEL_CONFIG"]

# "The runtime assigns a default connectionless channel, called the
# Out-Of-Band Channel ... for initialization and control traffic that is
# not performance critical" — low priority, copying semantics.
OOB_CHANNEL_CONFIG = (ChannelConfig.unicast().reliable().sequential()
                      .copied().with_ring_slots(32).with_priority(0))


@dataclass
class DeploymentReport:
    """Everything one ``CreateOffcode`` deployment produced."""

    root_bindname: str
    layout: ResolvedLayout
    offcodes: Dict[str, Offcode] = field(default_factory=dict)
    reused: List[str] = field(default_factory=list)
    load_reports: List[LoadReport] = field(default_factory=list)
    elapsed_ns: int = 0
    roots: List[str] = field(default_factory=list)

    @property
    def root_offcode(self) -> Offcode:
        """The root application Offcode this deployment created."""
        return self.offcodes[self.root_bindname]

    def location_of(self, bindname: str) -> str:
        """Where the layout placed ``bindname`` (device name or 'host')."""
        return self.layout.device_of(bindname)


class DeploymentPipeline:
    """Executes Figure 5 for a :class:`HydraRuntime`."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def deploy(self, odf_paths: Sequence[str],
               objective: Optional[Objective] = None
               ) -> Generator[Event, None, DeploymentReport]:
        """Run Figure 5 for the ODFs' import closures under ONE layout
        solve.

        Section 5's motivation: "in multi-user environments, reusing the
        same Offcode in several applications may substantially
        complicate the offloading layout design."  Deploying apps one at
        a time pins shared Offcodes wherever the first app put them;
        solving the union closure jointly lets the ILP satisfy every
        app's constraints at once.  With one path the union is just that
        path's closure.
        """
        documents: List[OdfDocument] = []
        roots: List[str] = []
        seen = set()
        for path in odf_paths:
            closure = self.runtime.library.load_closure(path)
            roots.append(closure[0].bindname)
            for document in closure:
                if document.bindname not in seen:
                    seen.add(document.bindname)
                    documents.append(document)
        return (yield from self._deploy(documents, roots=roots,
                                        objective=objective))

    def _deploy(self, documents: List[OdfDocument], roots: List[str],
                objective: Optional[Objective],
                pinned_extra: Optional[Dict[str, str]] = None,
                allow: Optional[set] = None,
                banned: Optional[Dict[str, tuple]] = None
                ) -> Generator[Event, None, DeploymentReport]:
        runtime = self.runtime
        sim = runtime.sim
        start_ns = sim.now

        # Phase 2: resolve the layout, respecting existing placements.
        # Devices the watchdog has declared dead are excluded from the
        # candidate set; a non-empty exclusion also marks the solve as
        # degraded (recovery may drop mandatory co-location constraints).
        # Standby and quarantined devices are excluded too, but only
        # failures and quarantines make the solve *degraded* — a healthy
        # spare sitting idle must not change baseline solver behaviour.
        # ``allow`` re-admits named devices for this solve (migration
        # pinning onto a standby spare); ``banned`` forbids specific
        # bindname→device pairings (migration away from a live source);
        # ``pinned_extra`` pins bindnames that have no current placement
        # (the victim was torn down just before the re-solve).
        failed = set(getattr(runtime, "failed_devices", None) or ())
        quarantined = set(getattr(runtime, "quarantined_devices", None) or ())
        standby = set(getattr(runtime, "standby_devices", None) or ())
        degraded_set = failed | quarantined
        exclude = sorted((degraded_set | standby) - (allow or set()))
        # A pin on an excluded device would make every layout infeasible.
        # That happens during overlapping recoveries: incident #2's solve
        # sees survivors of incident #1 still registered on a device that
        # just died.  Those instances are about to be torn down by their
        # own incident, so drop the pin and let the solver relocate them.
        excluded_devices = set(exclude)
        pinned = {
            d.bindname: runtime.locate(d.bindname).location
            for d in documents if runtime.locate(d.bindname) is not None
        }
        pinned = {bindname: location for bindname, location in pinned.items()
                  if location not in excluded_devices}
        if pinned_extra:
            for bindname, location in pinned_extra.items():
                if location not in excluded_devices:
                    pinned.setdefault(bindname, location)
        layout = runtime.resolver.resolve(documents, objective=objective,
                                          pinned=pinned, exclude=exclude,
                                          degraded=bool(degraded_set),
                                          banned=banned)
        # A re-solve can move Offcodes between sites, so every memoized
        # provider ranking is suspect: retire the executive's cost cache
        # by advancing the layout epoch.
        runtime.executive.invalidate_cost_cache()

        report = DeploymentReport(root_bindname=roots[0], layout=layout,
                                  roots=list(roots))

        trace_emit(sim, "deploy",
                   f"layout resolved for {', '.join(roots)}",
                   placement=tuple(sorted(layout.placement.items())))

        # Phases 3+4 per Offcode: adapt, load, instantiate, wire OOB.
        new_offcodes: List[Offcode] = []
        for document in documents:
            existing = runtime.locate(document.bindname)
            if existing is not None:
                report.offcodes[document.bindname] = existing
                report.reused.append(document.bindname)
                continue
            offcode = yield from self._place_one(document, layout, report)
            report.offcodes[document.bindname] = offcode
            new_offcodes.append(offcode)

        # Phase 5: two-phase bring-up.
        for offcode in new_offcodes:
            yield from offcode.initialize()
        for offcode in new_offcodes:
            yield from offcode.start()

        report.elapsed_ns = sim.now - start_ns
        trace_emit(sim, "deploy",
                   f"deployment of {', '.join(roots)} complete",
                   new=len(new_offcodes), reused=len(report.reused),
                   elapsed_us=report.elapsed_ns // 1000)
        return report

    # -- single-offcode placement ----------------------------------------------------

    def _place_one(self, document: OdfDocument, layout: ResolvedLayout,
                   report: DeploymentReport
                   ) -> Generator[Event, None, Offcode]:
        runtime = self.runtime
        location = layout.device_of(document.bindname)

        loaded_region = None
        loaded_device = None
        if location == "host":
            site = runtime.host_site
            device_class = "host"
            vendor = None
        else:
            device_runtime = runtime.device_runtime(location)
            site = device_runtime.site
            device_class = device_runtime.device.device_class
            vendor = device_runtime.device.spec.vendor
            # Adapt: compile if source form, then dynamic-load the image.
            image: OffcodeImage = yield from compile_for_target(
                document, runtime.host_site)
            loader = runtime.loaders.loader_for(location)
            try:
                load_report = yield from loader.load(
                    image, device_runtime.device, runtime.host_site)
            except Exception as exc:
                raise DeploymentError(
                    f"loading {document.bindname} onto {location} "
                    f"failed mid-deployment: {exc}") from exc
            report.load_reports.append(load_report)
            loaded_region = load_report.region
            loaded_device = device_runtime.device

        entry = runtime.depot.lookup(document.guid, device_class,
                                     vendor=vendor)
        try:
            offcode = entry.implementation(site)
        except Exception as exc:
            raise DeploymentError(
                f"instantiating {document.bindname} at {location} "
                f"failed: {exc}") from exc
        if not isinstance(offcode, Offcode):
            raise DeploymentError(
                f"depot factory for {document.bindname} returned "
                f"{type(offcode).__name__}, not an Offcode")
        offcode.guid = document.guid

        runtime.register_offcode(offcode, document)
        if location != "host":
            runtime.device_runtime(location).host_offcode(offcode)

        # Give the Offcode its OOB channel (runtime side is the creator).
        oob = runtime.executive.create_channel(OOB_CHANNEL_CONFIG,
                                               runtime.host_site)
        oob_endpoint = runtime.executive.connect_offcode(oob, offcode)
        offcode.oob_channel = oob
        # Management events (channel availability etc.) arrive here.
        oob_endpoint.install_call_handler(
            lambda message: offcode.on_management_event(message.payload))

        # Hierarchical resources (Section 4): the Offcode's node owns its
        # loaded image and its channels; releasing the parent — stop or
        # failure — frees them all, children first.
        node = runtime.resources.lookup(document.bindname)
        if loaded_region is not None:
            device, region = loaded_device, loaded_region
            runtime.resources.track(
                f"{document.bindname}/image", kind="device-memory",
                parent=node,
                finalizer=lambda: device.memory.free(region))
        runtime.resources.track(
            f"{document.bindname}/oob", kind="channel", parent=node,
            finalizer=oob.close)
        return offcode
