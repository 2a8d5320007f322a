#!/usr/bin/env python
"""Section 8's future work, built: advanced storage services.

"Programmable disks will provide an opportunity to run I/O-intensive
computations efficiently by running them closer to the data.  Potential
applications include content indexing and searching, virus scanning,
storage backup..."

This example implements a virus-scanning Offcode and runs the same scan
two ways over a 64 MB volume on a Smart Disk:

* **host scan** — every block is DMA'd across the I/O bus into host
  memory and scanned by the host CPU (streaming through the L2);
* **offloaded scan** — the Scanner Offcode is deployed *onto the disk
  controller*; blocks never leave the device, and the host does nothing.

Media access dominates, so both scans take similar wall-clock time —
but the host scan additionally moves the whole volume across the bus,
pollutes the L2 and burns host CPU, all of which the offloaded scan
never spends: "the proximity between the computational task and the
data on which it operates" is the whole trick.

Run:  python examples/smart_storage.py
"""

from repro.api import (
    DeploymentSpec,
    DeviceClass,
    DeviceClassFilter,
    DeviceSite,
    HOST_MEMORY,
    HydraRuntime,
    InterfaceSpec,
    Machine,
    MethodSpec,
    OdfDocument,
    Offcode,
    Simulator,
    units,
)

BLOCK = 4096
BLOCKS = 16 * 1024          # 64 MB volume
SCAN_NS_PER_BYTE = 0.8      # signature matching cost at 1 GHz-equivalent

ISCANNER = InterfaceSpec.from_methods(
    "IScanner",
    (MethodSpec("ScanVolume", params=(("blocks", "int"),), result="int"),))


class ScannerOffcode(Offcode):
    """Signature-scans blocks; placement decides who moves the data."""

    BINDNAME = "storage.Scanner"
    INTERFACES = (ISCANNER,)

    def ScanVolume(self, blocks):
        site = self.site
        on_disk = (isinstance(site, DeviceSite)
                   and site.device.device_class == DeviceClass.STORAGE)
        infected = 0
        for index in range(blocks):
            if on_disk:
                # Proximity: the block is already device-local.
                yield from site.device.read_block(index, BLOCK)
            else:
                # Host placement: the block crosses the I/O bus first
                # and is then walked through the host cache.
                disk = site.machine.device("disk0")
                yield from disk.read_block(index, BLOCK)
                yield from disk.bus.transfer("disk0", HOST_MEMORY, BLOCK)
                site.machine.l2.touch_range(0x4000_0000 + index * BLOCK
                                            % (1 << 22), BLOCK)
            yield from site.execute(round(BLOCK * SCAN_NS_PER_BYTE),
                                    context="virus-scan")
            if index % 4099 == 0:      # a synthetic "signature hit"
                infected += 1
        return infected


def build_world():
    sim = Simulator()
    machine = Machine(sim)
    disk = machine.add_disk()
    runtime = HydraRuntime(machine)
    odf = OdfDocument(
        bindname="storage.Scanner",
        guid=ScannerOffcode(runtime.host_site).guid,
        interfaces=[ISCANNER],
        targets=[DeviceClassFilter(DeviceClass.STORAGE),
                 DeviceClassFilter(DeviceClass.HOST)],
        image_bytes=32 * 1024)
    runtime.library.register("/offcodes/scanner.odf", odf)
    runtime.depot.register(odf.guid, ScannerOffcode)
    return sim, machine, disk, runtime


def run_scan(force_host: bool):
    sim, machine, disk, runtime = build_world()
    if force_host:
        # Pretend the disk is full: veto the storage target so the
        # resolver's host fallback kicks in.
        runtime.resolver.build_graph = _host_only(runtime)
    out = {}

    def application():
        result = yield from runtime.deploy(
            DeploymentSpec(odf_paths=("/offcodes/scanner.odf",)))
        out["location"] = result.location
        started = sim.now
        out["infected"] = yield from result.proxy.ScanVolume(BLOCKS)
        out["elapsed_ms"] = (sim.now - started) / units.MS

    sim.run_until_event(sim.spawn(application()))
    out["host_cpu_ms"] = machine.cpu.total_busy / units.MS
    out["disk_cpu_ms"] = disk.cpu.total_busy / units.MS
    out["bus_to_host_mb"] = (machine.bus.crossings.get(
        ("disk0", HOST_MEMORY), 0) * BLOCK) / (1 << 20)
    return out


def _host_only(runtime):
    original = runtime.resolver.build_graph

    def patched(documents, force_host_option=False, pinned=None,
                exclude=None, banned=None):
        graph = original(documents, force_host_option=True, pinned=pinned,
                         exclude=exclude, banned=banned)
        for node in graph.nodes.values():
            node.compat = (True,) + (False,) * (graph.num_devices - 1)
        return graph

    return patched


def main():
    host = run_scan(force_host=True)
    offloaded = run_scan(force_host=False)
    print(f"{'':14s}{'placement':>10s}{'elapsed':>12s}"
          f"{'host CPU':>12s}{'disk CPU':>12s}{'bus->host':>12s}")
    for label, result in (("host scan", host), ("offloaded", offloaded)):
        print(f"{label:14s}{result['location']:>10s}"
              f"{result['elapsed_ms']:>10.0f}ms"
              f"{result['host_cpu_ms']:>10.0f}ms"
              f"{result['disk_cpu_ms']:>10.0f}ms"
              f"{result['bus_to_host_mb']:>10.1f}MB")
    assert host["infected"] == offloaded["infected"]
    assert offloaded["host_cpu_ms"] < host["host_cpu_ms"] / 100
    # Only the proxy's tiny result reply crosses back; not the data.
    assert offloaded["bus_to_host_mb"] < 0.01
    print("same verdict, zero host involvement when offloaded — "
          "smart storage demo OK")


if __name__ == "__main__":
    main()
