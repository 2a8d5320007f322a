"""Golden per-provider cost table: every provider's data path, pinned.

Each case builds a fresh :class:`Simulator`, opens one channel over a
single provider and moves data three ways: one ``transfer(size)``
(``single``, plus ``single0`` for a zero-byte message), one
``transfer_vectored(batch)`` on scatter-gather hardware (``batch``),
and the same batch on a device without the ``scatter-gather`` feature
(``fallback``, the per-entry loop).  The table pins what each path
charges: the simulated clock, bus transactions, scatter-gather
counters, host and device CPU busy time, host L2 accesses, and the
RDMA verb counters.

The values in ``GOLDEN`` were captured on the commit before the
providers' single-message and vectored paths were folded into one body
per direction, before any source edit, so the table is the exactness
oracle for that refactor: a vectored batch must cost exactly what it
did when it had its own copy of each protocol.
"""

import pytest

from repro.core.call import CallBatch
from repro.core.channel import ChannelConfig
from repro.core.executive import ChannelExecutive
from repro.core.memory import MemoryManager
from repro.core.providers import (DmaChannelProvider, LoopbackProvider,
                                  PeerDmaProvider)
from repro.core.sites import DeviceSite, HostSite
from repro.hostos.kernel import Kernel
from repro.hw import BusSpec, Machine, MachineSpec
from repro.hw.device import DeviceClass, DeviceSpec
from repro.rdma.provider import RDMA_FEATURE, RdmaProvider
from repro.sim import Simulator
from repro.sim.rng import RandomStreams

SINGLE_BYTES = 1500
BATCH_SIZES = (188, 512, 1, 4000)


def _plain_device(name, *features):
    """A generic device advertising exactly ``features``."""
    return DeviceSpec(name=name, device_class=DeviceClass.NETWORK,
                      features=frozenset(features))


def _world(provider_kind, options, sg):
    """Build (sim, machine, provider, config, src_site, dst_sites)."""
    sim = Simulator()
    legacy = "legacy" in options
    machine = Machine(sim, MachineSpec(bus=BusSpec.pci_legacy()) if legacy
                      else None)
    kernel = (Kernel(machine, RandomStreams(0)) if "kernel" in options
              else None)
    memory = MemoryManager(machine)
    config = ChannelConfig.unicast()
    if "copy" in options:
        config = config.copied()
    host = HostSite(machine)
    if provider_kind == "loopback":
        provider = LoopbackProvider(machine)
        if "device" in options:
            site = DeviceSite(machine.add_gpu())
            return sim, machine, provider, config, site, [site]
        return sim, machine, provider, config, host, [host]
    if provider_kind == "dma":
        features = ("dma-master", "scatter-gather") if sg else ("dma-master",)
        device = machine.add_device(_plain_device("dev0", *features))
        provider = DmaChannelProvider(machine, device, memory, kernel=kernel)
        site = DeviceSite(device)
        if "h2d" in options:
            return sim, machine, provider, config, host, [site]
        return sim, machine, provider, config, site, [host]
    if provider_kind == "rdma":
        features = ((RDMA_FEATURE, "scatter-gather") if sg
                    else (RDMA_FEATURE,))
        device = machine.add_device(_plain_device("rnic0", *features))
        provider = RdmaProvider(machine, device, memory, kernel=kernel)
        site = DeviceSite(device)
        if "h2d" in options:
            return sim, machine, provider, config, host, [site]
        return sim, machine, provider, config, site, [host]
    assert provider_kind == "peer", provider_kind
    features = ["dma-master"]
    if sg:
        features.append("scatter-gather")
    if "multicast-hw" in options:
        features.append("multicast-hw")
    source = machine.add_device(_plain_device("src0", *features))
    peers = [machine.add_gpu()]
    if "multicast" in options:
        peers.append(machine.add_disk())
        config = ChannelConfig.multicast()
    provider = PeerDmaProvider(machine)
    return (sim, machine, provider, config, DeviceSite(source),
            [DeviceSite(peer) for peer in peers])


def measure(provider_kind, options, mode):
    """Run one case and return its pinned cost row (see ``GOLDEN``)."""
    sg = mode != "fallback"
    sim, machine, provider, config, src, dsts = _world(
        provider_kind, options, sg)
    executive = ChannelExecutive()
    executive.register_provider(provider)
    channel = executive.create_channel(config, src)
    for site in dsts:
        executive.connect_site(channel, site)
    source = channel.creator_endpoint
    destinations = channel.endpoints[1:]
    if mode in ("single", "single0"):
        size = SINGLE_BYTES if mode == "single" else 0
        body = provider.transfer(channel, source, destinations, size)
    else:
        batch = CallBatch()
        for index, size in enumerate(BATCH_SIZES):
            batch.add(("entry", index), size, now_ns=0)
        body = provider.transfer_vectored(channel, source, destinations,
                                          batch)
    sim.run_until_event(sim.spawn(body))
    bus = machine.bus
    rdma = None
    if provider_kind == "rdma":
        stats = provider.stats
        rdma = (stats.posted, stats.completed, stats.failed, stats.writes,
                stats.doorbells, stats.bytes_written)
    return (sim.now, bus.total_crossings(), bus.sg_transfers, bus.sg_entries,
            machine.cpu.total_busy,
            {name: device.cpu.total_busy
             for name, device in sorted(machine.devices.items())},
            machine.l2.stats.accesses, rdma)

CASES = [
    ("loopback", ("direct",), ("single", "single0", "batch")),
    ("loopback", ("copy",), ("single", "single0", "batch")),
    ("loopback", ("copy", "device"), ("single", "single0", "batch")),
    ("dma", ("h2d", "direct"), ("single", "single0", "batch", "fallback")),
    ("dma", ("h2d", "copy"), ("single", "single0", "batch", "fallback")),
    ("dma", ("h2d", "copy", "kernel"), ("single", "batch", "fallback")),
    ("dma", ("d2h", "direct"), ("single", "single0", "batch", "fallback")),
    ("dma", ("d2h", "direct", "kernel"), ("single", "batch", "fallback")),
    ("dma", ("d2h", "copy"), ("single", "single0", "batch", "fallback")),
    ("dma", ("d2h", "copy", "kernel"), ("single", "batch", "fallback")),
    ("peer", ("unicast",), ("single", "single0", "batch", "fallback")),
    ("peer", ("multicast", "multicast-hw"),
     ("single", "single0", "batch", "fallback")),
    ("peer", ("multicast", "multicast-hw", "legacy"),
     ("single", "batch", "fallback")),
    ("peer", ("multicast",), ("single", "single0", "batch", "fallback")),
    ("rdma", ("h2d", "direct"), ("single", "single0", "batch", "fallback")),
    ("rdma", ("h2d", "copy"), ("single", "batch", "fallback")),
    ("rdma", ("h2d", "copy", "kernel"), ("single", "batch", "fallback")),
    ("rdma", ("d2h", "direct"), ("single", "single0", "batch", "fallback")),
    ("rdma", ("d2h", "copy"), ("single", "batch", "fallback")),
    ("rdma", ("d2h", "copy", "kernel"), ("single", "batch", "fallback")),
]


def _case_id(kind, options, mode):
    return "-".join((kind,) + tuple(options) + (mode,))


ALL_CASES = [(kind, options, mode)
             for kind, options, modes in CASES for mode in modes]


# Row fields, in order: sim.now, bus crossings, bus sg_transfers, bus
# sg_entries, host CPU busy ns, {device: CPU busy ns}, host L2 accesses,
# RDMA (posted, completed, failed, writes, doorbells, bytes_written) or
# None.  Regenerate with ``python tests/test_provider_cost_golden.py``
# only when a cost model change is intended.
GOLDEN = {
    'loopback-direct-single': (300, 0, 0, 0, 300, {}, 0, None),
    'loopback-direct-single0': (300, 0, 0, 0, 300, {}, 0, None),
    'loopback-direct-batch': (780, 0, 0, 0, 780, {}, 0, None),
    'loopback-copy-single': (1350, 0, 0, 0, 1350, {}, 48, None),
    'loopback-copy-single0': (1, 0, 0, 0, 1, {}, 0, None),
    'loopback-copy-batch': (4768, 0, 0, 0, 4768, {}, 150, None),
    'loopback-copy-device-single': (1350, 0, 0, 0, 0, {'gpu0': 1350}, 0, None),
    'loopback-copy-device-single0': (1, 0, 0, 0, 0, {'gpu0': 1}, 0, None),
    'loopback-copy-device-batch': (4768, 0, 0, 0, 0, {'gpu0': 4768}, 0, None),
    'dma-h2d-direct-single': (3700, 1, 0, 0, 1100, {'dev0': 900}, 0, None),
    'dma-h2d-direct-single0': (2201, 1, 0, 0, 1100, {'dev0': 900}, 0, None),
    'dma-h2d-direct-batch': (7981, 1, 1, 4, 1700, {'dev0': 1380}, 0, None),
    'dma-h2d-direct-fallback': (13501, 4, 0, 0, 4400, {'dev0': 3600}, 0, None),
    'dma-h2d-copy-single': (4450, 1, 0, 0, 1850, {'dev0': 900}, 0, None),
    'dma-h2d-copy-single0': (1602, 1, 0, 0, 501, {'dev0': 900}, 0, None),
    'dma-h2d-copy-batch': (11069, 1, 1, 4, 4788, {'dev0': 1380}, 0, None),
    'dma-h2d-copy-fallback': (15332, 4, 0, 0, 6231, {'dev0': 3600}, 0, None),
    'dma-h2d-copy-kernel-single': (4450, 1, 0, 0, 1850, {'dev0': 900}, 48, None),
    'dma-h2d-copy-kernel-batch': (11069, 1, 1, 4, 4788, {'dev0': 1380}, 150, None),
    'dma-h2d-copy-kernel-fallback': (15332, 4, 0, 0, 6231, {'dev0': 3600}, 154, None),
    'dma-d2h-direct-single': (2600, 1, 0, 0, 0, {'dev0': 900}, 0, None),
    'dma-d2h-direct-single0': (1101, 1, 0, 0, 0, {'dev0': 900}, 0, None),
    'dma-d2h-direct-batch': (5801, 1, 1, 4, 0, {'dev0': 900}, 0, None),
    'dma-d2h-direct-fallback': (9101, 4, 0, 0, 0, {'dev0': 3600}, 0, None),
    'dma-d2h-direct-kernel-single': (9600, 1, 0, 0, 7000, {'dev0': 900}, 6, None),
    'dma-d2h-direct-kernel-batch': (12801, 1, 1, 4, 7000, {'dev0': 900}, 6, None),
    'dma-d2h-direct-kernel-fallback': (37101, 4, 0, 0, 28000, {'dev0': 3600}, 24, None),
    'dma-d2h-copy-single': (3950, 1, 0, 0, 1350, {'dev0': 900}, 0, None),
    'dma-d2h-copy-single0': (1102, 1, 0, 0, 1, {'dev0': 900}, 0, None),
    'dma-d2h-copy-batch': (10089, 1, 1, 4, 4288, {'dev0': 900}, 0, None),
    'dma-d2h-copy-fallback': (13332, 4, 0, 0, 4231, {'dev0': 3600}, 0, None),
    'dma-d2h-copy-kernel-single': (10950, 1, 0, 0, 8350, {'dev0': 900}, 54, None),
    'dma-d2h-copy-kernel-batch': (17089, 1, 1, 4, 11288, {'dev0': 900}, 156, None),
    'dma-d2h-copy-kernel-fallback': (41332, 4, 0, 0, 32231, {'dev0': 3600}, 178, None),
    'peer-unicast-single': (3500, 1, 0, 0, 0, {'gpu0': 900, 'src0': 900}, 0, None),
    'peer-unicast-single0': (2001, 1, 0, 0, 0, {'gpu0': 900, 'src0': 900}, 0, None),
    'peer-unicast-batch': (7181, 1, 1, 4, 0, {'gpu0': 1380, 'src0': 900}, 0, None),
    'peer-unicast-fallback': (12701, 4, 0, 0, 0, {'gpu0': 3600, 'src0': 3600}, 0, None),
    'peer-multicast-multicast-hw-single': (4400, 2, 0, 0, 0, {'disk0': 900, 'gpu0': 900, 'src0': 900}, 0, None),
    'peer-multicast-multicast-hw-single0': (2901, 2, 0, 0, 0, {'disk0': 900, 'gpu0': 900, 'src0': 900}, 0, None),
    'peer-multicast-multicast-hw-batch': (8625, 2, 1, 4, 0, {'disk0': 1380, 'gpu0': 1380, 'src0': 900}, 0, None),
    'peer-multicast-multicast-hw-fallback': (16301, 8, 0, 0, 0, {'disk0': 3600, 'gpu0': 3600, 'src0': 3600}, 0, None),
    'peer-multicast-multicast-hw-legacy-single': (49812, 4, 0, 0, 0, {'disk0': 900, 'gpu0': 900, 'src0': 900}, 0, None),
    'peer-multicast-multicast-hw-legacy-batch': (148968, 4, 4, 4, 0, {'disk0': 1380, 'gpu0': 1380, 'src0': 900}, 0, None),
    'peer-multicast-multicast-hw-legacy-fallback': (160188, 16, 0, 0, 0, {'disk0': 3600, 'gpu0': 3600, 'src0': 3600}, 0, None),
    'peer-multicast-single': (6100, 2, 0, 0, 0, {'disk0': 900, 'gpu0': 900, 'src0': 900}, 0, None),
    'peer-multicast-single0': (3102, 2, 0, 0, 0, {'disk0': 900, 'gpu0': 900, 'src0': 900}, 0, None),
    'peer-multicast-batch': (13462, 2, 2, 8, 0, {'disk0': 1380, 'gpu0': 1380, 'src0': 900}, 0, None),
    'peer-multicast-fallback': (21802, 8, 0, 0, 0, {'disk0': 3600, 'gpu0': 3600, 'src0': 3600}, 0, None),
    'rdma-h2d-direct-single': (2620, 1, 0, 0, 400, {'rnic0': 520}, 0, (1, 1, 0, 1, 1, 1500)),
    'rdma-h2d-direct-single0': (1121, 1, 0, 0, 400, {'rnic0': 520}, 0, (1, 1, 0, 1, 1, 1)),
    'rdma-h2d-direct-batch': (7471, 1, 1, 4, 850, {'rnic0': 1720}, 0, (4, 4, 0, 4, 1, 4765)),
    'rdma-h2d-direct-fallback': (9181, 4, 0, 0, 1600, {'rnic0': 2080}, 0, (4, 4, 0, 4, 4, 4701)),
    'rdma-h2d-copy-single': (3970, 1, 0, 0, 1750, {'rnic0': 520}, 0, (1, 1, 0, 1, 1, 1500)),
    'rdma-h2d-copy-batch': (11759, 1, 1, 4, 5138, {'rnic0': 1720}, 0, (4, 4, 0, 4, 1, 4765)),
    'rdma-h2d-copy-fallback': (13412, 4, 0, 0, 5831, {'rnic0': 2080}, 0, (4, 4, 0, 4, 4, 4701)),
    'rdma-h2d-copy-kernel-single': (3970, 1, 0, 0, 1750, {'rnic0': 520}, 48, (1, 1, 0, 1, 1, 1500)),
    'rdma-h2d-copy-kernel-batch': (11759, 1, 1, 4, 5138, {'rnic0': 1720}, 150, (4, 4, 0, 4, 1, 4765)),
    'rdma-h2d-copy-kernel-fallback': (13412, 4, 0, 0, 5831, {'rnic0': 2080}, 154, (4, 4, 0, 4, 4, 4701)),
    'rdma-d2h-direct-single': (2620, 1, 0, 0, 120, {'rnic0': 800}, 0, (1, 1, 0, 1, 1, 1500)),
    'rdma-d2h-direct-single0': (1121, 1, 0, 0, 120, {'rnic0': 800}, 0, (1, 1, 0, 1, 1, 1)),
    'rdma-d2h-direct-batch': (7471, 1, 1, 4, 120, {'rnic0': 2450}, 0, (4, 4, 0, 4, 1, 4765)),
    'rdma-d2h-direct-fallback': (9181, 4, 0, 0, 480, {'rnic0': 3200}, 0, (4, 4, 0, 4, 4, 4701)),
    'rdma-d2h-copy-single': (3970, 1, 0, 0, 1470, {'rnic0': 800}, 0, (1, 1, 0, 1, 1, 1500)),
    'rdma-d2h-copy-batch': (11759, 1, 1, 4, 4408, {'rnic0': 2450}, 0, (4, 4, 0, 4, 1, 4765)),
    'rdma-d2h-copy-fallback': (13412, 4, 0, 0, 4711, {'rnic0': 3200}, 0, (4, 4, 0, 4, 4, 4701)),
    'rdma-d2h-copy-kernel-single': (3970, 1, 0, 0, 1470, {'rnic0': 800}, 48, (1, 1, 0, 1, 1, 1500)),
    'rdma-d2h-copy-kernel-batch': (11759, 1, 1, 4, 4408, {'rnic0': 2450}, 150, (4, 4, 0, 4, 1, 4765)),
    'rdma-d2h-copy-kernel-fallback': (13412, 4, 0, 0, 4711, {'rnic0': 3200}, 154, (4, 4, 0, 4, 4, 4701)),
}


@pytest.mark.parametrize(
    "kind,options,mode", ALL_CASES,
    ids=[_case_id(*case) for case in ALL_CASES])
def test_provider_cost_matches_golden(kind, options, mode):
    assert measure(kind, options, mode) == GOLDEN[
        _case_id(kind, options, mode)]


def test_golden_table_covers_every_case():
    assert sorted(GOLDEN) == sorted(_case_id(*case) for case in ALL_CASES)


if __name__ == "__main__":  # regenerate: python tests/test_provider_cost_golden.py
    for case in ALL_CASES:
        print(f"    {_case_id(*case)!r}: {measure(*case)!r},")
