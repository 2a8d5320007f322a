"""Tests for NIC, GPU, SmartDisk, power model and machine assembly."""

import pytest

from repro import units
from repro.errors import DeviceError, HardwareError
from repro.hw import (
    Bus,
    DeviceClass,
    Gpu,
    Machine,
    MachineSpec,
    Nic,
    PowerModel,
    SmartDisk,
)
from repro.hw.bus import HOST_MEMORY
from repro.hw.cpu import Cpu, CpuSpec
from repro.sim import Simulator


class FakePacket:
    def __init__(self, size_bytes=1024):
        self.size_bytes = size_bytes


# -- NIC -----------------------------------------------------------------------

def test_nic_host_rx_path_dma_and_interrupt():
    sim = Simulator()
    bus = Bus(sim)
    nic = Nic(sim, bus)
    interrupts = []
    nic.set_interrupt_handler(lambda vec, p: interrupts.append(vec))
    nic.receive_packet(FakePacket())
    sim.run()
    assert nic.rx_packets == 1
    assert len(nic.host_rx_ring) == 1
    assert interrupts == ["rx"]
    assert bus.crossings[("nic0", HOST_MEMORY)] == 1


def test_nic_offloaded_rx_path_no_host_crossing():
    sim = Simulator()
    bus = Bus(sim)
    nic = Nic(sim, bus)
    handled = []

    def handler(packet):
        yield from nic.run_on_device(1000, context="offcode")
        handled.append(packet)

    nic.install_rx_offload(handler)
    nic.receive_packet(FakePacket())
    sim.run()
    assert handled and nic.rx_offloaded
    assert len(nic.host_rx_ring) == 0
    assert bus.total_crossings() == 0


def test_nic_double_offload_install_rejected():
    sim = Simulator()
    nic = Nic(sim, Bus(sim))
    nic.install_rx_offload(lambda p: iter(()))
    with pytest.raises(DeviceError):
        nic.install_rx_offload(lambda p: iter(()))
    nic.remove_rx_offload()
    nic.install_rx_offload(lambda p: iter(()))  # ok after removal


def test_nic_rx_ring_drops_when_full():
    sim = Simulator()
    nic = Nic(sim, Bus(sim))
    nic.host_rx_ring.capacity = 2
    for _ in range(5):
        nic.receive_packet(FakePacket(64))
    sim.run()
    assert len(nic.host_rx_ring) == 2
    assert nic.host_rx_ring.dropped == 3


def test_nic_transmit_requires_wire():
    sim = Simulator()
    nic = Nic(sim, Bus(sim))

    def proc():
        yield from nic.transmit_from_device(FakePacket())

    sim.spawn(proc())
    with pytest.raises(DeviceError):
        sim.run()


def test_nic_transmit_paths():
    sim = Simulator()
    bus = Bus(sim)
    nic = Nic(sim, bus)
    wire = []
    nic.attach_wire(wire.append)

    def proc():
        yield from nic.transmit_from_host(FakePacket(500))
        yield from nic.transmit_from_device(FakePacket(500))

    sim.spawn(proc())
    sim.run()
    assert len(wire) == 2
    assert nic.tx_packets == 2
    # Only the host-path transmit crossed the bus.
    assert bus.crossings == {(HOST_MEMORY, "nic0"): 1}


# -- GPU -------------------------------------------------------------------------

def test_gpu_decode_and_display_stay_on_device():
    sim = Simulator()
    bus = Bus(sim)
    gpu = Gpu(sim, bus)
    out = {}

    def proc():
        out["raw"] = yield from gpu.decode_frame(1000)
        yield from gpu.display_frame(out["raw"])

    sim.spawn(proc())
    sim.run()
    assert out["raw"] == 20_000
    assert gpu.frames_displayed == 1
    assert gpu.bytes_decoded == 1000
    assert bus.total_crossings() == 0


def test_gpu_host_blit_crosses_bus():
    sim = Simulator()
    bus = Bus(sim)
    gpu = Gpu(sim, bus)

    def proc():
        yield from gpu.host_blit(20_000)

    sim.spawn(proc())
    sim.run()
    assert gpu.frames_displayed == 1
    assert bus.crossings[(HOST_MEMORY, "gpu0")] == 1


def test_gpu_framebuffer_reserved():
    sim = Simulator()
    gpu = Gpu(sim, Bus(sim), framebuffer_bytes=1024)
    assert gpu.framebuffer.size == 1024
    assert gpu.memory.used_bytes >= 1024


# -- SmartDisk --------------------------------------------------------------------

def test_disk_write_then_read_roundtrip():
    sim = Simulator()
    disk = SmartDisk(sim, Bus(sim))
    out = {}

    def proc():
        yield from disk.write_block(7, 4096)
        out["n"] = yield from disk.read_block(7)

    sim.spawn(proc())
    sim.run()
    assert out["n"] == 4096
    assert disk.has_block(7)
    assert disk.blocks_stored == 1
    assert disk.reads == 1 and disk.writes == 1


def test_disk_read_missing_block_returns_zero():
    sim = Simulator()
    disk = SmartDisk(sim, Bus(sim))
    out = {}

    def proc():
        out["n"] = yield from disk.read_block(99)

    sim.spawn(proc())
    sim.run()
    assert out["n"] == 0


def test_disk_remote_backing_is_used():
    sim = Simulator()
    disk = SmartDisk(sim, Bus(sim))
    calls = []

    class Backing:
        def read_block(self, lba, size):
            calls.append(("r", lba))
            yield sim.clock.timeout(10)

        def write_block(self, lba, size):
            calls.append(("w", lba))
            yield sim.clock.timeout(10)

    disk.attach_backing(Backing())
    assert disk.remote_backed

    def proc():
        yield from disk.write_block(1, 512)
        yield from disk.read_block(1, 512)

    sim.spawn(proc())
    sim.run()
    assert calls == [("w", 1), ("r", 1)]


def test_disk_rejects_bad_backing():
    sim = Simulator()
    disk = SmartDisk(sim, Bus(sim))
    with pytest.raises(DeviceError):
        disk.attach_backing(object())


def test_disk_validates_lba_and_size():
    sim = Simulator()
    disk = SmartDisk(sim, Bus(sim))

    def bad():
        yield from disk.write_block(-1, 512)

    sim.spawn(bad())
    with pytest.raises(DeviceError):
        sim.run()


# -- power ------------------------------------------------------------------------

def test_power_idle_vs_active():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(frequency_hz=1e9, active_watts=60.0, idle_watts=10.0))
    model = PowerModel()
    model.register(cpu)

    def job():
        yield from cpu.execute(units.s_to_ns(1), context="x")
        yield sim.clock.timeout(units.s_to_ns(1))

    sim.spawn(job())
    sim.run()
    energy = model.component_energy(cpu.name)
    assert energy.busy_seconds == pytest.approx(1.0)
    assert energy.idle_seconds == pytest.approx(1.0)
    assert energy.joules == pytest.approx(70.0)
    assert energy.average_watts == pytest.approx(35.0)


def test_power_duplicate_registration_rejected():
    sim = Simulator()
    cpu = Cpu(sim)
    model = PowerModel()
    model.register(cpu)
    with pytest.raises(ValueError):
        model.register(cpu)


def test_power_orders_of_magnitude_host_vs_xscale():
    """The paper's argument 3: P4 vs XScale is ~two orders of magnitude."""
    sim = Simulator()
    host = Machine(sim, MachineSpec(name="h"))
    nic = host.add_nic()
    ratio = host.cpu.spec.active_watts / nic.cpu.spec.active_watts
    assert ratio > 100


# -- machine ----------------------------------------------------------------------

def test_machine_assembles_testbed():
    sim = Simulator()
    machine = Machine(sim)
    nic = machine.add_nic()
    gpu = machine.add_gpu()
    disk = machine.add_disk()
    assert machine.device("nic0") is nic
    assert machine.devices_of_class(DeviceClass.DISPLAY) == [gpu]
    assert machine.devices_of_class(DeviceClass.STORAGE) == [disk]
    assert set(machine.bus.endpoints) >= {"nic0", "gpu0", "disk0", HOST_MEMORY}
    assert machine.l2.config.size_bytes == 256 * 1024


def test_machine_duplicate_device_rejected():
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    with pytest.raises(HardwareError):
        machine.add_nic()


def test_machine_unknown_device_lookup():
    sim = Simulator()
    machine = Machine(sim)
    with pytest.raises(HardwareError):
        machine.device("nope")
