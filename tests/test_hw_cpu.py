"""Tests for the CPU model."""

import pytest

from repro.errors import HardwareError, InterruptError
from repro.hw.cpu import Cpu, CpuSampler, CpuSpec
from repro.sim import Simulator


def test_spec_defaults_match_testbed():
    spec = CpuSpec()
    assert spec.frequency_hz == pytest.approx(2.4e9)
    assert spec.name == "pentium4"


def test_execute_advances_time_and_accounts():
    sim = Simulator()
    cpu = Cpu(sim)

    def work(sim, cpu):
        yield from cpu.execute(1000, context="server")

    sim.spawn(work(sim, cpu))
    sim.run()
    assert sim.now == 1000
    assert cpu.total_busy == 1000
    assert cpu.busy_by_context == {"server": 1000}


def test_execute_cycles_scales_with_frequency():
    sim = Simulator()
    cpu = Cpu(sim, CpuSpec(frequency_hz=1e9))

    def work(sim, cpu):
        yield from cpu.execute_cycles(2400, context="x")

    sim.spawn(work(sim, cpu))
    sim.run()
    assert sim.now == 2400  # 2400 cycles at 1 GHz = 2400 ns


def test_contention_serializes():
    sim = Simulator()
    cpu = Cpu(sim)
    finish = []

    def job(sim, cpu, tag):
        yield from cpu.execute(100, context=tag)
        finish.append((tag, sim.now))

    sim.spawn(job(sim, cpu, "a"))
    sim.spawn(job(sim, cpu, "b"))
    sim.run()
    assert finish == [("a", 100), ("b", 200)]


def test_negative_work_rejected():
    sim = Simulator()
    cpu = Cpu(sim)

    def bad(sim, cpu):
        yield from cpu.execute(-1)

    sim.spawn(bad(sim, cpu))
    with pytest.raises(HardwareError):
        sim.run()


def test_utilization_fraction():
    sim = Simulator()
    cpu = Cpu(sim)

    def job(sim, cpu):
        yield from cpu.execute(300, context="x")
        yield sim.clock.timeout(700)

    sim.spawn(job(sim, cpu))
    sim.run()
    assert cpu.utilization() == pytest.approx(0.3)


def test_context_share():
    sim = Simulator()
    cpu = Cpu(sim)

    def job(sim, cpu):
        yield from cpu.execute(300, context="kernel")
        yield from cpu.execute(100, context="user")

    sim.spawn(job(sim, cpu))
    sim.run()
    assert cpu.context_share("kernel") == pytest.approx(0.75)
    assert cpu.context_share("user") == pytest.approx(0.25)
    assert cpu.context_share("absent") == 0.0


def test_sampler_windows():
    sim = Simulator()
    cpu = Cpu(sim)
    sampler = CpuSampler(cpu)

    def phase(sim, cpu):
        yield from cpu.execute(500, context="x")   # busy 0..500
        yield sim.clock.timeout(500)                     # idle 500..1000

    proc = sim.spawn(phase(sim, cpu))
    sim.run(until=500)
    u1 = sampler.sample()
    sim.run(until=1000)
    u2 = sampler.sample()
    assert u1 == pytest.approx(1.0)
    assert u2 == pytest.approx(0.0)
    assert proc.processed


def test_sampler_window_after_busy_start_is_idle():
    """Busy over [0, 10), idle until 100: the window [50, 100) is idle.
    Windowed utilization comes from the sampler's synced busy reads."""
    sim = Simulator()
    cpu = Cpu(sim)

    def job(sim, cpu):
        yield from cpu.execute(10, context="x")

    sim.spawn(job(sim, cpu))
    sim.run(until=50)
    sampler = CpuSampler(cpu)
    sim.run(until=100)
    assert sampler.sample() == 0.0
    assert cpu.busy_ns == 10
    assert cpu.utilization() == pytest.approx(0.1)
    with pytest.raises(TypeError):
        cpu.utilization(50)


def test_sampler_mid_busy_interval():
    sim = Simulator()
    cpu = Cpu(sim)
    sampler = CpuSampler(cpu)

    def job(sim, cpu):
        yield from cpu.execute(1000, context="x")

    sim.spawn(job(sim, cpu))
    sim.run(until=250)
    assert sampler.sample() == pytest.approx(1.0)
    sim.run(until=2000)
    # remaining busy 250..1000 in window 250..2000 => 750/1750
    assert sampler.sample() == pytest.approx(750 / 1750)


def test_queue_depth():
    sim = Simulator()
    cpu = Cpu(sim)

    def job(sim, cpu):
        yield from cpu.execute(100)

    for _ in range(3):
        sim.spawn(job(sim, cpu))
    sim.run(until=50)
    assert cpu.busy
    assert cpu.queue_depth == 2


def _interrupted_waiter(interrupt_at):
    """A holder runs execute(100); a victim queues behind it and is
    interrupted at ``interrupt_at`` (while queued, or at t=100 after the
    slot was handed over but before its grant popped).  A third execute
    spawned at t=500 must still get the CPU."""
    sim = Simulator()
    cpu = Cpu(sim)
    done = []

    def job(tag):
        try:
            yield from cpu.execute(10 if tag == "late" else 100)
            done.append((tag, sim.now))
        except InterruptError:
            done.append((tag, "interrupted", sim.now))

    sim.spawn(job("holder"))
    victim = sim.spawn(job("victim"))

    def interrupter():
        # Two steps, so that at t=100 this entry queues behind the
        # holder's: the holder hands the slot over first.
        yield sim.clock.after(1)
        yield sim.clock.after(interrupt_at - 1)
        victim.interrupt("stop")

    sim.spawn(interrupter())
    sim.spawn(job("late"), delay=500)
    sim.run()
    return sim, cpu, done


@pytest.mark.parametrize("interrupt_at", [50, 100])
def test_interrupted_cpu_waiter_does_not_leak_the_slot(interrupt_at):
    sim, cpu, done = _interrupted_waiter(interrupt_at)
    assert sorted(done[:2], key=lambda entry: entry[0]) == [
        ("holder", 100), ("victim", "interrupted", interrupt_at)]
    assert done[2] == ("late", 510)
    assert not cpu.busy
    assert cpu.utilization() == pytest.approx(110 / 510)


def test_cpu_job_interrupted_before_its_immediate_grant_releases_it():
    sim = Simulator()
    cpu = Cpu(sim)
    started = sim.event()
    done = []

    def victim():
        started.succeed()
        try:
            yield from cpu.execute(100)
        except InterruptError:
            done.append(("interrupted", sim.now))

    proc = sim.spawn(victim())

    def interrupter():
        # Woken by `started`, whose entry is queued just ahead of the
        # victim's grant: the slot is already counted when this lands.
        yield started
        proc.interrupt("stop")

    sim.spawn(interrupter())
    sim.run()
    assert done == [("interrupted", 0)]
    assert not cpu.busy
    assert cpu.utilization() == 0.0
