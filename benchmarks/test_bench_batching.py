"""Vectored call batching: throughput, bus transactions, and jitter.

The dispatch harness mirrors the TiVoPC hot path — a programmable NIC
multicasting 188-byte MPEG transport chunks to the GPU and the smart
disk over peer DMA — but drives the channel directly so the measured
quantity is the *channel* cost, not the Streamer's extraction budget.

Two phases:

* **burst** — back-to-back writes.  The adaptive batcher coalesces to
  its default watermarks and each 32-entry batch rides one hardware
  multicast transaction; claims: >= 3x messages/second and >= 5x fewer
  bus transactions than the classic per-message path.
* **paced** — one chunk every 100 us.  The EWMA estimator sees a full
  batch could never form inside the deadline and bypasses coalescing,
  so delivery jitter stays no worse than the unbatched channel.

The rendered comparison is published to ``results/batching.txt``.
"""

from __future__ import annotations

from conftest import publish

from repro.api import (
    ChannelConfig,
    HydraRuntime,
    JitterCollector,
    Machine,
    Simulator,
)

CHUNK_BYTES = 188            # one MPEG transport-stream packet
BURST_MESSAGES = 1920        # 60 full batches at the default watermark
PACED_MESSAGES = 300
PACED_INTERVAL_NS = 100_000  # 100 us between chunks (a paced stream)


class DispatchRun:
    """Result of one harness run (one channel mode, one arrival process)."""

    def __init__(self, label):
        self.label = label
        self.messages = 0
        self.elapsed_ns = 0
        self.bus_transactions = 0
        self.sg_transfers = 0
        self.sg_entries = 0
        self.coalesced = 0
        self.bypassed = 0
        self.flushes = 0
        self.jitter = JitterCollector()

    @property
    def msgs_per_sim_sec(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.messages * 1e9 / self.elapsed_ns


def run_dispatch(label, batched, messages, interval_ns=0):
    """Drive ``messages`` chunks NIC -> {GPU, disk} and measure."""
    sim = Simulator()
    machine = Machine(sim)
    machine.add_nic()
    machine.add_gpu()
    machine.add_disk()
    machine.bus.record_log = True   # one TransferRecord per transaction
    runtime = HydraRuntime(machine)

    config = (ChannelConfig.multicast().reliable().sequential()
              .zero_copy().labeled("bench.batching"))
    if batched:
        config = config.batched()   # default BatchConfig watermarks
    channel = runtime.executive.create_channel(
        config, runtime.device_runtime("nic0").site)
    runtime.executive.connect_site(channel,
                                   runtime.device_runtime("gpu0").site)
    runtime.executive.connect_site(channel,
                                   runtime.device_runtime("disk0").site)
    source = channel.creator_endpoint
    sinks = [e for e in channel.endpoints if e is not source]

    result = DispatchRun(label)

    def drain(endpoint, collector):
        while True:
            yield from endpoint.read()
            if collector is not None:
                collector.record(sim.now)
            result.elapsed_ns = sim.now

    sim.spawn(drain(sinks[0], result.jitter), name="drain-gpu")
    sim.spawn(drain(sinks[1], None), name="drain-disk")

    def sender():
        for seq in range(messages):
            yield from source.write(("chunk", seq), CHUNK_BYTES)
            if interval_ns:
                yield sim.clock.timeout(interval_ns)
        if channel.batcher is not None:
            yield from channel.batcher.flush_all()

    sim.spawn(sender(), name="sender")
    sim.run()

    result.messages = messages
    result.bus_transactions = len(machine.bus.transfers)
    result.sg_transfers = machine.bus.sg_transfers
    result.sg_entries = machine.bus.sg_entries
    if channel.batcher is not None:
        stats = channel.batcher.stats()
        result.coalesced = stats.coalesced
        result.bypassed = stats.bypassed
        result.flushes = stats.flushes
    return result


def render(burst_plain, burst_batched, paced_plain, paced_batched):
    speedup = burst_batched.msgs_per_sim_sec / burst_plain.msgs_per_sim_sec
    txn_ratio = (burst_plain.bus_transactions
                 / max(1, burst_batched.bus_transactions))
    lines = [
        "Vectored call batching -- NIC multicast to GPU + disk, "
        f"{CHUNK_BYTES}-byte chunks",
        "",
        f"{'phase / mode':<24}{'msgs':>7}{'elapsed ms':>12}"
        f"{'msgs/sec':>12}{'bus txns':>10}{'sg txns':>9}",
    ]
    for run in (burst_plain, burst_batched, paced_plain, paced_batched):
        lines.append(
            f"{run.label:<24}{run.messages:>7}"
            f"{run.elapsed_ns / 1e6:>12.3f}"
            f"{run.msgs_per_sim_sec:>12.0f}"
            f"{run.bus_transactions:>10}"
            f"{run.sg_transfers:>9}")
    lines += [
        "",
        f"burst speedup:            {speedup:.2f}x messages/second",
        f"burst bus transactions:   {txn_ratio:.1f}x fewer "
        f"({burst_plain.bus_transactions} -> "
        f"{burst_batched.bus_transactions})",
        f"batched burst:            {burst_batched.coalesced} coalesced, "
        f"{burst_batched.bypassed} bypassed, "
        f"{burst_batched.flushes} vectored flushes "
        f"({burst_batched.sg_entries} sg entries)",
        f"paced adaptive bypass:    {paced_batched.bypassed} of "
        f"{paced_batched.messages} chunks took the per-message path",
    ]
    plain_j = paced_plain.jitter.stats()
    batched_j = paced_batched.jitter.stats()
    lines += [
        f"paced jitter (unbatched): median {plain_j.median:.4f} ms, "
        f"stdev {plain_j.stdev:.4f} ms over {plain_j.count} gaps",
        f"paced jitter (batched):   median {batched_j.median:.4f} ms, "
        f"stdev {batched_j.stdev:.4f} ms over {batched_j.count} gaps",
    ]
    return "\n".join(lines)


def test_batching_throughput_and_jitter(one_shot):
    def experiment():
        burst_plain = run_dispatch("burst / unbatched", False,
                                   BURST_MESSAGES)
        burst_batched = run_dispatch("burst / batched", True,
                                     BURST_MESSAGES)
        paced_plain = run_dispatch("paced / unbatched", False,
                                   PACED_MESSAGES, PACED_INTERVAL_NS)
        paced_batched = run_dispatch("paced / batched", True,
                                     PACED_MESSAGES, PACED_INTERVAL_NS)
        return burst_plain, burst_batched, paced_plain, paced_batched

    burst_plain, burst_batched, paced_plain, paced_batched = \
        one_shot(experiment)

    def as_data(run):
        return {
            "messages": run.messages,
            "elapsed_ns": run.elapsed_ns,
            "msgs_per_sim_sec": run.msgs_per_sim_sec,
            "bus_transactions": run.bus_transactions,
            "sg_transfers": run.sg_transfers,
            "sg_entries": run.sg_entries,
            "coalesced": run.coalesced,
            "bypassed": run.bypassed,
            "flushes": run.flushes,
            "jitter": run.jitter.stats(),
        }

    publish("batching",
            render(burst_plain, burst_batched, paced_plain, paced_batched),
            data={run.label: as_data(run)
                  for run in (burst_plain, burst_batched,
                              paced_plain, paced_batched)})

    # Every chunk arrived, in both modes.
    assert burst_plain.messages == burst_batched.messages == BURST_MESSAGES

    # Tentpole claims at the default watermark.
    assert burst_batched.msgs_per_sim_sec >= 3.0 * burst_plain.msgs_per_sim_sec
    assert (burst_batched.bus_transactions
            <= burst_plain.bus_transactions / 5.0)
    assert burst_batched.sg_transfers > 0

    # Paced traffic: the adaptive estimator steps aside, so jitter is no
    # worse than the classic per-message channel.
    plain_j = paced_plain.jitter.stats()
    batched_j = paced_batched.jitter.stats()
    assert batched_j.count == plain_j.count
    assert batched_j.stdev <= plain_j.stdev * 1.05 + 1e-9
    assert batched_j.median <= plain_j.median * 1.05 + 1e-9
