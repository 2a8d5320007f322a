"""Offcode checkpoint/restore — failure transparency for device deaths.

The paper's Resource Management survives a device failure by tearing the
victim Offcodes down and re-deploying them on a fallback site; without
help, the replacements start cold and the component's accumulated state
dies with the device.  This module adds the help: a
:class:`CheckpointService` periodically asks every checkpointable
Offcode (one that overrides :meth:`~repro.core.offcode.Offcode.snapshot`)
for a marshal-encodable state snapshot, charges the snapshot cost on the
Offcode's own site, and ships the result over the *OOB channel* — the
same low-priority management pathway the runtime already maintains to
every Offcode — to a host-side :class:`CheckpointStore` hanging off the
Offcode Depot.  After a failure, recovery restores the last shipped
checkpoint into the re-deployed instance before the application's
recovery hooks rewire data channels, so a NIC death mid-stream resumes
from the last snapshot instead of from zero.

Checkpoints are best-effort by design: a snapshot that cannot be shipped
(device died mid-transfer, OOB channel closed) is dropped and retried at
the next period, never allowed to wedge the service or the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.errors import HydraError
from repro.core import marshal
from repro.core.offcode import Offcode, OffcodeState
from repro.sim.engine import Event
from repro.telemetry.spans import emit as trace_emit

__all__ = ["Checkpoint", "CheckpointConfig", "CheckpointService",
           "CheckpointStore", "checkpointable", "capture_checkpoint"]


@dataclass(frozen=True)
class CheckpointConfig:
    """Knobs for the periodic checkpoint service.

    ``period_ns`` bounds the state a failure can lose (at most one
    period's worth); ``snapshot_cost_ns`` is charged on the Offcode's
    site per snapshot (quiescing and serializing are not free);
    ``header_bytes`` is the OOB framing overhead added to the encoded
    state size on the wire.
    """

    period_ns: int = 50_000_000          # 50 ms
    snapshot_cost_ns: int = 20_000
    header_bytes: int = 64

    def __post_init__(self) -> None:
        if self.period_ns <= 0:
            raise HydraError(
                f"checkpoint period_ns must be positive: {self.period_ns}")
        if self.snapshot_cost_ns < 0:
            raise HydraError(
                f"negative snapshot_cost_ns: {self.snapshot_cost_ns}")


@dataclass(frozen=True)
class Checkpoint:
    """One shipped state snapshot."""

    bindname: str
    seq: int
    taken_at_ns: int
    state: Any
    size_bytes: int = 0


class CheckpointStore:
    """Latest checkpoint per bindname, host-side (lives in the depot)."""

    def __init__(self) -> None:
        self._latest: Dict[str, Checkpoint] = {}
        self.saved = 0

    def save(self, checkpoint: Checkpoint) -> None:
        """Keep ``checkpoint`` if it is as new as the one we hold."""
        current = self._latest.get(checkpoint.bindname)
        if current is None or checkpoint.seq >= current.seq:
            self._latest[checkpoint.bindname] = checkpoint
        self.saved += 1

    def latest(self, bindname: str) -> Optional[Checkpoint]:
        """The most recent checkpoint for ``bindname`` (None if never)."""
        return self._latest.get(bindname)

    def forget(self, bindname: str) -> None:
        """Drop the checkpoint for ``bindname`` (post-restore hygiene is
        *not* wanted — keep it so repeated failures restore too — but
        tests and stop paths may clear)."""
        self._latest.pop(bindname, None)

    def bindnames(self) -> List[str]:
        """Bindnames with at least one stored checkpoint."""
        return sorted(self._latest)

    def __len__(self) -> int:
        return len(self._latest)


def checkpointable(offcode: Offcode) -> bool:
    """True when ``offcode``'s class opted into the snapshot contract."""
    return type(offcode).snapshot is not Offcode.snapshot


def capture_checkpoint(runtime, offcode: Offcode,
                       config: Optional[CheckpointConfig] = None
                       ) -> Generator[Event, None, Any]:
    """On-demand synchronous snapshot, for the live-migration path.

    Unlike the periodic service, the caller here is the host-side
    runtime holding the offcode quiesced: the snapshot cost is charged
    on the offcode's site, but the state is saved into the host store
    directly (the orchestrator reads it through the management path —
    no OOB hop to lose mid-cutover).  The sequence number is bumped past
    whatever the store holds, so the migration snapshot always wins over
    an older periodic one, and the periodic service's next shipment
    (one past its own counter) still lands.

    Returns the captured state, or ``None`` when the offcode does not
    participate in the snapshot contract (cold migration).
    """
    if not checkpointable(offcode):
        return None
    if config is None:
        service = getattr(runtime, "checkpointer", None)
        config = service.config if service is not None else CheckpointConfig()
    yield from offcode.site.execute(
        config.snapshot_cost_ns,
        context=f"{offcode.bindname}-migrate-snapshot")
    state = offcode.snapshot()
    if state is None:
        return None
    store: CheckpointStore = runtime.depot.checkpoints
    latest = store.latest(offcode.bindname)
    seq = (latest.seq if latest is not None else 0) + 1
    marshal.counters(runtime.sim.metrics)[0].inc()
    try:
        size = config.header_bytes + len(marshal.encode(state))
    except Exception:
        size = config.header_bytes + 256
    store.save(Checkpoint(
        bindname=offcode.bindname, seq=seq,
        taken_at_ns=runtime.sim.now, state=state, size_bytes=size))
    return state


class CheckpointService:
    """Ships periodic Offcode snapshots over OOB to the host depot."""

    def __init__(self, runtime, config: Optional[CheckpointConfig] = None
                 ) -> None:
        self.runtime = runtime
        self.config = config or CheckpointConfig()
        self.store: CheckpointStore = runtime.depot.checkpoints
        self.shipped = 0
        self.failed = 0
        self.stray_messages: List[Any] = []
        self._seqs: Dict[str, int] = {}
        self._process = None
        self._encodes = marshal.counters(runtime.sim.metrics)[0]

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Spawn the periodic ticker (idempotence guarded)."""
        if self._process is not None:
            raise HydraError("checkpoint service already started")
        self._process = self.runtime.sim.spawn(
            self._tick(), name="checkpointer")
        return self._process

    def _tick(self) -> Generator[Event, None, None]:
        sim = self.runtime.sim
        while True:
            yield sim.clock.timeout(self.config.period_ns)
            for offcode in self.runtime.deployed_offcodes():
                if checkpointable(offcode):
                    # Disposable per-offcode process: a device dying
                    # mid-snapshot must not take the ticker with it.
                    sim.spawn(self._checkpoint_one(offcode),
                              name=f"checkpoint-{offcode.bindname}")

    # -- the shipping path -------------------------------------------------------

    def _checkpoint_one(self, offcode: Offcode
                        ) -> Generator[Event, None, None]:
        sim = self.runtime.sim
        try:
            if offcode.state != OffcodeState.RUNNING:
                return
            channel = offcode.oob_channel
            if channel is None or channel.closed or not channel.connected:
                return
            self._ensure_collector(channel)
            yield from offcode.site.execute(
                self.config.snapshot_cost_ns,
                context=f"{offcode.bindname}-snapshot")
            state = offcode.snapshot()
            if state is None:
                return
            seq = self._seqs.get(offcode.bindname, 0) + 1
            self._seqs[offcode.bindname] = seq
            self._encodes.inc()
            try:
                size = self.config.header_bytes + len(marshal.encode(state))
            except Exception:
                size = self.config.header_bytes + 256
            endpoint = channel.endpoint_of(offcode)
            yield from endpoint.write(
                ("checkpoint", offcode.bindname, seq, state), size)
            self.shipped += 1
        except Exception as exc:
            self.failed += 1
            trace_emit(sim, "fault",
                       f"checkpoint of {offcode.bindname} failed: {exc!r}",
                       offcode=offcode.bindname)

    def _ensure_collector(self, channel) -> None:
        """Install the host-side collector on the OOB creator endpoint.

        The runtime only ever *writes* host-to-device on OOB channels, so
        the creator endpoint has no reader; without a collector a
        device-to-host checkpoint write would fill the ring and wedge.
        """
        endpoint = channel.creator_endpoint
        if endpoint._handler is None:
            endpoint.install_call_handler(self._collect)

    def _collect(self, message) -> None:
        payload = message.payload
        if (isinstance(payload, tuple) and len(payload) == 4
                and payload[0] == "checkpoint"):
            _, bindname, seq, state = payload
            self.store.save(Checkpoint(
                bindname=bindname, seq=seq,
                taken_at_ns=message.sent_at_ns, state=state,
                size_bytes=message.size_bytes))
            return
        self.stray_messages.append(payload)
