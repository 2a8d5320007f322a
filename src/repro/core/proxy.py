"""Transparent Offcode invocation via proxies.

"Achieving syntactic transparency for Offcode invocation requires the
use of some 'proxy' element that has a similar interface as the target
Offcode.  When a user creates an Offcode, a proxy object is loaded into
user-space.  All interface methods return a Call object that contains
the relevant method information including the serialized input
parameters" (Section 3.1).

Two styles are supported:

* **transparent** — ``yield from proxy.Compute(data)``: attribute access
  resolves against the interface spec, builds the Call, sends it over
  the proxy's channel and decodes the reply;
* **manual** — build the :class:`~repro.core.call.Call` yourself with
  :func:`~repro.core.call.make_call` and push it through any channel
  (``proxy.send_raw``), the paper's "custom encoder" scheme.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import InterfaceError, RetryBudgetExceededError
from repro.core import marshal
from repro.core.call import Call, CallPolicy, make_call
from repro.core.channel import Channel, Endpoint
from repro.core.interfaces import InterfaceSpec
from repro.sim.engine import Event
from repro.telemetry.spans import emit as trace_emit

__all__ = ["Proxy"]

# Marshaling cost on the caller's CPU: fixed header work + per-byte.
_MARSHAL_FIXED_NS = 600
_MARSHAL_NS_PER_BYTE = 0.25


class _BoundMethod:
    """A callable proxy method; calling it returns a generator."""

    def __init__(self, proxy: "Proxy", method_name: str) -> None:
        self._proxy = proxy
        self._method_name = method_name

    def __call__(self, *args: Any) -> Generator[Event, None, Any]:
        return self._proxy.invoke(self._method_name, *args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<proxy method {self._proxy.interface.name}."
                f"{self._method_name}>")


class Proxy:
    """User-space stand-in for a (possibly remote) Offcode interface."""

    def __init__(self, interface: InterfaceSpec, channel: Channel,
                 endpoint: Endpoint,
                 policy: Optional[CallPolicy] = None) -> None:
        self.interface = interface
        self.channel = channel
        self.endpoint = endpoint
        self.policy = policy
        self.invocations = 0
        self.timeouts = 0
        self._encodes, self._decodes = marshal.counters(
            endpoint.site.sim.metrics)
        # Migration fence: while a HoldingGate is installed, invoke()
        # parks here before touching the channel (the runtime swaps the
        # channel out underneath the gate during a live migration).
        self.gate = None

    def set_policy(self, policy: Optional[CallPolicy]) -> None:
        """Install (or clear) the deadline/retry policy for this proxy."""
        self.policy = policy

    def rebind(self, channel: Channel) -> None:
        """Point this proxy at a replacement channel (live migration).

        The new channel's creator endpoint must live on the same site as
        the old one: callers holding this proxy keep their site affinity
        and never observe the swap beyond the fence latency.
        """
        self.channel = channel
        self.endpoint = channel.creator_endpoint

    def invoke(self, method_name: str, *args: Any
               ) -> Generator[Event, None, Any]:
        """Build, send and (for two-way methods) await one invocation.

        Without a policy this is one inline attempt.  With a
        :class:`~repro.core.call.CallPolicy` installed, each attempt is
        deadline-bounded and timed-out attempts are retried with
        backoff; exhausting the budget raises
        :class:`~repro.errors.RetryBudgetExceededError` (a subclass of
        ``OffloadTimeoutError``) instead of hanging the caller.
        """
        if self.gate is not None:
            yield from self.gate.wait()
        site = self.endpoint.site
        sim = site.sim
        policy = self.policy
        # Arguments are marshaled exactly once, before the first attempt;
        # retried attempts need a fresh Call (return descriptors are
        # one-shot) but reissue() reuses the cached encoded bytes, so a
        # retry pays only the fixed header cost, not the per-byte encode.
        call = make_call(sim, self.interface, method_name, args,
                         encodes=self._encodes)
        marshal_ns = _MARSHAL_FIXED_NS + round(
            len(call.encoded_args) * _MARSHAL_NS_PER_BYTE)
        tel = sim.telemetry
        root = None
        if tel is not None:
            root = tel.begin(f"{self.interface.name}.{method_name}",
                             "proxy", f"site:{site.name}",
                             method=method_name, one_way=call.one_way,
                             **({} if policy is None else {"policy": True}))
            call.trace_ctx = root.context
        attempts = 1 if policy is None else policy.max_attempts
        try:
            for attempt in range(1, attempts + 1):
                if attempt > 1:
                    yield sim.clock.timeout(policy.backoff_ns(attempt - 1))
                    call = call.reissue(sim)
                    marshal_ns = _MARSHAL_FIXED_NS
                if tel is not None:
                    mspan = tel.begin(
                        "marshal", "marshal", f"site:{site.name}",
                        parent=root, bytes=len(call.encoded_args),
                        **({} if policy is None else {"attempt": attempt}))
                yield from site.execute(marshal_ns, context="proxy")
                if tel is not None:
                    tel.end(mspan)
                if policy is None:
                    encoded = yield from self.channel.send_call(
                        self.endpoint, call)
                    break
                outcome: dict = {}

                def attempt_body(call: Call = call, outcome: dict = outcome
                                 ) -> Generator[Event, None, None]:
                    try:
                        reply = yield from self.channel.send_call(
                            self.endpoint, call)
                        outcome["result"] = ("ok", reply)
                    except Exception as exc:
                        outcome["result"] = ("error", exc)

                proc = sim.spawn(attempt_body(), name=(
                    f"proxy-{self.interface.name}.{method_name}-a{attempt}"))
                yield sim.any_of([proc, sim.clock.timeout(policy.deadline_ns)])
                if "result" in outcome:
                    status, encoded = outcome["result"]
                    if status == "error":
                        # Non-timeout failures (remote exception, dead
                        # device, closed channel) are not retried — the
                        # caller must react.
                        raise encoded
                    break
                # Deadline expired.  The attempt process is deliberately
                # left to finish (or never finish) on its own: interrupting
                # it while it waits on the channel sequencer would leak the
                # slot and wedge the channel for everyone else.  Its
                # eventual result lands in an outcome dict nobody reads.
                self.timeouts += 1
                trace_emit(sim, "fault",
                           f"proxy {self.interface.name}.{method_name} "
                           f"attempt {attempt}/{attempts} missed deadline",
                           interface=self.interface.name, method=method_name,
                           attempt=attempt, deadline_ns=policy.deadline_ns)
            else:
                raise RetryBudgetExceededError(
                    f"{self.interface.name}.{method_name}: all {attempts} "
                    f"attempt(s) missed their {policy.deadline_ns} ns "
                    "deadline", attempts=attempts)
        finally:
            if tel is not None:
                tel.end(root)
        self.invocations += 1
        return None if call.one_way else self._decode(encoded)

    def send_raw(self, call: Call) -> Generator[Event, None, Any]:
        """Manual scheme: send a pre-built Call object."""
        encoded = yield from self.channel.send_call(self.endpoint, call)
        self.invocations += 1
        return None if call.one_way else self._decode(encoded)

    def _decode(self, encoded: bytes) -> Any:
        self._decodes.inc()
        return marshal.decode(encoded)

    def __getattr__(self, name: str) -> _BoundMethod:
        # Only interface methods resolve; anything else is a real miss.
        # A resolved method is cached on the instance, so each name
        # resolves once.
        if name.startswith("_"):
            raise AttributeError(name)
        if self.interface.has_method(name):
            method = self.__dict__[name] = _BoundMethod(self, name)
            return method
        raise InterfaceError(
            f"interface {self.interface.name!r} has no method {name!r}")
