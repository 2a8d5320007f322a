"""A small labelled-metrics registry (Counter / Gauge / Histogram).

Every :class:`~repro.sim.engine.Simulator` owns one registry
(``sim.metrics``) and it is the only counter store of a run: the
subsystems that bump a total — channels and their batchers, buses, RDMA
verbs, the fault injector, the watchdog, the supervisor, the marshal
callers — register their families at construction, keep the label
children they own, and increment them in place.  Their stats APIs
(``ChannelStats``, ``BatcherStats``, ``RdmaStats``, ``bus.bytes_moved``
...) are views over those children.
Values that are derived from state an owner already keeps (the engine's
per-event ints, incident and migration outcomes) are refreshed by a
*collector* the owner registers, which runs at snapshot time::

    sent = sim.metrics.counter("repro_channel_sent_total",
                               labels=("runtime", "channel", "label"))
    mine = sent.own(runtime="client", channel="3", label="media")
    mine.inc()

The conservation laws over those counts are data as well: each is a
:class:`Law` next to the owner whose books it reads, and
:meth:`Law.check` is the one evaluator of all of them.

No wall-clock anywhere: values come from simulation state, so snapshots
of a seeded run are deterministic.
"""

from __future__ import annotations

import bisect
import re
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.errors import ReproError

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily",
           "MetricsRegistry", "DEFAULT_BUCKETS", "Law"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

# Generic duration-ish buckets; span histograms pass their own.
DEFAULT_BUCKETS = (1_000, 10_000, 100_000, 1_000_000, 10_000_000,
                   100_000_000, 1_000_000_000)


class Counter:
    """A monotonically non-decreasing count."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self) -> None:
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ReproError(f"counter increment must be >= 0: {amount}")
        self._value += amount

    def set_total(self, value: float) -> None:
        """Refresh a cumulative total derived from the owner's state.

        For snapshot-time collectors; the new total must not regress
        (counters only go up).
        """
        if value < self._value:
            raise ReproError(
                f"counter total regressed: {self._value} -> {value}")
        self._value = value

    @property
    def value(self) -> float:
        """Current cumulative total."""
        return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self) -> None:
        self._value = 0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount``."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount``."""
        self._value -= amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value


class Histogram:
    """A bucketed distribution with sum and count."""

    __slots__ = ("buckets", "_counts", "_sum", "_count")
    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self._counts = [0] * (len(buckets) + 1)   # last = +Inf overflow
        self._sum = 0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        """Total observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs ending at
        ``+Inf``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), self._count))
        return out


class MetricFamily:
    """One named metric and its labelled children."""

    def __init__(self, name: str, kind: str, help: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name: {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ReproError(f"invalid label name: {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ReproError(f"duplicate label names: {label_names}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_BUCKETS)

    def labels(self, **labels: Any) -> Any:
        """The child for one label combination (created on first use)."""
        key = self._key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def own(self, **labels: Any) -> Any:
        """A fresh child for one owner's exclusive use, exported under
        ``labels`` unless a namesake already holds them (then it counts
        privately, so an owner's view never mixes in another's)."""
        child = self._make_child()
        self._children.setdefault(self._key(labels), child)
        return child

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ReproError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.label_names)

    def _default_child(self) -> Any:
        if self.label_names:
            raise ReproError(
                f"{self.name} is labelled {self.label_names}; "
                "call .labels(...) first")
        return self.labels()

    # Label-less families act directly as their single child.

    def inc(self, amount: float = 1) -> None:
        """Counter/gauge convenience on a label-less family."""
        self._default_child().inc(amount)

    def dec(self, amount: float = 1) -> None:
        """Gauge convenience on a label-less family."""
        self._default_child().dec(amount)

    def set(self, value: float) -> None:
        """Gauge convenience on a label-less family."""
        self._default_child().set(value)

    def set_total(self, value: float) -> None:
        """Counter-refresh convenience on a label-less family."""
        self._default_child().set_total(value)

    def observe(self, value: float) -> None:
        """Histogram convenience on a label-less family."""
        self._default_child().observe(value)

    @property
    def value(self) -> float:
        """Current value of a label-less counter/gauge family."""
        return self._default_child().value

    def samples(self) -> List[Tuple[Tuple[str, ...], Any]]:
        """``(label values, child)`` pairs in sorted label order."""
        return sorted(self._children.items())


class MetricsRegistry:
    """Named metric families plus scrape-time collectors."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    def _get_or_create(self, name: str, kind: str, help: str,
                       labels: Iterable[str],
                       buckets: Optional[Tuple[float, ...]] = None
                       ) -> MetricFamily:
        label_names = tuple(labels)
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.label_names != label_names:
                raise ReproError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}, requested "
                    f"{kind}{label_names}")
            return family
        family = MetricFamily(name, kind, help, label_names, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._get_or_create(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Iterable[str] = ()) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Iterable[str] = (),
                  buckets: Tuple[float, ...] = DEFAULT_BUCKETS
                  ) -> MetricFamily:
        """Register (or fetch) a histogram family."""
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ReproError(
                f"histogram buckets must be sorted and unique: {buckets}")
        return self._get_or_create(name, "histogram", help, labels,
                                   tuple(buckets))

    def get(self, name: str) -> MetricFamily:
        """Existing family by name (ReproError if absent)."""
        try:
            return self._families[name]
        except KeyError:
            raise ReproError(f"no metric registered as {name!r}") from None

    def register_collector(
            self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Add a snapshot-time refresher (owners whose values derive
        from state they already keep register one)."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector so derived metrics reflect live state."""
        for collector in self._collectors:
            collector(self)

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """Machine-readable dump of every family (collectors run first).

        Canonical form: families sorted by name, each sample's label set
        serialized in sorted ``label name`` order, and samples ordered
        by those sorted ``(name, value)`` items — never by family
        declaration order.  Two registries holding the same values
        therefore snapshot identically even when their families were
        declared with differently-ordered label tuples or their children
        were touched in a different sequence, which is what makes merged
        fleet artifacts byte-identical regardless of shard completion
        order (:mod:`repro.telemetry.merge`).
        """
        self.collect()
        out: Dict[str, Any] = {}
        for family in self.families():
            samples = []
            for label_values, child in family.samples():
                labels = dict(sorted(zip(family.label_names, label_values)))
                if family.kind == "histogram":
                    samples.append({
                        "labels": labels, "count": child.count,
                        "sum": child.sum,
                        "buckets": [[le, n] for le, n in child.cumulative()
                                    if le != float("inf")],
                    })
                else:
                    samples.append({"labels": labels, "value": child.value})
            samples.sort(key=lambda s: sorted(s["labels"].items()))
            out[family.name] = {"type": family.kind, "help": family.help,
                                "samples": samples}
        return out


@dataclass(frozen=True)
class Law:
    """A conservation law over one owner's books, as data.

    The law holds when ``total - sum(parts)`` (the *imbalance*) lies in
    ``[0, slack]`` and, if a ``breakdown`` is named, its counts sum to
    at most ``within`` (exactly ``within`` when ``exact``).  ``leak``
    and ``mismatch`` are the violation texts of the two clauses,
    formatted over the books, the caller's context and ``imbalance``.
    """

    total: str
    parts: Tuple[str, ...]
    leak: str
    breakdown: Tuple[str, ...] = ()
    within: str = ""
    exact: bool = False
    mismatch: str = ""

    def imbalance(self, books: Mapping[str, Any]) -> int:
        """``total - sum(parts)``: what the books cannot account for."""
        return books[self.total] - sum(books[part] for part in self.parts)

    def check(self, books: Mapping[str, Any], slack: int = 0,
              **context: Any) -> List[str]:
        """The violations of this law in ``books`` (empty = it holds)."""
        imbalance = self.imbalance(books)
        leaks = not 0 <= imbalance <= slack
        split = sum(books[part] for part in self.breakdown)
        mismatched = bool(self.breakdown) and (
            split != books[self.within] if self.exact
            else split > books[self.within])
        if not (leaks or mismatched):
            return []
        fields = {**books, **context, "imbalance": imbalance}
        return [text.format(**fields) for text, broken in
                ((self.leak, leaks), (self.mismatch, mismatched)) if broken]
