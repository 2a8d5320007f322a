"""Set-associative cache model.

The paper's evaluation (Figure 10, Section 6.4) measures the **L2 cache
miss rate** of the server kernel under three server implementations and
shows that offloading leaves the host L2 as quiet as an idle system while
the host-based servers stream packet data through it and evict the
resident working set.

This module provides a faithful set-associative LRU cache: addresses are
mapped to sets, each set keeps its ways in LRU order, and per-access
hit/miss counts are recorded.  Streaming a packet buffer through
:meth:`Cache.access_range` therefore produces exactly the eviction
behaviour the paper attributes to the non-offloaded servers.

The model is deliberately timing-free: it classifies accesses; the *cost*
of a miss is charged by the CPU/OS models that call it.

Performance: the hottest consumer is the kernel daemon wake, which walks
a ~1250-line buffer per period — >80 % of all line traffic.  Two
mechanisms keep this off the event loop's critical path:

* **Deferred classification.**  No simulated component consumes the
  hit/miss classification inline — callers fire ranged touches and the
  counters are only read at observation points (samplers, end-of-run
  metrics, tests).  :meth:`Cache.touch_range` therefore just appends
  ``first_line, last_line, write`` to an op log of packed int64 slots
  (three per entry, so a drain copies one buffer); the log is replayed
  in order — exactly, including LRU state — the moment anything
  observes the cache (``stats``, :meth:`access`, :meth:`access_range`,
  :meth:`contains`, :attr:`resident_lines`, :meth:`flush`, or a
  resolved :meth:`stats_pin`), or when the log hits its cap.  Samplers
  that only need counter *snapshots* take a :meth:`stats_pin` — a
  position in the log resolved lazily after the run.

* **Set-parallel exact-LRU replay.**  With numpy a drain expands the
  log into per-line ``(set, tag, write)`` records, slice by slice, and
  groups each slice stably by set.  Sets never interact and each set
  keeps its own order, so step ``k`` of the replay applies the ``k``-th
  access of *every* set at once: a tag compare finds hits, per-way ages
  pick the LRU victim, and one batch of array updates moves the state.
  Back-to-back touches of one line in one set fold into one access
  first (the repeats are MRU hits that only OR in the dirty bit).
  Misses, evictions and writebacks are counted per log entry, so every
  :class:`StatsPin` resolves from prefix sums.  Every set is kept
  permanently full by pre-filling it with negative *sentinel* tags
  (real tags are non-negative, so sentinels can never hit, and evicting
  one is exactly the real model's "insert into a not-yet-full set"),
  which removes the fill/evict branch without changing any counter.
  numpy and the replay arrays are loaded at a cache's first replay: a
  cache that is never replayed stays in its all-sentinel initial state
  and costs neither.  Without numpy the model falls back to per-set
  ordered dicts and a per-line loop; the op log works identically, and
  the tests use that model as the reference for the replay.
"""

from __future__ import annotations

import importlib.util
from array import array
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import HardwareError

# Where numpy would load from, or None: a cache built while this is None
# runs the dict model.  Looking it up does not import numpy; the first
# replay does (:meth:`Cache._arrays`).
_np = importlib.util.find_spec("numpy")

__all__ = ["CacheConfig", "CacheStats", "Cache", "StatsPin"]

# Forced-drain threshold for the deferred-access log, in entries.  Big
# enough that a busy simulated second logs freely, small enough to bound
# memory (each entry is three packed int64 slots, 24 bytes).
_OPLOG_CAP = 65536

# Lines per replay slice: enough that each replay step updates a few
# hundred sets at once, few enough that the slice's per-line arrays
# stay small and in the host's caches.
_SLICE_LINES = 8192

# Added to the key of a hit way so it outranks every LRU key (while the
# replay clock times the key span stays below it); a multiple of every
# key span, so the key's low bits survive.
_HIT_BONUS = 1 << 62


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a cache.

    Defaults match the paper's testbed: a Pentium 4 with a 256 kB, 8-way,
    64-byte-line L2.
    """

    size_bytes: int = 256 * 1024
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        if not _is_pow2(self.line_bytes):
            raise HardwareError(f"line size must be a power of two: {self.line_bytes}")
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise HardwareError("cache size and associativity must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise HardwareError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*ways = {self.line_bytes * self.associativity}")
        if not _is_pow2(self.num_sets):
            raise HardwareError(f"number of sets must be a power of two: {self.num_sets}")

    @property
    def num_sets(self) -> int:
        """Number of sets (size / (line * ways))."""
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        """Total line capacity."""
        return self.size_bytes // self.line_bytes


@dataclass
class CacheStats:
    """Aggregate access counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """hits + misses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """misses / accesses (0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the counters."""
        return CacheStats(self.hits, self.misses, self.evictions, self.writebacks)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counters accumulated since ``earlier``."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            writebacks=self.writebacks - earlier.writebacks,
        )


class StatsPin:
    """A lazily-resolved position in a cache's counter stream.

    Taken with :meth:`Cache.stats_pin` during a run; resolving it later
    yields the :class:`CacheStats` snapshot *as of the pin point*,
    computed by replaying the deferred-access log up to the pin.  This
    lets periodic samplers mark window boundaries without forcing a
    drain on the simulation's critical path.
    """

    __slots__ = ("_cache", "_index", "_value")

    def __init__(self, cache: "Cache", index: int) -> None:
        self._cache = cache
        self._index = index
        self._value: Optional[CacheStats] = None

    def resolve(self) -> CacheStats:
        """The counter snapshot at the pin point (drains if needed)."""
        if self._value is None:
            self._cache._drain()
        assert self._value is not None
        return self._value


class Cache:
    """A set-associative write-back LRU cache.

    With numpy the state is three ``(ways, sets)`` arrays, built at the
    first replay: ``_tags`` (int64, sentinels negative), ``_dirty``
    (bool) and ``_keys``.  A way's key is its flat index ``way * sets +
    set`` minus its last-use step times ``_span``, a power of two above
    every flat index, so the largest key in a set's column is its LRU
    way and the key's low bits name that way's flat index.  Ranged touches replay set-parallel
    (:meth:`_replay`); a single :meth:`access` updates one column.
    Without numpy the model keeps one ordered dict per set (tag ->
    dirty, insertion order = LRU order) and loops per line; that model
    is also the reference the numpy replay is tested against.

    Fire-and-forget callers (every in-simulation component) should use
    :meth:`touch_range`, which defers classification to an op log; any
    observation (``stats``, :meth:`access`, :meth:`access_range`,
    :meth:`contains`, :attr:`resident_lines`, :meth:`flush`) replays
    the log first, so observed state is always exact.
    """

    def __init__(self, config: Optional[CacheConfig] = None,
                 name: str = "L2") -> None:
        self.config = config or CacheConfig()
        self.name = name
        self._stats = CacheStats()
        # Deferred touches awaiting classification, packed three slots
        # per entry (first_line, last_line, write), and unresolved
        # StatsPins into that log.
        self._oplog = array("q")
        self._pins: List[StatsPin] = []
        # Installed by the host kernel (repro.hostos.kernel): logs its
        # due timer-tick touches before any other use of the cache.
        self._sync: Optional[Callable[[], None]] = None
        self._set_mask = self.config.num_sets - 1
        self._line_shift = self.config.line_bytes.bit_length() - 1
        self._index_bits = self._set_mask.bit_length()
        self._ways = self.config.associativity
        # Sentinel prefill: unique negative tags per set keep every set
        # exactly `ways` entries deep (see module docstring).
        self._sentinels = list(range(-self._ways, 0))
        # numpy model: no arrays until the first replay (_arrays).
        self._tags = None
        self._dictsets: Optional[List[dict]] = None
        if _np is None:
            self._dictsets = [dict.fromkeys(self._sentinels, False)
                              for _ in range(self.config.num_sets)]

    # -- observation & laziness --------------------------------------------

    def _settle(self) -> None:
        """Log the host kernel's due ticks, then classify the whole log."""
        if self._sync is not None:
            self._sync()
        if self._oplog:
            self._drain()

    @property
    def stats(self) -> CacheStats:
        """Aggregate counters (exact: drains any deferred touches)."""
        self._settle()
        return self._stats

    def stats_pin(self) -> StatsPin:
        """Mark the current point in the access stream for lazy stats.

        Returns a :class:`StatsPin` whose :meth:`~StatsPin.resolve`
        yields the counters as of this call, without draining the
        deferred-access log now.  Resolution order is exact even when
        eager accesses are interleaved, because every eager access
        drains the log first.
        """
        if self._sync is not None:
            self._sync()
        pin = StatsPin(self, len(self._oplog) // 3)
        if pin._index == 0:
            # Nothing pending: the snapshot is already known.
            pin._value = self._stats.snapshot()
        else:
            self._pins.append(pin)
        return pin

    def touch_range(self, base: int, size: int, write: bool = False) -> None:
        """Fire-and-forget :meth:`access_range`.

        Logs the touch; hit/miss classification and LRU movement are
        deferred until the next observation.  This is the entry point
        for simulated components, which never consume the
        classification inline.
        """
        if size <= 0:
            if size == 0:
                return
            raise HardwareError(f"negative range size: {size}")
        if base < 0:
            raise HardwareError(f"negative address: {base}")
        if self._sync is not None:
            self._sync()
        shift = self._line_shift
        log = self._oplog
        log.fromlist([base >> shift, (base + size - 1) >> shift, write])
        if len(log) >= 3 * _OPLOG_CAP:
            self._drain()

    def _drain(self) -> None:
        """Replay the deferred-access log in order, resolving pins."""
        if self._dictsets is None:
            self._replay_log()
            return
        log = self._oplog
        pins = self._pins
        p = 0
        slots = iter(log)
        for pos, (first, last, write) in enumerate(zip(slots, slots, slots)):
            while p < len(pins) and pins[p]._index <= pos:
                pins[p]._value = self._stats.snapshot()
                p += 1
            self._apply_lines(first, last, write)
        for pin in pins[p:]:
            pin._value = self._stats.snapshot()
        del pins[:]
        del log[:]

    def _arrays(self) -> None:
        """Build the replay arrays (importing numpy) unless they exist."""
        if self._tags is not None:
            return
        import numpy as np
        ways, num_sets = self._ways, self.config.num_sets
        self._tags = np.repeat(
            np.arange(-ways, 0, dtype=np.int64)[:, None], num_sets, 1)
        self._dirty = np.zeros((ways, num_sets), dtype=bool)
        self._span = 1 << (ways * num_sets - 1).bit_length()
        self._keys = np.arange(ways * num_sets,
                               dtype=np.int64).reshape(ways, num_sets)
        self._clock = 0     # replay steps so far; the age of a touch

    def _replay_log(self) -> None:
        """numpy drain: expand the log to lines and replay it in slices.

        Counters are kept per log entry, so each pin resolves to the
        base counters plus a prefix sum over the entries before it.
        """
        self._arrays()
        import numpy as np
        log = np.array(self._oplog, dtype=np.int64).reshape(-1, 3)
        first = log[:, 0]
        lines = log[:, 1] - first + 1
        end = np.cumsum(lines)
        # Line g of the expanded log (counting from 0 across entries)
        # belongs to the entry e with end[e-1] <= g < end[e] and is line
        # number g + shift[e].
        shift = first - (end - lines)
        writes = log[:, 2].astype(bool)
        # Column e + 1: hits, misses, evictions, writebacks of entry e;
        # after the cumsum, column i holds the sums over entries < i.
        counts = np.zeros((4, len(log) + 1), dtype=np.int64)
        total = int(end[-1])
        for g0 in range(0, total, _SLICE_LINES):
            g1 = min(total, g0 + _SLICE_LINES)
            e0 = int(np.searchsorted(end, g0, "right"))
            e1 = int(np.searchsorted(end, g1, "left")) + 1
            # Entry of each line in the slice, counted from e0.
            entry = np.repeat(
                np.arange(e1 - e0),
                np.minimum(end[e0:e1], g1)
                - np.maximum(end[e0:e1] - lines[e0:e1], g0))
            self._replay(np.arange(g0, g1) + shift[e0:e1][entry],
                         writes[e0:e1][entry], entry,
                         counts[1:, e0 + 1:e1 + 1])
        counts[0, 1:] = lines - counts[1, 1:]
        np.cumsum(counts, axis=1, out=counts)
        stats = self._stats
        base = (stats.hits, stats.misses, stats.evictions, stats.writebacks)
        for pin in self._pins:
            pin._value = CacheStats(*(b + int(c) for b, c in
                                      zip(base, counts[:, pin._index])))
        stats.hits, stats.misses, stats.evictions, stats.writebacks = (
            b + int(c) for b, c in zip(base, counts[:, -1]))
        del self._pins[:]
        del self._oplog[:]

    def _replay(self, lines, writes, entry, counts) -> None:
        """Exact LRU replay of one slice of line touches, all sets at once.

        ``lines``/``writes``/``entry`` give each touch in log order and
        the log entry it came from; ``counts`` (misses, evictions and
        writebacks, one column per entry) is accumulated in place.  Sets never
        interact, so the touches are grouped stably by set, and step
        ``k`` applies the ``k``-th touch of every set in one batch.
        Back-to-back touches of one line in one set are folded first:
        the repeats are hits on the MRU way, which change nothing but
        the dirty bit.
        """
        import numpy as np
        num_sets = self.config.num_sets
        sets = lines & self._set_mask
        # uint16 keys take numpy's radix sort.
        key = sets.astype(np.uint16) if num_sets <= 1 << 16 else sets
        order = np.argsort(key, kind="stable")
        by_set = lines[order]
        lead = np.empty(by_set.size, dtype=bool)
        lead[0] = True
        np.not_equal(by_set[1:], by_set[:-1], out=lead[1:])
        leaders = np.flatnonzero(lead)
        n = leaders.size
        folded_write = np.zeros(n, dtype=bool)
        folded_write[(np.cumsum(lead) - 1)[writes[order]]] = True
        # Each set's run of accesses, longest first: step k touches the
        # first active[k] runs, so each step is a contiguous slice.
        lead_sets = sets[order[leaders]]
        run_start = np.flatnonzero(np.concatenate(
            ([True], lead_sets[1:] != lead_sets[:-1])))
        run_len = np.diff(np.append(run_start, n))
        longest = np.argsort(-run_len, kind="stable")
        steps = int(run_len[longest[0]])
        active = run_start.size - np.cumsum(
            np.bincount(run_len, minlength=steps + 1))[:steps]
        bounds = np.zeros(steps + 1, dtype=np.int64)
        np.cumsum(active, out=bounds[1:])
        step = np.repeat(np.arange(steps), active)
        pick = run_start[longest][np.arange(n) - bounds[step]] + step
        src = order[leaders[pick]]
        set_of = sets[src]
        tag_of = lines[src] >> self._index_bits
        write_of = folded_write[pick]
        old_tag = np.empty(n, dtype=np.int64)
        old_dirty = np.empty(n, dtype=bool)

        tags, keys = self._tags, self._keys
        flat_tags = tags.reshape(-1)
        flat_dirty = self._dirty.reshape(-1)
        flat_keys = keys.reshape(-1)
        span = self._span
        low = span - 1
        clock = self._clock * span
        for k in range(steps):
            lo, hi = bounds[k], bounds[k + 1]
            s = set_of[lo:hi]
            t = tag_of[lo:hi]
            # The hit way, else the LRU way: the largest key once hits
            # get a bonus above every possible key.
            f = keys.take(s, axis=1)
            np.add(f, _HIT_BONUS, out=f, where=tags.take(s, axis=1) == t)
            f = f.max(0)
            hit = f > low
            f &= low
            old_tag[lo:hi] = flat_tags[f]
            d = flat_dirty[f]
            old_dirty[lo:hi] = d
            flat_tags[f] = t
            d &= hit
            d |= write_of[lo:hi]
            flat_dirty[f] = d
            clock += span
            flat_keys[f] = f - clock
        self._clock = clock // span
        miss = old_tag != tag_of
        evict = miss & (old_tag >= 0)
        who = entry[src]
        width = counts.shape[1]
        counts[0] += np.bincount(who[miss], minlength=width)
        counts[1] += np.bincount(who[evict], minlength=width)
        counts[2] += np.bincount(who[evict & old_dirty], minlength=width)

    # -- core access -------------------------------------------------------

    def access(self, address: int, write: bool = False) -> bool:
        """Access one address; return True on hit, False on miss."""
        if address < 0:
            raise HardwareError(f"negative address: {address}")
        self._settle()
        line = address >> self._line_shift
        tag = line >> self._index_bits
        index = line & self._set_mask
        stats = self._stats
        if self._dictsets is None:
            self._arrays()
            column = self._tags[:, index]
            found = (column == tag).nonzero()[0]
            self._clock += 1
            if found.size:
                way = int(found[0])
                self._dirty[way, index] |= write
                stats.hits += 1
            else:
                way = int(self._keys[:, index].argmax())
                if column[way] >= 0:
                    stats.evictions += 1
                    stats.writebacks += int(self._dirty[way, index])
                column[way] = tag
                self._dirty[way, index] = write
                stats.misses += 1
            self._keys[way, index] = (way * self.config.num_sets + index
                                      - self._clock * self._span)
            return bool(found.size)
        d = self._dictsets[index]
        if tag in d:
            # LRU bump: reinsert at the back (dicts keep insertion order).
            d[tag] = d.pop(tag) or write
            stats.hits += 1
            return True
        # Miss: evict the LRU (front key).  Sets are always full; a
        # sentinel victim is the "set not yet full" case and is free.
        lru = next(iter(d))
        if d.pop(lru):
            stats.writebacks += 1
        if lru >= 0:
            stats.evictions += 1
        d[tag] = write
        stats.misses += 1
        return False

    def access_range(self, base: int, size: int, write: bool = False) -> Tuple[int, int]:
        """Touch every line in ``[base, base+size)``.

        Returns ``(hits, misses)`` for the range.  The range is logged
        like :meth:`touch_range` and the log replayed at once, so eager
        and deferred ranges share one replay.
        """
        self._settle()
        stats = self._stats
        hits, misses = stats.hits, stats.misses
        self.touch_range(base, size, write)
        if self._oplog:
            self._drain()
        return (stats.hits - hits, stats.misses - misses)

    def _apply_lines(self, first: int, last: int, write: bool) -> None:
        """Dict model: apply one logged line-range touch, line by line."""
        index_bits = self._index_bits
        hits = misses = evictions = writebacks = 0
        dictsets = self._dictsets
        for t in range(first >> index_bits, (last >> index_bits) + 1):
            block = t << index_bits
            lo = max(first, block) - block
            hi = min(last, block + (1 << index_bits) - 1) - block
            for s in range(lo, hi + 1):
                d = dictsets[s]
                if t in d:
                    d[t] = d.pop(t) or write
                    hits += 1
                else:
                    lru = next(iter(d))
                    if d.pop(lru):
                        writebacks += 1
                    if lru >= 0:
                        evictions += 1
                    d[t] = write
                    misses += 1
        stats = self._stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        stats.writebacks += writebacks

    # -- inspection ---------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no side effects)."""
        if address < 0:
            raise HardwareError(f"negative address: {address}")
        self._settle()
        line = address >> self._line_shift
        index = line & self._set_mask
        tag = line >> self._index_bits
        if self._dictsets is not None:
            return tag in self._dictsets[index]
        return self._tags is not None and bool(
            (self._tags[:, index] == tag).any())

    @property
    def resident_lines(self) -> int:
        """Lines currently cached across all sets (sentinels excluded)."""
        self._settle()
        if self._dictsets is not None:
            return sum(sum(1 for t in d if t >= 0) for d in self._dictsets)
        return 0 if self._tags is None else int((self._tags >= 0).sum())

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines written back."""
        self._settle()
        if self._dictsets is None:
            dirty = (0 if self._tags is None
                     else int((self._dirty & (self._tags >= 0)).sum()))
            # Back to the all-sentinel initial state: the next replay
            # builds fresh arrays.
            self._tags = self._dirty = self._keys = None
            self._stats.writebacks += dirty
            return dirty
        dirty = 0
        for d in self._dictsets:
            dirty += sum(1 for t, bit in d.items() if bit and t >= 0)
            d.clear()
            d.update(dict.fromkeys(self._sentinels, False))
        self._stats.writebacks += dirty
        return dirty
