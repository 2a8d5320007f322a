"""Tests for the set-associative cache model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareError
from repro.hw import cache as cache_module
from repro.hw.cache import Cache, CacheConfig


def small_cache():
    # 4 sets x 2 ways x 64B lines = 512 B
    return Cache(CacheConfig(size_bytes=512, line_bytes=64, associativity=2))


def dict_model(config=None):
    """A cache on the numpy-free per-set dict model (the reference)."""
    saved = cache_module._np
    cache_module._np = None
    try:
        return Cache(config)
    finally:
        cache_module._np = saved


def test_config_defaults_match_paper_testbed():
    cfg = CacheConfig()
    assert cfg.size_bytes == 256 * 1024
    assert cfg.line_bytes == 64
    assert cfg.associativity == 8
    assert cfg.num_sets == 512


def test_config_validation():
    with pytest.raises(HardwareError):
        CacheConfig(line_bytes=48)          # not a power of two
    with pytest.raises(HardwareError):
        CacheConfig(size_bytes=0)
    with pytest.raises(HardwareError):
        CacheConfig(size_bytes=1000, line_bytes=64, associativity=2)


def test_cold_miss_then_hit():
    cache = small_cache()
    assert cache.access(0x100) is False
    assert cache.access(0x100) is True
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1


def test_same_line_different_offsets_hit():
    cache = small_cache()
    cache.access(0x100)
    assert cache.access(0x13F) is True   # same 64B line
    assert cache.access(0x140) is False  # next line


def test_lru_eviction_within_set():
    cache = small_cache()  # 2-way; set stride = 4 sets * 64 = 256B
    a, b, c = 0x000, 0x100, 0x200  # all map to set 0
    cache.access(a)
    cache.access(b)
    cache.access(a)          # a is now MRU
    cache.access(c)          # evicts b (LRU)
    assert cache.contains(a)
    assert not cache.contains(b)
    assert cache.contains(c)
    assert cache.stats.evictions == 1


def test_write_marks_dirty_and_writeback_on_eviction():
    cache = small_cache()
    cache.access(0x000, write=True)
    cache.access(0x100)
    cache.access(0x200)  # evicts dirty 0x000
    assert cache.stats.writebacks == 1


def test_access_range_counts_lines():
    cache = small_cache()
    hits, misses = cache.access_range(0, 256)
    assert (hits, misses) == (0, 4)
    hits, misses = cache.access_range(0, 256)
    assert (hits, misses) == (4, 0)


def test_access_range_partial_lines():
    cache = small_cache()
    # 10 bytes straddling a line boundary touches 2 lines.
    hits, misses = cache.access_range(60, 10)
    assert misses == 2


def test_access_range_empty():
    cache = small_cache()
    assert cache.access_range(0, 0) == (0, 0)


def test_streaming_evicts_resident_working_set():
    """The mechanism behind Figure 10: streaming data evicts hot lines."""
    cache = Cache(CacheConfig(size_bytes=4096, line_bytes=64, associativity=4))
    # Install a working set filling the whole cache.
    cache.access_range(0, 4096)
    assert cache.resident_lines == 64
    # Stream 64 kB through: working set is gone afterwards.
    cache.access_range(0x100000, 65536)
    resident = sum(1 for addr in range(0, 4096, 64) if cache.contains(addr))
    assert resident == 0


def test_flush_returns_dirty_count():
    cache = small_cache()
    cache.access(0x000, write=True)
    cache.access(0x040, write=True)
    cache.access(0x080)
    assert cache.flush() == 2
    assert cache.resident_lines == 0


def test_negative_address_rejected():
    config = CacheConfig(size_bytes=512, line_bytes=64, associativity=2)
    for cache in (Cache(config), dict_model(config)):
        with pytest.raises(HardwareError):
            cache.access(-1)
        with pytest.raises(HardwareError):
            cache.access_range(0, -5)
        with pytest.raises(HardwareError):
            cache.access_range(-64, 64)
        with pytest.raises(HardwareError):
            cache.touch_range(-64, 64)
        with pytest.raises(HardwareError):
            cache.contains(-1)      # line -1 would map to a sentinel tag


def test_stats_delta_and_snapshot():
    cache = small_cache()
    cache.access_range(0, 512)
    snap = cache.stats.snapshot()
    cache.access_range(0, 512)  # all hits
    delta = cache.stats.delta(snap)
    assert delta.misses == 0
    assert delta.hits == 8
    assert delta.miss_rate == 0.0


# -- property-based -----------------------------------------------------------

@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 20),
                      min_size=1, max_size=300))
@settings(max_examples=60, deadline=None)
def test_property_resident_bounded_by_capacity(addrs):
    cache = Cache(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
    for addr in addrs:
        cache.access(addr)
    assert cache.resident_lines <= cache.config.num_lines
    assert cache.stats.accesses == len(addrs)


@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 16),
                      min_size=1, max_size=200))
@settings(max_examples=60, deadline=None)
def test_property_second_pass_over_small_set_hits(addrs):
    """Re-accessing an address immediately after access always hits."""
    cache = Cache(CacheConfig(size_bytes=2048, line_bytes=64, associativity=4))
    for addr in addrs:
        cache.access(addr)
        assert cache.access(addr) is True


@given(addrs=st.lists(st.integers(min_value=0, max_value=1 << 24),
                      min_size=1, max_size=300))
@settings(max_examples=40, deadline=None)
def test_property_counters_consistent(addrs):
    cache = Cache(CacheConfig(size_bytes=512, line_bytes=64, associativity=2))
    for addr in addrs:
        cache.access(addr, write=(addr % 3 == 0))
    stats = cache.stats
    assert stats.hits + stats.misses == len(addrs)
    assert stats.evictions == stats.misses - cache.resident_lines
    assert 0 <= stats.writebacks <= stats.evictions


# -- deferred replay vs the dict model -------------------------------------------

# Small geometries (including direct-mapped and a non-power-of-two
# associativity) and the default L2.
GEOMETRIES = [
    CacheConfig(size_bytes=512, line_bytes=64, associativity=2),
    CacheConfig(size_bytes=1024, line_bytes=32, associativity=1),
    CacheConfig(size_bytes=768, line_bytes=64, associativity=3),
    CacheConfig(size_bytes=4096, line_bytes=64, associativity=4),
    CacheConfig(),
]


@st.composite
def traces(draw):
    """A geometry and a trace of deferred touches interleaved with pins
    and eager operations.  Addresses span a few cache sizes, so tags
    conflict; a few sizes exceed one replay slice."""
    config = draw(st.sampled_from(GEOMETRIES))
    span = 4 * config.size_bytes
    slice_bytes = cache_module._SLICE_LINES * config.line_bytes
    address = st.integers(0, span)
    size = st.one_of(st.integers(0, 2 * config.size_bytes),
                     st.integers(0, 3 * config.line_bytes))
    big = st.integers(slice_bytes, slice_bytes + 3 * config.size_bytes)
    op = st.one_of(
        st.tuples(st.just("touch"), address, size, st.booleans()),
        st.tuples(st.just("pin")),
        st.tuples(st.just("access"), address, st.booleans()),
        st.tuples(st.just("range"), address, size, st.booleans()),
        st.tuples(st.just("contains"), address),
        st.tuples(st.just("flush")),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    if draw(st.integers(0, 3)) == 0:
        ops.insert(draw(st.integers(0, len(ops))),
                   ("touch", draw(address), draw(big), draw(st.booleans())))
    return config, ops


def run_trace(cache, ops):
    """Apply ``ops``; return every observation in order, then resolve
    every pin and read the final counters, residency and flush."""
    seen, pins = [], []
    for op in ops:
        kind = op[0]
        if kind == "touch":
            cache.touch_range(op[1], op[2], write=op[3])
        elif kind == "pin":
            pins.append(cache.stats_pin())
        elif kind == "access":
            seen.append(cache.access(op[1], write=op[2]))
        elif kind == "range":
            seen.append(cache.access_range(op[1], op[2], write=op[3]))
        elif kind == "contains":
            seen.append(cache.contains(op[1]))
        else:
            seen.append(cache.flush())
    seen.append([vars(pin.resolve()) for pin in pins])
    seen.append(vars(cache.stats.snapshot()))
    seen.append(cache.resident_lines)
    seen.append(cache.flush())
    return seen


@given(trace=traces())
@settings(max_examples=80, deadline=None)
def test_property_replay_matches_dict_model(trace):
    pytest.importorskip("numpy")
    config, ops = trace
    assert run_trace(Cache(config), ops) == run_trace(dict_model(config), ops)


def test_replay_matches_dict_model_across_oplog_cap():
    """A forced drain at the log cap, with pins on both sides of it."""
    pytest.importorskip("numpy")
    rng = random.Random(5)
    cap = cache_module._OPLOG_CAP
    ops = []
    for i in range(cap + 2000):
        if i % 997 == 0:
            ops.append(("pin",))
        ops.append(("touch", rng.randrange(1 << 20), rng.randrange(1, 300),
                    rng.random() < 0.3))
    cache = Cache()
    cache.touch_range(0, 64)
    early = cache.stats_pin()
    assert early._value is None
    for op in [op for op in ops if op[0] == "touch"][:cap]:
        cache.touch_range(*op[1:])
    # The cap forced a drain, which resolved the pin taken before it.
    assert early._value is not None and len(cache._oplog) < cap
    assert run_trace(Cache(), ops) == run_trace(dict_model(), ops)
