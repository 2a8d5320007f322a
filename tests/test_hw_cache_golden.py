"""Golden cache statistics for one seeded host-streaming run.

The L2 counters behind Figure 10 and the Table 3/4 host rows come from
replaying every cache's deferred op log.  This test pins what a
1-simulated-second ``SimpleServer`` -> ``UserSpaceClient`` testbed
(seed 0) produces, so any change to the replay that moves a counter --
or a sampler window -- fails here, not only in a benchmark comparison.
"""

from repro import units
from repro.tivopc import SimpleServer, Testbed, TestbedConfig, UserSpaceClient
from repro.tivopc.metrics import PeriodicSampler

# (hits, misses, evictions, writebacks) per machine after the run.
GOLDEN_L2 = {
    "server": (47474, 97163, 93067, 4336),
    "client": (42741, 106947, 102851, 10260),
    "nas": (11027, 15893, 11797, 4695),
}

# Per-window (hits, misses) of a 100 ms sampler on each host.
GOLDEN_WINDOWS = {
    "server": [(1755, 11790), (4501, 10389), (5575, 9263), (4698, 10134),
               (4977, 8572), (6245, 8593), (5798, 9128), (3767, 11071),
               (5360, 9472), (4798, 8751)],
    "client": [(3097, 10471), (3738, 11834), (4284, 11260), (4088, 10185),
               (2628, 12270), (4644, 10902), (4879, 10693), (4932, 9339),
               (3286, 11620), (7165, 8373)],
}


def test_simple_server_cache_statistics_are_golden():
    testbed = Testbed(TestbedConfig(seed=0))
    testbed.start()
    UserSpaceClient(testbed).start()
    SimpleServer(testbed).start()
    samplers = {}
    for name in GOLDEN_WINDOWS:
        machine = getattr(testbed, name).machine
        sampler = PeriodicSampler(testbed.sim, machine.cpu, machine.l2,
                                  period_ns=100 * units.MS)
        testbed.sim.spawn(sampler.process(), name=f"sampler-{name}")
        samplers[name] = sampler
    testbed.run(1.0)

    for name, sampler in samplers.items():
        windows = [(w.hits, w.misses) for w in sampler.cache_windows]
        assert windows == GOLDEN_WINDOWS[name], name
        assert sampler.miss_rates() == [m / (h + m) for h, m in windows]
    for name, golden in GOLDEN_L2.items():
        stats = getattr(testbed, name).machine.l2.stats
        assert (stats.hits, stats.misses, stats.evictions,
                stats.writebacks) == golden, name
