"""Golden rows of the paper's Tables 2-4 and Figure 10, seed 0, 1 s.

The benchmark suite checks the 25 s runs against the paper's bands;
these tier-1 tests pin the same experiment drivers exactly, at a
reduced duration, so any change to what the models compute shows up
here even when it stays inside the bands.  The CPU and L2 samplers run
on a 100 ms window (the paper's 5 s window would leave a 1 s run with
no sample), giving ten windows per scenario.

The values were captured from the drivers before the periodic kernel
tick became lazy; every pinned row must stay identical.
"""

import pytest

from repro import units
from repro.evaluation import experiments
from repro.tivopc.metrics import PeriodicSampler

SECONDS = 1.0
WINDOW_NS = 100 * units.MS

# scenario -> (Table 2 jitter row (median, average, stdev, count) in ms,
#              Table 3 server CPU row (median, average, stdev, windows),
#              server L2 miss rate (Figure 10), packets received)
SERVER = {
    "idle": (None,
             (0.023252219999999997, 0.024845247, 0.003788502557768834, 10),
             0.6169149612280246, 0),
    "simple": ((7.067858, 7.063390585185185, 0.5393818017930773, 135),
               (0.06920321, 0.069854784, 0.004664990857209046, 10),
               0.6729636466686166, 141),
    "sendfile": ((6.0189, 6.046230509433962, 0.36474605640281726, 159),
                 (0.056472095, 0.057209529, 0.00449667239053158, 10),
                 0.6145213547928914, 165),
    "offloaded": ((4.998653, 4.9998523626943, 0.03386887356026929, 193),
                  (0.023475194999999997, 0.02493569,
                   0.0037433330625500053, 10),
                  0.6169170875158526, 199),
}

# scenario -> (Table 4 client CPU row, client L2 miss rate, chunks,
#              frames, recorded bytes)
CLIENT = {
    "idle": ((0.028792125000000002, 0.028035083, 0.005109620918240511, 10),
             0.673193934465561, 0, 0, 0),
    "user-space": ((0.06913795, 0.068271263, 0.0060475106503222464, 10),
                   0.7299495119638586, 199, 24, 203776),
    "offloaded": ((0.028792125000000002, 0.028262812,
                   0.0052633983013957815, 10),
                  0.6731820436155384, 199, 24, 203776),
}


class _WindowedSampler(PeriodicSampler):
    """The drivers' sampler on the short golden window."""

    def __init__(self, sim, cpu, cache=None, period_ns=WINDOW_NS):
        super().__init__(sim, cpu, cache, period_ns)


@pytest.fixture
def short_windows(monkeypatch):
    monkeypatch.setattr(experiments, "PeriodicSampler", _WindowedSampler)


def _row(stats):
    if stats is None:
        return None
    return (stats.median, stats.average, stats.stdev, stats.count)


@pytest.mark.parametrize("scenario", sorted(SERVER))
def test_server_rows_match_golden(scenario, short_windows):
    result = experiments.run_server_scenario(scenario, seconds=SECONDS,
                                             seed=0)
    assert (_row(result.jitter), _row(result.cpu), result.l2_miss_rate,
            result.packets) == SERVER[scenario]


@pytest.mark.parametrize("scenario", sorted(CLIENT))
def test_client_rows_match_golden(scenario, short_windows):
    result = experiments.run_client_scenario(scenario, seconds=SECONDS,
                                             seed=0)
    assert (_row(result.cpu), result.l2_miss_rate, result.chunks,
            result.frames, result.recorded_bytes) == CLIENT[scenario]


def test_golden_rows_keep_the_paper_orderings():
    """The pinned rows themselves show the paper's qualitative claims."""
    jitter_stdev = {s: SERVER[s][0][2] for s in ("simple", "sendfile",
                                                 "offloaded")}
    assert (jitter_stdev["offloaded"] < jitter_stdev["sendfile"]
            < jitter_stdev["simple"])
    server_cpu = {s: row[1][1] for s, row in SERVER.items()}
    assert server_cpu["offloaded"] < server_cpu["sendfile"] < server_cpu["simple"]
    # Figure 10: the simple server's copies raise the L2 miss rate over
    # idle; the offloaded server leaves it where idle has it.
    idle_l2 = SERVER["idle"][2]
    assert SERVER["simple"][2] / idle_l2 > 1.03
    assert SERVER["offloaded"][2] / idle_l2 == pytest.approx(1.0, abs=0.01)
    assert CLIENT["user-space"][0][1] > CLIENT["offloaded"][0][1]
