"""Golden schedule of the offload call path: proxy calls and doorbells.

One RDMA KV world (``build_kv_world`` + ``deploy_cache``) runs a fixed
script: two-sided ``Put``/``Get`` proxy calls, one-sided ``get_batch``
doorbells, one ``Get`` issued while the disk is stalled and completed
after it resumes, one ``get_batch`` after the RNIC crashes (error
completions, then the two-sided fallback), and one ``Get`` blocked on a
stalled disk that then crashes.  The test pins the engine's
queue entries (``events_processed``, ``fused_resumes``), the final
clock, and the completion instant of every operation in ns.

The values in ``GOLDEN`` were captured before the call path was
flattened, before any source edit, so this is the exactness oracle for
that refactor: every queue entry of a proxy call keeps its
(time, priority, seq), and a stalled device blocks and a crashed one
fails at the same instant as before.
"""

from repro.errors import DeviceFailedError
from repro.rdma.kv import build_kv_world, deploy_cache

PUTS = 16
GETS = 6
BATCHES = 4
BATCH = 4
STALL_NS = 300_000

GOLDEN = {'events_processed': 593,
          'fused_resumes': 531,
          'log': [('deploy', 128116, 'disk0'),
                  ('put', 133815, 1),
                  ('put', 138914, 2),
                  ('put', 144013, 3),
                  ('put', 149112, 4),
                  ('put', 154211, 5),
                  ('put', 159310, 6),
                  ('put', 164409, 7),
                  ('put', 169508, 8),
                  ('put', 174607, 9),
                  ('put', 179706, 10),
                  ('put', 184805, 11),
                  ('put', 189904, 12),
                  ('put', 195003, 13),
                  ('put', 200102, 14),
                  ('put', 205201, 15),
                  ('put', 210300, 16),
                  ('get', 215688, 'v:key-0000'),
                  ('get', 220476, 'v:key-0001'),
                  ('get', 225264, 'v:key-0002'),
                  ('get', 230052, 'v:key-0003'),
                  ('get', 234840, 'v:key-0004'),
                  ('get', 239628, 'v:key-0005'),
                  ('get_batch',
                   243014,
                   [('key-0000', 'v:key-0000'),
                    ('key-0001', 'v:key-0001'),
                    ('key-0002', 'v:key-0002'),
                    ('key-0003', 'v:key-0003')]),
                  ('get_batch',
                   246400,
                   [('key-0004', 'v:key-0004'),
                    ('key-0005', 'v:key-0005'),
                    ('key-0006', 'v:key-0006'),
                    ('key-0007', 'v:key-0007')]),
                  ('get_batch',
                   249786,
                   [('key-0008', 'v:key-0008'),
                    ('key-0009', 'v:key-0009'),
                    ('key-0010', 'v:key-0010'),
                    ('key-0011', 'v:key-0011')]),
                  ('get_batch',
                   253172,
                   [('key-0012', 'v:key-0012'),
                    ('key-0013', 'v:key-0013'),
                    ('key-0014', 'v:key-0014'),
                    ('key-0015', 'v:key-0015')]),
                  ('stalled_get', 556856, 'v:key-0000'),
                  ('crashed_get_batch',
                   577338,
                   [('key-0000', 'v:key-0000'),
                    ('key-0001', 'v:key-0001'),
                    ('key-0002', 'v:key-0002'),
                    ('key-0003', 'v:key-0003')]),
                  ('fallback', 4, False),
                  ('crashed_get', 877338, 'device disk0 crashed while stalled')],
          'now': 877338}


def _script():
    """Run the script; returns (sim, [(op, completion ns, result)])."""
    world = build_kv_world()
    sim = world.sim
    keys = [f"key-{i:04d}" for i in range(PUTS)]
    log = []

    def resume_later():
        yield sim.clock.timeout(STALL_NS)
        world.disk.health.resume()

    def crash_later():
        yield sim.clock.timeout(STALL_NS)
        world.disk.health.crash()

    def application():
        yield from deploy_cache(world)
        log.append(("deploy", sim.now, world.cache.location))
        for key in keys:
            size = yield from world.proxy.Put(key, f"v:{key}")
            log.append(("put", sim.now, size))
        for key in keys[:GETS]:
            value = yield from world.proxy.Get(key)
            log.append(("get", sim.now, value))
        for start in range(BATCHES):
            chunk = keys[start * BATCH:(start + 1) * BATCH]
            got = yield from world.client.get_batch(chunk)
            log.append(("get_batch", sim.now, sorted(got.items())))
        world.disk.health.stall()
        sim.spawn(resume_later())
        value = yield from world.proxy.Get(keys[0])
        log.append(("stalled_get", sim.now, value))
        world.nic.health.crash()
        got = yield from world.client.get_batch(keys[:BATCH])
        log.append(("crashed_get_batch", sim.now, sorted(got.items())))
        log.append(("fallback", world.client.fallback_gets,
                    world.client.one_sided_ok))
        world.disk.health.stall()
        sim.spawn(crash_later())
        try:
            yield from world.proxy.Get(keys[1])
        except DeviceFailedError as exc:
            log.append(("crashed_get", sim.now, str(exc)))

    sim.run_until_event(sim.spawn(application()))
    return sim, log


def test_call_path_schedule_is_pinned():
    sim, log = _script()
    observed = {
        "events_processed": sim.events_processed,
        "fused_resumes": sim.fused_resumes,
        "now": sim.now,
        "log": log,
    }
    assert observed == GOLDEN


if __name__ == "__main__":
    import pprint
    sim, log = _script()
    pprint.pprint({"events_processed": sim.events_processed,
                   "fused_resumes": sim.fused_resumes,
                   "now": sim.now, "log": log}, width=78)
