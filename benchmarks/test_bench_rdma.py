"""RDMA substrate benchmarks: one-sided KV gets and the sPIN filter.

Every claim here is simulated (time, host CPU, packet counts), so each
is gated on the live run and the artifacts are committed and diffed.
The KV cache's wall clock is perfbench's ``kv_mixed`` workload; the sPIN
filter's is the harness's ``spin_filter`` row.
"""

from conftest import publish

from harness import bench_spin_filter

from repro.rdma.kv import run_kv_scenario


def test_bench_rdma_kv(one_shot):
    report = one_shot(run_kv_scenario, keys=192, batch=8)
    one_sided_ns, rpc_ns = report["one_sided_ns"], report["rpc_ns"]
    kv = {key: report[key] for key in (
        "sim_ns", "events", "keys", "one_sided_ns", "rpc_ns", "doorbells",
        "rdma_reads", "one_sided_host_cpu_ns", "rpc_host_cpu_ns")}
    kv.update(speedup_sim=rpc_ns / one_sided_ns,
              one_sided_gets_per_sim_sec=report["keys"] * 1e9 / one_sided_ns,
              rpc_gets_per_sim_sec=report["keys"] * 1e9 / rpc_ns,
              correct=1.0 if report["correct"] else 0.0,
              conservation_ok=1.0 if report["imbalance"] == 0 else 0.0)
    publish("rdma_kv", "\n".join([
        f"RDMA KV cache -- {kv['keys']:.0f} keys, one-sided vs RPC",
        f"one-sided sweep      {kv['one_sided_ns']:>14,.0f} sim-ns",
        f"two-sided sweep      {kv['rpc_ns']:>14,.0f} sim-ns",
        f"speedup              {kv['speedup_sim']:>13.2f}x",
        f"one-sided host CPU   {kv['one_sided_host_cpu_ns']:>14,.0f} ns",
        f"two-sided host CPU   {kv['rpc_host_cpu_ns']:>14,.0f} ns",
        f"doorbells / reads    {kv['doorbells']:>8.0f} / "
        f"{kv['rdma_reads']:.0f}",
    ]), data=kv)

    assert kv["correct"] == 1
    assert kv["conservation_ok"] == 1
    # The substrate's reason to exist: one-sided batched gets beat
    # two-sided RPC gets by a wide margin in simulated time, and spend
    # less host CPU.
    assert kv["speedup_sim"] >= 2.0
    assert kv["one_sided_gets_per_sim_sec"] > kv["rpc_gets_per_sim_sec"]
    assert kv["one_sided_host_cpu_ns"] < kv["rpc_host_cpu_ns"]
    assert kv["doorbells"] * 2 <= kv["rdma_reads"]   # batching amortized


def test_bench_spin_filter(one_shot):
    spin = one_shot(bench_spin_filter)
    publish("spin_filter", "\n".join([
        f"sPIN telemetry filter -- {spin['rx_packets']:.0f} packets "
        "received",
        f"handled in-network   {spin['spin_handled']:>10.0f}",
        f"dropped (denylist)   {spin['spin_dropped']:>10.0f}",
        f"escalated (sampled)  {spin['spin_to_host']:>10.0f}",
        f"budget overruns      {spin['budget_overruns']:>10.0f}",
        f"host saw             {spin['host_rx_packets']:>10.0f} packets "
        f"({100 * (1 - spin['host_absorption']):.1f} %)",
        f"host CPU on rx path  {spin['host_cpu_ns']:>10,.0f} ns",
    ]), data=spin)

    assert spin["accounted"] == 1      # handled + punted == received
    assert spin["spin_dropped"] > 0
    assert spin["budget_overruns"] > 0
    # In-network absorption is the point: the host sleeps through the
    # overwhelming majority of the line.
    assert spin["host_absorption"] >= 0.75
