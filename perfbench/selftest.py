#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one short traced run twice
with one seed and once with another, and one short untraced run, then
checks that:
  - every run is correct and prints exactly the metrics BENCHMARK.json
    declares (end_to_end untraced, per_layer traced);
  - the deterministic per-layer counts repeat exactly for one seed and
    change with a different seed;
  - a layer the workload bypasses reports 0 and a layer it runs does not,
    and the serving workloads drop no request at their chosen rates.
Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pure functions of the simulation and the seed.
DETERMINISTIC = [
    "sim.events", "core.infer_calls", "core.samples", "core.infer_host_us.samples",
    "cache.llc_accesses", "cache.llc_miss_frac", "dlrm.mlp_macs",
    "core.fabric_grants", "cachetier.lookups", "cachetier.hit_frac",
    "cachetier.evictions", "ctrlplane.hedge_dispatches",
    "ctrlplane.hedge_win_frac", "cluster.remote_reads",
    "cluster.remote_read_bytes", "cluster.connection_setups",
    "modelled.latency_sim_us.p50", "modelled.latency_sim_us.p99",
    "modelled.queue_sim_us.mean", "modelled.emb_sim_us.mean",
    "modelled.mlp_sim_us.mean", "modelled.fabric_wait_sim_us.mean",
    "modelled.drop_frac", "modelled.utilization",
    "modelled.centaur_speedup.min", "modelled.centaur_speedup.max",
    "trace.spans",
]

# Layers each workload runs, so their metric is nonzero.
NONZERO = {
    "paper_sweep": ["core.infer_s.cpu", "core.infer_s.cpu_gpu",
                    "core.infer_s.cpu_fpga", "core.setup.make_system_s",
                    "dlrm.workload_next_s", "cache.llc_accesses",
                    "modelled.centaur_speedup.max"],
    "serve_uniform": ["sim.events", "core.engine_self_s",
                      "core.setup.make_workers_s", "core.fabric_grants",
                      "dlrm.workload_next_s", "modelled.utilization"],
    "cluster_zipf": ["sim.events", "core.setup.topology_s",
                     "cachetier.lookups", "ctrlplane.hedge_dispatches",
                     "cluster.remote_reads", "cluster.connection_setups"],
}
# Layers each workload bypasses, and the drops its chosen rate avoids.
ZERO = {
    "paper_sweep": ["sim.events", "core.engine_self_s", "core.fabric_grants",
                    "cachetier.lookups", "ctrlplane.hedge_dispatches",
                    "cluster.remote_reads", "modelled.queue_sim_us.mean"],
    "serve_uniform": ["core.infer_s.cpu_fpga", "cachetier.lookups",
                      "ctrlplane.hedge_dispatches", "cluster.remote_reads",
                      "modelled.drop_frac", "modelled.centaur_speedup.max"],
    "cluster_zipf": ["core.infer_s.cpu_gpu", "core.setup.make_workers_s",
                     "modelled.drop_frac", "modelled.centaur_speedup.max"],
}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    result = json.loads(out.strip().split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"FAIL {workload} seed {seed}: run not correct\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        plain = run(w, 1, 0)
        a, b, c = run(w, 1, 1), run(w, 1, 1), run(w, 2, 1)
        if set(plain) != e2e or set(a) != layer:
            sys.exit(f"FAIL {w}: printed metrics differ from BENCHMARK.json")
        moved = [k for k in DETERMINISTIC if a[k] != b[k]]
        if moved:
            sys.exit(f"FAIL {w}: counts differ for one seed: {moved}")
        if all(a[k] == c[k] for k in DETERMINISTIC):
            sys.exit(f"FAIL {w}: no count changes with the seed")
        zero = [k for k in NONZERO[w] if a[k] == 0]
        nonzero = [k for k in ZERO[w] if a[k] != 0]
        if zero or nonzero:
            sys.exit(f"FAIL {w}: zero {zero}; nonzero {nonzero}")
        print(f"ok {w}")


if __name__ == "__main__":
    main()
