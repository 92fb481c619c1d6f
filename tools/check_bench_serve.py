#!/usr/bin/env python3
"""Gate the serving-throughput benchmark.

Reads the JSON written by

    serve_throughput --json BENCH_serve.json

and fails (exit 1) on either of two regressions:

1. ShardedServer losing its edge over its own one-shard
   configuration (the single batcher) under interactive (depth-1
   closed-loop) clients. The acceptance bar is sharded >= 1.5x the
   one-shard aggregate pairs/sec at 4 shards; the win there is
   mostly structural (a 4-way partitioned cache holds 4x the latents
   at the same per-shard budget, so the deterministic re-encode
   count collapses), which is why a throughput ratio makes a
   workable CI gate: a regression in the cache partitioning, the
   split/join path, or the shard loop shows up as the encode storm
   returning, not as scheduler noise.

2. ModelRegistry overhead (ISSUE 5): the same single-model batched
   workload through a registry-backed Engine must stay >= 0.95x the
   direct Engine — per-batch name resolution is one mutex-protected
   map probe amortised over a whole batch, so a lower ratio means
   the resolution (or the namespaced cache keys) leaked real work
   into the hot path. The two engines alternate batch by batch
   (each row's "rounds" holds one rate per batch, in run order), and
   the gate takes the median of the per-round ratios: one whole run
   of each read 0.61-0.94x in a quarter of runs on a noisy host with
   nothing regressed.

3. Noisy-neighbor isolation (ISSUE 6): the interactive tenant's p99
   latency with a quota-capped bulk flood running must stay <= 3x
   its flood-free p99. The token bucket sheds the flood at submit
   time and the two-lane batcher flushes the interactive lane on its
   own deadline, so a broken quota or a batch lane leaking into the
   interactive flush shows up here as a p99 blow-up.

4. Metrics-plane overhead (ISSUE 7): the same interactive workload
   through a fully instrumented one-shard server (MetricsRegistry +
   per-request latency histograms + SLO tracking + a background
   sampler) must stay >= 0.97x the bare server. Recording is relaxed
   atomic adds outside the server's stats mutex, so a lower ratio
   means metrics work leaked into a serial section (e.g. a registry
   map lookup per request instead of a cached instrument ref). Both
   servers stay live and the clients drive them in alternating
   rounds; the gate takes the median of the per-round ratios, as for
   the registry rows: one whole run of each failed the floor in 32
   of 100 runs on a noisy host with nothing regressed.

5. Process-isolation overhead (ISSUE 8): the same interactive
   workload on ProcessShardedServer (4 crash-isolated worker
   processes) must stay >= 0.45x the in-process ShardedServer at 4
   shards. The tax is tree serialization plus a pipelined socketpair
   round trip per batch; the steady state sits near 0.55x with
   ~±10% run-to-run noise, and the floor is set below that band
   because the regression this gate exists to catch — per-PAIR work
   creeping into the per-BATCH wire path (e.g. trees serialized once
   per pair instead of deduped once per batch) — lands at 0.2x or
   worse, far below any noise. The bench provisions
   each worker's private cache pool-resident so this row measures
   the wire tax and not cache geometry: worker processes cannot
   share a digest-partitioned cache across address spaces, and
   digest routing shows every worker the whole tree pool.
"""

import statistics
import sys

import bench_gate


# shard count -> minimum sharded/one-shard throughput ratio; 4
# shards is the ISSUE-4 acceptance bar.
SHARD_FLOORS = {
    4: 1.5,
}

# Registry-through-single-model vs direct Engine (ISSUE 5).
REGISTRY_FLOOR = 0.95

# Interactive-tenant p99 under flood may be at most 3x the solo p99
# (ISSUE 6). Gated as solo/flood >= 1/3 so the shared ratio-floor
# helper applies unchanged.
NOISY_NEIGHBOR_FLOOR = 1.0 / 3.0

# Instrumented vs bare one-shard server throughput (ISSUE 7).
METRICS_FLOOR = 0.97

# ProcessShardedServer vs in-process ShardedServer at the same shard
# count (ISSUE 8): the price of crash isolation, bounded. Set below
# the observed ~0.55x +/- noise band; the per-pair-wire-work
# regression this guards against lands at <= 0.2x.
IPC_FLOOR = 0.45
IPC_SHARDS = 4


def round_ratios(num, den):
    """Per-round num/den rate ratios of two rows measured in
    alternating rounds. Rounds pair up in run order: each round ran
    the same work through both back to back, so its ratio cancels
    host drift."""
    return [n / d for n, d in zip(
        num.get("rounds", []) if num else [],
        den.get("rounds", []) if den else []) if d > 0]


def main() -> int:
    data = bench_gate.load_json(sys.argv, "BENCH_serve.json")

    sharded = {}
    direct = None
    registry = None
    tenant_solo = None
    tenant_flood = None
    metrics_off = None
    metrics_on = None
    ipc = None
    for row in data.get("rows", []):
        if row.get("mode") == "sharded":
            sharded[int(row.get("shards", 0))] = row
        elif (row.get("mode") == "ipc"
              and int(row.get("shards", 0)) == IPC_SHARDS):
            ipc = row
        elif row.get("mode") == "engine_direct":
            direct = row
        elif row.get("mode") == "engine_registry":
            registry = row
        elif row.get("mode") == "tenant_solo":
            tenant_solo = row
        elif row.get("mode") == "tenant_flood":
            tenant_flood = row
        elif row.get("mode") == "metrics_off":
            metrics_off = row
        elif row.get("mode") == "metrics_on":
            metrics_on = row

    baseline = sharded.get(1)
    if baseline is None or baseline.get("pairs_per_sec", 0) <= 0:
        print("missing 1-shard sharded baseline row")
        return 1

    base_rate = baseline["pairs_per_sec"]
    print(f"one-shard baseline {base_rate:10.0f} pairs/s  "
          f"({baseline.get('trees_encoded', '?')} trees encoded)")

    ok = True
    for shards, floor in sorted(SHARD_FLOORS.items()):
        row = sharded.get(shards)
        rate = row["pairs_per_sec"] if row else None
        detail = (f"{rate:10.0f} pairs/s  "
                  f"({row.get('trees_encoded', '?')} trees encoded)"
                  if row else "")
        ok &= bench_gate.gate_ratio(f"{shards} shards", rate,
                                    base_rate, floor, detail)

    ratios = round_ratios(registry, direct)
    median_ratio = statistics.median(ratios) if ratios else None
    detail = (f"median of {len(ratios)} rounds; registry "
              f"{registry['pairs_per_sec']:10.0f} vs direct "
              f"{direct['pairs_per_sec']:10.0f} pairs/s"
              if ratios else "")
    ok &= bench_gate.gate_ratio("registry overhead", median_ratio,
                                1.0, REGISTRY_FLOOR, detail)

    solo_p99 = tenant_solo["p99_ms"] if tenant_solo else None
    flood_p99 = tenant_flood["p99_ms"] if tenant_flood else None
    detail = (f"solo p99 {solo_p99:6.2f} ms vs flood p99 "
              f"{flood_p99:6.2f} ms"
              if tenant_solo and tenant_flood else "")
    # solo/flood >= 1/3  <=>  flood p99 <= 3x solo p99.
    ok &= bench_gate.gate_ratio("noisy neighbor p99", solo_p99,
                                flood_p99, NOISY_NEIGHBOR_FLOOR,
                                detail)

    ratios = round_ratios(metrics_on, metrics_off)
    median_ratio = statistics.median(ratios) if ratios else None
    detail = (f"median of {len(ratios)} rounds; on "
              f"{metrics_on['pairs_per_sec']:10.0f} vs off "
              f"{metrics_off['pairs_per_sec']:10.0f} pairs/s"
              if ratios else "")
    ok &= bench_gate.gate_ratio("metrics overhead", median_ratio,
                                1.0, METRICS_FLOOR, detail)

    sharded_ref = sharded.get(IPC_SHARDS)
    ref_rate = sharded_ref["pairs_per_sec"] if sharded_ref else None
    ipc_rate = ipc["pairs_per_sec"] if ipc else None
    detail = (f"ipc {ipc_rate:10.0f} vs sharded-{IPC_SHARDS} "
              f"{ref_rate:10.0f} pairs/s"
              if ipc and sharded_ref else "")
    ok &= bench_gate.gate_ratio("process isolation", ipc_rate,
                                ref_rate, IPC_FLOOR, detail)

    return bench_gate.finish(ok)


if __name__ == "__main__":
    sys.exit(main())
