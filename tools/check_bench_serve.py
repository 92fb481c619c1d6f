#!/usr/bin/env python3
"""Gate the serving-throughput benchmark.

Reads the JSON written by

    serve_throughput --json BENCH_serve.json

and fails (exit 1) on any of four regressions:

1. ShardedServer losing its edge over its own one-shard
   configuration (the single batcher) under interactive (depth-1
   closed-loop) clients. The acceptance bar is sharded >= 1.5x the
   one-shard aggregate pairs/sec at 4 shards; the win there is
   mostly structural (a 4-way partitioned cache holds 4x the latents
   at the same per-shard budget, so the deterministic re-encode
   count collapses), which is why a throughput ratio makes a
   workable CI gate: a regression in the cache partitioning, the
   split/join path, or the shard loop shows up as the encode storm
   returning, not as scheduler noise. The 1-, 2-, 4- and 8-shard
   servers stay live and the clients drive them in alternating
   rounds (each row's "rounds" holds one rate per round, in run
   order); the gate takes the median of the per-round ratios. One
   whole run of each failed the floor in 4 of 135 runs on a noisy
   host with nothing regressed.

2. Noisy-neighbor isolation: the interactive tenant's p99
   latency with a quota-capped bulk flood running must stay <= 3x
   its flood-free p99. The token bucket sheds the flood at submit
   time and the two-lane batcher flushes the interactive lane on its
   own deadline, so a broken quota or a batch lane leaking into the
   interactive flush shows up here as a p99 blow-up. The two
   scenarios run in alternating rounds ("p99_rounds" holds one p99
   per round) and the gate takes the median per-round ratio: a p99
   of one short run is read from power-of-two histogram buckets, so
   one bucket step decided a one-run comparison in 7 of 91 runs.

3. Metrics-plane overhead: the same interactive workload
   through a fully instrumented one-shard server (MetricsRegistry +
   per-request latency histograms + SLO tracking + a background
   sampler) must stay >= 0.97x the bare server. Recording is relaxed
   atomic adds outside the server's stats mutex, so a lower ratio
   means metrics work leaked into a serial section (e.g. a registry
   map lookup per request instead of a cached instrument ref). Both
   servers stay live and the clients drive them in alternating
   rounds; the gate takes the median of the per-round ratios: one
   whole run of each failed the floor in 32 of 100 runs on a noisy
   host with nothing regressed.

4. Process-isolation overhead: the same interactive
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
   digest routing shows every worker the whole tree pool. The worker
   fleet runs in the same alternating rounds as the in-process
   servers, and the gate takes the median per-round ratio.
"""

import statistics
import sys

import bench_gate


# shard count -> minimum sharded/one-shard throughput ratio; 4
# shards is the ISSUE-4 acceptance bar.
SHARD_FLOORS = {
    4: 1.5,
}

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


def round_ratios(num, den, key="rounds"):
    """Per-round num/den ratios of two rows measured in alternating
    rounds (`key` names the per-round series). Rounds pair up in run
    order: each round ran the same work through both back to back, so
    its ratio cancels host drift."""
    return [n / d for n, d in zip(
        num.get(key, []) if num else [],
        den.get(key, []) if den else []) if d > 0]


def median_or_none(values):
    return statistics.median(values) if values else None


def main() -> int:
    data = bench_gate.load_json(sys.argv, "BENCH_serve.json")

    sharded = {}
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
          f"({baseline.get('trees_encoded', '?')} trees encoded, "
          f"median round)")

    ok = True
    for shards, floor in sorted(SHARD_FLOORS.items()):
        row = sharded.get(shards)
        ratios = round_ratios(row, baseline)
        detail = (f"median of {len(ratios)} rounds; "
                  f"{row['pairs_per_sec']:10.0f} pairs/s  "
                  f"({row.get('trees_encoded', '?')} trees encoded)"
                  if ratios else "")
        ok &= bench_gate.gate_ratio(f"{shards} shards",
                                    median_or_none(ratios), 1.0, floor,
                                    detail)

    # solo/flood >= 1/3  <=>  flood p99 <= 3x solo p99.
    ratios = round_ratios(tenant_solo, tenant_flood, key="p99_rounds")
    detail = (f"median of {len(ratios)} rounds; solo p99 "
              f"{tenant_solo['p99_ms']:6.2f} ms vs flood p99 "
              f"{tenant_flood['p99_ms']:6.2f} ms (median rounds)"
              if ratios else "")
    ok &= bench_gate.gate_ratio("noisy neighbor p99",
                                median_or_none(ratios), 1.0,
                                NOISY_NEIGHBOR_FLOOR, detail)

    ratios = round_ratios(metrics_on, metrics_off)
    median_ratio = median_or_none(ratios)
    detail = (f"median of {len(ratios)} rounds; on "
              f"{metrics_on['pairs_per_sec']:10.0f} vs off "
              f"{metrics_off['pairs_per_sec']:10.0f} pairs/s"
              if ratios else "")
    ok &= bench_gate.gate_ratio("metrics overhead", median_ratio,
                                1.0, METRICS_FLOOR, detail)

    sharded_ref = sharded.get(IPC_SHARDS)
    ratios = round_ratios(ipc, sharded_ref)
    detail = (f"median of {len(ratios)} rounds; ipc "
              f"{ipc['pairs_per_sec']:10.0f} vs sharded-{IPC_SHARDS} "
              f"{sharded_ref['pairs_per_sec']:10.0f} pairs/s"
              if ratios else "")
    ok &= bench_gate.gate_ratio("process isolation",
                                median_or_none(ratios), 1.0, IPC_FLOOR,
                                detail)

    return bench_gate.finish(ok)


if __name__ == "__main__":
    sys.exit(main())
