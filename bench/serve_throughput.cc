/**
 * @file
 * Serving-throughput comparison, three rungs of the serving ladder:
 *
 *  1. N closed-loop clients calling the synchronous Engine one
 *     request at a time;
 *  2. the same clients submitting futures to a one-shard
 *     ShardedServer, which batches across requests (one batcher
 *     thread);
 *  3. the same clients on ShardedServer at 1/2/4/8 shards — N
 *     batcher threads over a partitioned encoding cache.
 *
 * A fourth measurement gates the metrics plane: the interactive
 * workload through a bare one-shard server vs one with the full
 * MetricsRegistry/SloTracker/sampler stack attached, the two live
 * servers driven in alternating rounds. The median per-round ratio
 * must stay >= 0.97x bare — recording is relaxed atomics outside
 * the server's stats mutex, so a lower ratio means metrics work
 * leaked into a serial section.
 *
 * The workload models a busy ranking service under cache pressure:
 * requests draw pairs from a tree pool larger than any single
 * encoding cache, so the synchronous path keeps re-encoding evicted
 * trees and the single batcher is bounded by one thread's serial
 * sections plus one 12-entry LRU. Sharding attacks both: up to N
 * batches execute concurrently, and the partitioned cache holds
 * numShards * 12 latents at the same fixed per-shard memory budget,
 * so eviction pressure collapses as shards are added. The report
 * includes trees-encoded counts so the mechanism (not just the
 * speedup) is visible.
 *
 * Every ratio a CI gate reads (4 shards vs 1, flood vs solo p99,
 * metrics on vs off) is measured in alternating rounds: each round
 * sends the same slice of every client's stream through each
 * configuration back to back, in an order that rotates per round,
 * and the gate takes the median per-round ratio, so host drift
 * between two one-shot runs cannot decide it.
 *
 * Usage: ./serve_throughput [--json BENCH_serve.json]
 * (CCSA_SCALE scales requests per client; the JSON feeds
 * tools/check_bench_serve.py, which gates sharded >= 1.5x the
 * one-shard rate at 4 shards in CI. Every server row reports p99_ms
 * from its server's merged latency histogram.)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "base/stats.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "frontend/parser.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/metrics_sampler.hh"
#include "serve/metrics/slo_tracker.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/sharded_server.hh"

using namespace ccsa;

namespace
{

/** Distinct tiny program: `loops` loops plus `pad` extra decls. */
Ast
makeVariant(int loops, int pad)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int p = 0; p < pad; ++p)
        src += " int pad" + std::to_string(p) + " = " +
            std::to_string(p) + ";\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

Engine::Options
servingOptions()
{
    // A cache smaller than the tree pool: the memory-pressure regime
    // where cross-request dedup (and cache sharding) pays the most.
    // cacheCapacity is per shard, so the single-cache baselines hold
    // 12 of the 48 pool trees while a 4-shard server holds all 48 at
    // the same per-shard budget — sharding converts a thrashing
    // cache into a resident one without growing any single shard.
    return Engine::Options()
        .withEmbedDim(24)
        .withHiddenDim(32)
        .withSeed(42)
        .withThreads(0)
        .withCacheCapacity(12);
}

struct WorkItem
{
    int first;
    int second;
};

/** Deterministic per-client request stream over the tree pool. */
std::vector<WorkItem>
clientStream(int client, int requests, int poolSize)
{
    Rng rng(1000 + static_cast<std::uint64_t>(client));
    std::vector<WorkItem> items;
    items.reserve(static_cast<std::size_t>(requests));
    for (int k = 0; k < requests; ++k) {
        int i = rng.uniformInt(0, poolSize - 1);
        int j = rng.uniformInt(0, poolSize - 2);
        if (j >= i)
            ++j;
        items.push_back(WorkItem{i, j});
    }
    return items;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One measured configuration, also emitted as a JSON row. */
struct BenchRow
{
    std::string mode; // sync|batched|sharded|ipc|
                      // tenant_solo|tenant_flood|
                      // metrics_off|metrics_on
    int clients = 0;
    int shards = 0; // 0 for the serverless modes
    double pairsPerSec = 0.0;
    std::uint64_t treesEncoded = 0;
    /** Server rows: p99 latency from the server's merged histogram
     * (tenant_* rows: the interactive tenant's median round); 0 for
     * sync rows, which have no server. */
    double p99Ms = 0.0;
    /** Per-round rates of a row measured in alternating rounds
     * (sharded, tenant_* and metrics_* rows; pairsPerSec is their
     * median); empty otherwise. */
    std::vector<double> rounds{};
    /** tenant_* rows: the interactive tenant's p99 per round. */
    std::vector<double> p99Rounds{};
};

/** A one-shard server configured like the serving rows: the
 * single-batcher baseline. */
ShardedServer::Options
oneShard(std::chrono::microseconds maxBatchDelay)
{
    // Encoder threads follow servingOptions() (hardware count), as
    // the engine of a lone batcher would.
    return ShardedServer::Options()
        .withNumShards(1)
        .withThreadsPerShard(servingOptions().threads)
        .withQueueCapacity(1024)
        .withMaxBatchSize(256)
        .withMaxBatchDelay(maxBatchDelay);
}

/** Drive a deep-pipelining client fleet: every request is submitted
 * up front, then all futures are drained. Batches grow as large as
 * the backlog allows — the regime where ONE batcher shines. */
template <typename SubmitFn>
double
runPipelinedClients(int clients,
                    const std::vector<std::vector<WorkItem>>& streams,
                    const std::vector<Ast>& pool, SubmitFn submit)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<std::future<Result<double>>> futures;
            futures.reserve(streams[0].size());
            for (const WorkItem& w :
                 streams[static_cast<std::size_t>(c)])
                futures.push_back(submit(
                    pool[static_cast<std::size_t>(w.first)],
                    pool[static_cast<std::size_t>(w.second)]));
            for (auto& f : futures) {
                Result<double> r = f.get();
                if (!r.isOk())
                    std::fprintf(stderr, "client: %s\n",
                                 r.status().toString().c_str());
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    double total = static_cast<double>(clients) *
        static_cast<double>(streams[0].size());
    return total / secondsSince(start);
}

/** Drive an interactive client fleet: one outstanding request per
 * client (submit, wait, repeat). Batches are bounded by the client
 * count, so cross-request dedup can no longer mask a thrashing
 * cache — the regime sharded serving is for. */
template <typename SubmitFn>
double
runClosedLoopClients(int clients,
                     const std::vector<std::vector<WorkItem>>& streams,
                     const std::vector<Ast>& pool, SubmitFn submit)
{
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            for (const WorkItem& w :
                 streams[static_cast<std::size_t>(c)]) {
                Result<double> r =
                    submit(pool[static_cast<std::size_t>(w.first)],
                           pool[static_cast<std::size_t>(w.second)])
                        .get();
                if (!r.isOk())
                    std::fprintf(stderr, "client: %s\n",
                                 r.status().toString().c_str());
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    double total = static_cast<double>(clients) *
        static_cast<double>(streams[0].size());
    return total / secondsSince(start);
}

/** Every client's stream cut into `rounds` consecutive slices of
 * `perRound` requests: slices[r][c] is client c's share of round r.
 * Client c draws from the stream seeded `seed + c`. */
std::vector<std::vector<std::vector<WorkItem>>>
roundSlices(int clients, int rounds, int perRound, int poolSize,
            int seed)
{
    std::vector<std::vector<std::vector<WorkItem>>> slices(
        static_cast<std::size_t>(rounds));
    for (int c = 0; c < clients; ++c) {
        std::vector<WorkItem> stream =
            clientStream(seed + c, rounds * perRound, poolSize);
        for (int r = 0; r < rounds; ++r)
            slices[static_cast<std::size_t>(r)].emplace_back(
                stream.begin() + r * perRound,
                stream.begin() + (r + 1) * perRound);
    }
    return slices;
}

/** Run `leg(k, slice)` for every configuration k < n in alternating
 * rounds: round r sends slices[r] through each configuration back to
 * back, starting with configuration r % n, so host drift hits every
 * configuration alike and each round's ratios compare the same work.
 * @return each configuration's per-round results. */
template <typename LegFn>
std::vector<std::vector<double>>
runAlternatingRounds(
    std::size_t n,
    const std::vector<std::vector<std::vector<WorkItem>>>& slices,
    LegFn leg)
{
    std::vector<std::vector<double>> out(n);
    for (std::size_t r = 0; r < slices.size(); ++r)
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t k = (r + i) % n;
            out[k].push_back(leg(k, slices[r]));
        }
    return out;
}

/** Per-round a/b ratios of two configurations run in alternating
 * rounds. */
std::vector<double>
roundRatios(const std::vector<double>& a, const std::vector<double>& b)
{
    std::vector<double> out;
    for (std::size_t r = 0; r < a.size() && r < b.size(); ++r)
        if (b[r] > 0.0)
            out.push_back(a[r] / b[r]);
    return out;
}

void
writeJson(const std::string& path, int poolSize,
          int requestsPerClient, const std::vector<BenchRow>& rows)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"serve_throughput\",\n");
    std::fprintf(f, "  \"pool_size\": %d,\n", poolSize);
    std::fprintf(f, "  \"requests_per_client\": %d,\n",
                 requestsPerClient);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BenchRow& r = rows[i];
        std::fprintf(f,
                     "    {\"mode\": \"%s\", \"clients\": %d, "
                     "\"shards\": %d, \"pairs_per_sec\": %.1f, "
                     "\"trees_encoded\": %llu, \"p99_ms\": %.3f",
                     r.mode.c_str(), r.clients, r.shards,
                     r.pairsPerSec,
                     static_cast<unsigned long long>(r.treesEncoded),
                     r.p99Ms);
        if (!r.p99Rounds.empty()) {
            std::fprintf(f, ", \"p99_rounds\": [");
            for (std::size_t k = 0; k < r.p99Rounds.size(); ++k)
                std::fprintf(f, "%s%.3f", k == 0 ? "" : ", ",
                             r.p99Rounds[k]);
            std::fprintf(f, "]");
        }
        if (!r.rounds.empty()) {
            std::fprintf(f, ", \"rounds\": [");
            for (std::size_t k = 0; k < r.rounds.size(); ++k)
                std::fprintf(f, "%s%.1f", k == 0 ? "" : ", ",
                             r.rounds[k]);
            std::fprintf(f, "]");
        }
        std::fprintf(f, "}%s\n", i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string jsonPath;
    for (int a = 1; a + 1 < argc; ++a)
        if (std::string(argv[a]) == "--json")
            jsonPath = argv[a + 1];

    std::printf("=====================================================\n");
    std::printf("ccsa bench: serve_throughput\n");
    std::printf("sync Engine vs one-shard vs N-shard ShardedServer\n");
    std::printf("scale: CCSA_SCALE=%.2f (set >1 for longer runs)\n",
                envScale());
    std::printf("=====================================================\n");

    const int poolSize = 48;
    const int requestsPerClient =
        std::max(50, static_cast<int>(150 * envScale()));

    std::vector<Ast> pool;
    pool.reserve(poolSize);
    for (int t = 0; t < poolSize; ++t)
        pool.push_back(makeVariant(t % 12 + 1, t / 12));

    std::printf("tree pool: %d distinct programs, cache capacity 12 "
                "per shard, %d requests/client\n\n",
                poolSize, requestsPerClient);

    std::vector<BenchRow> rows;

    // ----------------------------------------- sync vs batched sweep
    TextTable table({"clients", "sync pairs/s", "batched pairs/s",
                     "speedup", "sync encodes", "batched encodes",
                     "batches", "mean batch", "p99 ms"});
    const int gateClients = 8;

    for (int clients : {1, 2, 4, 8}) {
        std::vector<std::vector<WorkItem>> streams;
        for (int c = 0; c < clients; ++c)
            streams.push_back(
                clientStream(c, requestsPerClient, poolSize));
        const double totalPairs =
            static_cast<double>(clients) * requestsPerClient;

        // ---- synchronous: every client blocks on its own request.
        double syncRate = 0.0;
        std::uint64_t syncEncoded = 0;
        {
            Engine engine(servingOptions());
            auto start = std::chrono::steady_clock::now();
            std::vector<std::thread> threads;
            for (int c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] {
                    for (const WorkItem& w :
                         streams[static_cast<std::size_t>(c)]) {
                        auto p = engine.compareMany(
                            {Engine::PairRequest{
                                &pool[static_cast<std::size_t>(
                                    w.first)],
                                &pool[static_cast<std::size_t>(
                                    w.second)]}});
                        if (!p.isOk())
                            std::fprintf(stderr, "sync: %s\n",
                                         p.status()
                                             .toString()
                                             .c_str());
                    }
                });
            }
            for (std::thread& t : threads)
                t.join();
            syncRate = totalPairs / secondsSince(start);
            syncEncoded = engine.stats().treesEncoded;
        }
        rows.push_back(BenchRow{"sync", clients, 0, syncRate,
                                syncEncoded});

        // ---- batched: one batcher coalescing across every client.
        double batchedRate = 0.0;
        ServerStats stats;
        {
            ShardedServer server(
                servingOptions(),
                oneShard(std::chrono::microseconds(1000)));
            batchedRate = runPipelinedClients(
                clients, streams, pool,
                [&server](const Ast& a, const Ast& b) {
                    return server.submitCompare(a, b);
                });
            stats = server.stats().aggregate;
        }
        rows.push_back(BenchRow{"batched", clients, 1, batchedRate,
                                stats.engine.treesEncoded,
                                stats.latencyP99Ms});

        char speedup[32];
        std::snprintf(speedup, sizeof(speedup), "%.2fx",
                      batchedRate / syncRate);
        char meanBatchStr[32];
        std::snprintf(meanBatchStr, sizeof(meanBatchStr), "%.1f",
                      stats.batchSizes.meanValue());
        char p99[32];
        std::snprintf(p99, sizeof(p99), "%.2f", stats.latencyP99Ms);
        table.addRow({std::to_string(clients),
                      std::to_string(static_cast<long>(syncRate)),
                      std::to_string(static_cast<long>(batchedRate)),
                      speedup, std::to_string(syncEncoded),
                      std::to_string(stats.engine.treesEncoded),
                      std::to_string(stats.batches), meanBatchStr,
                      p99});
    }

    table.print(std::cout);
    std::printf("\nbatching wins by encoding each distinct tree once"
                " per coalesced batch,\nwhere the thrashing"
                " synchronous cache re-encodes almost every"
                " request.\n");

    // -------------------------- sharded scaling, interactive clients
    // Depth-1 closed-loop clients: batches are capped at one pair
    // per client, so the giant pipelined batches above cannot form
    // and the single 12-entry cache thrashes against the 48-tree
    // pool. This is the latency-bound serving regime sharding is
    // for; the 1-shard row is the single-batcher baseline under the
    // SAME client behaviour.
    std::printf("\ninteractive clients (1 outstanding request each), "
                "%d clients:\n\n",
                gateClients);

    // -------------- process isolation: crash-isolated worker fleet
    // The same interactive workload on ProcessShardedServer at 4
    // shards: every request now pays tree serialization (cold trees
    // only, thanks to the residency mirror) plus one pipelined
    // socketpair round trip per batch. That tax buys crash isolation
    // (a SIGKILLed worker costs one shard's in-flight batch, not the
    // process), so the gate is a floor on the isolation overhead,
    // not a speedup: ipc >= 0.45x the in-process sharded rate at 4
    // shards (tools/check_bench_serve.py).
    //
    // Per-worker caches are provisioned POOL-RESIDENT (48 entries,
    // not the in-process 12-per-shard): the in-process server's
    // digest-partitioned cache is shared, so 4x12 holds the whole
    // pool once, while worker processes cannot share latents across
    // address spaces and digest routing shows every worker the whole
    // pool. At 12 each worker thrashes (measured ~0.11x — a cache
    // geometry artifact, not wire overhead); at pool size the row
    // isolates the serialization + RPC tax the gate is about.
    const int ipcShards = 4;
    ProcessShardedServer ipcServer(
        std::make_shared<ComparativePredictor>(servingOptions().encoder,
                                               42),
        ProcessShardedServer::Options()
            .withNumShards(static_cast<std::size_t>(ipcShards))
            .withQueueCapacity(1024)
            .withMaxBatchSize(256)
            .withMaxBatchDelay(std::chrono::microseconds(200))
            .withCachePerWorker(static_cast<std::size_t>(poolSize)));

    // The four in-process servers and the worker fleet stay live and
    // the clients drive them in alternating rounds of 50 requests per
    // client, so the gated 4-vs-1 and ipc-vs-4 ratios compare the same
    // slices under the same host conditions. Each row reports its
    // median round; "vs 1 shard" is the median per-round ratio.
    const std::vector<int> shardCounts{1, 2, 4, 8};
    std::vector<std::unique_ptr<ShardedServer>> shardServers;
    std::vector<FrontEnd*> fronts;
    for (int shards : shardCounts) {
        shardServers.push_back(std::make_unique<ShardedServer>(
            servingOptions(),
            ShardedServer::Options()
                .withNumShards(static_cast<std::size_t>(shards))
                .withQueueCapacity(1024)
                .withMaxBatchSize(256)
                .withMaxBatchDelay(std::chrono::microseconds(200))
                .withThreadsPerShard(1)));
        fronts.push_back(shardServers.back().get());
    }
    fronts.push_back(&ipcServer);
    const int shardRounds =
        std::max(30, static_cast<int>(30 * envScale()));
    std::vector<std::vector<double>> shardRates = runAlternatingRounds(
        fronts.size(),
        roundSlices(gateClients, shardRounds, 50, poolSize, 0),
        [&](std::size_t k,
            const std::vector<std::vector<WorkItem>>& slice) {
            FrontEnd& server = *fronts[k];
            return runClosedLoopClients(
                gateClients, slice, pool,
                [&server](const Ast& a, const Ast& b) {
                    return server.submitCompare(a, b);
                });
        });

    TextTable shardTable({"shards", "pairs/s", "vs 1 shard",
                          "encodes", "cache resident", "p99 ms"});
    std::size_t shard4 = 0;
    for (std::size_t k = 0; k < shardServers.size(); ++k) {
        ShardedServer& server = *shardServers[k];
        ShardedServerStats stats = server.stats();
        BenchRow row{"sharded", gateClients, shardCounts[k],
                     median(shardRates[k]),
                     stats.aggregate.engine.treesEncoded,
                     stats.aggregate.latencyP99Ms};
        row.rounds = shardRates[k];
        if (shardCounts[k] == ipcShards)
            shard4 = k;

        char vsOne[32];
        std::snprintf(vsOne, sizeof(vsOne), "%.2fx",
                      median(roundRatios(shardRates[k], shardRates[0])));
        char p99[32];
        std::snprintf(p99, sizeof(p99), "%.2f",
                      stats.aggregate.latencyP99Ms);
        shardTable.addRow(
            {std::to_string(shardCounts[k]),
             std::to_string(static_cast<long>(row.pairsPerSec)), vsOne,
             std::to_string(stats.aggregate.engine.treesEncoded),
             std::to_string(server.cache().size()) + "/" +
                 std::to_string(server.cache().numShards() *
                                server.cache().capacityPerShard()),
             p99});
        rows.push_back(std::move(row));
    }
    shardServers.clear();
    shardTable.print(std::cout);
    std::printf("\nsharding wins twice: N coalesced batches execute"
                " concurrently, and the\npartitioned cache keeps"
                " numShards x 12 latents resident, so the re-encode\n"
                "storm the small single caches suffer above fades"
                " as shards are added.\n");

    BenchRow ipcRow{"ipc", gateClients, ipcShards,
                    median(shardRates.back()), 0,
                    ipcServer.stats().aggregate.latencyP99Ms};
    ipcRow.rounds = shardRates.back();
    ipcServer.shutdown();
    std::printf(
        "\nprocess-sharded serving (%d crash-isolated worker"
        " processes):\n  ipc %10.0f pairs/s  (median round ratio"
        " %.2fx in-process sharded-%d, CI floor 0.45x)\n",
        ipcShards, ipcRow.pairsPerSec,
        median(roundRatios(shardRates.back(), shardRates[shard4])),
        ipcShards);
    rows.push_back(std::move(ipcRow));

    // ------------------ admission control: noisy-neighbor isolation
    // Two tenants share one one-shard server. "fg" is an interactive
    // closed-loop fleet; "bulk" floods quota-capped batch-class
    // compareMany traffic from a free-running thread. The token
    // bucket sheds the flood at submit time and the two-lane batcher
    // flushes the interactive lane on its own deadline, so the fg
    // p99 under flood must stay within 3x of the flood-free run
    // (gated by tools/check_bench_serve.py). Each p99 of one short
    // run is read from power-of-two histogram buckets, so one bucket
    // step can decide a single comparison: the two scenarios run in
    // alternating rounds of 50 requests per client, each leg on a
    // fresh server, and the gate takes the median per-round ratio.
    {
        const int fgClients = 4;

        auto runTenantScenario =
            [&](bool flood,
                const std::vector<std::vector<WorkItem>>& fgStreams,
                double& p99Ms, std::uint64_t& shed) {
            AdmissionController admission;
            // ~500 admitted flood pairs/s sustained; everything above
            // is rejected before it can touch the queue.
            admission.setQuota(
                "bulk", AdmissionController::Quota{500.0, 32.0});
            ShardedServer server(
                servingOptions(),
                oneShard(std::chrono::microseconds(200))
                    .withAdmission(&admission));
            std::atomic<bool> stop{false};
            std::thread flooder;
            if (flood)
                flooder = std::thread([&] {
                    Rng rng(4242);
                    const SubmitOptions bulk =
                        SubmitOptions().withTenant("bulk").withPriority(
                            Priority::kBatch);
                    std::vector<
                        std::future<Result<std::vector<double>>>>
                        inflight;
                    while (!stop.load(std::memory_order_relaxed)) {
                        std::vector<Engine::PairRequest> pairs;
                        pairs.reserve(16);
                        for (int k = 0; k < 16; ++k) {
                            int i = rng.uniformInt(0, poolSize - 1);
                            int j = rng.uniformInt(0, poolSize - 2);
                            if (j >= i)
                                ++j;
                            pairs.push_back(
                                {&pool[static_cast<std::size_t>(i)],
                                 &pool[static_cast<std::size_t>(
                                     j)]});
                        }
                        inflight.push_back(
                            server.submitCompareMany(bulk, pairs));
                        if (inflight.size() >= 8) {
                            for (auto& f : inflight)
                                f.wait();
                            inflight.clear();
                            // Breathe between salvos so the rejected
                            // submissions don't degenerate into a
                            // pure admission-mutex spin.
                            std::this_thread::sleep_for(
                                std::chrono::microseconds(500));
                        }
                    }
                    for (auto& f : inflight)
                        f.wait();
                });
            const SubmitOptions fg =
                SubmitOptions().withTenant("fg");
            double rate = runClosedLoopClients(
                fgClients, fgStreams, pool,
                [&server, &fg](const Ast& a, const Ast& b) {
                    return server.submitCompare(fg, a, b);
                });
            stop.store(true, std::memory_order_relaxed);
            if (flooder.joinable())
                flooder.join();
            ServerStats stats = server.stats().aggregate;
            p99Ms = 0.0;
            for (const TenantStats& t : stats.tenants)
                if (t.tenant == "fg")
                    p99Ms = t.latencyP99Ms;
            shed = 0;
            for (const auto& row : admission.stats())
                if (row.tenant == "bulk")
                    shed = row.rejected;
            return rate;
        };

        const int tenantRounds =
            std::max(20, static_cast<int>(20 * envScale()));
        BenchRow soloRow{"tenant_solo", fgClients, 1, 0.0, 0};
        BenchRow floodRow{"tenant_flood", fgClients, 1, 0.0, 0};
        std::uint64_t floodShed = 0;
        std::vector<std::vector<double>> rates = runAlternatingRounds(
            2, roundSlices(fgClients, tenantRounds, 50, poolSize, 200),
            [&](std::size_t k,
                const std::vector<std::vector<WorkItem>>& slice) {
                double p99 = 0.0;
                std::uint64_t shed = 0;
                double rate = runTenantScenario(k == 1, slice, p99, shed);
                (k == 1 ? floodRow : soloRow).p99Rounds.push_back(p99);
                if (k == 1)
                    floodShed += shed;
                return rate;
            });
        for (BenchRow* row : {&soloRow, &floodRow}) {
            row->rounds = rates[row == &soloRow ? 0 : 1];
            row->pairsPerSec = median(row->rounds);
            row->p99Ms = median(row->p99Rounds);
        }
        std::printf(
            "\nnoisy neighbor (%d interactive clients, quota-capped"
            " bulk flood, %d alternating rounds):\n"
            "  solo   p99 %7.2f ms  %8.0f pairs/s (median round)\n"
            "  flood  p99 %7.2f ms  %8.0f pairs/s  (median round ratio"
            " %.2fx p99, CI\n          ceiling 3x; %llu flood requests"
            " shed by admission)\n",
            fgClients, tenantRounds, soloRow.p99Ms, soloRow.pairsPerSec,
            floodRow.p99Ms, floodRow.pairsPerSec,
            median(roundRatios(floodRow.p99Rounds, soloRow.p99Rounds)),
            static_cast<unsigned long long>(floodShed));
        rows.push_back(std::move(soloRow));
        rows.push_back(std::move(floodRow));
    }

    // -------------------- metrics overhead: instrumented vs bare
    // The same interactive closed-loop workload through two
    // identically configured one-shard servers: one bare, one with the
    // full metrics plane attached (engine phase histograms,
    // per-request latency histograms, SLO tracking, and a 100 ms
    // background sampler sweeping gauges the whole run). Recording
    // is a handful of relaxed atomic adds outside the server's
    // stats mutex, so the instrumented path must stay >= 0.97x
    // bare (gated by tools/check_bench_serve.py). One run of each
    // cannot tell that delta from host noise, so both servers stay
    // live and the clients drive them in alternating rounds, so their
    // caches stay in step. The gate takes the median per-round ratio.
    // A round is about 80 ms per server: with 30 rounds of about
    // 30 ms, a burst of host contention spanning a few rounds moved
    // the median below the floor in about 1 run of 20.
    {
        const int roundRequests = 150; // per client, per server
        const int metricsRounds =
            std::max(40, static_cast<int>(40 * envScale()));

        MetricsRegistry metrics;
        SloTracker slo(metrics);
        slo.setObjective("model", "",
                         SloTracker::Objective()
                             .withLatencyThresholdUs(5000));
        MetricsSampler sampler(
            metrics, MetricsSampler::Options().withPeriod(
                         std::chrono::milliseconds(100)));
        ShardedServer bare(servingOptions(),
                           oneShard(std::chrono::microseconds(200)));
        ShardedServer instrumented(
            servingOptions().withMetrics(&metrics),
            oneShard(std::chrono::microseconds(200))
                .withMetrics(&metrics)
                .withSlo(&slo));
        sampler.addProbe(
            [&instrumented] { instrumented.sampleMetrics(); });
        sampler.addProbe([&slo] { slo.publishGauges(); });
        sampler.start();

        ShardedServer* servers[] = {&bare, &instrumented};
        std::vector<std::vector<double>> rates = runAlternatingRounds(
            2,
            roundSlices(gateClients, metricsRounds, roundRequests,
                        poolSize, 0),
            [&](std::size_t k,
                const std::vector<std::vector<WorkItem>>& slice) {
                ShardedServer& server = *servers[k];
                return runClosedLoopClients(
                    gateClients, slice, pool,
                    [&server](const Ast& a, const Ast& b) {
                        return server.submitCompare(a, b);
                    });
            });
        sampler.stop();
        BenchRow offRow{"metrics_off", gateClients, 1, 0.0, 0};
        BenchRow onRow{"metrics_on", gateClients, 1, 0.0, 0};
        offRow.rounds = rates[0];
        onRow.rounds = rates[1];
        std::vector<double> ratios = roundRatios(rates[1], rates[0]);
        offRow.pairsPerSec = median(offRow.rounds);
        onRow.pairsPerSec = median(onRow.rounds);
        offRow.p99Ms = bare.stats().aggregate.latencyP99Ms;
        onRow.p99Ms = instrumented.stats().aggregate.latencyP99Ms;
        std::printf(
            "\nmetrics overhead (%d interactive clients, full"
            " instrumentation, %d alternating rounds):\n"
            "  metrics off %10.0f pairs/s (median round)\n"
            "  metrics on  %10.0f pairs/s (median round; median round"
            " ratio %.3fx, CI floor 0.97x)\n",
            gateClients, metricsRounds, offRow.pairsPerSec,
            onRow.pairsPerSec, median(ratios));
        rows.push_back(std::move(offRow));
        rows.push_back(std::move(onRow));
    }

    if (!jsonPath.empty())
        writeJson(jsonPath, poolSize, requestsPerClient, rows);
    return 0;
}
