/**
 * @file
 * Serving daemon: the shape of a production deployment of ccsa. A
 * one-shard ShardedServer serves one engine; concurrent client
 * threads submit comparisons and ranking tournaments as futures; the
 * shard coalesces everything in flight into shared encoding batches.
 * On exit the daemon drains cleanly and prints the ServerStats
 * snapshot an operator would scrape (queue pressure, batch-size
 * histogram, latency percentiles, cache counters).
 *
 * The second half shows the next rungs of the ladder: the same
 * traffic on four shards — N batcher threads over a partitioned
 * encoding cache — with the per-shard stats rows an operator would
 * use to spot a hot shard; then multi-model serving through a
 * ModelRegistry: two problem-family models behind one sharded
 * front, traffic split by model name, and one model hot-swapped
 * mid-run without stopping the service (the paper's
 * continuous-learning deployment); then multi-tenant serving with
 * an AdmissionController quota shedding a bulk tenant's flood while
 * an interactive tenant rides the fast lane, every request leaving
 * a chrome://tracing span chain via TraceRecorder; and finally the
 * metrics plane: a MetricsRegistry fed by every layer, a
 * MetricsSampler scraping the pull-style gauges, an SloTracker
 * burning error budget while a load shift is inside its window and
 * recovering once it ages out — with windowed p99 diverging from
 * lifetime p99 to show why "p99 over the last 1.5s" and "p99 since
 * boot" answer different questions.
 *
 * The engines here are untrained so the demo runs instantly — a
 * real daemon would registry.load("family-a.bin") at startup (v2
 * checkpoints embed their own config; see examples/quickstart.cpp
 * for training one).
 *
 * Usage: ./serving_daemon [--trace trace.json]
 *                         [--metrics-out metrics.prom]
 *        ./serving_daemon --ipc [--fault-inject SPEC]
 *                         [--trace trace.json]
 *                         [--metrics-out metrics.prom]
 * (--trace exports the [6/7] demo's spans — in --ipc mode, every
 * request's — as chrome-trace JSON; tools/check_trace.py validates
 * the file and CI runs it on both modes.
 * --metrics-out dumps the Prometheus-text exposition after every
 * sampler sweep, plus a mid-run scrape at <path>.1 and the final
 * scrape at <path>; tools/check_metrics.py validates the pair.
 * --ipc is an exclusive mode: the same traffic on a
 * ProcessShardedServer — crash-isolated worker processes — with an
 * optional injected fault (crash:N | stall:N[:ms] | torn:N |
 * eintr:N, see serve/ipc/fault_injector.hh) on shard 0. It prints
 * worker restart counts and the request-conservation identity, and
 * exits non-zero if any request leaked; tools/check_crash_recovery.py
 * drives it in CI with a mid-run crash and validates the metrics.)
 */

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/ipc/process_sharded_server.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/metrics_sampler.hh"
#include "serve/metrics/slo_tracker.hh"
#include "serve/model_registry.hh"
#include "serve/sharded_server.hh"
#include "serve/trace/trace_recorder.hh"

using namespace ccsa;

namespace
{

/** A candidate implementation: `loops` loops, `pad` extra decls. */
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
    return Engine::parseSource(src).take();
}

/**
 * The --ipc exclusive mode: crash-isolated serving under client
 * load, optionally with an injected worker fault. Exit code 0 means
 * every accepted request's future resolved AND the conservation
 * identity submitted == completed + failed + deadline held — the
 * "no request is ever lost" contract, checked from the outside.
 */
int
runIpcMode(const std::string& faultSpec, const std::string& tracePath,
           const std::string& metricsPath)
{
    std::printf("=== ccsa serving daemon (--ipc) ===\n\n");
    std::printf("process-sharded serving: 2 worker processes%s%s\n\n",
                faultSpec.empty() ? "" : ", injected fault ",
                faultSpec.c_str());

    std::vector<Ast> variants;
    for (int v = 0; v < 12; ++v)
        variants.push_back(makeVariant(v % 6 + 1, v / 6));

    MetricsRegistry metrics;
    TraceRecorder trace;
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    auto model =
        std::make_shared<ComparativePredictor>(cfg, /*seed=*/7);
    ProcessShardedServer server(
        model, ProcessShardedServer::Options()
                   .withNumShards(2)
                   .withQueueCapacity(512)
                   .withMaxBatchSize(128)
                   .withMaxBatchDelay(std::chrono::microseconds(800))
                   .withMetrics(&metrics)
                   .withTrace(tracePath.empty() ? nullptr : &trace)
                   .withFault(faultSpec, /*shard=*/0));

    // 4 clients x 40 requests; every 10th request carries a
    // deliberately tiny deadline so the deadline-rejection path is
    // exercised and must show up in the conservation identity
    // (never as a leaked future).
    constexpr int kClients = 4;
    constexpr int kRequests = 40;
    std::atomic<int> resolved{0};
    std::atomic<int> okCount{0};
    std::atomic<int> failedCount{0};
    std::atomic<int> deadlineCount{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(55 + static_cast<std::uint64_t>(c));
            for (int k = 0; k < kRequests; ++k) {
                int i = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 1);
                int j = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 2);
                if (j >= i)
                    ++j;
                SubmitOptions opts;
                if (k % 10 == 9)
                    opts.deadline = std::chrono::microseconds(1);
                Result<double> r =
                    server
                        .submitCompare(
                            opts,
                            variants[static_cast<std::size_t>(i)],
                            variants[static_cast<std::size_t>(j)])
                        .get();
                ++resolved;
                if (r.isOk())
                    ++okCount;
                else if (r.status().code() ==
                         StatusCode::DeadlineExceeded)
                    ++deadlineCount;
                else
                    ++failedCount;
            }
        });
    }
    for (std::thread& t : clients)
        t.join();

    // Scrape while the workers are still up, then shut down.
    server.sampleMetrics();
    if (!metricsPath.empty()) {
        Status wrote = metrics.exposeToFile(metricsPath);
        std::printf("wrote %s%s\n", metricsPath.c_str(),
                    wrote.isOk() ? "" : " FAILED");
    }
    server.shutdown();

    ProcessShardedServerStats stats = server.stats();
    std::uint64_t restarts = 0;
    for (std::size_t sh = 0; sh < stats.health.size(); ++sh) {
        const WorkerHealth& h = stats.health[sh];
        std::printf("worker %zu: generation=%llu restarts=%llu%s\n",
                    sh,
                    static_cast<unsigned long long>(h.generation),
                    static_cast<unsigned long long>(h.restarts),
                    h.degraded ? " DEGRADED" : "");
        restarts += h.restarts;
    }
    std::printf("futures: %d resolved (%d ok, %d failed, %d "
                "deadline) of %d submitted\n",
                resolved.load(), okCount.load(), failedCount.load(),
                deadlineCount.load(), kClients * kRequests);

    const ServerStats& agg = stats.aggregate;
    bool conserved = agg.requestsSubmitted ==
        agg.requestsCompleted + agg.requestsFailed +
            agg.requestsRejectedDeadline;
    std::printf("conservation: submitted=%llu completed=%llu "
                "failed=%llu deadline=%llu -> %s\n",
                static_cast<unsigned long long>(
                    agg.requestsSubmitted),
                static_cast<unsigned long long>(
                    agg.requestsCompleted),
                static_cast<unsigned long long>(agg.requestsFailed),
                static_cast<unsigned long long>(
                    agg.requestsRejectedDeadline),
                conserved ? "OK" : "VIOLATED");
    std::printf("worker restarts: %llu\n",
                static_cast<unsigned long long>(restarts));
    if (!tracePath.empty()) {
        Status wrote = trace.writeJson(tracePath);
        std::printf("wrote %s: %zu spans%s\n", tracePath.c_str(),
                    trace.spanCount(), wrote.isOk() ? "" : " FAILED");
    }

    bool everyFutureResolved =
        resolved.load() == kClients * kRequests;
    if (!everyFutureResolved)
        std::printf("FAIL: leaked futures\n");
    return conserved && everyFutureResolved ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string tracePath;
    std::string metricsPath;
    std::string faultSpec;
    bool ipcMode = false;
    for (int a = 1; a < argc; ++a) {
        if (std::string(argv[a]) == "--ipc")
            ipcMode = true;
        if (a + 1 >= argc)
            continue;
        if (std::string(argv[a]) == "--trace")
            tracePath = argv[a + 1];
        if (std::string(argv[a]) == "--metrics-out")
            metricsPath = argv[a + 1];
        if (std::string(argv[a]) == "--fault-inject")
            faultSpec = argv[a + 1];
    }
    if (ipcMode)
        return runIpcMode(faultSpec, tracePath, metricsPath);

    std::printf("=== ccsa serving daemon ===\n\n");

    // 1. One engine behind one shard. Tuning knobs: maxBatchSize
    //    bounds per-tick work, maxBatchDelay bounds added latency,
    //    queueCapacity bounds memory (backpressure beyond it).
    ShardedServer server(
        Engine::Options()
            .withEmbedDim(24)
            .withHiddenDim(32)
            .withCacheCapacity(4096),
        ShardedServer::Options()
            .withNumShards(1)
            .withThreadsPerShard(0)
            .withQueueCapacity(512)
            .withMaxBatchSize(128)
            .withMaxBatchDelay(std::chrono::microseconds(800)));

    // 2. A library of candidate implementations clients ask about.
    std::vector<Ast> variants;
    for (int v = 0; v < 12; ++v)
        variants.push_back(makeVariant(v % 6 + 1, v / 6));

    // 3. Concurrent clients: pairwise comparisons plus the paper's
    //    algorithm-selection tournaments, all through futures.
    constexpr int kClients = 4;
    constexpr int kRequests = 40;
    std::printf("[1/7] %d clients x %d requests (compares + ranks)"
                "...\n",
                kClients, kRequests);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(77 + static_cast<std::uint64_t>(c));
            int ok = 0;
            for (int k = 0; k < kRequests; ++k) {
                if (k % 8 == 7) {
                    // Every eighth request: rank a 5-way tournament.
                    std::vector<const Ast*> field;
                    for (int f = 0; f < 5; ++f)
                        field.push_back(
                            &variants[static_cast<std::size_t>(
                                rng.uniformInt(
                                    0,
                                    static_cast<int>(
                                        variants.size()) -
                                        1))]);
                    if (server.submitRank(field).get().isOk())
                        ++ok;
                } else {
                    int i = rng.uniformInt(
                        0, static_cast<int>(variants.size()) - 1);
                    int j = rng.uniformInt(
                        0, static_cast<int>(variants.size()) - 2);
                    if (j >= i)
                        ++j;
                    auto f = server.submitCompare(
                        variants[static_cast<std::size_t>(i)],
                        variants[static_cast<std::size_t>(j)]);
                    if (f.get().isOk())
                        ++ok;
                }
            }
            std::printf("      client %d: %d/%d ok\n", c, ok,
                        kRequests);
        });
    }
    for (std::thread& t : clients)
        t.join();

    // 4. Drain and stop; futures submitted after this fail fast with
    //    Unavailable instead of hanging.
    std::printf("\n[2/7] clean shutdown (drains pending work)...\n");
    server.shutdown();
    auto late = server
                    .submitCompare(variants[0], variants[1])
                    .get();
    std::printf("      post-shutdown submit -> %s\n",
                late.status().toString().c_str());

    // 5. The operator's view.
    std::printf("\n[3/7] server stats\n");
    ServerStats s = server.stats().aggregate;
    std::printf("      queue: depth=%zu capacity=%zu\n",
                s.queueDepth, s.queueCapacity);
    std::printf("      requests: submitted=%llu completed=%llu "
                "failed=%llu rejected=%llu\n",
                static_cast<unsigned long long>(s.requestsSubmitted),
                static_cast<unsigned long long>(s.requestsCompleted),
                static_cast<unsigned long long>(s.requestsFailed),
                static_cast<unsigned long long>(s.requestsRejected));
    std::printf("      batching: %llu batches, %llu pairs, mean "
                "batch %.1f\n",
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.pairsServed),
                s.batchSizes.meanValue());
    std::printf("      batch-size histogram: %s\n",
                s.batchSizes.toString().c_str());
    std::printf("      latency ms: p50=%.3f p99=%.3f mean=%.3f "
                "max=%.3f\n",
                s.latencyP50Ms, s.latencyP99Ms, s.latencyMeanMs,
                s.latencyMaxMs);
    std::printf("      encoding cache: hits=%llu misses=%llu "
                "evictions=%llu size=%zu (trees encoded %llu)\n",
                static_cast<unsigned long long>(s.engine.cacheHits),
                static_cast<unsigned long long>(s.engine.cacheMisses),
                static_cast<unsigned long long>(
                    s.engine.cacheEvictions),
                s.engine.cacheSize,
                static_cast<unsigned long long>(
                    s.engine.treesEncoded));

    // 6. The same clients against four shards: four batcher
    //    threads over one queue, each with its own engine, all
    //    sharing a 4-way partitioned encoding cache (every variant's
    //    latent lives on exactly one shard). Results are bitwise
    //    what the one-shard server returned above.
    std::printf("\n[4/7] sharded serving (4 workers, partitioned "
                "cache)...\n");
    ShardedServer sharded(Engine::Options()
                              .withEmbedDim(24)
                              .withHiddenDim(32)
                              .withCacheCapacity(1024),
                          ShardedServer::Options()
                              .withNumShards(4)
                              .withQueueCapacity(512)
                              .withMaxBatchSize(128)
                              .withMaxBatchDelay(
                                  std::chrono::microseconds(800)));
    std::vector<std::thread> shardClients;
    for (int c = 0; c < kClients; ++c) {
        shardClients.emplace_back([&, c] {
            Rng rng(77 + static_cast<std::uint64_t>(c));
            int ok = 0;
            for (int k = 0; k < kRequests; ++k) {
                int i = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 1);
                int j = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 2);
                if (j >= i)
                    ++j;
                if (sharded
                        .submitCompare(
                            variants[static_cast<std::size_t>(i)],
                            variants[static_cast<std::size_t>(j)])
                        .get()
                        .isOk())
                    ++ok;
            }
            std::printf("      client %d: %d/%d ok\n", c, ok,
                        kRequests);
        });
    }
    for (std::thread& t : shardClients)
        t.join();
    sharded.shutdown();

    ShardedServerStats ss = sharded.stats();
    std::printf("      aggregate: %llu batches, %llu pairs, p50=%.3f"
                " p99=%.3f ms (from merged histograms)\n",
                static_cast<unsigned long long>(ss.aggregate.batches),
                static_cast<unsigned long long>(
                    ss.aggregate.pairsServed),
                ss.aggregate.latencyP50Ms, ss.aggregate.latencyP99Ms);
    for (std::size_t sh = 0; sh < ss.shards.size(); ++sh) {
        const ServerStats& row = ss.shards[sh];
        std::printf("      shard %zu: batches=%llu pairs=%llu "
                    "cache hits=%llu misses=%llu resident=%zu\n",
                    sh,
                    static_cast<unsigned long long>(row.batches),
                    static_cast<unsigned long long>(row.pairsServed),
                    static_cast<unsigned long long>(
                        row.engine.cacheHits),
                    static_cast<unsigned long long>(
                        row.engine.cacheMisses),
                    row.engine.cacheSize);
    }

    // 7. Multi-model serving: two problem-family models behind one
    //    registry, traffic split by model name, family-a hot-swapped
    //    with a retrained build mid-run. Requests admitted before the
    //    swap complete on the old version; nothing stops.
    std::printf("\n[5/7] multi-model serving (registry, hot swap "
                "mid-run)...\n");
    auto registry = std::make_shared<ModelRegistry>();
    EncoderConfig famCfg;
    famCfg.embedDim = 24;
    famCfg.hiddenDim = 32;
    registry->publish("family-a",
                      std::make_shared<ComparativePredictor>(
                          famCfg, /*seed=*/101));
    registry->publish("family-b",
                      std::make_shared<ComparativePredictor>(
                          famCfg, /*seed=*/202));
    ShardedServer multi(registry,
                        Engine::Options().withCacheCapacity(1024),
                        ShardedServer::Options()
                            .withNumShards(2)
                            .withQueueCapacity(512)
                            .withMaxBatchSize(128)
                            .withMaxBatchDelay(
                                std::chrono::microseconds(800)));
    std::vector<std::thread> multiClients;
    for (int c = 0; c < kClients; ++c) {
        multiClients.emplace_back([&, c] {
            Rng rng(177 + static_cast<std::uint64_t>(c));
            // Clients for family A and B alternate by thread.
            const char* family = c % 2 == 0 ? "family-a" : "family-b";
            int ok = 0;
            for (int k = 0; k < kRequests; ++k) {
                int i = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 1);
                int j = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 2);
                if (j >= i)
                    ++j;
                if (multi
                        .submitCompare(
                            SubmitOptions().withModel(family),
                            variants[static_cast<std::size_t>(i)],
                            variants[static_cast<std::size_t>(j)])
                        .get()
                        .isOk())
                    ++ok;
                if (c == 0 && k == kRequests / 2) {
                    // Mid-run redeploy of family-a: the "retrained"
                    // model goes live between two of this client's
                    // own requests. In-flight work finishes on the
                    // old version's snapshot; the old latents age
                    // out of the cache under their own namespace.
                    auto v = registry->publish(
                        "family-a",
                        std::make_shared<ComparativePredictor>(
                            famCfg, /*seed=*/303));
                    std::printf("      hot-swapped family-a -> "
                                "version %llu\n",
                                static_cast<unsigned long long>(
                                    v->sequence));
                }
            }
            std::printf("      client %d (%s): %d/%d ok\n", c,
                        family, ok, kRequests);
        });
    }
    for (std::thread& t : multiClients)
        t.join();
    multi.shutdown();

    ShardedServerStats ms = multi.stats();
    std::printf("      per-model cache namespaces:\n");
    for (const ModelCacheStats& row : ms.aggregate.models) {
        std::printf("        %-10s v%llu: hits=%llu misses=%llu "
                    "evictions=%llu resident=%zu\n",
                    row.name.c_str(),
                    static_cast<unsigned long long>(row.sequence),
                    static_cast<unsigned long long>(row.cache.hits),
                    static_cast<unsigned long long>(row.cache.misses),
                    static_cast<unsigned long long>(
                        row.cache.evictions),
                    row.cache.residents);
    }
    std::printf("      (family-a shows v2: the swapped build owns a "
                "fresh namespace;\n       the v1 latents expire "
                "through plain LRU aging)\n");

    // 8. Multi-tenant serving: an interactive "checkout" tenant and
    //    a quota-capped "bulk" tenant share one server. The token
    //    bucket admits bulk's first burst, then sheds the rest with
    //    ResourceExhausted before it can crowd the queue; checkout's
    //    requests ride the interactive lane, which flushes on its
    //    own deadline even while bulk traffic is held for fuller
    //    batches. Every executed request leaves an admission ->
    //    queue -> coalesce -> encode -> score span chain in the
    //    TraceRecorder.
    std::printf("\n[6/7] multi-tenant admission + tracing (bulk "
                "tenant quota-capped)...\n");

    // The process-wide metrics plane, shared by the remaining
    // demos: every layer feeds one MetricsRegistry; a MetricsSampler
    // scrapes the pull-style gauges; an SloTracker judges (model,
    // tenant) latency objectives over a rolling window. The window
    // is deliberately short (5 x 300 ms) so [7/7] can show a load
    // shift aging out of it in demo time.
    MetricsRegistry metrics;
    SloTracker slo(metrics);
    const WindowedHistogram::Options demoWindow =
        WindowedHistogram::Options()
            .withBucketWidth(std::chrono::milliseconds(300))
            .withNumBuckets(5);
    slo.setObjective("model", "checkout",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(50000)
                         .withTargetGoodFraction(0.99)
                         .withWindow(demoWindow));
    slo.setObjective("model", "canary",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(2500)
                         .withTargetGoodFraction(0.95)
                         .withWindow(demoWindow));
    MetricsSampler sampler(
        metrics, MetricsSampler::Options()
                     .withPeriod(std::chrono::milliseconds(200))
                     .withExpositionPath(metricsPath));

    AdmissionController admission;
    admission.setQuota(
        "bulk", AdmissionController::Quota{/*pairsPerSec=*/50.0,
                                           /*burst=*/40.0});
    TraceRecorder trace;
    trace.attachMetrics(&metrics);
    ShardedServer tenantServer(
        Engine::Options()
            .withEmbedDim(24)
            .withHiddenDim(32)
            .withCacheCapacity(4096)
            .withMetrics(&metrics),
        ShardedServer::Options()
            .withNumShards(1)
            .withThreadsPerShard(0)
            .withQueueCapacity(512)
            .withMaxBatchSize(128)
            .withMaxBatchDelay(std::chrono::microseconds(200))
            .withAdmission(&admission)
            .withTrace(&trace)
            .withMetrics(&metrics)
            .withSlo(&slo)
            .withMetricsWindow(demoWindow));
    sampler.addProbe([&] { tenantServer.sampleMetrics(); });
    sampler.addProbe([&] { admission.publishMetrics(metrics); });
    sampler.addProbe([&] { slo.publishGauges(); });
    sampler.start();

    std::thread bulkClient([&] {
        // 20 batch-class tournaments of 8 pairs each = 160 pairs
        // against a 40-pair bucket refilling at 50/s: the flood's
        // tail is shed, not queued.
        Rng rng(991);
        const SubmitOptions bulk =
            SubmitOptions().withTenant("bulk").withPriority(
                Priority::kBatch);
        int okCount = 0, shed = 0;
        for (int k = 0; k < 20; ++k) {
            std::vector<Engine::PairRequest> pairs;
            for (int p = 0; p < 8; ++p) {
                int i = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 1);
                int j = rng.uniformInt(
                    0, static_cast<int>(variants.size()) - 2);
                if (j >= i)
                    ++j;
                pairs.push_back(
                    {&variants[static_cast<std::size_t>(i)],
                     &variants[static_cast<std::size_t>(j)]});
            }
            Result<std::vector<double>> r =
                tenantServer.submitCompareMany(bulk, pairs).get();
            if (r.isOk())
                ++okCount;
            else if (r.status().code() ==
                     StatusCode::ResourceExhausted)
                ++shed;
        }
        std::printf("      bulk: %d tournaments served, %d shed by "
                    "quota\n",
                    okCount, shed);
    });
    std::thread checkoutClient([&] {
        Rng rng(992);
        const SubmitOptions fg = SubmitOptions().withTenant("checkout");
        int okCount = 0;
        for (int k = 0; k < 2 * kRequests; ++k) {
            int i = rng.uniformInt(
                0, static_cast<int>(variants.size()) - 1);
            int j = rng.uniformInt(
                0, static_cast<int>(variants.size()) - 2);
            if (j >= i)
                ++j;
            if (tenantServer
                    .submitCompare(
                        fg, variants[static_cast<std::size_t>(i)],
                        variants[static_cast<std::size_t>(j)])
                    .get()
                    .isOk())
                ++okCount;
        }
        std::printf("      checkout: %d/%d interactive compares ok\n",
                    okCount, 2 * kRequests);
    });
    bulkClient.join();
    checkoutClient.join();
    tenantServer.shutdown();

    ServerStats ts = tenantServer.stats().aggregate;
    std::printf("      rejected: shed=%llu shutdown=%llu quota=%llu\n",
                static_cast<unsigned long long>(
                    ts.requestsRejectedShed),
                static_cast<unsigned long long>(
                    ts.requestsRejectedShutdown),
                static_cast<unsigned long long>(
                    ts.requestsRejectedQuota));
    for (const TenantStats& row : ts.tenants)
        std::printf("      tenant %-10s submitted=%llu "
                    "completed=%llu quota-rejected=%llu p99=%.3f ms\n",
                    row.tenant.empty() ? "(default)"
                                       : row.tenant.c_str(),
                    static_cast<unsigned long long>(row.submitted),
                    static_cast<unsigned long long>(row.completed),
                    static_cast<unsigned long long>(
                        row.rejectedQuota),
                    row.latencyP99Ms);
    std::printf("      trace: %zu spans buffered (%llu dropped)\n",
                trace.spanCount(),
                static_cast<unsigned long long>(
                    trace.droppedSpans()));
    if (!tracePath.empty()) {
        Status wrote = trace.writeJson(tracePath);
        std::printf("      %s\n",
                    wrote.isOk()
                        ? ("wrote " + tracePath +
                           " (open in chrome://tracing or "
                           "ui.perfetto.dev)")
                              .c_str()
                        : wrote.toString().c_str());
    }

    // 9. The metrics plane under a load shift. A canary tenant's
    //    traffic goes through two phases: a slow one (every request
    //    encodes giant, never-seen trees — a "bad deploy" blowing
    //    the 2.5 ms objective), then a fast one (one cached pair)
    //    that runs LONGER than the 1.5 s judgment window. While the
    //    slow phase is inside the window the burn rate screams and
    //    windowed p99 matches lifetime p99; once it ages out the
    //    burn rate recovers and windowed p99 drops to the fast
    //    phase's — but lifetime p99 still remembers the incident.
    //    That recovery-vs-memory split is the canary
    //    promotion/rollback signal (see ROADMAP).
    std::printf("\n[7/7] windowed metrics + SLO burn rate (load "
                "shift ages out of the window)...\n");
    ShardedServer canaryServer(
        Engine::Options()
            .withEmbedDim(24)
            .withHiddenDim(32)
            .withCacheCapacity(4096)
            .withMetrics(&metrics),
        ShardedServer::Options()
            .withNumShards(1)
            .withThreadsPerShard(0)
            .withQueueCapacity(512)
            .withMaxBatchSize(64)
            .withMaxBatchDelay(std::chrono::microseconds(100))
            .withMetrics(&metrics)
            .withSlo(&slo)
            .withMetricsWindow(demoWindow));
    sampler.addProbe([&] { canaryServer.sampleMetrics(); });
    const SubmitOptions canary = SubmitOptions().withTenant("canary");

    // Slow phase: 10 concurrent requests, each a 24-pair batch over
    // distinct cold trees. Every request pays ~24 full encodes AND
    // queues behind the requests ahead of it — the compounding
    // latency a real bad deploy shows under load.
    std::vector<Ast> giants;
    for (int g = 0; g < 240; ++g)
        giants.push_back(makeVariant(12 + g % 4, 60 + g / 4));
    std::vector<std::future<Result<std::vector<double>>>> slowWork;
    for (int r = 0; r < 10; ++r) {
        std::vector<Engine::PairRequest> pairs;
        for (int p = 0; p < 24; ++p) {
            const Ast& a = giants[static_cast<std::size_t>(r * 24 + p)];
            const Ast& b = giants[static_cast<std::size_t>(
                r * 24 + (p + 1) % 24)];
            pairs.push_back({&a, &b});
        }
        slowWork.push_back(
            canaryServer.submitCompareMany(canary,
                                           std::move(pairs)));
    }
    for (auto& f : slowWork)
        f.get();
    auto hotNow = std::chrono::steady_clock::now();
    SloTracker::WindowCounts hotCounts =
        slo.windowCounts("model", "canary", hotNow);
    double burnHot = slo.burnRate("model", "canary", hotNow);
    std::printf("      slow phase done: window good=%llu bad=%llu "
                "burn=%.1f (>1 burns budget)\n",
                static_cast<unsigned long long>(hotCounts.good),
                static_cast<unsigned long long>(hotCounts.bad),
                burnHot);
    if (!metricsPath.empty()) {
        sampler.sampleOnce();
        Status mid = metrics.exposeToFile(metricsPath + ".1");
        std::printf("      %s\n",
                    mid.isOk()
                        ? ("wrote " + metricsPath + ".1 (mid-run "
                           "scrape)")
                              .c_str()
                        : mid.toString().c_str());
    }

    // Fast phase: one cached pair, repeated for longer than the
    // window span so every slow sample rotates out of the ring.
    auto fastUntil = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::milliseconds>(
            demoWindow.bucketWidth) *
            static_cast<int>(demoWindow.numBuckets) +
        std::chrono::milliseconds(500);
    int fastCount = 0;
    while (std::chrono::steady_clock::now() < fastUntil) {
        canaryServer.submitCompare(canary, variants[0], variants[1])
            .get();
        ++fastCount;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    canaryServer.shutdown();

    WindowedHistogram& canaryLat = serverLatencyHistogram(
        metrics, "sharded", "model", "canary", Priority::kInteractive,
        demoWindow);
    auto coolNow = std::chrono::steady_clock::now();
    Histogram windowHist = canaryLat.window(coolNow);
    Histogram lifeHist = canaryLat.lifetime();
    double burnCool = slo.burnRate("model", "canary", coolNow);
    std::printf("      fast phase: %d cached compares over > window "
                "span\n",
                fastCount);
    std::printf("      lifetime p99 <= %.3f ms over %llu samples "
                "(remembers the slow phase)\n",
                static_cast<double>(
                    lifeHist.quantileUpperBound(0.99)) /
                    1000.0,
                static_cast<unsigned long long>(lifeHist.count()));
    std::printf("      windowed p99 <= %.3f ms over %llu samples "
                "(last %lld ms only)\n",
                static_cast<double>(
                    windowHist.quantileUpperBound(0.99)) /
                    1000.0,
                static_cast<unsigned long long>(windowHist.count()),
                static_cast<long long>(
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(
                        canaryLat.windowSpan())
                        .count()));
    std::printf("      burn rate: %.1f during incident -> %.1f "
                "after it aged out\n",
                burnHot, burnCool);

    sampler.stop();
    sampler.sampleOnce(); // final deterministic sweep + dump
    if (!metricsPath.empty())
        std::printf("      wrote %s (final scrape; validate both "
                    "with tools/check_metrics.py)\n",
                    metricsPath.c_str());

    std::printf("\ndone. Tune maxBatchDelay down for latency, up "
                "for throughput;\nshard when one batcher saturates;"
                " register models when one service must\nserve many"
                " problem families; quota tenants that crowd the"
                " queue; scrape\nthe MetricsRegistry and alert on"
                " ccsa_slo_burn_rate — see README\n\"Metrics &"
                " SLOs\".\n");
    return 0;
}
