/**
 * @file
 * ServerStats — a point-in-time snapshot of a server's (or one
 * shard's) observable state: queue pressure, request volume,
 * dynamic-batching effectiveness (batch count + batch-size
 * histogram), end-to-end request latency percentiles, and the
 * wrapped Engine's counters
 * (including the encoding cache's hit/miss/eviction counts, so cache
 * efficacy is observable rather than inferred from benchmarks).
 */

#ifndef CCSA_SERVE_SERVER_STATS_HH
#define CCSA_SERVE_SERVER_STATS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/engine.hh"
#include "serve/metrics/metrics.hh"

namespace ccsa
{

/** Clamp a request duration to the non-negative microsecond sample
 * ServerStats::latencyUs records — shared by every server flavour so
 * their latency populations stay comparable. */
inline std::size_t
latencySampleUs(std::chrono::steady_clock::duration d)
{
    auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(d)
            .count();
    return us < 0 ? 0 : static_cast<std::size_t>(us);
}

/** One tenant's serving counters (see ServerStats::tenants). */
struct TenantStats
{
    /** Tenant name; "" is the default tenant legacy callers use. */
    std::string tenant;
    /** Requests this tenant had accepted into the queue. */
    std::uint64_t submitted = 0;
    /** Requests answered with a value. */
    std::uint64_t completed = 0;
    /** Requests answered with an error Status. */
    std::uint64_t failed = 0;
    /** Requests refused at the door by the AdmissionController
     * (token bucket dry) — the noisy-neighbor signal. */
    std::uint64_t rejectedQuota = 0;
    /** Requests answered DeadlineExceeded (counted submitted, like
     * ServerStats::requestsRejectedDeadline). */
    std::uint64_t rejectedDeadline = 0;
    /** End-to-end latency distribution (us) of this tenant's served
     * units; merges losslessly across shards like
     * ServerStats::latencyUs. */
    Histogram latencyUs;
    /** Derived from latencyUs (fillLatencyPercentiles semantics). */
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
};

/** Snapshot of serving counters; see ShardedServer::stats() and
 * ProcessShardedServer::stats(). */
struct ServerStats
{
    // ------------------------------------------------ queue pressure
    /** Requests currently waiting for the batcher. */
    std::size_t queueDepth = 0;
    /** Configured request-queue capacity (backpressure bound). */
    std::size_t queueCapacity = 0;

    // ------------------------------------------------ request volume
    /** Requests accepted into the queue. */
    std::uint64_t requestsSubmitted = 0;
    /** Requests refused, for any reason: always the sum of the four
     * attributed counters below (kept so pre-admission dashboards
     * keep reading one number). */
    std::uint64_t requestsRejected = 0;
    /** ...because the queue was at capacity (trySubmit load-shed). */
    std::uint64_t requestsRejectedShed = 0;
    /** ...because the server was shut down. */
    std::uint64_t requestsRejectedShutdown = 0;
    /** ...because the tenant's admission quota was exhausted. */
    std::uint64_t requestsRejectedQuota = 0;
    /** ...because the request's SubmitOptions deadline expired
     * before (or while) it was served: it completed with
     * DeadlineExceeded and, unlike the three rejections above, WAS
     * counted submitted — so requestsSubmitted = requestsCompleted +
     * requestsFailed + requestsRejectedDeadline once drained. */
    std::uint64_t requestsRejectedDeadline = 0;
    /** Requests whose future was fulfilled with a value. */
    std::uint64_t requestsCompleted = 0;
    /** Requests whose future was fulfilled with an error Status. */
    std::uint64_t requestsFailed = 0;

    // ---------------------------------------------- dynamic batching
    /** compareMany ticks executed by the batcher. */
    std::uint64_t batches = 0;
    /** Total pairs scored across all batches. */
    std::uint64_t pairsServed = 0;
    /** Distribution of pairs-per-batch (coalescing effectiveness). */
    Histogram batchSizes;

    // ------------------------------- end-to-end latency (submit done)
    /** Latency percentiles in milliseconds; 0 until a request
     * finishes. Always derived from the latencyUs histogram below
     * (fillLatencyPercentiles) — single batcher, per-shard row, and
     * merged aggregate alike — so the fields mean the same thing
     * wherever they appear; resolution is one power-of-two bucket.
     * Aggregators must merge histograms, never these fields
     * (quantiles of quantiles would be wrong — see
     * mergeServerStats). */
    double latencyP50Ms = 0.0;
    double latencyP99Ms = 0.0;
    double latencyMeanMs = 0.0;
    double latencyMaxMs = 0.0;
    /** Latency distribution in MICROseconds of every unit the
     * batcher served: one sample per SLICE. In process a request is
     * one slice; over worker processes a split request contributes a
     * sample per shard queue it touched, each measuring submit ->
     * slice completion (the caller-observed latency is the max of
     * its slices, so count() can exceed requestsCompleted and
     * split-request samples bound the caller latency from below).
     * Unlike the percentile fields above, histograms merge
     * losslessly across batchers/shards, so this is the field an
     * aggregator combines. */
    Histogram latencyUs;

    // ----------------------------------------------- wrapped engine
    /** Engine counters: encoding-cache hits / misses / evictions /
     * size plus pairsServed and treesEncoded, the hash-consed
     * encoder's node provenance, and the subtree-state store's
     * residency. */
    Engine::Stats engine;

    // ------------------------------------------------- per model
    /** One row per CURRENTLY resolvable model: that version's cache
     * namespace counters (hits/misses/evictions/residents). Filled
     * by the server's stats() from the engine's view of its cache;
     * retired hot-swapped versions are not listed. mergeServerStats
     * leaves this empty — per-shard rows would all describe the same
     * shared cache, so the aggregator sets it once instead of
     * summing duplicates. */
    std::vector<ModelCacheStats> models;

    // ------------------------------------------------- per tenant
    /** One row per tenant that ever submitted (or was quota-rejected)
     * — sorted by tenant name so snapshots diff cleanly. Empty until
     * the first request when no AdmissionController is attached and
     * every caller uses the default tenant "". mergeServerStats
     * merges rows by name (counters sum, latency histograms merge,
     * percentiles recomputed from the merged histogram). */
    std::vector<TenantStats> tenants;
};

/**
 * Combine per-batcher (per-shard) snapshots into one fleet view.
 * Counters and engine volumes sum; batchSizes and latencyUs merge
 * bucket-wise; the latency percentiles of the result are recomputed
 * from the MERGED latencyUs histogram. Averaging the shards'
 * p50/p99 fields would be statistically wrong — a shard serving 1%
 * of traffic would pull the "p99" as hard as one serving 99% — so
 * the merged histogram, which preserves every shard's sample mass,
 * is the only field consulted (tests/test_stats.cc pins the
 * difference).
 *
 * Engine cache counters are summed too; when every snapshot reports
 * the SAME shared cache (ShardedServer), the caller must overwrite
 * `.engine`'s cache fields afterwards instead of trusting the sum.
 */
ServerStats mergeServerStats(const std::vector<ServerStats>& shards);

/** Derive the ms latency-percentile fields of a snapshot from its
 * own latencyUs histogram (no-op while the histogram is empty).
 * Shared by mergeServerStats and per-shard reporting so both derive
 * percentiles identically. */
void fillLatencyPercentiles(ServerStats& stats);

/** Same derivation for one tenant row's p50/p99 from its own
 * latencyUs histogram (no-op while empty). */
void fillTenantPercentiles(TenantStats& row);

/**
 * Registry-owned inline instruments of the serving front end
 * (ShardedServer and ProcessShardedServer label them
 * {server="sharded"} / {server="ipc"}). Fetched once at server
 * construction so the hot path updates atomics without a registry
 * lookup. Two servers
 * of the same flavour sharing one registry share these counters —
 * the metrics plane is process-wide by design.
 */
struct ServerMetrics
{
    Counter* submitted = nullptr;
    Counter* completed = nullptr;
    Counter* failed = nullptr;
    Counter* rejectedShed = nullptr;
    Counter* rejectedShutdown = nullptr;
    Counter* rejectedQuota = nullptr;
    /** ccsa_requests_total{outcome="deadline"}. */
    Counter* rejectedDeadline = nullptr;
    Counter* batches = nullptr;
    Counter* batchPairs = nullptr;

    bool enabled() const { return submitted != nullptr; }

    /** Fetch every instrument from `registry` under the
     * {server=`server`} label (+ outcome labels on the request
     * counters). */
    void init(MetricsRegistry& registry, const std::string& server);
};

/**
 * @return the windowed end-to-end latency instrument for one
 * (server, model, tenant, priority) — the family is
 * ccsa_request_latency_us; its window shape is fixed by the first
 * lookup in a process (MetricsRegistry family semantics).
 */
WindowedHistogram&
serverLatencyHistogram(MetricsRegistry& registry,
                       const std::string& server,
                       const std::string& model,
                       const std::string& tenant, Priority priority,
                       const WindowedHistogram::Options& windowOpts);

/**
 * Publish the pull-style level metrics of one server: queue depth /
 * capacity gauges, live-model count, and per-model cache
 * hit/miss/eviction counters (monotone, via Counter::increaseTo)
 * plus resident-entries / resident-bytes gauges, for the latent
 * cache and the subtree-state store alike. Both servers'
 * sampleMetrics() forward here; wire sampleMetrics as a
 * MetricsSampler probe.
 */
void publishServerGauges(MetricsRegistry& registry,
                         const std::string& server,
                         std::size_t queueDepth,
                         std::size_t queueCapacity,
                         const std::vector<ModelCacheStats>& models);

} // namespace ccsa

#endif // CCSA_SERVE_SERVER_STATS_HH
