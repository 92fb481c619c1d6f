#include "serve/server_stats.hh"

#include <algorithm>
#include <map>

namespace ccsa
{

ServerStats
mergeServerStats(const std::vector<ServerStats>& shards)
{
    ServerStats out;
    std::map<std::string, TenantStats> tenants;
    for (const ServerStats& s : shards) {
        out.queueDepth += s.queueDepth;
        out.queueCapacity += s.queueCapacity;
        out.requestsSubmitted += s.requestsSubmitted;
        out.requestsRejected += s.requestsRejected;
        out.requestsRejectedShed += s.requestsRejectedShed;
        out.requestsRejectedShutdown += s.requestsRejectedShutdown;
        out.requestsRejectedQuota += s.requestsRejectedQuota;
        out.requestsRejectedDeadline += s.requestsRejectedDeadline;
        out.requestsCompleted += s.requestsCompleted;
        out.requestsFailed += s.requestsFailed;
        out.batches += s.batches;
        out.pairsServed += s.pairsServed;
        out.batchSizes.merge(s.batchSizes);
        out.latencyUs.merge(s.latencyUs);
        out.engine.cacheHits += s.engine.cacheHits;
        out.engine.cacheMisses += s.engine.cacheMisses;
        out.engine.cacheEvictions += s.engine.cacheEvictions;
        out.engine.cacheSize += s.engine.cacheSize;
        out.engine.pairsServed += s.engine.pairsServed;
        out.engine.treesEncoded += s.engine.treesEncoded;
        out.engine.subtreeNodesComputed += s.engine.subtreeNodesComputed;
        out.engine.subtreeNodesFromStore +=
            s.engine.subtreeNodesFromStore;
        out.engine.subtreeNodesDeduped += s.engine.subtreeNodesDeduped;
        out.engine.stateStoreEntries += s.engine.stateStoreEntries;
        out.engine.stateStoreBytes += s.engine.stateStoreBytes;
        out.engine.stateStoreEvictions += s.engine.stateStoreEvictions;
        for (const TenantStats& t : s.tenants) {
            TenantStats& row = tenants[t.tenant];
            row.tenant = t.tenant;
            row.submitted += t.submitted;
            row.completed += t.completed;
            row.failed += t.failed;
            row.rejectedQuota += t.rejectedQuota;
            row.rejectedDeadline += t.rejectedDeadline;
            row.latencyUs.merge(t.latencyUs);
        }
    }
    fillLatencyPercentiles(out);
    out.tenants.reserve(tenants.size());
    for (auto& [name, row] : tenants) {
        fillTenantPercentiles(row);
        out.tenants.push_back(std::move(row));
    }
    return out;
}

void
fillLatencyPercentiles(ServerStats& stats)
{
    if (stats.latencyUs.count() == 0)
        return;
    stats.latencyP50Ms = static_cast<double>(
                             stats.latencyUs.quantileUpperBound(0.5)) /
        1000.0;
    stats.latencyP99Ms = static_cast<double>(
                             stats.latencyUs.quantileUpperBound(0.99)) /
        1000.0;
    stats.latencyMeanMs = stats.latencyUs.meanValue() / 1000.0;
    stats.latencyMaxMs =
        static_cast<double>(stats.latencyUs.max()) / 1000.0;
}

void
fillTenantPercentiles(TenantStats& row)
{
    if (row.latencyUs.count() == 0)
        return;
    row.latencyP50Ms = static_cast<double>(
                           row.latencyUs.quantileUpperBound(0.5)) /
        1000.0;
    row.latencyP99Ms = static_cast<double>(
                           row.latencyUs.quantileUpperBound(0.99)) /
        1000.0;
}

void
ServerMetrics::init(MetricsRegistry& registry,
                    const std::string& server)
{
    const std::string reqHelp =
        "Requests by submission outcome (submitted = accepted into "
        "the queue; completed/failed = future fulfilled; "
        "rejected_* = refused at the door).";
    auto requests = [&](const char* outcome) {
        return &registry.counter(
            "ccsa_requests_total",
            {{"server", server}, {"outcome", outcome}}, reqHelp);
    };
    submitted = requests("submitted");
    completed = requests("completed");
    failed = requests("failed");
    rejectedShed = requests("rejected_shed");
    rejectedShutdown = requests("rejected_shutdown");
    rejectedQuota = requests("rejected_quota");
    rejectedDeadline = requests("deadline");
    batches = &registry.counter(
        "ccsa_batches_total", {{"server", server}},
        "Coalesced engine batches executed.");
    batchPairs = &registry.counter(
        "ccsa_batch_pairs_total", {{"server", server}},
        "Pairs scored across all coalesced batches.");
}

WindowedHistogram&
serverLatencyHistogram(MetricsRegistry& registry,
                       const std::string& server,
                       const std::string& model,
                       const std::string& tenant, Priority priority,
                       const WindowedHistogram::Options& windowOpts)
{
    return registry.windowedHistogram(
        "ccsa_request_latency_us",
        {{"server", server},
         {"model", model},
         {"tenant", tenant},
         {"priority", priorityName(priority)}},
        windowOpts,
        "End-to-end request latency (enqueue -> answer), us. The "
        "_window summary covers only the configured rolling "
        "window; the histogram is lifetime.");
}

void
publishServerGauges(MetricsRegistry& registry,
                    const std::string& server,
                    std::size_t queueDepth,
                    std::size_t queueCapacity,
                    const std::vector<ModelCacheStats>& models)
{
    MetricLabels serverLabel{{"server", server}};
    registry
        .gauge("ccsa_queue_depth", serverLabel,
               "Requests currently waiting for a batcher.")
        .set(static_cast<double>(queueDepth));
    registry
        .gauge("ccsa_queue_capacity", serverLabel,
               "Configured request-queue capacity.")
        .set(static_cast<double>(queueCapacity));
    registry
        .gauge("ccsa_models_live", serverLabel,
               "Models currently resolvable through the server's "
               "engine.")
        .set(static_cast<double>(models.size()));
    for (const ModelCacheStats& row : models) {
        MetricLabels labels{{"server", server},
                            {"model", row.name}};
        registry
            .counter("ccsa_cache_hits_total", labels,
                     "Encoding-cache hits per model namespace.")
            .increaseTo(row.cache.hits);
        registry
            .counter("ccsa_cache_misses_total", labels,
                     "Encoding-cache misses per model namespace.")
            .increaseTo(row.cache.misses);
        registry
            .counter("ccsa_cache_evictions_total", labels,
                     "Encoding-cache evictions attributed to the "
                     "victim's model namespace.")
            .increaseTo(row.cache.evictions);
        registry
            .gauge("ccsa_cache_residents", labels,
                   "Resident encoding-cache entries per model "
                   "namespace.")
            .set(static_cast<double>(row.cache.residents));
        registry
            .gauge("ccsa_cache_resident_bytes", labels,
                   "Payload bytes of resident latents per model "
                   "namespace.")
            .set(static_cast<double>(row.cache.residentBytes));
        registry
            .counter("ccsa_subtree_store_evictions_total", labels,
                     "Subtree-state store evictions attributed to "
                     "the victim's model namespace.")
            .increaseTo(row.states.evictions);
        registry
            .gauge("ccsa_subtree_store_residents", labels,
                   "Resident subtree-state store entries per model "
                   "namespace.")
            .set(static_cast<double>(row.states.residents));
        registry
            .gauge("ccsa_subtree_store_resident_bytes", labels,
                   "Payload bytes of resident subtree states per "
                   "model namespace.")
            .set(static_cast<double>(row.states.residentBytes));
    }
}

} // namespace ccsa
