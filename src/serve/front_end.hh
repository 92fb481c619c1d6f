/**
 * @file
 * ccsa::FrontEnd — the one serving front end. ShardedServer
 * (in-process shards) and ProcessShardedServer (worker-process
 * shards) are this class over two ShardBackends. It owns every step
 * between a client's submit and a shard's engine call:
 *
 *  - submit validation, the admission charge, and admission-time
 *    model resolution through the backend's ModelRegistry: a request
 *    runs on the ModelVersion it resolved here however many slices
 *    it splits into, so a hot swap never straddles a request;
 *  - split/join: a multi-pair request is broken into slices, and a
 *    join fans them back into one result in request order. Pairs
 *    that share a first tree stay in one slice. Over one shared
 *    queue, distinct first trees are dealt round-robin across the
 *    shards, and no tree is digested on the submitting thread; over
 *    a queue per shard, each pair goes to the shard whose partition
 *    owns its first tree's digest (ShardedEncodingCache::shardOf).
 *    submitRank rides the same path: Engine::tournamentPairs splits
 *    it, Engine::aggregateTournament joins it;
 *  - disjoint outcome counters: every request is counted exactly
 *    once as completed, failed, or rejected (shed, shutdown, quota,
 *    deadline), per tenant as well;
 *  - per-slice latency, metrics, SLO events and trace chains;
 *  - stats assembly, sampleMetrics(), start and shutdown-drain.
 *
 * Each shard runs one thread: a Coalescer + expireDeadlines loop
 * (serve/coalesce.hh) that hands every coalesced batch to the
 * backend with one virtual call. The backend fixes the queue
 * topology. In-process shards share one work-stealing queue, because
 * they share one cache and any shard can serve any slice; there
 * routing only spreads a big request across shards. Worker processes
 * each own a queue, because each owns its partition's cache; there
 * routing decides which process serves a slice.
 *
 * Determinism contract: every probability comes from one engine's
 * compareMany, whose per-pair output is independent of batch
 * composition, shard assignment and shard count, so results are
 * bitwise-identical to a synchronous Engine on the same weights.
 *
 * Failure semantics: per-request Status, never process death. A
 * malformed request fails only its own future; an expired deadline
 * answers DeadlineExceeded instead of running; a submit after
 * shutdown resolves Unavailable; shutdown() answers everything
 * accepted before it joins the shard threads. Trees referenced by a
 * request must outlive its future.
 */

#ifndef CCSA_SERVE_FRONT_END_HH
#define CCSA_SERVE_FRONT_END_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "base/bounded_queue.hh"
#include "base/result.hh"
#include "base/stats.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/coalesce.hh"
#include "serve/engine.hh"
#include "serve/server_stats.hh"
#include "serve/trace/trace_recorder.hh"

namespace ccsa
{

class SloTracker;

/** The serving options every front end shares (builder methods in
 * FrontEndOptionsBuilder). */
struct FrontEndOptions
{
    /** Shards: threads, engines or worker processes, and cache
     * partitions. */
    std::size_t numShards = 4;
    /** Max requests waiting in each request queue. */
    std::size_t queueCapacity = 1024;
    /** Flush a shard's batch once it holds this many pairs. */
    std::size_t maxBatchSize = 256;
    /** Flush once the oldest INTERACTIVE member waited this long. */
    std::chrono::microseconds maxBatchDelay{500};
    /** Flush budget of the BATCH priority lane (serve/coalesce.hh).
     * 0 = "8 x maxBatchDelay"; clamped up to maxBatchDelay. */
    std::chrono::microseconds maxBatchClassDelay{0};
    /** Optional per-tenant admission gate (not owned; must outlive
     * the server). A dry bucket answers the submit with
     * ResourceExhausted before the request touches a queue. */
    AdmissionController* admission = nullptr;
    /** Optional span sink (not owned; must outlive the server).
     * Every successful slice leaves one admission -> queue ->
     * coalesce -> encode -> score chain whose lane is the shard that
     * served it; failed or rejected requests leave none. */
    TraceRecorder* trace = nullptr;
    /** Optional metrics plane (not owned; must outlive the server).
     * Counters update inline under {server=<backend label>};
     * pull-style gauges publish on sampleMetrics(). */
    MetricsRegistry* metrics = nullptr;
    /** Optional SLO accountant fed one event per slice a shard
     * completes (not owned; must outlive the server). Slice latency
     * bounds the caller-observed latency from below — see
     * ServerStats::latencyUs. */
    SloTracker* slo = nullptr;
    /** Window shape for ccsa_request_latency_us. The FIRST server to
     * record into the family fixes its shape process-wide
     * (MetricsRegistry family semantics). */
    WindowedHistogram::Options metricsWindow;
    /** Do not start the shard threads until start(). */
    bool startPaused = false;
};

/** Builder methods over FrontEndOptions that return the server's
 * own Options type, so shared and backend-only setters chain in any
 * order. */
template <class Derived>
struct FrontEndOptionsBuilder : FrontEndOptions
{
    Derived& withNumShards(std::size_t n)
    {
        numShards = n == 0 ? 1 : n;
        return self();
    }

    Derived& withQueueCapacity(std::size_t n)
    {
        queueCapacity = n;
        return self();
    }

    Derived& withMaxBatchSize(std::size_t n)
    {
        maxBatchSize = n == 0 ? 1 : n;
        return self();
    }

    Derived& withMaxBatchDelay(std::chrono::microseconds d)
    {
        maxBatchDelay = d;
        return self();
    }

    Derived& withMaxBatchClassDelay(std::chrono::microseconds d)
    {
        maxBatchClassDelay = d;
        return self();
    }

    Derived& withAdmission(AdmissionController* controller)
    {
        admission = controller;
        return self();
    }

    Derived& withTrace(TraceRecorder* recorder)
    {
        trace = recorder;
        return self();
    }

    Derived& withMetrics(MetricsRegistry* registry)
    {
        metrics = registry;
        return self();
    }

    Derived& withSlo(SloTracker* tracker)
    {
        slo = tracker;
        return self();
    }

    Derived& withMetricsWindow(WindowedHistogram::Options w)
    {
        metricsWindow = w;
        return self();
    }

    Derived& withStartPaused(bool paused)
    {
        startPaused = paused;
        return self();
    }

  private:
    Derived& self() { return static_cast<Derived&>(*this); }
};

/** One queued unit: a per-shard slice of a client request, pinned to
 * the ModelVersion resolved at admission (the Request shape
 * serve/coalesce.hh drives). */
struct ServeSlice
{
    std::vector<Engine::PairRequest> pairs;
    std::shared_ptr<const ModelVersion> version;
    std::function<void(Result<std::vector<double>>)> complete;
    /** Scheduling lane (serve/coalesce.hh two-lane flush). */
    Priority priority = Priority::kInteractive;
    /** Admission tenant ("" = default tenant). */
    std::string tenant;
    /** TraceRecorder chain id, one per slice; 0 = untraced. */
    std::uint64_t traceId = 0;
    /** Index of the request queue the slice is pushed to. */
    std::size_t route = 0;
    /** Submit entry — the admission trace span's start. */
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point enqueued;
    /** Stamped by the Coalescer when popped (queue-span end). */
    std::chrono::steady_clock::time_point dequeued;
    /** Absolute submit-side deadline (max() = none). A split
     * request's join keeps the first slice's error, so however many
     * slices expire the client request resolves, and is counted,
     * once. */
    std::chrono::steady_clock::time_point deadline =
        std::chrono::steady_clock::time_point::max();
};

using ServeBatch = CoalescedBatch<ServeSlice>;

/** A backend's answer to one batch: a result and stage timing per
 * model group (ModelBatches::groups), in group order. */
struct BatchAnswer
{
    std::vector<Result<std::vector<double>>> results;
    std::vector<Engine::PhaseTiming> timings;
};

/** What executes a shard's coalesced batches. */
class ShardBackend
{
  public:
    virtual ~ShardBackend() = default;

    /**
     * Execute one coalesced batch, already grouped by the model
     * version each member resolved, on `shard`; called only from
     * that shard's thread. A non-OK return answers every member with
     * it and does not count the batch as served (the engine was
     * never reached); otherwise `answer` holds one result per group.
     */
    virtual Status run(std::size_t shard, const ModelBatches& batch,
                       BatchAnswer& answer) = 0;

    /** Called once before the shard threads start, and once after
     * shutdown has joined them. */
    virtual void start() {}
    virtual void stop() {}

    /** Fill one per-shard stats row's engine fields (left zero when
     * the engine lives in another process). */
    virtual void fillShardStats(std::size_t, ServerStats&) const {}
    /** Per-model cache rows (ServerStats::models and the gauges). */
    virtual std::vector<ModelCacheStats> modelStats() const
    {
        return {};
    }
    /** Publish the backend's own gauges on sampleMetrics(). */
    virtual void sampleMetrics() const {}

    /** Server name used in Status messages. */
    const std::string name;
    /** The {server=...} metrics label. */
    const std::string label;
    /** True when each shard owns a request queue; false when the
     * shards share one. */
    const bool queuePerShard;
    /** Admission resolves model names through this registry; a
     * server handed one bare model serves a registry of one. */
    const std::shared_ptr<ModelRegistry> registry;

    ShardBackend(const ShardBackend&) = delete;
    ShardBackend& operator=(const ShardBackend&) = delete;

  protected:
    ShardBackend(std::string name, std::string label,
                 bool queuePerShard,
                 std::shared_ptr<ModelRegistry> registry)
        : name(std::move(name)),
          label(std::move(label)),
          queuePerShard(queuePerShard),
          registry(std::move(registry))
    {
    }
};

/** The shared serving front end over one ShardBackend. */
class FrontEnd
{
  public:
    /** Equivalent to shutdown(). */
    ~FrontEnd();

    FrontEnd(const FrontEnd&) = delete;
    FrontEnd& operator=(const FrontEnd&) = delete;

    /** Submit one comparison; resolves to P(first slower-or-equal),
     * exactly as Engine::compare. Blocks while the queue is full. */
    std::future<Result<double>> submitCompare(const Ast& first,
                                              const Ast& second)
    {
        return submitCompare(SubmitOptions(), first, second);
    }
    std::future<Result<double>> submitCompare(
        const SubmitOptions& submitOpts, const Ast& first,
        const Ast& second);

    /** Submit a pair batch; resolves to one probability per pair in
     * request order, bitwise-identical to Engine::compareMany on the
     * whole batch however it splits across shards. */
    std::future<Result<std::vector<double>>>
    submitCompareMany(std::vector<Engine::PairRequest> pairs)
    {
        return submitCompareMany(SubmitOptions(), std::move(pairs));
    }
    std::future<Result<std::vector<double>>>
    submitCompareMany(const SubmitOptions& submitOpts,
                      std::vector<Engine::PairRequest> pairs);

    /** Submit a ranking tournament; resolves to the ranking
     * Engine::rank would return. Candidate trees must outlive the
     * future. */
    std::future<Result<std::vector<Engine::RankedCandidate>>>
    submitRank(std::vector<const Ast*> candidates)
    {
        return submitRank(SubmitOptions(), std::move(candidates));
    }
    std::future<Result<std::vector<Engine::RankedCandidate>>>
    submitRank(const SubmitOptions& submitOpts,
               std::vector<const Ast*> candidates);

    /**
     * Non-blocking submitCompare: nullopt when the queue lacks room
     * (nothing was enqueued; retry or shed load). A shut-down server
     * still returns a future carrying Unavailable, so callers can
     * tell backpressure from teardown.
     */
    std::optional<std::future<Result<double>>>
    trySubmitCompare(const Ast& first, const Ast& second)
    {
        return trySubmitCompare(SubmitOptions(), first, second);
    }
    std::optional<std::future<Result<double>>>
    trySubmitCompare(const SubmitOptions& submitOpts,
                     const Ast& first, const Ast& second);

    /** Non-blocking submitCompareMany. Admission is all-or-nothing:
     * either every per-shard slice fits its queue or none is
     * enqueued and nullopt is returned — a load-shed request never
     * leaves half of itself behind. */
    std::optional<std::future<Result<std::vector<double>>>>
    trySubmitCompareMany(std::vector<Engine::PairRequest> pairs)
    {
        return trySubmitCompareMany(SubmitOptions(), std::move(pairs));
    }
    std::optional<std::future<Result<std::vector<double>>>>
    trySubmitCompareMany(const SubmitOptions& submitOpts,
                         std::vector<Engine::PairRequest> pairs);

    /** Start the shard threads if construction was startPaused.
     * No-op when already running or shut down. */
    void start();

    /**
     * Stop accepting requests, drain and answer everything already
     * accepted (starting the shard threads if they never ran), join
     * them, then stop the backend. Idempotent; safe from any thread
     * but not from a request callback.
     */
    void shutdown();

    /** @return true once shutdown() has completed. */
    bool isShutdown() const;

    /** Publish the pull-style gauges (queue depth/capacity, live
     * models, per-model cache levels, backend gauges) to the
     * attached registry; no-op without one. Wire as a MetricsSampler
     * probe. */
    void sampleMetrics() const;

    std::size_t numShards() const { return shards_.size(); }

  protected:
    /** Serve through `backend`, which must be built for
     * opts.numShards shards; starts unless opts.startPaused. */
    FrontEnd(std::unique_ptr<ShardBackend> backend,
             FrontEndOptions opts);

    /** Per-shard rows and the aggregate, merged from the per-shard
     * histograms (mergeServerStats), never by averaging
     * percentiles. */
    void snapshot(ServerStats& aggregate,
                  std::vector<ServerStats>& shards) const;

    ShardBackend& backend() const { return *backend_; }

  private:
    using Clock = std::chrono::steady_clock;
    using Completion = std::function<void(Result<std::vector<double>>)>;

    /** One shard thread's serving volume and latency. */
    struct ShardCounters
    {
        mutable std::mutex mutex;
        std::uint64_t batches = 0;
        std::uint64_t pairsServed = 0;
        Histogram batchSizes;
        Histogram latencyUs;
        /** Per-tenant latency of the slices this shard served. */
        std::unordered_map<std::string, Histogram> tenantLatencyUs;
        /** The registry's latency instrument per (model, tenant,
         * priority), looked up once: registry instruments are stable
         * references. Only the shard's own thread touches it, so it
         * needs no lock. */
        std::map<std::tuple<std::string, std::string, Priority>,
                 WindowedHistogram*, std::less<>>
            latencyInstruments;
    };

    /** Submit-side per-tenant counters (latency lives per shard). */
    struct TenantCounters
    {
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t failed = 0;
        std::uint64_t rejectedQuota = 0;
        std::uint64_t rejectedDeadline = 0;
    };

    /**
     * Validate, charge admission, resolve the model, split and
     * enqueue. Invalid requests, quota and shutdown rejections are
     * answered through `complete` on the calling thread.
     * @return false only for a non-blocking attempt that found a
     * queue full — the one case where no future is handed out.
     */
    bool enqueue(const SubmitOptions& submitOpts,
                 std::vector<Engine::PairRequest> pairs,
                 Completion complete, bool blocking);

    /** Split validated pairs into per-shard slices wired to one
     * completion (directly, or through a join when the request
     * crosses shards). */
    std::vector<ServeSlice> split(
        std::vector<Engine::PairRequest> pairs,
        std::shared_ptr<const ModelVersion> version,
        Completion complete, const SubmitOptions& submitOpts,
        Clock::time_point submitStart);

    /** All-or-nothing non-blocking push of every slice. */
    QueuePush tryPushAll(std::vector<ServeSlice>& slices);

    void shardLoop(std::size_t shard);
    /** Record a served batch and fan its answer out. */
    void finish(std::size_t shard, ServeBatch& batch,
                const ModelBatches& grouped, const BatchAnswer& answer);
    /** The registry latency instrument of `slice`'s (model, tenant,
     * priority), resolved through `counters`' cache. */
    WindowedHistogram& latencyInstrument(ShardCounters& counters,
                                         const ServeSlice& slice);
    /** Emit one slice's five-span chain (no-op when untraced). */
    void recordTrace(const ServeSlice& slice,
                     const Engine::PhaseTiming& timing,
                     std::uint32_t lane);
    /** Spawn the shard threads; caller holds lifecycleMutex_. */
    void startLocked();

    FrontEndOptions opts_;
    std::unique_ptr<ShardBackend> backend_;
    /** One queue shared by every shard, or one per shard. */
    std::vector<std::unique_ptr<BoundedQueue<ServeSlice>>> queues_;
    std::vector<std::unique_ptr<ShardCounters>> shards_;
    /** Registry-owned inline instruments; null members when no
     * registry is attached. */
    ServerMetrics metrics_;

    /** Guards the thread lifecycle (start/shutdown). */
    mutable std::mutex lifecycleMutex_;
    bool started_ = false;
    bool shutdown_ = false;

    /** Guards the request-level counters below. */
    mutable std::mutex submitMutex_;
    std::uint64_t submitted_ = 0;
    std::uint64_t rejectedShed_ = 0;
    std::uint64_t rejectedShutdown_ = 0;
    std::uint64_t rejectedQuota_ = 0;
    std::uint64_t rejectedDeadline_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t failed_ = 0;
    std::unordered_map<std::string, TenantCounters> tenants_;

    /** One per shard; they use every member above. */
    std::vector<std::thread> threads_;
};

} // namespace ccsa

#endif // CCSA_SERVE_FRONT_END_HH
