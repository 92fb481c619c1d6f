#include "serve/sharded_server.hh"

#include <algorithm>
#include <atomic>
#include <string>
#include <unordered_map>
#include <utility>

#include "serve/coalesce.hh"
#include "serve/metrics/slo_tracker.hh"

namespace ccsa
{

namespace
{

ShardedServer::Options
normalized(ShardedServer::Options opts)
{
    if (opts.numShards == 0)
        opts.numShards = 1;
    if (opts.maxBatchSize == 0)
        opts.maxBatchSize = 1;
    if (opts.maxBatchDelay.count() < 0)
        opts.maxBatchDelay = std::chrono::microseconds(0);
    return opts;
}

} // namespace

ShardedServer::ShardedServer(Engine::Options engineOpts)
    : ShardedServer(std::move(engineOpts), Options())
{
}

ShardedServer::ShardedServer(Engine::Options engineOpts, Options opts)
    : ShardedServer(std::make_shared<ComparativePredictor>(
                        engineOpts.encoder, engineOpts.seed),
                    engineOpts, opts)
{
}

ShardedServer::ShardedServer(
    std::shared_ptr<ComparativePredictor> model,
    Engine::Options engineOpts, Options opts)
    : opts_(normalized(opts)),
      cache_(ShardedEncodingCache::makeShared(
          opts_.numShards, engineOpts.cacheCapacity,
          engineOpts.latentPrecision)),
      queue_(opts_.queueCapacity)
{
    engineOpts.threads = opts_.threadsPerShard;
    // Wrap the model ONCE: every worker engine shares this version
    // and therefore its cache namespace — a latent encoded by any
    // worker serves all of them.
    auto version = std::make_shared<ModelVersion>();
    version->name = "model";
    version->id = cache_->namespaceFor(model);
    version->sequence = 1;
    version->model = std::move(model);
    workers_.reserve(opts_.numShards);
    for (std::size_t s = 0; s < opts_.numShards; ++s) {
        auto worker = std::make_unique<Worker>();
        worker->engine =
            std::make_unique<Engine>(version, engineOpts, cache_);
        workers_.push_back(std::move(worker));
    }
    initMetrics();
    if (!opts_.startPaused)
        start();
}

ShardedServer::ShardedServer(std::shared_ptr<ModelRegistry> registry,
                             Engine::Options engineOpts, Options opts)
    : opts_(normalized(opts)),
      cache_(ShardedEncodingCache::makeShared(
          opts_.numShards, engineOpts.cacheCapacity,
          engineOpts.latentPrecision)),
      queue_(opts_.queueCapacity)
{
    engineOpts.threads = opts_.threadsPerShard;
    workers_.reserve(opts_.numShards);
    for (std::size_t s = 0; s < opts_.numShards; ++s) {
        auto worker = std::make_unique<Worker>();
        worker->engine =
            std::make_unique<Engine>(registry, engineOpts, cache_);
        workers_.push_back(std::move(worker));
    }
    initMetrics();
    if (!opts_.startPaused)
        start();
}

void
ShardedServer::initMetrics()
{
    if (opts_.metrics != nullptr)
        metrics_.init(*opts_.metrics, "sharded");
}

ShardedServer::~ShardedServer()
{
    shutdown();
}

std::chrono::microseconds
ShardedServer::batchClassDelay() const
{
    if (opts_.maxBatchClassDelay.count() > 0)
        return opts_.maxBatchClassDelay;
    return opts_.maxBatchDelay * 8;
}

void
ShardedServer::startWorkersLocked()
{
    for (std::size_t s = 0; s < workers_.size(); ++s)
        workers_[s]->thread =
            std::thread([this, s] { workerLoop(s); });
    started_ = true;
}

void
ShardedServer::start()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_ || started_)
        return;
    startWorkersLocked();
}

void
ShardedServer::shutdown()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_)
        return;
    // No new requests; already-queued ones stay poppable.
    queue_.close();
    // A paused server still owes answers for everything it
    // accepted: run the workers now so the closed queue drains.
    if (!started_)
        startWorkersLocked();
    for (auto& worker : workers_)
        worker->thread.join();
    shutdown_ = true;
}

bool
ShardedServer::isShutdown() const
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    return shutdown_;
}

Engine&
ShardedServer::shardEngine(std::size_t s)
{
    if (s >= workers_.size())
        fatal("ShardedServer: shard index out of range");
    return *workers_[s]->engine;
}

std::vector<ShardedServer::Request>
ShardedServer::splitRequest(
    std::vector<Engine::PairRequest> pairs,
    std::shared_ptr<const ModelVersion> version,
    std::function<void(Result<std::vector<double>>)> complete,
    const SubmitOptions& submitOpts,
    std::chrono::steady_clock::time_point submitStart)
{
    auto now = std::chrono::steady_clock::now();
    auto stamp = [&](Request& request) {
        request.priority = submitOpts.priority;
        request.tenant = submitOpts.tenant;
        if (opts_.trace != nullptr)
            request.traceId = opts_.trace->nextChain();
        request.submitted = submitStart;
        request.enqueued = now;
        if (submitOpts.deadline.count() > 0)
            request.deadline = submitStart + submitOpts.deadline;
    };
    std::vector<Request> requests;

    // Group pair indices by the cache partition owning each first
    // tree. Routing is purely an optimisation (slices land where
    // their first latents live, and a big request spreads across
    // workers); correctness never depends on it. The engine will
    // re-digest these trees for its cache lookup, but a digest is
    // one O(nodes) walk against the O(nodes * dim^2) encode it
    // routes, and running it here keeps routing on the producer's
    // thread instead of adding work to the worker critical path.
    std::vector<std::vector<std::size_t>> groups(workers_.size());
    if (workers_.size() > 1 && pairs.size() > 1) {
        // Memoise by tree identity: tournament requests repeat each
        // candidate as .first many times, and one digest walk per
        // DISTINCT tree is enough to route them all.
        std::unordered_map<const Ast*, std::size_t> shardOfTree;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            auto [it, inserted] =
                shardOfTree.emplace(pairs[i].first, 0);
            if (inserted)
                it->second =
                    cache_->shardOf(digestAst(*pairs[i].first));
            groups[it->second].push_back(i);
        }
    }
    std::size_t nonEmpty = 0;
    for (const auto& g : groups)
        nonEmpty += g.empty() ? 0 : 1;

    if (nonEmpty <= 1) {
        // Whole request fits one worker: no join needed.
        Request request;
        request.pairs = std::move(pairs);
        request.version = std::move(version);
        request.complete = std::move(complete);
        stamp(request);
        requests.push_back(std::move(request));
        return requests;
    }

    auto join = std::make_shared<JoinState>();
    join->values.resize(pairs.size(), 0.0);
    join->remaining = nonEmpty;
    join->complete = std::move(complete);

    for (const std::vector<std::size_t>& slots : groups) {
        if (slots.empty())
            continue;
        Request request;
        request.pairs.reserve(slots.size());
        for (std::size_t i : slots)
            request.pairs.push_back(pairs[i]);
        request.version = version;
        stamp(request);
        request.complete =
            [join, slots](Result<std::vector<double>> r) {
                bool done = false;
                {
                    std::lock_guard<std::mutex> lock(join->mutex);
                    if (r.isOk()) {
                        for (std::size_t k = 0; k < slots.size();
                             ++k)
                            join->values[slots[k]] = r.value()[k];
                    } else if (join->error.isOk()) {
                        join->error = r.status();
                    }
                    done = --join->remaining == 0;
                }
                // Last slice completes the caller. No lock held:
                // nobody else can touch the join once remaining
                // hit zero.
                if (done) {
                    if (join->error.isOk())
                        join->complete(std::move(join->values));
                    else
                        join->complete(join->error);
                }
            };
        requests.push_back(std::move(request));
    }
    return requests;
}

bool
ShardedServer::submitCore(
    const SubmitOptions& submitOpts,
    std::vector<Engine::PairRequest> pairs,
    std::function<void(Result<std::vector<double>>)> complete,
    bool blocking)
{
    auto submitStart = std::chrono::steady_clock::now();

    // Request-level counters update BEFORE the caller's promise
    // resolves, so a returned future never observes lagging stats.
    // A request refused at the door (queue closed) is counted as
    // rejected ONLY — matching AsyncServer, where completed/failed/
    // rejected are disjoint outcomes — so the Closed paths below
    // raise this tag before resolving the slices.
    auto rejectedTag = std::make_shared<std::atomic<bool>>(false);
    auto counted =
        [this, rejectedTag, tenant = submitOpts.tenant,
         complete = std::move(complete)](
            Result<std::vector<double>> r) {
            if (!rejectedTag->load()) {
                // Deadline expiries are attributed rejections, not
                // failures: the request was accepted but its answer
                // came due before an engine ran it.
                bool deadline = !r.isOk() &&
                    r.status().code() ==
                        StatusCode::DeadlineExceeded;
                if (metrics_.enabled())
                    (r.isOk()          ? metrics_.completed
                         : deadline    ? metrics_.rejectedDeadline
                                       : metrics_.failed)
                        ->inc();
                std::lock_guard<std::mutex> lock(submitMutex_);
                if (r.isOk()) {
                    completed_++;
                    tenants_[tenant].completed++;
                } else if (deadline) {
                    rejectedDeadline_++;
                    tenants_[tenant].rejectedDeadline++;
                } else {
                    failed_++;
                    tenants_[tenant].failed++;
                }
            }
            complete(std::move(r));
        };

    // Per-request validation: a malformed request fails only its
    // own future and never reaches a shared batch.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        if (pairs[i].first == nullptr || pairs[i].second == nullptr) {
            counted(Status::invalidArgument(
                "submit: null tree in pair " + std::to_string(i)));
            return true;
        }
    }
    if (pairs.empty()) {
        counted(std::vector<double>{});
        return true;
    }

    // Admission: charge the tenant's bucket BEFORE splitting or
    // queueing, so a flooding tenant is turned away at the door.
    if (opts_.admission != nullptr) {
        Status admitted =
            opts_.admission->admit(submitOpts.tenant, pairs.size());
        if (!admitted.isOk()) {
            if (metrics_.enabled())
                metrics_.rejectedQuota->inc();
            {
                std::lock_guard<std::mutex> lock(submitMutex_);
                rejectedQuota_++;
                tenants_[submitOpts.tenant].rejectedQuota++;
            }
            rejectedTag->store(true);
            counted(admitted);
            return true;
        }
    }

    // Admission-time model resolution: the whole request (however
    // many shard slices it splits into) runs on this one snapshot,
    // so a hot swap can never straddle a request.
    Result<std::shared_ptr<const ModelVersion>> version =
        workers_[0]->engine->resolveModel(submitOpts.model);
    if (!version.isOk()) {
        counted(version.status());
        return true;
    }

    std::vector<Request> requests =
        splitRequest(std::move(pairs), version.take(),
                     std::move(counted), submitOpts, submitStart);

    if (!blocking) {
        // All-or-nothing: either every slice is admitted or none.
        switch (queue_.tryPushAll(requests)) {
          case QueuePush::Ok: {
              if (metrics_.enabled())
                  metrics_.submitted->inc();
              std::lock_guard<std::mutex> lock(submitMutex_);
              submitted_++;
              tenants_[submitOpts.tenant].submitted++;
              return true;
          }
          case QueuePush::Full: {
              if (metrics_.enabled())
                  metrics_.rejectedShed->inc();
              std::lock_guard<std::mutex> lock(submitMutex_);
              rejectedShed_++;
              return false; // caller keeps no future and may retry
          }
          case QueuePush::Closed: {
              if (metrics_.enabled())
                  metrics_.rejectedShutdown->inc();
              {
                  std::lock_guard<std::mutex> lock(submitMutex_);
                  rejectedShutdown_++;
              }
              rejectedTag->store(true);
              // Resolve EVERY slice: a split request's join only
              // completes (and the caller's promise only resolves)
              // once all of its slices have reported in.
              for (Request& request : requests)
                  request.complete(Status::unavailable(
                      "ShardedServer: submit after shutdown"));
              return true;
          }
        }
        return true; // unreachable
    }

    bool anyClosed = false;
    for (Request& request : requests) {
        if (queue_.push(std::move(request)) == QueuePush::Closed) {
            // Push leaves the request untouched on rejection. A
            // rejected slice resolves Unavailable through its own
            // completion, so a join still fans in correctly even
            // when shutdown lands mid-split.
            if (!anyClosed) {
                if (metrics_.enabled())
                    metrics_.rejectedShutdown->inc();
                std::lock_guard<std::mutex> lock(submitMutex_);
                rejectedShutdown_++;
            }
            anyClosed = true;
            rejectedTag->store(true);
            request.complete(Status::unavailable(
                "ShardedServer: submit after shutdown"));
        }
    }
    if (!anyClosed) {
        if (metrics_.enabled())
            metrics_.submitted->inc();
        std::lock_guard<std::mutex> lock(submitMutex_);
        submitted_++;
        tenants_[submitOpts.tenant].submitted++;
    }
    return true;
}

std::future<Result<double>>
ShardedServer::submitCompare(const Ast& first, const Ast& second)
{
    return submitCompare(SubmitOptions(), first, second);
}

std::future<Result<double>>
ShardedServer::submitCompare(const std::string& model,
                             const Ast& first, const Ast& second)
{
    return submitCompare(SubmitOptions().withModel(model), first,
                         second);
}

std::future<Result<double>>
ShardedServer::submitCompare(const SubmitOptions& submitOpts,
                             const Ast& first, const Ast& second)
{
    auto promise = std::make_shared<std::promise<Result<double>>>();
    std::future<Result<double>> future = promise->get_future();
    submitCore(submitOpts, {Engine::PairRequest{&first, &second}},
               [promise](Result<std::vector<double>> r) {
                   if (r.isOk())
                       promise->set_value(r.value()[0]);
                   else
                       promise->set_value(r.status());
               },
               /*blocking=*/true);
    return future;
}

std::future<Result<std::vector<double>>>
ShardedServer::submitCompareMany(
    std::vector<Engine::PairRequest> pairs)
{
    return submitCompareMany(SubmitOptions(), std::move(pairs));
}

std::future<Result<std::vector<double>>>
ShardedServer::submitCompareMany(
    const std::string& model, std::vector<Engine::PairRequest> pairs)
{
    return submitCompareMany(SubmitOptions().withModel(model),
                             std::move(pairs));
}

std::future<Result<std::vector<double>>>
ShardedServer::submitCompareMany(
    const SubmitOptions& submitOpts,
    std::vector<Engine::PairRequest> pairs)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<double>>>>();
    std::future<Result<std::vector<double>>> future =
        promise->get_future();
    submitCore(submitOpts, std::move(pairs),
               [promise](Result<std::vector<double>> r) {
                   promise->set_value(std::move(r));
               },
               /*blocking=*/true);
    return future;
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
ShardedServer::submitRank(std::vector<const Ast*> candidates)
{
    return submitRank(SubmitOptions(), std::move(candidates));
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
ShardedServer::submitRank(const std::string& model,
                          std::vector<const Ast*> candidates)
{
    return submitRank(SubmitOptions().withModel(model),
                      std::move(candidates));
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
ShardedServer::submitRank(const SubmitOptions& submitOpts,
                          std::vector<const Ast*> candidates)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<Engine::RankedCandidate>>>>();
    std::future<Result<std::vector<Engine::RankedCandidate>>> future =
        promise->get_future();
    if (candidates.size() < 2) {
        promise->set_value(Status::invalidArgument(
            "submitRank: need at least two candidates"));
        if (metrics_.enabled())
            metrics_.failed->inc();
        std::lock_guard<std::mutex> lock(submitMutex_);
        failed_++;
        return future;
    }
    std::size_t n = candidates.size();
    submitCore(submitOpts, Engine::tournamentPairs(candidates),
               [promise, n](Result<std::vector<double>> r) {
                   if (r.isOk())
                       promise->set_value(Engine::aggregateTournament(
                           n, r.value()));
                   else
                       promise->set_value(r.status());
               },
               /*blocking=*/true);
    return future;
}

std::optional<std::future<Result<double>>>
ShardedServer::trySubmitCompare(const Ast& first, const Ast& second)
{
    return trySubmitCompare(SubmitOptions(), first, second);
}

std::optional<std::future<Result<double>>>
ShardedServer::trySubmitCompare(const std::string& model,
                                const Ast& first, const Ast& second)
{
    return trySubmitCompare(SubmitOptions().withModel(model), first,
                            second);
}

std::optional<std::future<Result<double>>>
ShardedServer::trySubmitCompare(const SubmitOptions& submitOpts,
                                const Ast& first, const Ast& second)
{
    auto promise = std::make_shared<std::promise<Result<double>>>();
    std::future<Result<double>> future = promise->get_future();
    bool accepted =
        submitCore(submitOpts,
                   {Engine::PairRequest{&first, &second}},
                   [promise](Result<std::vector<double>> r) {
                       if (r.isOk())
                           promise->set_value(r.value()[0]);
                       else
                           promise->set_value(r.status());
                   },
                   /*blocking=*/false);
    if (!accepted)
        return std::nullopt;
    return future;
}

std::optional<std::future<Result<std::vector<double>>>>
ShardedServer::trySubmitCompareMany(
    std::vector<Engine::PairRequest> pairs)
{
    return trySubmitCompareMany(SubmitOptions(), std::move(pairs));
}

std::optional<std::future<Result<std::vector<double>>>>
ShardedServer::trySubmitCompareMany(
    const std::string& model, std::vector<Engine::PairRequest> pairs)
{
    return trySubmitCompareMany(SubmitOptions().withModel(model),
                                std::move(pairs));
}

std::optional<std::future<Result<std::vector<double>>>>
ShardedServer::trySubmitCompareMany(
    const SubmitOptions& submitOpts,
    std::vector<Engine::PairRequest> pairs)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<double>>>>();
    std::future<Result<std::vector<double>>> future =
        promise->get_future();
    bool accepted =
        submitCore(submitOpts, std::move(pairs),
                   [promise](Result<std::vector<double>> r) {
                       promise->set_value(std::move(r));
                   },
                   /*blocking=*/false);
    if (!accepted)
        return std::nullopt;
    return future;
}

void
ShardedServer::workerLoop(std::size_t shard)
{
    Worker& worker = *workers_[shard];
    Coalescer<Request> coalescer(queue_, opts_.maxBatchSize,
                                 opts_.maxBatchDelay,
                                 batchClassDelay());
    for (;;) {
        // The same two-lane pop-and-coalesce state machine as
        // AsyncServer's batcher (serve/coalesce.hh); nullopt means
        // the queue is closed, fully drained, and this worker holds
        // nothing over — clean exit.
        std::optional<CoalescedBatch<Request>> batch =
            coalescer.next();
        if (!batch)
            return;

        // Expired members answer DeadlineExceeded instead of riding
        // the engine call (serve/coalesce.hh expireDeadlines); the
        // submitCore completion wrapper attributes the rejection, so
        // no extra counting happens here.
        expireDeadlines(*batch, std::chrono::steady_clock::now(),
                        "ShardedServer", [](const Request&) {});
        if (batch->requests.empty())
            continue;

        // One engine call per model version in this worker's tick.
        // Other workers run their own ticks concurrently; the shared
        // cache dedups latents per version across all of them.
        ModelBatches grouped = groupBatchByModel(*batch);
        std::vector<Result<std::vector<double>>> results;
        std::vector<Engine::PhaseTiming> timings(
            grouped.groups.size());
        results.reserve(grouped.groups.size());
        for (std::size_t g = 0; g < grouped.groups.size(); ++g)
            results.push_back(worker.engine->compareMany(
                *grouped.groups[g].version, grouped.groups[g].pairs,
                &timings[g]));

        auto completedAt = std::chrono::steady_clock::now();
        if (metrics_.enabled()) {
            metrics_.batches->inc();
            metrics_.batchPairs->inc(batch->pairCount);
        }
        {
            std::lock_guard<std::mutex> lock(worker.mutex);
            worker.batches++;
            worker.pairsServed += batch->pairCount;
            worker.batchSizes.add(batch->pairCount);
            for (const Request& r : batch->requests) {
                std::size_t us =
                    latencySampleUs(completedAt - r.enqueued);
                worker.latencyUs.add(us);
                worker.tenantLatencyUs[r.tenant].add(us);
            }
        }
        // Registry instruments synchronise themselves — feed them
        // outside worker.mutex. One sample per SLICE, like
        // ServerStats::latencyUs (split requests bound the caller
        // latency from below).
        for (const Request& r : batch->requests) {
            std::size_t us =
                latencySampleUs(completedAt - r.enqueued);
            if (metrics_.enabled())
                serverLatencyHistogram(*opts_.metrics, "sharded",
                                       r.version->name, r.tenant,
                                       r.priority,
                                       opts_.metricsWindow)
                    .add(us, completedAt);
            if (opts_.slo != nullptr)
                opts_.slo->record(r.version->name, r.tenant, us,
                                  completedAt);
        }

        // Fan slices (or their group's failure) back out in
        // submission order.
        for (std::size_t i = 0; i < batch->requests.size(); ++i) {
            Request& r = batch->requests[i];
            const Result<std::vector<double>>& probs =
                results[grouped.groupOf[i]];
            if (probs.isOk()) {
                recordTrace(r, timings[grouped.groupOf[i]],
                            static_cast<std::uint32_t>(shard));
                auto begin = probs.value().begin() +
                    static_cast<std::ptrdiff_t>(grouped.offsetOf[i]);
                r.complete(std::vector<double>(
                    begin,
                    begin + static_cast<std::ptrdiff_t>(
                                r.pairs.size())));
            } else {
                r.complete(probs.status());
            }
        }
    }
}

void
ShardedServer::recordTrace(const Request& request,
                           const Engine::PhaseTiming& timing,
                           std::uint32_t lane)
{
    if (opts_.trace == nullptr || request.traceId == 0)
        return;
    TraceRecorder& trace = *opts_.trace;
    auto pairs = static_cast<std::uint32_t>(request.pairs.size());
    trace.record(request.traceId, TracePhase::Admission,
                 request.submitted, request.enqueued, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Queue,
                 request.enqueued, request.dequeued, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Coalesce,
                 request.dequeued, timing.encodeStart, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Encode,
                 timing.encodeStart, timing.encodeEnd, lane,
                 request.tenant, pairs);
    trace.record(request.traceId, TracePhase::Score,
                 timing.encodeEnd, timing.scoreEnd, lane,
                 request.tenant, pairs);
}

void
ShardedServer::sampleMetrics() const
{
    if (opts_.metrics == nullptr)
        return;
    // Any worker's engine sees the same registry and shared cache,
    // so one engine's per-model rows describe the whole server.
    publishServerGauges(*opts_.metrics, "sharded", queue_.size(),
                        queue_.capacity(),
                        workers_[0]->engine->perModelCacheStats());
}

ShardedServerStats
ShardedServer::stats() const
{
    ShardedServerStats out;
    out.shards.reserve(workers_.size());
    for (std::size_t s = 0; s < workers_.size(); ++s) {
        const Worker& worker = *workers_[s];
        ServerStats row;
        {
            std::lock_guard<std::mutex> lock(worker.mutex);
            row.batches = worker.batches;
            row.pairsServed = worker.pairsServed;
            row.batchSizes = worker.batchSizes;
            row.latencyUs = worker.latencyUs;
            // Per-shard tenant rows carry slice latency only;
            // request-level tenant counters are global (below).
            row.tenants.reserve(worker.tenantLatencyUs.size());
            for (const auto& [name, hist] : worker.tenantLatencyUs) {
                TenantStats t;
                t.tenant = name;
                t.latencyUs = hist;
                row.tenants.push_back(std::move(t));
            }
        }
        std::sort(row.tenants.begin(), row.tenants.end(),
                  [](const TenantStats& a, const TenantStats& b) {
                      return a.tenant < b.tenant;
                  });
        for (TenantStats& t : row.tenants)
            fillTenantPercentiles(t);
        fillLatencyPercentiles(row);
        // Engine volume is per shard engine; cache and state-store
        // counters are the shard's PARTITION of the shared cache, so
        // the per-shard rows partition the aggregate exactly.
        Engine::Stats engine = worker.engine->stats();
        EncodingCache::Stats part = cache_->shardStats(s);
        LruNamespaceStats states = cache_->stateShardStats(s);
        row.engine.treesEncoded = engine.treesEncoded;
        row.engine.pairsServed = engine.pairsServed;
        row.engine.subtreeNodesComputed = engine.subtreeNodesComputed;
        row.engine.subtreeNodesFromStore = engine.subtreeNodesFromStore;
        row.engine.subtreeNodesDeduped = engine.subtreeNodesDeduped;
        row.engine.cacheHits = part.hits;
        row.engine.cacheMisses = part.misses;
        row.engine.cacheEvictions = part.evictions;
        row.engine.cacheSize = cache_->shardSize(s);
        row.engine.stateStoreEntries = states.residents;
        row.engine.stateStoreBytes = states.residentBytes;
        row.engine.stateStoreEvictions = states.evictions;
        out.shards.push_back(std::move(row));
    }

    // Merged histograms drive the aggregate latency percentiles;
    // per-shard cache partitions sum to the shared cache's totals.
    out.aggregate = mergeServerStats(out.shards);
    out.aggregate.queueDepth = queue_.size();
    out.aggregate.queueCapacity = queue_.capacity();
    // Per-model rows describe the ONE shared cache; any worker's
    // engine sees the same namespaces, so fill them once rather than
    // summing N identical copies.
    out.aggregate.models = workers_[0]->engine->perModelCacheStats();
    {
        std::lock_guard<std::mutex> lock(submitMutex_);
        out.aggregate.requestsSubmitted = submitted_;
        out.aggregate.requestsRejectedShed = rejectedShed_;
        out.aggregate.requestsRejectedShutdown = rejectedShutdown_;
        out.aggregate.requestsRejectedQuota = rejectedQuota_;
        out.aggregate.requestsRejectedDeadline = rejectedDeadline_;
        out.aggregate.requestsRejected = rejectedShed_ +
            rejectedShutdown_ + rejectedQuota_ + rejectedDeadline_;
        out.aggregate.requestsCompleted = completed_;
        out.aggregate.requestsFailed = failed_;
        // Graft the global per-tenant request counters onto the
        // merged (latency-only) tenant rows; a tenant rejected
        // before it ever reached a worker still gets a row.
        for (const auto& [name, counters] : tenants_) {
            TenantStats* row = nullptr;
            for (TenantStats& t : out.aggregate.tenants)
                if (t.tenant == name) {
                    row = &t;
                    break;
                }
            if (row == nullptr) {
                TenantStats t;
                t.tenant = name;
                out.aggregate.tenants.push_back(std::move(t));
                row = &out.aggregate.tenants.back();
            }
            row->submitted = counters.submitted;
            row->completed = counters.completed;
            row->failed = counters.failed;
            row->rejectedQuota = counters.rejectedQuota;
            row->rejectedDeadline = counters.rejectedDeadline;
        }
    }
    std::sort(out.aggregate.tenants.begin(),
              out.aggregate.tenants.end(),
              [](const TenantStats& a, const TenantStats& b) {
                  return a.tenant < b.tenant;
              });
    return out;
}

} // namespace ccsa
