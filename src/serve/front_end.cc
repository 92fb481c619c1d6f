#include "serve/front_end.hh"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <utility>

#include "serve/metrics/slo_tracker.hh"

namespace ccsa
{

namespace
{

FrontEndOptions
normalized(FrontEndOptions opts)
{
    if (opts.numShards == 0)
        opts.numShards = 1;
    if (opts.maxBatchSize == 0)
        opts.maxBatchSize = 1;
    if (opts.maxBatchDelay.count() < 0)
        opts.maxBatchDelay = std::chrono::microseconds(0);
    if (opts.maxBatchClassDelay.count() <= 0)
        opts.maxBatchClassDelay = opts.maxBatchDelay * 8;
    return opts;
}

bool
byTenant(const TenantStats& a, const TenantStats& b)
{
    return a.tenant < b.tenant;
}

/** Fan-in for a request split across shard queues. */
struct Join
{
    std::mutex mutex;
    std::vector<double> values;
    Status error; // Ok until the first failing slice
    std::size_t remaining = 0;
    std::function<void(Result<std::vector<double>>)> complete;
};

} // namespace

FrontEnd::FrontEnd(std::unique_ptr<ShardBackend> backend,
                   FrontEndOptions opts)
    : opts_(normalized(std::move(opts))), backend_(std::move(backend))
{
    std::size_t queues = backend_->queuePerShard ? opts_.numShards : 1;
    for (std::size_t q = 0; q < queues; ++q)
        queues_.push_back(std::make_unique<BoundedQueue<ServeSlice>>(
            opts_.queueCapacity));
    for (std::size_t s = 0; s < opts_.numShards; ++s)
        shards_.push_back(std::make_unique<ShardCounters>());
    if (opts_.metrics != nullptr)
        metrics_.init(*opts_.metrics, backend_->label);
    if (!opts_.startPaused)
        start();
}

FrontEnd::~FrontEnd()
{
    shutdown();
}

void
FrontEnd::startLocked()
{
    backend_->start();
    for (std::size_t s = 0; s < shards_.size(); ++s)
        threads_.emplace_back([this, s] { shardLoop(s); });
    started_ = true;
}

void
FrontEnd::start()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_ || started_)
        return;
    startLocked();
}

void
FrontEnd::shutdown()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (shutdown_)
        return;
    // No new requests; already-queued ones stay poppable.
    for (auto& queue : queues_)
        queue->close();
    // A paused server still owes answers for everything it accepted:
    // run the shards now so the closed queues drain.
    if (!started_)
        startLocked();
    for (std::thread& thread : threads_)
        thread.join();
    backend_->stop();
    shutdown_ = true;
}

bool
FrontEnd::isShutdown() const
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    return shutdown_;
}

// ---------------------------------------------------------- submit

std::vector<ServeSlice>
FrontEnd::split(std::vector<Engine::PairRequest> pairs,
                std::shared_ptr<const ModelVersion> version,
                Completion complete, const SubmitOptions& submitOpts,
                Clock::time_point submitStart)
{
    auto now = Clock::now();
    auto stamp = [&](ServeSlice& slice, std::size_t route) {
        slice.priority = submitOpts.priority;
        slice.tenant = submitOpts.tenant;
        if (opts_.trace != nullptr)
            slice.traceId = opts_.trace->nextChain();
        slice.route = route;
        slice.submitted = submitStart;
        slice.enqueued = now;
        if (submitOpts.deadline.count() > 0)
            slice.deadline = submitStart + submitOpts.deadline;
    };
    std::vector<ServeSlice> slices;

    // Over one shared queue any shard can serve any slice, so a
    // request is one slice: one engine call looks each of its trees
    // up once, and the client thread walks no tree. With a queue per
    // shard, each pair goes to the shard whose partition owns its
    // first tree's digest (the process holding its latents), so
    // pairs that share a first tree share a slice.
    std::size_t n = queues_.size();
    std::vector<std::vector<std::size_t>> groups;
    std::size_t nonEmpty = 0;
    std::size_t lastShard = 0;
    if (n > 1) {
        groups.resize(n);
        std::unordered_map<const Ast*, std::size_t> shardOfTree;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            auto [it, inserted] =
                shardOfTree.try_emplace(pairs[i].first, 0);
            if (inserted)
                it->second = ShardedEncodingCache::shardOf(
                    digestAst(*pairs[i].first), n);
            groups[it->second].push_back(i);
        }
        for (std::size_t s = 0; s < n; ++s) {
            if (!groups[s].empty()) {
                nonEmpty++;
                lastShard = s;
            }
        }
    }

    if (nonEmpty <= 1) {
        // The whole request fits one queue: no join needed.
        ServeSlice slice;
        slice.pairs = std::move(pairs);
        slice.version = std::move(version);
        slice.complete = std::move(complete);
        stamp(slice, lastShard);
        slices.push_back(std::move(slice));
        return slices;
    }

    auto join = std::make_shared<Join>();
    join->values.resize(pairs.size(), 0.0);
    join->remaining = nonEmpty;
    join->complete = std::move(complete);

    for (std::size_t s = 0; s < n; ++s) {
        const std::vector<std::size_t>& slots = groups[s];
        if (slots.empty())
            continue;
        ServeSlice slice;
        slice.pairs.reserve(slots.size());
        for (std::size_t i : slots)
            slice.pairs.push_back(pairs[i]);
        slice.version = version;
        stamp(slice, s);
        slice.complete = [join, slots](Result<std::vector<double>> r) {
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(join->mutex);
                if (r.isOk()) {
                    for (std::size_t k = 0; k < slots.size(); ++k)
                        join->values[slots[k]] = r.value()[k];
                } else if (join->error.isOk()) {
                    join->error = r.status();
                }
                done = --join->remaining == 0;
            }
            // The last slice completes the caller. No lock held:
            // nobody else can touch the join once remaining hit 0.
            if (done) {
                if (join->error.isOk())
                    join->complete(std::move(join->values));
                else
                    join->complete(join->error);
            }
        };
        slices.push_back(std::move(slice));
    }
    return slices;
}

QueuePush
FrontEnd::tryPushAll(std::vector<ServeSlice>& slices)
{
    // A split request has one slice per queue it touches.
    if (slices.size() == 1)
        return queues_[slices.front().route]->tryPushAll(slices);
    std::vector<BoundedQueue<ServeSlice>*> targets;
    targets.reserve(slices.size());
    for (const ServeSlice& slice : slices)
        targets.push_back(queues_[slice.route].get());
    return BoundedQueue<ServeSlice>::tryPushAllAcross(targets, slices);
}

bool
FrontEnd::enqueue(const SubmitOptions& submitOpts,
                  Result<std::vector<Engine::PairRequest>> request,
                  Completion complete, bool blocking)
{
    auto submitStart = Clock::now();

    // Request-level counters update BEFORE the caller's promise
    // resolves, so a returned future never observes lagging stats.
    // A request refused at the door (quota, queue closed) is counted
    // as rejected ONLY — completed/failed/rejected are disjoint
    // outcomes — so those paths raise this tag before resolving.
    auto rejectedTag = std::make_shared<std::atomic<bool>>(false);
    auto counted = [this, rejectedTag, tenant = submitOpts.tenant,
                    complete = std::move(complete)](
                       Result<std::vector<double>> r) {
        if (!rejectedTag->load()) {
            // Deadline expiries are attributed rejections, not
            // failures: the request was accepted but its answer came
            // due before an engine ran it.
            bool deadline = !r.isOk() &&
                r.status().code() == StatusCode::DeadlineExceeded;
            if (metrics_.enabled())
                (r.isOk()       ? metrics_.completed
                     : deadline ? metrics_.rejectedDeadline
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

    // Per-request validation: a malformed request fails only its own
    // future and never reaches a shared batch.
    if (!request.isOk()) {
        counted(request.status());
        return true;
    }
    std::vector<Engine::PairRequest> pairs = request.take();
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
    // many slices it splits into) runs on this one snapshot, so a
    // hot swap can never straddle a request.
    Result<std::shared_ptr<const ModelVersion>> version =
        Engine::resolveModel(*backend_->registry, submitOpts.model);
    if (!version.isOk()) {
        counted(version.status());
        return true;
    }

    std::vector<ServeSlice> slices =
        split(std::move(pairs), version.take(), std::move(counted),
              submitOpts, submitStart);
    auto afterShutdown = [this] {
        return Status::unavailable(backend_->name +
                                   ": submit after shutdown");
    };

    if (!blocking) {
        switch (tryPushAll(slices)) {
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
              for (ServeSlice& slice : slices)
                  slice.complete(afterShutdown());
              return true;
          }
        }
        return true; // unreachable
    }

    bool anyClosed = false;
    for (ServeSlice& slice : slices) {
        if (queues_[slice.route]->push(std::move(slice)) ==
            QueuePush::Closed) {
            // Push leaves the slice untouched on rejection. A
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
            slice.complete(afterShutdown());
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

namespace
{

/** The single-pair endpoints' completion: unwrap the one value. */
std::function<void(Result<std::vector<double>>)>
completeOne(std::shared_ptr<std::promise<Result<double>>> promise)
{
    return [promise](Result<std::vector<double>> r) {
        if (r.isOk())
            promise->set_value(r.value()[0]);
        else
            promise->set_value(r.status());
    };
}

std::function<void(Result<std::vector<double>>)>
completeMany(
    std::shared_ptr<std::promise<Result<std::vector<double>>>> promise)
{
    return [promise](Result<std::vector<double>> r) {
        promise->set_value(std::move(r));
    };
}

} // namespace

std::future<Result<double>>
FrontEnd::submitCompare(const SubmitOptions& submitOpts,
                        const Ast& first, const Ast& second)
{
    auto promise = std::make_shared<std::promise<Result<double>>>();
    std::future<Result<double>> future = promise->get_future();
    enqueue(submitOpts,
            std::vector<Engine::PairRequest>{{&first, &second}},
            completeOne(std::move(promise)), /*blocking=*/true);
    return future;
}

std::future<Result<std::vector<double>>>
FrontEnd::submitCompareMany(const SubmitOptions& submitOpts,
                            std::vector<Engine::PairRequest> pairs)
{
    auto promise =
        std::make_shared<std::promise<Result<std::vector<double>>>>();
    std::future<Result<std::vector<double>>> future =
        promise->get_future();
    enqueue(submitOpts, std::move(pairs),
            completeMany(std::move(promise)), /*blocking=*/true);
    return future;
}

std::future<Result<std::vector<Engine::RankedCandidate>>>
FrontEnd::submitRank(const SubmitOptions& submitOpts,
                     std::vector<const Ast*> candidates)
{
    auto promise = std::make_shared<
        std::promise<Result<std::vector<Engine::RankedCandidate>>>>();
    std::future<Result<std::vector<Engine::RankedCandidate>>> future =
        promise->get_future();
    std::size_t n = candidates.size();
    Result<std::vector<Engine::PairRequest>> pairs =
        Status::invalidArgument("submitRank: need at least two candidates");
    if (n >= 2)
        pairs = Engine::tournamentPairs(candidates);
    enqueue(submitOpts, std::move(pairs),
            [promise, n](Result<std::vector<double>> r) {
                if (r.isOk())
                    promise->set_value(
                        Engine::aggregateTournament(n, r.value()));
                else
                    promise->set_value(r.status());
            },
            /*blocking=*/true);
    return future;
}

std::optional<std::future<Result<double>>>
FrontEnd::trySubmitCompare(const SubmitOptions& submitOpts,
                           const Ast& first, const Ast& second)
{
    auto promise = std::make_shared<std::promise<Result<double>>>();
    std::future<Result<double>> future = promise->get_future();
    if (!enqueue(submitOpts,
                 std::vector<Engine::PairRequest>{{&first, &second}},
                 completeOne(std::move(promise)), /*blocking=*/false))
        return std::nullopt;
    return future;
}

std::optional<std::future<Result<std::vector<double>>>>
FrontEnd::trySubmitCompareMany(const SubmitOptions& submitOpts,
                               std::vector<Engine::PairRequest> pairs)
{
    auto promise =
        std::make_shared<std::promise<Result<std::vector<double>>>>();
    std::future<Result<std::vector<double>>> future =
        promise->get_future();
    if (!enqueue(submitOpts, std::move(pairs),
                 completeMany(std::move(promise)), /*blocking=*/false))
        return std::nullopt;
    return future;
}

// ----------------------------------------------------------- shards

void
FrontEnd::shardLoop(std::size_t shard)
{
    BoundedQueue<ServeSlice>& queue =
        *queues_[backend_->queuePerShard ? shard : 0];
    Coalescer<ServeSlice> coalescer(queue, opts_.maxBatchSize,
                                    opts_.maxBatchDelay,
                                    opts_.maxBatchClassDelay);
    BatchAnswer answer;
    for (;;) {
        // nullopt means the queue is closed, fully drained, and this
        // shard holds nothing over — clean exit.
        std::optional<ServeBatch> batch = coalescer.next();
        if (!batch)
            return;
        // Expired members answer DeadlineExceeded instead of riding
        // the engine call; the enqueue completion wrapper attributes
        // the rejection.
        expireDeadlines(*batch, Clock::now(), backend_->name.c_str());
        if (batch->requests.empty())
            continue;
        // One engine call per model version in this shard's tick.
        ModelBatches grouped = groupBatchByModel(*batch);
        Status ran = backend_->run(shard, grouped, answer);
        if (!ran.isOk()) {
            for (ServeSlice& slice : batch->requests)
                slice.complete(ran);
            continue;
        }
        finish(shard, *batch, grouped, answer);
    }
}

void
FrontEnd::finish(std::size_t shard, ServeBatch& batch,
                 const ModelBatches& grouped, const BatchAnswer& answer)
{
    auto completedAt = Clock::now();
    if (metrics_.enabled()) {
        metrics_.batches->inc();
        metrics_.batchPairs->inc(batch.pairCount);
    }
    ShardCounters& counters = *shards_[shard];
    {
        std::lock_guard<std::mutex> lock(counters.mutex);
        counters.batches++;
        counters.pairsServed += batch.pairCount;
        counters.batchSizes.add(batch.pairCount);
        for (const ServeSlice& r : batch.requests) {
            std::size_t us = latencySampleUs(completedAt - r.enqueued);
            counters.latencyUs.add(us);
            counters.tenantLatencyUs[r.tenant].add(us);
        }
    }
    // Fan slices (or their engine call's failure) back out in
    // submission order. Registry instruments synchronise themselves,
    // so each slice's sample (one per SLICE, like
    // ServerStats::latencyUs) is fed outside the counters' mutex,
    // right before that slice completes rather than before the whole
    // batch does.
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        ServeSlice& r = batch.requests[i];
        std::size_t us = latencySampleUs(completedAt - r.enqueued);
        if (metrics_.enabled())
            latencyInstrument(counters, r).add(us, completedAt);
        if (opts_.slo != nullptr)
            opts_.slo->record(r.version->name, r.tenant, us,
                              completedAt);
        std::size_t group = grouped.groupOf[i];
        const Result<std::vector<double>>& probs = answer.results[group];
        if (probs.isOk()) {
            recordTrace(r, answer.timings[group],
                        static_cast<std::uint32_t>(shard));
            auto begin = probs.value().begin() +
                static_cast<std::ptrdiff_t>(grouped.offsetOf[i]);
            r.complete(std::vector<double>(
                begin,
                begin + static_cast<std::ptrdiff_t>(r.pairs.size())));
        } else {
            r.complete(probs.status());
        }
    }
}

WindowedHistogram&
FrontEnd::latencyInstrument(ShardCounters& counters,
                            const ServeSlice& slice)
{
    const std::string& model = slice.version->name;
    auto& cache = counters.latencyInstruments;
    auto it = cache.find(std::make_tuple(std::string_view(model),
                                         std::string_view(slice.tenant),
                                         slice.priority));
    if (it != cache.end())
        return *it->second;
    WindowedHistogram& instrument = serverLatencyHistogram(
        *opts_.metrics, backend_->label, model, slice.tenant,
        slice.priority, opts_.metricsWindow);
    cache.emplace(std::make_tuple(model, slice.tenant, slice.priority),
                  &instrument);
    return instrument;
}

void
FrontEnd::recordTrace(const ServeSlice& slice,
                      const Engine::PhaseTiming& timing,
                      std::uint32_t lane)
{
    if (opts_.trace == nullptr || slice.traceId == 0)
        return;
    TraceRecorder& trace = *opts_.trace;
    auto pairs = static_cast<std::uint32_t>(slice.pairs.size());
    trace.record(slice.traceId, TracePhase::Admission, slice.submitted,
                 slice.enqueued, lane, slice.tenant, pairs);
    trace.record(slice.traceId, TracePhase::Queue, slice.enqueued,
                 slice.dequeued, lane, slice.tenant, pairs);
    trace.record(slice.traceId, TracePhase::Coalesce, slice.dequeued,
                 timing.encodeStart, lane, slice.tenant, pairs);
    trace.record(slice.traceId, TracePhase::Encode, timing.encodeStart,
                 timing.encodeEnd, lane, slice.tenant, pairs);
    trace.record(slice.traceId, TracePhase::Score, timing.encodeEnd,
                 timing.scoreEnd, lane, slice.tenant, pairs);
}

// ------------------------------------------------------------ stats

void
FrontEnd::sampleMetrics() const
{
    if (opts_.metrics == nullptr)
        return;
    std::size_t depth = 0;
    std::size_t capacity = 0;
    for (const auto& queue : queues_) {
        depth += queue->size();
        capacity += queue->capacity();
    }
    backend_->sampleMetrics();
    publishServerGauges(*opts_.metrics, backend_->label, depth,
                        capacity, backend_->modelStats());
}

void
FrontEnd::snapshot(ServerStats& aggregate,
                   std::vector<ServerStats>& rows) const
{
    rows.clear();
    rows.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const ShardCounters& counters = *shards_[s];
        ServerStats row;
        {
            std::lock_guard<std::mutex> lock(counters.mutex);
            row.batches = counters.batches;
            row.pairsServed = counters.pairsServed;
            row.batchSizes = counters.batchSizes;
            row.latencyUs = counters.latencyUs;
            // Per-shard tenant rows carry slice latency only;
            // request-level tenant counters are global (below).
            row.tenants.reserve(counters.tenantLatencyUs.size());
            for (const auto& [name, hist] : counters.tenantLatencyUs) {
                TenantStats t;
                t.tenant = name;
                t.latencyUs = hist;
                row.tenants.push_back(std::move(t));
            }
        }
        std::sort(row.tenants.begin(), row.tenants.end(), byTenant);
        for (TenantStats& t : row.tenants)
            fillTenantPercentiles(t);
        fillLatencyPercentiles(row);
        // A shared queue is a whole-server level; an owned queue is
        // its shard's.
        if (backend_->queuePerShard) {
            row.queueDepth = queues_[s]->size();
            row.queueCapacity = queues_[s]->capacity();
        }
        backend_->fillShardStats(s, row);
        rows.push_back(std::move(row));
    }

    // Merged histograms drive the aggregate latency percentiles.
    aggregate = mergeServerStats(rows);
    aggregate.queueDepth = 0;
    aggregate.queueCapacity = 0;
    for (const auto& queue : queues_) {
        aggregate.queueDepth += queue->size();
        aggregate.queueCapacity += queue->capacity();
    }
    aggregate.models = backend_->modelStats();
    {
        std::lock_guard<std::mutex> lock(submitMutex_);
        aggregate.requestsSubmitted = submitted_;
        aggregate.requestsRejectedShed = rejectedShed_;
        aggregate.requestsRejectedShutdown = rejectedShutdown_;
        aggregate.requestsRejectedQuota = rejectedQuota_;
        aggregate.requestsRejectedDeadline = rejectedDeadline_;
        aggregate.requestsRejected = rejectedShed_ + rejectedShutdown_ +
            rejectedQuota_ + rejectedDeadline_;
        aggregate.requestsCompleted = completed_;
        aggregate.requestsFailed = failed_;
        // Graft the global per-tenant request counters onto the
        // merged (latency-only) tenant rows; a tenant rejected before
        // it ever reached a shard still gets a row.
        for (const auto& [name, counters] : tenants_) {
            auto it = std::find_if(
                aggregate.tenants.begin(), aggregate.tenants.end(),
                [&](const TenantStats& t) { return t.tenant == name; });
            if (it == aggregate.tenants.end()) {
                TenantStats t;
                t.tenant = name;
                aggregate.tenants.push_back(std::move(t));
                it = aggregate.tenants.end() - 1;
            }
            it->submitted = counters.submitted;
            it->completed = counters.completed;
            it->failed = counters.failed;
            it->rejectedQuota = counters.rejectedQuota;
            it->rejectedDeadline = counters.rejectedDeadline;
        }
    }
    std::sort(aggregate.tenants.begin(), aggregate.tenants.end(),
              byTenant);
}

} // namespace ccsa
