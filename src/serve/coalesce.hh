/**
 * @file
 * The pop-and-coalesce machinery every shard thread of the serving
 * front end (serve/front_end.hh) runs. Exactly one implementation
 * exists of the subtle part — how long a batcher waits for more work
 * before executing. Since the admission-control layer that wait is
 * PRIORITY-AWARE: a Coalescer keeps a two-lane pending set inside
 * the tick, and the flush policy treats the lanes differently:
 *
 *  - pairCount reaching maxBatchSize flushes everything — a full
 *    batch is a full batch, whoever filled it;
 *  - the oldest INTERACTIVE member reaching its interactiveDelay
 *    budget (queue time counts against it) flushes the interactive
 *    lane EARLY, leaving batch-class members pending so the engine
 *    call answering latency-sensitive work stays small;
 *  - batch-class members flush when the oldest of them exhausts the
 *    larger batchDelay budget (or on queue close/drain) — batch
 *    traffic rides full batches instead of fragmenting them.
 *
 * Determinism contract: lane assignment and flush timing change only
 * WHICH requests share an engine call, never a result — every pair's
 * probability is independent of batch composition, so priorities are
 * purely a latency/throughput trade (tests pin futures bitwise
 * against a synchronous Engine under priority scheduling).
 *
 * Since the ModelRegistry refactor a request also pins the
 * ModelVersion it resolved at ADMISSION time, so one coalesced batch
 * can span models. groupBatchByModel() is the second shared piece:
 * it partitions a batch into per-version groups — one
 * Engine::compareMany(version, pairs) call each — while remembering
 * where every member request's slice lives, so the executors fan
 * results back per request and a failing model fails only its own
 * requests.
 *
 * Request is any type with `.pairs` (a vector of Engine pair
 * requests), `.version` (a shared_ptr<const ModelVersion> resolved
 * at admission), `.priority` (a ccsa::Priority lane tag),
 * `.enqueued` (a steady_clock time_point stamped at submission) and
 * `.dequeued` (a steady_clock time_point the Coalescer stamps when
 * it pops the request — the queue->coalesce trace-span boundary).
 */

#ifndef CCSA_SERVE_COALESCE_HH
#define CCSA_SERVE_COALESCE_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/bounded_queue.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/engine.hh"

namespace ccsa
{

/** One batcher tick's worth of coalesced requests. */
template <typename Request>
struct CoalescedBatch
{
    std::vector<Request> requests;
    /** Total pairs across all member requests. */
    std::size_t pairCount = 0;
};

/** A coalesced batch partitioned into per-model-version groups. */
struct ModelBatches
{
    struct Group
    {
        /** The admission-time snapshot every member resolved. */
        std::shared_ptr<const ModelVersion> version;
        /** Members' pairs flattened in submission order — one
         * Engine::compareMany(*version, pairs) call. */
        std::vector<Engine::PairRequest> pairs;
    };

    /** Groups in first-appearance order (deterministic). */
    std::vector<Group> groups;
    /** Per batch request: which group holds its pairs... */
    std::vector<std::size_t> groupOf;
    /** ...and at which offset within that group's pairs. */
    std::vector<std::size_t> offsetOf;
};

/**
 * Partition a coalesced batch by the ModelVersion each request
 * pinned at admission (grouping on the version's namespace id, so
 * two versions of one NAME stay separate across a hot swap).
 */
template <typename Request>
ModelBatches
groupBatchByModel(const CoalescedBatch<Request>& batch)
{
    ModelBatches out;
    out.groupOf.resize(batch.requests.size());
    out.offsetOf.resize(batch.requests.size());
    std::unordered_map<std::uint64_t, std::size_t> groupIndex;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        const Request& r = batch.requests[i];
        std::uint64_t id = r.version ? r.version->id : 0;
        auto [it, inserted] =
            groupIndex.emplace(id, out.groups.size());
        if (inserted) {
            out.groups.emplace_back();
            out.groups.back().version = r.version;
            // Exact for the common single-model batch.
            out.groups.back().pairs.reserve(batch.pairCount);
        }
        ModelBatches::Group& g = out.groups[it->second];
        out.groupOf[i] = it->second;
        out.offsetOf[i] = g.pairs.size();
        g.pairs.insert(g.pairs.end(), r.pairs.begin(),
                       r.pairs.end());
    }
    return out;
}

/**
 * Answer-and-remove every batch member whose submit-side deadline
 * (SubmitOptions::withDeadline, stamped as an absolute
 * Request::deadline at admission) expired by `now`: each expired
 * member completes with Status::DeadlineExceeded and the batch
 * shrinks in place, so an expired request is never encoded. Every
 * shard thread runs it, so "deadline bounds queue wait, not
 * execution" is implemented — and testable — exactly once; the
 * completion itself attributes the rejection to the server's
 * counters.
 * @return the number of members expired.
 */
template <typename Request>
std::size_t
expireDeadlines(CoalescedBatch<Request>& batch,
                std::chrono::steady_clock::time_point now,
                const char* server)
{
    std::size_t kept = 0;
    std::size_t expired = 0;
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
        Request& r = batch.requests[i];
        if (r.deadline <= now) {
            batch.pairCount -= r.pairs.size();
            ++expired;
            r.complete(Status::deadlineExceeded(
                std::string(server) +
                ": deadline expired while queued"));
            continue;
        }
        if (kept != i)
            batch.requests[kept] = std::move(r);
        ++kept;
    }
    batch.requests.resize(kept);
    return expired;
}

/**
 * The two-lane pop-and-coalesce state machine. One Coalescer per
 * batcher thread; call next() in a loop until it returns nullopt
 * (queue closed AND drained AND nothing held over — the clean-exit
 * signal). Batch-lane members a tick held back stay pending inside
 * the Coalescer between next() calls.
 */
template <typename Request>
class Coalescer
{
  public:
    /**
     * @param interactiveDelay flush budget of the interactive lane
     *   (FrontEndOptions::maxBatchDelay);
     * @param batchDelay flush budget of the batch lane — clamped up
     *   to interactiveDelay so batch traffic never flushes EARLIER
     *   than interactive traffic.
     */
    Coalescer(BoundedQueue<Request>& queue, std::size_t maxBatchSize,
              std::chrono::microseconds interactiveDelay,
              std::chrono::microseconds batchDelay)
        : queue_(queue),
          maxBatchSize_(maxBatchSize == 0 ? 1 : maxBatchSize),
          interactiveDelay_(interactiveDelay),
          batchDelay_(batchDelay < interactiveDelay
                          ? interactiveDelay
                          : batchDelay)
    {
    }

    /**
     * Block for the next batch of work.
     * @return nullopt only when the queue is closed, drained, and no
     * batch-lane members are held over.
     */
    std::optional<CoalescedBatch<Request>>
    next()
    {
        for (;;) {
            if (pending_.empty()) {
                std::optional<Request> first = queue_.pop();
                if (!first)
                    return std::nullopt; // closed & fully drained
                admit(std::move(*first));
            }
            for (;;) {
                if (pendingPairs_ >= maxBatchSize_)
                    return flushAll();
                auto now = Clock::now();
                Clock::time_point deadline = earliestDeadline();
                if (now >= deadline) {
                    // Budget spent: still sweep up anything already
                    // queued — free coalescing under backlog — then
                    // flush whichever lane(s) came due.
                    while (pendingPairs_ < maxBatchSize_) {
                        std::optional<Request> more = queue_.tryPop();
                        if (!more)
                            break;
                        admit(std::move(*more));
                    }
                    if (pendingPairs_ >= maxBatchSize_)
                        return flushAll();
                    CoalescedBatch<Request> due =
                        flushDue(Clock::now());
                    if (!due.requests.empty())
                        return due;
                    continue; // clock jitter: nothing was actually due
                }
                std::optional<Request> next = queue_.popFor(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(deadline - now));
                if (next) {
                    admit(std::move(*next));
                    continue;
                }
                if (queue_.closed()) {
                    // Drained for good: nothing else will ever
                    // arrive, so holding the batch lane back buys
                    // nothing — answer everything accepted.
                    return flushAll();
                }
                // Timed out: the next loop iteration classifies the
                // now-expired deadline and flushes.
            }
        }
    }

    /** Batch-lane members currently held over between ticks. */
    std::size_t pendingRequests() const { return pending_.size(); }

  private:
    using Clock = std::chrono::steady_clock;

    Clock::time_point
    deadlineOf(const Request& r) const
    {
        return r.enqueued +
            (r.priority == Priority::kBatch ? batchDelay_
                                            : interactiveDelay_);
    }

    /** Earliest member deadline. Pending holds at most
     * maxBatchSize requests (every queued request carries >= 1
     * pair), so the scan is cheap and bounded. */
    Clock::time_point
    earliestDeadline() const
    {
        Clock::time_point earliest = Clock::time_point::max();
        for (const Request& r : pending_) {
            Clock::time_point d = deadlineOf(r);
            if (d < earliest)
                earliest = d;
        }
        return earliest;
    }

    void
    admit(Request&& r)
    {
        r.dequeued = Clock::now();
        pendingPairs_ += r.pairs.size();
        pending_.push_back(std::move(r));
    }

    CoalescedBatch<Request>
    flushAll()
    {
        CoalescedBatch<Request> batch;
        batch.requests = std::move(pending_);
        batch.pairCount = pendingPairs_;
        pending_.clear();
        pendingPairs_ = 0;
        return batch;
    }

    /** Flush the lane(s) whose budget expired by `now`: an expired
     * batch lane takes everything with it, while an expired
     * interactive lane alone leaves batch-class members pending so
     * the latency-sensitive engine call stays small. */
    CoalescedBatch<Request>
    flushDue(Clock::time_point now)
    {
        bool haveBatch = false;
        bool batchDue = false;
        for (const Request& r : pending_) {
            if (r.priority != Priority::kBatch)
                continue;
            haveBatch = true;
            if (deadlineOf(r) <= now)
                batchDue = true;
        }
        if (!haveBatch || batchDue)
            return flushAll();

        CoalescedBatch<Request> batch;
        std::vector<Request> held;
        for (Request& r : pending_) {
            if (r.priority == Priority::kBatch) {
                held.push_back(std::move(r));
            } else {
                batch.pairCount += r.pairs.size();
                batch.requests.push_back(std::move(r));
            }
        }
        pending_ = std::move(held);
        pendingPairs_ -= batch.pairCount;
        // Nothing interactive was actually due (clock jitter): the
        // caller still gets a valid (possibly empty) batch; an empty
        // one simply loops back into next()'s accumulate phase.
        return batch;
    }

    BoundedQueue<Request>& queue_;
    std::size_t maxBatchSize_;
    std::chrono::microseconds interactiveDelay_;
    std::chrono::microseconds batchDelay_;
    std::vector<Request> pending_;
    std::size_t pendingPairs_ = 0;
};

} // namespace ccsa

#endif // CCSA_SERVE_COALESCE_HH
