/**
 * @file
 * ccsa::TraceRecorder — per-request span recording for the serving
 * layer, exported as chrome://tracing JSON (the "trace event
 * format" Chrome, Perfetto, and speedscope all open). Attach one to
 * a ShardedServer or ProcessShardedServer (serve/front_end.hh) and
 * every request slice it executes leaves a five-span chain:
 *
 *   admission -> queue -> coalesce -> encode -> score
 *
 * admission covers submit-side validation + quota charging, queue
 * the time spent waiting in the BoundedQueue, coalesce the wait
 * inside a batcher tick for the batch to flush (including any
 * batch-lane holdover), and encode/score the request's share of the
 * engine call that answered it (shared by every member of its
 * per-model group — the whole group encodes and scores together, so
 * the group window IS each member's window). Across the process
 * boundary the encode and score spans end at the RPC replies.
 *
 * Recording is cheap enough for the serving hot path: spans are
 * POD-sized appends into preallocated storage under a mutex held
 * for a few stores, timestamps are computed OUTSIDE the lock, and
 * once the bounded buffer fills further spans are counted as
 * dropped rather than growing without bound under load. One
 * recorder may be shared by several servers; chain ids come from an
 * atomic counter so they never collide.
 *
 * tools/check_trace.py validates an exported file (parses, monotone
 * non-overlapping chain timestamps, full admission->score chain per
 * request) and CI runs it against the serving_daemon demo's export.
 */

#ifndef CCSA_SERVE_TRACE_TRACE_RECORDER_HH
#define CCSA_SERVE_TRACE_TRACE_RECORDER_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "base/result.hh"

namespace ccsa
{

class Counter;
class MetricsRegistry;

/** The serving pipeline stage a trace span covers. */
enum class TracePhase
{
    Admission,
    Queue,
    Coalesce,
    Encode,
    Score,
};

/** Number of phases in a complete request chain. */
constexpr std::size_t kTracePhases = 5;

/** @return the span name a TracePhase exports under. */
const char* tracePhaseName(TracePhase phase);

/** Bounded, shareable span sink with chrome-trace export. */
class TraceRecorder
{
  public:
    /** One recorded span (timestamps relative to the recorder's
     * construction, in microseconds — chrome-trace's native unit). */
    struct Span
    {
        std::uint64_t chain = 0;
        TracePhase phase = TracePhase::Admission;
        /** Start offset from the recorder epoch, us. */
        std::uint64_t startUs = 0;
        /** Duration, us (end clamped to >= start). */
        std::uint64_t durUs = 0;
        /** Executor lane: batcher/worker index for execution
         * phases, 0 for submit-side phases. */
        std::uint32_t lane = 0;
        /** Pairs the request carries (span weight). */
        std::uint32_t pairs = 0;
        /** Admission tenant ("" = default tenant). */
        std::string tenant;
    };

    /** @param maxSpans buffer capacity; once full, further spans
     * are dropped (and counted) instead of allocating. */
    explicit TraceRecorder(std::size_t maxSpans = 1u << 16);

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /** Allocate a fresh chain (request) id; never 0, so 0 can mean
     * "untraced" in request structs. */
    std::uint64_t nextChain();

    /** Record one span of `chain`. `end` is clamped to >= `start`
     * and both are clamped to the recorder epoch. */
    void record(std::uint64_t chain, TracePhase phase,
                std::chrono::steady_clock::time_point start,
                std::chrono::steady_clock::time_point end,
                std::uint32_t lane, const std::string& tenant,
                std::uint32_t pairs);

    /**
     * Surface span drops through the metrics plane: eagerly creates
     * the ccsa_trace_spans_dropped_total counter (so the family is
     * visible at 0 before anything drops) and increments it per
     * dropped span from then on. A buffer-full transition also emits
     * ONE warn() — once per fill, not per span, so a saturated
     * recorder cannot flood the log; clear() re-arms it. The
     * registry must outlive the recorder; pass nullptr to detach.
     */
    void attachMetrics(MetricsRegistry* registry);

    /** Spans currently buffered. */
    std::size_t spanCount() const;

    /** Spans discarded because the buffer was full. */
    std::uint64_t droppedSpans() const;

    /** Copy of the buffered spans (tests / custom exporters). */
    std::vector<Span> spans() const;

    /** Drop all buffered spans (dropped count resets too). */
    void clear();

    /**
     * Export the buffered spans as chrome://tracing JSON ("X"
     * complete events, one per span; chain id, tenant, and pair
     * count ride in args.req / args.tenant / args.pairs; the lane
     * maps to tid so one Perfetto row holds one executor). Open via
     * chrome://tracing or https://ui.perfetto.dev.
     */
    Status writeJson(const std::string& path) const;
    void writeJson(std::ostream& out) const;

  private:
    const std::size_t maxSpans_;
    const std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> nextChain_{1};

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
    /** Registry-owned drop counter (null until attachMetrics). */
    Counter* droppedCounter_ = nullptr;
    /** Re-armed by clear(): has this fill already warned? */
    bool warnedDrop_ = false;
};

} // namespace ccsa

#endif // CCSA_SERVE_TRACE_TRACE_RECORDER_HH
