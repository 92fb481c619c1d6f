/**
 * @file
 * The traced run's per-request waterfall. The benchmark stamps its
 * own boundaries around every call into the library (due time,
 * generator wake-up, parse, submit, answer observed); the serving
 * front end's TraceRecorder contributes each slice's
 * admission -> queue -> coalesce -> encode -> score chain. Joining
 * the two on the slowest slice of each request gives stages that
 * must tile the request from due time to answer without overlap.
 */

#ifndef PERFBENCH_WATERFALL_HH
#define PERFBENCH_WATERFALL_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/trace/trace_recorder.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** The benchmark's own stamps for one request. */
struct RequestTimes
{
    Clock::time_point due{};
    /** Generator picked the request up (due + lateness). */
    Clock::time_point start{};
    /** Submit call entered (after the client parse, if any). */
    Clock::time_point submit{};
    /** Submit call returned. */
    Clock::time_point submitted{};
    Clock::time_point observed{};
    /** Trace chain ids strictly between these belong to the
     * request's slices (0 = no server trace). */
    std::uint64_t chainLo = 0;
    std::uint64_t chainHi = 0;
    bool ok = false;
};

struct Waterfall
{
    /** Stage names in request order. */
    std::vector<std::string> stages;
    /** durations[s][r]: stage s of traced request r, in us. */
    std::vector<std::vector<double>> durations;
    /** due -> observed of every traced request, in us. */
    std::vector<double> totals;
    /** Requests whose stages failed to tile them. */
    std::size_t violations = 0;
    std::string firstViolation;
    double slicesPerRequest = 0.0;

    /** A stage's median over the typical requests: those whose total
     * lies in the middle decile, i.e. the requests p50 describes.
     * Medians over all requests need not add up to the median total
     * once the tails are heavy; these do, up to noise. */
    double stageMedian(const std::string& stage) const;
    /** Sum of the stage medians over the median total. */
    double stageSumRatio() const;

  private:
    std::vector<double> typical(std::size_t stage) const;
};

/**
 * Join client stamps with the recorder's spans. Requests without
 * server chains (a server that records no spans) get one `server`
 * stage from submit to observed.
 * @param epoch a time point taken immediately before the recorder
 * was constructed (its span clock origin).
 */
Waterfall buildWaterfall(const std::vector<RequestTimes>& requests,
                         const std::vector<ccsa::TraceRecorder::Span>& spans,
                         Clock::time_point epoch, bool clientParse);

/** Chrome-trace export of the client stamps plus server spans. */
bool writeChromeTrace(const std::string& path,
                      const std::vector<RequestTimes>& requests,
                      const std::vector<ccsa::TraceRecorder::Span>& spans,
                      Clock::time_point epoch);

/** ccsa::quantile, reading 0 for an empty sample (a phase whose
 * requests all failed has already failed the run). */
double quantileOr0(const std::vector<double>& v, double q);

} // namespace perfbench

#endif // PERFBENCH_WATERFALL_HH
