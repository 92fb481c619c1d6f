#include "waterfall.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "base/stats.hh"

namespace perfbench
{

namespace
{

/** Slack for the recorder's epoch being stamped just after ours. */
constexpr std::int64_t kToleranceUs = 2;

using Span = ccsa::TraceRecorder::Span;

std::int64_t
sinceEpochUs(Clock::time_point t, Clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t - epoch)
        .count();
}

} // namespace

double
quantileOr0(const std::vector<double>& v, double q)
{
    return v.empty() ? 0.0 : ccsa::quantile(v, q);
}

std::vector<double>
Waterfall::typical(std::size_t stage) const
{
    double lo = quantileOr0(totals, 0.45);
    double hi = quantileOr0(totals, 0.55);
    std::vector<double> out;
    for (std::size_t r = 0; r < totals.size(); ++r)
        if (totals[r] >= lo && totals[r] <= hi)
            out.push_back(durations[stage][r]);
    return out;
}

double
Waterfall::stageMedian(const std::string& stage) const
{
    for (std::size_t s = 0; s < stages.size(); ++s)
        if (stages[s] == stage)
            return quantileOr0(typical(s), 0.5);
    return 0.0;
}

double
Waterfall::stageSumRatio() const
{
    double sum = 0.0;
    for (std::size_t s = 0; s < stages.size(); ++s)
        sum += quantileOr0(typical(s), 0.5);
    double total = quantileOr0(totals, 0.5);
    return total > 0.0 ? sum / total : 0.0;
}

Waterfall
buildWaterfall(const std::vector<RequestTimes>& requests,
               const std::vector<Span>& spans, Clock::time_point epoch,
               bool clientParse)
{
    std::unordered_map<std::uint64_t, std::vector<const Span*>> chains;
    for (const Span& s : spans)
        chains[s.chain].push_back(&s);

    Waterfall w;
    w.stages = {"late"};
    if (clientParse)
        w.stages.push_back("parse");
    bool traced = !chains.empty();
    if (traced)
        for (const char* s : {"admission", "queue", "coalesce", "encode",
                              "score", "fanout"})
            w.stages.push_back(s);
    else
        w.stages.push_back("server");
    w.durations.assign(w.stages.size(), {});

    std::size_t slices = 0;
    std::size_t joined = 0;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const RequestTimes& q = requests[r];
        if (!q.ok)
            continue;
        std::vector<std::int64_t> points = {sinceEpochUs(q.due, epoch),
                                            sinceEpochUs(q.start, epoch)};
        if (clientParse)
            points.push_back(sinceEpochUs(q.submit, epoch));
        std::int64_t observed = sinceEpochUs(q.observed, epoch);
        std::string problem;
        if (traced) {
            // The request completes with its slowest slice, so that
            // slice's chain is the blocking path.
            const std::vector<const Span*>* critical = nullptr;
            std::int64_t criticalEnd = -1;
            std::size_t mine = 0;
            for (std::uint64_t c = q.chainLo + 1; c < q.chainHi; ++c) {
                auto it = chains.find(c);
                if (it == chains.end())
                    continue;
                std::vector<const Span*>& chain = it->second;
                std::sort(chain.begin(), chain.end(),
                          [](const Span* a, const Span* b) {
                              return a->phase < b->phase;
                          });
                ++mine;
                if (chain.size() != ccsa::kTracePhases) {
                    problem = "incomplete chain";
                    continue;
                }
                for (std::size_t k = 0; k + 1 < chain.size(); ++k)
                    if (chain[k]->startUs + chain[k]->durUs !=
                        chain[k + 1]->startUs)
                        problem = "chain spans overlap or leave a gap";
                std::int64_t begin =
                    static_cast<std::int64_t>(chain.front()->startUs);
                std::int64_t end = static_cast<std::int64_t>(
                    chain.back()->startUs + chain.back()->durUs);
                if (begin + kToleranceUs < sinceEpochUs(q.submit, epoch) ||
                    end > observed + kToleranceUs)
                    problem = "slice outside its request";
                if (end > criticalEnd) {
                    criticalEnd = end;
                    critical = &chain;
                }
            }
            if (mine == 0) {
                problem = "request without server spans";
            } else {
                slices += mine;
                ++joined;
            }
            if (critical != nullptr) {
                // admission runs from the client's submit call (or
                // wake-up, without a parse) to the slice's enqueue;
                // the remaining phases are the chain's own
                // boundaries.
                for (std::size_t k = 1; k < critical->size(); ++k)
                    points.push_back(
                        static_cast<std::int64_t>((*critical)[k]->startUs));
                points.push_back(criticalEnd);
            }
        }
        points.push_back(observed);

        if (problem.empty() && points.size() != w.stages.size() + 1)
            problem = "stage count mismatch";
        for (std::size_t k = 0; problem.empty() && k + 1 < points.size();
             ++k)
            if (points[k + 1] + kToleranceUs < points[k])
                problem = "stage " + w.stages[std::min(k, w.stages.size() - 1)] +
                    " ends before it starts";
        if (!problem.empty()) {
            if (w.violations++ == 0)
                w.firstViolation =
                    "request " + std::to_string(r) + ": " + problem;
            continue;
        }
        for (std::size_t k = 0; k + 1 < points.size(); ++k)
            w.durations[k].push_back(static_cast<double>(
                std::max<std::int64_t>(0, points[k + 1] - points[k])));
        w.totals.push_back(static_cast<double>(observed - points.front()));
    }
    w.slicesPerRequest =
        joined == 0 ? 0.0
                    : static_cast<double>(slices) /
                          static_cast<double>(joined);
    return w;
}

bool
writeChromeTrace(const std::string& path,
                 const std::vector<RequestTimes>& requests,
                 const std::vector<Span>& spans, Clock::time_point epoch)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    auto event = [&](const char* name, int pid, std::uint64_t tid,
                     std::int64_t ts, std::int64_t dur, std::uint64_t id) {
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                     "\"tid\":%llu,\"ts\":%lld,\"dur\":%lld,"
                     "\"args\":{\"req\":%llu}}",
                     first ? "" : ",\n", name, pid,
                     static_cast<unsigned long long>(tid),
                     static_cast<long long>(ts),
                     static_cast<long long>(std::max<std::int64_t>(0, dur)),
                     static_cast<unsigned long long>(id));
        first = false;
    };
    for (std::size_t r = 0; r < requests.size(); ++r) {
        const RequestTimes& q = requests[r];
        std::int64_t due = sinceEpochUs(q.due, epoch);
        std::int64_t start = sinceEpochUs(q.start, epoch);
        std::int64_t submit = sinceEpochUs(q.submit, epoch);
        std::int64_t submitted = sinceEpochUs(q.submitted, epoch);
        std::int64_t observed = sinceEpochUs(q.observed, epoch);
        event("client.late", 0, 0, due, start - due, r);
        if (submit > start)
            event("client.parse", 0, 0, start, submit - start, r);
        event("client.submit", 0, 0, submit, submitted - submit, r);
        event("client.answer", 0, 1, submit, observed - submit, r);
    }
    for (const Span& s : spans)
        event(ccsa::tracePhaseName(s.phase), 1, s.lane,
              static_cast<std::int64_t>(s.startUs),
              static_cast<std::int64_t>(s.durUs), s.chain);
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
