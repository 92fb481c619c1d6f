/**
 * @file
 * Tests for the metrics plane (ISSUE 7): WindowedHistogram ring
 * rotation under a fake clock (spike ages out of the window while
 * the lifetime histogram remembers it — the acceptance contract),
 * empty-window quantiles, cross-shard window merges, clock jumps
 * larger than the whole window; Counter::increaseTo monotonicity;
 * MetricsRegistry exposition format (HELP/TYPE headers, label
 * sorting + escaping, cumulative histogram buckets, window summary)
 * and family-kind conflicts; SloTracker burn-rate rise and
 * recovery; MetricsSampler probes and exposition dumps; the
 * TraceRecorder drop counter; EncodingCache resident-byte
 * accounting; and the end-to-end wiring through ShardedServer (one
 * and two shards) / Engine.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "frontend/parser.hh"
#include "serve/encoding_cache.hh"
#include "serve/metrics/metrics.hh"
#include "serve/metrics/metrics_sampler.hh"
#include "serve/metrics/slo_tracker.hh"
#include "serve/sharded_server.hh"
#include "serve/trace/trace_recorder.hh"

namespace ccsa
{
namespace
{

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::seconds;
using Clock = std::chrono::steady_clock;

/** Fixed origin so every test's fake timeline is deterministic. */
Clock::time_point
t0()
{
    return Clock::time_point(seconds(1000));
}

WindowedHistogram::Options
smallWindow()
{
    // 4 buckets x 1s: window spans 4s.
    return WindowedHistogram::Options()
        .withBucketWidth(seconds(1))
        .withNumBuckets(4);
}

Ast
tinyProgram(int loops)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

Engine::Options
tinyOptions()
{
    return Engine::Options()
        .withEmbedDim(8)
        .withHiddenDim(8)
        .withSeed(7)
        .withThreads(0)
        .withCacheCapacity(256);
}

} // namespace

// --------------------------------------------- WindowedHistogram

TEST(WindowedHistogram, SamplesLandInWindowAndLifetime)
{
    WindowedHistogram h(smallWindow(), t0());
    h.add(10, t0() + milliseconds(100));
    h.add(20, t0() + milliseconds(200));

    Histogram window = h.window(t0() + milliseconds(300));
    EXPECT_EQ(window.count(), 2u);
    EXPECT_EQ(window.sum(), 30u);
    EXPECT_EQ(h.lifetime().count(), 2u);
}

TEST(WindowedHistogram, SpikeAgesOutOfWindowButNotLifetime)
{
    // The acceptance contract: a latency spike leaves the windowed
    // p99 once the window rotates past it, while the lifetime
    // histogram retains it forever.
    WindowedHistogram h(smallWindow(), t0());
    h.add(100000, t0() + milliseconds(500)); // 100 ms spike, bucket 0

    // Still visible while bucket 0 is inside the 4-bucket window.
    EXPECT_GE(h.window(t0() + seconds(3)).quantileUpperBound(0.99),
              100000u);

    // Fast traffic after the spike, in later buckets.
    for (int i = 0; i < 100; ++i)
        h.add(50, t0() + seconds(5) + milliseconds(10 * i));

    // At t0+6s the window covers seqs 3..6: bucket 0 has aged out.
    Histogram window = h.window(t0() + seconds(6));
    EXPECT_EQ(window.count(), 100u);
    EXPECT_LT(window.quantileUpperBound(0.99), 100u);

    Histogram life = h.lifetime();
    EXPECT_EQ(life.count(), 101u);
    EXPECT_GE(life.max(), 100000u);
    EXPECT_GE(life.quantileUpperBound(0.999), 100000u);
}

TEST(WindowedHistogram, RotationAcrossBucketBoundaries)
{
    WindowedHistogram h(smallWindow(), t0());
    // One sample per bucket for 6 consecutive buckets; the ring
    // only holds 4, so by the last add the first two are gone.
    for (int b = 0; b < 6; ++b)
        h.add(static_cast<std::size_t>(b + 1),
              t0() + seconds(b) + milliseconds(500));

    Histogram window = h.window(t0() + seconds(5) + milliseconds(600));
    EXPECT_EQ(window.count(), 4u);       // buckets 2..5 live
    EXPECT_EQ(window.sum(), 3u + 4u + 5u + 6u);
    EXPECT_EQ(h.lifetime().count(), 6u);
}

TEST(WindowedHistogram, EmptyWindowQuantilesAreZero)
{
    WindowedHistogram h(smallWindow(), t0());
    EXPECT_EQ(h.window(t0()).count(), 0u);
    EXPECT_EQ(h.window(t0()).quantileUpperBound(0.99), 0u);

    h.add(1000, t0());
    // After the whole ring rotates past the sample, the window is
    // empty again even though nothing new was added.
    Histogram later = h.window(t0() + seconds(60));
    EXPECT_EQ(later.count(), 0u);
    EXPECT_EQ(later.quantileUpperBound(0.5), 0u);
}

TEST(WindowedHistogram, ClockJumpLargerThanWholeWindow)
{
    WindowedHistogram h(smallWindow(), t0());
    h.add(7, t0());
    h.add(8, t0() + milliseconds(100));

    // Jump 1000 buckets ahead: every slot is stale and must clear —
    // including the wrap positions the naive "clear skipped seqs"
    // loop would miss.
    Clock::time_point far = t0() + seconds(1000);
    EXPECT_EQ(h.window(far).count(), 0u);

    // The ring keeps working after the jump.
    h.add(9, far);
    EXPECT_EQ(h.window(far).count(), 1u);
    EXPECT_EQ(h.lifetime().count(), 3u);
}

TEST(WindowedHistogram, TimeNeverRunsBackwards)
{
    WindowedHistogram h(smallWindow(), t0());
    h.add(1, t0() + seconds(3));
    // A sample stamped before the newest bucket lands in the newest
    // bucket instead of resurrecting an aged-out one.
    h.add(2, t0() + seconds(1));
    Histogram window = h.window(t0() + seconds(3));
    EXPECT_EQ(window.count(), 2u);
}

TEST(WindowedHistogram, WindowsMergeAcrossShards)
{
    // Per-shard windowed histograms aggregate the same way lifetime
    // ones do: merge the window() snapshots taken at one instant.
    WindowedHistogram shard0(smallWindow(), t0());
    WindowedHistogram shard1(smallWindow(), t0());
    for (int i = 0; i < 50; ++i)
        shard0.add(10, t0() + milliseconds(i));
    for (int i = 0; i < 50; ++i)
        shard1.add(1000, t0() + milliseconds(i));

    Clock::time_point at = t0() + seconds(1);
    Histogram merged = shard0.window(at);
    merged.merge(shard1.window(at));
    EXPECT_EQ(merged.count(), 100u);
    // p50 sits in the fast shard's range, p99 in the slow shard's.
    EXPECT_LT(merged.quantileUpperBound(0.49), 1000u);
    EXPECT_GE(merged.quantileUpperBound(0.99), 1000u);

    // After rotation both shards' windows drain in lockstep.
    Clock::time_point later = t0() + seconds(10);
    Histogram drained = shard0.window(later);
    drained.merge(shard1.window(later));
    EXPECT_EQ(drained.count(), 0u);
}

// ------------------------------------------------------- Counter

TEST(Counter, IncreaseToIsMonotoneAndIdempotent)
{
    Counter c;
    c.increaseTo(10);
    EXPECT_EQ(c.value(), 10u);
    c.increaseTo(10); // idempotent republish
    EXPECT_EQ(c.value(), 10u);
    c.increaseTo(5); // never moves backwards
    EXPECT_EQ(c.value(), 10u);
    c.increaseTo(25);
    EXPECT_EQ(c.value(), 25u);
    c.inc(5);
    EXPECT_EQ(c.value(), 30u);
}

// ----------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, LabelRenderingSortsAndEscapes)
{
    EXPECT_EQ(renderMetricLabels({}), "");
    EXPECT_EQ(renderMetricLabels({{"b", "2"}, {"a", "1"}}),
              "{a=\"1\",b=\"2\"}");
    EXPECT_EQ(renderMetricLabels({{"k", "a\"b\\c\nd"}}),
              "{k=\"a\\\"b\\\\c\\nd\"}");
}

TEST(MetricsRegistry, InstrumentReferencesAreStable)
{
    MetricsRegistry registry;
    Counter& a = registry.counter("x_total", {{"t", "1"}});
    Counter& b = registry.counter("x_total", {{"t", "1"}});
    EXPECT_EQ(&a, &b);
    // Label order does not matter.
    Gauge& g1 = registry.gauge("y", {{"a", "1"}, {"b", "2"}});
    Gauge& g2 = registry.gauge("y", {{"b", "2"}, {"a", "1"}});
    EXPECT_EQ(&g1, &g2);
}

TEST(MetricsRegistry, FamilyKindConflictIsFatal)
{
    MetricsRegistry registry;
    registry.counter("clash_total");
    EXPECT_THROW(registry.gauge("clash_total"), FatalError);
    EXPECT_THROW(registry.windowedHistogram("clash_total"),
                 FatalError);
}

TEST(MetricsRegistry, ExposesCountersAndGauges)
{
    MetricsRegistry registry;
    registry.counter("b_total", {{"k", "v"}}, "b help").inc(3);
    registry.gauge("a_gauge", {}, "a help").set(1.5);

    std::string text = registry.expose();
    // Families render in name order with HELP/TYPE headers.
    EXPECT_LT(text.find("# HELP a_gauge a help"),
              text.find("# HELP b_total b help"));
    EXPECT_NE(text.find("# TYPE a_gauge gauge"), std::string::npos);
    EXPECT_NE(text.find("# TYPE b_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("a_gauge 1.5\n"), std::string::npos);
    EXPECT_NE(text.find("b_total{k=\"v\"} 3\n"), std::string::npos);
}

TEST(MetricsRegistry, ExposesWindowedHistogramAndWindowSummary)
{
    Clock::time_point fakeNow = t0() + milliseconds(500);
    MetricsRegistry registry([&] { return fakeNow; });
    WindowedHistogram& h = registry.windowedHistogram(
        "lat_us", {{"m", "x"}}, smallWindow(), "latency");
    h.add(3, registry.now());
    h.add(100, registry.now());

    std::string text = registry.expose();
    EXPECT_NE(text.find("# TYPE lat_us histogram"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE lat_us_window summary"),
              std::string::npos);
    // Cumulative lifetime buckets end at +Inf == _count.
    EXPECT_NE(text.find("lat_us_bucket{m=\"x\",le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_sum{m=\"x\"} 103"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_count{m=\"x\"} 2"),
              std::string::npos);
    // The window summary reports quantiles of the live window.
    EXPECT_NE(text.find("lat_us_window{m=\"x\",quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(text.find("lat_us_window_count{m=\"x\"} 2"),
              std::string::npos);

    // Cumulative bucket counts are monotone non-decreasing in le.
    std::istringstream lines(text);
    std::string line;
    std::uint64_t prev = 0;
    int buckets = 0;
    while (std::getline(lines, line)) {
        if (line.rfind("lat_us_bucket", 0) != 0)
            continue;
        std::uint64_t value =
            std::stoull(line.substr(line.rfind(' ') + 1));
        EXPECT_GE(value, prev) << line;
        prev = value;
        ++buckets;
    }
    EXPECT_GT(buckets, 2);

    // After the window rotates dry, the summary empties but the
    // lifetime histogram keeps its counts (scrape monotonicity).
    fakeNow += seconds(60);
    std::string later = registry.expose();
    EXPECT_NE(later.find("lat_us_window_count{m=\"x\"} 0"),
              std::string::npos);
    EXPECT_NE(later.find("lat_us_count{m=\"x\"} 2"),
              std::string::npos);
}

TEST(MetricsRegistry, ExposeToFileWritesAtomically)
{
    MetricsRegistry registry;
    registry.counter("file_total").inc(9);
    std::string path = "test_metrics_expose.prom";
    ASSERT_TRUE(registry.exposeToFile(path).isOk());
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("file_total 9"), std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------- SloTracker

TEST(SloTracker, BurnRateRisesAndRecovers)
{
    Clock::time_point fakeNow = t0();
    MetricsRegistry registry([&] { return fakeNow; });
    SloTracker slo(registry);
    slo.setObjective("m", "t",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(100)
                         .withTargetGoodFraction(0.9)
                         .withWindow(smallWindow()));

    // 8 good, 2 bad inside the window: bad fraction 0.2 against a
    // 0.1 budget -> burn rate 2.
    for (int i = 0; i < 8; ++i)
        slo.record("m", "t", 50, fakeNow);
    for (int i = 0; i < 2; ++i)
        slo.record("m", "t", 500, fakeNow);

    SloTracker::WindowCounts counts =
        slo.windowCounts("m", "t", fakeNow);
    EXPECT_EQ(counts.good, 8u);
    EXPECT_EQ(counts.bad, 2u);
    EXPECT_NEAR(slo.burnRate("m", "t", fakeNow), 2.0, 1e-9);
    EXPECT_EQ(registry.counter("ccsa_slo_good_total",
                               {{"model", "m"}, {"tenant", "t"}})
                  .value(),
              8u);
    EXPECT_EQ(registry.counter("ccsa_slo_bad_total",
                               {{"model", "m"}, {"tenant", "t"}})
                  .value(),
              2u);

    slo.publishGauges(fakeNow);
    EXPECT_NEAR(registry.gauge("ccsa_slo_burn_rate",
                               {{"model", "m"}, {"tenant", "t"}})
                    .value(),
                2.0, 1e-9);

    // The incident ages out of the window: burn recovers to 0 even
    // though the lifetime bad counter remembers it.
    fakeNow += seconds(10);
    EXPECT_EQ(slo.burnRate("m", "t", fakeNow), 0.0);
    slo.publishGauges(fakeNow);
    EXPECT_EQ(registry.gauge("ccsa_slo_burn_rate",
                             {{"model", "m"}, {"tenant", "t"}})
                  .value(),
              0.0);
    EXPECT_EQ(registry.counter("ccsa_slo_bad_total",
                               {{"model", "m"}, {"tenant", "t"}})
                  .value(),
              2u);
}

TEST(SloTracker, UnregisteredPairsAreIgnored)
{
    MetricsRegistry registry;
    SloTracker slo(registry);
    slo.record("ghost", "t", 12345); // must be a silent no-op
    EXPECT_FALSE(slo.hasObjective("ghost", "t"));
    EXPECT_EQ(slo.burnRate("ghost", "t"), 0.0);

    slo.setObjective("m", "t",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(100));
    EXPECT_TRUE(slo.hasObjective("m", "t"));
    EXPECT_FALSE(slo.hasObjective("m", "other"));
}

// ------------------------------------------------ MetricsSampler

TEST(MetricsSampler, SampleOnceRunsProbesAndDumps)
{
    MetricsRegistry registry;
    registry.counter("sampled_total").inc(1);
    std::string path = "test_metrics_sampler.prom";
    MetricsSampler sampler(
        registry,
        MetricsSampler::Options().withExpositionPath(path));
    std::atomic<int> probes{0};
    sampler.addProbe([&] { probes++; });
    sampler.addProbe([&] { probes++; });

    sampler.sampleOnce();
    EXPECT_EQ(probes.load(), 2);
    EXPECT_EQ(sampler.sweeps(), 1u);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("sampled_total 1"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(MetricsSampler, BackgroundThreadSweeps)
{
    MetricsRegistry registry;
    MetricsSampler sampler(
        registry,
        MetricsSampler::Options().withPeriod(milliseconds(5)));
    std::atomic<int> probes{0};
    sampler.addProbe([&] { probes++; });
    sampler.start();
    sampler.start(); // idempotent
    while (probes.load() < 2)
        std::this_thread::yield();
    sampler.stop();
    sampler.stop(); // idempotent
    int settled = probes.load();
    EXPECT_GE(settled, 2);
    // Probes added after stop only run on explicit sampleOnce.
    sampler.sampleOnce();
    EXPECT_EQ(probes.load(), settled + 1);
}

// -------------------------------------- TraceRecorder drop counter

TEST(TraceRecorder, DropsSurfaceThroughTheRegistry)
{
    MetricsRegistry registry;
    TraceRecorder trace(/*maxSpans=*/2);
    trace.attachMetrics(&registry);
    // Attaching eagerly creates the family at 0.
    Counter& dropped =
        registry.counter("ccsa_trace_spans_dropped_total");
    EXPECT_EQ(dropped.value(), 0u);

    Clock::time_point now = Clock::now();
    for (int i = 0; i < 5; ++i)
        trace.record(trace.nextChain(), TracePhase::Admission, now,
                     now + microseconds(10), 0, "t", 1);
    EXPECT_EQ(trace.spanCount(), 2u);
    EXPECT_EQ(trace.droppedSpans(), 3u);
    EXPECT_EQ(dropped.value(), 3u);

    // clear() frees the buffer; the registry counter stays monotone
    // across the clear and keeps counting new drops.
    trace.clear();
    for (int i = 0; i < 3; ++i)
        trace.record(trace.nextChain(), TracePhase::Queue, now,
                     now + microseconds(10), 0, "t", 1);
    EXPECT_EQ(trace.droppedSpans(), 1u);
    EXPECT_EQ(dropped.value(), 4u);
}

// -------------------------------- EncodingCache resident bytes

TEST(EncodingCache, ResidentBytesTrackInsertEvictAndClear)
{
    EncodingCache cache(2);
    // 4 floats = 16 bytes per latent.
    cache.insert(EncodingKey{1, {1, 1}}, Tensor(1, 4, 1.0f));
    EXPECT_EQ(cache.namespaceStats(1).residentBytes,
              4 * sizeof(float));

    // Overwriting the same key with a larger latent adjusts, not
    // accumulates.
    cache.insert(EncodingKey{1, {1, 1}}, Tensor(1, 8, 1.0f));
    EXPECT_EQ(cache.namespaceStats(1).residents, 1u);
    EXPECT_EQ(cache.namespaceStats(1).residentBytes,
              8 * sizeof(float));

    cache.insert(EncodingKey{2, {2, 2}}, Tensor(1, 4, 2.0f));
    EXPECT_EQ(cache.namespaceStats(2).residentBytes,
              4 * sizeof(float));

    // Capacity 2: the next insert evicts namespace 1's entry (LRU)
    // and its bytes go with it.
    cache.insert(EncodingKey{2, {3, 3}}, Tensor(1, 4, 3.0f));
    EXPECT_EQ(cache.namespaceStats(1).residents, 0u);
    EXPECT_EQ(cache.namespaceStats(1).residentBytes, 0u);
    EXPECT_EQ(cache.namespaceStats(2).residentBytes,
              8 * sizeof(float));

    cache.clear();
    EXPECT_EQ(cache.namespaceStats(2).residentBytes, 0u);
}

// Overwriting a resident key must replace its byte charge, never
// stack a second one — including shrinking overwrites (the underflow
// direction) and same-size re-inserts repeated enough times that any
// drift would show.
TEST(EncodingCache, OverwriteOfResidentKeyNeverDoubleCounts)
{
    EncodingCache cache(4);
    cache.insert(EncodingKey{7, {1, 1}}, Tensor(1, 8, 1.0f));
    EXPECT_EQ(cache.namespaceStats(7).residentBytes,
              8 * sizeof(float));

    // Shrink: bytes go DOWN to the new payload, residents stay 1.
    cache.insert(EncodingKey{7, {1, 1}}, Tensor(1, 2, 2.0f));
    EXPECT_EQ(cache.namespaceStats(7).residents, 1u);
    EXPECT_EQ(cache.namespaceStats(7).residentBytes,
              2 * sizeof(float));

    // Same-size overwrites are a fixed point, not an accumulator.
    for (int i = 0; i < 5; ++i)
        cache.insert(EncodingKey{7, {1, 1}},
                     Tensor(1, 2, static_cast<float>(i)));
    EXPECT_EQ(cache.namespaceStats(7).residents, 1u);
    EXPECT_EQ(cache.namespaceStats(7).residentBytes,
              2 * sizeof(float));
    EXPECT_EQ(cache.size(), 1u);

    // The overwritten value is the latest one.
    Tensor got(1, 1);
    ASSERT_TRUE(cache.lookup(EncodingKey{7, {1, 1}}, &got));
    EXPECT_FLOAT_EQ(got.at(0, 0), 4.0f);
}

// An eviction must charge the VICTIM's namespace, not the inserter's:
// three tenants, capacity two — inserting for tenant 3 evicts tenant
// 1's LRU entry and only tenant 1's bytes move.
TEST(EncodingCache, EvictionDebitsTheVictimNamespace)
{
    EncodingCache cache(2);
    cache.insert(EncodingKey{1, {1, 1}}, Tensor(1, 4, 1.0f));
    cache.insert(EncodingKey{2, {2, 2}}, Tensor(1, 8, 2.0f));

    cache.insert(EncodingKey{3, {3, 3}}, Tensor(1, 6, 3.0f));
    EXPECT_EQ(cache.namespaceStats(1).residents, 0u);
    EXPECT_EQ(cache.namespaceStats(1).residentBytes, 0u);
    EXPECT_EQ(cache.namespaceStats(1).evictions, 1u);
    EXPECT_EQ(cache.namespaceStats(2).residents, 1u);
    EXPECT_EQ(cache.namespaceStats(2).residentBytes,
              8 * sizeof(float));
    EXPECT_EQ(cache.namespaceStats(2).evictions, 0u);
    EXPECT_EQ(cache.namespaceStats(3).residentBytes,
              6 * sizeof(float));
}

// With a reduced-precision store, residentBytes reports bytes AS
// STORED: fp16 = 2 bytes/element, int8 = 1 byte/element + 4 bytes of
// per-row scale. The overwrite invariant holds there too.
TEST(EncodingCache, QuantizedResidentBytesReflectStoredSize)
{
    EncodingCache fp16(4, LatentPrecision::kFp16);
    fp16.insert(EncodingKey{1, {1, 1}}, Tensor(1, 8, 1.0f));
    EXPECT_EQ(fp16.namespaceStats(1).residentBytes, 8u * 2u);

    EncodingCache int8(4, LatentPrecision::kInt8);
    int8.insert(EncodingKey{1, {1, 1}}, Tensor(1, 8, 1.0f));
    EXPECT_EQ(int8.namespaceStats(1).residentBytes,
              8u * 1u + 1u * sizeof(float));
    int8.insert(EncodingKey{1, {1, 1}}, Tensor(2, 8, 1.0f));
    EXPECT_EQ(int8.namespaceStats(1).residents, 1u);
    EXPECT_EQ(int8.namespaceStats(1).residentBytes,
              2u * 8u * 1u + 2u * sizeof(float));
}

// --------------------------------------- serving-spine integration

TEST(ServingMetrics, OneShardServerFeedsTheRegistry)
{
    MetricsRegistry registry;
    SloTracker slo(registry);
    slo.setObjective("model", "",
                     SloTracker::Objective()
                         .withLatencyThresholdUs(1)); // all bad
    ShardedServer server(tinyOptions().withMetrics(&registry),
                         ShardedServer::Options()
                             .withNumShards(1)
                             .withMaxBatchDelay(microseconds(50))
                             .withMetrics(&registry)
                             .withSlo(&slo));
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(server.submitCompare(a, b).get().isOk());
    server.shutdown();
    server.sampleMetrics();

    MetricLabels sub{{"server", "sharded"}, {"outcome", "submitted"}};
    MetricLabels done{{"server", "sharded"}, {"outcome", "completed"}};
    EXPECT_EQ(registry.counter("ccsa_requests_total", sub).value(),
              4u);
    EXPECT_EQ(registry.counter("ccsa_requests_total", done).value(),
              4u);
    EXPECT_GE(registry
                  .counter("ccsa_batches_total",
                           {{"server", "sharded"}})
                  .value(),
              1u);

    // Latency histogram: one sample per request (a single shard
    // never splits), labeled with the classic-mode model name and
    // default tenant.
    WindowedHistogram& lat = registry.windowedHistogram(
        "ccsa_request_latency_us",
        {{"server", "sharded"},
         {"model", "model"},
         {"tenant", ""},
         {"priority", "interactive"}});
    EXPECT_EQ(lat.lifetime().count(), 4u);

    // Engine phase histograms saw every batch.
    WindowedHistogram& encode = registry.windowedHistogram(
        "ccsa_engine_phase_us", {{"phase", "encode"}});
    EXPECT_GE(encode.lifetime().count(), 1u);

    // SLO: a 1 us threshold makes every request bad.
    EXPECT_EQ(registry.counter("ccsa_slo_bad_total",
                               {{"model", "model"}, {"tenant", ""}})
                  .value(),
              4u);

    // Gauges published by sampleMetrics.
    EXPECT_GT(registry
                  .gauge("ccsa_cache_residents",
                         {{"server", "sharded"}, {"model", "model"}})
                  .value(),
              0.0);
    EXPECT_EQ(registry
                  .gauge("ccsa_queue_depth", {{"server", "sharded"}})
                  .value(),
              0.0);
}

TEST(ServingMetrics, ShardedServerFeedsTheRegistry)
{
    MetricsRegistry registry;
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(2)
                             .withMaxBatchDelay(microseconds(50))
                             .withMetrics(&registry));
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    std::vector<Engine::PairRequest> pairs{{&a, &b}, {&b, &a}};
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            server.submitCompareMany(pairs).get().isOk());
    server.shutdown();
    server.sampleMetrics();

    MetricLabels sub{{"server", "sharded"},
                     {"outcome", "submitted"}};
    MetricLabels done{{"server", "sharded"},
                      {"outcome", "completed"}};
    EXPECT_EQ(registry.counter("ccsa_requests_total", sub).value(),
              3u);
    EXPECT_EQ(registry.counter("ccsa_requests_total", done).value(),
              3u);
    // Slice-level latency samples: at least one per request.
    WindowedHistogram& lat = registry.windowedHistogram(
        "ccsa_request_latency_us",
        {{"server", "sharded"},
         {"model", "model"},
         {"tenant", ""},
         {"priority", "interactive"}});
    EXPECT_GE(lat.lifetime().count(), 3u);
    EXPECT_EQ(registry
                  .gauge("ccsa_queue_capacity",
                         {{"server", "sharded"}})
                  .value(),
              1024.0);
}

TEST(ServingMetrics, QuotaRejectionsCount)
{
    MetricsRegistry registry;
    AdmissionController admission;
    admission.setQuota("t",
                       AdmissionController::Quota{/*pairsPerSec=*/
                                                  0.000001,
                                                  /*burst=*/1.0});
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(1)
                             .withAdmission(&admission)
                             .withMetrics(&registry));
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    SubmitOptions opts = SubmitOptions().withTenant("t");
    ASSERT_TRUE(server.submitCompare(opts, a, b).get().isOk());
    EXPECT_FALSE(server.submitCompare(opts, a, b).get().isOk());
    server.shutdown();

    MetricLabels quota{{"server", "sharded"},
                       {"outcome", "rejected_quota"}};
    EXPECT_EQ(registry.counter("ccsa_requests_total", quota).value(),
              1u);

    admission.publishMetrics(registry);
    EXPECT_EQ(registry
                  .counter("ccsa_admission_rejected_total",
                           {{"tenant", "t"}})
                  .value(),
              1u);
    EXPECT_EQ(registry
                  .counter("ccsa_admission_admitted_total",
                           {{"tenant", "t"}})
                  .value(),
              1u);
}

} // namespace ccsa
