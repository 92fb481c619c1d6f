/**
 * @file
 * Tests for the admission-control + tracing subsystems: the
 * per-tenant token-bucket AdmissionController (driven by a manual
 * clock — no sleeps), the two-lane deadline-aware Coalescer, the
 * TraceRecorder span sink and its chrome-trace export, and their
 * integration into the serving front end (ShardedServer). The pinned
 * contracts: quotas and priorities never change a result (futures
 * stay bitwise-identical to the synchronous Engine, at 1/2/4/8
 * shards), a dry bucket answers with ResourceExhausted and a
 * per-tenant rejection counter, interactive requests flush ahead of
 * held-over batch-lane traffic, and every successful traced request
 * leaves a complete admission->score span chain.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "frontend/parser.hh"
#include "serve/admission/admission_controller.hh"
#include "serve/coalesce.hh"
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
        .withThreads(1);
}

// ---------------------------------------------- AdmissionController

TEST(AdmissionController, UnquotedTenantsAreAlwaysAdmitted)
{
    AdmissionController ac;
    auto t0 = Clock::now();
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ac.admitAt("anyone", 1000, t0).isOk());
    EXPECT_FALSE(ac.hasQuota("anyone"));

    auto rows = ac.stats();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].tenant, "anyone");
    EXPECT_EQ(rows[0].admitted, 100u);
    EXPECT_EQ(rows[0].admittedPairs, 100000u);
    EXPECT_EQ(rows[0].rejected, 0u);
}

TEST(AdmissionController, TokenBucketRefillsAtTheConfiguredRate)
{
    AdmissionController ac;
    ac.setQuota("t", {/*pairsPerSec=*/10.0, /*burst=*/5.0});
    EXPECT_TRUE(ac.hasQuota("t"));

    // The bucket starts full: the whole burst is admittable at once;
    // the first charge also anchors the refill epoch.
    auto t0 = Clock::now();
    EXPECT_TRUE(ac.admitAt("t", 5, t0).isOk());
    Status dry = ac.admitAt("t", 1, t0);
    EXPECT_FALSE(dry.isOk());
    EXPECT_EQ(dry.code(), StatusCode::ResourceExhausted);

    // 100 ms at 10 pairs/s refills exactly one token.
    auto t1 = t0 + milliseconds(100);
    EXPECT_TRUE(ac.admitAt("t", 1, t1).isOk());
    EXPECT_FALSE(ac.admitAt("t", 1, t1).isOk());

    // A long idle stretch refills to the burst ceiling, not beyond.
    auto t2 = t1 + seconds(60);
    EXPECT_TRUE(ac.admitAt("t", 5, t2).isOk());
    EXPECT_FALSE(ac.admitAt("t", 1, t2).isOk());
}

TEST(AdmissionController, RequestLargerThanBurstIsNeverAdmitted)
{
    AdmissionController ac;
    ac.setQuota("t", {1000.0, 4.0});
    auto t0 = Clock::now();
    // Even a brand-new full bucket cannot cover 5 pairs: the burst
    // is the hard ceiling on a single request's cost.
    EXPECT_EQ(ac.admitAt("t", 5, t0).code(),
              StatusCode::ResourceExhausted);
    // ...and waiting doesn't help.
    EXPECT_EQ(ac.admitAt("t", 5, t0 + seconds(10)).code(),
              StatusCode::ResourceExhausted);
    // A burst-sized request is fine.
    EXPECT_TRUE(ac.admitAt("t", 4, t0 + seconds(10)).isOk());
}

TEST(AdmissionController, ZeroRateIsAHardCap)
{
    AdmissionController ac;
    ac.setQuota("capped", {0.0, 3.0});
    auto t0 = Clock::now();
    EXPECT_TRUE(ac.admitAt("capped", 3, t0).isOk());
    // No refill ever happens at rate 0, however long the wait.
    EXPECT_FALSE(ac.admitAt("capped", 1, t0 + seconds(3600)).isOk());
}

TEST(AdmissionController, ClearQuotaRestoresUnlimitedAdmission)
{
    AdmissionController ac;
    ac.setQuota("t", {0.0, 1.0});
    auto t0 = Clock::now();
    EXPECT_TRUE(ac.admitAt("t", 1, t0).isOk());
    EXPECT_FALSE(ac.admitAt("t", 1, t0).isOk());

    ac.clearQuota("t");
    EXPECT_FALSE(ac.hasQuota("t"));
    EXPECT_TRUE(ac.admitAt("t", 1000, t0).isOk());

    // Counters survived the quota change.
    auto rows = ac.stats();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].admitted, 2u);
    EXPECT_EQ(rows[0].rejected, 1u);
}

TEST(AdmissionController, StatsRowsAreSortedByTenant)
{
    AdmissionController ac;
    auto t0 = Clock::now();
    ac.admitAt("zeta", 1, t0);
    ac.admitAt("alpha", 1, t0);
    ac.setQuota("mid", {1.0, 1.0});
    auto rows = ac.stats();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].tenant, "alpha");
    EXPECT_EQ(rows[1].tenant, "mid");
    EXPECT_EQ(rows[2].tenant, "zeta");
}

// ----------------------------------------------- two-lane Coalescer

/** Minimal request shape the Coalescer template needs. */
struct FakeRequest
{
    int id = 0;
    std::vector<Engine::PairRequest> pairs;
    std::shared_ptr<const ModelVersion> version;
    Priority priority = Priority::kInteractive;
    Clock::time_point enqueued;
    Clock::time_point dequeued;
};

FakeRequest
fakeRequest(int id, Priority priority, Clock::time_point enqueued,
            std::size_t pairCount = 1)
{
    FakeRequest r;
    r.id = id;
    r.pairs.resize(pairCount);
    r.priority = priority;
    r.enqueued = enqueued;
    return r;
}

TEST(Coalescer, ExpiredInteractiveFlushesAloneBatchLaneHeldOver)
{
    BoundedQueue<FakeRequest> queue(8);
    // Batch lane effectively never expires on its own here.
    Coalescer<FakeRequest> coalescer(queue, /*maxBatchSize=*/100,
                                     /*interactiveDelay=*/
                                     microseconds(1000),
                                     /*batchDelay=*/seconds(60));
    auto now = Clock::now();
    queue.push(fakeRequest(1, Priority::kBatch, now));
    queue.push(fakeRequest(2, Priority::kBatch, now));
    // Already past its deadline: forces an immediate interactive
    // flush once coalesced, without this test sleeping.
    queue.push(fakeRequest(3, Priority::kInteractive,
                           now - milliseconds(10)));

    auto batch = coalescer.next();
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->requests.size(), 1u);
    EXPECT_EQ(batch->requests[0].id, 3);
    EXPECT_EQ(batch->pairCount, 1u);
    // The batch-class members stay pending inside the coalescer.
    EXPECT_EQ(coalescer.pendingRequests(), 2u);
    // The pop stamped the queue->coalesce boundary.
    EXPECT_GE(batch->requests[0].dequeued.time_since_epoch().count(),
              now.time_since_epoch().count());

    // Close-and-drain flushes the held-over batch lane...
    queue.close();
    auto drained = coalescer.next();
    ASSERT_TRUE(drained.has_value());
    ASSERT_EQ(drained->requests.size(), 2u);
    EXPECT_EQ(drained->requests[0].id, 1);
    EXPECT_EQ(drained->requests[1].id, 2);
    EXPECT_EQ(coalescer.pendingRequests(), 0u);

    // ...and only then does the loop see the clean-exit signal.
    EXPECT_FALSE(coalescer.next().has_value());
}

TEST(Coalescer, FullBatchFlushesBothLanesTogether)
{
    BoundedQueue<FakeRequest> queue(8);
    Coalescer<FakeRequest> coalescer(queue, /*maxBatchSize=*/3,
                                     microseconds(1000),
                                     seconds(60));
    auto now = Clock::now();
    queue.push(fakeRequest(1, Priority::kBatch, now));
    queue.push(fakeRequest(2, Priority::kInteractive, now));
    queue.push(fakeRequest(3, Priority::kBatch, now));

    // Three pending pairs hit maxBatchSize: everything flushes, in
    // submission order, whichever lane it rode in on.
    auto batch = coalescer.next();
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->requests.size(), 3u);
    EXPECT_EQ(batch->requests[0].id, 1);
    EXPECT_EQ(batch->requests[1].id, 2);
    EXPECT_EQ(batch->requests[2].id, 3);
    EXPECT_EQ(coalescer.pendingRequests(), 0u);
}

TEST(Coalescer, ExpiredBatchLaneTakesEverythingWithIt)
{
    BoundedQueue<FakeRequest> queue(8);
    Coalescer<FakeRequest> coalescer(queue, /*maxBatchSize=*/100,
                                     microseconds(500),
                                     /*batchDelay=*/microseconds(600));
    auto now = Clock::now();
    // BOTH lanes already past their budgets: one flush serves all.
    queue.push(fakeRequest(1, Priority::kBatch,
                           now - milliseconds(10)));
    queue.push(fakeRequest(2, Priority::kInteractive,
                           now - milliseconds(10)));

    auto batch = coalescer.next();
    ASSERT_TRUE(batch.has_value());
    EXPECT_EQ(batch->requests.size(), 2u);
    EXPECT_EQ(coalescer.pendingRequests(), 0u);
}

// -------------------------------------------------- TraceRecorder

TEST(TraceRecorder, RecordsSpansAndClampsTimestamps)
{
    TraceRecorder trace;
    auto now = Clock::now();
    std::uint64_t chain = trace.nextChain();
    EXPECT_NE(chain, 0u); // 0 is reserved for "untraced"

    // end < start clamps to a zero-duration span; a start before
    // the recorder epoch clamps forward to it.
    trace.record(chain, TracePhase::Queue, now + microseconds(200),
                 now + microseconds(100), 3, "tenant-a", 7);
    trace.record(chain, TracePhase::Admission,
                 now - seconds(3600), now, 0, "tenant-a", 7);

    auto spans = trace.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].durUs, 0u);
    EXPECT_EQ(spans[0].lane, 3u);
    EXPECT_EQ(spans[0].pairs, 7u);
    EXPECT_EQ(spans[0].tenant, "tenant-a");
    EXPECT_EQ(spans[1].startUs, 0u); // clamped to the epoch
}

TEST(TraceRecorder, BoundedBufferCountsDroppedSpans)
{
    TraceRecorder trace(/*maxSpans=*/2);
    auto now = Clock::now();
    for (int i = 0; i < 5; ++i)
        trace.record(trace.nextChain(), TracePhase::Score, now, now,
                     0, "", 1);
    EXPECT_EQ(trace.spanCount(), 2u);
    EXPECT_EQ(trace.droppedSpans(), 3u);

    trace.clear();
    EXPECT_EQ(trace.spanCount(), 0u);
    EXPECT_EQ(trace.droppedSpans(), 0u);
}

TEST(TraceRecorder, WriteJsonEmitsChromeTraceEvents)
{
    TraceRecorder trace;
    auto now = Clock::now();
    std::uint64_t chain = trace.nextChain();
    trace.record(chain, TracePhase::Encode, now,
                 now + microseconds(40), 1, "quote\"me", 2);

    std::ostringstream out;
    trace.writeJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"encode\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 1"), std::string::npos);
    // Tenant names are JSON-escaped.
    EXPECT_NE(json.find("quote\\\"me"), std::string::npos);
    EXPECT_EQ(json.find("quote\"me"), std::string::npos);
}

// ------------------------------------------ ShardedServer admission

TEST(ShardedServerAdmission, RejectionSplitAttributesEveryRejection)
{
    // Paused shard + capacity-1 queue: the second trySubmit is a
    // deterministic load-shed.
    ShardedServer server(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(1)
                                            .withQueueCapacity(1)
                                            .withStartPaused(true));
    Ast a = tinyProgram(1), b = tinyProgram(2);
    auto accepted = server.trySubmitCompare(a, b);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_FALSE(server.trySubmitCompare(a, b).has_value());

    ServerStats mid = server.stats().aggregate;
    EXPECT_EQ(mid.requestsRejectedShed, 1u);
    EXPECT_EQ(mid.requestsRejectedShutdown, 0u);
    EXPECT_EQ(mid.requestsRejectedQuota, 0u);
    EXPECT_EQ(mid.requestsRejected, 1u);

    server.shutdown();
    EXPECT_TRUE(accepted->get().isOk());
    auto late = server.submitCompare(a, b);
    EXPECT_EQ(late.get().status().code(), StatusCode::Unavailable);

    ServerStats done = server.stats().aggregate;
    EXPECT_EQ(done.requestsRejectedShed, 1u);
    EXPECT_EQ(done.requestsRejectedShutdown, 1u);
    EXPECT_EQ(done.requestsRejected, 2u);
}

TEST(ShardedServerAdmission, DeadlineFlushServesInteractiveFirst)
{
    // Deterministic schedule: stage everything while paused, then
    // start. The batch lane's budget (60 s) cannot expire within
    // the test, so only the interactive deadline can trigger the
    // first flush.
    ShardedServer server(
        tinyOptions(),
        ShardedServer::Options()
            .withNumShards(1)
            .withStartPaused(true)
            .withMaxBatchSize(1000)
            .withMaxBatchDelay(milliseconds(1))
            .withMaxBatchClassDelay(seconds(60)));
    Ast a = tinyProgram(1), b = tinyProgram(2);

    SubmitOptions background =
        SubmitOptions().withPriority(Priority::kBatch);
    std::vector<std::future<Result<double>>> held;
    for (int i = 0; i < 3; ++i)
        held.push_back(server.submitCompare(background, a, b));
    auto urgent = server.submitCompare(
        SubmitOptions().withPriority(Priority::kInteractive), a, b);

    server.start();
    // The interactive request is answered promptly...
    ASSERT_EQ(urgent.wait_for(seconds(30)),
              std::future_status::ready);
    EXPECT_TRUE(urgent.get().isOk());
    // ...while the batch lane is still held over, unanswered.
    for (auto& f : held)
        EXPECT_EQ(f.wait_for(seconds(0)),
                  std::future_status::timeout);

    // Shutdown drains the held-over lane: every future resolves.
    server.shutdown();
    for (auto& f : held)
        EXPECT_TRUE(f.get().isOk());

    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.requestsCompleted, 4u);
    // At least two flushes: the early interactive one and the drain.
    EXPECT_GE(stats.batches, 2u);
}

TEST(ShardedServerAdmission, TracedRequestsLeaveCompleteChains)
{
    TraceRecorder trace;
    ShardedServer server(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(1)
                                            .withTrace(&trace));
    Ast a = tinyProgram(1), b = tinyProgram(2);

    constexpr int kRequests = 4;
    std::vector<std::future<Result<double>>> futures;
    for (int i = 0; i < kRequests; ++i)
        futures.push_back(server.submitCompare(a, b));
    for (auto& f : futures)
        ASSERT_TRUE(f.get().isOk());
    server.shutdown();

    // Every successful request leaves exactly one span per phase,
    // each phase exactly once per chain, timestamps contiguous.
    auto spans = trace.spans();
    ASSERT_EQ(spans.size(), kRequests * kTracePhases);
    std::map<std::uint64_t, std::map<TracePhase, std::uint64_t>>
        chains;
    for (const auto& s : spans) {
        EXPECT_NE(s.chain, 0u);
        EXPECT_TRUE(
            chains[s.chain].emplace(s.phase, s.startUs).second)
            << "duplicate phase in chain " << s.chain;
    }
    ASSERT_EQ(chains.size(), static_cast<std::size_t>(kRequests));
    for (const auto& [chain, phases] : chains) {
        ASSERT_EQ(phases.size(), kTracePhases);
        EXPECT_LE(phases.at(TracePhase::Admission),
                  phases.at(TracePhase::Queue));
        EXPECT_LE(phases.at(TracePhase::Queue),
                  phases.at(TracePhase::Coalesce));
        EXPECT_LE(phases.at(TracePhase::Coalesce),
                  phases.at(TracePhase::Encode));
        EXPECT_LE(phases.at(TracePhase::Encode),
                  phases.at(TracePhase::Score));
    }

    // Failed submissions leave NO spans.
    ShardedServer second(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(1)
                                            .withTrace(&trace));
    auto bad = second.submitCompare(
        SubmitOptions().withModel("no-such-model"), a, b);
    EXPECT_FALSE(bad.get().isOk());
    EXPECT_EQ(trace.spans().size(), spans.size());
}

TEST(ShardedServerAdmission, QuotaRejectionAndTenantRows)
{
    AdmissionController ac;
    ac.setQuota("noisy", {0.0, 2.0});
    ShardedServer server(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(2)
                                            .withAdmission(&ac));
    Ast a = tinyProgram(1), b = tinyProgram(2);

    SubmitOptions asNoisy = SubmitOptions().withTenant("noisy");
    auto ok1 = server.submitCompare(asNoisy, a, b);
    auto ok2 = server.submitCompare(asNoisy, a, b);
    auto rejected = server.submitCompare(asNoisy, a, b);
    auto other = server.submitCompare(a, b);

    EXPECT_TRUE(ok1.get().isOk());
    EXPECT_TRUE(ok2.get().isOk());
    EXPECT_EQ(rejected.get().status().code(),
              StatusCode::ResourceExhausted);
    EXPECT_TRUE(other.get().isOk());

    ShardedServerStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.requestsRejectedQuota, 1u);
    EXPECT_EQ(stats.aggregate.requestsRejected, 1u);
    EXPECT_EQ(stats.aggregate.requestsSubmitted, 3u);
    ASSERT_EQ(stats.aggregate.tenants.size(), 2u);
    EXPECT_EQ(stats.aggregate.tenants[0].tenant, "");
    EXPECT_EQ(stats.aggregate.tenants[1].tenant, "noisy");
    EXPECT_EQ(stats.aggregate.tenants[1].submitted, 2u);
    EXPECT_EQ(stats.aggregate.tenants[1].completed, 2u);
    EXPECT_EQ(stats.aggregate.tenants[1].rejectedQuota, 1u);
    EXPECT_GT(stats.aggregate.tenants[1].latencyUs.count(), 0u);
}

TEST(ShardedServerAdmission, DegenerateRankFailsOnItsTenantRow)
{
    // A rank of fewer than two candidates fails at submit, and is
    // counted once as failed on its tenant's row as well as in the
    // aggregate: outcome counters stay disjoint per tenant.
    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(2));
    Ast a = tinyProgram(1);
    auto degenerate =
        server.submitRank(SubmitOptions().withTenant("ranker"), {&a})
            .get();
    ASSERT_FALSE(degenerate.isOk());
    EXPECT_EQ(degenerate.status().code(), StatusCode::InvalidArgument);

    ShardedServerStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.requestsFailed, 1u);
    EXPECT_EQ(stats.aggregate.requestsSubmitted, 0u);
    ASSERT_EQ(stats.aggregate.tenants.size(), 1u);
    EXPECT_EQ(stats.aggregate.tenants[0].tenant, "ranker");
    EXPECT_EQ(stats.aggregate.tenants[0].failed, 1u);
    EXPECT_EQ(stats.aggregate.tenants[0].submitted, 0u);
    EXPECT_EQ(stats.aggregate.tenants[0].completed, 0u);
}

TEST(ShardedServerAdmission, PriorityParityAcrossShardCounts)
{
    Engine reference(tinyOptions());
    std::vector<Ast> pool;
    for (int i = 1; i <= 6; ++i)
        pool.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i + 1 < pool.size(); ++i)
        pairs.push_back({&pool[i], &pool[i + 1]});
    std::vector<double> expectedEach =
        reference.compareMany(pairs).value();

    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        // A multi-pair request under batch priority...
        auto many = server.submitCompareMany(
            SubmitOptions().withPriority(Priority::kBatch), pairs);
        // ...and single-pair requests under mixed lanes.
        std::vector<std::future<Result<double>>> singles;
        for (std::size_t i = 0; i < pairs.size(); ++i)
            singles.push_back(server.submitCompare(
                SubmitOptions().withPriority(
                    i % 2 == 0 ? Priority::kInteractive
                               : Priority::kBatch),
                *pairs[i].first, *pairs[i].second));

        Result<std::vector<double>> r = many.get();
        ASSERT_TRUE(r.isOk());
        ASSERT_EQ(r.value().size(), expectedEach.size());
        for (std::size_t i = 0; i < expectedEach.size(); ++i) {
            EXPECT_EQ(r.value()[i], expectedEach[i])
                << shards << " shards, pair " << i;
            Result<double> s = singles[i].get();
            ASSERT_TRUE(s.isOk());
            EXPECT_EQ(s.value(), expectedEach[i])
                << shards << " shards, single " << i;
        }
    }
}

TEST(ShardedServerAdmission, SlicesLeaveCompleteTraceChains)
{
    TraceRecorder trace;
    ShardedServer server(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(4)
                                            .withTrace(&trace));
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i + 1 < pool.size(); ++i)
        pairs.push_back({&pool[i], &pool[i + 1]});

    auto future = server.submitCompareMany(pairs);
    ASSERT_TRUE(future.get().isOk());
    server.shutdown();

    // Every served slice records one complete chain; total span
    // count is a multiple of the chain length and every chain is
    // complete.
    auto spans = trace.spans();
    ASSERT_GT(spans.size(), 0u);
    EXPECT_EQ(spans.size() % kTracePhases, 0u);
    std::map<std::uint64_t, std::set<TracePhase>> chains;
    for (const auto& s : spans)
        chains[s.chain].insert(s.phase);
    for (const auto& [chain, phases] : chains)
        EXPECT_EQ(phases.size(), kTracePhases)
            << "incomplete chain " << chain;
}

} // namespace
} // namespace ccsa
