/**
 * @file
 * The stress/property harness for the serving front end over
 * in-process shards, plus the BoundedQueue backpressure primitive
 * under it. Pinned contracts: ShardedServer results are
 * bitwise-identical to the synchronous Engine at 1, 2, and 4 shards
 * under a deterministic multi-producer schedule (seeded base/rng
 * streams, precomputed before any thread starts); a request is one
 * queue slice and keeps its pair order; a paused single shard
 * coalesces staged requests into one batch; shutdown drains every
 * accepted request; trySubmit load-shed is all-or-nothing across
 * queues and sheds a multi-pair request whole; and the stats
 * aggregate is exactly the per-shard rows merged (latency
 * percentiles from merged histograms, cache partitions summing to
 * the shared cache).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "frontend/parser.hh"
#include "serve/sharded_server.hh"

namespace ccsa
{
namespace
{

using std::chrono::microseconds;
using std::chrono::milliseconds;

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

// ---------------------------------------------------- BoundedQueue

TEST(BoundedQueue, FifoPushPop)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.push(1), QueuePush::Ok);
    EXPECT_EQ(q.push(2), QueuePush::Ok);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, TryPushReportsFullWithoutConsumingItem)
{
    BoundedQueue<std::string> q(1);
    std::string a = "first", b = "second";
    EXPECT_EQ(q.tryPush(std::move(a)), QueuePush::Ok);
    EXPECT_EQ(q.tryPush(std::move(b)), QueuePush::Full);
    EXPECT_EQ(b, "second"); // rejected item left untouched
    EXPECT_EQ(q.pop().value(), "first");
    EXPECT_EQ(q.tryPush(std::move(b)), QueuePush::Ok);
}

TEST(BoundedQueue, CloseDrainsRemainingThenReportsExhaustion)
{
    BoundedQueue<int> q(4);
    ASSERT_EQ(q.push(10), QueuePush::Ok);
    ASSERT_EQ(q.push(20), QueuePush::Ok);
    q.close();
    EXPECT_EQ(q.push(30), QueuePush::Closed);
    EXPECT_EQ(q.tryPush(40), QueuePush::Closed);
    EXPECT_EQ(q.pop().value(), 10);
    EXPECT_EQ(q.pop().value(), 20);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.popFor(microseconds(100)).has_value());
}

TEST(BoundedQueue, TryPopNeverBlocks)
{
    BoundedQueue<int> q(2);
    EXPECT_FALSE(q.tryPop().has_value());
    ASSERT_EQ(q.push(5), QueuePush::Ok);
    EXPECT_EQ(q.tryPop().value(), 5);
    q.close();
    EXPECT_FALSE(q.tryPop().has_value());
}

TEST(BoundedQueue, PopForTimesOutOnEmptyQueue)
{
    BoundedQueue<int> q(2);
    EXPECT_FALSE(q.popFor(microseconds(500)).has_value());
    ASSERT_EQ(q.push(7), QueuePush::Ok);
    EXPECT_EQ(q.popFor(microseconds(500)).value(), 7);
}

TEST(BoundedQueue, BlockedProducerUnblocksWhenSpaceFrees)
{
    BoundedQueue<int> q(1);
    ASSERT_EQ(q.push(1), QueuePush::Ok);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_EQ(q.push(2), QueuePush::Ok); // blocks until pop
        pushed = true;
    });
    std::this_thread::sleep_for(milliseconds(20));
    EXPECT_FALSE(pushed.load());
    EXPECT_EQ(q.pop().value(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, BlockedProducerUnblocksOnClose)
{
    BoundedQueue<int> q(1);
    ASSERT_EQ(q.push(1), QueuePush::Ok);
    std::thread producer(
        [&] { EXPECT_EQ(q.push(2), QueuePush::Closed); });
    std::this_thread::sleep_for(milliseconds(20));
    q.close();
    producer.join();
}

TEST(BoundedQueue, CloseWakesEveryBlockedProducerItemsUntouched)
{
    // The shutdown contract from bounded_queue.hh: close() wakes ALL
    // parked producers (not just one), each returns Closed with its
    // item still in the caller's hands, and already-accepted items
    // stay poppable (drain, not shed).
    BoundedQueue<std::unique_ptr<int>> q(1);
    ASSERT_EQ(q.push(std::make_unique<int>(0)), QueuePush::Ok);

    constexpr int kProducers = 6;
    std::atomic<int> closedCount{0};
    std::atomic<int> itemsIntact{0};
    std::vector<std::thread> producers;
    for (int p = 1; p <= kProducers; ++p) {
        producers.emplace_back([&, p] {
            auto item = std::make_unique<int>(p);
            if (q.push(std::move(item)) == QueuePush::Closed) {
                closedCount++;
                // Closed must leave the item unmoved — the serving
                // layers rely on this to fail the request with an
                // attributed status instead of losing it.
                if (item != nullptr && *item == p)
                    itemsIntact++;
            }
        });
    }
    std::this_thread::sleep_for(milliseconds(30));
    q.close();
    for (std::thread& t : producers)
        t.join();
    EXPECT_EQ(closedCount.load(), kProducers);
    EXPECT_EQ(itemsIntact.load(), kProducers);

    // Drain semantics: the one accepted item survives the close.
    auto drained = q.pop();
    ASSERT_TRUE(drained.has_value());
    EXPECT_EQ(**drained, 0);
    EXPECT_FALSE(q.pop().has_value());
}


TEST(BoundedQueue, TryPushAllIsAllOrNothing)
{
    BoundedQueue<int> q(3);
    std::vector<int> first{1, 2};
    EXPECT_EQ(q.tryPushAll(first), QueuePush::Ok);
    EXPECT_EQ(q.size(), 2u);

    // Two items into one free slot: nothing may enter.
    std::vector<int> overflow{3, 4};
    EXPECT_EQ(q.tryPushAll(overflow), QueuePush::Full);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(overflow, (std::vector<int>{3, 4})); // untouched

    std::vector<int> last{3};
    EXPECT_EQ(q.tryPushAll(last), QueuePush::Ok);
    EXPECT_EQ(q.pop().value(), 1); // FIFO preserved across batches
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);

    std::vector<int> none;
    EXPECT_EQ(q.tryPushAll(none), QueuePush::Ok); // empty is a no-op
    EXPECT_EQ(q.size(), 0u);

    q.close();
    std::vector<int> late{9};
    EXPECT_EQ(q.tryPushAll(late), QueuePush::Closed);
    EXPECT_EQ(late, (std::vector<int>{9}));
}

TEST(BoundedQueue, TryPushAllAcrossIsAllOrNothing)
{
    BoundedQueue<int> a(2);
    BoundedQueue<int> b(1);
    std::vector<int> fill{0};
    ASSERT_EQ(b.tryPushAll(fill), QueuePush::Ok);

    // b is full: the item bound for a must not enter either.
    std::vector<BoundedQueue<int>*> targets{&a, &b};
    std::vector<int> items{1, 2};
    EXPECT_EQ(BoundedQueue<int>::tryPushAllAcross(targets, items),
              QueuePush::Full);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b.size(), 1u);
    EXPECT_EQ(items, (std::vector<int>{1, 2})); // untouched

    // A queue's share counts every item routed to it.
    std::vector<BoundedQueue<int>*> twiceA{&a, &a, &a};
    std::vector<int> three{1, 2, 3};
    EXPECT_EQ(BoundedQueue<int>::tryPushAllAcross(twiceA, three),
              QueuePush::Full);
    EXPECT_EQ(a.size(), 0u);

    ASSERT_EQ(b.pop().value(), 0);
    EXPECT_EQ(BoundedQueue<int>::tryPushAllAcross(targets, items),
              QueuePush::Ok);
    EXPECT_EQ(a.pop().value(), 1);
    EXPECT_EQ(b.pop().value(), 2);

    // Closed wins over Full, and leaves the items in place.
    b.close();
    std::vector<int> late{7, 8};
    EXPECT_EQ(BoundedQueue<int>::tryPushAllAcross(targets, late),
              QueuePush::Closed);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(late, (std::vector<int>{7, 8}));
}

// ------------------------------------------------- ShardedServer

TEST(ShardedServer, ServesEachRequestAsOneSlice)
{
    // In-process shards share one queue and one cache, so a request
    // is never split: a head-vs-many batch and an 8-candidate rank
    // are one slice each. queueDepth counts slices.
    std::vector<Ast> trees;
    for (int i = 1; i <= 8; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<const Ast*> candidates;
    for (const Ast& t : trees)
        candidates.push_back(&t);
    std::vector<Engine::PairRequest> headVsMany;
    for (std::size_t j = 1; j < trees.size(); ++j)
        headVsMany.push_back({&trees[0], &trees[j]});

    Engine reference(tinyOptions());
    std::vector<double> expectedMany =
        reference.compareMany(headVsMany).value();
    std::vector<Engine::RankedCandidate> expectedRank =
        reference.rank(candidates).value();

    ShardedServer server(tinyOptions(), ShardedServer::Options()
                                            .withNumShards(4)
                                            .withStartPaused(true));
    auto many = server.submitCompareMany(headVsMany);
    EXPECT_EQ(server.stats().aggregate.queueDepth, 1u);
    auto ranked = server.submitRank(candidates);
    EXPECT_EQ(server.stats().aggregate.queueDepth, 2u);

    server.start();
    auto gotMany = many.get();
    ASSERT_TRUE(gotMany.isOk());
    ASSERT_EQ(gotMany.value().size(), expectedMany.size());
    for (std::size_t k = 0; k < expectedMany.size(); ++k)
        EXPECT_EQ(gotMany.value()[k], expectedMany[k]) << "pair " << k;
    auto gotRank = ranked.get();
    ASSERT_TRUE(gotRank.isOk());
    ASSERT_EQ(gotRank.value().size(), expectedRank.size());
    for (std::size_t i = 0; i < expectedRank.size(); ++i) {
        EXPECT_EQ(gotRank.value()[i].index, expectedRank[i].index);
        EXPECT_EQ(gotRank.value()[i].wins, expectedRank[i].wins);
        EXPECT_EQ(gotRank.value()[i].meanProbFaster,
                  expectedRank[i].meanProbFaster);
    }
    EXPECT_EQ(server.stats().aggregate.pairsServed,
              headVsMany.size() + 8u * 7u);
}

TEST(ShardedServer, CompareMatchesSynchronousEngineBitwise)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    double expected = reference.compare(a, b).value();

    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        Result<double> got = server.submitCompare(a, b).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        EXPECT_EQ(got.value(), expected) << "shards=" << shards;
    }
}

TEST(ShardedServer, MultiPairRequestKeepsRequestOrderBitwise)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});
    std::vector<double> expected =
        reference.compareMany(pairs).value();

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        auto got = server.submitCompareMany(pairs).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        ASSERT_EQ(got.value().size(), expected.size());
        // The 30-pair request is one slice at every shard count;
        // every probability must land back in its original slot
        // with the exact synchronous value.
        for (std::size_t k = 0; k < expected.size(); ++k)
            EXPECT_EQ(got.value()[k], expected[k])
                << "shards=" << shards << " pair " << k;
    }
}

TEST(ShardedServer, RankMatchesEngineExactlyAtEveryShardCount)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<const Ast*> candidates;
    for (const Ast& t : trees)
        candidates.push_back(&t);
    auto expected = reference.rank(candidates).value();

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(
            tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        auto got = server.submitRank(candidates).get();
        ASSERT_TRUE(got.isOk()) << "shards=" << shards;
        ASSERT_EQ(got.value().size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(got.value()[i].index, expected[i].index);
            EXPECT_EQ(got.value()[i].wins, expected[i].wins);
            EXPECT_EQ(got.value()[i].meanProbFaster,
                      expected[i].meanProbFaster);
        }
    }
}

TEST(ShardedServer, DeterministicMultiProducerStressMatchesSyncPath)
{
    constexpr int kClients = 6;
    constexpr int kRequestsPerClient = 60;
    constexpr int kTrees = 8;

    std::vector<Ast> trees;
    for (int i = 1; i <= kTrees; ++i)
        trees.push_back(tinyProgram(i));

    // Reference matrix from the synchronous path.
    Engine reference(tinyOptions());
    std::vector<Engine::PairRequest> allPairs;
    for (int i = 0; i < kTrees; ++i)
        for (int j = 0; j < kTrees; ++j)
            if (i != j)
                allPairs.push_back({&trees[i], &trees[j]});
    std::vector<double> refProbs =
        reference.compareMany(allPairs).value();
    auto expectedProb = [&](int i, int j) {
        int row = i * (kTrees - 1);
        int col = j < i ? j : j - 1;
        return refProbs[static_cast<std::size_t>(row + col)];
    };

    // Fixed request schedule: one seeded base/rng stream per client,
    // fully materialised BEFORE any thread runs, so every shard
    // configuration replays the identical workload.
    struct WorkItem
    {
        int first;
        int second;
    };
    std::vector<std::vector<WorkItem>> schedule(kClients);
    for (int c = 0; c < kClients; ++c) {
        Rng rng(9000 + static_cast<std::uint64_t>(c));
        for (int k = 0; k < kRequestsPerClient; ++k) {
            int i = rng.uniformInt(0, kTrees - 1);
            int j = rng.uniformInt(0, kTrees - 2);
            if (j >= i)
                ++j;
            schedule[static_cast<std::size_t>(c)].push_back(
                WorkItem{i, j});
        }
    }

    for (std::size_t shards : {1u, 2u, 4u}) {
        ShardedServer server(tinyOptions(),
                             ShardedServer::Options()
                                 .withNumShards(shards)
                                 .withQueueCapacity(64)
                                 .withMaxBatchSize(16)
                                 .withMaxBatchDelay(
                                     microseconds(200)));
        std::vector<std::thread> clients;
        std::vector<int> mismatches(kClients, 0);
        std::vector<int> failures(kClients, 0);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                std::vector<std::future<Result<double>>> futures;
                futures.reserve(kRequestsPerClient);
                for (const WorkItem& w :
                     schedule[static_cast<std::size_t>(c)])
                    futures.push_back(server.submitCompare(
                        trees[static_cast<std::size_t>(w.first)],
                        trees[static_cast<std::size_t>(w.second)]));
                for (int k = 0; k < kRequestsPerClient; ++k) {
                    Result<double> got =
                        futures[static_cast<std::size_t>(k)].get();
                    const WorkItem& w = schedule[static_cast<
                        std::size_t>(c)][static_cast<std::size_t>(k)];
                    if (!got.isOk())
                        failures[static_cast<std::size_t>(c)]++;
                    else if (got.value() !=
                             expectedProb(w.first, w.second))
                        mismatches[static_cast<std::size_t>(c)]++;
                }
            });
        }
        for (std::thread& t : clients)
            t.join();
        for (int c = 0; c < kClients; ++c) {
            EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
            EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
                << "shards=" << shards << " client " << c;
        }

        ShardedServerStats stats = server.stats();
        const auto total = static_cast<std::uint64_t>(
            kClients * kRequestsPerClient);
        EXPECT_EQ(stats.aggregate.requestsSubmitted, total);
        EXPECT_EQ(stats.aggregate.requestsCompleted, total);
        EXPECT_EQ(stats.aggregate.requestsFailed, 0u);
        EXPECT_EQ(stats.aggregate.pairsServed, total);
        EXPECT_GE(stats.aggregate.batches, 1u);
        EXPECT_EQ(stats.aggregate.batchSizes.count(),
                  stats.aggregate.batches);
        EXPECT_EQ(stats.aggregate.batchSizes.sum(),
                  stats.aggregate.pairsServed);
        // Every distinct tree is resident on exactly one partition
        // of the shared cache.
        EXPECT_EQ(server.cache().size(),
                  static_cast<std::size_t>(kTrees));
    }
}

TEST(ShardedServer, OneShardCoalescesStagedRequestsIntoOneBatch)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);

    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(1)
                             .withStartPaused(true)
                             .withMaxBatchSize(10)
                             .withMaxBatchDelay(milliseconds(50)));
    std::vector<std::future<Result<double>>> futures;
    for (int k = 0; k < 10; ++k)
        futures.push_back(server.submitCompare(a, b));
    EXPECT_EQ(server.stats().aggregate.queueDepth, 10u);

    server.start();
    for (auto& f : futures)
        EXPECT_TRUE(f.get().isOk());

    // All ten single-pair requests were staged before the shard ran,
    // so they coalesce into exactly one full batch.
    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.pairsServed, 10u);
    EXPECT_EQ(stats.batchSizes.max(), 10u);
    EXPECT_EQ(stats.queueDepth, 0u);
}

TEST(ShardedServer, ShutdownDrainsEveryAcceptedRequest)
{
    Engine reference(tinyOptions());
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> manyPairs;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        manyPairs.push_back({&trees[i], &trees[i + 1]});

    // Paused 4-shard server: nothing runs until shutdown, which must
    // still answer every accepted request — the multi-pair one
    // included — before returning.
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(4)
                             .withStartPaused(true)
                             .withQueueCapacity(256));
    std::vector<std::future<Result<double>>> singles;
    for (int k = 0; k < 20; ++k)
        singles.push_back(server.submitCompare(a, b));
    auto many = server.submitCompareMany(manyPairs);
    EXPECT_GT(server.stats().aggregate.queueDepth, 0u);

    server.shutdown();
    EXPECT_TRUE(server.isShutdown());

    double expected = reference.compare(a, b).value();
    for (auto& f : singles) {
        Result<double> got = f.get();
        ASSERT_TRUE(got.isOk());
        EXPECT_EQ(got.value(), expected);
    }
    auto expectedMany = reference.compareMany(manyPairs).value();
    auto gotMany = many.get();
    ASSERT_TRUE(gotMany.isOk());
    ASSERT_EQ(gotMany.value().size(), expectedMany.size());
    for (std::size_t k = 0; k < expectedMany.size(); ++k)
        EXPECT_EQ(gotMany.value()[k], expectedMany[k]);
    EXPECT_EQ(server.stats().aggregate.requestsCompleted, 21u);
}

TEST(ShardedServer, DeadlineExpiresWhileQueuedAndCountsOnce)
{
    Engine reference(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        pairs.push_back({&trees[i], &trees[i + 1]});

    // Paused 2-shard server: the multi-pair request expires while
    // queued, and the deadline rejection is attributed to ONE
    // request.
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(2)
                             .withStartPaused(true));
    auto expired = server.submitCompareMany(
        SubmitOptions().withDeadline(
            std::chrono::microseconds(1000)),
        pairs);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.start();
    auto got = expired.get();
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::DeadlineExceeded);

    // A generous deadline completes with the exact sync values.
    auto fine = server.submitCompareMany(
        SubmitOptions().withDeadline(
            std::chrono::microseconds(30'000'000)),
        pairs);
    auto fineGot = fine.get();
    ASSERT_TRUE(fineGot.isOk());
    EXPECT_EQ(fineGot.value(), reference.compareMany(pairs).value());

    server.shutdown();
    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.requestsSubmitted, 2u);
    EXPECT_EQ(stats.requestsRejectedDeadline, 1u);
    EXPECT_EQ(stats.requestsCompleted, 1u);
    EXPECT_EQ(stats.requestsSubmitted,
              stats.requestsCompleted + stats.requestsFailed +
                  stats.requestsRejectedDeadline);
}

TEST(ShardedServer, TrySubmitShedsAMultiPairRequestWhole)
{
    // A multi-pair request over distinct first trees is one slice, so
    // it takes one queue slot; when none is free it is shed whole.
    // The cross-queue all-or-nothing contract is pinned by
    // ProcessShardedServer.TrySubmitIsAllOrNothingAcrossShardQueues.
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));

    ShardedServer server(tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(4)
                             .withStartPaused(true)
                             .withQueueCapacity(1));
    std::vector<Engine::PairRequest> many{{&pool[0], &pool[1]},
                                          {&pool[1], &pool[0]},
                                          {&pool[2], &pool[3]}};
    auto accepted = server.trySubmitCompareMany(many);
    ASSERT_TRUE(accepted.has_value());
    EXPECT_EQ(server.stats().aggregate.queueDepth, 1u);

    // The one slot is taken: the next multi-pair request is shed
    // and leaves the queue as it was...
    EXPECT_FALSE(server.trySubmitCompareMany(many).has_value());
    EXPECT_EQ(server.stats().aggregate.queueDepth, 1u);
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 1u);
    // ...and so is a single pair.
    EXPECT_FALSE(server.trySubmitCompare(pool[0], pool[2])
                     .has_value());
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 2u);

    // Accepted work is still answered once draining starts.
    server.shutdown();
    Engine reference(tinyOptions());
    auto got = accepted->get();
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), reference.compareMany(many).value());
    EXPECT_EQ(server.stats().aggregate.requestsCompleted, 1u);
}

TEST(ShardedServer, SubmitAfterShutdownResolvesUnavailable)
{
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(2));
    server.shutdown();
    server.shutdown(); // idempotent

    auto blocking = server.submitCompare(a, b).get();
    ASSERT_FALSE(blocking.isOk());
    EXPECT_EQ(blocking.status().code(), StatusCode::Unavailable);

    auto attempted = server.trySubmitCompare(a, b);
    ASSERT_TRUE(attempted.has_value());
    auto tried = attempted->get();
    ASSERT_FALSE(tried.isOk());
    EXPECT_EQ(tried.status().code(), StatusCode::Unavailable);
    EXPECT_GE(server.stats().aggregate.requestsRejected, 2u);
}

TEST(ShardedServer, TrySubmitOfMultiPairRequestAfterShutdownResolves)
{
    // A multi-pair request refused by a CLOSED queue must resolve
    // its future with Unavailable, not die as a broken promise.
    // (ProcessShardedServer pins the same for a request split
    // across shard queues.)
    std::vector<Ast> pool;
    for (int i = 1; i <= 8; ++i)
        pool.push_back(tinyProgram(i));

    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(4));
    server.shutdown();

    std::vector<Engine::PairRequest> crossShard{{&pool[0], &pool[1]},
                                                {&pool[1], &pool[0]}};
    auto attempted = server.trySubmitCompareMany(crossShard);
    ASSERT_TRUE(attempted.has_value());
    auto got = attempted->get(); // must not throw broken_promise
    ASSERT_FALSE(got.isOk());
    EXPECT_EQ(got.status().code(), StatusCode::Unavailable);

    // The blocking path makes the same promise.
    auto blocked = server.submitCompareMany(crossShard).get();
    ASSERT_FALSE(blocked.isOk());
    EXPECT_EQ(blocked.status().code(), StatusCode::Unavailable);
    // A refused request counts as rejected ONLY —
    // completed/failed/rejected stay disjoint outcomes.
    EXPECT_EQ(server.stats().aggregate.requestsRejected, 2u);
    EXPECT_EQ(server.stats().aggregate.requestsFailed, 0u);
    EXPECT_EQ(server.stats().aggregate.requestsCompleted, 0u);
}

TEST(ShardedServer, MalformedRequestsFailOnlyTheirOwnFuture)
{
    Ast a = tinyProgram(1);
    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(2));

    auto nullPair = server
                        .submitCompareMany(
                            {Engine::PairRequest{&a, nullptr}})
                        .get();
    ASSERT_FALSE(nullPair.isOk());
    EXPECT_EQ(nullPair.status().code(), StatusCode::InvalidArgument);

    auto degenerate = server.submitRank({&a}).get();
    ASSERT_FALSE(degenerate.isOk());
    EXPECT_EQ(degenerate.status().code(),
              StatusCode::InvalidArgument);

    auto empty = server.submitCompareMany({}).get();
    ASSERT_TRUE(empty.isOk());
    EXPECT_TRUE(empty.value().empty());

    Ast b = tinyProgram(2);
    EXPECT_TRUE(server.submitCompare(a, b).get().isOk());
    EXPECT_EQ(server.stats().aggregate.requestsFailed, 2u);
}

TEST(ShardedServer, StatsAggregateIsExactlyTheShardRowsMerged)
{
    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});

    ShardedServer server(
        tinyOptions(), ShardedServer::Options().withNumShards(4));
    // Two rounds: the second one hits the now-warm shared cache.
    for (int round = 0; round < 2; ++round)
        ASSERT_TRUE(server.submitCompareMany(pairs).get().isOk());

    ShardedServerStats stats = server.stats();
    ASSERT_EQ(stats.shards.size(), 4u);

    std::uint64_t batches = 0, pairsServed = 0, latencyCount = 0;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    std::size_t cacheSize = 0;
    for (const ServerStats& row : stats.shards) {
        batches += row.batches;
        pairsServed += row.pairsServed;
        latencyCount += row.latencyUs.count();
        hits += row.engine.cacheHits;
        misses += row.engine.cacheMisses;
        evictions += row.engine.cacheEvictions;
        cacheSize += row.engine.cacheSize;
    }
    EXPECT_EQ(stats.aggregate.batches, batches);
    EXPECT_EQ(stats.aggregate.pairsServed, pairsServed);
    EXPECT_EQ(stats.aggregate.pairsServed,
              static_cast<std::uint64_t>(2 * pairs.size()));
    EXPECT_EQ(stats.aggregate.latencyUs.count(), latencyCount);
    EXPECT_EQ(stats.aggregate.batchSizes.sum(),
              stats.aggregate.pairsServed);

    // Cache partition rows sum to the shared cache's own counters.
    EXPECT_EQ(stats.aggregate.engine.cacheHits, hits);
    EXPECT_EQ(stats.aggregate.engine.cacheMisses, misses);
    EXPECT_EQ(stats.aggregate.engine.cacheEvictions, evictions);
    EXPECT_EQ(stats.aggregate.engine.cacheSize, cacheSize);
    EXPECT_EQ(hits, server.cache().stats().hits);
    EXPECT_EQ(misses, server.cache().stats().misses);
    EXPECT_EQ(cacheSize, server.cache().size());
    EXPECT_EQ(cacheSize, trees.size());
    // The warm round guarantees real hits.
    EXPECT_GE(hits, trees.size());

    // Aggregate percentiles come from the merged histogram, never
    // from averaging shard percentiles.
    Histogram merged;
    for (const ServerStats& row : stats.shards)
        merged.merge(row.latencyUs);
    EXPECT_DOUBLE_EQ(stats.aggregate.latencyP50Ms,
                     static_cast<double>(
                         merged.quantileUpperBound(0.5)) /
                         1000.0);
    EXPECT_DOUBLE_EQ(stats.aggregate.latencyP99Ms,
                     static_cast<double>(
                         merged.quantileUpperBound(0.99)) /
                         1000.0);
    EXPECT_LE(stats.aggregate.latencyP50Ms,
              stats.aggregate.latencyP99Ms);
    EXPECT_LE(stats.aggregate.latencyP99Ms,
              stats.aggregate.latencyMaxMs);
}

TEST(ShardedServer, OneShardStatsExposeEngineCacheCountersAndLatency)
{
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options().withNumShards(1));

    // Same pair repeatedly: first batch encodes, later ones hit.
    for (int round = 0; round < 3; ++round)
        ASSERT_TRUE(server.submitCompare(a, b).get().isOk());

    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.engine.treesEncoded, 2u);
    EXPECT_GE(stats.engine.cacheHits, 2u);
    EXPECT_GE(stats.engine.cacheMisses, 2u);
    EXPECT_EQ(stats.engine.cacheSize, 2u);
    EXPECT_EQ(stats.engine.pairsServed, 3u);
    EXPECT_EQ(stats.queueCapacity, 1024u);

    EXPECT_GE(stats.latencyP50Ms, 0.0);
    EXPECT_GE(stats.latencyP99Ms, stats.latencyP50Ms);
    EXPECT_GE(stats.latencyMaxMs, stats.latencyP99Ms);
    EXPECT_GT(stats.latencyMaxMs, 0.0);
}

TEST(ShardedServer, ServesTrainedSharedModelAcrossAllShards)
{
    // All shard engines must serve the SAME model object: a model
    // handed in once answers identically through every shard.
    auto model = std::make_shared<ComparativePredictor>(
        tinyOptions().encoder, /*seed=*/7);
    Engine reference(model);
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    double expected = reference.compare(a, b).value();

    ShardedServer server(model, tinyOptions(),
                         ShardedServer::Options().withNumShards(3));
    for (std::size_t s = 0; s < server.numShards(); ++s)
        EXPECT_EQ(&server.shardEngine(s).model(), model.get());
    auto got = server.submitCompare(a, b).get();
    ASSERT_TRUE(got.isOk());
    EXPECT_EQ(got.value(), expected);
}

TEST(ShardedServer, ShardVersionEngineEncodesIntoTheShardNamespace)
{
    // An engine built on a shard's own version and shared cache (how
    // a resident pool is primed outside the request path) serves
    // exactly that version, so the trees it encodes are then served
    // by the shards without a single new cache miss.
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options().withNumShards(2));
    Engine& shard = server.shardEngine(0);
    Engine primer(shard.modelVersion(), Engine::Options().withThreads(1),
                  shard.sharedCache());
    std::shared_ptr<const ModelVersion> served = shard.modelVersion();
    EXPECT_EQ(primer.modelVersion()->id, served->id);
    EXPECT_EQ(primer.modelVersion()->name, served->name);
    EXPECT_EQ(primer.modelVersion()->sequence, served->sequence);

    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<const Ast*> refs;
    std::vector<Engine::PairRequest> pairs;
    for (const Ast& t : trees)
        refs.push_back(&t);
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        pairs.push_back({&trees[i], &trees[i + 1]});
    ASSERT_TRUE(primer.encodeBatch(refs).isOk());

    std::uint64_t misses = server.cache().stats().misses;
    ASSERT_TRUE(shard.compareMany(pairs).isOk());
    ASSERT_TRUE(server.submitCompareMany(pairs).get().isOk());
    EXPECT_EQ(server.cache().stats().misses, misses);
    EXPECT_EQ(server.stats().aggregate.engine.treesEncoded, 0u);
}

TEST(ShardedServer, FixedModelIsARegistryOfOneNamedModel)
{
    ShardedServer server(tinyOptions(),
                         ShardedServer::Options().withNumShards(2));
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    auto unnamed = server.submitCompare(a, b).get();
    auto named =
        server.submitCompare(SubmitOptions().withModel("model"), a, b)
            .get();
    ASSERT_TRUE(unnamed.isOk());
    ASSERT_TRUE(named.isOk());
    EXPECT_EQ(named.value(), unnamed.value());
    auto unknown =
        server.submitCompare(SubmitOptions().withModel("nope"), a, b)
            .get();
    ASSERT_FALSE(unknown.isOk());
    EXPECT_EQ(unknown.status().code(), StatusCode::InvalidArgument);

    std::vector<ModelCacheStats> models = server.stats().aggregate.models;
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0].name, "model");
    EXPECT_EQ(models[0].sequence, 1u);
    EXPECT_EQ(models[0].versionId,
              server.shardEngine(0).modelVersion()->id);
    EXPECT_EQ(models[0].cache.residents, 2u);
}

} // namespace
} // namespace ccsa
