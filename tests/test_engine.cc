/**
 * @file
 * Tests for the serving layer: Status/Result, the ThreadPool, the
 * LRU encoding cache, and the Engine facade — including the three
 * pinned contracts: batch probabilities bitwise-match the legacy
 * per-pair path, cache hits return identical latents while the hit
 * counter advances, and results are invariant to the thread count.
 */

#include <gtest/gtest.h>

#include <atomic>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "base/rng.hh"
#include "eval/metrics.hh"
#include "frontend/parser.hh"
#include "oracle.hh"
#include "serve/engine.hh"
#include "serve/latent_codec.hh"
#include "serve/latent_f16_dispatch.hh"

namespace ccsa
{
namespace
{

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

// ------------------------------------------------------- Status

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::Ok);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s = Status::invalidArgument("bad tree");
    EXPECT_FALSE(s.isOk());
    EXPECT_FALSE(static_cast<bool>(s));
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(s.toString(), "invalid-argument: bad tree");
}

TEST(Result, HoldsValueOrStatus)
{
    Result<int> ok(42);
    ASSERT_TRUE(ok.isOk());
    EXPECT_EQ(ok.value(), 42);

    Result<int> err(Status::ioError("disk on fire"));
    ASSERT_FALSE(err.isOk());
    EXPECT_EQ(err.status().code(), StatusCode::IoError);
    EXPECT_THROW(err.value(), PanicError);
}

// ---------------------------------------------------- ThreadPool

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> counts(257);
        for (auto& c : counts)
            c = 0;
        pool.parallelFor(counts.size(), [&](std::size_t i) {
            counts[i].fetch_add(1);
        });
        for (const auto& c : counts)
            EXPECT_EQ(c.load(), 1);
    }
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(16, [](std::size_t i) {
            if (i == 7)
                fatal("boom");
        }),
        FatalError);
}

TEST(ThreadPool, ZeroIterationsIsANoop)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NegativeThreadCountClampsToInline)
{
    ThreadPool pool(-5);
    EXPECT_EQ(pool.workerCount(), 0); // clamped to 1 => inline
    std::atomic<int> ran{0};
    pool.parallelFor(4, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, SubmitReportsOkAndRunsTheTask)
{
    for (int threads : {1, 3}) {
        ThreadPool pool(threads);
        std::atomic<bool> ran{false};
        ASSERT_TRUE(pool.submit([&] { ran = true; }).isOk());
        pool.shutdown(); // drains the task before joining
        EXPECT_TRUE(ran.load());
    }
}

TEST(ThreadPool, ShutdownIsIdempotentAndRejectsNewWork)
{
    ThreadPool pool(2);
    EXPECT_FALSE(pool.isShutdown());
    pool.shutdown();
    pool.shutdown(); // double-shutdown is a safe no-op
    EXPECT_TRUE(pool.isShutdown());
    EXPECT_EQ(pool.workerCount(), 0);

    std::atomic<bool> ran{false};
    Status s = pool.submit([&] { ran = true; });
    ASSERT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::Unavailable);
    EXPECT_FALSE(ran.load()); // rejected task never runs

    EXPECT_THROW(pool.parallelFor(4, [](std::size_t) {}),
                 FatalError);
}

// ------------------------------------------------- EncodingCache

TEST(EncodingCache, DigestSeesStructureNotText)
{
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(2);
    Ast c = tinyProgram(3);
    EXPECT_EQ(digestAst(a), digestAst(b));
    EXPECT_FALSE(digestAst(a) == digestAst(c));
}

TEST(EncodingCache, LruEvictsOldestFirst)
{
    EncodingCache cache(2);
    EncodingKey k1{1, {1, 1}}, k2{1, {2, 2}}, k3{1, {3, 3}};
    cache.insert(k1, Tensor(1, 1, 1.0f));
    cache.insert(k2, Tensor(1, 1, 2.0f));
    ASSERT_TRUE(cache.lookup(k1)); // refresh k1: k2 is LRU
    cache.insert(k3, Tensor(1, 1, 3.0f)); // evicts k2
    EXPECT_TRUE(cache.lookup(k1));
    EXPECT_FALSE(cache.lookup(k2));
    EXPECT_TRUE(cache.lookup(k3));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EncodingCache, ModelNamespacesAreIsolated)
{
    // The same digest under two model-version namespaces is two
    // distinct entries — the latent-collision hazard the registry
    // refactor retires (ISSUE 5): before namespaced keys, two
    // models sharing one cache silently served each other's rows.
    EncodingCache cache(8);
    AstDigest d{7, 7};
    cache.insert(EncodingKey{1, d}, Tensor(1, 1, 1.0f));
    EXPECT_FALSE(cache.lookup(EncodingKey{2, d}));
    cache.insert(EncodingKey{2, d}, Tensor(1, 1, 2.0f));
    EXPECT_EQ(cache.size(), 2u);
    Tensor got(1, 1);
    ASSERT_TRUE(cache.lookup(EncodingKey{1, d}, &got));
    EXPECT_FLOAT_EQ(got.at(0, 0), 1.0f);
    ASSERT_TRUE(cache.lookup(EncodingKey{2, d}, &got));
    EXPECT_FLOAT_EQ(got.at(0, 0), 2.0f);

    // Per-namespace counters partition the global ones.
    EncodingCache::NamespaceStats ns1 = cache.namespaceStats(1);
    EncodingCache::NamespaceStats ns2 = cache.namespaceStats(2);
    EXPECT_EQ(ns1.hits, 1u);
    EXPECT_EQ(ns2.hits, 1u);
    EXPECT_EQ(ns2.misses, 1u);
    EXPECT_EQ(ns1.residents, 1u);
    EXPECT_EQ(ns2.residents, 1u);
    EXPECT_EQ(cache.stats().hits, ns1.hits + ns2.hits);
    EXPECT_EQ(cache.stats().misses, ns1.misses + ns2.misses);
}

TEST(EncodingCache, EvictionsAttributeToTheEvictedNamespace)
{
    EncodingCache cache(2);
    cache.insert(EncodingKey{1, {1, 1}}, Tensor(1, 1, 1.0f));
    cache.insert(EncodingKey{2, {2, 2}}, Tensor(1, 1, 2.0f));
    // A hot namespace may push a cold one's entry out; the eviction
    // is charged to the VICTIM's namespace.
    cache.insert(EncodingKey{2, {3, 3}}, Tensor(1, 1, 3.0f));
    EXPECT_EQ(cache.namespaceStats(1).evictions, 1u);
    EXPECT_EQ(cache.namespaceStats(1).residents, 0u);
    EXPECT_EQ(cache.namespaceStats(2).evictions, 0u);
    EXPECT_EQ(cache.namespaceStats(2).residents, 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

// ------------------------------------- ShardedEncodingCache (ISSUE 4)

/** Deterministic "random" program: structure varies with both knobs
 * so distinct (loops, pad) pairs digest differently. */
Ast
variantProgram(int loops, int pad)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int p = 0; p < pad; ++p)
        src += " int pad" + std::to_string(p) + " = " +
            std::to_string(p) + ";\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

/** A randomized forest of distinct-by-digest trees. */
std::vector<Ast>
randomForest(Rng& rng, std::size_t count)
{
    std::vector<Ast> forest;
    std::vector<AstDigest> seen;
    while (forest.size() < count) {
        Ast tree =
            variantProgram(rng.uniformInt(0, 7), rng.uniformInt(0, 7));
        AstDigest d = digestAst(tree);
        bool fresh = true;
        for (const AstDigest& s : seen)
            fresh = fresh && !(s == d);
        if (!fresh)
            continue;
        seen.push_back(d);
        forest.push_back(std::move(tree));
    }
    return forest;
}

TEST(ShardedEncodingCache, EveryDigestRoutesToExactlyOneShard)
{
    Rng rng(41);
    std::vector<Ast> forest = randomForest(rng, 24);
    for (std::size_t n : {1u, 2u, 3u, 4u, 8u}) {
        for (const Ast& tree : forest) {
            AstDigest d = digestAst(tree);
            std::size_t shard = ShardedEncodingCache::shardOf(d, n);
            EXPECT_LT(shard, n);
            // Routing is a pure function of the digest: repeated
            // calls and structurally identical trees agree.
            EXPECT_EQ(ShardedEncodingCache::shardOf(d, n), shard);
            EXPECT_EQ(
                ShardedEncodingCache::shardOf(digestAst(tree), n),
                shard);
        }
    }
    // Sanity: with a few shards, a 24-tree forest actually uses more
    // than one of them (the partition is not degenerate).
    std::vector<bool> used(4, false);
    for (const Ast& tree : forest)
        used[ShardedEncodingCache::shardOf(digestAst(tree), 4)] =
            true;
    int distinct = 0;
    for (bool u : used)
        distinct += u ? 1 : 0;
    EXPECT_GT(distinct, 1);
}

TEST(ShardedEncodingCache, PerShardCountersSumToUnshardedCounters)
{
    Rng rng(42);
    std::vector<Ast> forest = randomForest(rng, 20);
    std::vector<AstDigest> digests;
    for (const Ast& tree : forest)
        digests.push_back(digestAst(tree));

    // Identical randomized lookup/insert-on-miss streams against a
    // 4-way partitioned cache and an unsharded one, both roomy
    // enough never to evict: partitioning the key space must
    // partition the counters, nothing more.
    ShardedEncodingCache sharded(4, 64);
    ShardedEncodingCache flat(1, 256);
    Rng stream(43);
    for (int step = 0; step < 400; ++step) {
        const AstDigest& d =
            digests[static_cast<std::size_t>(stream.uniformInt(
                0, static_cast<int>(digests.size()) - 1))];
        EncodingKey key{1, d};
        Tensor out;
        bool hitSharded = sharded.lookup(key, &out);
        bool hitFlat = flat.lookup(key, &out);
        EXPECT_EQ(hitSharded, hitFlat) << "step " << step;
        if (!hitSharded) {
            sharded.insert(key, Tensor(1, 4, 1.0f));
            flat.insert(key, Tensor(1, 4, 1.0f));
        }
    }

    EncodingCache::Stats summed;
    std::size_t sizeSum = 0;
    for (std::size_t s = 0; s < sharded.numShards(); ++s) {
        EncodingCache::Stats part = sharded.shardStats(s);
        summed.hits += part.hits;
        summed.misses += part.misses;
        summed.evictions += part.evictions;
        sizeSum += sharded.shardSize(s);
    }
    EncodingCache::Stats unsharded = flat.stats();
    EXPECT_EQ(summed.hits, unsharded.hits);
    EXPECT_EQ(summed.misses, unsharded.misses);
    EXPECT_EQ(summed.evictions, unsharded.evictions);
    EXPECT_EQ(summed.evictions, 0u);
    EXPECT_EQ(sizeSum, flat.size());
    // The aggregate accessor reports exactly the per-shard sums.
    EXPECT_EQ(sharded.stats().hits, summed.hits);
    EXPECT_EQ(sharded.stats().misses, summed.misses);
    EXPECT_EQ(sharded.size(), sizeSum);
}

TEST(ShardedEncodingCache, EvictionInOneShardNeverInvalidatesAnother)
{
    Rng rng(44);
    std::vector<Ast> forest = randomForest(rng, 40);
    std::vector<AstDigest> shard0Owned, shard1Owned;
    for (const Ast& tree : forest) {
        AstDigest d = digestAst(tree);
        if (ShardedEncodingCache::shardOf(d, 2) == 0)
            shard0Owned.push_back(d);
        else
            shard1Owned.push_back(d);
    }
    ASSERT_GE(shard0Owned.size(), 4u);
    ASSERT_GE(shard1Owned.size(), 2u);

    ShardedEncodingCache cache(2, 2);
    // Resident entries on shard 1...
    cache.insert(EncodingKey{1, shard1Owned[0]}, Tensor(1, 4, 1.0f));
    cache.insert(EncodingKey{1, shard1Owned[1]}, Tensor(1, 4, 2.0f));
    // ...then flood shard 0 far past its capacity.
    for (const AstDigest& d : shard0Owned)
        cache.insert(EncodingKey{1, d}, Tensor(1, 4, 3.0f));

    EXPECT_GT(cache.shardStats(0).evictions, 0u);
    EXPECT_EQ(cache.shardStats(1).evictions, 0u);
    Tensor out;
    EXPECT_TRUE(cache.lookup(EncodingKey{1, shard1Owned[0]}, &out));
    EXPECT_TRUE(cache.lookup(EncodingKey{1, shard1Owned[1]}, &out));
    EXPECT_EQ(cache.shardSize(0), 2u); // at its own capacity
    EXPECT_EQ(cache.shardSize(1), 2u); // untouched by the flood
}

TEST(Engine, ShardedCacheServesIdenticalLatentsAndPartitionsKeys)
{
    Rng rng(45);
    std::vector<Ast> forest = randomForest(rng, 12);
    std::vector<const Ast*> ptrs;
    for (const Ast& tree : forest)
        ptrs.push_back(&tree);

    Engine flat(tinyOptions());
    Engine sharded(tinyOptions().withCacheShards(4));
    auto flatLatents = flat.encodeBatch(ptrs);
    auto shardedLatents = sharded.encodeBatch(ptrs);
    ASSERT_TRUE(flatLatents.isOk());
    ASSERT_TRUE(shardedLatents.isOk());
    for (std::size_t i = 0; i < ptrs.size(); ++i)
        EXPECT_FLOAT_EQ(shardedLatents.value()[i].maxAbsDiff(
                            flatLatents.value()[i]),
                        0.0f)
            << "tree " << i;

    // Every distinct tree is resident on exactly one partition.
    EXPECT_EQ(sharded.cache().size(), forest.size());
    std::size_t perShard = 0;
    for (std::size_t s = 0; s < sharded.cache().numShards(); ++s)
        perShard += sharded.cache().shardSize(s);
    EXPECT_EQ(perShard, forest.size());

    // A second pass is all hits on both layouts.
    ASSERT_TRUE(sharded.encodeBatch(ptrs).isOk());
    EXPECT_EQ(sharded.stats().treesEncoded, forest.size());
    EXPECT_GE(sharded.stats().cacheHits, forest.size());
}

// --------------------------------------------------------- Engine

TEST(Engine, CompareManyBitwiseMatchesLegacyPerPairPath)
{
    Engine engine(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));

    std::vector<Engine::PairRequest> requests;
    std::vector<double> legacy;
    for (std::size_t i = 0; i < trees.size(); ++i) {
        for (std::size_t j = 0; j < trees.size(); ++j) {
            if (i == j)
                continue;
            requests.push_back({&trees[i], &trees[j]});
            legacy.push_back(
                perPairProb(engine.model(), trees[i], trees[j]));
        }
    }

    auto batched = engine.compareMany(requests);
    ASSERT_TRUE(batched.isOk());
    ASSERT_EQ(batched.value().size(), legacy.size());
    for (std::size_t k = 0; k < legacy.size(); ++k)
        EXPECT_EQ(batched.value()[k], legacy[k]) << "pair " << k;
}

TEST(Engine, BatchedHeadMatchesPerPairPathAtEveryBatchSize)
{
    // compareMany scores a whole call with one P-row head product;
    // every row must still be bitwise the one-pair head, whatever P
    // is and wherever the matmul kernel's row blocks fall. Pairs
    // repeat trees and include self-pairs, so several rows gather
    // the same latent. An untrained head's logits sit so close to 0
    // that float exp rounds away a few-ulp change in the logit, so
    // the head is widened first: a head that summed its 2d products
    // in another order (say w1.z_a + w2.z_b) then fails this test.
    Engine::Options opts = tinyOptions();
    auto model =
        std::make_shared<ComparativePredictor>(opts.encoder, opts.seed);
    for (nn::Parameter* p : model->parameters()) {
        if (p->name.rfind("classifier.", 0) != 0)
            continue;
        Tensor& t = p->var.mutableValue();
        for (int r = 0; r < t.rows(); ++r)
            for (int c = 0; c < t.cols(); ++c)
                t.at(r, c) *= 40.0f;
    }
    Engine engine(model, opts);
    std::vector<Ast> trees;
    for (int i = 1; i <= 7; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<std::vector<double>> oracle(trees.size());
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            oracle[i].push_back(perPairProb(*model, trees[i], trees[j]));

    Rng rng(27);
    for (std::size_t p : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 17u,
                          56u, 257u}) {
        std::vector<Engine::PairRequest> requests;
        std::vector<double> expected;
        for (std::size_t k = 0; k < p; ++k) {
            auto i = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(trees.size()) - 1));
            auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(trees.size()) - 1));
            requests.push_back({&trees[i], &trees[j]});
            expected.push_back(oracle[i][j]);
        }
        auto batched = engine.compareMany(requests);
        ASSERT_TRUE(batched.isOk()) << "P=" << p;
        ASSERT_EQ(batched.value().size(), p);
        for (std::size_t k = 0; k < p; ++k)
            EXPECT_EQ(batched.value()[k], expected[k])
                << "P=" << p << " pair " << k;
    }
}

TEST(Engine, CacheHitsReturnIdenticalLatentsAndAdvanceCounter)
{
    Engine engine(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);

    auto first = engine.encodeBatch({&a, &b});
    ASSERT_TRUE(first.isOk());
    Engine::Stats cold = engine.stats();
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.treesEncoded, 2u);
    EXPECT_EQ(cold.cacheSize, 2u);

    // A structurally identical copy must hit, not re-encode.
    Ast a_copy = tinyProgram(2);
    auto second = engine.encodeBatch({&a_copy, &b});
    ASSERT_TRUE(second.isOk());
    Engine::Stats warm = engine.stats();
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(warm.treesEncoded, 2u); // unchanged: all hits

    for (int i = 0; i < 2; ++i) {
        ASSERT_EQ(second.value()[i].cols(),
                  first.value()[i].cols());
        EXPECT_FLOAT_EQ(
            first.value()[i].maxAbsDiff(second.value()[i]), 0.0f);
    }
}

TEST(Engine, ResultsInvariantToThreadPoolSize)
{
    std::vector<Ast> trees;
    for (int i = 1; i <= 8; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> requests;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        requests.push_back({&trees[i], &trees[i + 1]});

    std::vector<double> reference;
    for (int threads : {1, 2, 8}) {
        Engine engine(tinyOptions().withThreads(threads));
        auto probs = engine.compareMany(requests);
        ASSERT_TRUE(probs.isOk());
        if (reference.empty()) {
            reference = probs.value();
            continue;
        }
        ASSERT_EQ(probs.value().size(), reference.size());
        for (std::size_t k = 0; k < reference.size(); ++k)
            EXPECT_EQ(probs.value()[k], reference[k])
                << "threads=" << threads << " pair " << k;
    }
}

TEST(Engine, ForestBatchedEncodingMatchesSingleTreeEncoding)
{
    // encodeBatch forest-batches cache misses (possibly chunked
    // across pool workers); every latent must equal the one-tree
    // encode of the same AST exactly, whatever shared the batch.
    for (int threads : {1, 3}) {
        Engine engine(tinyOptions().withThreads(threads));
        std::vector<Ast> trees;
        std::vector<const Ast*> ptrs;
        for (int i = 1; i <= 7; ++i) {
            trees.push_back(tinyProgram(i));
        }
        for (const Ast& t : trees)
            ptrs.push_back(&t);

        auto batched = engine.encodeBatch(ptrs);
        ASSERT_TRUE(batched.isOk());
        for (std::size_t i = 0; i < trees.size(); ++i) {
            Tensor solo = engine.model().encode(trees[i]).value();
            EXPECT_FLOAT_EQ(
                batched.value()[i].maxAbsDiff(solo), 0.0f)
                << "threads=" << threads << " tree " << i;
        }
    }
}

TEST(Engine, EncodeBatchDedupsWithinOneCall)
{
    Engine engine(tinyOptions());
    Ast a = tinyProgram(3);
    Ast a_twin = tinyProgram(3);
    auto latents = engine.encodeBatch({&a, &a_twin, &a});
    ASSERT_TRUE(latents.isOk());
    EXPECT_EQ(engine.stats().treesEncoded, 1u);
    EXPECT_FLOAT_EQ(
        latents.value()[0].maxAbsDiff(latents.value()[2]), 0.0f);
}

TEST(Engine, EncodeBatchSharesOneKeyPerStructure)
{
    // Repeated pointers and a structurally equal copy share one key:
    // two distinct trees, two entries, one latent per reference.
    Engine engine(tinyOptions());
    Ast a = tinyProgram(2);
    Ast b = tinyProgram(4);
    Ast a_copy = tinyProgram(2);
    const std::vector<const Ast*> refs{&a, &a, &b, &a_copy, &b};
    const std::vector<std::size_t> treeOf{0, 0, 1, 0, 1};
    auto sameBits = [](const Tensor& x, const Tensor& y) {
        return x.rows() == y.rows() && x.cols() == y.cols() &&
            std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
            0;
    };

    auto cold = engine.encodeBatch(refs);
    ASSERT_TRUE(cold.isOk());
    ASSERT_EQ(cold.value().size(), refs.size());
    Engine::Stats afterCold = engine.stats();
    EXPECT_EQ(afterCold.cacheSize, 2u);
    EXPECT_EQ(afterCold.cacheMisses, 2u);
    EXPECT_EQ(afterCold.treesEncoded, 2u);
    for (std::size_t i = 0; i < refs.size(); ++i)
        for (std::size_t j = 0; j < refs.size(); ++j)
            EXPECT_EQ(sameBits(cold.value()[i], cold.value()[j]),
                      treeOf[i] == treeOf[j])
                << "refs " << i << ", " << j;

    auto warm = engine.encodeBatch(refs);
    ASSERT_TRUE(warm.isOk());
    Engine::Stats afterWarm = engine.stats();
    EXPECT_EQ(afterWarm.cacheHits, 2u);
    EXPECT_EQ(afterWarm.cacheMisses, 2u);
    EXPECT_EQ(afterWarm.treesEncoded, 2u);
    EXPECT_EQ(afterWarm.cacheSize, 2u);
    for (std::size_t i = 0; i < refs.size(); ++i)
        EXPECT_TRUE(sameBits(warm.value()[i], cold.value()[i]))
            << "ref " << i;
}

TEST(Engine, WarmTournamentCopiesEachLatentOnce)
{
    // An all-hit tournament copies each distinct latent out of the
    // cache once and scores every pair from views of those copies,
    // so its tensor allocations grow with the 8 trees, not with the
    // 112 pair references.
    Engine engine(tinyOptions());
    std::vector<Ast> trees;
    for (int i = 1; i <= 8; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<const Ast*> ptrs;
    for (const Ast& t : trees)
        ptrs.push_back(&t);
    const std::vector<Engine::PairRequest> pairs =
        Engine::tournamentPairs(ptrs);
    ASSERT_EQ(pairs.size(), 56u);

    auto cold = engine.compareMany(pairs);
    ASSERT_TRUE(cold.isOk());
    const std::uint64_t before = tensorHeapAllocCount();
    auto warm = engine.compareMany(pairs);
    const std::uint64_t allocs = tensorHeapAllocCount() - before;
    ASSERT_TRUE(warm.isOk());
    EXPECT_EQ(warm.value(), cold.value());
    EXPECT_EQ(engine.stats().treesEncoded, trees.size());
    EXPECT_LE(allocs, trees.size());
}

TEST(Engine, CacheEvictionRespectsCapacity)
{
    Engine engine(tinyOptions().withCacheCapacity(2));
    Ast a = tinyProgram(1), b = tinyProgram(2), c = tinyProgram(3);
    ASSERT_TRUE(engine.encodeBatch({&a, &b, &c}).isOk());
    Engine::Stats s = engine.stats();
    EXPECT_EQ(s.cacheSize, 2u);
    EXPECT_EQ(s.cacheEvictions, 1u);
    // `a` was evicted (oldest): encoding it again is a miss.
    ASSERT_TRUE(engine.encodeBatch({&a}).isOk());
    EXPECT_EQ(engine.stats().treesEncoded, 4u);
}

TEST(Engine, RankOrdersStructurallySlowerCandidatesConsistently)
{
    Engine engine(tinyOptions());
    Ast fast = tinyProgram(1);
    Ast mid = tinyProgram(3);
    Ast slow = tinyProgram(6);
    auto ranking = engine.rank({&mid, &fast, &slow});
    ASSERT_TRUE(ranking.isOk());
    ASSERT_EQ(ranking.value().size(), 3u);

    // An untrained model gives arbitrary probabilities, so pin the
    // internal consistency instead: wins sum to the number of
    // ordered pairs and the list is sorted by wins.
    int total_wins = 0;
    for (const auto& r : ranking.value())
        total_wins += r.wins;
    EXPECT_EQ(total_wins, 6);
    for (std::size_t i = 1; i < ranking.value().size(); ++i)
        EXPECT_GE(ranking.value()[i - 1].wins,
                  ranking.value()[i].wins);
    // Tournament consistency with compareMany on the same engine.
    auto p = engine.compare(fast, slow);
    ASSERT_TRUE(p.isOk());
}

TEST(Engine, RankRejectsDegenerateRequests)
{
    Engine engine(tinyOptions());
    Ast only = tinyProgram(1);
    auto ranking = engine.rank({&only});
    ASSERT_FALSE(ranking.isOk());
    EXPECT_EQ(ranking.status().code(), StatusCode::InvalidArgument);
}

TEST(Engine, NullTreeIsInvalidArgumentNotACrash)
{
    Engine engine(tinyOptions());
    auto latents = engine.encodeBatch({nullptr});
    ASSERT_FALSE(latents.isOk());
    EXPECT_EQ(latents.status().code(), StatusCode::InvalidArgument);
}

TEST(Engine, CompareSourcesReportsParseFailures)
{
    Engine engine(tinyOptions());
    auto bad = engine.compareSources("int main() {", "not c++ at all");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);

    auto good = engine.compareSources(
        "int main() { return 0; }",
        "int main() { int n; cin >> n;"
        " for (int i = 0; i < n; i++) { int z = i; } return 0; }");
    ASSERT_TRUE(good.isOk());
    EXPECT_GE(good.value(), 0.0);
    EXPECT_LE(good.value(), 1.0);
}

TEST(Engine, EvalMetricsAgreeWithPerPairOracle)
{
    // scorePairs(Engine&) must reproduce the per-pair oracle
    // exactly — the property every experiment driver now leans on.
    Engine engine(tinyOptions());
    std::vector<Submission> subs;
    for (int i = 0; i < 5; ++i) {
        Submission s;
        s.id = i;
        s.ast = tinyProgram(i + 1);
        s.runtimeMs = 10.0 * (i + 1);
        subs.push_back(std::move(s));
    }
    std::vector<int> idx{0, 1, 2, 3, 4};
    Rng rng(3);
    PairOptions popt;
    auto pairs = buildPairs(subs, idx, popt, rng);

    auto via_engine = scorePairs(engine, subs, pairs);
    ASSERT_EQ(via_engine.size(), pairs.size());
    for (std::size_t i = 0; i < via_engine.size(); ++i) {
        EXPECT_EQ(via_engine[i].score,
                  perPairProb(engine.model(), subs[pairs[i].first].ast,
                              subs[pairs[i].second].ast));
        EXPECT_EQ(via_engine[i].label, pairs[i].label);
    }
}

// ------------------------------ reduced-precision latent store

TEST(LatentCodec, PrecisionNamesRoundTrip)
{
    LatentPrecision p = LatentPrecision::kFp32;
    EXPECT_TRUE(parseLatentPrecision("fp16", &p));
    EXPECT_EQ(p, LatentPrecision::kFp16);
    EXPECT_TRUE(parseLatentPrecision("int8", &p));
    EXPECT_EQ(p, LatentPrecision::kInt8);
    EXPECT_TRUE(parseLatentPrecision("fp32", &p));
    EXPECT_EQ(p, LatentPrecision::kFp32);

    p = LatentPrecision::kInt8;
    EXPECT_FALSE(parseLatentPrecision("bf16", &p));
    EXPECT_EQ(p, LatentPrecision::kInt8); // untouched on failure
    EXPECT_STREQ(latentPrecisionName(LatentPrecision::kFp16), "fp16");
}

TEST(LatentCodec, Fp16BitsMatchIeeeBinary16)
{
    // Exactly representable values map to their textbook encodings.
    EXPECT_EQ(f32ToF16(0.0f), 0x0000u);
    EXPECT_EQ(f32ToF16(-0.0f), 0x8000u);
    EXPECT_EQ(f32ToF16(1.0f), 0x3C00u);
    EXPECT_EQ(f32ToF16(-2.0f), 0xC000u);
    EXPECT_EQ(f32ToF16(65504.0f), 0x7BFFu); // half's max finite
    EXPECT_EQ(f32ToF16(6.103515625e-05f), 0x0400u); // min normal
    // min subnormal, 2^-24 — regression for the subnormal path
    // shifting by dropped+14 bits (UB above 2^-18, wrong below)
    EXPECT_EQ(f32ToF16(5.9604644775390625e-08f), 0x0001u);
    EXPECT_EQ(f32ToF16(0x1p-15f), 0x0200u);

    // Round-to-nearest-even at the 10-bit mantissa boundary:
    // 1 + 2^-11 is halfway between mant 0 and 1 -> even (1.0);
    // 1 + 3*2^-11 is halfway between mant 1 and 2 -> even (mant 2).
    EXPECT_EQ(f32ToF16(1.0f + 0x1p-11f), 0x3C00u);
    EXPECT_EQ(f32ToF16(1.0f + 3 * 0x1p-11f), 0x3C02u);
    // Same tie rule inside the subnormal range: 3*2^-25 is halfway
    // between codes 1 and 2 -> even (2); 2^-25 ties down to zero.
    EXPECT_EQ(f32ToF16(3 * 0x1p-25f), 0x0002u);
    EXPECT_EQ(f32ToF16(0x1p-25f), 0x0000u);

    // Overflow saturates to inf; NaN stays NaN (quietened).
    EXPECT_EQ(f32ToF16(1e30f), 0x7C00u);
    EXPECT_EQ(f32ToF16(-1e30f), 0xFC00u);
    EXPECT_TRUE(std::isinf(f16ToF32(0x7C00u)));
    EXPECT_TRUE(std::isnan(
        f16ToF32(f32ToF16(std::numeric_limits<float>::quiet_NaN()))));

    // Every non-NaN half is exactly representable as a float, so
    // encode(decode(h)) must be the identity across all 2^16 codes —
    // normals, subnormals, signed zeros, and infinities alike.
    for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
        const auto bits = static_cast<std::uint16_t>(h);
        if (((bits >> 10) & 0x1Fu) == 0x1Fu && (bits & 0x3FFu) != 0)
            continue; // NaN payloads are canonicalised
        EXPECT_EQ(f32ToF16(f16ToF32(bits)), bits) << "half " << h;
    }
}

TEST(LatentCodec, F16DispatchHonoursPortableOverride)
{
    // Like the matmul dispatcher, the fp16 codec family latches on
    // first use; assert consistency with the env as this process sees
    // it. The CI forced-portable leg runs with
    // CCSA_F16_KERNEL=portable and lands in the first branch.
    const char* env = std::getenv("CCSA_F16_KERNEL");
    if (env != nullptr && std::strcmp(env, "portable") == 0) {
        EXPECT_STREQ(kernels::activeF16KernelName(), "portable");
    } else if (kernels::f16cAvailable()) {
        EXPECT_STREQ(kernels::activeF16KernelName(), "f16c");
    } else {
        EXPECT_STREQ(kernels::activeF16KernelName(), "portable");
    }
    EXPECT_STREQ(kernels::portableF16Kernels().name, "portable");
}

TEST(LatentCodec, F16PortableRowsMatchScalarConversions)
{
    // The portable row kernels are, by definition, the scalar
    // conversions applied elementwise — including for lengths that
    // are not a multiple of any vector width.
    const auto& portable = kernels::portableF16Kernels();
    std::vector<std::uint16_t> halves;
    for (std::uint32_t h = 0; h < 1000; ++h)
        halves.push_back(static_cast<std::uint16_t>(h * 61));
    std::vector<float> decoded(halves.size());
    portable.decodeRows(halves.data(), decoded.data(), halves.size());
    std::vector<std::uint16_t> back(halves.size());
    portable.encodeRows(decoded.data(), back.data(), decoded.size());
    for (std::size_t i = 0; i < halves.size(); ++i) {
        // Compare BITS, not values: the sweep includes NaN codes,
        // and NaN == NaN is false by definition.
        const float want = f16ToF32(halves[i]);
        std::uint32_t gotBits, wantBits;
        std::memcpy(&gotBits, &decoded[i], sizeof(gotBits));
        std::memcpy(&wantBits, &want, sizeof(wantBits));
        EXPECT_EQ(gotBits, wantBits) << i;
        EXPECT_EQ(back[i], f32ToF16(decoded[i])) << i;
    }
}

TEST(LatentCodec, F16cMatchesPortableOnEveryNonNanHalf)
{
    // Mirror of the exhaustive roundtrip above, across kernel
    // families: for all 2^16 half codes that are not NaN payloads,
    // the F16C decode must be bit-identical to the portable decode,
    // and both families must encode the decoded value back to the
    // original code. NaN payloads are excluded for the same reason
    // as above — portable canonicalises to 0x7E00|sign while the
    // hardware preserves/quiets payloads — but class must survive:
    // every NaN half decodes to a NaN in both families.
    if (!kernels::f16cAvailable())
        GTEST_SKIP() << "no F16C on this CPU/build";
    const auto& portable = kernels::portableF16Kernels();
    const auto& active = kernels::f16cKernels();
    ASSERT_STREQ(active.name, "f16c");

    std::vector<std::uint16_t> codes(0x10000);
    for (std::uint32_t h = 0; h <= 0xFFFFu; ++h)
        codes[h] = static_cast<std::uint16_t>(h);
    std::vector<float> viaPortable(codes.size());
    std::vector<float> viaF16c(codes.size());
    portable.decodeRows(codes.data(), viaPortable.data(),
                        codes.size());
    active.decodeRows(codes.data(), viaF16c.data(), codes.size());

    std::vector<std::uint16_t> backPortable(codes.size());
    std::vector<std::uint16_t> backF16c(codes.size());
    portable.encodeRows(viaPortable.data(), backPortable.data(),
                        viaPortable.size());
    active.encodeRows(viaPortable.data(), backF16c.data(),
                      viaPortable.size());

    for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
        const bool isNan =
            ((h >> 10) & 0x1Fu) == 0x1Fu && (h & 0x3FFu) != 0;
        if (isNan) {
            EXPECT_TRUE(std::isnan(viaPortable[h])) << "half " << h;
            EXPECT_TRUE(std::isnan(viaF16c[h])) << "half " << h;
            continue;
        }
        std::uint32_t bp, bf;
        std::memcpy(&bp, &viaPortable[h], sizeof(bp));
        std::memcpy(&bf, &viaF16c[h], sizeof(bf));
        EXPECT_EQ(bf, bp) << "decode half " << h;
        EXPECT_EQ(backPortable[h], codes[h]) << "portable half " << h;
        EXPECT_EQ(backF16c[h], codes[h]) << "f16c half " << h;
    }
}

TEST(LatentCodec, F16cMatchesPortableOffGridAndOnTails)
{
    // Values with no exact half representation exercise the actual
    // rounding hardware: RNE ties, subnormal underflow, and overflow
    // saturation must agree with the portable oracle bit-for-bit.
    // Lengths 1..n also sweep the 8-wide kernel's scalar tail.
    if (!kernels::f16cAvailable())
        GTEST_SKIP() << "no F16C on this CPU/build";
    const auto& portable = kernels::portableF16Kernels();
    const auto& active = kernels::f16cKernels();

    std::vector<float> probes = {
        1.0f / 3.0f,    -1.0f / 3.0f,   0.1f,
        1.0f + 0x1p-11f, 1.0f + 3 * 0x1p-11f,
        3 * 0x1p-25f,   0x1p-25f,       -0x1p-25f,
        5.9604644775390625e-08f, 0x1p-15f,
        65504.0f,       65520.0f,       65519.99f,
        1e30f,          -1e30f,         0.0f,
        -0.0f,          std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        6.103515625e-05f, 6.1e-05f,     1234.5678f};
    Rng rng(77);
    for (int i = 0; i < 300; ++i)
        probes.push_back(
            static_cast<float>(rng.normal(0.0, 1.0)));

    for (std::size_t n = 1; n <= probes.size(); n += 7) {
        std::vector<std::uint16_t> ep(n), ea(n);
        portable.encodeRows(probes.data(), ep.data(), n);
        active.encodeRows(probes.data(), ea.data(), n);
        EXPECT_EQ(ep, ea) << "encode length " << n;
        std::vector<float> dp(n), da(n);
        portable.decodeRows(ep.data(), dp.data(), n);
        active.decodeRows(ep.data(), da.data(), n);
        EXPECT_EQ(std::memcmp(dp.data(), da.data(),
                              n * sizeof(float)),
                  0)
            << "decode length " << n;
    }
}

TEST(LatentCodec, PayloadBytesMatchPrecision)
{
    Tensor t(1, 8, 0.25f);
    EXPECT_EQ(encodeLatent(t, LatentPrecision::kFp32).payloadBytes(),
              8 * sizeof(float));
    EXPECT_EQ(encodeLatent(t, LatentPrecision::kFp16).payloadBytes(),
              8 * sizeof(std::uint16_t));
    EXPECT_EQ(encodeLatent(t, LatentPrecision::kInt8).payloadBytes(),
              8u + 1 * sizeof(float)); // codes + one per-row scale

    // fp32 storage is bit-exact; fp16 of exactly-representable
    // values (0.25 is a power of two) is too.
    for (LatentPrecision p :
         {LatentPrecision::kFp32, LatentPrecision::kFp16}) {
        Tensor back = decodeLatent(encodeLatent(t, p));
        EXPECT_FLOAT_EQ(back.maxAbsDiff(t), 0.0f)
            << latentPrecisionName(p);
    }
}

TEST(LatentCodec, Int8QuantizesPerRowSymmetricAndZeroRowsExactly)
{
    Tensor t(2, 4);
    const float r0[4] = {2.0f, -2.0f, 1.0f, 0.5f};
    for (int c = 0; c < 4; ++c) {
        t.at(0, c) = r0[c];
        t.at(1, c) = 0.0f; // all-zero row: scale 0, exact decode
    }

    StoredLatent s = encodeLatent(t, LatentPrecision::kInt8);
    const auto* scales =
        reinterpret_cast<const float*>(s.payload.data());
    EXPECT_FLOAT_EQ(scales[0], 2.0f / 127.0f);
    EXPECT_FLOAT_EQ(scales[1], 0.0f);
    const auto* codes = reinterpret_cast<const std::int8_t*>(
        s.payload.data() + 2 * sizeof(float));
    EXPECT_EQ(codes[0], 127);  // +maxAbs pins the positive end
    EXPECT_EQ(codes[1], -127); // symmetric range: no -128 code

    Tensor back = decodeLatent(s);
    // Worst-case int8 error is half a quantization step.
    const float step = 2.0f / 127.0f;
    for (int c = 0; c < 4; ++c) {
        EXPECT_NEAR(back.at(0, c), t.at(0, c), step / 2 + 1e-6f);
        EXPECT_EQ(back.at(1, c), 0.0f);
    }

    // Determinism: the same tensor always encodes to the same bytes.
    EXPECT_EQ(encodeLatent(t, LatentPrecision::kInt8).payload,
              s.payload);
}

TEST(ShardedEncodingCache, PropagatesPrecisionToEveryShard)
{
    auto cache = std::make_shared<ShardedEncodingCache>(
        4, 8, LatentPrecision::kFp16);
    EXPECT_EQ(cache->precision(), LatentPrecision::kFp16);

    // A value with no exact half representation comes back on the
    // half grid, whichever shard its digest routes to.
    const float third = 1.0f / 3.0f;
    const float onGrid = f16ToF32(f32ToF16(third));
    ASSERT_NE(third, onGrid);
    for (std::uint64_t d = 0; d < 8; ++d) {
        EncodingKey key{1, {d, d + 100}};
        cache->insert(key, Tensor(1, 2, third));
        Tensor got(1, 1);
        ASSERT_TRUE(cache->lookup(key, &got));
        EXPECT_EQ(got.at(0, 0), onGrid) << "digest " << d;
        EXPECT_EQ(got.at(0, 1), onGrid) << "digest " << d;
    }
}

TEST(Engine, QuantizedCacheHitsMatchMissesBitwise)
{
    // The engine serves decode(encode(x)) on a miss, so the numbers a
    // caller sees never depend on whether the latent was resident.
    for (LatentPrecision p :
         {LatentPrecision::kFp16, LatentPrecision::kInt8}) {
        Engine engine(tinyOptions().withLatentPrecision(p));
        Ast a = tinyProgram(3);
        Ast b = tinyProgram(5);

        auto miss = engine.encodeBatch({&a, &b});
        ASSERT_TRUE(miss.isOk());
        double coldProb = engine.compare(a, b).value();

        Ast a_copy = tinyProgram(3);
        auto hit = engine.encodeBatch({&a_copy, &b});
        ASSERT_TRUE(hit.isOk());
        EXPECT_GE(engine.stats().cacheHits, 2u);
        for (int i = 0; i < 2; ++i)
            EXPECT_FLOAT_EQ(
                miss.value()[i].maxAbsDiff(hit.value()[i]), 0.0f)
                << latentPrecisionName(p) << " latent " << i;
        EXPECT_EQ(engine.compare(a, b).value(), coldProb)
            << latentPrecisionName(p);
    }
}

TEST(Engine, Int8LatentStoreHoldsPairwiseAccuracyWithinHalfPercent)
{
    // Acceptance pin: storing latents at int8 (and fp16) moves the
    // paper's headline pairwise-accuracy metric by at most 0.5%
    // relative to the fp32 cache on the same pair set.
    std::vector<Submission> subs;
    std::vector<int> idx;
    for (int i = 0; i < 12; ++i) {
        Submission s;
        s.id = i;
        s.ast = tinyProgram(i + 1);
        s.runtimeMs = 10.0 * (i + 1);
        subs.push_back(std::move(s));
        idx.push_back(i);
    }
    Rng rng(5);
    PairOptions popt;
    auto pairs = buildPairs(subs, idx, popt, rng);
    ASSERT_FALSE(pairs.empty());

    Engine fp32Engine(tinyOptions());
    const double accFp32 = pairwiseAccuracy(fp32Engine, subs, pairs);

    Engine int8Engine(
        tinyOptions().withLatentPrecision(LatentPrecision::kInt8));
    EXPECT_NEAR(pairwiseAccuracy(int8Engine, subs, pairs), accFp32,
                0.005);

    Engine fp16Engine(
        tinyOptions().withLatentPrecision(LatentPrecision::kFp16));
    EXPECT_NEAR(pairwiseAccuracy(fp16Engine, subs, pairs), accFp32,
                0.005);
}

// ----------------------------- multi-model cache safety (ISSUE 5)

TEST(Engine, TwoModelsOnOneSharedCacheNeverCrossRead)
{
    // Regression for the latent-collision hazard: two DIFFERENT
    // models behind one shared cache, queried with the SAME trees,
    // must each reproduce their private-cache outputs bitwise; the
    // cache must hold one entry per (model, tree).
    auto modelA = std::make_shared<ComparativePredictor>(
        tinyOptions().encoder, 7);
    auto modelB = std::make_shared<ComparativePredictor>(
        tinyOptions().encoder, 1234);

    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    double soloA = Engine(modelA, tinyOptions()).compare(a, b).value();
    double soloB = Engine(modelB, tinyOptions()).compare(a, b).value();
    ASSERT_NE(soloA, soloB); // different weights, different answers

    // Each engine serves one published version through the shared
    // cache; the versions' ids are their namespaces.
    auto cache = std::make_shared<ShardedEncodingCache>(2, 64);
    ModelRegistry models;
    Engine engineA(models.publish("a", modelA), tinyOptions(), cache);
    Engine engineB(models.publish("b", modelB), tinyOptions(), cache);

    // Interleave so each engine's second read hits entries the OTHER
    // model wrote in between — the old digest-only keying would have
    // served engineB modelA's latents here.
    EXPECT_EQ(engineA.compare(a, b).value(), soloA);
    EXPECT_EQ(engineB.compare(a, b).value(), soloB);
    EXPECT_EQ(engineA.compare(a, b).value(), soloA);
    EXPECT_EQ(engineB.compare(a, b).value(), soloB);

    // One namespace per model, two residents (a, b) in each.
    EXPECT_EQ(cache->size(), 4u);
    auto rowsA = engineA.perModelCacheStats();
    auto rowsB = engineB.perModelCacheStats();
    ASSERT_EQ(rowsA.size(), 1u);
    ASSERT_EQ(rowsB.size(), 1u);
    EXPECT_NE(rowsA[0].versionId, rowsB[0].versionId);
    EXPECT_EQ(rowsA[0].cache.residents, 2u);
    EXPECT_EQ(rowsB[0].cache.residents, 2u);
    // The second round was pure hits for both tenants.
    EXPECT_GE(rowsA[0].cache.hits, 2u);
    EXPECT_GE(rowsB[0].cache.hits, 2u);
}

TEST(Engine, SameModelOnOneSharedCacheSharesItsNamespace)
{
    // The sharded-serving seam: N engines over ONE model must share
    // latents (one namespace), or the shared cache loses its point.
    auto model = std::make_shared<ComparativePredictor>(
        tinyOptions().encoder, 7);
    auto cache = std::make_shared<ShardedEncodingCache>(2, 64);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("model", model);
    Engine e1(registry, tinyOptions(), cache);
    Engine e2(registry, tinyOptions(), cache);

    Ast a = tinyProgram(2);
    Ast b = tinyProgram(5);
    ASSERT_TRUE(e1.compare(a, b).isOk());
    std::uint64_t missesAfterFirst = cache->stats().misses;
    ASSERT_TRUE(e2.compare(a, b).isOk()); // all hits via e1's work
    EXPECT_EQ(cache->stats().misses, missesAfterFirst);
    EXPECT_EQ(cache->size(), 2u);
    EXPECT_EQ(e1.perModelCacheStats()[0].versionId,
              e2.perModelCacheStats()[0].versionId);
    EXPECT_EQ(e1.stats().treesEncoded + e2.stats().treesEncoded, 2u);
}

} // namespace
} // namespace ccsa
