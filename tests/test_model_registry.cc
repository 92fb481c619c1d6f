/**
 * @file
 * The harness for multi-model serving: self-describing
 * checkpoints (manifest roundtrip, refusal of the old v1 layout),
 * ModelRegistry publish/resolve/hot-swap semantics, registry-backed
 * Engine and ShardedServer bitwise parity with dedicated
 * single-model engines per model at 1/2/4/8 shards, the
 * admitted-before-swap contract (a request pins the ModelVersion it
 * resolved at admission), and a multi-producer hot-swap stress test
 * (runs under TSan in CI) asserting every response matches exactly
 * one of the competing versions' bitwise outputs.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "frontend/parser.hh"
#include "serve/model_registry.hh"
#include "serve/sharded_server.hh"

namespace ccsa
{
namespace
{

using std::chrono::microseconds;

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

EncoderConfig
tinyConfig()
{
    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 8;
    return cfg;
}

Engine::Options
tinyOptions()
{
    return Engine::Options()
        .withEncoder(tinyConfig())
        .withSeed(7)
        .withThreads(1);
}

std::string
tempPath(const std::string& name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

// ------------------------------------------- checkpoint manifests

TEST(CheckpointManifest, SaveEmbedsAndReadBackRoundTrips)
{
    EncoderConfig cfg = tinyConfig();
    cfg.kind = EncoderKind::Gcn;
    cfg.layers = 2;
    ComparativePredictor model(cfg, 11);
    std::string path = tempPath("ccsa_manifest_roundtrip.bin");
    ASSERT_TRUE(model.save(path, "family-g", 42).isOk());

    nn::CheckpointManifest manifest = nn::readCheckpointManifest(path);
    EXPECT_EQ(manifest.modelName, "family-g");
    EXPECT_EQ(manifest.version, 42u);
    EXPECT_EQ(ComparativePredictor::configFromManifest(manifest), cfg);
    std::remove(path.c_str());
}

TEST(CheckpointManifest, FromCheckpointRebuildsTheModel)
{
    ComparativePredictor donor(tinyConfig(), 11);
    std::string path = tempPath("ccsa_manifest_clone.bin");
    ASSERT_TRUE(donor.save(path, "clone-me", 3).isOk());

    auto clone = ComparativePredictor::fromCheckpoint(path);
    ASSERT_TRUE(clone.isOk());
    EXPECT_EQ(clone.value()->config(), donor.config());

    // Identical weights => identical serving outputs bitwise.
    Ast a = tinyProgram(1), b = tinyProgram(3);
    Engine original(
        std::shared_ptr<ComparativePredictor>(
            &donor, [](ComparativePredictor*) {}),
        tinyOptions());
    Engine restored(clone.value(), tinyOptions());
    EXPECT_EQ(restored.compare(a, b).value(),
              original.compare(a, b).value());
    std::remove(path.c_str());
}

TEST(CheckpointManifest, V1FilesAreRefusedByEveryLoader)
{
    // The manifest-less version-1 layout, written by hand: magic,
    // version 1, then the parameters straight away.
    ComparativePredictor donor(tinyConfig(), 11);
    std::string path = tempPath("ccsa_v1_refused.bin");
    {
        std::ofstream f(path, std::ios::binary);
        auto raw = [&](auto v) {
            f.write(reinterpret_cast<const char*>(&v), sizeof(v));
        };
        f.write("CCSA", 4);
        raw(std::uint32_t{1});
        raw(static_cast<std::uint32_t>(donor.parameters().size()));
        for (const nn::Parameter* p : donor.parameters()) {
            const Tensor& t = p->var.value();
            raw(static_cast<std::uint32_t>(p->name.size()));
            f.write(p->name.data(),
                    static_cast<std::streamsize>(p->name.size()));
            raw(static_cast<std::int32_t>(t.rows()));
            raw(static_cast<std::int32_t>(t.cols()));
            f.write(reinterpret_cast<const char*>(t.data()),
                    static_cast<std::streamsize>(t.size() *
                                                 sizeof(float)));
        }
    }

    EXPECT_FALSE(ComparativePredictor::fromCheckpoint(path).isOk());
    ComparativePredictor other(tinyConfig(), 999);
    EXPECT_FALSE(other.load(path).isOk());
    ModelRegistry registry;
    EXPECT_FALSE(registry.load(path).isOk());
    EXPECT_EQ(registry.size(), 0u);
    std::remove(path.c_str());
}

TEST(CheckpointManifest, CorruptManifestComesBackAsStatusNotAThrow)
{
    // A manifest whose encoder words are out of range (corruption,
    // or a future format) must fail the Status contract cleanly —
    // fromCheckpoint constructing a model from it used to escape as
    // a thrown enum/dimension error.
    ComparativePredictor donor(tinyConfig(), 1);
    std::string path = tempPath("ccsa_manifest_corrupt.bin");
    nn::CheckpointManifest bad =
        ComparativePredictor::manifestFor(tinyConfig(), "evil", 1);
    bad.encoderKind = 99;
    nn::saveParameters(path, donor.parameters(), bad);

    auto rebuilt = ComparativePredictor::fromCheckpoint(path);
    ASSERT_FALSE(rebuilt.isOk());
    EXPECT_EQ(rebuilt.status().code(), StatusCode::IoError);
    ModelRegistry registry;
    EXPECT_FALSE(registry.load(path).isOk()); // same contract
    std::remove(path.c_str());
}

TEST(CheckpointManifest, ConfigMismatchIsRefusedBeforeWeightsLoad)
{
    ComparativePredictor donor(tinyConfig(), 1);
    std::string path = tempPath("ccsa_manifest_mismatch.bin");
    ASSERT_TRUE(donor.save(path).isOk());

    EncoderConfig bigger = tinyConfig();
    bigger.hiddenDim = 12;
    ComparativePredictor model(bigger, 2);
    Status s = model.load(path);
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::IoError);
    std::remove(path.c_str());
}

// ------------------------------------------------- ModelRegistry

TEST(ModelRegistry, PublishResolveAndHotSwapSemantics)
{
    ModelRegistry registry;
    EXPECT_EQ(registry.resolve(""), nullptr);
    EXPECT_EQ(registry.size(), 0u);

    auto m1 = std::make_shared<ComparativePredictor>(tinyConfig(), 1);
    auto m2 = std::make_shared<ComparativePredictor>(tinyConfig(), 2);
    auto v1 = registry.publish("alpha", m1);
    EXPECT_EQ(v1->name, "alpha");
    EXPECT_EQ(v1->sequence, 1u);
    EXPECT_NE(v1->id, 0u);
    EXPECT_EQ(registry.defaultName(), "alpha"); // first registered

    // Hot swap: sequence bumps, namespace id is FRESH, the old
    // snapshot keeps working for whoever still holds it (RCU).
    auto v2 = registry.publish("alpha", m2);
    EXPECT_EQ(v2->sequence, 2u);
    EXPECT_GT(v2->id, v1->id); // monotonically increasing
    EXPECT_EQ(registry.resolve("alpha"), v2);
    EXPECT_EQ(v1->model.get(), m1.get()); // snapshot untouched

    registry.publish("beta", m1);
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(registry.resolve(""), registry.resolve("alpha"));
    ASSERT_TRUE(registry.setDefault("beta").isOk());
    EXPECT_EQ(registry.resolve(""), registry.resolve("beta"));
    EXPECT_FALSE(registry.setDefault("nope").isOk());

    EXPECT_TRUE(registry.remove("beta"));
    EXPECT_FALSE(registry.remove("beta"));
    EXPECT_EQ(registry.defaultName(), "alpha"); // falls back
    EXPECT_TRUE(registry.contains("alpha"));
    EXPECT_FALSE(registry.contains("beta"));
}

TEST(ModelRegistry, SaveAndLoadRoundTripThroughManifests)
{
    ModelRegistry registry;
    auto model = std::make_shared<ComparativePredictor>(tinyConfig(), 5);
    registry.publish("family-x", model);
    registry.publish("family-x",
                     std::make_shared<ComparativePredictor>(
                         tinyConfig(), 6)); // sequence 2

    std::string path = tempPath("ccsa_registry_roundtrip.bin");
    ASSERT_TRUE(registry.save("family-x", path).isOk());
    nn::CheckpointManifest manifest = nn::readCheckpointManifest(path);
    EXPECT_EQ(manifest.modelName, "family-x");
    EXPECT_EQ(manifest.version, 2u); // the publish sequence

    // A second registry deploys it with ZERO out-of-band config —
    // the name comes from the manifest, and the publish sequence
    // continues from the checkpoint's version instead of resetting
    // to 1 across the "restart".
    ModelRegistry other;
    auto loaded = other.load(path);
    ASSERT_TRUE(loaded.isOk());
    EXPECT_EQ(loaded.value()->name, "family-x");
    EXPECT_EQ(loaded.value()->sequence, 2u);
    EXPECT_EQ(other
                  .publish("family-x",
                           std::make_shared<ComparativePredictor>(
                               tinyConfig(), 7))
                  ->sequence,
              3u);

    Ast a = tinyProgram(2), b = tinyProgram(4);
    Engine lhs(registry.resolve("family-x")->model, tinyOptions());
    Engine rhs(loaded.value()->model, tinyOptions());
    EXPECT_EQ(rhs.compare(a, b).value(), lhs.compare(a, b).value());

    // Unknown names are errors, not crashes.
    EXPECT_FALSE(registry.save("nope", path).isOk());
    std::remove(path.c_str());
}

// ------------------------------------------ registry-backed Engine

TEST(Engine, RegistryModeMatchesDedicatedEnginesPerModelBitwise)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("a", modelA);
    registry->publish("b", modelB);

    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());
    Engine multi(registry, tinyOptions());

    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});

    auto viaA = multi.compareMany("a", pairs);
    auto viaB = multi.compareMany("b", pairs);
    auto viaDefault = multi.compareMany(pairs); // default = "a"
    ASSERT_TRUE(viaA.isOk());
    ASSERT_TRUE(viaB.isOk());
    ASSERT_TRUE(viaDefault.isOk());
    auto refA = dedicatedA.compareMany(pairs).value();
    auto refB = dedicatedB.compareMany(pairs).value();
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        EXPECT_EQ(viaA.value()[k], refA[k]) << "pair " << k;
        EXPECT_EQ(viaB.value()[k], refB[k]) << "pair " << k;
        EXPECT_EQ(viaDefault.value()[k], refA[k]) << "pair " << k;
    }

    // rank() rides the same resolution.
    std::vector<const Ast*> field{&trees[0], &trees[2], &trees[4]};
    auto rankedB = multi.rank("b", field);
    auto refRankB = dedicatedB.rank(field);
    ASSERT_TRUE(rankedB.isOk());
    for (std::size_t i = 0; i < refRankB.value().size(); ++i) {
        EXPECT_EQ(rankedB.value()[i].index,
                  refRankB.value()[i].index);
        EXPECT_EQ(rankedB.value()[i].meanProbFaster,
                  refRankB.value()[i].meanProbFaster);
    }

    // Both models' latents live in ONE cache, isolated namespaces.
    auto rows = multi.perModelCacheStats();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "a");
    EXPECT_EQ(rows[1].name, "b");
    EXPECT_NE(rows[0].versionId, rows[1].versionId);
    EXPECT_EQ(rows[0].cache.residents, trees.size());
    EXPECT_EQ(rows[1].cache.residents, trees.size());

    // Unknown names fail cleanly.
    EXPECT_EQ(multi.compareMany("nope", pairs).status().code(),
              StatusCode::InvalidArgument);
}

TEST(Engine, HotSwapKeepsInFlightSnapshotsStable)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("m", modelA);
    Engine multi(registry, tinyOptions());
    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());

    Ast a = tinyProgram(2), b = tinyProgram(5);

    // A batch that resolved BEFORE the swap serves the old weights…
    auto snapshot = multi.resolveModel("m");
    ASSERT_TRUE(snapshot.isOk());
    registry->publish("m", modelB); // hot swap
    auto onOld = multi.compareMany(
        *snapshot.value(), {Engine::PairRequest{&a, &b}});
    ASSERT_TRUE(onOld.isOk());
    EXPECT_EQ(onOld.value()[0], dedicatedA.compare(a, b).value());

    // …while post-swap resolution serves the new ones.
    EXPECT_EQ(multi.compare(a, b).value(),
              dedicatedB.compare(a, b).value());
}

TEST(Engine, RegistryModeWithEmptyRegistryFailsRequestsNotProcess)
{
    auto registry = std::make_shared<ModelRegistry>();
    Engine multi(registry, tinyOptions());
    Ast a = tinyProgram(1), b = tinyProgram(2);
    auto r = multi.compare(a, b);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
    EXPECT_THROW(multi.model(), FatalError);

    // Models can arrive after the engine exists (deploy-time wiring).
    registry->publish("late",
                      std::make_shared<ComparativePredictor>(
                          tinyConfig(), 3));
    EXPECT_TRUE(multi.compare(a, b).isOk());
}

// ---------------------------------- multi-model one-shard serving

TEST(ShardedServer, ServesNamedModelsAndIsolatesUnknownNames)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("a", modelA);
    registry->publish("b", modelB);

    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());
    ShardedServer server(registry, tinyOptions(),
                         ShardedServer::Options().withNumShards(1));

    Ast x = tinyProgram(2), y = tinyProgram(4);
    auto fa = server.submitCompare(SubmitOptions().withModel("a"), x,
                                   y);
    auto fb = server.submitCompare(SubmitOptions().withModel("b"), x,
                                   y);
    auto fdef = server.submitCompare(x, y);
    auto fbad =
        server.submitCompare(SubmitOptions().withModel("nope"), x, y);

    EXPECT_EQ(fa.get().value(), dedicatedA.compare(x, y).value());
    EXPECT_EQ(fb.get().value(), dedicatedB.compare(x, y).value());
    EXPECT_EQ(fdef.get().value(),
              dedicatedA.compare(x, y).value()); // default = "a"
    auto bad = fbad.get();
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidArgument);

    server.shutdown();
    ServerStats stats = server.stats().aggregate;
    EXPECT_EQ(stats.requestsFailed, 1u);
    EXPECT_EQ(stats.requestsCompleted, 3u);
    ASSERT_EQ(stats.models.size(), 2u);
    EXPECT_EQ(stats.models[0].name, "a");
    EXPECT_EQ(stats.models[1].name, "b");
}

TEST(ShardedServer, MixedModelBatchExecutesPerVersionGroups)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("a", modelA);
    registry->publish("b", modelB);
    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());

    // startPaused: all six requests land in ONE coalesced batch, so
    // the shard must split it per version and fan back correctly.
    ShardedServer server(registry, tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(1)
                             .withStartPaused(true)
                             .withMaxBatchSize(64));
    std::vector<Ast> trees;
    for (int i = 1; i <= 4; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<std::future<Result<double>>> futures;
    std::vector<double> expected;
    for (int k = 0; k < 6; ++k) {
        const Ast& x = trees[static_cast<std::size_t>(k % 3)];
        const Ast& y = trees[static_cast<std::size_t>(k % 3) + 1];
        const char* name = k % 2 == 0 ? "a" : "b";
        futures.push_back(server.submitCompare(
            SubmitOptions().withModel(name), x, y));
        expected.push_back(
            (k % 2 == 0 ? dedicatedA : dedicatedB)
                .compare(x, y)
                .value());
    }
    server.shutdown(); // drains the staged batch
    for (std::size_t k = 0; k < futures.size(); ++k) {
        Result<double> got = futures[k].get();
        ASSERT_TRUE(got.isOk()) << "request " << k;
        EXPECT_EQ(got.value(), expected[k]) << "request " << k;
    }
}

// ----------------------------------- multi-model sharded serving

TEST(ShardedServer, RegistryModeMatchesDedicatedEnginesAtAnyShardCount)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("a", modelA);
    registry->publish("b", modelB);

    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());

    std::vector<Ast> trees;
    for (int i = 1; i <= 6; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> pairs;
    for (std::size_t i = 0; i < trees.size(); ++i)
        for (std::size_t j = 0; j < trees.size(); ++j)
            if (i != j)
                pairs.push_back({&trees[i], &trees[j]});
    auto refA = dedicatedA.compareMany(pairs).value();
    auto refB = dedicatedB.compareMany(pairs).value();

    for (std::size_t shards : {1u, 2u, 4u, 8u}) {
        ShardedServer server(
            registry, tinyOptions(),
            ShardedServer::Options().withNumShards(shards));
        auto gotA = server
                        .submitCompareMany(
                            SubmitOptions().withModel("a"), pairs)
                        .get();
        auto gotB = server
                        .submitCompareMany(
                            SubmitOptions().withModel("b"), pairs)
                        .get();
        ASSERT_TRUE(gotA.isOk()) << "shards=" << shards;
        ASSERT_TRUE(gotB.isOk()) << "shards=" << shards;
        for (std::size_t k = 0; k < pairs.size(); ++k) {
            EXPECT_EQ(gotA.value()[k], refA[k])
                << "shards=" << shards << " pair " << k;
            EXPECT_EQ(gotB.value()[k], refB[k])
                << "shards=" << shards << " pair " << k;
        }
        // Per-model namespaces partition the shared cache.
        ShardedServerStats stats = server.stats();
        ASSERT_EQ(stats.aggregate.models.size(), 2u);
        EXPECT_EQ(stats.aggregate.models[0].cache.residents,
                  trees.size());
        EXPECT_EQ(stats.aggregate.models[1].cache.residents,
                  trees.size());
        EXPECT_EQ(server.cache().size(), 2 * trees.size());
    }
}

TEST(ShardedServer, RequestsAdmittedBeforeSwapCompleteOnOldVersion)
{
    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("m", modelA);
    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());

    Ast a = tinyProgram(2), b = tinyProgram(5);
    std::vector<Ast> trees;
    for (int i = 1; i <= 5; ++i)
        trees.push_back(tinyProgram(i));
    std::vector<Engine::PairRequest> manyPairs;
    for (std::size_t i = 0; i + 1 < trees.size(); ++i)
        manyPairs.push_back({&trees[i], &trees[i + 1]});

    // Paused server: admissions pin their version while NOTHING has
    // executed yet; the swap lands in between; shutdown() drains.
    ShardedServer server(registry, tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(4)
                             .withStartPaused(true)
                             .withQueueCapacity(256));
    std::vector<std::future<Result<double>>> beforeSwap;
    for (int k = 0; k < 8; ++k)
        beforeSwap.push_back(
            server.submitCompare(SubmitOptions().withModel("m"), a, b));
    auto beforeMany = server.submitCompareMany(
        SubmitOptions().withModel("m"), manyPairs);

    registry->publish("m", modelB); // the hot swap

    std::vector<std::future<Result<double>>> afterSwap;
    for (int k = 0; k < 8; ++k)
        afterSwap.push_back(
            server.submitCompare(SubmitOptions().withModel("m"), a, b));

    server.shutdown();

    double expectA = dedicatedA.compare(a, b).value();
    double expectB = dedicatedB.compare(a, b).value();
    ASSERT_NE(expectA, expectB);
    for (auto& f : beforeSwap)
        EXPECT_EQ(f.get().value(), expectA);
    for (auto& f : afterSwap)
        EXPECT_EQ(f.get().value(), expectB);
    // A multi-pair request is still ONE snapshot.
    auto refMany = dedicatedA.compareMany(manyPairs).value();
    auto gotMany = beforeMany.get();
    ASSERT_TRUE(gotMany.isOk());
    for (std::size_t k = 0; k < refMany.size(); ++k)
        EXPECT_EQ(gotMany.value()[k], refMany[k]);
}

TEST(ShardedServer, HotSwapStressEveryResponseMatchesOneVersion)
{
    // N producers hammer one name while a writer hot-swaps between
    // two weight sets every few hundred microseconds. Every response
    // must equal EXACTLY one of the two versions' bitwise outputs —
    // a torn batch (half-old, half-new latents) or a cross-namespace
    // cache read would produce a third value. Runs under TSan in CI.
    constexpr int kClients = 4;
    constexpr int kRequestsPerClient = 60;
    constexpr int kTrees = 6;
    constexpr int kSwaps = 25;

    std::vector<Ast> trees;
    for (int i = 1; i <= kTrees; ++i)
        trees.push_back(tinyProgram(i));

    auto modelA = std::make_shared<ComparativePredictor>(tinyConfig(), 7);
    auto modelB = std::make_shared<ComparativePredictor>(tinyConfig(), 8);

    // Expected response matrices, one per weight set.
    std::vector<Engine::PairRequest> allPairs;
    for (int i = 0; i < kTrees; ++i)
        for (int j = 0; j < kTrees; ++j)
            if (i != j)
                allPairs.push_back({&trees[i], &trees[j]});
    Engine dedicatedA(modelA, tinyOptions());
    Engine dedicatedB(modelB, tinyOptions());
    std::vector<double> refA = dedicatedA.compareMany(allPairs).value();
    std::vector<double> refB = dedicatedB.compareMany(allPairs).value();
    auto pairSlot = [&](int i, int j) {
        return static_cast<std::size_t>(i * (kTrees - 1) +
                                        (j < i ? j : j - 1));
    };

    // Deterministic per-client schedules, materialised up front.
    struct WorkItem
    {
        int first;
        int second;
    };
    std::vector<std::vector<WorkItem>> schedule(kClients);
    for (int c = 0; c < kClients; ++c) {
        Rng rng(5000 + static_cast<std::uint64_t>(c));
        for (int k = 0; k < kRequestsPerClient; ++k) {
            int i = rng.uniformInt(0, kTrees - 1);
            int j = rng.uniformInt(0, kTrees - 2);
            if (j >= i)
                ++j;
            schedule[static_cast<std::size_t>(c)].push_back(
                WorkItem{i, j});
        }
    }

    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("m", modelA);
    ShardedServer server(registry, tinyOptions(),
                         ShardedServer::Options()
                             .withNumShards(4)
                             .withQueueCapacity(128)
                             .withMaxBatchSize(16)
                             .withMaxBatchDelay(microseconds(200)));

    std::thread writer([&] {
        for (int s = 0; s < kSwaps; ++s) {
            std::this_thread::sleep_for(microseconds(400));
            registry->publish("m", s % 2 == 0 ? modelB : modelA);
        }
    });

    std::vector<int> mismatches(kClients, 0);
    std::vector<int> failures(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<std::future<Result<double>>> futures;
            futures.reserve(kRequestsPerClient);
            for (const WorkItem& w :
                 schedule[static_cast<std::size_t>(c)])
                futures.push_back(server.submitCompare(
                    SubmitOptions().withModel("m"),
                    trees[static_cast<std::size_t>(w.first)],
                    trees[static_cast<std::size_t>(w.second)]));
            for (int k = 0; k < kRequestsPerClient; ++k) {
                Result<double> got =
                    futures[static_cast<std::size_t>(k)].get();
                const WorkItem& w = schedule[static_cast<
                    std::size_t>(c)][static_cast<std::size_t>(k)];
                if (!got.isOk()) {
                    failures[static_cast<std::size_t>(c)]++;
                    continue;
                }
                double expectA = refA[pairSlot(w.first, w.second)];
                double expectB = refB[pairSlot(w.first, w.second)];
                if (got.value() != expectA &&
                    got.value() != expectB)
                    mismatches[static_cast<std::size_t>(c)]++;
            }
        });
    }
    for (std::thread& t : clients)
        t.join();
    writer.join();
    server.shutdown();

    for (int c = 0; c < kClients; ++c) {
        EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0)
            << "client " << c;
        EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
            << "client " << c;
    }
    const auto total =
        static_cast<std::uint64_t>(kClients * kRequestsPerClient);
    ShardedServerStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.requestsCompleted, total);
    EXPECT_EQ(stats.aggregate.requestsFailed, 0u);
}

} // namespace
} // namespace ccsa
