/**
 * @file
 * Tests for the hash-consed tree-LSTM encode and its subtree-state
 * store. Every latent must equal the per-node oracle and the full
 * level-batched encode bitwise: for every codegen family and layer
 * count, for forests with repeats, for edit chains with the parent
 * stored, under a store that evicts constantly, across namespaces and
 * hot swaps, and under quantized latent caches (the store stays
 * fp32, so hit == miss). The other encoders and training keep their
 * own paths, hostile depths neither recurse nor overflow, and two
 * engines can share one store (run under TSan and ASan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.hh"
#include "codegen/generator.hh"
#include "dataset/corpus.hh"
#include "dataset/pairs.hh"
#include "frontend/parser.hh"
#include "model/predictor.hh"
#include "model/trainer.hh"
#include "nn/optim.hh"
#include "serve/encoding_cache.hh"
#include "serve/engine.hh"
#include "serve/model_registry.hh"
#include "tensor/arena.hh"

namespace ccsa
{
namespace
{

// ------------------------------------------------------------------
// Helpers

const char* const kParent = R"(
int main() {
    int n;
    cin >> n;
    int total = 0;
    for (int i = 0; i < n; i++) {
        total = total + i;
        if (total > 100) {
            total = total - 7;
        }
    }
    while (n > 0) {
        n = n / 2;
        total++;
    }
    cout << total;
    return 0;
}
)";

/** kParent with `from` replaced by `to` (which must occur). */
std::string
edited(const std::string& source, const std::string& from,
       const std::string& to)
{
    std::string out = source;
    std::size_t at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return out.replace(at, from.size(), to);
}

/** `perFamily` generated programs of every codegen family. */
std::vector<Ast>
familyPrograms(int perFamily)
{
    std::vector<Ast> out;
    for (int f = 0; f < kNumFamilies; ++f) {
        auto gen = makeGenerator(static_cast<ProblemFamily>(f), 0);
        Rng rng(100 + f);
        for (int v = 0; v < perFamily; ++v)
            out.push_back(parseAndPrune(gen->generate(rng).source));
    }
    return out;
}

std::vector<const Ast*>
pointers(const std::vector<Ast>& asts)
{
    std::vector<const Ast*> out;
    for (const Ast& a : asts)
        out.push_back(&a);
    return out;
}

EncoderConfig
uniConfig(int layers, int embed = 8, int hidden = 12)
{
    EncoderConfig cfg;
    cfg.embedDim = embed;
    cfg.hiddenDim = hidden;
    cfg.layers = layers;
    cfg.arch = nn::TreeArch::Uni;
    return cfg;
}

const TreeLstmEncoder&
treeEncoder(const ComparativePredictor& model)
{
    return dynamic_cast<const TreeLstmEncoder&>(model.encoder());
}

/** Root latent of the per-node oracle: every node composed alone on
 * the taped path. */
Tensor
oracleRoot(const ComparativePredictor& model, const Ast& ast)
{
    const TreeLstmEncoder& enc = treeEncoder(model);
    nn::TreeSpec spec = nn::TreeSpec::fromParents(ast.parents());
    ag::Var x = enc.embedding().forward(ast.kindIds());
    std::vector<ag::Var> inputs;
    for (int i = 0; i < ast.size(); ++i)
        inputs.push_back(ag::rowSlice(x, i, 1));
    return enc.treeLstm()
        .encodeNodesPerNode(spec, inputs)[spec.root]
        .value();
}

std::vector<Tensor>
owned(const std::vector<ag::Var>& vars)
{
    std::vector<Tensor> out;
    for (const ag::Var& v : vars)
        out.push_back(v.value().toOwned());
    return out;
}

/** Tape-free, every node through the level-batched wavefront. */
std::vector<Tensor>
fullEncode(const ComparativePredictor& model,
           const std::vector<const Ast*>& asts)
{
    InferenceScope scope;
    return owned(treeEncoder(model).encodeForestRoots(asts));
}

/** Tape-free hash-consed encode without a store. */
std::vector<Tensor>
storeOff(const ComparativePredictor& model,
         const std::vector<const Ast*>& asts)
{
    InferenceScope scope;
    return owned(model.encodeMany(asts));
}

/** Tape-free hash-consed encode through a store. */
std::vector<Tensor>
storeOn(const ComparativePredictor& model,
        const std::vector<const Ast*>& asts, SubtreeStateStore& store,
        SubtreeReuse* reuse = nullptr)
{
    InferenceScope scope;
    return owned(model.encodeMany(asts, store, reuse));
}

void
expectBitwise(const Tensor& got, const Tensor& want,
              const std::string& what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(float)),
              0)
        << what;
}

void
expectAllBitwise(const std::vector<Tensor>& got,
                 const std::vector<Tensor>& want,
                 const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
        expectBitwise(got[i], want[i],
                      what + " tree " + std::to_string(i));
}

std::vector<Tensor>
oracleRoots(const ComparativePredictor& model,
            const std::vector<const Ast*>& asts)
{
    std::vector<Tensor> out;
    for (const Ast* a : asts)
        out.push_back(oracleRoot(model, *a));
    return out;
}

// ------------------------------------------------------------------
// Parity

TEST(HashConsedEncode, MatchesOracleForEveryFamilyLayerCountAndStoreState)
{
    std::vector<Ast> programs = familyPrograms(2);
    std::vector<const Ast*> asts = pointers(programs);
    for (int layers = 1; layers <= 3; ++layers) {
        ComparativePredictor model(uniConfig(layers), 7);
        const std::string what = "layers=" + std::to_string(layers);
        std::vector<Tensor> oracle = oracleRoots(model, asts);
        expectAllBitwise(fullEncode(model, asts), oracle,
                         what + " full");
        expectAllBitwise(storeOff(model, asts), oracle,
                         what + " store-off");

        // The store fills tree by tree, then serves whole forests.
        ShardedEncodingCache cache(3, 4096);
        NamespaceStateStore store(cache, 1);
        for (std::size_t i = 0; i < asts.size(); ++i)
            expectBitwise(storeOn(model, {asts[i]}, store)[0],
                          oracle[i], what + " store-on single");
        SubtreeReuse warm;
        expectAllBitwise(storeOn(model, asts, store, &warm), oracle,
                         what + " store-on forest");
        EXPECT_EQ(warm.computed, 0u) << what;
        EXPECT_EQ(warm.nodes, warm.fromStore + warm.deduped());
    }
}

TEST(HashConsedEncode, ForestsWithRepeatsAndOneFamilyMatchOracle)
{
    ComparativePredictor model(uniConfig(2), 11);
    Ast a = parseAndPrune(kParent);
    Ast copy = parseAndPrune(kParent);
    Ast b = parseAndPrune(edited(kParent, "total++;", "total--;"));
    std::vector<const Ast*> repeats{&a, &b, &a, &copy};
    std::vector<Tensor> oracle = oracleRoots(model, repeats);
    expectAllBitwise(storeOff(model, repeats), oracle, "repeats");

    ShardedEncodingCache cache(1, 4096);
    NamespaceStateStore store(cache, 1);
    SubtreeReuse reuse;
    expectAllBitwise(storeOn(model, repeats, store, &reuse), oracle,
                     "repeats store-on");
    // Three copies of one tree and a one-token edit of it: at most
    // one tree's worth of distinct subtrees plus the edited spine.
    EXPECT_EQ(reuse.nodes, 4u * static_cast<std::uint64_t>(a.size()));
    EXPECT_LT(reuse.computed, static_cast<std::uint64_t>(a.size()));
    EXPECT_GT(reuse.deduped(), 3u * static_cast<std::uint64_t>(a.size()) -
                                   reuse.computed);

    auto gen = makeGenerator(ProblemFamily::D, 0);
    Rng rng(3);
    std::vector<Ast> family;
    for (int i = 0; i < 8; ++i)
        family.push_back(parseAndPrune(gen->generate(rng).source));
    std::vector<const Ast*> forest = pointers(family);
    expectAllBitwise(storeOff(model, forest), oracleRoots(model, forest),
                     "one family");
}

TEST(HashConsedEncode, ChildOrderChangesTheSubtreeDigest)
{
    // Same children, swapped order: the child-sum cell sums in order,
    // so the two roots are different subtrees to the store.
    Ast ab(NodeKind::Root);
    ab.addNode(NodeKind::FunctionDef, 0);
    ab.addNode(NodeKind::IntLiteral, 0);
    Ast ba(NodeKind::Root);
    ba.addNode(NodeKind::IntLiteral, 0);
    ba.addNode(NodeKind::FunctionDef, 0);

    ComparativePredictor model(uniConfig(1), 5);
    ShardedEncodingCache cache(1, 64);
    NamespaceStateStore store(cache, 1);
    storeOn(model, {&ab}, store);
    SubtreeReuse reuse;
    expectBitwise(storeOn(model, {&ba}, store, &reuse)[0],
                  oracleRoot(model, ba), "swapped children");
    EXPECT_EQ(reuse.computed, 1u);
    EXPECT_EQ(reuse.fromStore, 2u);
}

TEST(HashConsedEncode, EditChainsWithTheParentStoredMatchOracle)
{
    const std::string inserted = edited(
        kParent, "total = total + i;\n",
        "total = total + i;\n        total = total * 3;\n");
    const std::vector<std::string> chain{
        kParent,
        inserted,
        edited(inserted, "total * 3", "total + 3"),
        edited(kParent, "        total++;\n", ""),
        edited(edited(kParent, "        total++;\n", ""), "n / 2",
               "n - 2"),
    };
    for (int layers : {1, 2}) {
        ComparativePredictor model(uniConfig(layers, 32, 48), 1);
        ShardedEncodingCache cache(2, 4096);
        NamespaceStateStore store(cache, 1);
        for (std::size_t i = 0; i < chain.size(); ++i) {
            Ast tree = parseAndPrune(chain[i]);
            SubtreeReuse reuse;
            expectBitwise(storeOn(model, {&tree}, store, &reuse)[0],
                          oracleRoot(model, tree),
                          "layers=" + std::to_string(layers) +
                              " edit " + std::to_string(i));
            if (i == 0)
                continue;
            // Only the edited spine is computed.
            EXPECT_GT(reuse.fromStore, 0u) << "edit " << i;
            EXPECT_LT(reuse.computed * 4, reuse.nodes) << "edit " << i;
        }
    }
}

TEST(HashConsedEncode, ConstantlyEvictingStoreKeepsParity)
{
    std::vector<Ast> programs = familyPrograms(1);
    std::vector<const Ast*> asts = pointers(programs);
    ComparativePredictor model(uniConfig(2), 13);
    std::vector<Tensor> oracle = oracleRoots(model, asts);

    // Budget: 3 partitions x 2 subtree states.
    ShardedEncodingCache cache(3, 2);
    NamespaceStateStore store(cache, 1);
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < asts.size(); ++i)
            expectBitwise(storeOn(model, {asts[i]}, store)[0],
                          oracle[i], "evicting single");
        expectAllBitwise(storeOn(model, asts, store), oracle,
                         "evicting forest");
    }
    LruNamespaceStats states = cache.stateStats();
    EXPECT_LE(states.residents, 6u);
    EXPECT_GT(states.evictions, 0u);
}

// ------------------------------------------------------------------
// Isolation and precision

TEST(HashConsedEncode, NamespacesIsolateModelsAndHotSwaps)
{
    Ast parent = parseAndPrune(kParent);
    Ast child = parseAndPrune(edited(kParent, "n / 2", "n / 2 / 2"));
    auto v1 = std::make_shared<ComparativePredictor>(uniConfig(1), 1);
    auto v2 = std::make_shared<ComparativePredictor>(uniConfig(1), 2);

    // Two models on one store: neither reads the other's states.
    ShardedEncodingCache cache(2, 4096);
    NamespaceStateStore s1(cache, 1);
    NamespaceStateStore s2(cache, 2);
    storeOn(*v1, {&parent}, s1);
    SubtreeReuse reuse;
    expectBitwise(storeOn(*v2, {&parent}, s2, &reuse)[0],
                  oracleRoot(*v2, parent), "second namespace");
    EXPECT_EQ(reuse.fromStore, 0u);

    // A hot swap mints a fresh namespace: the new version recomputes.
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("m", v1);
    auto shared = std::make_shared<ShardedEncodingCache>(2, 4096);
    Engine engine(registry, Engine::Options().withThreads(1), shared);
    ASSERT_TRUE(engine.encodeBatch({&parent}).isOk());
    registry->publish("m", v2);
    Result<std::vector<Tensor>> swapped = engine.encodeBatch({&child});
    ASSERT_TRUE(swapped.isOk());
    expectBitwise(swapped.value()[0], oracleRoot(*v2, child),
                  "after hot swap");
    EXPECT_EQ(engine.stats().subtreeNodesFromStore, 0u);
}

TEST(HashConsedEncode, QuantizedCachesServeHitEqualMissWithExactStates)
{
    Ast parent = parseAndPrune(kParent);
    Ast child =
        parseAndPrune(edited(kParent, "total - 7", "total - 7 * n"));
    auto model =
        std::make_shared<ComparativePredictor>(uniConfig(2, 8, 16), 3);
    for (LatentPrecision p :
         {LatentPrecision::kFp32, LatentPrecision::kFp16,
          LatentPrecision::kInt8}) {
        const std::string what = latentPrecisionName(p);
        Engine::Options opts =
            Engine::Options().withThreads(1).withLatentPrecision(p);
        Engine warm(model, opts);
        ASSERT_TRUE(warm.encodeBatch({&parent}).isOk());
        Tensor miss = warm.encodeBatch({&child}).value()[0];
        Tensor hit = warm.encodeBatch({&child}).value()[0];
        Engine cold(model, opts);
        Tensor coldMiss = cold.encodeBatch({&child}).value()[0];

        Tensor want =
            decodeLatent(encodeLatent(oracleRoot(*model, child), p));
        expectBitwise(miss, want, what + " miss over stored parent");
        expectBitwise(hit, want, what + " hit");
        expectBitwise(coldMiss, want, what + " miss, empty store");
        EXPECT_GT(warm.stats().subtreeNodesFromStore, 0u) << what;

        // States are stored as exact fp32 whatever the precision.
        Engine::Stats s = warm.stats();
        ASSERT_GT(s.stateStoreEntries, 0u);
        EXPECT_EQ(s.stateStoreBytes,
                  s.stateStoreEntries * 2 * 2 * 16 * sizeof(float))
            << what;
    }
}

TEST(HashConsedEncode, EngineCountsWhereNodesCameFrom)
{
    Ast parent = parseAndPrune(kParent);
    Ast child =
        parseAndPrune(edited(kParent, "total = 0", "total = n + 1"));
    Engine engine(Engine::Options().withThreads(1));
    ASSERT_TRUE(engine.encodeBatch({&parent}).isOk());
    Engine::Stats first = engine.stats();
    EXPECT_EQ(first.subtreeNodesComputed + first.subtreeNodesDeduped,
              static_cast<std::uint64_t>(parent.size()));
    EXPECT_EQ(first.subtreeNodesFromStore, 0u);
    EXPECT_EQ(first.stateStoreEntries, first.subtreeNodesComputed);

    ASSERT_TRUE(engine.encodeBatch({&child}).isOk());
    Engine::Stats second = engine.stats();
    const std::uint64_t computed =
        second.subtreeNodesComputed - first.subtreeNodesComputed;
    const std::uint64_t reused =
        second.subtreeNodesFromStore + second.subtreeNodesDeduped -
        first.subtreeNodesDeduped;
    EXPECT_EQ(computed + reused, static_cast<std::uint64_t>(child.size()));
    EXPECT_GE(reused * 10, 9u * static_cast<std::uint64_t>(child.size()));

    // A latent hit encodes nothing, so it counts nothing.
    ASSERT_TRUE(engine.encodeBatch({&child}).isOk());
    EXPECT_EQ(engine.stats().subtreeNodesComputed,
              second.subtreeNodesComputed);

    // load() clears this namespace's states with its latents.
    engine.invalidateCache();
    EXPECT_EQ(engine.stats().stateStoreEntries, 0u);
}

// ------------------------------------------------------------------
// Paths that must not change

TEST(HashConsedEncode, OtherEncodersIgnoreTheStore)
{
    std::vector<Ast> programs = familyPrograms(1);
    std::vector<const Ast*> asts = pointers(programs);
    std::vector<EncoderConfig> configs;
    for (nn::TreeArch arch :
         {nn::TreeArch::Bi, nn::TreeArch::Alternating}) {
        EncoderConfig cfg = uniConfig(2);
        cfg.arch = arch;
        configs.push_back(cfg);
    }
    for (EncoderKind kind : {EncoderKind::Gcn, EncoderKind::TokenLstm}) {
        EncoderConfig cfg = uniConfig(2);
        cfg.kind = kind;
        configs.push_back(cfg);
    }
    for (const EncoderConfig& cfg : configs) {
        ComparativePredictor model(cfg, 17);
        std::vector<Tensor> taped = owned(model.encodeMany(asts));
        ShardedEncodingCache cache(1, 4096);
        NamespaceStateStore store(cache, 1);
        SubtreeReuse reuse;
        expectAllBitwise(storeOn(model, asts, store, &reuse), taped,
                         std::string(encoderKindName(cfg.kind)) + "/" +
                             nn::treeArchName(cfg.arch));
        EXPECT_EQ(cache.stateStats().residents, 0u);
        EXPECT_EQ(reuse.nodes, 0u);
    }
}

TEST(HashConsedEncode, TrainerFollowsTheFullTape)
{
    // Training stays on the taped path: a fixed-seed Trainer::fit
    // must reproduce, bit for bit, the same loop written against the
    // full (never hash-consed) level-batched encode.
    Corpus corpus = Corpus::generate(tableISpec(ProblemFamily::C), 24, 5);
    std::vector<int> all(corpus.submissions().size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<int>(i);
    Rng pairRng(9);
    std::vector<CodePair> pairs =
        buildPairs(corpus.submissions(), all, PairOptions(), pairRng);
    pairs.resize(std::min<std::size_t>(pairs.size(), 48));
    ASSERT_GE(pairs.size(), 16u);

    TrainConfig tc;
    tc.epochs = 2;
    tc.batchPairs = 16;
    tc.seed = 4;
    ComparativePredictor trained(uniConfig(2), 21);
    TrainStats stats = Trainer(trained, tc).fit(corpus.submissions(), pairs);

    ComparativePredictor manual(uniConfig(2), 21);
    nn::Adam optim(manual.parameters(), tc.learningRate);
    Rng rng(tc.seed, 0xBEEF);
    std::vector<CodePair> order = pairs;
    std::vector<double> losses;
    for (int epoch = 0; epoch < tc.epochs; ++epoch) {
        rng.shuffle(order);
        double sum = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start < order.size(); start += 16) {
            std::size_t end = std::min(order.size(), start + 16);
            std::vector<int> distinct;
            std::vector<const Ast*> trees;
            for (std::size_t p = start; p < end; ++p)
                for (int idx : {order[p].first, order[p].second})
                    if (std::find(distinct.begin(), distinct.end(),
                                  idx) == distinct.end()) {
                        distinct.push_back(idx);
                        trees.push_back(&corpus.submissions()[idx].ast);
                    }
            std::vector<ag::Var> z =
                treeEncoder(manual).encodeForestRoots(trees);
            auto slot = [&](int idx) {
                return z[std::find(distinct.begin(), distinct.end(),
                                   idx) -
                         distinct.begin()];
            };
            std::vector<ag::Var> terms;
            for (std::size_t p = start; p < end; ++p)
                terms.push_back(ag::bceWithLogits(
                    manual.logitFromEncodings(slot(order[p].first),
                                              slot(order[p].second)),
                    Tensor(1, 1, order[p].label)));
            ag::Var loss = ag::scale(
                ag::addN(terms), 1.0f / static_cast<float>(terms.size()));
            optim.zeroGrad();
            ag::backward(loss);
            optim.clipGradNorm(tc.gradClip);
            optim.step();
            sum += loss.value().at(0, 0);
            ++batches;
        }
        losses.push_back(sum / static_cast<double>(batches));
    }

    ASSERT_EQ(stats.epochLoss.size(), losses.size());
    for (std::size_t e = 0; e < losses.size(); ++e)
        EXPECT_EQ(stats.epochLoss[e], losses[e]) << "epoch " << e;
    std::vector<nn::Parameter*> a = trained.parameters();
    std::vector<nn::Parameter*> b = manual.parameters();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectBitwise(a[i]->var.value(), b[i]->var.value(),
                      "parameter " + std::to_string(i));
}

// ------------------------------------------------------------------
// Robustness and concurrency

TEST(HashConsedEncode, DeepChainEncodesWithoutRecursion)
{
    // 60k nested nodes built directly, as hostile input could: the
    // Merkle walk, the planner and the wavefront must all iterate.
    Ast chain(NodeKind::Root);
    const NodeKind kinds[] = {NodeKind::CompoundStmt, NodeKind::IfStmt,
                              NodeKind::Add};
    int parent = 0;
    for (int i = 0; i < 60000; ++i)
        parent = chain.addNode(kinds[i % 3], parent);

    auto model =
        std::make_shared<ComparativePredictor>(uniConfig(1, 4, 4), 2);
    Engine engine(model, Engine::Options().withThreads(1));
    Result<std::vector<Tensor>> got = engine.encodeBatch({&chain});
    ASSERT_TRUE(got.isOk()) << got.status().toString();
    expectBitwise(got.value()[0], fullEncode(*model, {&chain})[0],
                  "60k-deep chain");
    EXPECT_EQ(engine.stats().subtreeNodesComputed,
              static_cast<std::uint64_t>(chain.size()));
}

TEST(HashConsedEncode, TwoEnginesShareOneStore)
{
    auto model =
        std::make_shared<ComparativePredictor>(uniConfig(1, 8, 8), 6);
    std::vector<std::string> sources;
    for (const char* op : {"+", "-", "*", "/", "%", "<", ">", "=="})
        for (const char* at : {"total = total + i;\n", "n = n / 2;\n",
                               "int total = 0;\n"})
            sources.push_back(edited(
                kParent, at,
                std::string(at) + "        total = n " + op + " 5;\n"));
    std::vector<Ast> trees;
    for (const std::string& s : sources)
        trees.push_back(parseAndPrune(s));

    // Reference answers from a private, single-threaded engine.
    Engine reference(model, Engine::Options().withThreads(1));
    std::vector<Tensor> want;
    for (const Ast& t : trees)
        want.push_back(reference.encodeBatch({&t}).value()[0]);

    auto cache = std::make_shared<ShardedEncodingCache>(2, 64);
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("model", model);
    Engine e1(registry, Engine::Options().withThreads(1), cache);
    Engine e2(registry, Engine::Options().withThreads(2), cache);
    std::atomic<int> mismatches{0};
    auto run = [&](Engine& engine, std::size_t first) {
        for (std::size_t k = 0; k < trees.size(); ++k) {
            std::size_t i = (first + k) % trees.size();
            std::size_t j = (i + 5) % trees.size();
            Result<std::vector<Tensor>> got =
                engine.encodeBatch({&trees[i], &trees[j]});
            if (!got.isOk() ||
                std::memcmp(got.value()[0].data(), want[i].data(),
                            want[i].size() * sizeof(float)) != 0)
                mismatches.fetch_add(1);
        }
    };
    std::thread t1([&] { run(e1, 0); });
    std::thread t2([&] { run(e2, trees.size() / 2); });
    t1.join();
    t2.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(e1.stats().subtreeNodesFromStore +
                  e2.stats().subtreeNodesFromStore,
              0u);
}

} // namespace
} // namespace ccsa
