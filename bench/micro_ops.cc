/**
 * @file
 * google-benchmark microbenchmarks for the substrate layers: tensor
 * kernels, encoder forward/backward, frontend throughput, the judge,
 * and the unique-tree batching ablation called out in DESIGN.md
 * (encoding each distinct submission once per batch vs encoding both
 * sides of every pair).
 */

#include <benchmark/benchmark.h>

#include <unordered_set>

#include "codegen/generator.hh"
#include "dataset/corpus.hh"
#include "dataset/pairs.hh"
#include "frontend/parser.hh"
#include "model/trainer.hh"
#include "serve/encoding_cache.hh"
#include "serve/engine.hh"
#include "serve/latent_f16_dispatch.hh"
#include "tensor/arena.hh"
#include "tensor/matmul_dispatch.hh"

// The unbatched per-pair baseline and the reference front end share
// the tests' oracles so every consumer pins against one reference
// implementation.
#include "../tests/oracle.hh"
#include "../tests/oracle_frontend.hh"

namespace
{

using namespace ccsa;

const Corpus&
benchCorpus()
{
    static Corpus corpus =
        Corpus::generate(tableISpec(ProblemFamily::H), 24, 77);
    return corpus;
}

std::string
benchSource()
{
    auto gen = makeGenerator(ProblemFamily::F, 0);
    Rng rng(5);
    return gen->generateVariant(0, rng).source;
}

void
BM_TensorMatmul(benchmark::State& state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(1);
    Tensor a(n, n), b(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.matmul(b));
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TensorMatmul)->Arg(32)->Arg(64)->Arg(128);

/**
 * Kernel ablation: the blocked/unrolled GEMM (arg 1) vs the original
 * scalar ikj loop with its per-element zero-skip branch (arg 0, kept
 * as Tensor::matmulReference). Items/s is multiply-adds per second.
 */
void
BM_MatmulKernel(benchmark::State& state)
{
    bool blocked = state.range(0) == 1;
    int n = static_cast<int>(state.range(1));
    Rng rng(2);
    Tensor a(n, n), b(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        if (blocked)
            benchmark::DoNotOptimize(a.matmul(b));
        else
            benchmark::DoNotOptimize(a.matmulReference(b));
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
    state.SetLabel(blocked ? "blocked-kernel" : "reference-kernel");
}
BENCHMARK(BM_MatmulKernel)
    ->Args({1, 32})->Args({0, 32})
    ->Args({1, 64})->Args({0, 64})
    ->Args({1, 128})->Args({0, 128})
    ->Args({1, 256})->Args({0, 256});

/**
 * Runtime-dispatch ablation: the vectorized kernel family vs the
 * scalar fallback, called straight through the raw-buffer seam that
 * Tensor::matmulInto routes to. Items/s is multiply-adds per second.
 * CI gates vectorized >= 1.5x scalar at the largest size whenever a
 * non-scalar row is present (check_bench_encode.py skips the gate on
 * hardware where simdKernels() falls back to scalar).
 */
void
BM_MatmulDispatch(benchmark::State& state)
{
    bool simd = state.range(0) == 1;
    int n = static_cast<int>(state.range(1));
    const kernels::MatmulKernels& k =
        simd ? kernels::simdKernels() : kernels::scalarKernels();
    Rng rng(7);
    Tensor a(n, n), b(n, n), out(n, n);
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        out.fill(0.0f);
        k.gemmAccum(a.data(), b.data(), out.data(), n, n, n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
    state.SetLabel(std::string("dispatch:") + k.name);
}
BENCHMARK(BM_MatmulDispatch)
    ->Args({1, 64})->Args({0, 64})
    ->Args({1, 128})->Args({0, 128})
    ->Args({1, 256})->Args({0, 256});

/**
 * Latent-store precision ablation: the cache hit path (lookup +
 * dequantize under the shard lock) at each storage precision. fp32
 * hits memcpy; fp16/int8 pay a decode whose cost this row makes
 * visible next to the 2-4x residency win. Items/s is hits per second
 * on a 64-entry working set of 1x64 latents.
 */
void
BM_CacheHitByPrecision(benchmark::State& state)
{
    const auto precision =
        static_cast<LatentPrecision>(state.range(0));
    EncodingCache cache(128, precision);
    Rng rng(9);
    std::vector<EncodingKey> keys;
    for (std::uint64_t i = 0; i < 64; ++i) {
        Tensor t(1, 64);
        t.fillNormal(rng, 0.0f, 1.0f);
        EncodingKey key{1, {i, i * 0x9E3779B9u}};
        cache.insert(key, t);
        keys.push_back(key);
    }
    Tensor out(1, 1);
    for (auto _ : state) {
        for (const EncodingKey& key : keys)
            benchmark::DoNotOptimize(cache.lookup(key, &out));
    }
    state.SetItemsProcessed(
        state.iterations() * static_cast<std::int64_t>(keys.size()));
    state.SetLabel(std::string("cache-hit:") +
                   latentPrecisionName(precision));
}
BENCHMARK(BM_CacheHitByPrecision)->Arg(0)->Arg(1)->Arg(2);

/** Parent arrays for the encode-ablation tree shapes. */
std::vector<int>
benchTreeParents(int shape)
{
    switch (shape) {
      case 0: { // degenerate chain: no level ever batches
        std::vector<int> p(64);
        p[0] = -1;
        for (std::size_t i = 1; i < p.size(); ++i)
            p[i] = static_cast<int>(i) - 1;
        return p;
      }
      case 1: { // bushy: complete 4-ary tree of depth 4 (341 nodes,
                // levels of width 1/4/16/64/256)
        std::vector<int> p{-1};
        std::size_t parent = 0;
        while (p.size() < 341) {
            for (int k = 0; k < 4 && p.size() < 341; ++k)
                p.push_back(static_cast<int>(parent));
            ++parent;
        }
        return p;
      }
      default: // realistic AST from the generated corpus
        return benchCorpus().submissions()[0].ast.parents();
    }
}

const char*
benchTreeName(int shape)
{
    switch (shape) {
      case 0: return "chain";
      case 1: return "bushy";
      default: return "ast";
    }
}

/**
 * The headline ablation of this PR: level-batched wavefront encoding
 * (arg 0 == 1) vs the per-node oracle path (arg 0 == 0) on three
 * tree shapes. Items/s is nodes encoded per second. The level-batched
 * mode must be >= 3x on bushy trees and must not regress on chains.
 */
void
BM_EncodeLevelBatchedVsPerNode(benchmark::State& state)
{
    bool batched = state.range(0) == 1;
    int shape = static_cast<int>(state.range(1));
    Rng rng(31);
    // Laptop-scale model dims (matches bench_util defaultConfig);
    // alternating layers exercise both pass directions.
    nn::TreeLstm lstm(24, 32, 2, nn::TreeArch::Alternating, rng);
    nn::TreeSpec spec = nn::TreeSpec::fromParents(
        benchTreeParents(shape));
    std::vector<ag::Var> inputs;
    inputs.reserve(spec.size());
    Rng irng(5);
    for (std::size_t i = 0; i < spec.size(); ++i) {
        Tensor t(1, 24);
        t.fillNormal(irng, 0.0f, 1.0f);
        inputs.push_back(ag::constant(t));
    }
    for (auto _ : state) {
        // Both modes encode every node; the serving workload reads
        // the root representation.
        if (batched)
            benchmark::DoNotOptimize(lstm.encodeRoot(spec, inputs));
        else
            benchmark::DoNotOptimize(
                lstm.encodeNodesPerNode(spec, inputs)[spec.root]);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(spec.size()));
    state.SetLabel(std::string(benchTreeName(shape)) + "/" +
                   (batched ? "level-batched" : "per-node"));
}
BENCHMARK(BM_EncodeLevelBatchedVsPerNode)
    ->Args({1, 0})->Args({0, 0})
    ->Args({1, 1})->Args({0, 1})
    ->Args({1, 2})->Args({0, 2})
    ->Unit(benchmark::kMicrosecond);

/**
 * Tape-free ablation: the identical level-batched encode with (arg 0
 * == 0) and without (arg 0 == 1) the autograd tape. The no-grad mode
 * opens an InferenceScope per iteration — exactly the per-chunk scope
 * the serving Engine uses — so every op skips VarNode/closure
 * construction and writes into the warm thread arena instead of the
 * heap. Outputs are bitwise-identical; only the bookkeeping differs.
 * Items/s is nodes encoded per second; the realistic-AST shape is
 * gated >= 1.3x in tools/check_bench_encode.py.
 */
void
BM_EncodeNoGradVsTaped(benchmark::State& state)
{
    bool nograd = state.range(0) == 1;
    int shape = static_cast<int>(state.range(1));
    Rng rng(31);
    nn::TreeLstm lstm(24, 32, 2, nn::TreeArch::Alternating, rng);
    nn::TreeSpec spec = nn::TreeSpec::fromParents(
        benchTreeParents(shape));
    std::vector<Tensor> inputTensors;
    Rng irng(5);
    for (std::size_t i = 0; i < spec.size(); ++i) {
        Tensor t(1, 24);
        t.fillNormal(irng, 0.0f, 1.0f);
        inputTensors.push_back(t);
    }
    std::vector<ag::Var> inputs;
    for (const Tensor& t : inputTensors)
        inputs.push_back(ag::constant(t));
    for (auto _ : state) {
        if (nograd) {
            InferenceScope scope;
            benchmark::DoNotOptimize(lstm.encodeRoot(spec, inputs));
        } else {
            benchmark::DoNotOptimize(lstm.encodeRoot(spec, inputs));
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(spec.size()));
    state.SetLabel(std::string(benchTreeName(shape)) + "/" +
                   (nograd ? "nograd" : "taped"));
}
BENCHMARK(BM_EncodeNoGradVsTaped)
    ->Args({1, 0})->Args({0, 0})
    ->Args({1, 1})->Args({0, 1})
    ->Args({1, 2})->Args({0, 2})
    ->Unit(benchmark::kMicrosecond);

/** A generated program plus one inserted statement: the tree a
 * commit-watch request compares against its resident parent. */
std::pair<std::string, std::string>
commitSources()
{
    // After the first "x++;" line, else at the top of main().
    std::string parent = benchSource();
    std::string child = parent;
    std::size_t at = child.find("++;\n");
    at = at == std::string::npos
        ? child.find("{\n", child.find("main")) + 2
        : at + 4;
    child.insert(at, "        n = n * 2 + 1;\n");
    return {parent, child};
}

/**
 * Hash-consed tree-LSTM encode (arg 0 == 1: the serving miss path,
 * through a real subtree-state store) vs every node through the
 * level-batched wavefront (arg 0 == 0), tape-free, at the default
 * model size (32/48, one uni-directional layer). Items/s is trees
 * encoded per second. Rows (arg 1):
 *  - commit: a child with one inserted statement whose parent's
 *    subtree states are stored — the edit-chain case;
 *  - cold: a tree with an empty store, so only repeats inside the
 *    tree are shared — the no-sharing case, which must never lose;
 *  - forest: 8 programs of one family in one call, empty store.
 * check_bench_encode.py gates commit >= 3x and cold >= 1x.
 */
void
BM_EncodeHashConsed(benchmark::State& state)
{
    const bool hashConsed = state.range(0) == 1;
    const int row = static_cast<int>(state.range(1));
    ComparativePredictor model(EncoderConfig(), 1);
    const auto& encoder =
        dynamic_cast<const TreeLstmEncoder&>(model.encoder());

    const auto [parentSrc, childSrc] = commitSources();
    const Ast parent = parseAndPrune(parentSrc);
    const Ast child = parseAndPrune(childSrc);
    std::vector<const Ast*> trees;
    std::vector<const Ast*> stored;
    const char* name = "commit";
    if (row == 0) {
        trees = {&child};
        stored = {&parent};
    } else if (row == 1) {
        trees = {&benchCorpus().submissions()[0].ast};
        name = "cold";
    } else {
        for (std::size_t i = 0; i < 8; ++i)
            trees.push_back(&benchCorpus().submissions()[i].ast);
        name = "forest";
    }

    SubtreeReuse reuse;
    for (auto _ : state) {
        if (!hashConsed) {
            InferenceScope scope;
            benchmark::DoNotOptimize(encoder.encodeForestRoots(trees));
            continue;
        }
        // Each iteration starts from a store holding exactly the
        // parent's states (nothing for cold/forest); building it is
        // not timed.
        state.PauseTiming();
        auto cache = std::make_unique<ShardedEncodingCache>(1, 4096);
        NamespaceStateStore store(*cache, 1);
        if (!stored.empty()) {
            InferenceScope scope;
            model.encodeMany(stored, store, nullptr);
        }
        state.ResumeTiming();
        {
            InferenceScope scope;
            benchmark::DoNotOptimize(
                model.encodeMany(trees, store, &reuse));
        }
        state.PauseTiming();
        cache.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trees.size()));
    if (hashConsed && reuse.nodes > 0)
        state.counters["computed_share"] =
            static_cast<double>(reuse.computed) /
            static_cast<double>(reuse.nodes);
    state.SetLabel(std::string(name) + "/" +
                   (hashConsed ? "hash-consed" : "level-batched"));
}
BENCHMARK(BM_EncodeHashConsed)
    ->Args({1, 0})->Args({0, 0})
    ->Args({1, 1})->Args({0, 1})
    ->Args({1, 2})->Args({0, 2})
    ->Unit(benchmark::kMicrosecond);

/**
 * fp16 codec family ablation: bulk half->float decode through the
 * portable bit-twiddling oracle (arg 0 == 0) vs the F16C family
 * (arg 0 == 1) on a cache-hit-sized latent batch. Items/s is halves
 * decoded per second; check_bench_encode.py gates f16c >= 2x
 * portable (auto-skipped on machines without F16C, where the arg-1
 * row reports an error instead of a misleading label).
 */
void
BM_F16DecodeDispatch(benchmark::State& state)
{
    const bool hw = state.range(0) == 1;
    if (hw && !kernels::f16cAvailable()) {
        state.SkipWithError("no F16C on this CPU/build");
        return;
    }
    const kernels::F16Kernels& kf =
        hw ? kernels::f16cKernels()
           : kernels::portableF16Kernels();
    // 64 latents of 1x64, the BM_CacheHitByPrecision working set.
    constexpr std::size_t kHalves = 64 * 64;
    Rng rng(9);
    std::vector<float> values(kHalves);
    for (float& v : values)
        v = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<std::uint16_t> halves(kHalves);
    kernels::portableF16Kernels().encodeRows(values.data(),
                                             halves.data(), kHalves);
    std::vector<float> out(kHalves);
    for (auto _ : state) {
        kf.decodeRows(halves.data(), out.data(), kHalves);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kHalves));
    state.SetLabel(std::string("f16:") + kf.name);
}
BENCHMARK(BM_F16DecodeDispatch)->Arg(1)->Arg(0);

/**
 * Forest batching: encoding a batch of 16 distinct realistic trees
 * through one encodeMany wavefront (arg 1) vs 16 separate encode
 * calls (arg 0). Items/s is trees per second.
 */
void
BM_EncodeForestVsSequential(benchmark::State& state)
{
    bool forest = state.range(0) == 1;
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    ComparativePredictor model(cfg, 1);
    const auto& subs = benchCorpus().submissions();
    std::vector<const Ast*> trees;
    for (std::size_t i = 0; i < 16 && i < subs.size(); ++i)
        trees.push_back(&subs[i].ast);
    for (auto _ : state) {
        if (forest) {
            benchmark::DoNotOptimize(model.encodeMany(trees));
        } else {
            for (const Ast* t : trees)
                benchmark::DoNotOptimize(model.encode(*t));
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trees.size()));
    state.SetLabel(forest ? "forest-batched" : "tree-at-a-time");
}
BENCHMARK(BM_EncodeForestVsSequential)
    ->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void
BM_ParseSource(benchmark::State& state)
{
    std::string src = benchSource();
    for (auto _ : state)
        benchmark::DoNotOptimize(parseSource(src));
    state.SetBytesProcessed(state.iterations() * src.size());
}
BENCHMARK(BM_ParseSource);

/**
 * The serving front end on commit-style children — one program per
 * generated family, ~1.2 KB, each with one inserted statement: the
 * one-pass parseAndPrune (arg 0 == 1), which builds only the pruned
 * tree from span tokens, vs the reference pipeline in
 * oracle_frontend.hh (arg 0 == 0: owned-string tokens, the full tree,
 * then a pruneToFunctions deep copy). Items/s is children parsed per
 * second; check_bench_encode.py gates one-pass >= 2x the reference.
 */
void
BM_ParseAndPrune(benchmark::State& state)
{
    const bool onePass = state.range(0) == 1;
    std::vector<std::string> children;
    for (int f = 0; f < kNumFamilies; ++f) {
        auto gen = makeGenerator(static_cast<ProblemFamily>(f), 0);
        Rng rng(static_cast<std::uint64_t>(f) + 1);
        std::string child = gen->generate(rng).source;
        std::size_t at = child.find("{\n", child.find("main")) + 2;
        child.insert(at, "    int pb = 2 * 3 + 4 - 5 % 6;\n");
        children.push_back(std::move(child));
    }
    std::size_t bytes = 0;
    for (const std::string& child : children)
        bytes += child.size();
    for (auto _ : state)
        for (const std::string& child : children)
            benchmark::DoNotOptimize(onePass
                                         ? parseAndPrune(child)
                                         : oracle::parseAndPrune(child));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(children.size()));
    state.counters["bytes_per_child"] =
        static_cast<double>(bytes) / static_cast<double>(children.size());
    state.SetLabel(onePass ? "commit/one-pass" : "commit/oracle");
}
BENCHMARK(BM_ParseAndPrune)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

void
BM_JudgeProgram(benchmark::State& state)
{
    const ProblemSpec& spec = tableISpec(ProblemFamily::F);
    SimulatedJudge judge(spec.judge);
    Ast ast = parseAndPrune(benchSource());
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(judge.run(ast, rng));
}
BENCHMARK(BM_JudgeProgram);

void
BM_TreeLstmEncodeForward(benchmark::State& state)
{
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    ComparativePredictor model(cfg, 1);
    const Ast& ast = benchCorpus().submissions()[0].ast;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.encode(ast));
    state.SetItemsProcessed(state.iterations() * ast.size());
}
BENCHMARK(BM_TreeLstmEncodeForward);

void
BM_GcnEncodeForward(benchmark::State& state)
{
    EncoderConfig cfg;
    cfg.kind = EncoderKind::Gcn;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    cfg.layers = 2;
    ComparativePredictor model(cfg, 1);
    const Ast& ast = benchCorpus().submissions()[0].ast;
    for (auto _ : state)
        benchmark::DoNotOptimize(model.encode(ast));
    state.SetItemsProcessed(state.iterations() * ast.size());
}
BENCHMARK(BM_GcnEncodeForward);

void
BM_PairForwardBackward(benchmark::State& state)
{
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    ComparativePredictor model(cfg, 1);
    const auto& subs = benchCorpus().submissions();
    Tensor target(1, 1, 1.0f);
    for (auto _ : state) {
        ag::Var za = model.encode(subs[0].ast);
        ag::Var zb = model.encode(subs[1].ast);
        ag::Var loss = ag::bceWithLogits(
            model.logitFromEncodings(za, zb), target);
        ag::backward(loss);
        model.zeroGrad();
    }
}
BENCHMARK(BM_PairForwardBackward);

/**
 * Ablation: one training batch with unique-tree batching (the
 * Trainer's strategy) vs naively encoding both sides of every pair.
 */
void
BM_BatchUniqueTreeEncoding(benchmark::State& state)
{
    bool unique = state.range(0) == 1;
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    ComparativePredictor model(cfg, 1);
    const auto& subs = benchCorpus().submissions();
    std::vector<int> idx;
    for (std::size_t i = 0; i < subs.size(); ++i)
        idx.push_back(static_cast<int>(i));
    Rng rng(11);
    PairOptions popt;
    popt.maxPairs = 32;
    auto pairs = buildPairs(subs, idx, popt, rng);

    for (auto _ : state) {
        std::vector<ag::Var> losses;
        if (unique) {
            std::unordered_map<int, ag::Var> cache;
            for (const auto& p : pairs) {
                for (int s : {p.first, p.second})
                    if (!cache.count(s))
                        cache.emplace(s, model.encode(subs[s].ast));
                losses.push_back(ag::bceWithLogits(
                    model.logitFromEncodings(cache.at(p.first),
                                             cache.at(p.second)),
                    Tensor(1, 1, p.label)));
            }
        } else {
            for (const auto& p : pairs) {
                losses.push_back(ag::bceWithLogits(
                    model.logitFromEncodings(
                        model.encode(subs[p.first].ast),
                        model.encode(subs[p.second].ast)),
                    Tensor(1, 1, p.label)));
            }
        }
        ag::Var loss = ag::scale(ag::addN(losses),
                                 1.0f / losses.size());
        ag::backward(loss);
        model.zeroGrad();
    }
}
BENCHMARK(BM_BatchUniqueTreeEncoding)
    ->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/**
 * Serving ablation: repeated-candidate batch scoring through
 * Engine::compareMany (encoding cache + thread pool, arg 1) vs
 * one-pair-at-a-time scoring (arg 0), which re-encodes both trees
 * of every pair. Items/s is pairs scored per second; the batched
 * mode must be >= 2x the unbatched mode.
 */
void
BM_ServingBatchedVsUnbatched(benchmark::State& state)
{
    bool batched = state.range(0) == 1;
    EncoderConfig cfg;
    cfg.embedDim = 24;
    cfg.hiddenDim = 32;
    auto model = std::make_shared<ComparativePredictor>(cfg, 1);
    const auto& subs = benchCorpus().submissions();

    // A ranking-style workload: 96 pairs drawn from a pool of 24
    // candidates, so every tree recurs across many pairs.
    std::vector<int> idx;
    for (std::size_t i = 0; i < subs.size(); ++i)
        idx.push_back(static_cast<int>(i));
    Rng rng(23);
    PairOptions popt;
    popt.maxPairs = 96;
    auto pairs = buildPairs(subs, idx, popt, rng);

    Engine engine(model);
    std::vector<Engine::PairRequest> requests;
    for (const auto& p : pairs)
        requests.push_back(
            {&subs[p.first].ast, &subs[p.second].ast});

    for (auto _ : state) {
        if (batched) {
            benchmark::DoNotOptimize(engine.compareMany(requests));
        } else {
            for (const auto& p : pairs) {
                benchmark::DoNotOptimize(perPairProb(
                    *model, subs[p.first].ast, subs[p.second].ast));
            }
        }
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(pairs.size()));
    state.SetLabel(batched ? "engine-batched" : "legacy-per-pair");
}
BENCHMARK(BM_ServingBatchedVsUnbatched)
    ->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/**
 * The all-hit tournament, the request shape of perfbench's rank_hot:
 * an 8-candidate Engine::tournamentPairs (56 ordered pairs) through
 * one single-thread Engine whose cache already holds every
 * candidate. Candidates are distinct generated programs of one
 * family, ~215 nodes each. No tree is encoded, so the row times the
 * score head plus what the pair references cost around it: digest
 * reads (each candidate's digest is memoized after the first call),
 * one cache lookup and one latent copy per distinct tree. Items/s is
 * pairs scored per second.
 */
void
BM_CompareManyAllHit(benchmark::State& state)
{
    constexpr std::size_t kCandidates = 8;
    auto gen = makeGenerator(ProblemFamily::C);
    Rng rng(5, 5);
    std::vector<Ast> trees;
    std::unordered_set<AstDigest, AstDigestHash> seen;
    for (int draw = 0; trees.size() < kCandidates && draw < 256; ++draw) {
        Result<Ast> ast = Engine::parseSource(gen->generate(rng).source);
        if (ast.isOk() && seen.insert(digestAst(ast.value())).second)
            trees.push_back(std::move(ast.value()));
    }
    if (trees.size() < kCandidates) {
        state.SkipWithError("too few distinct candidates");
        return;
    }
    std::vector<const Ast*> candidates;
    std::size_t nodes = 0;
    for (const Ast& t : trees) {
        candidates.push_back(&t);
        nodes += static_cast<std::size_t>(t.size());
    }

    Engine engine(Engine::Options().withThreads(1));
    if (!engine.encodeBatch(candidates).isOk()) {
        state.SkipWithError("priming the cache failed");
        return;
    }
    const std::vector<Engine::PairRequest> pairs =
        Engine::tournamentPairs(candidates);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.compareMany(pairs));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(pairs.size()));
    state.counters["nodes_per_tree"] =
        static_cast<double>(nodes) / static_cast<double>(kCandidates);
}
BENCHMARK(BM_CompareManyAllHit)->Unit(benchmark::kMicrosecond);

void
BM_CorpusGeneration(benchmark::State& state)
{
    const ProblemSpec& spec = tableISpec(ProblemFamily::E);
    std::uint64_t seed = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            Corpus::generate(spec, 8, seed++));
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_CorpusGeneration)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
