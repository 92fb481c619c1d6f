/**
 * @file
 * Tests for the tape-free inference path: TensorArena mechanics,
 * the InferenceScope contracts (no nesting, no mixing with
 * backward()), bitwise parity between no-grad and taped forwards
 * across every tree architecture / depth / latent precision, and the
 * steady-state allocation pin — a warm scope encodes a batch without
 * constructing a single heap-backed Tensor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "frontend/parser.hh"
#include "model/predictor.hh"
#include "serve/latent_codec.hh"
#include "tensor/arena.hh"
#include "tensor/autograd.hh"
#include "tensor/tensor.hh"

// ------------------------------------------------------------------
// Global operator-new counter. Sanitizers interpose the allocator
// themselves, so the replacement is compiled out under ASan/TSan and
// the tests that need it fall back to the Tensor-level counter only.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define CCSA_TEST_HAS_NEW_HOOK 1

namespace
{
std::atomic<std::uint64_t> g_new_calls{0};

void*
countedAlloc(std::size_t n)
{
    g_new_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}
} // namespace

void*
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

#else
#define CCSA_TEST_HAS_NEW_HOOK 0
#endif

namespace ccsa
{
namespace
{

// ------------------------------------------------------------------
// Helpers

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

/** Bitwise tensor equality: same shape, identical bytes. */
void
expectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    EXPECT_EQ(std::memcmp(a.data(), b.data(),
                          a.size() * sizeof(float)),
              0)
        << what << ": no-grad forward diverged from the taped forward";
}

// ------------------------------------------------------------------
// TensorArena mechanics

TEST(Arena, BumpAllocatesWithinOneChunk)
{
    TensorArena arena(32);
    EXPECT_EQ(arena.chunkAllocations(), 0u);

    float* a = arena.allocate(8);
    float* b = arena.allocate(8);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(b, a + 8); // contiguous bump, no second malloc
    EXPECT_EQ(arena.usedFloats(), 16u);
    EXPECT_EQ(arena.chunkAllocations(), 1u);
    EXPECT_EQ(arena.chunkCount(), 1u);

    // Zero-size allocations are legal and non-null.
    EXPECT_NE(arena.allocate(0), nullptr);
    EXPECT_EQ(arena.usedFloats(), 16u);
}

TEST(Arena, OverflowAppendsChunkAndResetCoalesces)
{
    TensorArena arena(16);
    arena.allocate(16);
    arena.allocate(16); // overflow: second chunk
    arena.allocate(100); // oversized: chunk sized to the request
    EXPECT_EQ(arena.chunkAllocations(), 3u);
    EXPECT_EQ(arena.chunkCount(), 3u);
    EXPECT_EQ(arena.usedFloats(), 132u);
    EXPECT_EQ(arena.highWaterFloats(), 132u);

    // reset() pays one coalescing alloc...
    arena.reset();
    EXPECT_EQ(arena.usedFloats(), 0u);
    EXPECT_EQ(arena.chunkCount(), 1u);
    EXPECT_EQ(arena.chunkAllocations(), 4u);

    // ...after which the same workload runs with ZERO allocator
    // traffic: that is the property the serving loop leans on.
    for (int iter = 0; iter < 3; ++iter) {
        arena.allocate(16);
        arena.allocate(16);
        arena.allocate(100);
        EXPECT_EQ(arena.chunkCount(), 1u) << "iter " << iter;
        arena.reset();
    }
    EXPECT_EQ(arena.chunkAllocations(), 4u);
    EXPECT_EQ(arena.highWaterFloats(), 132u);
}

TEST(Arena, AllocationsAreDisjointAndWritable)
{
    TensorArena arena(8); // force several chunks
    std::vector<float*> spans;
    for (int i = 0; i < 10; ++i) {
        float* p = arena.allocate(5);
        for (int j = 0; j < 5; ++j)
            p[j] = static_cast<float>(i * 10 + j);
        spans.push_back(p);
    }
    for (int i = 0; i < 10; ++i)
        for (int j = 0; j < 5; ++j)
            EXPECT_FLOAT_EQ(spans[i][j],
                            static_cast<float>(i * 10 + j));
}

// ------------------------------------------------------------------
// InferenceScope contracts

TEST(InferenceScope, ActiveTracksScopeLifetime)
{
    EXPECT_FALSE(InferenceScope::active());
    {
        InferenceScope scope;
        EXPECT_TRUE(InferenceScope::active());
    }
    EXPECT_FALSE(InferenceScope::active());
}

TEST(InferenceScope, ArenaRequiresActiveScope)
{
    EXPECT_THROW(InferenceScope::arena(), PanicError);
}

TEST(InferenceScope, NestedScopesAreFatal)
{
    InferenceScope outer;
    EXPECT_THROW(InferenceScope inner, FatalError);
}

TEST(InferenceScope, BackwardInsideScopeIsFatal)
{
    // Record a perfectly good tape OUTSIDE the scope, then try to
    // differentiate it inside one: backward() must refuse.
    ag::Var w = ag::leaf(Tensor(2, 2, 0.5f));
    ag::Var loss = ag::sumAllOp(ag::mul(w, w));
    InferenceScope scope;
    EXPECT_THROW(ag::backward(loss), FatalError);
}

TEST(InferenceScope, ScopeDuringBackwardIsFatal)
{
    detail::BackwardInProgress backward_running;
    EXPECT_THROW(InferenceScope scope, FatalError);
}

TEST(InferenceScope, LeafUnderScopeIsFatal)
{
    InferenceScope scope;
    EXPECT_THROW(ag::leaf(Tensor(1, 1, 1.0f)), FatalError);
}

TEST(InferenceScope, BackwardOnNoGradRootIsFatal)
{
    ag::Var root;
    {
        InferenceScope scope;
        ag::Var x = ag::constant(Tensor(1, 1, 2.0f));
        // Copy OUT of the arena so the value survives the scope; the
        // no-grad provenance sticks regardless.
        root = ag::Var::noGrad(ag::mul(x, x).value().toOwned());
    }
    EXPECT_THROW(ag::backward(root), FatalError);
}

TEST(InferenceScope, NoGradOperandOnTapedPathPanics)
{
    // A no-grad result that escapes its scope must not silently join
    // a training graph — the tape would have a hole in it.
    ag::Var raw = ag::Var::noGrad(Tensor(1, 1, 3.0f));
    ag::Var taped = ag::leaf(Tensor(1, 1, 4.0f));
    EXPECT_THROW(ag::add(raw, taped), PanicError);
}

TEST(InferenceScope, NoGradVarRefusesGradAccessors)
{
    ag::Var raw = ag::Var::noGrad(Tensor(1, 2, 1.5f));
    EXPECT_TRUE(raw.defined());
    EXPECT_TRUE(raw.isNoGrad());
    EXPECT_FALSE(raw.requiresGrad());
    EXPECT_FLOAT_EQ(raw.value().at(0, 1), 1.5f);
    EXPECT_THROW(raw.grad(), PanicError);
    EXPECT_THROW(raw.zeroGrad(), PanicError);
    EXPECT_THROW(raw.mutableValue(), PanicError);
}

TEST(InferenceScope, OpsReturnArenaBackedNoGradVars)
{
    InferenceScope scope;
    const std::size_t used0 = InferenceScope::arena().usedFloats();

    ag::Var a = ag::constant(Tensor(3, 4, 1.0f));
    ag::Var b = ag::zeros(4, 2);
    ag::Var c = ag::matmul(a, b);
    EXPECT_TRUE(c.isNoGrad());
    EXPECT_EQ(c.node(), nullptr);
    EXPECT_TRUE(c.value().isBorrowed());
    EXPECT_TRUE(b.value().isBorrowed());
    EXPECT_GT(InferenceScope::arena().usedFloats(), used0);
    EXPECT_FLOAT_EQ(c.value().at(2, 1), 0.0f);
}

// ------------------------------------------------------------------
// No-grad vs taped parity

TEST(InferenceScope, OpChainMatchesTapedBitwise)
{
    // A chain touching the elementwise / reduction / broadcast op
    // families; the model-level sweep below covers the structural
    // ops (gather/stack/segment/pick).
    Rng rng(31);
    Tensor x(5, 7), w(7, 3), bias(1, 3);
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 1.0f);
    bias.fillNormal(rng, 0.0f, 1.0f);

    auto run = [&]() {
        ag::Var h = ag::matmul(ag::constant(x), ag::constant(w));
        h = ag::addRowBroadcast(h, ag::constant(bias));
        ag::Var s = ag::sigmoid(h);
        ag::Var t = ag::tanhOp(h);
        ag::Var r = ag::relu(ag::sub(s, t));
        ag::Var m = ag::mul(ag::scale(s, 0.25f), t);
        ag::Var sum = ag::addN({r, m, s});
        return ag::meanRowsOp(ag::concatColsOp(sum, h));
    };

    Tensor taped = run().value();
    Tensor nograd;
    {
        InferenceScope scope;
        nograd = run().value().toOwned();
    }
    expectBitwiseEqual(nograd, taped, "op chain");
}

TEST(InferenceScope, EncoderParityAcrossArchLayersAndPrecision)
{
    // The tentpole guarantee: for every tree architecture, stack
    // depth, and latent precision, the tape-free encoder output is
    // bitwise-identical to the taped one — so a serving process can
    // switch to the no-grad path with zero behaviour change.
    std::vector<Ast> progs;
    progs.push_back(tinyProgram(1));
    progs.push_back(tinyProgram(3));
    progs.push_back(tinyProgram(5));
    std::vector<const Ast*> asts;
    for (const Ast& a : progs)
        asts.push_back(&a);

    const nn::TreeArch arches[] = {nn::TreeArch::Uni,
                                   nn::TreeArch::Bi,
                                   nn::TreeArch::Alternating};
    const LatentPrecision precisions[] = {LatentPrecision::kFp32,
                                          LatentPrecision::kFp16,
                                          LatentPrecision::kInt8};
    for (nn::TreeArch arch : arches) {
        for (int layers = 1; layers <= 3; ++layers) {
            EncoderConfig cfg;
            cfg.embedDim = 6;
            cfg.hiddenDim = 6;
            cfg.layers = layers;
            cfg.arch = arch;
            ComparativePredictor model(cfg, /*seed=*/17);

            std::vector<ag::Var> taped = model.encodeMany(asts);
            std::vector<Tensor> nograd;
            {
                InferenceScope scope;
                std::vector<ag::Var> encoded = model.encodeMany(asts);
                for (const ag::Var& v : encoded) {
                    EXPECT_TRUE(v.isNoGrad());
                    nograd.push_back(v.value().toOwned());
                }
            }
            ASSERT_EQ(nograd.size(), taped.size());
            const std::string what =
                std::string(nn::treeArchName(arch)) + "/layers=" +
                std::to_string(layers);
            for (std::size_t i = 0; i < taped.size(); ++i) {
                expectBitwiseEqual(nograd[i], taped[i].value(),
                                   what.c_str());
                // And through every cache codec: quantize both sides,
                // decode, compare — the stored-latent grid must not
                // care which forward produced the floats.
                for (LatentPrecision p : precisions) {
                    Tensor dt = decodeLatent(
                        encodeLatent(taped[i].value(), p));
                    Tensor dn =
                        decodeLatent(encodeLatent(nograd[i], p));
                    expectBitwiseEqual(
                        dn, dt,
                        (what + "/" + latentPrecisionName(p)).c_str());
                }
            }
        }
    }
}

TEST(InferenceScope, GcnAndTokenLstmEncodersMatchTapedBitwise)
{
    // The non-tree encoders exercise the remaining op surface
    // (spmm, meanRows readout, sequence LSTM gather path).
    Ast prog = tinyProgram(3);
    std::vector<const Ast*> asts{&prog};
    for (EncoderKind kind :
         {EncoderKind::Gcn, EncoderKind::TokenLstm}) {
        EncoderConfig cfg;
        cfg.kind = kind;
        cfg.embedDim = 6;
        cfg.hiddenDim = 6;
        cfg.layers = 2;
        ComparativePredictor model(cfg, /*seed=*/23);
        Tensor taped = model.encodeMany(asts)[0].value();
        Tensor nograd;
        {
            InferenceScope scope;
            nograd = model.encodeMany(asts)[0].value().toOwned();
        }
        expectBitwiseEqual(nograd, taped, encoderKindName(kind));
    }
}

// ------------------------------------------------------------------
// Steady-state allocation pin

class WarmScopeAllocationTest
    : public ::testing::TestWithParam<nn::TreeArch>
{
};

TEST_P(WarmScopeAllocationTest, WarmScopeEncodesWithZeroTensorAllocations)
{
    std::vector<Ast> progs;
    progs.push_back(tinyProgram(2));
    progs.push_back(tinyProgram(4));
    std::vector<const Ast*> asts;
    for (const Ast& a : progs)
        asts.push_back(&a);

    // Bi runs every node through the wavefront; Uni (with no store)
    // takes the hash-consed path.
    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 8;
    cfg.layers = 2;
    cfg.arch = GetParam();
    ComparativePredictor model(cfg, /*seed=*/5);

    // Iteration 0 warms the thread arena (it may grow chunks and the
    // dtor's reset() may coalesce once). Every LATER iteration must
    // construct zero owned Tensors and touch the chunk allocator zero
    // times: all tensor storage is recycled arena memory.
    std::uint64_t warm_tensor_allocs = 0;
    std::size_t warm_chunk_allocs = 0;
    for (int iter = 0; iter < 4; ++iter) {
        const std::uint64_t tensors0 = tensorHeapAllocCount();
        float sink = 0.0f;
        std::size_t chunks1 = 0;
        {
            InferenceScope scope;
            const std::size_t chunks0 =
                InferenceScope::arena().chunkAllocations();
            std::vector<ag::Var> encoded = model.encodeMany(asts);
            for (const ag::Var& v : encoded)
                sink += v.value().at(0, 0);
            chunks1 =
                InferenceScope::arena().chunkAllocations() - chunks0;
        }
        const std::uint64_t tensors1 =
            tensorHeapAllocCount() - tensors0;
        EXPECT_TRUE(std::isfinite(sink));
        if (iter == 0)
            continue;
        warm_tensor_allocs += tensors1;
        warm_chunk_allocs += chunks1;
        EXPECT_EQ(tensors1, 0u)
            << "iter " << iter
            << ": a warm no-grad encode heap-allocated a Tensor";
        EXPECT_EQ(chunks1, 0u)
            << "iter " << iter << ": the warm arena grew a chunk";
    }
    EXPECT_EQ(warm_tensor_allocs, 0u);
    EXPECT_EQ(warm_chunk_allocs, 0u);

#if CCSA_TEST_HAS_NEW_HOOK
    // Whole-process view: a warm no-grad iteration should spend far
    // fewer operator-new calls than the taped forward, which builds a
    // VarNode + closure + grad-ready Tensor per op. Non-tensor
    // allocations (result vectors, op index vectors) legitimately
    // remain, so this is a ratio bound, not a zero bound.
    {
        InferenceScope scope;
        (void)model.encodeMany(asts); // ensure warm
    }
    const std::uint64_t nograd0 =
        g_new_calls.load(std::memory_order_relaxed);
    {
        InferenceScope scope;
        (void)model.encodeMany(asts);
    }
    const std::uint64_t nograd_news =
        g_new_calls.load(std::memory_order_relaxed) - nograd0;

    const std::uint64_t taped0 =
        g_new_calls.load(std::memory_order_relaxed);
    (void)model.encodeMany(asts);
    const std::uint64_t taped_news =
        g_new_calls.load(std::memory_order_relaxed) - taped0;

    EXPECT_LT(nograd_news * 2, taped_news)
        << "no-grad warm iteration allocated " << nograd_news
        << " times vs " << taped_news << " taped";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    BiAndUni, WarmScopeAllocationTest,
    ::testing::Values(nn::TreeArch::Bi, nn::TreeArch::Uni));

// ------------------------------------------------------------------
// Concurrency: two threads, two scopes, one shared model. Run under
// TSan in CI — the arena is thread-local and the model is read-only,
// so there must be no shared mutable state between the threads.

TEST(InferenceScope, TwoThreadsTwoScopesOneSharedModel)
{
    std::vector<Ast> progs;
    progs.push_back(tinyProgram(1));
    progs.push_back(tinyProgram(4));
    std::vector<const Ast*> asts;
    for (const Ast& a : progs)
        asts.push_back(&a);

    EncoderConfig cfg;
    cfg.embedDim = 6;
    cfg.hiddenDim = 6;
    cfg.layers = 2;
    cfg.arch = nn::TreeArch::Alternating;
    const ComparativePredictor model(cfg, /*seed=*/29);

    std::vector<Tensor> reference;
    for (const ag::Var& v : model.encodeMany(asts))
        reference.push_back(v.value());

    std::atomic<int> mismatches{0};
    auto worker = [&]() {
        for (int iter = 0; iter < 3; ++iter) {
            InferenceScope scope;
            std::vector<ag::Var> encoded = model.encodeMany(asts);
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                const Tensor& got = encoded[i].value();
                if (std::memcmp(got.data(), reference[i].data(),
                                got.size() * sizeof(float)) != 0)
                    mismatches.fetch_add(1);
            }
        }
    };
    std::thread t1(worker);
    std::thread t2(worker);
    t1.join();
    t2.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace ccsa
