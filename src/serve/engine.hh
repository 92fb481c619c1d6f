/**
 * @file
 * ccsa::Engine — the serving facade and canonical public API of the
 * library. Where ComparativePredictor answers one pair at a time and
 * re-encodes both trees on every call, the Engine is shaped like the
 * paper's actual product (rank many candidate versions of a program):
 * it dedups and caches encodings across requests, encodes batch
 * misses in parallel on a ThreadPool, fans cached latents across all
 * pairs that reference them, and reports per-request failures through
 * Status/Result instead of exceptions.
 *
 * Every Engine serves through a ModelRegistry, the one place a model
 * gets its name and cache namespace: it resolves an immutable
 * ModelVersion handle per request batch, by name, so a batch keeps
 * the snapshot it resolved even while a new version is published
 * mid-flight. A bare model is a private registry of one, published as
 * "model" (sequence 1). Cache keys are (model version id, structural
 * digest), and every id is process-unique, so versions and models
 * sharing one cache occupy isolated namespaces.
 *
 * Determinism contract: every probability produced by the batch
 * endpoints is bitwise-identical to a per-pair encode+classify of
 * the same version's weights and invariant to the thread count —
 * each tree's encoding is an independent computation, and the
 * classifier head always runs on the calling thread in request
 * order. Per model, an engine serving many models is
 * bitwise-identical to one serving only that model.
 */

#ifndef CCSA_SERVE_ENGINE_HH
#define CCSA_SERVE_ENGINE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/result.hh"
#include "base/thread_pool.hh"
#include "model/predictor.hh"
#include "serve/encoding_cache.hh"
#include "serve/model_registry.hh"

namespace ccsa
{

class Counter;
class MetricsRegistry;
class WindowedHistogram;

/** One model's cache-namespace counters (see Engine::
 * perModelCacheStats / ServerStats::models). */
struct ModelCacheStats
{
    std::string name;
    /** Cache namespace id of the CURRENT version. */
    std::uint64_t versionId = 0;
    /** Publish sequence of the current version. */
    std::uint64_t sequence = 0;
    EncodingCache::NamespaceStats cache;
    /** The same namespace in the subtree-state store. */
    LruNamespaceStats states;
};

/**
 * Engine construction options (Engine::Options), builder-style and
 * subsuming EncoderConfig:
 * `Engine::Options().withHiddenDim(64).withThreads(4)`.
 */
struct EngineOptions
{
    /** Architecture of the fresh model Engine(Options) builds. */
    EncoderConfig encoder;
    /** Weight-initialisation seed for fresh models. */
    std::uint64_t seed = 1;
    /** Maximum resident entries PER cache shard; aggregate
     * capacity is cacheShards * cacheCapacity. */
    std::size_t cacheCapacity = 4096;
    /** Encoding-cache partitions (independently locked, keys
     * routed by structural digest). Ignored when the Engine is
     * handed a shared cache. */
    std::size_t cacheShards = 1;
    /** Storage precision of the PRIVATE encoding cache; fp16 or
     * int8 quantizes latents on insert and dequantizes on hit
     * (2-4x more trees resident at the same memory — see
     * latent_codec.hh). Ignored when the Engine is handed a
     * shared cache, which fixed its precision at construction. Miss results are served through the same
     * quantize/dequantize roundtrip the cache stores, so hit and
     * miss answers are bitwise-identical at any precision. */
    LatentPrecision latentPrecision = LatentPrecision::kFp32;
    /** Encoder worker threads; 0 = hardware, 1 = inline. */
    int threads = 0;
    /** Optional metrics plane (serve/metrics). Not owned; must
     * outlive the engine. When set, every compareMany records
     * its encode/score wall time into the
     * ccsa_engine_phase_us{phase=...} windowed histograms. */
    MetricsRegistry* metrics = nullptr;

    EngineOptions& withEncoder(const EncoderConfig& cfg)
    {
        encoder = cfg;
        return *this;
    }

    EngineOptions& withEncoderKind(EncoderKind kind)
    {
        encoder.kind = kind;
        return *this;
    }

    EngineOptions& withEmbedDim(int dim)
    {
        encoder.embedDim = dim;
        return *this;
    }

    EngineOptions& withHiddenDim(int dim)
    {
        encoder.hiddenDim = dim;
        return *this;
    }

    EngineOptions& withLayers(int n)
    {
        encoder.layers = n;
        return *this;
    }

    EngineOptions& withArch(nn::TreeArch arch)
    {
        encoder.arch = arch;
        return *this;
    }

    EngineOptions& withSeed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }

    EngineOptions& withCacheCapacity(std::size_t n)
    {
        cacheCapacity = n;
        return *this;
    }

    EngineOptions& withCacheShards(std::size_t n)
    {
        cacheShards = n == 0 ? 1 : n;
        return *this;
    }

    EngineOptions& withThreads(int n)
    {
        threads = n;
        return *this;
    }

    EngineOptions& withMetrics(MetricsRegistry* m)
    {
        metrics = m;
        return *this;
    }

    EngineOptions& withLatentPrecision(LatentPrecision p)
    {
        latentPrecision = p;
        return *this;
    }
};

/** Batched, cached, thread-parallel serving facade. */
class Engine
{
  public:
    /** Construction options (declared at namespace scope as
     * EngineOptions, so constructors can default them). */
    using Options = EngineOptions;

    /** One comparison request; both trees must outlive the call. */
    struct PairRequest
    {
        const Ast* first = nullptr;
        const Ast* second = nullptr;
    };

    /** rank() output, best candidate first. */
    struct RankedCandidate
    {
        /** Index into the candidates vector passed to rank(). */
        int index = 0;
        /** Round-robin wins (candidate predicted faster). */
        int wins = 0;
        /** Mean probability of being the faster element of a pair. */
        double meanProbFaster = 0.0;
    };

    /** Serving counters (cache behaviour + request volume). */
    struct Stats
    {
        std::uint64_t cacheHits = 0;
        std::uint64_t cacheMisses = 0;
        std::uint64_t cacheEvictions = 0;
        std::size_t cacheSize = 0;
        std::uint64_t pairsServed = 0;
        std::uint64_t treesEncoded = 0;
        /** Nodes of the trees the hash-consed encoder encoded (the
         * tape-free uni-directional tree-LSTM; zero for other
         * encoders), by where their states came from: computed once
         * per distinct subtree, read from the subtree-state store, or
         * repeats of a subtree computed or read in the same call. */
        std::uint64_t subtreeNodesComputed = 0;
        std::uint64_t subtreeNodesFromStore = 0;
        std::uint64_t subtreeNodesDeduped = 0;
        /** The (possibly shared) subtree-state store beside the
         * latent cache: resident entries, their payload bytes, and
         * evictions. Kept apart from the latent fields above. */
        std::size_t stateStoreEntries = 0;
        std::size_t stateStoreBytes = 0;
        std::uint64_t stateStoreEvictions = 0;
    };

    /** Serve a fresh (untrained) model built per opts.encoder and
     * opts.seed. */
    explicit Engine(Options opts = {});

    /** Serve an existing (typically trained) predictor, published as
     * "model" (sequence 1) in a private registry of one. */
    explicit Engine(std::shared_ptr<ComparativePredictor> model,
                    Options opts = {});

    /**
     * Serve exactly `version` (its id, name and sequence) through a
     * cache shared with other engines: latents this engine encodes
     * land in that version's namespace, where every other engine
     * serving the version reads them (e.g. to make trees resident in
     * a ShardedServer shard's namespace).
     */
    Engine(std::shared_ptr<const ModelVersion> version, Options opts,
           std::shared_ptr<ShardedEncodingCache> cache);

    /**
     * Resolve models BY NAME through a shared registry, one handle
     * per request batch. Hot-swap safe — see the file comment.
     * Unnamed endpoints serve the registry's default model. A null
     * `cache` gives the engine a private one built from opts. Any
     * cache may be shared with other engines, because every key
     * carries its version's process-unique id (opts.cacheCapacity,
     * cacheShards and latentPrecision are then ignored).
     */
    explicit Engine(std::shared_ptr<ModelRegistry> registry,
                    Options opts = {},
                    std::shared_ptr<ShardedEncodingCache> cache = nullptr);

    /**
     * Resolve a model name to the version snapshot a batch would
     * serve right now. "" resolves the default model. Unknown names
     * are InvalidArgument.
     */
    Result<std::shared_ptr<const ModelVersion>>
    resolveModel(const std::string& name) const;

    /** resolveModel through an explicit registry. The serving front
     * end resolves at ADMISSION time through this (it needs no
     * engine of its own), so a request admitted before a hot swap
     * completes on the version it was admitted under. */
    static Result<std::shared_ptr<const ModelVersion>>
    resolveModel(const ModelRegistry& registry, const std::string& name);

    /**
     * Encode a batch of trees, one latent row vector per input, in
     * input order. Each distinct tree (by structural digest) is
     * encoded at most once; cache hits skip encoding entirely and
     * misses run data-parallel on the thread pool. A tree-LSTM
     * (uni-directional) miss computes only the subtrees the cache's
     * subtree-state store does not hold, and stores the ones it
     * computes; results do not depend on what the store holds.
     */
    Result<std::vector<Tensor>>
    encodeBatch(const std::vector<const Ast*>& trees);

    /** encodeBatch through a named model. */
    Result<std::vector<Tensor>>
    encodeBatch(const std::string& model,
                const std::vector<const Ast*>& trees);

    /** encodeBatch on an explicit version snapshot. */
    Result<std::vector<Tensor>>
    encodeBatch(const ModelVersion& version,
                const std::vector<const Ast*>& trees);

    /**
     * P(first slower-or-equal) for every requested pair, in request
     * order (paper Eq. 1: > 0.5 means the second program is the
     * better version). All trees across all pairs share one encoding
     * batch.
     */
    Result<std::vector<double>>
    compareMany(const std::vector<PairRequest>& pairs);

    /** compareMany through a named model. */
    Result<std::vector<double>>
    compareMany(const std::string& model,
                const std::vector<PairRequest>& pairs);

    /** Wall-clock boundaries of one compareMany call's pipeline
     * stages, for per-request trace spans (serve/trace): encode
     * covers the shared encodeBatch (cache walk + miss encoding),
     * score the classifier-head loop. Every member of a coalesced
     * group shares the group's window. */
    struct PhaseTiming
    {
        std::chrono::steady_clock::time_point encodeStart{};
        std::chrono::steady_clock::time_point encodeEnd{};
        std::chrono::steady_clock::time_point scoreEnd{};
    };

    /** compareMany on an explicit version snapshot — what the async
     * batchers execute per coalesced (model, pairs) group. `timing`,
     * when non-null, receives the encode/score stage boundaries. */
    Result<std::vector<double>>
    compareMany(const ModelVersion& version,
                const std::vector<PairRequest>& pairs,
                PhaseTiming* timing = nullptr);

    /**
     * compareMany against latents ALREADY resident in the encoding
     * cache, addressed by structural digest — no trees needed. The
     * IPC worker loop serves its hot path with this: the encode RPC
     * ships the batch's trees once and warms the cache, then the
     * compare RPC references them by digest. Refuses with
     * ResourceExhausted BEFORE any head work if any latent is not
     * resident (e.g. evicted because the cache is smaller than the
     * batch's working set), so a caller can fall back to a
     * self-contained compareMany without risking double execution.
     */
    Result<std::vector<double>> compareManyCached(
        const std::vector<std::pair<AstDigest, AstDigest>>& pairs);

    /** Single-pair convenience over compareMany(). */
    Result<double> compare(const Ast& first, const Ast& second);

    /** Parse + prune + compare; parse errors come back as Status. */
    Result<double> compareSources(const std::string& first,
                                  const std::string& second);

    /**
     * Round-robin tournament over candidate versions of a program
     * (the paper's algorithm-selection use case). Every ordered pair
     * is compared through one shared encoding batch; candidates come
     * back best-first (wins, then meanProbFaster).
     */
    Result<std::vector<RankedCandidate>>
    rank(const std::vector<const Ast*>& candidates);

    /** rank through a named model. */
    Result<std::vector<RankedCandidate>>
    rank(const std::string& model,
         const std::vector<const Ast*>& candidates);

    /**
     * Build the ordered round-robin pair list rank() scores: every
     * (i, j), i != j, in row-major order over n candidates. Exposed
     * so the async serving layer submits exactly the pairs rank()
     * would.
     */
    static std::vector<PairRequest>
    tournamentPairs(const std::vector<const Ast*>& candidates);

    /**
     * Aggregate round-robin probabilities (as produced by
     * compareMany() over tournamentPairs()) into a best-first
     * ranking. Deterministic and shared with the serving front end,
     * so served rankings are bitwise-identical to rank(). `probs` must hold
     * n * (n - 1) entries.
     */
    static std::vector<RankedCandidate>
    aggregateTournament(std::size_t n,
                        const std::vector<double>& probs);

    /** Parse + prune one source file without aborting on errors. */
    static Result<Ast> parseSource(const std::string& source);

    /**
     * The default model: the current default version's predictor.
     * FatalError when the registry has no models.
     */
    ComparativePredictor& model();
    const ComparativePredictor& model() const;
    std::shared_ptr<ComparativePredictor> sharedModel();

    /** Current default version snapshot (see resolveModel("")). */
    std::shared_ptr<const ModelVersion> modelVersion() const;

    /** The (possibly shared) partitioned encoding cache. */
    ShardedEncodingCache& cache() { return *cache_; }
    const ShardedEncodingCache& cache() const { return *cache_; }
    std::shared_ptr<ShardedEncodingCache> sharedCache()
    {
        return cache_;
    }

    /** Snapshot of the serving counters. */
    Stats stats() const;

    /** Per-model cache-namespace counters for every CURRENTLY
     * resolvable model, one row per registered name, sorted by name.
     * Retired hot-swapped versions are not listed — their entries
     * age out of the LRU. */
    std::vector<ModelCacheStats> perModelCacheStats() const;

    /**
     * Drop all cached encodings (every namespace). Rarely needed
     * since versions are immutable and namespaced.
     */
    void invalidateCache();

  private:
    /** A batch's distinct latents in first-appearance order, and the
     * slot of each input reference among them. */
    struct DistinctLatents
    {
        std::vector<Tensor> latents;
        std::vector<std::size_t> slotOf;
    };

    /** encodeBatch's work, without copying a latent per reference:
     * compareMany scores straight from the distinct latents. */
    Result<DistinctLatents>
    encodeDistinctLatents(const ModelVersion& version,
                          const std::vector<const Ast*>& trees);

    /** Fetch the phase instruments when opts_.metrics is set. */
    void initMetrics();

    std::shared_ptr<ModelRegistry> registry_;
    Options opts_;
    ThreadPool pool_;
    std::shared_ptr<ShardedEncodingCache> cache_;
    /** Phase instruments (registry-owned; null without metrics). */
    WindowedHistogram* phaseEncodeUs_ = nullptr;
    WindowedHistogram* phaseScoreUs_ = nullptr;
    /** ccsa_encode_subtree_nodes_total{source=...}. */
    Counter* nodesComputed_ = nullptr;
    Counter* nodesFromStore_ = nullptr;
    Counter* nodesDeduped_ = nullptr;
    /** Guards the volume counters below (the cache locks itself). */
    mutable std::mutex mutex_;
    std::uint64_t pairsServed_ = 0;
    std::uint64_t treesEncoded_ = 0;
    SubtreeReuse reuse_;
};

} // namespace ccsa

#endif // CCSA_SERVE_ENGINE_HH
