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
 * Since the ModelRegistry refactor the Engine no longer OWNS a
 * predictor: it resolves an immutable ModelVersion handle per request
 * batch — either a fixed version wrapped at construction (classic
 * single-model mode) or by name through a shared ModelRegistry
 * (multi-model mode, hot-swap safe: a batch keeps the snapshot it
 * resolved even while a new version is published mid-flight). Cache
 * keys are (model version id, structural digest), so versions and
 * models sharing one cache occupy isolated namespaces.
 *
 * Determinism contract: every probability produced by the batch
 * endpoints is bitwise-identical to a per-pair encode+classify of
 * the same version's weights and invariant to the thread count —
 * each tree's encoding is an independent computation, and the
 * classifier head always runs on the calling thread in request
 * order. Per model, a registry-backed engine is bitwise-identical
 * to a dedicated single-model engine on the same weights.
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

/** Batched, cached, thread-parallel serving facade. */
class Engine
{
  public:
    /**
     * Builder-style construction options subsuming EncoderConfig:
     * `Engine::Options().withHiddenDim(64).withThreads(4)`.
     */
    struct Options
    {
        /** Model architecture (ignored when wrapping a model). */
        EncoderConfig encoder;
        /** Weight-initialisation seed for fresh models. */
        std::uint64_t seed = 1;
        /** Maximum resident entries PER cache shard; aggregate
         * capacity is cacheShards * cacheCapacity. */
        std::size_t cacheCapacity = 4096;
        /** Encoding-cache partitions (independently locked, keys
         * routed by structural digest). 1 = classic single cache;
         * ignored when the Engine is handed an external shared
         * cache. */
        std::size_t cacheShards = 1;
        /** Storage precision of the PRIVATE encoding cache; fp16 or
         * int8 quantizes latents on insert and dequantizes on hit
         * (2-4x more trees resident at the same memory — see
         * latent_codec.hh). Ignored when the Engine is handed an
         * external shared cache, which fixed its precision at
         * construction. Miss results are served through the same
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

        Options& withEncoder(const EncoderConfig& cfg)
        {
            encoder = cfg;
            return *this;
        }

        Options& withEncoderKind(EncoderKind kind)
        {
            encoder.kind = kind;
            return *this;
        }

        Options& withEmbedDim(int dim)
        {
            encoder.embedDim = dim;
            return *this;
        }

        Options& withHiddenDim(int dim)
        {
            encoder.hiddenDim = dim;
            return *this;
        }

        Options& withLayers(int n)
        {
            encoder.layers = n;
            return *this;
        }

        Options& withArch(nn::TreeArch arch)
        {
            encoder.arch = arch;
            return *this;
        }

        Options& withSeed(std::uint64_t s)
        {
            seed = s;
            return *this;
        }

        Options& withCacheCapacity(std::size_t n)
        {
            cacheCapacity = n;
            return *this;
        }

        Options& withCacheShards(std::size_t n)
        {
            cacheShards = n == 0 ? 1 : n;
            return *this;
        }

        Options& withThreads(int n)
        {
            threads = n;
            return *this;
        }

        Options& withMetrics(MetricsRegistry* m)
        {
            metrics = m;
            return *this;
        }

        Options& withLatentPrecision(LatentPrecision p)
        {
            latentPrecision = p;
            return *this;
        }
    };

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

    /** Default-configured engine with a fresh (untrained) model. */
    Engine();

    /** Build a fresh (untrained) model per opts.encoder/opts.seed. */
    explicit Engine(Options opts);

    /** Serve an existing (typically trained) predictor. */
    explicit Engine(std::shared_ptr<ComparativePredictor> model);

    /** Serve an existing predictor with explicit serving options. */
    Engine(std::shared_ptr<ComparativePredictor> model, Options opts);

    /**
     * Serve an existing predictor through an EXTERNAL encoding
     * cache, shared with other engines. This is the sharded-serving
     * seam: every ShardedServer worker owns one of these engines and
     * they all resolve latents through the same partitioned cache,
     * so a tree encoded by any worker is visible to all of them while
     * still living on exactly one cache shard. The cache MUST have
     * been built namespace-aware (ShardedEncodingCache::makeShared);
     * anything else is a FatalError — a digest-only shared cache
     * would let two models serve each other's latents. Engines
     * handed the SAME model object share its cache namespace (and
     * therefore its latents); distinct models get isolated
     * namespaces. opts.cacheCapacity / opts.cacheShards are ignored
     * (the cache is already built).
     */
    Engine(std::shared_ptr<ComparativePredictor> model, Options opts,
           std::shared_ptr<ShardedEncodingCache> cache);

    /**
     * Serve a pre-wrapped immutable version through an external
     * namespace-aware cache — the seam for callers that manage
     * versions themselves (ShardedServer wraps its model once and
     * hands every worker the same version).
     */
    Engine(std::shared_ptr<const ModelVersion> version, Options opts,
           std::shared_ptr<ShardedEncodingCache> cache);

    /**
     * Multi-model mode: resolve models BY NAME through a shared
     * registry, one handle per request batch. Hot-swap safe — see
     * the file comment. Unnamed endpoints serve the registry's
     * default model.
     */
    explicit Engine(std::shared_ptr<ModelRegistry> registry);
    Engine(std::shared_ptr<ModelRegistry> registry, Options opts);
    Engine(std::shared_ptr<ModelRegistry> registry, Options opts,
           std::shared_ptr<ShardedEncodingCache> cache);

    /**
     * Resolve a model name to the version snapshot a batch would
     * serve right now. "" resolves the default model (the fixed
     * version in classic mode). Unknown names are InvalidArgument.
     */
    Result<std::shared_ptr<const ModelVersion>>
    resolveModel(const std::string& name) const;

    /** resolveModel over an explicit source: by name through
     * `registry` when it is non-null, else to the one `fixed`
     * version. The serving front end resolves at ADMISSION time
     * through this (it needs no engine of its own), so a request
     * admitted before a hot swap completes on the version it was
     * admitted under. */
    static Result<std::shared_ptr<const ModelVersion>>
    resolveModel(const ModelRegistry* registry,
                 const std::shared_ptr<const ModelVersion>& fixed,
                 const std::string& name);

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
     * Persist / restore the default model's weights. Classic mode
     * only: a registry-backed engine reports InvalidArgument — save
     * and load through the registry, which stamps real manifests and
     * publishes hot-swaps instead of mutating weights in place.
     */
    Status save(const std::string& path);
    Status load(const std::string& path);

    /**
     * The default model (classic mode: the fixed version's
     * predictor; registry mode: the current default version's).
     * FatalError when a registry-backed engine has no models yet.
     */
    ComparativePredictor& model();
    const ComparativePredictor& model() const;
    std::shared_ptr<ComparativePredictor> sharedModel();

    /** Current default version snapshot (see resolveModel("")). */
    std::shared_ptr<const ModelVersion> modelVersion() const;

    /** The registry, or nullptr for a classic engine. */
    const std::shared_ptr<ModelRegistry>& registry() const
    {
        return registry_;
    }

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
     * resolvable model (one row in classic mode; one per registered
     * name in registry mode, sorted by name). Retired hot-swapped
     * versions are not listed — their entries age out of the LRU. */
    std::vector<ModelCacheStats> perModelCacheStats() const;

    /**
     * Drop all cached encodings (every namespace). Rarely needed
     * since versions are immutable and namespaced; classic load()
     * already invalidates just its own namespace.
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

    /** Shared ctor tail: validate + allocate the private cache when
     * none was supplied. */
    void init(std::shared_ptr<ShardedEncodingCache> cache,
              bool externalCache);

    /** Fetch the phase instruments when opts_.metrics is set. */
    void initMetrics();

    /** Fixed version (classic mode); null in registry mode. */
    std::shared_ptr<const ModelVersion> version_;
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
