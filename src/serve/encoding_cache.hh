/**
 * @file
 * LRU cache of encoded latents keyed by (model version, AST content).
 * The encoders consume only the node-kind sequence and the tree
 * shape, so two structurally identical trees — however they were
 * parsed or where they live in memory — share one cache entry PER
 * MODEL VERSION. Serving workloads are dominated by repeated
 * candidates (ranking tournaments, regression watch over commit
 * history), which is exactly what an LRU rewards.
 *
 * Keys pair a model-version namespace id with a 128-bit structural
 * digest (digestAst in ast/ast.hh: two independent FNV-1a streams
 * over the kind/parent arrays, memoized in the tree); a digest
 * collision needs ~2^64 distinct trees, far beyond any corpus this
 * system serves. The namespace id is what lets many model versions
 * share one cache without ever serving each other's latents: a
 * hot-swapped version gets a fresh namespace and the old version's
 * entries simply age out of the LRU.
 *
 * Beside the latents, every partition keeps a second LRU of exact
 * fp32 tree-LSTM subtree states keyed by (model version, Merkle
 * digest of the subtree): what the hash-consed encoder reads instead
 * of recomputing a subtree it has seen before (model/
 * subtree_store.hh). Both LRUs are one template, so namespaces,
 * counters and eviction behave identically.
 */

#ifndef CCSA_SERVE_ENCODING_CACHE_HH
#define CCSA_SERVE_ENCODING_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ast/ast.hh"
#include "model/subtree_store.hh"
#include "serve/latent_codec.hh"
#include "tensor/tensor.hh"

namespace ccsa
{

/**
 * Full cache key: which model version encoded the latent, and the
 * structural digest of the tree it encodes. Two models (or two
 * versions of one model) sharing a cache can never cross-read: their
 * namespace ids differ, so their keys differ even for the same tree.
 */
struct EncodingKey
{
    /** Model-version namespace (ModelVersion::id). */
    std::uint64_t modelVersion = 0;
    AstDigest digest;

    bool
    operator==(const EncodingKey& other) const
    {
        return modelVersion == other.modelVersion &&
            digest == other.digest;
    }
};

/** Hash functor so EncodingKey can key unordered containers. */
struct EncodingKeyHash
{
    std::size_t
    operator()(const EncodingKey& k) const
    {
        return AstDigestHash()(k.digest) ^
            static_cast<std::size_t>(
                k.modelVersion * 0x9E3779B97F4A7C15ULL);
    }
};

/**
 * @return a fresh process-unique model-version namespace id
 * (monotonically increasing, never reused, never 0). Every
 * ModelVersion a ModelRegistry publishes draws from this one
 * counter, so namespaces can never collide no matter which caches
 * and registries end up sharing a process.
 */
std::uint64_t allocateModelNamespace();

/** Running hit/miss/eviction counters of one LRU (all namespaces). */
struct LruStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
};

/** Per-model-version counters, plus that version's resident entry
 * count (evictions are attributed to the namespace of the evicted
 * entry, so per-namespace rows partition the global counters
 * exactly). Rows for long-retired, fully-evicted namespaces are
 * garbage-collected once the map far outgrows the cache capacity, so
 * continuous hot-swap cannot grow it without bound. */
struct LruNamespaceStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t residents = 0;
    /** Payload bytes of this namespace's resident entries AS STORED
     * — for latents the compressed size under fp16/int8, element
     * count * sizeof(float) under fp32 (excludes map/list overhead).
     * What the metrics plane exports as ccsa_cache_resident_bytes
     * (ccsa_subtree_store_resident_bytes for subtree states). */
    std::size_t residentBytes = 0;

    LruNamespaceStats&
    operator+=(const LruNamespaceStats& o)
    {
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        residents += o.residents;
        residentBytes += o.residentBytes;
        return *this;
    }
};

/**
 * Least-recently-used map from EncodingKey to a stored value — the
 * one LRU behind both serving stores (encoded latents and subtree
 * states). Value must expose payloadBytes(). Not internally
 * synchronised: callers go through ShardedEncodingCache, which wraps
 * each partition in its own mutex. Lookup and insert are NOT one
 * atomic unit there — two engines can miss on the same key and both
 * encode it, a benign duplicate since encoding is deterministic and
 * the last insert wins with an identical value.
 */
template <class Value>
class LruCache
{
  public:
    using Stats = LruStats;
    using NamespaceStats = LruNamespaceStats;

    /** @param capacity maximum resident entries (>= 1). */
    explicit LruCache(std::size_t capacity);

    /**
     * Look up a key, counting the hit or miss and refreshing recency
     * on a hit. @return the resident value, valid until the next
     * mutating call, or nullptr on a miss.
     */
    const Value* find(const EncodingKey& key);

    /**
     * Insert (or overwrite) an entry, evicting the least recently
     * used entries when over capacity. Eviction is capacity-global:
     * a hot namespace can push a cold one's entries out, which is
     * the intended behaviour for retired model versions.
     */
    void insert(const EncodingKey& key, Value value);

    /** Drop every entry (counters are preserved). */
    void clear();

    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }
    const Stats& stats() const { return stats_; }

    /** Payload bytes of every resident entry (all namespaces). */
    std::size_t residentBytes() const { return residentBytes_; }

    /** One namespace's counters (zeros for an unseen namespace). */
    NamespaceStats namespaceStats(std::uint64_t modelVersion) const;

  private:
    struct Entry
    {
        EncodingKey key;
        Value value;
    };

    /** Front = most recently used. */
    std::list<Entry> order_;
    std::unordered_map<EncodingKey, typename std::list<Entry>::iterator,
                       EncodingKeyHash> entries_;
    std::size_t capacity_;
    Stats stats_;
    std::size_t residentBytes_ = 0;
    std::unordered_map<std::uint64_t, NamespaceStats> perNamespace_;
};

/**
 * LRU of encoded latents (1 x d row vectors) at a storage precision:
 * fp16/int8 entries are quantized on insert and dequantized on hit
 * (see latent_codec.hh).
 */
class EncodingCache : public LruCache<StoredLatent>
{
  public:
    /**
     * @param capacity maximum resident entries (>= 1).
     * @param precision storage precision for resident latents;
     * trading ~1e-3 relative error for 2-4x more trees resident at
     * the same memory.
     */
    explicit EncodingCache(
        std::size_t capacity,
        LatentPrecision precision = LatentPrecision::kFp32);

    /**
     * Look up a key, refreshing its recency on a hit.
     * @return true on a hit, decoding the stored latent into *out
     * when out is non-null (under fp16/int8 this materialises the
     * dequantized values; under fp32 it is a bit-exact copy). Pass
     * out == nullptr for a presence probe that still refreshes
     * recency and counts the hit.
     */
    bool lookup(const EncodingKey& key, Tensor* out = nullptr);

    /** Quantize and insert (or overwrite) a latent. */
    void insert(const EncodingKey& key, Tensor latent);

    LatentPrecision precision() const { return precision_; }

  private:
    LatentPrecision precision_;
};

/** Exact fp32 tree-LSTM states of one subtree (the layout of
 * SubtreeStateStore). */
struct SubtreeState
{
    std::vector<float> values;

    std::size_t
    payloadBytes() const
    {
        return values.size() * sizeof(float);
    }
};

/**
 * A partitioned, independently-locked view over N EncodingCaches —
 * the shared cache under sharded and multi-model serving. Every key
 * is owned by exactly one partition (`shardOf(digest) ==
 * digest % numShards` on the digest's low word — routing ignores the
 * namespace, so every version of a tree lives on the same shard),
 * per-shard hit/miss/eviction counters partition the unsharded
 * counters exactly, and eviction pressure in one shard can never
 * invalidate an entry held by another. Each partition has its own
 * mutex: concurrent workers touching different shards never contend.
 *
 * With numShards == 1 this is behaviourally identical to a single
 * mutex-guarded EncodingCache — the Engine always goes through this
 * class so the sharded and unsharded code paths cannot drift.
 *
 * Any cache may be shared between engines (sharded serving, model
 * registries): every key carries its ModelVersion's process-unique
 * id, so two models sharing a cache can never serve each other's
 * latents, while engines serving one version share them.
 */
class ShardedEncodingCache
{
  public:
    /**
     * A partitioned cache.
     * @param numShards partition count (>= 1).
     * @param capacityPerShard LRU capacity of EACH partition (>= 1);
     * aggregate capacity is numShards * capacityPerShard, which is
     * the point of sharding: memory scales with the shard count while
     * per-shard eviction behaviour stays local.
     * @param precision storage precision applied by every partition.
     */
    ShardedEncodingCache(
        std::size_t numShards, std::size_t capacityPerShard,
        LatentPrecision precision = LatentPrecision::kFp32);

    ShardedEncodingCache(const ShardedEncodingCache&) = delete;
    ShardedEncodingCache& operator=(const ShardedEncodingCache&) =
        delete;

    /** @return the partition that owns a digest under n shards. */
    static std::size_t
    shardOf(const AstDigest& key, std::size_t numShards)
    {
        return static_cast<std::size_t>(key.lo % numShards);
    }

    /** @return the partition that owns a key (digest routing). */
    std::size_t
    shardOf(const EncodingKey& key) const
    {
        return shardOf(key.digest, shards_.size());
    }

    /**
     * Look up a key on its owning partition, refreshing recency on a
     * hit. The latent is copied out under the partition lock so the
     * caller never holds a pointer into a concurrently evicting
     * cache.
     * @return true and fill *out on a hit; false on a miss.
     */
    bool lookup(const EncodingKey& key, Tensor* out);

    /** Insert (or overwrite) on the owning partition, evicting that
     * partition's LRU entries when it is over capacity. */
    void insert(const EncodingKey& key, Tensor latent);

    /**
     * Subtree-state store: copy the states stored under `key` into
     * `out` under the owning partition's lock. @return false on a
     * miss (or a block of another size).
     */
    bool lookupState(const EncodingKey& key, float* out,
                     std::size_t count);

    /** Insert (or overwrite) a subtree's states on its owning
     * partition, evicting that partition's least recently used
     * states when over budget. */
    void insertState(const EncodingKey& key, const float* states,
                     std::size_t count);

    /** Drop every latent and subtree state in every partition
     * (counters preserved). */
    void clear();

    /** @return total resident entries across all partitions. */
    std::size_t size() const;

    /** @return resident entries in one partition. */
    std::size_t shardSize(std::size_t shard) const;

    /** @return counters summed across partitions — by construction
     * equal to what one unsharded cache serving the same keys under
     * the same per-key eviction pressure would report. */
    EncodingCache::Stats stats() const;

    /** @return one partition's counters. */
    EncodingCache::Stats shardStats(std::size_t shard) const;

    /** @return one namespace's counters summed across partitions —
     * the per-model rows surfaced through ServerStats. */
    EncodingCache::NamespaceStats
    namespaceStats(std::uint64_t modelVersion) const;

    /** @return subtree-state store counters, resident entries and
     * bytes: all partitions, one partition, or one namespace. */
    LruNamespaceStats stateStats() const;
    LruNamespaceStats stateShardStats(std::size_t shard) const;
    LruNamespaceStats stateNamespaceStats(std::uint64_t modelVersion) const;

    std::size_t numShards() const { return shards_.size(); }
    std::size_t capacityPerShard() const { return capacityPerShard_; }
    LatentPrecision precision() const { return precision_; }

  private:
    /** One partition: the latent LRU and, under its own lock so
     * state traffic never stalls a latent hit, the subtree-state
     * LRU. The state budget equals the latent capacity in entries,
     * and the two evict independently: state churn can never push
     * out a resident latent. */
    struct Shard
    {
        mutable std::mutex mutex;
        EncodingCache cache;
        mutable std::mutex stateMutex;
        LruCache<SubtreeState> states;

        Shard(std::size_t capacity, LatentPrecision precision)
            : cache(capacity, precision), states(capacity)
        {
        }
    };

    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t capacityPerShard_;
    LatentPrecision precision_ = LatentPrecision::kFp32;
};

/**
 * One model namespace of a cache's subtree-state store, as the
 * encoder sees it. Engines sharing a cache share its states the way
 * they share its latents; another namespace can never read them.
 */
class NamespaceStateStore : public SubtreeStateStore
{
  public:
    NamespaceStateStore(ShardedEncodingCache& cache,
                        std::uint64_t modelVersion)
        : cache_(cache), modelVersion_(modelVersion)
    {
    }

    bool
    lookup(const AstDigest& digest, float* out,
           std::size_t count) override
    {
        return cache_.lookupState(EncodingKey{modelVersion_, digest},
                                  out, count);
    }

    void
    insert(const AstDigest& digest, const float* states,
           std::size_t count) override
    {
        cache_.insertState(EncodingKey{modelVersion_, digest}, states,
                           count);
    }

  private:
    ShardedEncodingCache& cache_;
    std::uint64_t modelVersion_;
};

} // namespace ccsa

#endif // CCSA_SERVE_ENCODING_CACHE_HH
