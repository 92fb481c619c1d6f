#include "serve/encoding_cache.hh"

#include <algorithm>
#include <atomic>

#include "base/logging.hh"

namespace ccsa
{

std::uint64_t
allocateModelNamespace()
{
    // 0 is never handed out: it stays the "no model" sentinel a
    // default-constructed EncodingKey carries.
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
}

template <class Value>
LruCache<Value>::LruCache(std::size_t capacity) : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("EncodingCache: capacity must be >= 1");
}

template <class Value>
const Value*
LruCache<Value>::find(const EncodingKey& key)
{
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        ++perNamespace_[key.modelVersion].misses;
        return nullptr;
    }
    ++stats_.hits;
    ++perNamespace_[key.modelVersion].hits;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
}

template <class Value>
void
LruCache<Value>::insert(const EncodingKey& key, Value value)
{
    const std::size_t bytes = value.payloadBytes();
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        // Overwrite of a resident key: residents is unchanged and
        // residentBytes swaps the old payload for the new one — the
        // new bytes are added before the old are subtracted so an
        // unsigned counter can't transiently underflow.
        const std::size_t old = it->second->value.payloadBytes();
        NamespaceStats& ns = perNamespace_[key.modelVersion];
        ns.residentBytes += bytes;
        ns.residentBytes -= old;
        residentBytes_ += bytes;
        residentBytes_ -= old;
        it->second->value = std::move(value);
        order_.splice(order_.begin(), order_, it->second);
        return;
    }
    order_.push_front(Entry{key, std::move(value)});
    entries_.emplace(key, order_.begin());
    NamespaceStats& inserted = perNamespace_[key.modelVersion];
    ++inserted.residents;
    inserted.residentBytes += bytes;
    residentBytes_ += bytes;
    while (entries_.size() > capacity_) {
        const Entry& victimEntry = order_.back();
        const EncodingKey& victim = victimEntry.key;
        const std::size_t victimBytes = victimEntry.value.payloadBytes();
        NamespaceStats& ns = perNamespace_[victim.modelVersion];
        ++ns.evictions;
        --ns.residents;
        ns.residentBytes -= victimBytes;
        residentBytes_ -= victimBytes;
        entries_.erase(victim);
        order_.pop_back();
        ++stats_.evictions;
    }

    // Bound the per-namespace counter map: continuous hot-swap mints
    // a fresh namespace per publish, and retired versions' rows would
    // otherwise accumulate forever. Once the map far exceeds anything
    // the resident set can reference, drop fully-evicted namespaces —
    // their counters are only lost long after the version retired.
    if (perNamespace_.size() >
        std::max<std::size_t>(64, 4 * capacity_)) {
        for (auto it = perNamespace_.begin();
             it != perNamespace_.end();) {
            if (it->second.residents == 0 &&
                !(it->first == key.modelVersion))
                it = perNamespace_.erase(it);
            else
                ++it;
        }
    }
}

template <class Value>
void
LruCache<Value>::clear()
{
    entries_.clear();
    order_.clear();
    residentBytes_ = 0;
    for (auto& [ns, stats] : perNamespace_) {
        stats.residents = 0;
        stats.residentBytes = 0;
    }
}

template <class Value>
typename LruCache<Value>::NamespaceStats
LruCache<Value>::namespaceStats(std::uint64_t modelVersion) const
{
    auto it = perNamespace_.find(modelVersion);
    return it == perNamespace_.end() ? NamespaceStats() : it->second;
}

template class LruCache<StoredLatent>;
template class LruCache<SubtreeState>;

EncodingCache::EncodingCache(std::size_t capacity,
                             LatentPrecision precision)
    : LruCache<StoredLatent>(capacity), precision_(precision)
{
}

bool
EncodingCache::lookup(const EncodingKey& key, Tensor* out)
{
    const StoredLatent* stored = find(key);
    if (stored != nullptr && out != nullptr)
        *out = decodeLatent(*stored);
    return stored != nullptr;
}

void
EncodingCache::insert(const EncodingKey& key, Tensor latent)
{
    LruCache<StoredLatent>::insert(key,
                                   encodeLatent(latent, precision_));
}

ShardedEncodingCache::ShardedEncodingCache(
    std::size_t numShards, std::size_t capacityPerShard,
    LatentPrecision precision)
    : capacityPerShard_(capacityPerShard), precision_(precision)
{
    if (numShards == 0)
        fatal("ShardedEncodingCache: numShards must be >= 1");
    shards_.reserve(numShards);
    for (std::size_t s = 0; s < numShards; ++s)
        shards_.push_back(
            std::make_unique<Shard>(capacityPerShard, precision));
}

bool
ShardedEncodingCache::lookup(const EncodingKey& key, Tensor* out)
{
    Shard& shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Decoded under the partition lock: the caller gets a private
    // Tensor and never holds a pointer into a concurrently evicting
    // cache.
    return shard.cache.lookup(key, out);
}

void
ShardedEncodingCache::insert(const EncodingKey& key, Tensor latent)
{
    Shard& shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.cache.insert(key, std::move(latent));
}

bool
ShardedEncodingCache::lookupState(const EncodingKey& key, float* out,
                                  std::size_t count)
{
    Shard& shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.stateMutex);
    // Copied out under the partition lock, like a latent hit.
    const SubtreeState* state = shard.states.find(key);
    if (state == nullptr || state->values.size() != count)
        return false;
    std::copy(state->values.begin(), state->values.end(), out);
    return true;
}

void
ShardedEncodingCache::insertState(const EncodingKey& key,
                                  const float* states,
                                  std::size_t count)
{
    SubtreeState value{std::vector<float>(states, states + count)};
    Shard& shard = *shards_[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.stateMutex);
    shard.states.insert(key, std::move(value));
}

void
ShardedEncodingCache::clear()
{
    for (auto& shard : shards_) {
        {
            std::lock_guard<std::mutex> lock(shard->mutex);
            shard->cache.clear();
        }
        std::lock_guard<std::mutex> lock(shard->stateMutex);
        shard->states.clear();
    }
}

std::size_t
ShardedEncodingCache::size() const
{
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->cache.size();
    }
    return total;
}

std::size_t
ShardedEncodingCache::shardSize(std::size_t shard) const
{
    if (shard >= shards_.size())
        fatal("ShardedEncodingCache: shard index out of range");
    std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
    return shards_[shard]->cache.size();
}

EncodingCache::Stats
ShardedEncodingCache::stats() const
{
    EncodingCache::Stats total;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        const EncodingCache::Stats& s = shard->cache.stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
    }
    return total;
}

EncodingCache::Stats
ShardedEncodingCache::shardStats(std::size_t shard) const
{
    if (shard >= shards_.size())
        fatal("ShardedEncodingCache: shard index out of range");
    std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
    return shards_[shard]->cache.stats();
}

EncodingCache::NamespaceStats
ShardedEncodingCache::namespaceStats(std::uint64_t modelVersion) const
{
    EncodingCache::NamespaceStats total;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->cache.namespaceStats(modelVersion);
    }
    return total;
}

LruNamespaceStats
ShardedEncodingCache::stateStats() const
{
    LruNamespaceStats total;
    for (std::size_t s = 0; s < shards_.size(); ++s)
        total += stateShardStats(s);
    return total;
}

LruNamespaceStats
ShardedEncodingCache::stateShardStats(std::size_t shard) const
{
    if (shard >= shards_.size())
        fatal("ShardedEncodingCache: shard index out of range");
    const Shard& part = *shards_[shard];
    std::lock_guard<std::mutex> lock(part.stateMutex);
    LruNamespaceStats out;
    out.hits = part.states.stats().hits;
    out.misses = part.states.stats().misses;
    out.evictions = part.states.stats().evictions;
    out.residents = part.states.size();
    out.residentBytes = part.states.residentBytes();
    return out;
}

LruNamespaceStats
ShardedEncodingCache::stateNamespaceStats(
    std::uint64_t modelVersion) const
{
    LruNamespaceStats total;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->stateMutex);
        total += shard->states.namespaceStats(modelVersion);
    }
    return total;
}

} // namespace ccsa
