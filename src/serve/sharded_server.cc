#include "serve/sharded_server.hh"

#include <algorithm>
#include <utility>

namespace ccsa
{

namespace
{

/** A bare model served alone: a registry of one, published as
 * "model". */
std::shared_ptr<ModelRegistry>
registryOf(std::shared_ptr<ComparativePredictor> model)
{
    auto registry = std::make_shared<ModelRegistry>();
    registry->publish("model", std::move(model));
    return registry;
}

} // namespace

/** The in-process backend: one Engine per shard over one shared
 * partitioned cache, so every shard can serve any slice from the one
 * shared request queue. */
class ShardedServer::Engines final : public ShardBackend
{
  public:
    /** Shards serving `models` by name. Every shard engine resolves
     * the same versions, so they share each version's cache
     * namespace: a latent encoded by any shard serves all of them. */
    Engines(std::shared_ptr<ModelRegistry> models,
            Engine::Options engineOpts, const Options& opts)
        : ShardBackend("ShardedServer", "sharded",
                       /*queuePerShard=*/false, std::move(models)),
          cache(std::make_shared<ShardedEncodingCache>(
              std::max<std::size_t>(opts.numShards, 1),
              engineOpts.cacheCapacity, engineOpts.latentPrecision))
    {
        engineOpts.threads = opts.threadsPerShard;
        for (std::size_t s = 0; s < cache->numShards(); ++s)
            engines.push_back(
                std::make_unique<Engine>(registry, engineOpts, cache));
    }

    Status
    run(std::size_t shard, const ModelBatches& batch,
        BatchAnswer& answer) override
    {
        // Other shards run their own ticks concurrently; the shared
        // cache dedups latents per version across all of them.
        answer.results.clear();
        answer.timings.assign(batch.groups.size(), Engine::PhaseTiming{});
        for (std::size_t g = 0; g < batch.groups.size(); ++g)
            answer.results.push_back(engines[shard]->compareMany(
                *batch.groups[g].version, batch.groups[g].pairs,
                &answer.timings[g]));
        return Status::ok();
    }

    void
    fillShardStats(std::size_t s, ServerStats& row) const override
    {
        // Engine volume is per shard engine; cache and state-store
        // counters are the shard's PARTITION of the shared cache, so
        // the per-shard rows partition the aggregate exactly.
        Engine::Stats engine = engines[s]->stats();
        EncodingCache::Stats part = cache->shardStats(s);
        LruNamespaceStats states = cache->stateShardStats(s);
        row.engine.treesEncoded = engine.treesEncoded;
        row.engine.pairsServed = engine.pairsServed;
        row.engine.subtreeNodesComputed = engine.subtreeNodesComputed;
        row.engine.subtreeNodesFromStore = engine.subtreeNodesFromStore;
        row.engine.subtreeNodesDeduped = engine.subtreeNodesDeduped;
        row.engine.cacheHits = part.hits;
        row.engine.cacheMisses = part.misses;
        row.engine.cacheEvictions = part.evictions;
        row.engine.cacheSize = cache->shardSize(s);
        row.engine.stateStoreEntries = states.residents;
        row.engine.stateStoreBytes = states.residentBytes;
        row.engine.stateStoreEvictions = states.evictions;
    }

    std::vector<ModelCacheStats>
    modelStats() const override
    {
        // Every shard engine sees the same registry and shared cache,
        // so one engine's per-model rows describe the whole server.
        return engines[0]->perModelCacheStats();
    }

    std::shared_ptr<ShardedEncodingCache> cache;
    std::vector<std::unique_ptr<Engine>> engines;
};

ShardedServer::ShardedServer(Engine::Options engineOpts)
    : ShardedServer(std::move(engineOpts), Options())
{
}

ShardedServer::ShardedServer(Engine::Options engineOpts, Options opts)
    : ShardedServer(std::make_shared<ComparativePredictor>(
                        engineOpts.encoder, engineOpts.seed),
                    engineOpts, opts)
{
}

ShardedServer::ShardedServer(
    std::shared_ptr<ComparativePredictor> model,
    Engine::Options engineOpts, Options opts)
    : ShardedServer(registryOf(std::move(model)), std::move(engineOpts),
                    opts)
{
}

ShardedServer::ShardedServer(std::shared_ptr<ModelRegistry> registry,
                             Engine::Options engineOpts, Options opts)
    : ShardedServer(std::make_unique<Engines>(std::move(registry),
                                              std::move(engineOpts),
                                              opts),
                    opts)
{
}

ShardedServer::ShardedServer(std::unique_ptr<Engines> engines,
                             Options opts)
    : FrontEnd(std::move(engines), opts),
      opts_(opts),
      engines_(static_cast<Engines&>(backend()))
{
}

Engine&
ShardedServer::shardEngine(std::size_t s)
{
    if (s >= engines_.engines.size())
        fatal("ShardedServer: shard index out of range");
    return *engines_.engines[s];
}

ShardedEncodingCache&
ShardedServer::cache()
{
    return *engines_.cache;
}

const ShardedEncodingCache&
ShardedServer::cache() const
{
    return *engines_.cache;
}

ShardedServerStats
ShardedServer::stats() const
{
    ShardedServerStats out;
    snapshot(out.aggregate, out.shards);
    return out;
}

} // namespace ccsa
