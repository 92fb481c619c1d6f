/**
 * @file
 * ccsa::ShardedServer — the serving front end (serve/front_end.hh)
 * over N in-process shards: N Engines over one partitioned encoding
 * cache, so up to N coalesced batches are in flight at once.
 *
 *  - The N shard threads consume the SAME request queue (work
 *    stealing: an idle shard takes whatever is next), each running
 *    the front end's coalescing loop against its own Engine.
 *  - All N engines share one ShardedEncodingCache: the key space is
 *    partitioned by AST structural digest (digest % numShards), each
 *    partition is an independently-locked LRU, so a tree's latent
 *    lives on exactly one partition no matter which shard encoded
 *    it, shards only contend when their trees hash to the same
 *    partition, and aggregate cache capacity scales with the shard
 *    count at a fixed per-partition memory budget.
 *  - A request is one slice: one shard serves it with one engine
 *    call, which looks each of its trees up once. Throughput comes
 *    from concurrent requests, which the shards serve side by side;
 *    one big request or tournament does not spread across shards.
 *
 * One shard is the single-batcher server: one thread, one engine,
 * one cross-request coalescing loop.
 *
 * Determinism contract: every pair's probability is produced by
 * Engine::compareMany, whose per-pair output is independent of batch
 * composition, shard assignment and shard count, so results are
 * bitwise-identical to a synchronous Engine on the same weights at
 * 1, 2, 4, or 8 shards (tests/test_sharded_server.cc pins this under
 * a multi-producer stress schedule).
 *
 * Stats: per-shard ServerStats plus an aggregate whose latency
 * percentiles come from the MERGED per-shard latency histograms
 * (mergeServerStats) — never from averaging per-shard percentiles.
 * The per-shard engine rows report each shard's PARTITION of the
 * shared cache, so they sum to the cache's own counters.
 *
 * Models: every shard resolves names through one ModelRegistry (a
 * bare model is served as a registry of one, published as
 * "model"); submit with SubmitOptions().withModel(name). Names
 * resolve to immutable ModelVersion snapshots AT ADMISSION (a
 * request admitted before a
 * hot swap completes on the version it was admitted under); each
 * shard executes one engine call per (model version, pairs) group of
 * its coalesced batch; and the shared cache keys latents by
 * (version id, digest), so models and hot-swapped versions occupy
 * isolated namespaces while every shard still shares each
 * version's latents. Per model, results stay bitwise-identical to a
 * dedicated single-model Engine at any shard count.
 */

#ifndef CCSA_SERVE_SHARDED_SERVER_HH
#define CCSA_SERVE_SHARDED_SERVER_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "serve/engine.hh"
#include "serve/front_end.hh"
#include "serve/server_stats.hh"

namespace ccsa
{

/** Fleet-plus-per-shard snapshot; see ShardedServer::stats(). */
struct ShardedServerStats
{
    /** Whole-server view. Queue and request counters are global;
     * batching/latency/engine fields are the per-shard rows merged
     * (latency percentiles from the merged histogram). */
    ServerStats aggregate;
    /** One row per shard: its batching volume and latency
     * distribution, its engine's encode volume, and its cache
     * PARTITION's hit/miss/eviction/size counters (request-level
     * and queue fields stay zero — those are global). */
    std::vector<ServerStats> shards;
};

/** The serving front end over N in-process engines. */
class ShardedServer : public FrontEnd
{
  public:
    /** The shared front-end options plus the in-process knob. */
    struct Options : FrontEndOptionsBuilder<Options>
    {
        /** Encoder threads inside EACH shard engine. The default of
         * 1 (inline) is right when numShards already covers the
         * cores; raise it for few shards + huge batches. */
        int threadsPerShard = 1;

        Options& withThreadsPerShard(int n)
        {
            threadsPerShard = n;
            return *this;
        }
    };

    /** Build a fresh model from engineOpts and serve it sharded. */
    explicit ShardedServer(Engine::Options engineOpts);
    ShardedServer(Engine::Options engineOpts, Options opts);

    /**
     * Serve an existing (typically trained) predictor as a registry
     * of one, published as "model": every shard engine serves that
     * one version (so they also share its cache namespace) and all
     * shards answer with identical weights. engineOpts supplies the
     * per-shard serving knobs (cacheCapacity is PER PARTITION;
     * threads is overridden by opts.threadsPerShard).
     */
    ShardedServer(std::shared_ptr<ComparativePredictor> model,
                  Engine::Options engineOpts, Options opts);

    /**
     * Multi-model serving: every shard engine resolves model names
     * through the same registry, over one shared cache. Hot-swap by
     * publishing to the registry while traffic flows.
     */
    ShardedServer(std::shared_ptr<ModelRegistry> registry,
                  Engine::Options engineOpts, Options opts);

    /** Aggregate + per-shard counters snapshot. */
    ShardedServerStats stats() const;

    const Options& options() const { return opts_; }

    /** Shard s's engine (shares the model and the cache). */
    Engine& shardEngine(std::size_t s);

    /** The shared partitioned cache. */
    ShardedEncodingCache& cache();
    const ShardedEncodingCache& cache() const;

  private:
    class Engines;

    ShardedServer(std::unique_ptr<Engines> engines, Options opts);

    Options opts_;
    Engines& engines_;
};

} // namespace ccsa

#endif // CCSA_SERVE_SHARDED_SERVER_HH
