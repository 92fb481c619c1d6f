/**
 * @file
 * ccsa::ModelRegistry — multi-model serving with hot-swap. The
 * paper's deployment story is continuous learning: models are
 * retrained per problem family and redeployed without stopping the
 * ranking service. The registry is the seam that makes that real:
 * it maps a model NAME to an atomically-swappable, immutable
 * ModelVersion, and every serving layer (Engine, the serving front
 * end behind both servers) resolves names through it. It is also the
 * only place a model gets its name and cache namespace: a server or
 * engine handed one bare model serves a private registry of one.
 *
 * Hot-swap is RCU-style: publish()/load() build the new version off
 * to the side, then swap the name's shared_ptr under the registry
 * mutex. Readers never block writers and vice versa — a resolve()
 * taken before the swap keeps serving the OLD version's snapshot
 * (requests admitted before a swap complete on the version they were
 * admitted under), and the old version retires automatically when
 * the last in-flight batch drops its reference. Because every
 * version carries a process-unique cache-namespace id, the swapped
 * version's latents start cold while the retired version's entries
 * simply age out of the shared encoding cache; no invalidation storm,
 * no cross-version reads.
 */

#ifndef CCSA_SERVE_MODEL_REGISTRY_HH
#define CCSA_SERVE_MODEL_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/result.hh"
#include "model/predictor.hh"
#include "serve/encoding_cache.hh"

namespace ccsa
{

/**
 * One immutable published version of a model: the deployable unit a
 * serving batch holds for its whole lifetime. Weights must not be
 * mutated once published — republish instead (that is what makes the
 * cache namespace sound).
 */
struct ModelVersion
{
    /** Registry name ("model" for a bare model served alone). */
    std::string name;
    /** Process-unique cache-namespace id (allocateModelNamespace). */
    std::uint64_t id = 0;
    /** Per-name publish sequence, monotonically increasing from 1 —
     * the "version" a checkpoint manifest records. */
    std::uint64_t sequence = 0;
    std::shared_ptr<ComparativePredictor> model;
};

/** Name -> hot-swappable ModelVersion map; thread-safe. */
class ModelRegistry
{
  public:
    ModelRegistry() = default;

    /** A registry of one that serves exactly `version` (same id,
     * name and sequence) as its default model — how an engine joins
     * a namespace another registry published. FatalError unless the
     * version was published (non-null model, non-zero id, a name). */
    explicit ModelRegistry(std::shared_ptr<const ModelVersion> version);

    ModelRegistry(const ModelRegistry&) = delete;
    ModelRegistry& operator=(const ModelRegistry&) = delete;

    /**
     * Publish a model under a name, hot-swapping any existing
     * version: in-flight batches finish on their snapshot; new
     * resolves see this version. The first published name becomes
     * the registry default. @return the published version.
     */
    std::shared_ptr<const ModelVersion>
    publish(const std::string& name,
            std::shared_ptr<ComparativePredictor> model);

    /**
     * Load a self-describing checkpoint and publish it under the
     * manifest's embedded model name. The model architecture comes
     * from the manifest — this is the zero-config deployment path.
     */
    Result<std::shared_ptr<const ModelVersion>>
    load(const std::string& path);

    /** Load a checkpoint but publish under an explicit name. */
    Result<std::shared_ptr<const ModelVersion>>
    load(const std::string& name, const std::string& path);

    /**
     * Resolve a name to its current version. The empty name resolves
     * the default model. @return nullptr when the name (or, for "",
     * the whole registry) is unknown/empty.
     */
    std::shared_ptr<const ModelVersion>
    resolve(const std::string& name) const;

    /**
     * Save a registered model as a self-describing checkpoint;
     * the manifest records the name and the current publish
     * sequence.
     */
    Status save(const std::string& name,
                const std::string& path) const;

    /** Route the empty request name to a different model. */
    Status setDefault(const std::string& name);

    /** @return the default model's name ("" while empty). */
    std::string defaultName() const;

    /** Drop a name. Snapshots held by in-flight batches survive.
     * @return false when the name was not registered. */
    bool remove(const std::string& name);

    bool contains(const std::string& name) const;

    /** Registered names, sorted (stable iteration for stats). */
    std::vector<std::string> names() const;

    std::size_t size() const;

  private:
    /** publish() with a sequence floor: the load() paths pass the
     * checkpoint manifest's version so per-name sequences stay
     * monotonically increasing ACROSS process restarts, not just
     * within one registry's lifetime. */
    std::shared_ptr<const ModelVersion>
    publishImpl(const std::string& name,
                std::shared_ptr<ComparativePredictor> model,
                std::uint64_t minSequence);

    mutable std::mutex mutex_;
    std::unordered_map<std::string,
                       std::shared_ptr<const ModelVersion>> models_;
    std::string defaultName_;
};

} // namespace ccsa

#endif // CCSA_SERVE_MODEL_REGISTRY_HH
