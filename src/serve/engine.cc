#include "serve/engine.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "frontend/parser.hh"
#include "serve/metrics/metrics.hh"
#include "tensor/arena.hh"

namespace ccsa
{

namespace
{

/** Non-negative microsecond span between two time points. */
std::size_t
spanUs(std::chrono::steady_clock::time_point from,
       std::chrono::steady_clock::time_point to)
{
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  to - from)
                  .count();
    return us < 0 ? 0 : static_cast<std::size_t>(us);
}

/** The exact probability map of the legacy per-pair path. */
inline double
logitToProb(float logit)
{
    return 1.0 / (1.0 + std::exp(-logit));
}

/** A no-grad view of a latent for the score head: wrapping it costs
 *  a pointer, not a copy. Only valid inside an InferenceScope and
 *  while `latent` lives. */
ag::Var
latentView(Tensor& latent)
{
    return ag::Var::noGrad(
        Tensor::borrowed(latent.data(), latent.rows(), latent.cols()));
}

/**
 * P(first slower-or-equal) of every pair, in order, from one head
 * product: pair i scores latents[slotOf[2i]] against
 * latents[slotOf[2i + 1]]. The P first and P second rows are
 * gathered, concatenated, and run through one P x 2d by 2d x 1
 * product plus bias. Concat and the bias add work row by row, and
 * both matmul kernel families compute each output row from its own
 * input row alone (matmul_dispatch.hh), so every probability is
 * bitwise the one-pair head's whatever P is.
 */
std::vector<double>
scorePairs(const ComparativePredictor& model, std::vector<Tensor>& latents,
           const std::vector<std::size_t>& slotOf)
{
    std::size_t n = slotOf.size() / 2;
    if (n == 0)
        return {};
    // Tape-free: each distinct latent is wrapped once, and the
    // probabilities are read out before the scope (and its arena)
    // dies.
    InferenceScope scope;
    std::vector<ag::Var> z;
    z.reserve(latents.size());
    for (Tensor& t : latents)
        z.push_back(latentView(t));
    std::vector<std::pair<int, int>> firsts(n);
    std::vector<std::pair<int, int>> seconds(n);
    for (std::size_t i = 0; i < n; ++i) {
        firsts[i] = {static_cast<int>(slotOf[2 * i]), 0};
        seconds[i] = {static_cast<int>(slotOf[2 * i + 1]), 0};
    }
    ag::Var logits =
        model.logitFromEncodings(ag::pickRows(z, std::move(firsts)),
                                 ag::pickRows(z, std::move(seconds)));
    std::vector<double> probs(n);
    for (std::size_t i = 0; i < n; ++i)
        probs[i] =
            logitToProb(logits.value().at(static_cast<int>(i), 0));
    return probs;
}

} // namespace

Engine::Engine(Options opts)
    : Engine(std::make_shared<ComparativePredictor>(opts.encoder,
                                                    opts.seed),
             opts)
{
}

Engine::Engine(std::shared_ptr<ComparativePredictor> model,
               Options opts)
    : Engine(std::make_shared<ModelRegistry>(), opts)
{
    registry_->publish("model", std::move(model));
}

Engine::Engine(std::shared_ptr<const ModelVersion> version,
               Options opts,
               std::shared_ptr<ShardedEncodingCache> cache)
    : Engine(std::make_shared<ModelRegistry>(std::move(version)), opts,
             std::move(cache))
{
}

Engine::Engine(std::shared_ptr<ModelRegistry> registry, Options opts,
               std::shared_ptr<ShardedEncodingCache> cache)
    : registry_(std::move(registry)), opts_(opts),
      pool_(opts.threads), cache_(std::move(cache))
{
    if (!registry_)
        fatal("Engine: null registry");
    if (!cache_)
        cache_ = std::make_shared<ShardedEncodingCache>(
            opts_.cacheShards == 0 ? 1 : opts_.cacheShards,
            opts_.cacheCapacity, opts_.latentPrecision);
    initMetrics();
}

void
Engine::initMetrics()
{
    if (opts_.metrics == nullptr)
        return;
    const std::string help =
        "Engine pipeline stage wall time per compareMany call, us.";
    phaseEncodeUs_ = &opts_.metrics->windowedHistogram(
        "ccsa_engine_phase_us", {{"phase", "encode"}},
        WindowedHistogram::Options(), help);
    phaseScoreUs_ = &opts_.metrics->windowedHistogram(
        "ccsa_engine_phase_us", {{"phase", "score"}},
        WindowedHistogram::Options(), help);
    const std::string nodesHelp =
        "Nodes of trees the hash-consed tree-LSTM encoded, by where "
        "their states came from (computed once per distinct subtree, "
        "read from the subtree-state store, or repeats in one call).";
    auto nodes = [&](const char* source) {
        return &opts_.metrics->counter("ccsa_encode_subtree_nodes_total",
                                       {{"source", source}}, nodesHelp);
    };
    nodesComputed_ = nodes("computed");
    nodesFromStore_ = nodes("store");
    nodesDeduped_ = nodes("dedup");
}

Result<std::shared_ptr<const ModelVersion>>
Engine::resolveModel(const std::string& name) const
{
    return resolveModel(*registry_, name);
}

Result<std::shared_ptr<const ModelVersion>>
Engine::resolveModel(const ModelRegistry& registry,
                     const std::string& name)
{
    std::shared_ptr<const ModelVersion> version = registry.resolve(name);
    if (!version)
        return Status::invalidArgument(
            name.empty() ? std::string("Engine: registry has no models")
                         : "Engine: unknown model '" + name + "'");
    return version;
}

Result<std::vector<Tensor>>
Engine::encodeBatch(const std::vector<const Ast*>& trees)
{
    return encodeBatch(std::string(), trees);
}

Result<std::vector<Tensor>>
Engine::encodeBatch(const std::string& model,
                    const std::vector<const Ast*>& trees)
{
    Result<std::shared_ptr<const ModelVersion>> version =
        resolveModel(model);
    if (!version.isOk())
        return version.status();
    return encodeBatch(*version.value(), trees);
}

Result<std::vector<Tensor>>
Engine::encodeBatch(const ModelVersion& version,
                    const std::vector<const Ast*>& trees)
{
    Result<DistinctLatents> distinct =
        encodeDistinctLatents(version, trees);
    if (!distinct.isOk())
        return distinct.status();
    const DistinctLatents& d = distinct.value();
    std::vector<Tensor> out;
    out.reserve(trees.size());
    for (std::size_t slot : d.slotOf)
        out.push_back(d.latents[slot]);
    return out;
}

Result<Engine::DistinctLatents>
Engine::encodeDistinctLatents(const ModelVersion& version,
                              const std::vector<const Ast*>& trees)
{
    for (std::size_t i = 0; i < trees.size(); ++i) {
        if (trees[i] == nullptr)
            return Status::invalidArgument(
                "encodeBatch: null tree at index " + std::to_string(i));
    }

    // Deduplicate by structural digest, preserving first-appearance
    // order so cache insertion (and therefore eviction) order is
    // deterministic regardless of the thread count. The digest is
    // memoized in the tree, so a tree is walked once in its life
    // however many references name it (a tournament names every
    // candidate 2(n-1) times); structurally equal copies share one
    // key.
    DistinctLatents out;
    out.slotOf.resize(trees.size());
    std::vector<const Ast*> unique_trees;
    std::vector<EncodingKey> unique_keys;
    {
        std::unordered_map<AstDigest, std::size_t, AstDigestHash> seen;
        for (std::size_t i = 0; i < trees.size(); ++i) {
            AstDigest d = digestAst(*trees[i]);
            auto [it, inserted] =
                seen.try_emplace(d, unique_trees.size());
            if (inserted) {
                unique_trees.push_back(trees[i]);
                unique_keys.push_back(EncodingKey{version.id, d});
            }
            out.slotOf[i] = it->second;
        }
    }

    // The partitioned cache locks per shard, so concurrent engines
    // sharing it (sharded serving) only contend when their trees
    // hash to the same partition. Two engines racing on the same
    // key may both miss and both encode — a benign duplicate:
    // encoding is deterministic, so whichever insert lands last
    // stores the identical latent. Keys carry the model-version
    // namespace, so different versions sharing the cache can never
    // race at all — their keys are disjoint.
    std::vector<Tensor>& latents = out.latents;
    latents.resize(unique_trees.size());
    std::vector<std::size_t> miss_slots;
    for (std::size_t s = 0; s < unique_trees.size(); ++s) {
        if (!cache_->lookup(unique_keys[s], &latents[s]))
            miss_slots.push_back(s);
    }

    if (!miss_slots.empty()) {
        // Forest-batch the misses: each worker encodes one
        // contiguous chunk of distinct trees in a single
        // level-batched wavefront, hash-consed against the cache's
        // subtree-state store. Tree rows never mix inside a forest
        // batch and a stored state equals a computed one bitwise, so
        // every latent is independent of the chunking — and
        // therefore of the thread count — and of the store's
        // contents.
        std::size_t workers = static_cast<std::size_t>(
            std::max(1, pool_.workerCount()));
        std::size_t chunks = std::min(miss_slots.size(), workers);
        std::size_t per = (miss_slots.size() + chunks - 1) / chunks;
        std::vector<SubtreeReuse> reuse(chunks);
        try {
            NamespaceStateStore store(*cache_, version.id);
            pool_.parallelFor(chunks, [&](std::size_t ci) {
                std::size_t lo = ci * per;
                std::size_t hi =
                    std::min(miss_slots.size(), lo + per);
                if (lo >= hi)
                    return;
                std::vector<const Ast*> chunk;
                chunk.reserve(hi - lo);
                for (std::size_t i = lo; i < hi; ++i)
                    chunk.push_back(unique_trees[miss_slots[i]]);
                // Tape-free encode: ops write into this worker's
                // arena instead of allocating VarNodes + tensors.
                // The latents below are the only values that outlive
                // the scope, so they (and nothing else) are copied
                // out of the arena into owned storage.
                InferenceScope scope;
                std::vector<ag::Var> encoded =
                    version.model->encodeMany(chunk, store,
                                              &reuse[ci]);
                for (std::size_t i = lo; i < hi; ++i)
                    latents[miss_slots[i]] =
                        encoded[i - lo].value().toOwned();
            });
        } catch (const std::exception& e) {
            return Status::internal(
                std::string("encodeBatch: ") + e.what());
        }
        const LatentPrecision precision = cache_->precision();
        for (std::size_t s : miss_slots) {
            cache_->insert(unique_keys[s], latents[s]);
            // Under a quantizing cache, serve the miss through the
            // same quantize/dequantize roundtrip a later hit will
            // decode from the stored bytes — scores must never
            // depend on whether a tree was resident.
            if (precision != LatentPrecision::kFp32)
                latents[s] = decodeLatent(
                    encodeLatent(latents[s], precision));
        }
        SubtreeReuse total;
        for (const SubtreeReuse& r : reuse)
            total += r;
        if (nodesComputed_ != nullptr) {
            nodesComputed_->inc(total.computed);
            nodesFromStore_->inc(total.fromStore);
            nodesDeduped_->inc(total.deduped());
        }
        std::lock_guard<std::mutex> lock(mutex_);
        treesEncoded_ += miss_slots.size();
        reuse_ += total;
    }
    return out;
}

Result<std::vector<double>>
Engine::compareMany(const std::vector<PairRequest>& pairs)
{
    return compareMany(std::string(), pairs);
}

Result<std::vector<double>>
Engine::compareMany(const std::string& model,
                    const std::vector<PairRequest>& pairs)
{
    // One handle resolution per request batch: the whole batch runs
    // on this snapshot even if the registry hot-swaps mid-flight.
    Result<std::shared_ptr<const ModelVersion>> version =
        resolveModel(model);
    if (!version.isOk())
        return version.status();
    return compareMany(*version.value(), pairs);
}

Result<std::vector<double>>
Engine::compareMany(const ModelVersion& version,
                    const std::vector<PairRequest>& pairs,
                    PhaseTiming* timing)
{
    // The metrics plane needs the stage boundaries even when the
    // caller doesn't: time into a local PhaseTiming in that case.
    PhaseTiming localTiming;
    if (timing == nullptr && phaseEncodeUs_ != nullptr)
        timing = &localTiming;

    std::vector<const Ast*> trees;
    trees.reserve(pairs.size() * 2);
    for (const PairRequest& p : pairs) {
        trees.push_back(p.first);
        trees.push_back(p.second);
    }

    if (timing)
        timing->encodeStart = std::chrono::steady_clock::now();
    Result<DistinctLatents> latents =
        encodeDistinctLatents(version, trees);
    if (timing)
        timing->encodeEnd = timing->scoreEnd =
            std::chrono::steady_clock::now();
    if (!latents.isOk())
        return latents.status();

    // The classifier head is a single 2d -> 1 linear layer, run once
    // over every pair of the call on the calling thread.
    std::vector<double> probs;
    try {
        probs = scorePairs(*version.model, latents.value().latents,
                           latents.value().slotOf);
    } catch (const std::exception& e) {
        return Status::internal(
            std::string("compareMany: ") + e.what());
    }
    if (timing)
        timing->scoreEnd = std::chrono::steady_clock::now();

    if (phaseEncodeUs_ != nullptr && timing != nullptr) {
        phaseEncodeUs_->add(
            spanUs(timing->encodeStart, timing->encodeEnd),
            timing->scoreEnd);
        phaseScoreUs_->add(
            spanUs(timing->encodeEnd, timing->scoreEnd),
            timing->scoreEnd);
    }

    std::lock_guard<std::mutex> lock(mutex_);
    pairsServed_ += pairs.size();
    return probs;
}

Result<std::vector<double>>
Engine::compareManyCached(
    const std::vector<std::pair<AstDigest, AstDigest>>& pairs)
{
    Result<std::shared_ptr<const ModelVersion>> version =
        resolveModel(std::string());
    if (!version.isOk())
        return version.status();
    const ModelVersion& v = *version.value();

    // Resolve EVERY latent before any head work: a miss must refuse
    // the whole batch so the caller's self-contained fallback is the
    // first execution, not a second one. Each distinct digest is
    // looked up once, in first-appearance order.
    std::vector<Tensor> latents;
    std::vector<std::size_t> slotOf;
    slotOf.reserve(pairs.size() * 2);
    std::unordered_map<AstDigest, std::size_t, AstDigestHash> slotOfDigest;
    std::size_t missing = 0;
    auto resolve = [&](const AstDigest& d) {
        auto [it, inserted] = slotOfDigest.try_emplace(d, latents.size());
        if (inserted) {
            latents.emplace_back();
            if (!cache_->lookup(EncodingKey{v.id, d}, &latents.back()))
                ++missing;
        }
        slotOf.push_back(it->second);
    };
    for (const auto& pair : pairs) {
        resolve(pair.first);
        resolve(pair.second);
    }
    if (missing > 0)
        return Status::resourceExhausted(
            "compareManyCached: " + std::to_string(missing) +
            " latent(s) not resident (evicted since encode?)");

    std::vector<double> probs;
    try {
        probs = scorePairs(*v.model, latents, slotOf);
    } catch (const std::exception& e) {
        return Status::internal(
            std::string("compareManyCached: ") + e.what());
    }

    std::lock_guard<std::mutex> lock(mutex_);
    pairsServed_ += pairs.size();
    return probs;
}

Result<double>
Engine::compare(const Ast& first, const Ast& second)
{
    Result<std::vector<double>> probs =
        compareMany({PairRequest{&first, &second}});
    if (!probs.isOk())
        return probs.status();
    return probs.value()[0];
}

Result<double>
Engine::compareSources(const std::string& first,
                       const std::string& second)
{
    Result<Ast> a = parseSource(first);
    if (!a.isOk())
        return a.status();
    Result<Ast> b = parseSource(second);
    if (!b.isOk())
        return b.status();
    return compare(a.value(), b.value());
}

Result<std::vector<Engine::RankedCandidate>>
Engine::rank(const std::vector<const Ast*>& candidates)
{
    return rank(std::string(), candidates);
}

Result<std::vector<Engine::RankedCandidate>>
Engine::rank(const std::string& model,
             const std::vector<const Ast*>& candidates)
{
    if (candidates.size() < 2)
        return Status::invalidArgument(
            "rank: need at least two candidates");

    Result<std::vector<double>> probs =
        compareMany(model, tournamentPairs(candidates));
    if (!probs.isOk())
        return probs.status();
    return aggregateTournament(candidates.size(), probs.value());
}

std::vector<Engine::PairRequest>
Engine::tournamentPairs(const std::vector<const Ast*>& candidates)
{
    // Round-robin over every ordered pair: the classifier is not
    // antisymmetric, so (i, j) and (j, i) are distinct evidence.
    // Encoding cost stays O(candidates): all pairs share one batch.
    std::vector<PairRequest> pairs;
    pairs.reserve(candidates.size() * (candidates.size() - 1));
    for (std::size_t i = 0; i < candidates.size(); ++i)
        for (std::size_t j = 0; j < candidates.size(); ++j)
            if (i != j)
                pairs.push_back(
                    PairRequest{candidates[i], candidates[j]});
    return pairs;
}

std::vector<Engine::RankedCandidate>
Engine::aggregateTournament(std::size_t n,
                            const std::vector<double>& probs)
{
    if (n < 2 || probs.size() != n * (n - 1))
        panic("aggregateTournament: ", probs.size(),
              " probs for ", n, " candidates");

    std::vector<RankedCandidate> ranked(n);
    for (std::size_t i = 0; i < n; ++i)
        ranked[i].index = static_cast<int>(i);

    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            // p = P(i slower than j); > 0.5 elects j.
            double p = probs[k++];
            if (p >= 0.5)
                ranked[j].wins++;
            else
                ranked[i].wins++;
            ranked[i].meanProbFaster += 1.0 - p;
            ranked[j].meanProbFaster += p;
        }
    }
    // Each candidate appears in 2 * (n - 1) ordered pairs.
    double norm = 2.0 * static_cast<double>(n - 1);
    for (RankedCandidate& r : ranked)
        r.meanProbFaster /= norm;

    std::sort(ranked.begin(), ranked.end(),
              [](const RankedCandidate& a, const RankedCandidate& b) {
                  if (a.wins != b.wins)
                      return a.wins > b.wins;
                  if (a.meanProbFaster != b.meanProbFaster)
                      return a.meanProbFaster > b.meanProbFaster;
                  return a.index < b.index;
              });
    return ranked;
}

Result<Ast>
Engine::parseSource(const std::string& source)
{
    try {
        return parseAndPrune(source);
    } catch (const FatalError& e) {
        return Status::invalidArgument(e.what());
    }
}

ComparativePredictor&
Engine::model()
{
    return const_cast<ComparativePredictor&>(
        static_cast<const Engine*>(this)->model());
}

const ComparativePredictor&
Engine::model() const
{
    std::shared_ptr<const ModelVersion> version = modelVersion();
    if (!version)
        fatal("Engine::model: registry has no models");
    // The reference stays valid while the version is registered.
    return *version->model;
}

std::shared_ptr<ComparativePredictor>
Engine::sharedModel()
{
    std::shared_ptr<const ModelVersion> version = modelVersion();
    if (!version)
        fatal("Engine::sharedModel: registry has no models");
    return version->model;
}

std::shared_ptr<const ModelVersion>
Engine::modelVersion() const
{
    Result<std::shared_ptr<const ModelVersion>> version =
        resolveModel(std::string());
    return version.isOk() ? version.value() : nullptr;
}

Engine::Stats
Engine::stats() const
{
    Stats out;
    EncodingCache::Stats cache = cache_->stats();
    out.cacheHits = cache.hits;
    out.cacheMisses = cache.misses;
    out.cacheEvictions = cache.evictions;
    out.cacheSize = cache_->size();
    LruNamespaceStats states = cache_->stateStats();
    out.stateStoreEntries = states.residents;
    out.stateStoreBytes = states.residentBytes;
    out.stateStoreEvictions = states.evictions;
    std::lock_guard<std::mutex> lock(mutex_);
    out.pairsServed = pairsServed_;
    out.treesEncoded = treesEncoded_;
    out.subtreeNodesComputed = reuse_.computed;
    out.subtreeNodesFromStore = reuse_.fromStore;
    out.subtreeNodesDeduped = reuse_.deduped();
    return out;
}

std::vector<ModelCacheStats>
Engine::perModelCacheStats() const
{
    std::vector<ModelCacheStats> out;
    for (const std::string& name : registry_->names()) {
        std::shared_ptr<const ModelVersion> v = registry_->resolve(name);
        if (!v)
            continue;
        ModelCacheStats row;
        row.name = v->name;
        row.versionId = v->id;
        row.sequence = v->sequence;
        row.cache = cache_->namespaceStats(v->id);
        row.states = cache_->stateNamespaceStats(v->id);
        out.push_back(std::move(row));
    }
    return out;
}

void
Engine::invalidateCache()
{
    cache_->clear();
}

} // namespace ccsa
