/**
 * @file
 * The paper's end product: a comparative performance predictor. Two
 * ASTs are encoded to latent vectors, concatenated, and classified by
 * a single sigmoid layer (§IV-D: the classifier has 2*d inputs).
 * Output semantics follow Eq. (1): the predicted probability is the
 * likelihood that the FIRST program is slower-or-equal, i.e. that the
 * second program is the better version.
 */

#ifndef CCSA_MODEL_PREDICTOR_HH
#define CCSA_MODEL_PREDICTOR_HH

#include <memory>
#include <string>

#include "base/result.hh"
#include "model/encoder.hh"
#include "nn/linear.hh"
#include "nn/serialize.hh"

namespace ccsa
{

/** Tree-pair classifier: concat(z_i, z_j) -> sigmoid logit. */
class ComparativeClassifier : public nn::Module
{
  public:
    /** @param latent_dim d = encoder output size. */
    ComparativeClassifier(int latent_dim, Rng& rng);

    /** @return raw logit (1x1) for the concatenated pair. */
    ag::Var logit(const ag::Var& z_first,
                  const ag::Var& z_second) const;

    std::vector<nn::Parameter*> parameters() override
    {
        return linear_.parameters();
    }

  private:
    nn::Linear linear_;
};

/** Encoder + classifier; the deployable unit. */
class ComparativePredictor : public nn::Module
{
  public:
    ComparativePredictor(const EncoderConfig& cfg, std::uint64_t seed);

    /** Encode one pruned AST. */
    ag::Var encode(const Ast& ast) const;

    /**
     * Encode a batch of ASTs in one shot. With the tree-LSTM
     * encoder the whole batch is forest-batched through shared
     * level-wise matmuls; per-tree results are identical to
     * encode(). The Trainer and the serving Engine both funnel
     * their distinct-tree batches through this.
     */
    std::vector<ag::Var>
    encodeMany(const std::vector<const Ast*>& asts) const;

    /**
     * encodeMany() backed by a subtree-state store (see
     * CodeEncoder::encodeManyWithStore) — the serving Engine's miss
     * path. Results are identical to encodeMany().
     */
    std::vector<ag::Var>
    encodeMany(const std::vector<const Ast*>& asts,
               SubtreeStateStore& store, SubtreeReuse* reuse) const;

    /** Differentiable pair logit from precomputed encodings. */
    ag::Var logitFromEncodings(const ag::Var& z_first,
                               const ag::Var& z_second) const;

    /**
     * Persist / restore all weights. I/O and format problems come
     * back as an error Status (the legacy behaviour of throwing
     * FatalError is gone: a serving process must be able to survive
     * a bad model path).
     *
     * save() writes a self-describing checkpoint: the manifest
     * embeds this model's EncoderConfig plus a model name and a
     * monotonically increasing version id (ModelRegistry::save
     * supplies real ones; the single-arg overload stamps
     * "model" / 1). load() requires the manifest's embedded config
     * to match this model's.
     */
    Status save(const std::string& path);
    Status save(const std::string& path, const std::string& name,
                std::uint64_t version);
    Status load(const std::string& path);

    /**
     * Reconstruct a predictor from a self-describing checkpoint: the
     * architecture comes from the embedded manifest, the weights
     * from the payload.
     */
    static Result<std::shared_ptr<ComparativePredictor>>
    fromCheckpoint(const std::string& path);

    /** Manifest encoder words for this model's config (save). */
    static nn::CheckpointManifest
    manifestFor(const EncoderConfig& cfg, const std::string& name,
                std::uint64_t version);

    /** Decode a manifest's encoder words back into a config. */
    static EncoderConfig
    configFromManifest(const nn::CheckpointManifest& manifest);

    const EncoderConfig& config() const { return cfg_; }
    CodeEncoder& encoder() { return *encoder_; }
    const CodeEncoder& encoder() const { return *encoder_; }

    std::vector<nn::Parameter*> parameters() override;

  private:
    EncoderConfig cfg_;
    Rng rng_;
    std::unique_ptr<CodeEncoder> encoder_;
    std::unique_ptr<ComparativeClassifier> classifier_;
};

} // namespace ccsa

#endif // CCSA_MODEL_PREDICTOR_HH
