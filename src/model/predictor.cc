#include "model/predictor.hh"

namespace ccsa
{

ComparativeClassifier::ComparativeClassifier(int latent_dim, Rng& rng)
    : linear_(2 * latent_dim, 1, rng, "classifier")
{
}

ag::Var
ComparativeClassifier::logit(const ag::Var& z_first,
                             const ag::Var& z_second) const
{
    return linear_.forward(ag::concatColsOp(z_first, z_second));
}

ComparativePredictor::ComparativePredictor(const EncoderConfig& cfg,
                                           std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
    encoder_ = makeEncoder(cfg_, rng_);
    classifier_ = std::make_unique<ComparativeClassifier>(
        encoder_->outputDim(), rng_);
}

ag::Var
ComparativePredictor::encode(const Ast& ast) const
{
    return encoder_->encode(ast);
}

std::vector<ag::Var>
ComparativePredictor::encodeMany(
    const std::vector<const Ast*>& asts) const
{
    return encoder_->encodeMany(asts);
}

std::vector<ag::Var>
ComparativePredictor::encodeMany(const std::vector<const Ast*>& asts,
                                 SubtreeStateStore& store,
                                 SubtreeReuse* reuse) const
{
    return encoder_->encodeManyWithStore(asts, store, reuse);
}

ag::Var
ComparativePredictor::logitFromEncodings(const ag::Var& z_first,
                                         const ag::Var& z_second) const
{
    return classifier_->logit(z_first, z_second);
}

Status
ComparativePredictor::save(const std::string& path)
{
    return save(path, "model", 1);
}

Status
ComparativePredictor::save(const std::string& path,
                           const std::string& name,
                           std::uint64_t version)
{
    try {
        nn::saveParameters(path, parameters(),
                           manifestFor(cfg_, name, version));
    } catch (const FatalError& e) {
        return Status::ioError(e.what());
    }
    return Status::ok();
}

Status
ComparativePredictor::load(const std::string& path)
{
    try {
        nn::CheckpointManifest manifest =
            nn::readCheckpointManifest(path);
        // A self-describing checkpoint must actually describe THIS
        // model: a config mismatch that happens to share parameter
        // shapes (e.g. a different encoder kind) would otherwise
        // load garbage weights silently.
        if (configFromManifest(manifest) != cfg_)
            return Status::ioError(
                "load: checkpoint config does not match the model "
                "(saved from '" + manifest.modelName + "')");
        nn::loadParameters(path, parameters());
    } catch (const FatalError& e) {
        return Status::ioError(e.what());
    }
    return Status::ok();
}

Result<std::shared_ptr<ComparativePredictor>>
ComparativePredictor::fromCheckpoint(const std::string& path)
{
    nn::CheckpointManifest manifest;
    try {
        manifest = nn::readCheckpointManifest(path);
    } catch (const FatalError& e) {
        return Status::ioError(e.what());
    }
    // A corrupt (or future-format) manifest must come back as a
    // Status, not escape construction as a thrown enum/dimension
    // error — load() promises a serving process survives bad files.
    if (manifest.encoderKind < 0 || manifest.encoderKind > 2 ||
        manifest.arch < 0 || manifest.arch > 2 ||
        manifest.embedDim < 1 || manifest.hiddenDim < 1 ||
        manifest.layers < 1)
        return Status::ioError(
            "fromCheckpoint: corrupt manifest in " + path);
    try {
        auto model = std::make_shared<ComparativePredictor>(
            configFromManifest(manifest), /*seed=*/1);
        Status loaded = model->load(path);
        if (!loaded.isOk())
            return loaded;
        return model;
    } catch (const std::exception& e) {
        return Status::ioError(
            std::string("fromCheckpoint: ") + e.what());
    }
}

nn::CheckpointManifest
ComparativePredictor::manifestFor(const EncoderConfig& cfg,
                                  const std::string& name,
                                  std::uint64_t version)
{
    nn::CheckpointManifest m;
    m.modelName = name;
    m.version = version;
    m.encoderKind = static_cast<std::int32_t>(cfg.kind);
    m.embedDim = cfg.embedDim;
    m.hiddenDim = cfg.hiddenDim;
    m.layers = cfg.layers;
    m.arch = static_cast<std::int32_t>(cfg.arch);
    return m;
}

EncoderConfig
ComparativePredictor::configFromManifest(
    const nn::CheckpointManifest& manifest)
{
    EncoderConfig cfg;
    cfg.kind = static_cast<EncoderKind>(manifest.encoderKind);
    cfg.embedDim = manifest.embedDim;
    cfg.hiddenDim = manifest.hiddenDim;
    cfg.layers = manifest.layers;
    cfg.arch = static_cast<nn::TreeArch>(manifest.arch);
    return cfg;
}

std::vector<nn::Parameter*>
ComparativePredictor::parameters()
{
    std::vector<nn::Parameter*> out = encoder_->parameters();
    auto ps = classifier_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
    return out;
}

} // namespace ccsa
