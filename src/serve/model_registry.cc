#include "serve/model_registry.hh"

#include <algorithm>

namespace ccsa
{

ModelRegistry::ModelRegistry(std::shared_ptr<const ModelVersion> version)
{
    if (!version || !version->model || version->id == 0 ||
        version->name.empty())
        fatal("ModelRegistry: not a published model version");
    defaultName_ = version->name;
    models_[version->name] = std::move(version);
}

std::shared_ptr<const ModelVersion>
ModelRegistry::publish(const std::string& name,
                       std::shared_ptr<ComparativePredictor> model)
{
    return publishImpl(name, std::move(model), /*minSequence=*/0);
}

std::shared_ptr<const ModelVersion>
ModelRegistry::publishImpl(const std::string& name,
                           std::shared_ptr<ComparativePredictor> model,
                           std::uint64_t minSequence)
{
    if (name.empty())
        fatal("ModelRegistry: cannot publish under an empty name");
    if (!model)
        fatal("ModelRegistry: cannot publish a null model");
    auto version = std::make_shared<ModelVersion>();
    version->name = name;
    version->id = allocateModelNamespace();
    version->model = std::move(model);

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = models_.find(name);
    std::uint64_t next =
        it == models_.end() ? 1 : it->second->sequence + 1;
    version->sequence = std::max(next, minSequence);
    // The swap: readers resolving from here on see the new version;
    // in-flight batches keep their old shared_ptr until they finish.
    models_[name] = version;
    if (defaultName_.empty())
        defaultName_ = name;
    return version;
}

Result<std::shared_ptr<const ModelVersion>>
ModelRegistry::load(const std::string& path)
{
    std::string name;
    try {
        name = nn::readCheckpointManifest(path).modelName;
    } catch (const FatalError& e) {
        return Status::ioError(e.what());
    }
    return load(name, path);
}

Result<std::shared_ptr<const ModelVersion>>
ModelRegistry::load(const std::string& name, const std::string& path)
{
    Result<std::shared_ptr<ComparativePredictor>> model =
        ComparativePredictor::fromCheckpoint(path);
    if (!model.isOk())
        return model.status();
    // Seed the per-name sequence with the checkpoint's own version:
    // a registry that restarts and redeploys a sequence-5 checkpoint
    // must not stamp its next save as version 1.
    std::uint64_t floor = 0;
    try {
        floor = nn::readCheckpointManifest(path).version;
    } catch (const FatalError&) {
        // fromCheckpoint already read it once; treat a race on the
        // file as "no floor" rather than failing the deploy.
    }
    return publishImpl(name, model.take(), floor);
}

std::shared_ptr<const ModelVersion>
ModelRegistry::resolve(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::string& key = name.empty() ? defaultName_ : name;
    if (key.empty())
        return nullptr;
    auto it = models_.find(key);
    return it == models_.end() ? nullptr : it->second;
}

Status
ModelRegistry::save(const std::string& name,
                    const std::string& path) const
{
    std::shared_ptr<const ModelVersion> version = resolve(name);
    if (!version)
        return Status::invalidArgument(
            "ModelRegistry::save: unknown model '" + name + "'");
    return version->model->save(path, version->name,
                                version->sequence);
}

Status
ModelRegistry::setDefault(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (models_.find(name) == models_.end())
        return Status::invalidArgument(
            "ModelRegistry::setDefault: unknown model '" + name +
            "'");
    defaultName_ = name;
    return Status::ok();
}

std::string
ModelRegistry::defaultName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return defaultName_;
}

bool
ModelRegistry::remove(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (models_.erase(name) == 0)
        return false;
    if (defaultName_ == name) {
        defaultName_.clear();
        // Keep "" resolvable while models remain: fall back to the
        // lexicographically first name (deterministic).
        for (const auto& [key, version] : models_)
            if (defaultName_.empty() || key < defaultName_)
                defaultName_ = key;
    }
    return true;
}

bool
ModelRegistry::contains(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.find(name) != models_.end();
}

std::vector<std::string>
ModelRegistry::names() const
{
    std::vector<std::string> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.reserve(models_.size());
        for (const auto& [name, version] : models_)
            out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.size();
}

} // namespace ccsa
