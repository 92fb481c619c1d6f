/**
 * @file
 * Binary (de)serialisation of named parameters, so trained predictors
 * can be saved from one process and reloaded in another (the paper's
 * continuous-learning deployment needs persistent models).
 *
 * Format (version 2) — self-describing checkpoints: magic "CCSA" +
 * version + a manifest (model name, monotonically increasing version
 * id, the encoder configuration as five raw int32 words), then count
 * and per parameter: name length, name bytes, rows, cols, row-major
 * float32 payload. A file carries everything needed to reconstruct
 * the model it was saved from; callers never have to know the
 * EncoderConfig out of band (ModelRegistry leans on this). Any other
 * version, including the manifest-less version 1, is refused.
 *
 * Readers never allocate more than the file holds: every length and
 * shape is checked against the bytes left in the file before
 * anything is sized from it, so a corrupt or crafted header fails as
 * FatalError instead of as a giant allocation.
 */

#ifndef CCSA_NN_SERIALIZE_HH
#define CCSA_NN_SERIALIZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.hh"

namespace ccsa
{
namespace nn
{

/**
 * The self-describing header of a checkpoint. The encoder
 * configuration is stored as raw int32 words so this layer stays
 * independent of model/config.hh; ComparativePredictor converts
 * to and from EncoderConfig.
 */
struct CheckpointManifest
{
    /** Model name the checkpoint was saved under. */
    std::string modelName = "model";
    /** Monotonically increasing per-name version id. */
    std::uint64_t version = 1;
    /** EncoderKind as an integer. */
    std::int32_t encoderKind = 0;
    std::int32_t embedDim = 0;
    std::int32_t hiddenDim = 0;
    std::int32_t layers = 0;
    /** nn::TreeArch as an integer. */
    std::int32_t arch = 0;
};

/**
 * Write all parameters to a checkpoint under a default manifest.
 * @throws FatalError on I/O.
 */
void saveParameters(const std::string& path,
                    const std::vector<Parameter*>& params);

/** Write a checkpoint with an explicit manifest. @throws FatalError. */
void saveParameters(const std::string& path,
                    const std::vector<Parameter*>& params,
                    const CheckpointManifest& manifest);

/**
 * Load parameters by name from a checkpoint; every parameter must be
 * present with matching shape. @throws FatalError on mismatch,
 * corruption or I/O error.
 */
void loadParameters(const std::string& path,
                    const std::vector<Parameter*>& params);

/**
 * Read just the manifest of a checkpoint.
 * @throws FatalError on I/O error, corruption or a foreign version.
 */
CheckpointManifest readCheckpointManifest(const std::string& path);

} // namespace nn
} // namespace ccsa

#endif // CCSA_NN_SERIALIZE_HH
