/**
 * @file
 * Tests for the encoders, the comparative predictor, the trainer
 * (including the overfit sanity check), and model persistence.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "dataset/pairs.hh"
#include "frontend/parser.hh"
#include "model/trainer.hh"
#include "oracle.hh"
#include "serve/model_registry.hh"

namespace ccsa
{
namespace
{

Ast
tinyProgram(int loops)
{
    std::string src = "int main() {\n int n;\n cin >> n;\n";
    for (int i = 0; i < loops; ++i) {
        std::string v = "i" + std::to_string(i);
        src += " for (int " + v + " = 0; " + v + " < n; " + v +
            "++) { int z" + std::to_string(i) + " = " + v + "; }\n";
    }
    src += " return 0;\n}\n";
    return parseAndPrune(src);
}

class EncoderKindTest : public ::testing::TestWithParam<EncoderKind>
{
};

TEST_P(EncoderKindTest, EncodesToConfiguredDimension)
{
    EncoderConfig cfg;
    cfg.kind = GetParam();
    cfg.embedDim = 8;
    cfg.hiddenDim = 12;
    cfg.layers = 2;
    Rng rng(1);
    auto encoder = makeEncoder(cfg, rng);
    Ast ast = tinyProgram(2);
    ag::Var z = encoder->encode(ast);
    EXPECT_EQ(z.value().rows(), 1);
    EXPECT_EQ(z.value().cols(), encoder->outputDim());
    EXPECT_GT(encoder->parameterCount(), 100u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEncoders, EncoderKindTest,
    ::testing::Values(EncoderKind::TreeLstm, EncoderKind::Gcn,
                      EncoderKind::TokenLstm));

TEST(Encoder, BiArchDoublesOutputDim)
{
    EncoderConfig cfg;
    cfg.hiddenDim = 10;
    cfg.arch = nn::TreeArch::Bi;
    Rng rng(2);
    auto encoder = makeEncoder(cfg, rng);
    EXPECT_EQ(encoder->outputDim(), 20);
}

TEST(Encoder, DistinguishesStructures)
{
    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 8;
    Rng rng(3);
    auto encoder = makeEncoder(cfg, rng);
    Tensor z1 = encoder->encode(tinyProgram(1)).value();
    Tensor z3 = encoder->encode(tinyProgram(3)).value();
    EXPECT_GT(z1.maxAbsDiff(z3), 1e-6f);
}

TEST(Predictor, ProbabilitiesAreValid)
{
    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 8;
    ComparativePredictor model(cfg, 7);
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(3);
    double p = perPairProb(model, a, b);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    // Swapping the pair is distinct evidence, not 1 - p (the
    // classifier is not antisymmetric), but still a probability.
    double q = perPairProb(model, b, a);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
}

TEST(Predictor, SaveLoadRoundTrip)
{
    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 8;
    ComparativePredictor model(cfg, 11);
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    double before = perPairProb(model, a, b);

    std::string path =
        (std::filesystem::temp_directory_path() /
         "ccsa_model_roundtrip.bin").string();
    ASSERT_TRUE(model.save(path).isOk());

    ComparativePredictor other(cfg, 999); // different init
    EXPECT_NE(perPairProb(other, a, b), before);
    ASSERT_TRUE(other.load(path).isOk());
    EXPECT_NEAR(perPairProb(other, a, b), before, 1e-6);
    std::remove(path.c_str());
}

TEST(Predictor, SaveToUnopenablePathReportsStatus)
{
    EncoderConfig cfg;
    cfg.embedDim = 4;
    cfg.hiddenDim = 4;
    ComparativePredictor model(cfg, 1);
    Status s = model.save("/nonexistent-ccsa-dir/model.bin");
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::IoError);
    EXPECT_NE(s.message().find("cannot open"), std::string::npos);
}

TEST(Predictor, FailedLoadLeavesWeightsUntouched)
{
    EncoderConfig small;
    small.embedDim = 4;
    small.hiddenDim = 4;
    ComparativePredictor donor(small, 1);
    std::string path =
        (std::filesystem::temp_directory_path() /
         "ccsa_model_mismatch.bin").string();
    ASSERT_TRUE(donor.save(path).isOk());

    EncoderConfig bigger = small;
    bigger.hiddenDim = 8; // shape mismatch against the file
    ComparativePredictor model(bigger, 2);
    Ast a = tinyProgram(1);
    Ast b = tinyProgram(2);
    double before = perPairProb(model, a, b);

    Status s = model.load(path);
    EXPECT_FALSE(s.isOk());
    // Load is transactional: a bad file must not half-overwrite.
    EXPECT_EQ(perPairProb(model, a, b), before);
    std::remove(path.c_str());
}

TEST(Predictor, LoadFromMissingPathReportsStatus)
{
    EncoderConfig cfg;
    cfg.embedDim = 4;
    cfg.hiddenDim = 4;
    ComparativePredictor model(cfg, 1);
    Status s = model.load("/nonexistent-ccsa-dir/model.bin");
    EXPECT_FALSE(s.isOk());
    EXPECT_EQ(s.code(), StatusCode::IoError);
}

// ------------------------------------------ corrupt checkpoint files

/** A checkpoint's bytes, written field by field as the format lays
 * them out (native byte order, like the writer). */
struct CheckpointBytes
{
    std::string bytes;

    template <typename T>
    CheckpointBytes&
    raw(T v)
    {
        bytes.append(reinterpret_cast<const char*>(&v), sizeof(T));
        return *this;
    }

    CheckpointBytes&
    str(const std::string& s)
    {
        raw(static_cast<std::uint32_t>(s.size()));
        bytes += s;
        return *this;
    }

    /** `magic`, `version`, then a manifest that describes `cfg`
     * under the name "model", version 1. */
    static CheckpointBytes
    header(const std::string& magic, std::uint32_t version,
           const EncoderConfig& cfg)
    {
        CheckpointBytes b;
        b.bytes = magic;
        b.raw(version).str("model").raw(std::uint64_t{1});
        nn::CheckpointManifest m =
            ComparativePredictor::manifestFor(cfg, "model", 1);
        b.raw(m.encoderKind).raw(m.embedDim).raw(m.hiddenDim);
        b.raw(m.layers).raw(m.arch);
        return b;
    }

    /** One parameter entry's name and shape, with no payload. */
    CheckpointBytes&
    shape(std::int32_t rows, std::int32_t cols)
    {
        raw(std::uint32_t{1}).str("w");
        return raw(rows).raw(cols);
    }
};

EncoderConfig
smallConfig()
{
    EncoderConfig cfg;
    cfg.embedDim = 4;
    cfg.hiddenDim = 4;
    return cfg;
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** What each checkpoint loader answers for `path`: fromCheckpoint,
 * ComparativePredictor::load into a model of the manifest's config,
 * and ModelRegistry::load. */
std::vector<Status>
loadEveryWay(const std::string& path)
{
    std::vector<Status> out;
    out.push_back(ComparativePredictor::fromCheckpoint(path).status());
    ComparativePredictor model(smallConfig(), 1);
    out.push_back(model.load(path));
    ModelRegistry registry;
    out.push_back(registry.load(path).status());
    return out;
}

/** Peak resident set of this process so far, in KB. */
long
peakRssKb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(Checkpoint, CorruptFilesComeBackAsStatusFromEveryLoader)
{
    const EncoderConfig cfg = smallConfig();
    const std::string v2 = "CCSA";
    struct Case
    {
        const char* name;
        std::string bytes;
    };
    std::vector<Case> cases = {
        {"2^20 x 64 shape, no payload",
         CheckpointBytes::header(v2, 2, cfg).shape(1 << 20, 64).bytes},
        {"2^20 x 2^20 shape, no payload",
         CheckpointBytes::header(v2, 2, cfg)
             .shape(1 << 20, 1 << 20)
             .bytes},
        {"bad magic",
         CheckpointBytes::header("CCSB", 2, cfg).shape(1, 1).bytes},
        {"version 3", CheckpointBytes::header(v2, 3, cfg).shape(1, 1).bytes},
        {"negative dimension",
         CheckpointBytes::header(v2, 2, cfg).shape(-1, 4).bytes},
    };
    // The two oversized shapes are 62-byte files whose headers ask
    // for a 256 MB and a 4 TB payload.
    ASSERT_EQ(cases[0].bytes.size(), 62u);
    ASSERT_EQ(cases[1].bytes.size(), 62u);

    std::string path = (std::filesystem::temp_directory_path() /
                        "ccsa_corrupt_checkpoint.bin")
                           .string();
    for (const Case& c : cases) {
        writeFile(path, c.bytes);
        long peakBefore = peakRssKb();
        std::vector<Status> answers = loadEveryWay(path);
        for (std::size_t k = 0; k < answers.size(); ++k)
            EXPECT_FALSE(answers[k].isOk()) << c.name << ", loader " << k;
        // Nothing is sized from a shape the file cannot hold.
        EXPECT_LT(peakRssKb() - peakBefore, 64 * 1024) << c.name;
    }
    for (int k = 0; k < 2; ++k) {
        writeFile(path, cases[k].bytes);
        for (const Status& s : loadEveryWay(path))
            EXPECT_NE(s.message().find("exceeds the bytes left"),
                      std::string::npos)
                << cases[k].name << ": " << s.message();
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, EveryTruncationComesBackAsStatusFromEveryLoader)
{
    std::string path = (std::filesystem::temp_directory_path() /
                        "ccsa_truncated_checkpoint.bin")
                           .string();
    ASSERT_TRUE(ComparativePredictor(smallConfig(), 3).save(path).isOk());
    std::string full;
    {
        std::ifstream f(path, std::ios::binary);
        full.assign(std::istreambuf_iterator<char>(f),
                    std::istreambuf_iterator<char>());
    }
    for (const Status& s : loadEveryWay(path))
        ASSERT_TRUE(s.isOk()) << s.message();

    for (std::size_t n = 0; n < full.size(); ++n) {
        writeFile(path, full.substr(0, n));
        std::vector<Status> answers = loadEveryWay(path);
        for (std::size_t k = 0; k < answers.size(); ++k)
            ASSERT_FALSE(answers[k].isOk())
                << "truncated to " << n << " of " << full.size()
                << " bytes, loader " << k;
    }
    std::remove(path.c_str());
}

TEST(Trainer, RejectsEmptyPairs)
{
    EncoderConfig cfg;
    cfg.embedDim = 4;
    cfg.hiddenDim = 4;
    ComparativePredictor model(cfg, 1);
    TrainConfig tc;
    Trainer trainer(model, tc);
    std::vector<Submission> subs;
    EXPECT_THROW(trainer.fit(subs, {}), FatalError);
}

TEST(Trainer, OverfitsTinySeparableDataset)
{
    // Six structurally distinct programs whose runtime grows with
    // their loop count: every pair is decidable from structure, so
    // the model must reach near-perfect training accuracy.
    std::vector<Submission> subs;
    for (int i = 0; i < 6; ++i) {
        Submission s;
        s.id = i;
        s.problemId = 0;
        s.ast = tinyProgram(i + 1);
        s.runtimeMs = 50.0 * (i + 1);
        subs.push_back(std::move(s));
    }
    std::vector<int> idx{0, 1, 2, 3, 4, 5};
    Rng rng(13);
    PairOptions popt;
    auto pairs = buildPairs(subs, idx, popt, rng);

    EncoderConfig cfg;
    cfg.embedDim = 8;
    cfg.hiddenDim = 12;
    ComparativePredictor model(cfg, 3);
    TrainConfig tc;
    tc.epochs = 40;
    tc.learningRate = 1.5e-2f;
    tc.batchPairs = 8;
    Trainer trainer(model, tc);
    TrainStats stats = trainer.fit(subs, pairs);

    EXPECT_GT(stats.finalAccuracy(), 0.95);
    EXPECT_LT(stats.finalLoss(), stats.epochLoss.front());
}

TEST(TrainStats, EmptyDefaults)
{
    TrainStats stats;
    EXPECT_DOUBLE_EQ(stats.finalLoss(), 0.0);
    EXPECT_DOUBLE_EQ(stats.finalAccuracy(), 0.0);
}

TEST(EncoderKindName, AllNamed)
{
    EXPECT_STREQ(encoderKindName(EncoderKind::TreeLstm), "tree-LSTM");
    EXPECT_STREQ(encoderKindName(EncoderKind::Gcn), "GCN");
    EXPECT_STREQ(encoderKindName(EncoderKind::TokenLstm),
                 "token-LSTM");
}

} // namespace
} // namespace ccsa
