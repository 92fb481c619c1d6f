/**
 * @file
 * Differential fuzzing of the MiniCxx front end: the library's
 * one-pass parser (ccsa::parseSource, ccsa::parseAndPrune and
 * Engine::parseSource) against the reference front end in
 * oracle_frontend.hh. On every input both sides must reject with the
 * same message, or return trees that match node for node — kind,
 * parent, child order and text at every id, since digestAst hashes
 * ids and keys every serving cache.
 *
 * LLVMFuzzerTestOneInput has libFuzzer's entry-point shape; here the
 * gtest driver feeds it the generated corpus, one-statement commit
 * edits, hostile nesting, the committed corpus under
 * tests/corpus/frontend/ (every input that ever failed goes there),
 * then a fixed number of seeded mutations of those inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/rng.hh"
#include "codegen/generator.hh"
#include "frontend/parser.hh"
#include "oracle_frontend.hh"
#include "serve/engine.hh"

namespace ccsa
{
namespace
{

/** A parse's outcome: the tree, or the error it was rejected with. */
struct Outcome
{
    bool ok = false;
    Ast tree;
    std::string error;
};

template <class Parse>
Outcome
run(Parse&& parse)
{
    Outcome out;
    try {
        out.tree = parse();
        out.ok = true;
    } catch (const FatalError& e) {
        out.error = e.what();
    } catch (const std::exception& e) {
        // Anything but a FatalError (a panic, bad_alloc) is a bug on
        // either side; keep it distinguishable from a rejection.
        out.error = std::string("unexpected exception: ") + e.what();
    }
    return out;
}

/** @return "" when the outcomes agree, else what differs. */
std::string
compare(const char* what, const Outcome& expected, const Outcome& actual)
{
    if (expected.ok != actual.ok)
        return std::string(what) + ": oracle " +
            (expected.ok ? "accepts" : "rejects (" + expected.error + ")") +
            ", parser " +
            (actual.ok ? "accepts" : "rejects (" + actual.error + ")");
    if (!expected.ok)
        return expected.error == actual.error
            ? ""
            : std::string(what) + ": errors differ: '" + expected.error +
                "' vs '" + actual.error + "'";
    std::string diff = oracle::firstDifference(expected.tree, actual.tree);
    return diff.empty() ? "" : std::string(what) + ": " + diff;
}

/** @return "" when every entry point agrees with the oracle on `src`. */
std::string
mismatch(std::string_view src)
{
    const std::string owned(src);
    Outcome oracleFull = run([&] { return oracle::parseSource(owned); });
    std::string diff = compare("parseSource", oracleFull,
                               run([&] { return parseSource(src); }));
    if (!diff.empty())
        return diff;
    Outcome oraclePruned =
        run([&] { return oracle::parseAndPrune(owned); });
    diff = compare("parseAndPrune", oraclePruned,
                   run([&] { return parseAndPrune(src); }));
    if (!diff.empty())
        return diff;
    Outcome engine;
    try {
        Result<Ast> parsed = Engine::parseSource(owned);
        engine.ok = parsed.isOk();
        if (engine.ok)
            engine.tree = std::move(parsed.value());
        else
            engine.error = parsed.status().message();
    } catch (const std::exception& e) {
        engine.error = std::string("unexpected exception: ") + e.what();
    }
    return compare("Engine::parseSource", oraclePruned, engine);
}

/** Printable form of a failing input, for the corpus. */
std::string
escaped(std::string_view src)
{
    constexpr std::size_t kShown = 600;
    std::ostringstream os;
    for (std::size_t i = 0; i < std::min(src.size(), kShown); ++i) {
        auto c = static_cast<unsigned char>(src[i]);
        if (c == '\\' || c == '"')
            os << '\\' << c;
        else if (c == '\n')
            os << "\\n";
        else if (c >= 0x20 && c < 0x7f)
            os << c;
        else
            os << "\\x" << std::hex << static_cast<int>(c) << std::dec;
    }
    if (src.size() > kShown)
        os << "... (" << src.size() << " bytes)";
    return os.str();
}

} // namespace
} // namespace ccsa

/**
 * One differential check, shaped like libFuzzer's entry point. A
 * disagreement is a test failure that prints the input.
 */
extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    std::string_view src(reinterpret_cast<const char*>(data), size);
    std::string diff = ccsa::mismatch(src);
    if (!diff.empty())
        ADD_FAILURE() << diff << "\n  input: \"" << ccsa::escaped(src)
                      << "\"";
    return 0;
}

namespace ccsa
{
namespace
{

void
fuzzOne(std::string_view src)
{
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(src.data()), src.size());
}

/** Every family and variant at three fixed seeds. */
std::vector<std::string>
generatedPrograms()
{
    std::vector<std::string> out;
    for (int f = 0; f < kNumFamilies; ++f) {
        auto gen = makeGenerator(static_cast<ProblemFamily>(f), 0);
        for (int v = 0; v < gen->numVariants(); ++v)
            for (std::uint64_t seed = 0; seed < 3; ++seed) {
                Rng rng(seed);
                out.push_back(gen->generateVariant(v, rng).source);
            }
    }
    return out;
}

/**
 * A commit-style child: one statement of `ops` binary operators
 * spliced after a statement (or block opening) inside a function
 * body, the edit shape of the commit workload.
 */
std::string
oneStatementEdit(const std::string& src, Rng& rng)
{
    static const char* const kOps[] = {"+", "-", "*", "/", "%",
                                       "&", "|", "^", "<<", "&&"};
    std::vector<std::size_t> points;
    int depth = 0;
    for (std::size_t i = 0; i < src.size(); ++i) {
        depth += src[i] == '{' ? 1 : src[i] == '}' ? -1 : 0;
        if (depth >= 1 && (src[i] == ';' || src[i] == '{') &&
            i + 1 < src.size() && src[i + 1] == '\n')
            points.push_back(i + 1);
    }
    if (points.empty())
        return src;
    std::string stmt = "int pb" + std::to_string(rng.uniformInt(0, 996)) +
        " = " + std::to_string(rng.uniformInt(2, 8));
    for (int k = 0; k < 5; ++k)
        stmt += std::string(" ") + kOps[rng.uniformInt(0, 9)] + " " +
            std::to_string(rng.uniformInt(2, 8));
    std::size_t at =
        points[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<int>(points.size()) - 1))];
    return src.substr(0, at) + "\n    " + stmt + ";" + src.substr(at);
}

// The hostile shapes test_frontend pins, at and past the bound.
std::string
nestedParens(int depth)
{
    return "int main() { return " + std::string(depth, '(') + "1" +
        std::string(depth, ')') + "; }";
}

std::string
nestedBlocks(int depth)
{
    return "int main() " + std::string(depth + 1, '{') +
        std::string(depth + 1, '}');
}

std::string
unaryChain(int depth)
{
    std::string ops;
    for (int i = 0; i < depth; ++i)
        ops += i % 2 == 0 ? '-' : '!';
    return "int main() { return " + ops + "1; }";
}

std::vector<std::string>
hostileNesting()
{
    std::vector<std::string> out;
    for (int depth : {998, 999, 100000}) {
        out.push_back(nestedParens(depth));
        out.push_back(unaryChain(depth));
    }
    for (int depth : {1000, 1001, 100000})
        out.push_back(nestedBlocks(depth));
    // No nesting bound applies to left-associative chains, but they
    // make trees 100k deep: every walk over them must be a loop.
    std::string sum = "int main() { return 1";
    std::string postfix = "int main() { a";
    for (int i = 0; i < 100000; ++i) {
        sum += "+1";
        postfix += i % 2 == 0 ? "[0]" : ".f";
    }
    out.push_back(sum + "; }");
    out.push_back(postfix + "++; }");
    return out;
}

std::filesystem::path
corpusDir()
{
    return std::filesystem::path(__FILE__).parent_path() / "corpus" /
        "frontend";
}

/** The committed corpus, in file-name order. */
std::vector<std::string>
corpusFiles()
{
    std::vector<std::filesystem::path> paths;
    for (const auto& entry :
         std::filesystem::directory_iterator(corpusDir()))
        if (entry.is_regular_file())
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    std::vector<std::string> out;
    for (const auto& path : paths) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out.push_back(bytes.str());
    }
    return out;
}

/** @return [begin, end) of the line holding byte `at`, newline kept. */
std::pair<std::size_t, std::size_t>
lineAround(const std::string& src, std::size_t at)
{
    std::size_t begin = src.rfind('\n', at == 0 ? 0 : at - 1);
    begin = begin == std::string::npos || at == 0 ? 0 : begin + 1;
    std::size_t end = src.find('\n', at);
    return {begin, end == std::string::npos ? src.size() : end + 1};
}

/**
 * One seeded mutation of 1-2 edits. Byte flips (biased toward the
 * bytes the lexer branches on), spliced spans of another input,
 * deleted or duplicated ranges and truncations mostly make input the
 * parser must reject; whole-line duplications and splices and
 * operator swaps mostly keep it parseable, so both outcomes stay
 * well exercised.
 */
std::string
mutate(const std::string& src, const std::vector<std::string>& pool,
       Rng& rng)
{
    static const std::string kInteresting =
        "(){}[];,.?:=+-*/%<>!&|^\"'\\#_ \n\t0123456789eEaxLU";
    static const std::string kOperators = "+-*/%<>=!&|^";
    std::string out = src;
    auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
    };
    int edits = rng.uniformInt(1, 2);
    for (int e = 0; e < edits && !out.empty(); ++e) {
        std::size_t at = pick(out.size());
        switch (rng.uniformInt(0, 7)) {
          case 0: // byte flip
            out[at] = rng.uniformInt(0, 3) == 0
                ? static_cast<char>(rng.uniformInt(0, 255))
                : kInteresting[pick(kInteresting.size())];
            break;
          case 1: { // splice a span of another input
            const std::string& donor = pool[pick(pool.size())];
            if (donor.empty())
                break;
            std::size_t from = pick(donor.size());
            out.insert(at, donor, from,
                       static_cast<std::size_t>(rng.uniformInt(1, 40)));
            break;
          }
          case 2: // delete a range
            out.erase(at, static_cast<std::size_t>(rng.uniformInt(1, 24)));
            break;
          case 3: // duplicate a range in place
            out.insert(at, out.substr(
                               at, static_cast<std::size_t>(
                                       rng.uniformInt(1, 60))));
            break;
          case 4: // truncate
            out.resize(at);
            break;
          case 5: { // duplicate a whole line
            auto [begin, end] = lineAround(out, at);
            out.insert(begin, out.substr(begin, end - begin));
            break;
          }
          case 6: { // splice a whole line of another input
            const std::string& donor = pool[pick(pool.size())];
            if (donor.empty())
                break;
            auto [from, to] = lineAround(donor, pick(donor.size()));
            out.insert(lineAround(out, at).first, donor, from, to - from);
            break;
          }
          default: // swap one operator character for another
            for (std::size_t k = 0; k < out.size(); ++k) {
                std::size_t p = (at + k) % out.size();
                if (kOperators.find(out[p]) != std::string::npos) {
                    out[p] = kOperators[pick(kOperators.size())];
                    break;
                }
            }
            break;
        }
    }
    return out;
}

/** Seeded mutations run by the gtest driver (a few seconds in Debug). */
constexpr int kMutations = 4000;

TEST(FuzzFrontend, GeneratedProgramsMatchTheOracle)
{
    std::vector<std::string> programs = generatedPrograms();
    ASSERT_GE(programs.size(), static_cast<std::size_t>(kNumFamilies) * 6);
    for (const std::string& src : programs)
        fuzzOne(src);
}

TEST(FuzzFrontend, OneStatementEditsMatchTheOracle)
{
    Rng rng(20);
    for (const std::string& src : generatedPrograms())
        for (int k = 0; k < 4; ++k)
            fuzzOne(oneStatementEdit(src, rng));
}

TEST(FuzzFrontend, HostileNestingMatchesTheOracle)
{
    for (const std::string& src : hostileNesting())
        fuzzOne(src);
}

TEST(FuzzFrontend, CommittedCorpusMatchesTheOracle)
{
    std::vector<std::string> corpus = corpusFiles();
    ASSERT_FALSE(corpus.empty()) << corpusDir();
    for (const std::string& src : corpus)
        fuzzOne(src);
}

TEST(FuzzFrontend, SeededMutationsMatchTheOracle)
{
    std::vector<std::string> pool = corpusFiles();
    for (std::string& src : generatedPrograms())
        pool.push_back(std::move(src));
    Rng rng(7);
    int accepted = 0;
    for (int i = 0; i < kMutations; ++i) {
        const std::string& seed =
            pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(pool.size()) - 1))];
        std::string input = mutate(seed, pool, rng);
        fuzzOne(input);
        if (::testing::Test::HasFailure())
            break;
        accepted += Engine::parseSource(input).isOk() ? 1 : 0;
    }
    RecordProperty("accepted", accepted);
    // The mutations must reach both outcomes, or half the comparison
    // is never exercised.
    EXPECT_GT(accepted, kMutations / 10);
    EXPECT_LT(accepted, kMutations * 9 / 10);
}

} // namespace
} // namespace ccsa
