#include "inputs.hh"

#include <cmath>
#include <memory>
#include <unordered_set>

#include "base/logging.hh"
#include "base/rng.hh"
#include "codegen/generator.hh"
#include "dataset/problem.hh"
#include "serve/engine.hh"

namespace perfbench
{

namespace
{

/** Operators of one inserted statement: kEditOps binary operators
 * drawn from 8 kinds give 8^kEditOps distinct expression shapes per
 * insertion point. */
constexpr int kEditOps = 5;
constexpr std::uint64_t kShapes = 1ull << (3 * kEditOps);
const char* const kOps[8] = {"+", "-", "*", "/", "%", "&", "|", "^"};

/** Insertion points validated per program; bounds set-up parsing. */
constexpr std::size_t kMaxPoints = 8;

/** Fixed corpus seed of the retrain data (ExperimentConfig's). */
constexpr std::uint64_t kCorpusSeed = 100;

std::string
statement(std::uint64_t shape, std::uint64_t salt)
{
    // Identifier and literal spellings vary with the salt but are
    // invisible to the model; the operator sequence is the shape.
    std::string s = "int pb" + std::to_string(salt % 997) + " = " +
        std::to_string(2 + salt % 7);
    for (int k = 0; k < kEditOps; ++k) {
        s += ' ';
        s += kOps[shape % 8];
        shape /= 8;
        s += ' ';
        s += std::to_string(2 + (salt >> (4 * k + 8)) % 7);
    }
    return s + ";";
}

std::string
splice(const std::string& source, std::size_t at,
       const std::string& stmt)
{
    std::string out;
    out.reserve(source.size() + stmt.size() + 8);
    out.append(source, 0, at);
    out += "\n    ";
    out += stmt;
    out.append(source, at, std::string::npos);
    return out;
}

/** Nodes one inserted statement adds to a pruned tree. */
int
statementNodes()
{
    static const int nodes = [] {
        auto with = ccsa::Engine::parseSource(
            "int main() {\n    " + statement(0, 0) + "\n}\n");
        auto without = ccsa::Engine::parseSource("int main() {\n}\n");
        if (!with.isOk() || !without.isOk())
            ccsa::fatal("perfbench: edit statement does not parse");
        return with.value().size() - without.value().size();
    }();
    return nodes;
}

std::string
trimmed(const std::string& s, std::size_t begin, std::size_t end)
{
    while (begin < end && (s[begin] == ' ' || s[begin] == '\t'))
        ++begin;
    while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t' ||
                           s[end - 1] == '\r'))
        --end;
    return s.substr(begin, end - begin);
}

} // namespace

std::uint64_t
mix(std::uint64_t seed, std::uint64_t i)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + i + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::vector<std::int64_t>
poissonArrivals(std::uint64_t seed, double ratePerS, double seconds)
{
    ccsa::Rng rng(mix(seed, 0xA5517A15), 7);
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(ratePerS * seconds * 1.1));
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / ratePerS;
        if (t >= seconds)
            return out;
        out.push_back(static_cast<std::int64_t>(std::llround(t * 1e9)));
    }
}

std::optional<EditableProgram>
EditableProgram::make(std::string source, std::uint64_t salt)
{
    auto parsed = ccsa::Engine::parseSource(source);
    if (!parsed.isOk())
        return std::nullopt;
    EditableProgram p;
    p.source_ = std::move(source);
    p.ast_ = std::move(parsed.value());
    p.salt_ = salt;
    const std::string& src = p.source_;

    // Candidate points: ends of lines inside a function body that
    // close a statement or open a block, unless an `else` follows.
    std::vector<std::size_t> candidates;
    int depth = 0;
    std::size_t begin = 0;
    while (begin < src.size()) {
        std::size_t end = src.find('\n', begin);
        if (end == std::string::npos)
            end = src.size();
        for (std::size_t c = begin; c < end; ++c)
            depth += src[c] == '{' ? 1 : src[c] == '}' ? -1 : 0;
        std::string line = trimmed(src, begin, end);
        if (depth >= 1 && !line.empty() &&
            (line.back() == ';' || line.back() == '{')) {
            std::size_t next = end;
            std::string following;
            while (next < src.size() && following.empty()) {
                std::size_t nb = next + 1;
                next = src.find('\n', nb);
                if (next == std::string::npos)
                    next = src.size();
                following = trimmed(src, nb, next);
            }
            if (following.rfind("else", 0) != 0)
                candidates.push_back(end);
        }
        begin = end + 1;
    }

    // Keep points where the edit parses and survives pruning intact;
    // validate an evenly spread subset to bound set-up time.
    std::size_t stride = candidates.size() / kMaxPoints + 1;
    for (std::size_t c = salt % stride; c < candidates.size();
         c += stride) {
        auto edited = ccsa::Engine::parseSource(
            splice(src, candidates[c], statement(0, salt)));
        if (edited.isOk() &&
            edited.value().size() == p.ast_.size() + statementNodes())
            p.points_.push_back(candidates[c]);
    }
    if (p.points_.empty())
        return std::nullopt;
    return p;
}

std::uint64_t
EditableProgram::editCapacity() const
{
    return points_.size() * kShapes;
}

std::string
EditableProgram::edit(std::uint64_t k) const
{
    if (k >= editCapacity())
        ccsa::fatal("perfbench: edit ordinal out of range");
    std::size_t point = points_[k % points_.size()];
    std::uint64_t shape = (k / points_.size() + salt_) % kShapes;
    return splice(source_, point, statement(shape, mix(salt_, k)));
}

std::size_t
CommitInputs::lineage(std::uint64_t request) const
{
    return mix(seed, request) % heads.size();
}

std::string
CommitInputs::child(std::uint64_t request) const
{
    return heads[lineage(request)].edit(kReserved + request);
}

std::size_t
CommitInputs::reservedLineage(std::uint64_t k) const
{
    return k % heads.size();
}

std::string
CommitInputs::reservedChild(std::uint64_t k) const
{
    if (k >= kReserved)
        ccsa::fatal("perfbench: reserved edit out of range");
    return heads[reservedLineage(k)].edit(k);
}

CommitInputs
makeCommitInputs(std::uint64_t seed, std::size_t lineages)
{
    CommitInputs in;
    in.seed = seed;
    std::unordered_set<ccsa::AstDigest, ccsa::AstDigestHash> seen;
    // The heads are one fixed set of programs, like a repository
    // whose commits differ from run to run: the seed picks each
    // request's lineage and edit. A forest of children then has about
    // the same shape under every seed, and so does the memory its
    // encode takes.
    ccsa::Rng rng(mix(kCorpusSeed, 0xC0FFEE), 3);
    std::vector<std::unique_ptr<ccsa::ProblemGenerator>> gens;
    for (int f = 0; f < ccsa::kNumFamilies; ++f)
        gens.push_back(
            ccsa::makeGenerator(static_cast<ccsa::ProblemFamily>(f)));
    for (std::size_t draw = 0;
         in.heads.size() < lineages && draw < lineages * 50; ++draw) {
        const auto& gen = gens[draw % gens.size()];
        auto head = EditableProgram::make(gen->generate(rng).source,
                                          mix(seed, draw));
        if (head && seen.insert(ccsa::digestAst(head->ast())).second)
            in.heads.push_back(std::move(*head));
    }
    if (in.heads.size() < lineages)
        ccsa::fatal("perfbench: too few distinct lineage heads");
    return in;
}

RankInputs::Request
RankInputs::request(std::uint64_t i) const
{
    ccsa::Rng rng(mix(seed, i), 11);
    Request r;
    r.family = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(pool.size()) - 1));
    std::vector<std::size_t> order(pool[r.family].size());
    for (std::size_t j = 0; j < order.size(); ++j)
        order[j] = j;
    for (std::size_t j = 0; j < kRankCandidates; ++j) {
        std::size_t pick = j + static_cast<std::size_t>(rng.uniformInt(
                                   0, static_cast<int>(order.size() -
                                                       j) - 1));
        std::swap(order[j], order[pick]);
        r.members[j] = order[j];
    }
    return r;
}

RankInputs
makeRankInputs(std::uint64_t seed, std::size_t perFamily)
{
    RankInputs in;
    in.seed = seed;
    std::unordered_set<ccsa::AstDigest, ccsa::AstDigestHash> seen;
    for (int f = 0; f < ccsa::kNumFamilies; ++f) {
        auto gen = ccsa::makeGenerator(static_cast<ccsa::ProblemFamily>(f));
        ccsa::Rng rng(mix(seed, 0x9A57 + f), 5);
        std::vector<ccsa::Ast> programs;
        std::vector<std::string> sources;
        auto keep = [&](std::string source) {
            auto ast = ccsa::Engine::parseSource(source);
            if (ast.isOk() && seen.insert(ccsa::digestAst(ast.value())).second) {
                programs.push_back(std::move(ast.value()));
                sources.push_back(std::move(source));
            }
        };
        for (std::size_t draw = 0;
             programs.size() < perFamily && draw < 4 * perFamily; ++draw)
            keep(gen->generate(rng).source);
        // Families with little structural variety are filled with
        // one-statement edits of their own programs.
        std::size_t drawn = sources.size();
        if (drawn == 0)
            ccsa::fatal("perfbench: family without programs");
        for (std::size_t k = 0; programs.size() < perFamily; ++k) {
            auto base = EditableProgram::make(sources[k % drawn],
                                              mix(seed, k + 1000 * f));
            if (base)
                keep(base->edit(k));
            if (k > 64 * perFamily)
                ccsa::fatal("perfbench: cannot fill the rank pool");
        }
        in.pool.push_back(std::move(programs));
        in.sources.push_back(std::move(sources));
    }
    return in;
}

RetrainInputs
makeRetrainInputs(int submissions, std::size_t maxTrainPairs)
{
    RetrainInputs in{ccsa::Corpus::generate(
                         ccsa::tableISpec(ccsa::ProblemFamily::E),
                         submissions, kCorpusSeed),
                     {},
                     {}};
    ccsa::Rng rng(kCorpusSeed, 0x5EED);
    auto [trainIdx, testIdx] = in.corpus.split(0.75, rng);
    ccsa::PairOptions train;
    train.maxPairs = maxTrainPairs;
    in.train = ccsa::buildPairs(in.corpus.submissions(), trainIdx,
                                train, rng);
    ccsa::PairOptions heldOut;
    heldOut.symmetric = false;
    heldOut.maxPairs = 1500;
    in.heldOut = ccsa::buildPairs(in.corpus.submissions(), testIdx,
                                  heldOut, rng);
    return in;
}

std::size_t
heldOutRequest(std::uint64_t seed, std::uint64_t i,
               std::size_t heldOutPairs)
{
    return mix(seed ^ 0x4E1D0u, i) % heldOutPairs;
}

} // namespace perfbench
