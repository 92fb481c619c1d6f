/**
 * @file
 * Seeded input generation for the ccsa benchmark. Everything a
 * workload feeds the library — arrival times, program sources, rank
 * requests, training corpora — is a pure function of the workload
 * seed, so the same seed replays the same traffic and a different
 * seed gives different traffic. The library only ever receives these
 * generated inputs (sources, trees, pairs); it never sees which
 * workload produced them.
 */

#ifndef PERFBENCH_INPUTS_HH
#define PERFBENCH_INPUTS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ast/ast.hh"
#include "dataset/corpus.hh"
#include "dataset/pairs.hh"

namespace perfbench
{

/** splitmix64 of (seed, i): stateless per-request randomness. */
std::uint64_t mix(std::uint64_t seed, std::uint64_t i);

/** Arrival offsets in ns from the phase start of a Poisson process
 * at `ratePerS`, covering `seconds`. */
std::vector<std::int64_t> poissonArrivals(std::uint64_t seed,
                                          double ratePerS,
                                          double seconds);

/**
 * A parsed program plus the places inside its function bodies where
 * one statement can be inserted and survive pruning. Codegen yields
 * only a few hundred structurally distinct programs, so novel inputs
 * of a stationary size are made by editing: edit(k) inserts one
 * statement whose position and operator sequence are a bijection of
 * k, so distinct k < editCapacity() give structurally distinct trees.
 */
class EditableProgram
{
  public:
    /** nullopt when the source does not parse or has no usable
     * insertion point. `salt` varies literals and the operator
     * mapping. */
    static std::optional<EditableProgram> make(std::string source,
                                               std::uint64_t salt);

    /** Source text of the k-th edit (k < editCapacity()). */
    std::string edit(std::uint64_t k) const;

    std::uint64_t editCapacity() const;
    const std::string& source() const { return source_; }
    const ccsa::Ast& ast() const { return ast_; }

  private:
    std::string source_;
    ccsa::Ast ast_;
    /** Byte offsets (line ends) where a statement may be inserted. */
    std::vector<std::size_t> points_;
    std::uint64_t salt_ = 0;
};

/**
 * CI regression checks: each request compares a lineage head with a
 * never-seen child (one inserted statement). The heads are the same
 * under every seed; the seed picks each request's lineage and varies
 * the inserted statements. Edits below kReserved are for warm-up and
 * probes; request i uses edit kReserved + i of lineage lineage(i), so
 * no request child repeats any other tree.
 */
struct CommitInputs
{
    static constexpr std::uint64_t kReserved = 4096;

    std::uint64_t seed = 0;
    std::vector<EditableProgram> heads;

    std::size_t lineage(std::uint64_t request) const;
    std::string child(std::uint64_t request) const;
    /** A reserved (non-request) edit, spread over the lineages. */
    std::string reservedChild(std::uint64_t k) const;
    std::size_t reservedLineage(std::uint64_t k) const;
};

CommitInputs makeCommitInputs(std::uint64_t seed,
                              std::size_t lineages);

/** Algorithm selection: each request ranks kRankCandidates
 * same-family programs from a resident pool. */
constexpr std::size_t kRankCandidates = 8;

struct RankInputs
{
    struct Request
    {
        std::size_t family = 0;
        std::array<std::size_t, kRankCandidates> members{};
    };

    std::uint64_t seed = 0;
    /** pool[f][j]: the j-th distinct program of family f. */
    std::vector<std::vector<ccsa::Ast>> pool;
    std::vector<std::vector<std::string>> sources;

    Request request(std::uint64_t i) const;
};

RankInputs makeRankInputs(std::uint64_t seed, std::size_t perFamily);

/** A judged corpus from a fixed seed (model quality is compared
 * across runs, so its data never varies), split into training pairs
 * and disjoint held-out pairs. */
struct RetrainInputs
{
    ccsa::Corpus corpus;
    std::vector<ccsa::CodePair> train;
    std::vector<ccsa::CodePair> heldOut;
};

RetrainInputs makeRetrainInputs(int submissions,
                                std::size_t maxTrainPairs);

/** Held-out pair index of retrain request i. */
std::size_t heldOutRequest(std::uint64_t seed, std::uint64_t i,
                           std::size_t heldOutPairs);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_HH
