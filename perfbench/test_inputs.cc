/**
 * @file
 * Tests of the benchmark's input generators: a seed replays identical
 * inputs and expected answers while another seed changes them, every
 * commit child is a tree not seen earlier in a run, and what the
 * library receives is generated program text, never a workload name.
 *
 * Run: python3 perfbench/run.py --self-test (builds and runs the
 * perfbench_test_inputs binary); exits non-zero if any check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "inputs.hh"

#include "serve/engine.hh"

using namespace ccsa;
using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string& what)
{
    if (!ok) {
        std::fprintf(stderr, "FAILED: %s\n", what.c_str());
        ++failures;
    }
}

std::vector<std::string>
commitSources(const CommitInputs& in, std::uint64_t requests)
{
    std::vector<std::string> out;
    for (const EditableProgram& h : in.heads)
        out.push_back(h.source());
    for (std::uint64_t i = 0; i < requests; ++i)
        out.push_back(in.child(i));
    return out;
}

std::vector<std::size_t>
rankRequests(const RankInputs& in, std::uint64_t requests)
{
    std::vector<std::size_t> out;
    for (std::uint64_t i = 0; i < requests; ++i) {
        RankInputs::Request r = in.request(i);
        out.push_back(r.family);
        out.insert(out.end(), r.members.begin(), r.members.end());
    }
    return out;
}

/** Expected commit answers of the first requests, from a fresh
 * fixed-seed model (what the benchmark's oracle computes). */
std::vector<double>
commitAnswers(const CommitInputs& in, std::uint64_t requests)
{
    Engine oracle(Engine::Options().withSeed(1).withThreads(1));
    std::vector<Ast> children;
    children.reserve(requests);
    std::vector<Engine::PairRequest> pairs;
    for (std::uint64_t i = 0; i < requests; ++i)
        children.push_back(Engine::parseSource(in.child(i)).value());
    for (std::uint64_t i = 0; i < requests; ++i)
        pairs.push_back({&in.heads[in.lineage(i)].ast(), &children[i]});
    return oracle.compareMany(pairs).value();
}

void
testSeedsReplay()
{
    check(poissonArrivals(7, 2000.0, 1.0) == poissonArrivals(7, 2000.0, 1.0),
          "same seed, same arrivals");
    check(poissonArrivals(7, 2000.0, 1.0) != poissonArrivals(8, 2000.0, 1.0),
          "other seed, other arrivals");
    std::vector<std::int64_t> a = poissonArrivals(7, 2000.0, 1.0);
    check(a.size() > 1800 && a.size() < 2200, "Poisson count near rate");

    CommitInputs c1 = makeCommitInputs(7, 64);
    CommitInputs c2 = makeCommitInputs(7, 64);
    CommitInputs c3 = makeCommitInputs(8, 64);
    check(commitSources(c1, 500) == commitSources(c2, 500),
          "same seed, same commit sources");
    check(commitSources(c1, 500) != commitSources(c3, 500),
          "other seed, other commit sources");
    std::vector<double> e1 = commitAnswers(c1, 32);
    check(e1 == commitAnswers(c2, 32), "same seed, same commit answers");
    check(e1 != commitAnswers(c3, 32), "other seed, other commit answers");

    RankInputs r1 = makeRankInputs(7, 32);
    RankInputs r2 = makeRankInputs(7, 32);
    RankInputs r3 = makeRankInputs(8, 32);
    check(r1.sources == r2.sources, "same seed, same rank pool");
    check(r1.sources != r3.sources, "other seed, other rank pool");
    check(rankRequests(r1, 500) == rankRequests(r2, 500),
          "same seed, same rank requests");
    check(rankRequests(r1, 500) != rankRequests(r3, 500),
          "other seed, other rank requests");
    for (const auto& family : r1.pool)
        check(family.size() == 32, "rank pool holds 32 programs per family");

    std::vector<std::size_t> h1, h2, h3;
    for (std::uint64_t i = 0; i < 200; ++i) {
        h1.push_back(heldOutRequest(7, i, 1500));
        h2.push_back(heldOutRequest(7, i, 1500));
        h3.push_back(heldOutRequest(8, i, 1500));
    }
    check(h1 == h2 && h1 != h3, "held-out request streams follow the seed");
}

void
testCommitChildrenAreNovel()
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        CommitInputs in = makeCommitInputs(seed, 64);
        std::unordered_set<AstDigest, AstDigestHash> seen;
        std::size_t nodes = 0;
        for (const EditableProgram& h : in.heads) {
            check(seen.insert(digestAst(h.ast())).second,
                  "lineage heads are distinct");
            nodes += static_cast<std::size_t>(h.ast().size());
        }
        std::vector<std::string> sources;
        for (std::uint64_t k = 0; k < CommitInputs::kReserved; ++k)
            sources.push_back(in.reservedChild(k));
        for (std::uint64_t i = 0; i < 6000; ++i)
            sources.push_back(in.child(i));
        std::size_t repeated = 0, unparsed = 0;
        for (const std::string& s : sources) {
            Result<Ast> ast = Engine::parseSource(s);
            if (!ast.isOk()) {
                ++unparsed;
                continue;
            }
            repeated += seen.insert(digestAst(ast.value())).second ? 0 : 1;
        }
        check(unparsed == 0, "every child parses (seed " +
                                 std::to_string(seed) + ")");
        check(repeated == 0, "every child is a new tree (seed " +
                                 std::to_string(seed) + ")");
        check(nodes / in.heads.size() > 100, "heads are realistic programs");
    }
}

void
testOnlyGeneratedInputs()
{
    const char* names[] = {"commit_cold", "rank_hot", "rank_hot_ipc",
                           "retrain"};
    std::vector<std::string> all = commitSources(makeCommitInputs(5, 64), 200);
    for (const auto& family : makeRankInputs(5, 32).sources)
        all.insert(all.end(), family.begin(), family.end());
    RetrainInputs retrain = makeRetrainInputs(48, 256);
    for (const Submission& s : retrain.corpus.submissions())
        all.push_back(s.source);
    check(!retrain.train.empty() && !retrain.heldOut.empty(),
          "retrain corpus has training and held-out pairs");
    for (const std::string& s : all)
        for (const char* name : names)
            check(s.find(name) == std::string::npos,
                  std::string("a generated input names workload ") + name);
}

} // namespace

int
main()
{
    testSeedsReplay();
    testCommitChildrenAreNovel();
    testOnlyGeneratedInputs();
    if (failures != 0) {
        std::fprintf(stderr, "%d checks failed\n", failures);
        return 1;
    }
    std::printf("perfbench input tests passed\n");
    return 0;
}
