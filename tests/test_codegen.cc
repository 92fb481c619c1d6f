/**
 * @file
 * Property tests over the corpus generator: every family x variant x
 * seed must produce source that lexes, parses, prunes, and contains a
 * main function; styles must actually vary the structure.
 */

#include <set>

#include <gtest/gtest.h>

#include "codegen/generator.hh"
#include "frontend/parser.hh"

namespace ccsa
{
namespace
{

class FamilyVariantTest
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(FamilyVariantTest, GeneratesParseableStructuredSource)
{
    auto [family_idx, variant] = GetParam();
    auto family = static_cast<ProblemFamily>(family_idx);
    auto generator = makeGenerator(family, /*problem_seed=*/0);
    ASSERT_GE(generator->numVariants(), 2);
    if (variant >= generator->numVariants())
        GTEST_SKIP() << "variant not defined for this family";

    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        Rng rng(seed);
        GeneratedSolution sol = generator->generateVariant(variant,
                                                           rng);
        EXPECT_EQ(sol.algoVariant, variant);
        ASSERT_FALSE(sol.source.empty());

        Ast pruned = parseAndPrune(sol.source);
        // The full tree holds the functions plus the globals.
        EXPECT_GE(parseSource(sol.source).size(), pruned.size());
        // A real program: main plus meaningful structure.
        bool has_main = false;
        for (int id : pruned.nodesOfKind(NodeKind::FunctionDef))
            if (pruned.node(id).text == "main")
                has_main = true;
        EXPECT_TRUE(has_main) << sol.source;
        EXPECT_GE(pruned.size(), 30) << "suspiciously small program";
        EXPECT_GE(pruned.depth(), 4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilyVariantTest,
    ::testing::Combine(::testing::Range(0, kNumFamilies),
                       ::testing::Values(0, 1, 2)));

TEST(Codegen, RandomVariantMixCoversAllVariants)
{
    auto generator = makeGenerator(ProblemFamily::C, 0);
    Rng rng(9);
    std::set<int> seen;
    for (int i = 0; i < 60; ++i)
        seen.insert(generator->generate(rng).algoVariant);
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(generator->numVariants()));
}

TEST(Codegen, DifferentSeedsDifferentSources)
{
    auto generator = makeGenerator(ProblemFamily::A, 0);
    Rng rng(1);
    std::set<std::string> sources;
    for (int i = 0; i < 10; ++i)
        sources.insert(generator->generateVariant(2, rng).source);
    // Style knobs must provide real surface diversity.
    EXPECT_GE(sources.size(), 5u);
}

TEST(Codegen, ProblemSeedChangesConstants)
{
    Rng rng1(5), rng2(5);
    auto g0 = makeGenerator(ProblemFamily::B, 0);
    auto g1 = makeGenerator(ProblemFamily::B, 1);
    std::string s0 = g0->generateVariant(0, rng1).source;
    std::string s1 = g1->generateVariant(0, rng2).source;
    EXPECT_NE(s0, s1);
}

TEST(Codegen, DeterministicForFixedSeed)
{
    auto generator = makeGenerator(ProblemFamily::F, 0);
    Rng a(77), b(77);
    EXPECT_EQ(generator->generateVariant(1, a).source,
              generator->generateVariant(1, b).source);
}

TEST(Codegen, FamilyMetadata)
{
    EXPECT_STREQ(familyTag(ProblemFamily::A), "A");
    EXPECT_STREQ(familyTag(ProblemFamily::I), "I");
    EXPECT_STREQ(familyAlgorithms(ProblemFamily::H),
                 "Dynamic programming (DP)");
}

TEST(StyleKnobs, SchemesProduceValidIdentifiers)
{
    for (int scheme = 0; scheme < 4; ++scheme) {
        StyleKnobs k;
        k.nameScheme = scheme;
        for (int level = 0; level < 3; ++level)
            EXPECT_FALSE(k.idx(level).empty());
        EXPECT_FALSE(k.arr().empty());
        EXPECT_FALSE(k.helper().empty());
        EXPECT_FALSE(k.tmp().empty());
    }
    StyleKnobs k;
    k.flushEndl = true;
    EXPECT_EQ(k.eol(), "endl");
    k.flushEndl = false;
    EXPECT_EQ(k.eol(), "\"\\n\"");
    k.useLongLong = true;
    EXPECT_EQ(k.intType(), "long long");
}

TEST(StyleKnobs, RandomKnobsVary)
{
    Rng rng(3);
    std::set<bool> helper_seen, endl_seen;
    for (int i = 0; i < 40; ++i) {
        StyleKnobs k = StyleKnobs::random(rng);
        helper_seen.insert(k.useHelperFunction);
        endl_seen.insert(k.flushEndl);
    }
    EXPECT_EQ(helper_seen.size(), 2u);
    EXPECT_EQ(endl_seen.size(), 2u);
}

} // namespace
} // namespace ccsa
