/** Tests for the fuzzing loop, campaign driver, and baselines. */
#include <gtest/gtest.h>

#include "baselines/graphfuzzer.h"
#include "baselines/lemon.h"
#include "baselines/tzer.h"
#include "campaign_fixture.h"
#include "fuzz/campaign.h"
#include "graph/validate.h"

namespace nnsmith::fuzz {
namespace {

using test::borrow;

TEST(NNSmithFuzzerTest, IteratesAndProducesCases)
{
    auto owned = difftest::makeAllBackends();
    NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 5;
    options.search.timeBudgetMs = 16.0;
    NNSmithFuzzer fuzzer(options, 42);
    int produced = 0;
    for (int i = 0; i < 10; ++i) {
        const auto outcome = fuzzer.iterate(borrow(owned));
        produced += outcome.produced;
        EXPECT_GT(outcome.cost, 0);
    }
    EXPECT_GE(produced, 8);
    EXPECT_GE(fuzzer.generated(), 8u);
}

TEST(NNSmithFuzzerTest, FindsSeededDefectsQuickly)
{
    auto owned = difftest::makeAllBackends();
    NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10;
    options.search.timeBudgetMs = 8.0;
    NNSmithFuzzer fuzzer(options, 7);
    std::set<std::string> keys;
    for (int i = 0; i < 60; ++i) {
        for (const auto& bug : fuzzer.iterate(borrow(owned)).bugs)
            keys.insert(bug.dedupKey);
    }
    EXPECT_GE(keys.size(), 3u) << "NNSmith should trip several seeded "
                                  "defects within 60 iterations";
}

TEST(Campaign, RespectsVirtualBudgetAndSamples)
{
    auto owned = difftest::makeAllBackends();
    NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 4;
    options.search.timeBudgetMs = 4.0;
    NNSmithFuzzer fuzzer(options, 5);
    CampaignConfig config;
    config.virtualBudget = 60ll * 1000; // one virtual minute
    config.maxIterations = 500;
    config.coverageComponent = "ortlite";
    config.sampleEveryMinutes = 1;
    const auto result =
        runCampaign(fuzzer, borrow(owned), config);
    EXPECT_GT(result.iterations, 0u);
    EXPECT_GE(result.series.size(), 2u);
    EXPECT_GE(result.virtualTime, config.virtualBudget);
    // Coverage is monotone along the series.
    for (size_t i = 1; i < result.series.size(); ++i)
        EXPECT_GE(result.series[i].coverageAll,
                  result.series[i - 1].coverageAll);
    EXPECT_EQ(result.coverAll.count(), result.series.back().coverageAll);
}

TEST(Campaign, CoverageComponentFilterIsolatesBackends)
{
    auto owned = difftest::makeAllBackends();
    NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 4;
    options.search.timeBudgetMs = 4.0;
    NNSmithFuzzer fuzzer(options, 6);
    CampaignConfig config;
    config.virtualBudget = 30ll * 1000;
    config.maxIterations = 50;
    config.coverageComponent = "tvmlite";
    const auto result = runCampaign(fuzzer, borrow(owned), config);
    // All recorded branches belong to the tvmlite component: pass-only
    // is a subset of all.
    EXPECT_LE(result.coverPass.count(), result.coverAll.count());
    EXPECT_GT(result.coverAll.count(), 0u);
}

TEST(Lemon, OnlyShapePreservingMutationsAndSlow)
{
    auto owned = difftest::makeAllBackends();
    baselines::LemonFuzzer lemon(3);
    const auto outcome = lemon.iterate(borrow(owned));
    EXPECT_TRUE(outcome.produced);
    EXPECT_GT(outcome.cost, 5000) << "LEMON iterations must be costly";
}

TEST(Lemon, MutantsAreValidGraphs)
{
    // Validity is trivially maintained by LEMON's restriction; check it
    // holds in our implementation too.
    auto owned = difftest::makeAllBackends();
    baselines::LemonFuzzer lemon(11);
    for (int i = 0; i < 5; ++i)
        EXPECT_NO_THROW(lemon.iterate(borrow(owned)));
}

TEST(GraphFuzzerLite, GeneratesRepairedGraphs)
{
    auto owned = difftest::makeAllBackends();
    baselines::GraphFuzzerLite::Options options;
    options.targetOps = 8;
    baselines::GraphFuzzerLite gf(options, 9);
    int produced = 0;
    for (int i = 0; i < 8; ++i) {
        const auto outcome = gf.iterate(borrow(owned));
        produced += outcome.produced;
        EXPECT_FALSE(outcome.instanceKeys.empty());
    }
    EXPECT_EQ(produced, 8);
}

TEST(Tzer, CoverageGuidedCorpusGrows)
{
    // The campaign loop feeds each iteration's coverage back through
    // observeCoverage; that feedback is what grows the corpus.
    baselines::TzerFuzzer tzer(13);
    CampaignConfig config;
    config.maxIterations = 200;
    config.coverageComponent = "tvmlite";
    const auto result = runCampaign(tzer, {}, config);
    EXPECT_EQ(result.iterations, 200u);
    EXPECT_GE(tzer.corpusSize(), 2u);
    // Tzer only exercises low-level passes, never graph-level ones.
    const std::vector<coverage::BranchId> ids(
        result.coverAll.branches().begin(), result.coverAll.branches().end());
    size_t pass_sites = 0;
    for (const auto& site :
         coverage::CoverageRegistry::instance().describeSites(ids)) {
        pass_sites += site.component.rfind("tvmlite/pass", 0) == 0;
        EXPECT_NE(site.component.rfind("tvmlite/transform", 0), 0u)
            << site.key;
    }
    EXPECT_GT(pass_sites, 0u);
}

TEST(BugRecords, ExportCrashShortCircuits)
{
    difftest::CaseResult result;
    result.exportOk = false;
    result.exportCrashKind = "export.scalar";
    const auto bugs = bugsFromCase(result);
    ASSERT_EQ(bugs.size(), 1u);
    EXPECT_EQ(bugs[0].kind, "export-crash");
    EXPECT_EQ(bugs[0].dedupKey, "Exporter|crash|export.scalar");
}

} // namespace
} // namespace nnsmith::fuzz
