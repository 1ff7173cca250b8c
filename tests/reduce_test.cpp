/** Tests for the defect-reduction subsystem (reduce/): the ddmin core,
 *  GraphReducer and PassSequenceReducer invariants (minimized repro
 *  still validates and fires the same fingerprint, determinism,
 *  idempotence), fingerprint-keyed dedup, campaigns with
 *  minimization enabled, and the repro report writer. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "backends/backend.h"
#include "campaign_fixture.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "graph/validate.h"
#include "reduce/ddmin.h"
#include "reduce/reducer.h"
#include "reduce/report.h"

namespace nnsmith {
namespace {

using fuzz::BugRecord;
using fuzz::CampaignResult;
using fuzz::IterationOutcome;

// ---- ddmin core -----------------------------------------------------------

TEST(Ddmin, FindsExactTwoItemCore)
{
    // Fails iff both items 2 and 5 are kept — the classic ddmin demo.
    auto contains_core = [](const std::vector<size_t>& kept) {
        const bool has2 = std::count(kept.begin(), kept.end(), 2u) != 0;
        const bool has5 = std::count(kept.begin(), kept.end(), 5u) != 0;
        return has2 && has5;
    };
    reduce::DdminStats stats;
    const auto minimal = reduce::ddmin(8, contains_core, &stats);
    EXPECT_EQ(minimal, (std::vector<size_t>{2, 5}));
    EXPECT_EQ(stats.originalSize, 8u);
    EXPECT_EQ(stats.minimizedSize, 2u);
    EXPECT_GT(stats.testsRun, 0u);
    EXPECT_FALSE(stats.budgetExhausted);
}

TEST(Ddmin, FindsSingletonCore)
{
    auto has3 = [](const std::vector<size_t>& kept) {
        return std::count(kept.begin(), kept.end(), 3u) != 0;
    };
    EXPECT_EQ(reduce::ddmin(16, has3), (std::vector<size_t>{3}));
}

TEST(Ddmin, DeterministicAndIdempotent)
{
    auto pred = [](const std::vector<size_t>& kept) {
        // Needs one even and one odd index kept.
        bool even = false, odd = false;
        for (size_t i : kept)
            (i % 2 == 0 ? even : odd) = true;
        return even && odd;
    };
    const auto first = reduce::ddmin(12, pred);
    const auto second = reduce::ddmin(12, pred);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.size(), 2u);
    // Re-reducing an already minimal set changes nothing: remap the
    // minimal indices onto {0..n-1} and reduce again.
    auto remapped = [&](const std::vector<size_t>& kept) {
        std::vector<size_t> original;
        for (size_t i : kept)
            original.push_back(first[i]);
        return pred(original);
    };
    EXPECT_EQ(reduce::ddmin(first.size(), remapped).size(), first.size());
}

TEST(Ddmin, BudgetCutIsCleanAndResultStillFails)
{
    size_t calls = 0;
    auto pred = [&](const std::vector<size_t>& kept) {
        ++calls;
        return std::count(kept.begin(), kept.end(), 7u) != 0;
    };
    reduce::DdminStats stats;
    const auto minimal = reduce::ddmin(64, pred, &stats, /*max_tests=*/3);
    EXPECT_LE(stats.testsRun, 3u);
    EXPECT_EQ(calls, stats.testsRun);
    // Whatever was reached under budget must still satisfy the
    // predicate (ddmin only ever narrows to failing subsets).
    EXPECT_TRUE(pred(minimal));
}

// ---- fingerprint keys -----------------------------------------------------

TEST(Fingerprint, WrongResultKeyIsOrderAndNoiseInvariant)
{
    BugRecord a;
    a.backend = "OrtLite";
    a.kind = "wrong-result";
    a.dedupKey = "OrtLite|wrong|raw-trace-order-1";
    a.defects = {"ort.simplify.slice_noop", "ort.misc.parallel_reorder"};

    BugRecord b = a;
    b.dedupKey = "OrtLite|wrong|raw-trace-order-2";
    b.defects = {"ort.misc.parallel_reorder", "ort.simplify.slice_noop",
                 // another system's defect is noise for OrtLite's key
                 "tvm.fuse.broadcast_output"};

    EXPECT_EQ(reduce::fingerprintKey(a), reduce::fingerprintKey(b));
    EXPECT_EQ(reduce::fingerprintKey(a),
              "OrtLite|wrong|ort.misc.parallel_reorder,"
              "ort.simplify.slice_noop");
}

TEST(Fingerprint, CrashKeysPassThrough)
{
    BugRecord bug;
    bug.backend = "TVMLite";
    bug.kind = "crash";
    bug.dedupKey = "TVMLite|crash|tvm.layout.nchw4c_slice";
    bug.defects = {"tvm.layout.nchw4c_slice", "exp.clip.i32"};
    EXPECT_EQ(reduce::fingerprintKey(bug), bug.dedupKey);
}

// ---- graph reduction ------------------------------------------------------

struct Flagged {
    BugRecord bug;
    std::vector<std::unique_ptr<backends::Backend>> owned;
    std::vector<backends::Backend*> backends;
};

/** Fuzz until a graph case is flagged; returns the first bug record. */
Flagged
findFlaggedGraphCase(uint64_t seed_base)
{
    Flagged flagged;
    flagged.owned = difftest::makeAllBackends();
    flagged.backends = test::borrow(flagged.owned);

    for (uint64_t seed = seed_base; seed < seed_base + 200; ++seed) {
        IterationOutcome outcome =
            test::paperFuzzer(seed)->iterate(flagged.backends);
        if (outcome.bugs.empty())
            continue;
        flagged.bug = outcome.bugs.front();
        EXPECT_NE(flagged.bug.graphRepro, nullptr);
        return flagged;
    }
    ADD_FAILURE() << "no flagged graph case in 200 iterations";
    return flagged;
}

TEST(GraphReducer, MinimizedReproValidatesAndFiresSameFingerprint)
{
    Flagged flagged = findFlaggedGraphCase(9000);
    ASSERT_NE(flagged.bug.graphRepro, nullptr);
    const auto original = flagged.bug.graphRepro;

    ASSERT_TRUE(reduce::minimizeBug(flagged.bug, flagged.backends));
    ASSERT_NE(flagged.bug.graphRepro, nullptr);
    EXPECT_TRUE(flagged.bug.minimized);
    EXPECT_GT(flagged.bug.originalSize, 0u);
    EXPECT_LE(flagged.bug.minimizedSize, flagged.bug.originalSize);
    EXPECT_EQ(flagged.bug.originalSize,
              static_cast<size_t>(original->graph.numOpNodes()));
    EXPECT_EQ(flagged.bug.minimizedSize,
              static_cast<size_t>(
                  flagged.bug.graphRepro->graph.numOpNodes()));
    // The minimized repro is a valid model that re-triggers the
    // identical defect-trace fingerprint.
    EXPECT_TRUE(graph::validate(flagged.bug.graphRepro->graph).ok());
    EXPECT_TRUE(reduce::reproStillFires(flagged.bug, flagged.backends));
    // minimizedDefects is the minimized repro's own trace: re-running
    // the oracle on the minimized case must reproduce it exactly
    // (bug.defects keeps the discovery-time trace).
    const auto rerun = difftest::runCase(flagged.bug.graphRepro->graph,
                                         flagged.bug.graphRepro->leaves,
                                         flagged.backends);
    EXPECT_EQ(rerun.triggeredDefects, flagged.bug.minimizedDefects);
}

TEST(GraphReducer, DeterministicAndIdempotent)
{
    Flagged flagged = findFlaggedGraphCase(9300);
    ASSERT_NE(flagged.bug.graphRepro, nullptr);

    BugRecord first = flagged.bug;
    BugRecord second = flagged.bug;
    ASSERT_TRUE(reduce::minimizeBug(first, flagged.backends));
    ASSERT_TRUE(reduce::minimizeBug(second, flagged.backends));
    EXPECT_EQ(first.dedupKey, second.dedupKey);
    EXPECT_EQ(first.minimizedSize, second.minimizedSize);
    EXPECT_EQ(first.graphRepro->graph.toString(),
              second.graphRepro->graph.toString());

    // Reducing the minimized repro again cannot shrink it further.
    BugRecord again = first;
    ASSERT_TRUE(reduce::minimizeBug(again, flagged.backends));
    EXPECT_EQ(again.minimizedSize, first.minimizedSize);
    EXPECT_EQ(again.graphRepro->graph.toString(),
              first.graphRepro->graph.toString());
}

// ---- pass-sequence reduction ----------------------------------------------

/** Fuzz pass sequences until one is flagged. */
BugRecord
findFlaggedSequence(uint64_t seed_base)
{
    for (uint64_t seed = seed_base; seed < seed_base + 2000; ++seed) {
        fuzz::PassSequenceFuzzer fuzzer(seed);
        IterationOutcome outcome = fuzzer.iterate({});
        if (outcome.bugs.empty())
            continue;
        EXPECT_NE(outcome.bugs.front().seqRepro, nullptr);
        return outcome.bugs.front();
    }
    ADD_FAILURE() << "no flagged pass sequence in 2000 iterations";
    return BugRecord{};
}

bool
isSubsequence(const std::vector<std::string>& sub,
              const std::vector<std::string>& full)
{
    size_t i = 0;
    for (const auto& pass : full) {
        if (i < sub.size() && sub[i] == pass)
            ++i;
    }
    return i == sub.size();
}

TEST(PassSequenceReducer, MinimalFailingSubsequence)
{
    BugRecord bug = findFlaggedSequence(100);
    ASSERT_NE(bug.seqRepro, nullptr);
    const auto original = bug.seqRepro;
    const std::string original_key = bug.dedupKey;

    ASSERT_TRUE(reduce::minimizeBug(bug, {}));
    EXPECT_TRUE(bug.minimized);
    EXPECT_EQ(bug.originalSize, original->sequence.size());
    EXPECT_LE(bug.minimizedSize, bug.originalSize);
    EXPECT_GE(bug.minimizedSize, 1u);
    // Minimization keeps pass order: the result is a subsequence.
    EXPECT_TRUE(
        isSubsequence(bug.seqRepro->sequence, original->sequence));
    // Sequence keys are already canonical; reduction must not change
    // the bug's identity.
    EXPECT_EQ(bug.dedupKey, original_key);
    EXPECT_TRUE(reduce::reproStillFires(bug, {}));

    BugRecord again = bug;
    ASSERT_TRUE(reduce::minimizeBug(again, {}));
    EXPECT_EQ(again.minimizedSize, bug.minimizedSize);
    EXPECT_EQ(again.seqRepro->sequence, bug.seqRepro->sequence);
}

// ---- campaign integration -------------------------------------------------

/** Median minimizedSize / originalSize over @p result's minimized
 *  repros (1 when there are none). */
double
medianReductionRatio(const CampaignResult& result)
{
    std::vector<double> ratios;
    for (const auto& [key, bug] : result.bugs) {
        if (bug.minimized)
            ratios.push_back(static_cast<double>(bug.minimizedSize) /
                             static_cast<double>(bug.originalSize));
    }
    if (ratios.empty())
        return 1.0;
    std::sort(ratios.begin(), ratios.end());
    const size_t mid = ratios.size() / 2;
    return ratios.size() % 2 == 1 ? ratios[mid]
                                   : 0.5 * (ratios[mid - 1] + ratios[mid]);
}

TEST(MinimizingCampaign, MinimizeDoesNotChangeCoverageOrIterations)
{
    auto config = test::paperCampaign(2, 43);
    const auto baseline = fuzz::runParallelCampaign(config);
    config.campaign.minimize = true;
    const auto minimized = fuzz::runParallelCampaign(config);
    // Reduction re-runs the oracle outside coverage collection, so
    // everything except the bug map (rekeying + repro swap) matches.
    EXPECT_EQ(baseline.iterations, minimized.iterations);
    EXPECT_EQ(baseline.coverAll.branches(), minimized.coverAll.branches());
    EXPECT_EQ(baseline.coverPass.branches(),
              minimized.coverPass.branches());
    EXPECT_EQ(baseline.instanceKeys, minimized.instanceKeys);
    // Fingerprint rekeying can only merge reports, never invent them.
    EXPECT_LE(minimized.bugs.size(), baseline.bugs.size());
}

TEST(MinimizingCampaign, FlaggedBugsAreMinimizedAndRefire)
{
    auto config = test::paperCampaign(2, 2023);
    config.campaign.maxIterations = 60;
    config.campaign.minimize = true;
    const auto result = fuzz::runParallelCampaign(config);
    const auto owned = difftest::makeAllBackends();
    const auto all = test::borrow(owned);
    size_t with_repro = 0;
    for (const auto& [key, bug] : result.bugs) {
        if (bug.graphRepro == nullptr)
            continue;
        ++with_repro;
        EXPECT_TRUE(bug.minimized) << key;
        EXPECT_LE(bug.minimizedSize, bug.originalSize) << key;
        EXPECT_TRUE(graph::validate(bug.graphRepro->graph).ok()) << key;
        EXPECT_TRUE(reduce::reproStillFires(bug, all)) << key;
    }
    EXPECT_GT(with_repro, 0u);
    // Reduction must pay off, not only terminate: the typical repro
    // keeps at most half of the flagged graph's op nodes.
    EXPECT_LE(medianReductionRatio(result), 0.5);
}

TEST(MinimizingCampaign, FlaggedSequencesAreMinimizedAndRefire)
{
    auto config = test::passSequenceCampaign(1, 2023);
    config.campaign.maxIterations = 60;
    config.campaign.minimize = true;
    const auto result = fuzz::runParallelCampaign(config);
    size_t with_repro = 0;
    for (const auto& [key, bug] : result.bugs) {
        if (bug.seqRepro == nullptr)
            continue;
        ++with_repro;
        EXPECT_TRUE(bug.minimized) << key;
        EXPECT_TRUE(reduce::reproStillFires(bug, {})) << key;
    }
    EXPECT_GT(with_repro, 0u);
    EXPECT_LE(medianReductionRatio(result), 0.5);
}

// ---- report writer --------------------------------------------------------

TEST(ReproReport, WritesOneFilePerBugPlusIndex)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "nnsmith-repro-test";
    std::filesystem::remove_all(dir);

    auto config = test::paperCampaign(2, 41);
    config.campaign.minimize = true;
    config.campaign.reportDir = dir.string();
    const auto result = fuzz::runParallelCampaign(config);

    size_t with_repro = 0;
    for (const auto& [key, bug] : result.bugs) {
        if (bug.graphRepro != nullptr || bug.seqRepro != nullptr) {
            ++with_repro;
            const auto file = dir / reduce::reportFileName(key);
            EXPECT_TRUE(std::filesystem::exists(file)) << file;
        }
    }
    EXPECT_GT(with_repro, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir / "index.tsv"));

    // Re-running the identical campaign overwrites with identical
    // content (reports are a pure function of the merged bug map).
    std::map<std::string, std::uintmax_t> sizes;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        sizes[entry.path().filename().string()] =
            std::filesystem::file_size(entry.path());
    fuzz::runParallelCampaign(config);
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(sizes.at(entry.path().filename().string()),
                  std::filesystem::file_size(entry.path()))
            << entry.path();
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace nnsmith
