/** Tests for the sharded parallel campaign runner: merge
 *  order-independence, scheduling determinism, and shard-invariant
 *  pass fuzzing and regression-corpus replay. The worker × shard
 *  identity matrix lives in paper_identity_test. */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "backends/backend.h"
#include "backends/graph_pass.h"
#include "campaign_fixture.h"
#include "corpus/replay.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"
#include "fuzz/wire.h"

namespace nnsmith {
namespace {

using fuzz::CampaignConfig;
using fuzz::CampaignResult;
using fuzz::ParallelCampaignConfig;
using fuzz::ShardResult;

TEST(ParallelCampaign, RepeatedShardedRunsAreDeterministic)
{
    const auto first =
        fuzz::runParallelCampaign(test::paperCampaign(4, 77));
    const auto second =
        fuzz::runParallelCampaign(test::paperCampaign(4, 77));
    EXPECT_EQ(fuzz::renderCampaignResult(first),
              fuzz::renderCampaignResult(second));
}

TEST(ParallelCampaign, BlockSizeDoesNotChangeMergedResult)
{
    auto small_blocks = test::paperCampaign(3, 5);
    small_blocks.blockIterations = 2;
    auto large_blocks = test::paperCampaign(3, 5);
    large_blocks.blockIterations = 64;
    EXPECT_EQ(
        fuzz::renderCampaignResult(fuzz::runParallelCampaign(small_blocks)),
        fuzz::renderCampaignResult(fuzz::runParallelCampaign(large_blocks)));
}

TEST(ParallelCampaign, DifferentSeedsDiverge)
{
    const auto a = fuzz::runParallelCampaign(test::paperCampaign(2, 1));
    const auto b = fuzz::runParallelCampaign(test::paperCampaign(2, 2));
    EXPECT_NE(a.instanceKeys, b.instanceKeys);
}

TEST(ParallelCampaign, RenderingCoversEveryConclusionButNotTelemetry)
{
    // renderCampaignResult is the repo's one definition of campaign
    // identity: any single changed conclusion must change it, and the
    // fabric's telemetry (faults, respawns) must not.
    CampaignResult base =
        fuzz::runParallelCampaign(test::paperCampaign(1, 2023));
    const auto graph_bug =
        std::find_if(base.bugs.begin(), base.bugs.end(), [](const auto& e) {
            return e.second.graphRepro != nullptr &&
                   !e.second.graphRepro->leaves.empty();
        });
    ASSERT_NE(graph_bug, base.bugs.end());
    ASSERT_FALSE(base.series.empty());
    const std::string bug_key = graph_bug->first;
    corpus::ReplayOutcome outcome;
    outcome.fingerprint = bug_key;
    outcome.file = "0000.repro.txt";
    outcome.kind = graph_bug->second.kind;
    outcome.status = corpus::ReplayStatus::kStillFires;
    base.regressions.outcomes.push_back(outcome);
    base.regressions.stillFires = 1;
    const std::string rendered = fuzz::renderCampaignResult(base);

    auto changes = [&](const std::function<void(CampaignResult&)>& edit) {
        CampaignResult copy = base;
        edit(copy);
        return fuzz::renderCampaignResult(copy) != rendered;
    };
    EXPECT_TRUE(changes([&](CampaignResult& r) {
        // One element of one leaf tensor: the dedup key is unchanged.
        auto& bug = r.bugs.at(bug_key);
        auto repro = std::make_shared<fuzz::GraphRepro>(*bug.graphRepro);
        auto& leaf = repro->leaves.begin()->second;
        leaf.setScalar(0, leaf.scalarAt(0) == 0.0 ? 1.0 : 0.0);
        bug.graphRepro = repro;
    }));
    EXPECT_TRUE(changes(
        [&](CampaignResult& r) { r.bugs.at(bug_key).detail += "!"; }));
    EXPECT_TRUE(changes(
        [](CampaignResult& r) { r.series.back().coverageAll += 1; }));
    EXPECT_TRUE(changes([](CampaignResult& r) {
        r.coverAll.add(coverage::CoverageRegistry::instance().registerSite(
            "rendertest", __FILE__, __LINE__, 0, /*pass_only=*/false));
    }));
    EXPECT_TRUE(changes([](CampaignResult& r) {
        r.regressions.outcomes[0].status = corpus::ReplayStatus::kFixed;
    }));
    EXPECT_FALSE(changes([](CampaignResult& r) {
        r.workerFaults.push_back(
            fuzz::WorkerFault{1, 0, 8, "crash", "", /*attempt=*/0});
        r.respawns = 3;
    }));
}

TEST(ParallelCampaign, MergeIsOrderIndependent)
{
    // Hand-crafted shard results over freshly registered sites so the
    // merge is exercised in isolation from the fuzzing stack.
    auto& registry = coverage::CoverageRegistry::instance();
    std::vector<coverage::BranchId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(registry.registerSite("mergetest/sub", __FILE__,
                                            __LINE__, i,
                                            /*pass_only=*/i % 2 == 1));
    }

    CampaignConfig config;
    config.virtualBudget = 10ll * 60 * 1000;
    config.maxIterations = 9;
    config.coverageComponent = "mergetest";
    config.sampleEveryMinutes = 2;

    std::vector<ShardResult> shards(3);
    for (int shard = 0; shard < 3; ++shard) {
        shards[static_cast<size_t>(shard)].shard = shard;
        for (size_t index = static_cast<size_t>(shard); index < 9;
             index += 3) {
            ShardResult::IterationRecord record;
            record.index = index;
            record.cost = 30 * 1000; // half a virtual minute each
            record.produced = true;
            record.hits = fuzz::wire::hitsToWire(
                {ids[index % ids.size()]});
            fuzz::BugRecord bug;
            bug.dedupKey = "B|crash|" + std::to_string(index % 4);
            bug.backend = "B";
            bug.kind = "crash";
            record.bugs.push_back(fuzz::wire::encodeBug(bug));
            record.instanceKeys = {"op" + std::to_string(index % 5)};
            shards[static_cast<size_t>(shard)].records.push_back(
                std::move(record));
        }
    }

    const auto forward = mergeShardResults(shards, config, "synthetic");
    std::vector<ShardResult> reversed = {shards[2], shards[0], shards[1]};
    const auto shuffled = mergeShardResults(reversed, config, "synthetic");
    EXPECT_EQ(fuzz::renderCampaignResult(forward),
              fuzz::renderCampaignResult(shuffled));
    EXPECT_EQ(forward.iterations, 9u);
    EXPECT_EQ(forward.coverAll.count(), 6u);
    EXPECT_EQ(forward.coverPass.count(), 3u);
    EXPECT_EQ(forward.bugs.size(), 4u);
    EXPECT_EQ(forward.instanceKeys.size(), 5u);
}

TEST(ParallelCampaign, CollectorRedirectsHitsAwayFromGlobalState)
{
    auto& registry = coverage::CoverageRegistry::instance();
    registry.resetHits();
    const auto id = registry.registerSite("collectortest", __FILE__,
                                          __LINE__, 0, false);
    {
        coverage::CoverageCollector collector;
        registry.hit(id);
        registry.hitDynamic("collectortest", "some-key", false);
        const auto hits = collector.take();
        EXPECT_EQ(hits.size(), 2u); // the static site + the dynamic one
        EXPECT_EQ(hits[0], id);
        registry.hitDynamic("collectortest", "some-key", false);
        EXPECT_EQ(collector.take().size(), 1u);
        EXPECT_EQ(registry.snapshot("collectortest").count(), 0u);
    }
    registry.hit(id);
    EXPECT_EQ(registry.snapshot("collectortest").count(), 1u);
    registry.resetHits();
}

TEST(ParallelCampaign, WorkerExceptionPropagatesWithoutHanging)
{
    auto config = test::paperCampaign(4, 11);
    config.fuzzerFactory = [](uint64_t seed) -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed % 3 == 0)
            throw std::runtime_error("factory blew up");
        return test::paperFuzzer(seed);
    };
    EXPECT_THROW(fuzz::runParallelCampaign(config), std::runtime_error);
}

TEST(ParallelCampaign, PassSequenceFuzzerIsShardInvariant)
{
    // The pass-sequence fuzzer draws program + pass order from its
    // per-iteration seed and keeps no corpus, so it qualifies for the
    // sharded runner: merged results must be byte-identical.
    auto make = [](int shards) {
        auto config = test::passSequenceCampaign(shards, 2023);
        config.campaign.maxIterations = 80;
        return config;
    };
    const auto serial = fuzz::runParallelCampaign(make(1));
    const auto sharded = fuzz::runParallelCampaign(make(4));
    EXPECT_GT(serial.coverPass.count(), 0u);
    EXPECT_FALSE(serial.instanceKeys.empty()); // tirseq/... keys
    EXPECT_EQ(fuzz::renderCampaignResult(serial),
              fuzz::renderCampaignResult(sharded));
}

TEST(ParallelCampaign, PassFuzzedTvmLiteIsShardInvariant)
{
    // TVMLite in pass-fuzz mode derives each lowered program's pass
    // sequence from the program's structural hash — a pure function
    // of the test case — so randomized sequences cannot break the
    // shard-count identity.
    auto make = [](int shards) {
        auto config = test::paperCampaign(shards, 2024);
        config.campaign.coverageComponent = "tvmlite";
        config.backendFactory = [] {
            std::vector<std::unique_ptr<backends::Backend>> owned;
            owned.push_back(
                backends::makeTvmLite(/*pass_fuzz_seed=*/2024));
            return owned;
        };
        return config;
    };
    const auto serial = fuzz::runParallelCampaign(make(1));
    const auto sharded = fuzz::runParallelCampaign(make(3));
    EXPECT_GT(serial.coverAll.count(), 0u);
    EXPECT_EQ(fuzz::renderCampaignResult(serial),
              fuzz::renderCampaignResult(sharded));
}

/** The sequence-coverage bins a pass-sequence campaign explored,
 *  rebuilt from its merged instance keys ("tirseq/<a,b,...>" or
 *  "passseq/<backend>/<a,b,...>"): the coverage registry exposes
 *  counts, not bin names. */
std::set<std::string>
sequenceBins(const CampaignResult& result)
{
    std::set<std::string> bins;
    for (const auto& key : result.instanceKeys) {
        std::string joined;
        if (key.rfind("tirseq/", 0) == 0)
            joined = key.substr(7);
        else if (key.rfind("passseq/", 0) == 0)
            joined = key.substr(key.find('/', 8) + 1);
        else
            continue;
        std::vector<std::string> sequence;
        std::istringstream in(joined);
        for (std::string pass; std::getline(in, pass, ',');)
            sequence.push_back(pass);
        for (auto& bin : backends::sequenceCoverageBins(sequence))
            bins.insert(std::move(bin));
    }
    return bins;
}

TEST(ParallelCampaign, PassSequenceCampaignsAreShardInvariantAndShareBins)
{
    // The paper's Fig. 8 "what do the systems share?" question in
    // pass-sequence space: each backend's campaign merges identically
    // at shards {1, 2, 4}, explores a nonempty bin set, and the three
    // sets meet. Pass names are disjoint across registries, so the
    // shared bins are structural (sequence-length buckets).
    std::vector<std::set<std::string>> bins;
    for (const char* backend : {"OrtLite", "TVMLite", "TrtLite"}) {
        fuzz::PassSequenceFuzzer::Options options;
        options.backend = backend;
        std::string first;
        for (const int shards : {1, 2, 4}) {
            auto config = test::passSequenceCampaign(shards, 2023, options);
            config.campaign.virtualBudget = 240ll * 60 * 1000;
            config.campaign.maxIterations = 60;
            const auto result = fuzz::runParallelCampaign(config);
            const std::string render = fuzz::renderCampaignResult(result);
            if (shards == 1) {
                EXPECT_EQ(result.iterations, 60u) << backend;
                EXPECT_GT(result.coverPass.count(), 0u) << backend;
                first = render;
                bins.push_back(sequenceBins(result));
                EXPECT_FALSE(bins.back().empty()) << backend;
            }
            EXPECT_EQ(render, first) << backend << " shards=" << shards;
        }
    }
    size_t shared = 0;
    for (const auto& bin : bins[0])
        shared += bins[1].count(bin) != 0 && bins[2].count(bin) != 0;
    EXPECT_GT(shared, 0u);
}

TEST(ParallelCampaign, GraphPassFuzzCorpusReplayIsShardInvariant)
{
    // Everything at once — pass fuzzing, minimization and corpus
    // replay — must still be byte-identical for shards {1, 2, 4}:
    // the emitted graph-sequence repros round-trip through the corpus
    // and re-fire under the backend-oracle replay.
    fuzz::PassSequenceFuzzer::Options options;
    options.backend = "OrtLite";
    options.generator.targetOpNodes = 6;
    const auto config = [&](int shards) {
        auto config = test::passSequenceCampaign(shards, 2023, options);
        config.campaign.maxIterations = 60;
        return config;
    };
    std::vector<ParallelCampaignConfig> replays;
    for (const int shards : {1, 2, 4})
        replays.push_back(config(shards));
    test::expectCorpusReplaysMatch(config(2), replays,
                                   "nnsmith-passfuzz-corpus-shards");
}

TEST(ParallelCampaign, CorpusReplayIsShardInvariant)
{
    // A campaign with --corpus + --minimize must produce identical
    // regressions.tsv bytes and identical merged results for shards
    // {1, 2, 4}: replay runs once on the coordinator, outside coverage
    // accounting, so it composes with sharding like minimization does.
    std::vector<ParallelCampaignConfig> replays;
    for (const int shards : {1, 2, 4})
        replays.push_back(test::paperCampaign(shards, 2023));
    test::expectCorpusReplaysMatch(test::paperCampaign(2, 2023), replays,
                                   "nnsmith-corpus-shards");
}

TEST(ParallelCampaign, SeedDerivationIsStableAndSpreads)
{
    EXPECT_EQ(fuzz::deriveIterationSeed(42, 0),
              fuzz::deriveIterationSeed(42, 0));
    std::set<uint64_t> seeds;
    for (uint64_t i = 0; i < 1000; ++i)
        seeds.insert(fuzz::deriveIterationSeed(42, i));
    EXPECT_EQ(seeds.size(), 1000u);
}

} // namespace
} // namespace nnsmith
