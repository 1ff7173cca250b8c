/** Tests for the campaign fabric: wire-format round trips, canonical
 *  site-key interning, thread-vs-process identity of --minimize
 *  --corpus runs, crash-isolated worker restart, and the strict
 *  malformed-input contract of the wire parsers. The worker × shard
 *  identity matrix lives in paper_identity_test. */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "backends/backend.h"
#include "campaign_fixture.h"
#include "corpus/corpus.h"
#include "corpus/replay.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/wire.h"
#include "fuzz/worker_runtime.h"
#include "obs/progress.h"

namespace nnsmith {
namespace {

using fuzz::CampaignResult;
using fuzz::ShardResult;
using fuzz::SiteHit;
using fuzz::WorkerMode;
namespace wire = fuzz::wire;

void
expectRecordsEqual(const std::vector<ShardResult::IterationRecord>& a,
                   const std::vector<ShardResult::IterationRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].cost, b[i].cost);
        EXPECT_EQ(a[i].produced, b[i].produced);
        EXPECT_EQ(a[i].bugs, b[i].bugs);
        EXPECT_EQ(a[i].instanceKeys, b[i].instanceKeys);
        EXPECT_EQ(a[i].hits, b[i].hits);
    }
}

// ---------------------------------------------------------------------------
// Canonical site keys
// ---------------------------------------------------------------------------

TEST(Fabric, SiteKeysInternToStableIds)
{
    auto& registry = coverage::CoverageRegistry::instance();
    const auto id = registry.registerSite("fabrickeys/sub", __FILE__,
                                          1234, 7, /*pass_only=*/true);
    const auto infos = registry.describeSites({id});
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0].passOnly);
    EXPECT_EQ(infos[0].key.rfind("fabrickeys/sub|", 0), 0u);
    // Interning the described key must find the existing site, not
    // mint a new id — the property process-portable merging rests on.
    EXPECT_EQ(registry.internSiteKey(infos[0].key, true), id);
    // And an unknown key mints exactly one new site under the key's
    // component prefix.
    const size_t before = registry.sitesRegistered("fabrickeys");
    const auto minted =
        registry.internSiteKey("fabrickeys/other|dyn|k1", false);
    EXPECT_EQ(registry.internSiteKey("fabrickeys/other|dyn|k1", false),
              minted);
    EXPECT_EQ(registry.sitesRegistered("fabrickeys"), before + 1);
}

TEST(Fabric, RangeSitesCohereWithInternedKeys)
{
    // A coordinator may intern "component|range#i" keys and
    // "component|range#a..b" runs from a worker before this process
    // ever calls hitRange for that component; the later hitRange must
    // reuse the interned ids instead of minting a parallel block.
    auto& registry = coverage::CoverageRegistry::instance();
    const auto interned =
        registry.internSiteKey("fabricrange|range#2", false);
    const auto run = wire::hitsFromWire(
        {SiteHit{false, "fabricrange|range#4..5"}});
    ASSERT_EQ(run.size(), 2u);
    EXPECT_NE(run[0], run[1]);
    coverage::CoverageCollector collector;
    registry.hitRange("fabricrange", 6, 1.0, false);
    const auto hits = collector.take();
    EXPECT_EQ(hits.size(), 6u);
    for (const auto id : {interned, run[0], run[1]})
        EXPECT_NE(std::find(hits.begin(), hits.end(), id), hits.end());
    EXPECT_EQ(registry.sitesRegistered("fabricrange"), 6u);
    // The whole block now travels as one run over those same ids.
    EXPECT_EQ(wire::hitsToWire(hits),
              (std::vector<SiteHit>{{false, "fabricrange|range#0..5"}}));
    const auto back = wire::hitsFromWire(wire::hitsToWire(hits));
    EXPECT_EQ(std::set<coverage::BranchId>(back.begin(), back.end()),
              std::set<coverage::BranchId>(hits.begin(), hits.end()));
}

std::vector<std::string>
wireKeys(const std::vector<SiteHit>& hits)
{
    std::vector<std::string> keys;
    for (const auto& hit : hits)
        keys.push_back(std::string(hit.passOnly ? "P " : "- ") + hit.key);
    return keys;
}

TEST(Fabric, RangeRunsAreCanonical)
{
    auto& registry = coverage::CoverageRegistry::instance();
    // Elements 3 and 6 are interned pass-tagged before hitRange mints
    // the rest untagged, so the block mixes pass tags.
    registry.internSiteKey("fabricruns|range#3", true);
    registry.internSiteKey("fabricruns|range#6", true);
    const auto lone = registry.internSiteKey("fabricruns|dyn|lone", false);
    std::vector<coverage::BranchId> block;
    {
        coverage::CoverageCollector collector;
        registry.hitRange("fabricruns", 10, 1.0, false);
        block = collector.take();
    }
    ASSERT_EQ(block.size(), 10u);
    auto ids = block;
    ids.push_back(lone);

    const auto hits = wire::hitsToWire(ids);
    EXPECT_EQ(wireKeys(hits),
              (std::vector<std::string>{
                  "- fabricruns|dyn|lone",
                  "- fabricruns|range#0..2", "P fabricruns|range#3",
                  "- fabricruns|range#4..5", "P fabricruns|range#6",
                  "- fabricruns|range#7..9"}));
    EXPECT_EQ(wire::siteCount(hits), ids.size());
    const auto back = wire::hitsFromWire(hits);
    EXPECT_EQ(std::set<coverage::BranchId>(back.begin(), back.end()),
              std::set<coverage::BranchId>(ids.begin(), ids.end()));

    // A pure function of the site set: id order and duplicates do not
    // matter.
    auto shuffled = ids;
    std::reverse(shuffled.begin(), shuffled.end());
    std::swap(shuffled[1], shuffled[7]);
    shuffled.push_back(block[4]);
    EXPECT_EQ(wire::hitsToWire(shuffled), hits);

    // A gap splits a run; a lone element keeps its legacy key.
    const auto element = [&](int i) {
        return registry.internSiteKey(
            "fabricruns|range#" + std::to_string(i), false);
    };
    EXPECT_EQ(wireKeys(wire::hitsToWire(
                  {element(0), element(1), element(8), element(9)})),
              (std::vector<std::string>{"- fabricruns|range#0..1",
                                        "- fabricruns|range#8..9"}));
    EXPECT_EQ(wireKeys(wire::hitsToWire({element(5)})),
              (std::vector<std::string>{"- fabricruns|range#5"}));
}

TEST(Fabric, HitsRoundTripThroughWire)
{
    auto& registry = coverage::CoverageRegistry::instance();
    std::vector<coverage::BranchId> ids;
    for (int i = 0; i < 5; ++i)
        ids.push_back(registry.registerSite("fabricwirehits", __FILE__,
                                            2000, i, i % 2 == 0));
    const auto hits = wire::hitsToWire(ids);
    ASSERT_EQ(hits.size(), ids.size());
    for (size_t i = 1; i < hits.size(); ++i)
        EXPECT_LT(hits[i - 1].key, hits[i].key); // sorted by site key
    const auto back = wire::hitsFromWire(hits);
    EXPECT_EQ(std::set<coverage::BranchId>(back.begin(), back.end()),
              std::set<coverage::BranchId>(ids.begin(), ids.end()));
}

// ---------------------------------------------------------------------------
// Wire round trip on a real campaign
// ---------------------------------------------------------------------------

TEST(Fabric, WireRecordsRoundTripOnMinimizingCampaign)
{
    // 200 iterations with minimization on: enough to exercise bug
    // payloads (rendered repro documents), instance keys and hit sets.
    auto config = test::paperCampaign(2, 2023);
    config.campaign.maxIterations = 200;
    config.campaign.minimize = true;
    const auto shards =
        fuzz::makeThreadRuntime()->runShards(config);
    ASSERT_EQ(shards.size(), 2u);
    size_t bugs = 0, hits = 0;
    for (const auto& shard : shards) {
        ASSERT_FALSE(shard.records.empty());
        for (const auto& record : shard.records) {
            bugs += record.bugs.size();
            hits += record.hits.size();
        }
        const std::string encoded = wire::encodeRecords(shard.records);
        const auto decoded = wire::decodeRecords(encoded);
        expectRecordsEqual(shard.records, decoded);
        // Serialize -> parse -> serialize is byte-identical: the
        // regression oracle for the whole wire format.
        EXPECT_EQ(wire::encodeRecords(decoded), encoded);
    }
    EXPECT_GT(bugs, 0u);
    EXPECT_GT(hits, 0u);
}

TEST(Fabric, BareBugDocumentsRoundTrip)
{
    fuzz::BugRecord bug;
    bug.dedupKey = "SomeBackend|crash|case-17";
    bug.backend = "SomeBackend";
    bug.kind = "crash";
    bug.detail = "detail text with spaces";
    bug.defects = {"D1", "D2"};
    const std::string encoded = wire::encodeBug(bug);
    const auto back = wire::decodeBug(encoded);
    EXPECT_EQ(back.dedupKey, bug.dedupKey);
    EXPECT_EQ(back.backend, bug.backend);
    EXPECT_EQ(back.kind, bug.kind);
    EXPECT_EQ(back.detail, bug.detail);
    EXPECT_EQ(back.defects, bug.defects);
    EXPECT_EQ(wire::encodeBug(back), encoded);
}

// ---------------------------------------------------------------------------
// Malformed input: structured errors, never crashes
// ---------------------------------------------------------------------------

TEST(Fabric, MalformedWireInputThrowsParseError)
{
    const std::string good = wire::encodeRecords(
        {ShardResult::IterationRecord{3, 100, true, {}, {"k"}, {}}});
    ASSERT_NO_THROW(wire::decodeRecords(good));

    const std::vector<std::string> bad = {
        "",                                   // no magic
        "nnsmith-wire 2\nend-block\n",        // wrong version
        "nnsmith-wire 1\n",                   // missing end-block
        "nnsmith-wire 1\nrecord 1 2\nend\nend-block\n", // short header
        "nnsmith-wire 1\nrecord x 2 1 0 0 0\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 -5 1 0 0 0\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 7 0 0 0\nend\nend-block\n",
        // hit count promises more lines than present
        "nnsmith-wire 1\nrecord 1 2 1 2 0 0\nhit - a|b\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 1 1 0 0\nhit ? a|b\nend\nend-block\n",
        "nnsmith-wire 1\nrecord 1 2 1 1 0 0\nhit - \nend\nend-block\n",
        // bug payload shorter than its byte count
        "nnsmith-wire 1\nrecord 1 2 1 0 0 1\nbug 100\nabc\nend\nend-block\n",
        // bug payload not newline-terminated
        "nnsmith-wire 1\nrecord 1 2 1 0 0 1\nbug 3\nabcend\nend-block\n",
        // missing record terminator
        "nnsmith-wire 1\nrecord 1 2 1 0 0 0\nend-block\n",
        good + "trailing",
    };
    for (const auto& text : bad) {
        EXPECT_THROW(wire::decodeRecords(text), corpus::ParseError)
            << "input: " << text;
    }

    EXPECT_THROW(wire::decodeBug("# not a known magic\n"),
                 corpus::ParseError);
    EXPECT_THROW(wire::decodeBug("# nnsmith wire bug (no repro)\n"),
                 corpus::ParseError); // truncated header-only document
    EXPECT_THROW(wire::hitsFromWire({SiteHit{false, "no-component"}}),
                 corpus::ParseError);

    // Run keys have one spelling, and no key may make the registry
    // mint more than kRangeIndexLimit elements of one block.
    static_assert(coverage::kRangeIndexLimit == 1u << 20);
    for (const std::string run :
         {"range#5..3", "range#5..5", "range#..7", "range#1..x",
          "range#1..", "range#01..3", "range#-1..3", "range#1..2..3",
          "range#0..99999999999999999999",
          "range#99999999999999999999..100000000000000000000",
          "range#0..1048576", "range#1048575..1048577"}) {
        const std::vector<SiteHit> hits = {{false, "fabricbad|" + run}};
        EXPECT_THROW(wire::hitsFromWire(hits), corpus::ParseError) << run;
        EXPECT_THROW(wire::siteCount(hits), corpus::ParseError) << run;
    }
    EXPECT_EQ(coverage::CoverageRegistry::instance().sitesRegistered(
                  "fabricbad"),
              0u);
    // The longest legal run ends at the last indexable element.
    EXPECT_EQ(wire::siteCount({{false, "fabricbad|range#1048574..1048575"}}),
              2u);
}

TEST(Fabric, HeartbeatsCountCoveredSitesNotWireEntries)
{
    // Run keys fold the ortlite/runtime block into one wire entry, so
    // the --progress hits column must count expanded sites.
    for (const auto mode : {WorkerMode::kThread, WorkerMode::kProcess}) {
        auto config = test::paperCampaign(2, 2023, mode);
        config.campaign.maxIterations = 8;
        config.telemetry = true;
        obs::ProgressOptions options;
        options.printToStderr = false;
        options.stallAfterMs = 10 * 60 * 1000;
        config.progress = std::make_shared<obs::ProgressAggregator>(options);
        config.progress->attach(config.shards, fuzz::workerModeName(mode));
        const auto shards = fuzz::makeWorkerRuntime(mode)->runShards(config);
        uint64_t sites = 0, entries = 0, reported = 0;
        for (const auto& shard : shards)
            for (const auto& record : shard.records) {
                sites += wire::hitsFromWire(record.hits).size();
                entries += record.hits.size();
            }
        for (const auto& worker : config.progress->workers())
            reported += worker.hits;
        EXPECT_EQ(reported, sites) << fuzz::workerModeName(mode);
        EXPECT_LT(entries, sites) << fuzz::workerModeName(mode);
    }
}

// ---------------------------------------------------------------------------
// Thread vs process corpus replay
// ---------------------------------------------------------------------------

TEST(Fabric, ProcessCorpusReplayMatchesThread)
{
    // The full stack at once — process workers, minimization, report
    // emission and regression-corpus replay — must be byte-identical
    // to the thread runtime, including the regressions.tsv bytes.
    test::expectCorpusReplaysMatch(
        test::paperCampaign(2, 2023, WorkerMode::kProcess),
        {test::paperCampaign(2, 2023, WorkerMode::kThread),
         test::paperCampaign(2, 2023, WorkerMode::kProcess)},
        "nnsmith-fabric-corpus");
}

// ---------------------------------------------------------------------------
// Crash isolation
// ---------------------------------------------------------------------------

/**
 * A fuzzer factory that kills its own process the first time the
 * campaign reaches @p crash_index — once only, gated by a marker file
 * shared across the respawn. Only ever lethal inside a forked worker:
 * the coordinator calls the factory just for the index-0 name probe.
 */
fuzz::FuzzerFactory
crashingFactory(uint64_t master_seed, size_t crash_index,
                std::filesystem::path marker, int signal)
{
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(master_seed, crash_index);
    return [crash_seed, marker, signal](uint64_t seed) {
        if (seed == crash_seed && !std::filesystem::exists(marker)) {
            std::ofstream(marker).put('x'); // arm the respawn path
            if (signal == SIGABRT)
                std::abort();
            ::kill(::getpid(), signal);
        }
        return test::paperFuzzer(seed);
    };
}

class FabricCrash : public testing::TestWithParam<int> {};

TEST_P(FabricCrash, CrashedWorkerIsRespawnedAndMergeIsIdentical)
{
    const auto marker =
        std::filesystem::path(testing::TempDir()) /
        ("nnsmith-fabric-crash-" + std::to_string(GetParam()));
    std::filesystem::remove(marker);

    const auto reference =
        fuzz::runParallelCampaign(test::paperCampaign(2, 2023));

    // Index 7 is mid-round for both workers: the dying worker loses
    // already-executed records of the round and must regenerate them
    // deterministically after the respawn.
    auto config = test::paperCampaign(2, 2023, WorkerMode::kProcess);
    config.fuzzerFactory =
        crashingFactory(config.masterSeed, 7, marker, GetParam());
    const auto survived = fuzz::runParallelCampaign(config);
    EXPECT_TRUE(std::filesystem::exists(marker)); // the crash fired
    EXPECT_EQ(fuzz::renderCampaignResult(reference),
              fuzz::renderCampaignResult(survived));
    std::filesystem::remove(marker);
}

INSTANTIATE_TEST_SUITE_P(Signals, FabricCrash,
                         testing::Values(SIGKILL, SIGABRT));

TEST(Fabric, DeterministicallyCrashingWorkerAbortsTheCampaign)
{
    // Without the marker-file gate the same iteration dies on every
    // respawn; the campaign must give up with an error instead of
    // respawning forever.
    auto config = test::paperCampaign(2, 2023, WorkerMode::kProcess);
    const uint64_t crash_seed =
        fuzz::deriveIterationSeed(config.masterSeed, 7);
    config.fuzzerFactory = [crash_seed](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed == crash_seed)
            ::kill(::getpid(), SIGKILL);
        return test::paperFuzzer(seed);
    };
    EXPECT_THROW(fuzz::runParallelCampaign(config), std::runtime_error);
}

TEST(Fabric, WorkerErrorsPropagateFromProcessWorkers)
{
    // An exception in the fuzzing stack is a reported error, not a
    // crash: it must abort the campaign with the worker's message,
    // exactly as the thread runtime does.
    auto config = test::paperCampaign(4, 11, WorkerMode::kProcess);
    config.fuzzerFactory = [](uint64_t seed)
        -> std::unique_ptr<fuzz::Fuzzer> {
        if (seed % 3 == 0)
            throw std::runtime_error("factory blew up");
        return test::paperFuzzer(seed);
    };
    try {
        fuzz::runParallelCampaign(config);
        FAIL() << "expected the worker error to propagate";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("factory blew up"),
                  std::string::npos);
    }
}

TEST(Fabric, WorkerModeNames)
{
    EXPECT_STREQ(fuzz::workerModeName(WorkerMode::kThread), "thread");
    EXPECT_STREQ(fuzz::workerModeName(WorkerMode::kProcess), "process");
    EXPECT_STREQ(fuzz::makeThreadRuntime()->name(), "thread");
    EXPECT_STREQ(fuzz::makeProcessRuntime()->name(), "process");
}

} // namespace
} // namespace nnsmith
