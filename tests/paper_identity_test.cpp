/** The byte-identity gate on the paper's default configuration
 *  (tests/campaign_fixture.h: z3 generator, binning, gradient value
 *  search on, three backends). Every matrix is bench::runIdentityMatrix
 *  over workers {thread, process} × shards {1, 2, 4}: at batch 1 with
 *  telemetry {off, on}, at batch 4, and with --minimize and
 *  --corpus-guided on. Each cell must render the same merged result
 *  as the matrix's first cell and write the same report tree. The
 *  telemetry matrix minimizes and replays a corpus, so regression
 *  verdicts and report trees are part of what telemetry must not
 *  change; its telemetry-on cells must also write a well-formed trace
 *  and metrics snapshot. */
#include <gtest/gtest.h>

#include <fstream>

#include "../bench/bench_util.h"
#include "campaign_fixture.h"
#include "json_checker.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace nnsmith {
namespace {

using bench::IdentityCell;

constexpr uint64_t kSeed = 2023;

/** A minimized regression corpus that a 2-shard paper campaign of
 *  @p iterations at kSeed writes into a fresh directory @p name. */
std::filesystem::path
emitCorpus(const std::string& name, size_t iterations)
{
    const auto corpus = test::freshDir(name);
    auto emit = test::paperCampaign(2, kSeed);
    emit.campaign.maxIterations = iterations;
    emit.campaign.minimize = true;
    emit.campaign.reportDir = corpus.string();
    EXPECT_GT(fuzz::runParallelCampaign(emit).bugs.size(), 0u);
    return corpus;
}

TEST(PaperIdentity, TelemetryOnOffAcrossWorkersAndShards)
{
    const auto trace_path = std::filesystem::path(testing::TempDir()) /
                            "nnsmith-paper-identity.jsonl";
    std::filesystem::remove(trace_path);
    obs::metricsReset();
    constexpr size_t kIterations = 60;
    const auto corpus =
        emitCorpus("nnsmith-paper-identity-telemetry", kIterations);
    const auto reports =
        test::freshDir("nnsmith-paper-identity-telemetry-reports");

    const auto matrix = bench::runIdentityMatrix(
        reports,
        [&](const IdentityCell& cell, const std::string& report_dir) {
            auto config = test::paperCampaign(cell.shards, kSeed, cell.mode);
            config.campaign.maxIterations = kIterations;
            config.campaign.minimize = true;
            config.campaign.reportDir = report_dir;
            config.campaign.corpusDir = corpus.string();
            if (cell.variant == "off")
                return fuzz::runParallelCampaign(config);
            if (!obs::metricsEnabled()) {
                obs::setMetricsEnabled(true);
                obs::traceOpen(trace_path.string());
            }
            config.telemetry = true;
            obs::ProgressOptions options;
            options.printToStderr = false;
            // Sanitizer builds run rounds 10x slower; keep the stall
            // threshold far above any real round.
            options.stallAfterMs = 10 * 60 * 1000;
            config.progress =
                std::make_shared<obs::ProgressAggregator>(options);
            auto result = fuzz::runParallelCampaign(config);
            // Liveness reached the aggregator on every cell.
            EXPECT_GT(config.progress->heartbeats(), 0u)
                << "mode=" << fuzz::workerModeName(cell.mode)
                << " shards=" << cell.shards;
            EXPECT_TRUE(result.workerFaults.empty());
            EXPECT_EQ(result.respawns, 0u);
            return result;
        },
        "telemetry", {"off", "on"});
    const auto snapshot = obs::metricsSnapshot();
    obs::setMetricsEnabled(false);
    obs::traceClose();
    obs::metricsReset();

    // Every trace line, whether written by concurrent worker threads
    // into the shared sink or appended by forked workers, is standalone
    // valid JSON with the chrome-trace complete-span fields.
    std::ifstream in(trace_path);
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        EXPECT_TRUE(test::isValidJson(line))
            << "line " << lines << ": " << line;
        EXPECT_NE(line.find("\"ph\":\"X\""), std::string::npos);
        EXPECT_NE(line.find("\"ts\":"), std::string::npos);
        EXPECT_NE(line.find("\"dur\":"), std::string::npos);
    }
    EXPECT_GT(lines, 0u);
    in.close();
    std::filesystem::remove(trace_path);

    EXPECT_TRUE(matrix.identical());
    EXPECT_GT(matrix.reference.iterations, 0u);
    EXPECT_GT(matrix.reference.coverAll.count(), 0u);
    EXPECT_FALSE(matrix.reference.bugs.empty());
    EXPECT_FALSE(matrix.referenceTree.empty());
    EXPECT_GT(matrix.reference.regressions.total(), 0u);
    std::filesystem::remove_all(corpus);
    std::filesystem::remove_all(reports);
    // The telemetry-on cells recorded generation and value-search
    // outcomes while staying inert: every search counts once, as a
    // success or as a fallback to random leaves.
    EXPECT_GT(snapshot.counters.at("campaign.iterations"), 0u);
    EXPECT_GT(snapshot.counters.at("gen.solver_queries"), 0u);
    EXPECT_GT(snapshot.counters.at("gen.rejected_insertions"), 0u);
    EXPECT_GT(snapshot.histograms.count("phase.gen"), 0u);
    EXPECT_GT(snapshot.histograms.count("phase.exec:OrtLite"), 0u);
    EXPECT_TRUE(test::isValidJson(snapshot.renderJson()));
    const auto& searches = snapshot.histograms.at("search.iterations");
    EXPECT_GT(snapshot.counters.at("search.success"), 0u);
    EXPECT_GT(snapshot.counters.at("search.fallback"), 0u);
    EXPECT_EQ(searches.count, snapshot.counters.at("search.success") +
                                  snapshot.counters.at("search.fallback"));
    EXPECT_GT(searches.sum, searches.count);
}

TEST(PaperIdentity, Batch4AcrossWorkersAndShards)
{
    const auto matrix = bench::runIdentityMatrix(
        "", [](const IdentityCell& cell, const std::string&) {
            auto config = test::paperCampaign(cell.shards, kSeed, cell.mode);
            config.fuzzerFactory = [](uint64_t seed) {
                fuzz::NNSmithFuzzer::Options options;
                options.batch = 4;
                return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
            };
            return fuzz::runParallelCampaign(config);
        });
    EXPECT_TRUE(matrix.identical());
    EXPECT_GT(matrix.reference.iterations, 0u);
}

TEST(PaperIdentity, MinimizeAndCorpusGuidedAcrossWorkersAndShards)
{
    // --corpus-guided diverts a seeded fraction of iterations into
    // mutating the replayed corpus (fuzz/mutator.h). The pool is
    // loaded once on the coordinator, and each iteration consumes only
    // its own derived-seed RNG, so every cell must merge — and write
    // its minimized report tree and regressions.tsv — byte-identically.
    const auto corpus = emitCorpus("nnsmith-paper-identity-corpus",
                                   test::kPaperCampaignIterations);
    const auto reports = test::freshDir("nnsmith-paper-identity-reports");

    const auto replaying = [&](int shards, fuzz::WorkerMode mode) {
        auto config = test::paperCampaign(shards, kSeed, mode);
        config.campaign.minimize = true;
        config.campaign.corpusDir = corpus.string();
        return config;
    };
    const auto matrix = bench::runIdentityMatrix(
        reports, [&](const IdentityCell& cell, const std::string& dir) {
            auto config = replaying(cell.shards, cell.mode);
            config.campaign.corpusGuided = true;
            config.campaign.reportDir = dir;
            return fuzz::runParallelCampaign(config);
        });
    EXPECT_TRUE(matrix.identical());
    EXPECT_FALSE(matrix.referenceTree.empty());
    EXPECT_EQ(matrix.reference.fuzzer, "NNSmith+corpus");

    const std::string tsv = test::readFile(corpus / "regressions.tsv");
    ASSERT_FALSE(tsv.empty());
    EXPECT_EQ(corpus::renderRegressions(matrix.reference.regressions), tsv);

    // Guidance changes what the diverted iterations run: the guided
    // campaign must diverge from the unguided one.
    const auto unguided =
        fuzz::runParallelCampaign(replaying(1, fuzz::WorkerMode::kThread));
    EXPECT_NE(matrix.reference.instanceKeys, unguided.instanceKeys);
    std::filesystem::remove_all(corpus);
    std::filesystem::remove_all(reports);
}

} // namespace
} // namespace nnsmith
