/** The paper configuration as a test campaign: default
 *  NNSmithFuzzer::Options (z3 generator, 10 ops, binning, gradient
 *  value search on) against all three backends. Campaign tests share
 *  it so every identity they check holds for what the paper runs. */
#ifndef NNSMITH_TESTS_CAMPAIGN_FIXTURE_H
#define NNSMITH_TESTS_CAMPAIGN_FIXTURE_H

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "corpus/replay.h"
#include "difftest/oracle.h"
#include "fuzz/parallel_campaign.h"
#include "fuzz/pass_fuzzer.h"

namespace nnsmith::test {

/** The paper-configuration NNSmith fuzzer for one iteration seed. */
inline std::unique_ptr<fuzz::Fuzzer>
paperFuzzer(uint64_t seed)
{
    return std::make_unique<fuzz::NNSmithFuzzer>(
        fuzz::NNSmithFuzzer::Options(), seed);
}

/** How many iterations paperCampaign runs. */
constexpr size_t kPaperCampaignIterations = 48;

/** kPaperCampaignIterations of paperFuzzer within 60 virtual minutes,
 *  against all three backends, scored on OrtLite coverage. */
inline fuzz::ParallelCampaignConfig
paperCampaign(int shards, uint64_t master_seed,
              fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 60ll * 60 * 1000;
    config.campaign.maxIterations = kPaperCampaignIterations;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = master_seed;
    config.fuzzerFactory = paperFuzzer;
    config.backendFactory = difftest::makeAllBackends;
    return config;
}

/** paperCampaign's shape with PassSequenceFuzzer over @p options'
 *  registry, scored on that backend's coverage. TVMLite sequences run
 *  through the TIR interpreter and need no backend; a graph-pass
 *  backend is its own oracle, so the campaign owns one instance. */
inline fuzz::ParallelCampaignConfig
passSequenceCampaign(int shards, uint64_t master_seed,
                     fuzz::PassSequenceFuzzer::Options options = {})
{
    auto config = paperCampaign(shards, master_seed);
    const std::string backend = options.backend;
    config.campaign.coverageComponent.clear();
    for (const unsigned char c : backend)
        config.campaign.coverageComponent +=
            static_cast<char>(std::tolower(c));
    config.fuzzerFactory = [options](uint64_t seed) {
        return std::make_unique<fuzz::PassSequenceFuzzer>(seed, options);
    };
    config.backendFactory = [backend] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        if (backend == "OrtLite")
            owned.push_back(backends::makeOrtLite());
        else if (backend == "TrtLite")
            owned.push_back(backends::makeTrtLite());
        return owned;
    };
    return config;
}

/** An empty scratch directory @p name under the test temp dir. */
inline std::filesystem::path
freshDir(const std::string& name)
{
    const auto dir = std::filesystem::path(testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    return dir;
}

inline std::string
readFile(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

inline std::vector<backends::Backend*>
borrow(const std::vector<std::unique_ptr<backends::Backend>>& owned)
{
    std::vector<backends::Backend*> list;
    for (const auto& backend : owned)
        list.push_back(backend.get());
    return list;
}

/**
 * Emits a minimized regression corpus with @p emit, then replays it
 * (--minimize --corpus) under each of @p replays. The corpus came from
 * the same code and seed, so every replay must re-fire every known
 * fingerprint, and all of them must render the same merged result and
 * write the same regressions.tsv bytes.
 */
inline void
expectCorpusReplaysMatch(fuzz::ParallelCampaignConfig emit,
                         std::vector<fuzz::ParallelCampaignConfig> replays,
                         const std::string& name)
{
    const auto dir = freshDir(name);
    emit.campaign.minimize = true;
    emit.campaign.reportDir = dir.string();
    ASSERT_GT(fuzz::runParallelCampaign(emit).bugs.size(), 0u);
    std::string first_render, first_tsv;
    for (auto& config : replays) {
        config.campaign.minimize = true;
        config.campaign.corpusDir = dir.string();
        const auto result = fuzz::runParallelCampaign(config);
        const std::string render = fuzz::renderCampaignResult(result);
        const std::string tsv = readFile(dir / "regressions.tsv");
        ASSERT_FALSE(tsv.empty());
        EXPECT_EQ(corpus::renderRegressions(result.regressions), tsv);
        EXPECT_GT(result.regressions.total(), 0u);
        EXPECT_EQ(result.regressions.stillFires, result.regressions.total());
        if (first_render.empty()) {
            first_render = render;
            first_tsv = tsv;
        }
        EXPECT_EQ(render, first_render);
        EXPECT_EQ(tsv, first_tsv);
    }
    std::filesystem::remove_all(dir);
}

} // namespace nnsmith::test

#endif // NNSMITH_TESTS_CAMPAIGN_FIXTURE_H
