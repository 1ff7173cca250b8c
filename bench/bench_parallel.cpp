/**
 * @file
 * Wall-clock scaling harness for the campaign fabric.
 *
 * Runs the Fig. 4 NNSmith-vs-ONNXRuntime campaign across the worker
 * matrix {thread, process} × shards {1, 2, 4}, checks that every cell
 * merges to the identical result, and reports the wall-clock scaling
 * as JSON (BENCH_parallel_campaign.json at the repo root is a
 * committed baseline of this output). Identity is full-result
 * identity (fuzz::renderCampaignResult). The recorded speedups are
 * only meaningful relative to the "hardware_threads" field: on a
 * single-core container every configuration time-slices one CPU, so
 * speedup_vs_serial hovers around 1.0 and process workers pay their
 * fork/pipe overhead without a parallelism payoff.
 *
 *   ./bench/bench_parallel [--seed N] [--iters N] [--minutes N]
 *                          [--out FILE]
 */
#include <thread>

#include "bench_util.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
campaignFor(int shards, fuzz::WorkerMode mode,
            const bench::BenchOptions& options)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget =
        static_cast<VirtualMs>(options.minutes) * 60 * 1000;
    config.campaign.maxIterations = options.iters;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = options.minimize;
    config.campaign.reportDir = options.reportDir;
    config.campaign.corpusDir = options.corpusDir;
    config.campaign.corpusGuided = options.corpusGuided;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = options.seed;
    config.fuzzerFactory = [](uint64_t seed) {
        fuzz::NNSmithFuzzer::Options fuzzer_options;
        // The search cap BENCH_parallel_campaign.json was recorded with.
        fuzzer_options.search.maxIterations = 32;
        return std::make_unique<fuzz::NNSmithFuzzer>(fuzzer_options, seed);
    };
    config.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
    return config;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // The speedup probe needs fewer iterations than fig4's 600.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/300);

    const auto matrix = bench::runIdentityMatrix(
        /*report_base=*/"",
        [&](const bench::IdentityCell& cell, const std::string&) {
            return fuzz::runParallelCampaign(
                campaignFor(cell.shards, cell.mode, options));
        });
    const auto& cells = matrix.cells;
    const bool identical = matrix.identical();
    std::printf("merged results identical across worker modes and "
                "shard counts: %s\n",
                identical ? "yes" : "NO — BUG");

    FILE* out = options.outPath.empty()
                    ? stdout
                    : std::fopen(options.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", options.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"parallel_campaign_fig4\",\n");
    std::fprintf(out, "  \"fuzzer\": \"NNSmith\",\n");
    std::fprintf(out, "  \"component\": \"ortlite\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"iterations\": %zu,\n",
                 matrix.reference.iterations);
    std::fprintf(out, "  \"virtual_minutes\": %d,\n", options.minutes);
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"merged_results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  \"runs\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        std::fprintf(out,
                     "    {\"worker_mode\": \"%s\", \"shards\": %d, "
                     "\"wall_seconds\": %.3f, "
                     "\"speedup_vs_serial\": %.2f}%s\n",
                     fuzz::workerModeName(cells[i].mode), cells[i].shards,
                     cells[i].seconds, cells[0].seconds / cells[i].seconds,
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout)
        std::fclose(out);
    return identical ? 0 : 1;
}
