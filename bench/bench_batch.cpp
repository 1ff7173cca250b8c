/**
 * @file
 * Batched-execution bench: throughput + batched-vs-unbatched identity.
 *
 * Part 1 (throughput): runs the same NNSmith-vs-ONNXRuntime campaign
 * at --batch 1, 4 and 16 and reports fuzz cases per wall-clock second.
 * Batching amortizes graph generation and value search across lanes
 * and runs the reference through the batched executor (exec/batched.h:
 * one topo walk, SIMD kernel sweeps), so throughput must rise with the
 * batch size; the bench gates on >= 1.5x cases/sec at batch 16 vs batch 1.
 *
 * Part 2 (identity): the batched executor's contract is that lane l of
 * a batch is bit-identical to running the lane as its own sequential
 * case. This part proves it end-to-end at campaign scale: the same
 * minimizing, corpus-replaying campaign runs with the batched sweep on
 * and off across the full worker matrix {thread, process} x shards
 * {1, 2, 4} (bench::runIdentityMatrix), and every cell must produce a
 * merged result with the identical canonical rendering
 * (fuzz::renderCampaignResult, regression verdicts included) and a
 * byte-identical minimized-repro report tree. Exits nonzero on any
 * mismatch or a missed throughput gate.
 *
 * BENCH_batch.json at the repo root is a committed record of this
 * output; CI re-runs the bench with --iters 60 on every push.
 *
 *   ./bench/bench_batch [--seed N] [--iters N] [--minutes N]
 *                       [--out FILE]
 */
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_util.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
campaignFor(size_t batch, bool sweep, int shards, fuzz::WorkerMode mode,
            const bench::BenchOptions& options,
            const std::string& report_dir, const std::string& corpus_dir)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget =
        static_cast<VirtualMs>(options.minutes) * 60 * 1000;
    config.campaign.maxIterations = options.iters;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = !report_dir.empty();
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = options.seed;
    config.fuzzerFactory = [batch, sweep](uint64_t seed) {
        fuzz::NNSmithFuzzer::Options fuzzer_options;
        fuzzer_options.batch = batch;
        fuzzer_options.batchSweep = sweep;
        return std::make_unique<fuzz::NNSmithFuzzer>(fuzzer_options,
                                                     seed);
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
    // Both halves saturate within 120 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/120);

    // ---- Part 1: throughput at batch 1 / 4 / 16. Every config runs
    // the same number of *iterations*; a batch-B iteration executes B
    // fuzz cases, so cases/sec is the comparable throughput unit.
    struct Throughput {
        size_t batch;
        size_t iterations;
        size_t cases;
        double seconds;
        double casesPerSec;
    };
    std::vector<Throughput> throughput;
    for (const size_t batch : {size_t{1}, size_t{4}, size_t{16}}) {
        const auto start = std::chrono::steady_clock::now();
        auto result = fuzz::runParallelCampaign(
            campaignFor(batch, /*sweep=*/true, /*shards=*/1,
                        fuzz::WorkerMode::kThread, options,
                        /*report_dir=*/"", /*corpus_dir=*/""));
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        Throughput row;
        row.batch = batch;
        row.iterations = result.iterations;
        row.cases = result.iterations * batch;
        row.seconds = elapsed.count();
        row.casesPerSec =
            row.seconds > 0.0 ? static_cast<double>(row.cases) / row.seconds
                              : 0.0;
        throughput.push_back(row);
        std::printf("batch=%-3zu iters=%zu cases=%zu  %.3fs  "
                    "%.1f cases/sec\n",
                    row.batch, row.iterations, row.cases, row.seconds,
                    row.casesPerSec);
    }
    const double speedup =
        throughput[0].casesPerSec > 0.0
            ? throughput.back().casesPerSec / throughput[0].casesPerSec
            : 0.0;
    const bool fast_enough = speedup >= 1.5;
    std::printf("throughput batch=16 vs batch=1: %.2fx (gate 1.50x): %s\n",
                speedup, fast_enough ? "yes" : "NO — BUG");

    // ---- Part 2: batched-vs-unbatched identity across the worker
    // matrix. A corpus-seeding campaign first produces a report tree;
    // every matrix cell then replays it (regressions.tsv) on top of
    // minimizing fresh fuzzing.
    const size_t kIdentityBatch = 4;
    const auto base =
        std::filesystem::temp_directory_path() / "nnsmith-bench-batch";
    std::filesystem::remove_all(base);
    const auto corpus_dir = base / "corpus";
    (void)fuzz::runParallelCampaign(
        campaignFor(kIdentityBatch, /*sweep=*/true, /*shards=*/1,
                    fuzz::WorkerMode::kThread, options,
                    corpus_dir.string(), /*corpus_dir=*/""));

    const auto matrix = bench::runIdentityMatrix(
        base / "reports",
        [&](const bench::IdentityCell& cell, const std::string& report_dir) {
            return fuzz::runParallelCampaign(campaignFor(
                kIdentityBatch, cell.variant == "on", cell.shards, cell.mode,
                options, report_dir, corpus_dir.string()));
        },
        "sweep", {"on", "off"});
    std::filesystem::remove_all(base);
    const auto& cells = matrix.cells;
    const bool all_identical = matrix.identical();
    const bool ok = fast_enough && all_identical &&
                    !matrix.reference.bugs.empty() &&
                    !matrix.referenceTree.empty() &&
                    matrix.reference.regressions.total() > 0;
    std::printf("batched identity (merged result + report tree) across "
                "sweep {on, off} x {thread, process} x {1, 2, 4}: %s\n",
                all_identical ? "yes" : "NO — BUG");

    FILE* out = options.outPath.empty()
                    ? stdout
                    : std::fopen(options.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", options.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"batch\",\n");
    std::fprintf(out, "  \"fuzzer\": \"NNSmith\",\n");
    std::fprintf(out, "  \"component\": \"ortlite\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"throughput\": [\n");
    for (size_t i = 0; i < throughput.size(); ++i) {
        std::fprintf(out,
                     "    {\"batch\": %zu, \"iterations\": %zu, "
                     "\"cases\": %zu, \"wall_seconds\": %.3f, "
                     "\"cases_per_sec\": %.1f}%s\n",
                     throughput[i].batch, throughput[i].iterations,
                     throughput[i].cases, throughput[i].seconds,
                     throughput[i].casesPerSec,
                     i + 1 < throughput.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"speedup_b16_vs_b1\": %.2f,\n", speedup);
    std::fprintf(out, "  \"identity_batch\": %zu,\n", kIdentityBatch);
    std::fprintf(out, "  \"identity_bugs\": %zu,\n",
                 matrix.reference.bugs.size());
    std::fprintf(out, "  \"identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        std::fprintf(out,
                     "    {\"sweep\": %s, \"worker_mode\": \"%s\", "
                     "\"shards\": %d, \"wall_seconds\": %.3f, "
                     "\"identical\": %s}%s\n",
                     cells[i].variant == "on" ? "true" : "false",
                     fuzz::workerModeName(cells[i].mode),
                     cells[i].shards, cells[i].seconds,
                     cells[i].identical ? "true" : "false",
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout)
        std::fclose(out);
    return ok ? 0 : 1;
}
