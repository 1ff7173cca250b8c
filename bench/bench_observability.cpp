/**
 * @file
 * Telemetry inertness + overhead bench.
 *
 * The telemetry subsystem (src/obs/) promises to be *provably inert*:
 * metrics, phase traces, worker heartbeats and the progress line
 * observe a campaign but never change what it concludes. This bench is
 * the executable statement of that contract, in two parts:
 *
 *  1. Identity matrix — the same minimizing, corpus-replaying NNSmith
 *     vs ONNXRuntime campaign across telemetry {off, on} × {thread,
 *     process} × shards {1, 2, 4} (bench::runIdentityMatrix). Every
 *     cell must produce a merged result whose canonical rendering
 *     (fuzz::renderCampaignResult, regression verdicts included) and
 *     minimized-repro report tree are byte-identical to the
 *     telemetry-off thread×1 reference. Any mismatch exits nonzero.
 *     The telemetry-off half is also the campaign fabric's identity
 *     gate: where a shard runs never leaks into what it concludes.
 *
 *  2. Overhead probe — repeated telemetry-off vs telemetry-on runs of
 *     the thread×1 cell; the recorded overhead_pct is the wall-clock
 *     cost of full instrumentation (metrics + trace + heartbeats).
 *     The committed record stays below 3%.
 *
 * BENCH_observability.json at the repo root is a committed record of
 * this output; CI re-runs the matrix with --iters 60 on every push.
 *
 *   ./bench/bench_observability [--seed N] [--iters N] [--minutes N]
 *                               [--out FILE]
 */
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_util.h"
#include "corpus/replay.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
campaignFor(int shards, fuzz::WorkerMode mode,
            const bench::BenchOptions& options,
            const std::string& report_dir, const std::string& corpus_dir)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget =
        static_cast<VirtualMs>(options.minutes) * 60 * 1000;
    config.campaign.maxIterations = options.iters;
    config.campaign.coverageComponent = "ortlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = options.seed;
    config.fuzzerFactory = [](uint64_t seed) {
        return std::make_unique<fuzz::NNSmithFuzzer>(
            fuzz::NNSmithFuzzer::Options(), seed);
    };
    config.backendFactory = [] {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        owned.push_back(backends::makeOrtLite());
        return owned;
    };
    return config;
}

/** Flip the whole telemetry stack on (metrics + trace + progress gets
 *  attached per-campaign by the caller) or off. */
void
setTelemetry(bool on, const std::string& trace_path)
{
    if (on) {
        obs::setMetricsEnabled(true);
        obs::traceOpen(trace_path);
    } else {
        obs::setMetricsEnabled(false);
        obs::traceClose();
    }
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    bench::BenchOptions options = bench::parseArgs(argc, argv);
    const char* out_path = nullptr;
    bool iters_given = false;
    for (int i = 1; i < argc; ++i) {
        iters_given = iters_given || std::strcmp(argv[i], "--iters") == 0;
        if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[i + 1];
    }
    if (!iters_given)
        options.iters = 200; // the ISSUE-mandated overhead workload

    const auto base = std::filesystem::temp_directory_path() /
                      "nnsmith-bench-observability";
    std::filesystem::remove_all(base);
    const std::string trace_path = (base / "trace.jsonl").string();
    std::filesystem::create_directories(base);

    // Seed corpus: one telemetry-off campaign writes the report tree
    // that every matrix cell then replays, so regressions.tsv is part
    // of the identity surface.
    const auto corpus_dir = base / "corpus";
    (void)fuzz::runParallelCampaign(
        campaignFor(1, fuzz::WorkerMode::kThread, options,
                    corpus_dir.string(), /*corpus_dir=*/""));

    const auto matrix = bench::runIdentityMatrix(
        base / "reports",
        [&](const bench::IdentityCell& cell, const std::string& report_dir) {
            auto config = campaignFor(cell.shards, cell.mode, options,
                                      report_dir, corpus_dir.string());
            const bool telemetry = cell.variant == "on";
            setTelemetry(telemetry, trace_path);
            if (telemetry) {
                config.telemetry = true;
                obs::ProgressOptions popts;
                popts.printToStderr = false;
                config.progress =
                    std::make_shared<obs::ProgressAggregator>(popts);
            }
            auto result = fuzz::runParallelCampaign(config);
            setTelemetry(false, trace_path);
            return result;
        },
        "telemetry", {"off", "on"});
    const auto& cells = matrix.cells;
    const auto& reference = matrix.reference;

    // Overhead probe: interleaved off/on thread×1 runs. Wall-clock on
    // shared machines drifts far more between *runs* than telemetry
    // costs within one, so the estimator is paired: each adjacent
    // off/on pair shares its time window, the per-pair on/off ratio
    // cancels the drift, and the median ratio discards the windows a
    // noisy neighbor spoiled. Min times are recorded alongside.
    const int kReps = 7;
    double off_best = 1e100, on_best = 1e100;
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        double pair[2] = {0.0, 0.0};
        for (const bool telemetry : {false, true}) {
            auto config = campaignFor(1, fuzz::WorkerMode::kThread,
                                      options, /*report_dir=*/"",
                                      corpus_dir.string());
            setTelemetry(telemetry, trace_path);
            config.telemetry = telemetry;
            const auto start = std::chrono::steady_clock::now();
            (void)fuzz::runParallelCampaign(config);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            setTelemetry(false, trace_path);
            pair[telemetry ? 1 : 0] = elapsed.count();
            auto& best = telemetry ? on_best : off_best;
            best = std::min(best, elapsed.count());
        }
        if (pair[0] > 0)
            ratios.push_back(pair[1] / pair[0]);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio =
        ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    const double overhead_pct = (median_ratio - 1.0) * 100.0;
    std::printf("overhead: off=%.3fs on=%.3fs (min of %d); median "
                "paired ratio %+.2f%%\n",
                off_best, on_best, kReps, overhead_pct);

    std::filesystem::remove_all(base);

    const bool all_identical = matrix.identical();
    // ok gates identity only: wall-clock overhead is recorded, not
    // asserted, so a loaded CI machine cannot flake the bench.
    const bool ok = all_identical && !reference.bugs.empty() &&
                    !matrix.referenceTree.empty() &&
                    reference.regressions.total() > 0;
    std::printf("fabric identity + telemetry inertness (rendered result "
                "+ report tree) across {off, on} x {thread, process} x "
                "{1, 2, 4}: %s\n",
                ok ? "yes" : "NO — BUG");

    FILE* out = out_path != nullptr ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"observability\",\n");
    std::fprintf(out, "  \"fuzzer\": \"NNSmith\",\n");
    std::fprintf(out, "  \"component\": \"ortlite\",\n");
    std::fprintf(out, "  \"seed\": %llu,\n",
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"iterations\": %zu,\n", reference.iterations);
    std::fprintf(out, "  \"bugs\": %zu,\n", reference.bugs.size());
    std::fprintf(out, "  \"coverage\": %zu,\n",
                 reference.coverAll.count());
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  \"overhead_off_seconds\": %.3f,\n", off_best);
    std::fprintf(out, "  \"overhead_on_seconds\": %.3f,\n", on_best);
    std::fprintf(out, "  \"overhead_pct\": %.2f,\n", overhead_pct);
    std::fprintf(out, "  \"cells\": [\n");
    for (size_t i = 0; i < cells.size(); ++i) {
        std::fprintf(out,
                     "    {\"worker_mode\": \"%s\", \"shards\": %d, "
                     "\"telemetry\": %s, \"wall_seconds\": %.3f, "
                     "\"identical\": %s}%s\n",
                     fuzz::workerModeName(cells[i].mode),
                     cells[i].shards,
                     cells[i].variant == "on" ? "true" : "false",
                     cells[i].seconds,
                     cells[i].identical ? "true" : "false",
                     i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    if (out != stdout)
        std::fclose(out);
    return ok ? 0 : 1;
}
