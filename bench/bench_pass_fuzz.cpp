/**
 * @file
 * Pass-sequence fuzzing throughput + determinism harness.
 *
 * Three sections, all wall-clock timed:
 *
 *  1. "sequence fuzzing": a serial PassSequenceFuzzer loop
 *     (fuzz/pass_fuzzer.h) — sequences/sec, plus the growth of
 *     distinct pass-sequence coverage bins ("tvmlite/pass/seq/..."),
 *     sampled every 10 iterations. The committed baseline must show
 *     more than one distinct bin discovered per 10 iterations.
 *
 *  2. "sharded determinism": the same fuzzer through the parallel
 *     campaign runner at shards=1 and shards=2; the merged results
 *     must be byte-identical — equal fuzz::renderCampaignResult
 *     renderings (the fuzzer is iteration-independent).
 *
 *  3. "campaign": the end-to-end NNSmith campaign of
 *     bench_kernels.cpp (identical heavy-tensor generator config and
 *     iteration-capped value search) with TVMLite in pass-fuzz mode —
 *     randomized TIR pass sequences must not regress campaign
 *     throughput vs the committed BENCH_typed_kernels.json number.
 *
 * BENCH_pass_fuzz.json at the repo root is a committed record of this
 * output (see DESIGN.md "TIR pass pipeline & sequence fuzzing").
 *
 *   ./bench/bench_pass_fuzz [--seed N] [--iters N] [--shards N]
 *                           [--out FILE]
 */
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "fuzz/pass_fuzzer.h"

namespace {

using namespace nnsmith;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

size_t
seqBinsRegistered()
{
    return coverage::CoverageRegistry::instance().sitesRegistered(
        "tvmlite/pass/seq");
}

/** One sample of the distinct-bin growth curve. */
struct BinPoint {
    size_t iterations;
    size_t bins;
};

fuzz::ParallelCampaignConfig
passFuzzCampaign(int shards, uint64_t seed, size_t iters,
                 fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = seed;
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        return std::make_unique<fuzz::PassSequenceFuzzer>(iteration_seed);
    };
    // The fuzzer interprets TIR directly; no backend needed, but the
    // factory must exist (and shards each call it once).
    config.backendFactory = [] {
        return std::vector<std::unique_ptr<backends::Backend>>{};
    };
    return config;
}

/**
 * The bench_kernels.cpp campaign (same generator/search config — see
 * that file for the workload rationale) with TVMLite running
 * randomized pass sequences. Throughput must stay at the
 * BENCH_typed_kernels.json level: the pass-fuzz draw is one hash +
 * shuffle per lowered program, noise next to kernel execution.
 */
double
campaignItersPerSec(uint64_t seed, size_t iters)
{
    fuzz::NNSmithFuzzer::Options options;
    options.generator.targetOpNodes = 10;
    options.generator.dimCapScale = 2;
    options.generator.dimFloor = 16;
    options.generator.solverKind = solver::SolverKind::kNative;
    options.generator.opAllowlist = {
        "Add",      "Sub",       "Mul",       "Div",       "Pow",
        "Max",      "Min",       "Equal",     "Greater",   "Less",
        "And",      "Or",        "Xor",       "Relu",      "LeakyRelu",
        "Sigmoid",  "Tanh",      "Abs",       "Neg",       "Clip",
        "Softmax",  "Where",     "Cast",      "ReduceSum", "ReduceMean",
        "ReduceMax", "ReduceMin", "ReduceProd", "ArgMax",  "ArgMin"};
    options.search.maxIterations = 32;
    fuzz::NNSmithFuzzer fuzzer(options, seed);

    auto owned = difftest::makeAllBackends();
    owned[1] = backends::makeTvmLite(/*pass_fuzz_seed=*/seed | 1);
    std::vector<backends::Backend*> backend_list;
    for (auto& b : owned)
        backend_list.push_back(b.get());

    fuzz::CampaignConfig config;
    config.virtualBudget = 240ll * 60 * 1000;
    config.maxIterations = iters;
    config.coverageComponent = "tvmlite";
    config.sampleEveryMinutes = 10;

    const auto start = Clock::now();
    const auto result = fuzz::runCampaign(fuzzer, backend_list, config);
    const double seconds = secondsSince(start);
    std::printf("campaign (pass-fuzz TVMLite): %zu iters in %.3fs "
                "(%.3f iters/sec), %zu bugs, coverage %zu\n",
                result.iterations, seconds,
                static_cast<double>(result.iterations) / seconds,
                result.bugs.size(), result.coverAll.count());
    return static_cast<double>(result.iterations) / seconds;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace nnsmith;
    // Bin discovery saturates well before 300 iterations.
    const bench::BenchOptions options =
        bench::parseArgs(argc, argv, /*default_iters=*/300);

    // ---- 1. serial sequence-fuzzing throughput + bin growth ----------
    coverage::CoverageRegistry::instance().resetHits();
    fuzz::PassSequenceFuzzer fuzzer(options.seed);
    std::vector<BinPoint> series;
    const auto start = Clock::now();
    for (size_t i = 1; i <= options.iters; ++i) {
        fuzzer.iterate({});
        if (i % 10 == 0)
            series.push_back(BinPoint{i, seqBinsRegistered()});
    }
    const double fuzz_seconds = secondsSince(start);
    const size_t bins = seqBinsRegistered();
    const double bins_per_10_iters =
        static_cast<double>(bins) /
        (static_cast<double>(options.iters) / 10.0);
    std::printf("sequence fuzzing: %zu iters in %.3fs (%.0f seq/sec), "
                "%zu distinct seq bins (%.2f per 10 iters)\n",
                options.iters, fuzz_seconds,
                static_cast<double>(options.iters) / fuzz_seconds, bins,
                bins_per_10_iters);

    // ---- 2. sharded determinism --------------------------------------
    const auto serial = fuzz::runParallelCampaign(
        passFuzzCampaign(1, options.seed, options.iters));
    const auto sharded = fuzz::runParallelCampaign(passFuzzCampaign(
        std::max(2, options.shards), options.seed, options.iters,
        options.workerMode));
    const bool identical = fuzz::renderCampaignResult(serial) ==
                           fuzz::renderCampaignResult(sharded);
    std::printf("sharded pass-fuzz campaign identical (1 vs %d shards): "
                "%s; %zu bugs, %zu distinct sequences\n",
                std::max(2, options.shards), identical ? "yes" : "NO — BUG",
                serial.bugs.size(), serial.instanceKeys.size());

    // ---- 3. end-to-end campaign throughput ---------------------------
    const double iters_per_sec = campaignItersPerSec(options.seed, 120);

    FILE* out = options.outPath.empty()
                    ? stdout
                    : std::fopen(options.outPath.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", options.outPath.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"pass_fuzz\",\n");
    std::fprintf(out, "  \"driver\": \"bench/bench_pass_fuzz --iters %zu "
                      "--seed %llu\",\n",
                 options.iters,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"sequence_fuzzing\": {\n");
    std::fprintf(out, "    \"iterations\": %zu,\n", options.iters);
    std::fprintf(out, "    \"wall_seconds\": %.3f,\n", fuzz_seconds);
    std::fprintf(out, "    \"sequences_per_sec\": %.1f,\n",
                 static_cast<double>(options.iters) / fuzz_seconds);
    std::fprintf(out, "    \"distinct_seq_bins\": %zu,\n", bins);
    std::fprintf(out, "    \"bins_per_10_iters\": %.2f,\n",
                 bins_per_10_iters);
    std::fprintf(out, "    \"bin_growth\": [");
    for (size_t i = 0; i < series.size(); ++i) {
        if (i % 6 == 0)
            std::fprintf(out, "\n      ");
        std::fprintf(out, "[%zu, %zu]%s", series[i].iterations,
                     series[i].bins,
                     i + 1 < series.size() ? ", " : "");
    }
    std::fprintf(out, "\n    ]\n  },\n");
    std::fprintf(out, "  \"sharded_campaign\": {\n");
    std::fprintf(out, "    \"merged_results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(out, "    \"bugs\": %zu,\n", serial.bugs.size());
    std::fprintf(out, "    \"distinct_sequences\": %zu,\n",
                 serial.instanceKeys.size());
    std::fprintf(out, "    \"pass_coverage\": %zu\n",
                 serial.coverPass.count());
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"campaign_pass_fuzz_tvmlite\": {\n");
    std::fprintf(out, "    \"note\": \"bench_kernels.cpp campaign "
                      "config with TVMLite pass-fuzz enabled; compare "
                      "iters_per_sec against BENCH_typed_kernels.json "
                      "campaign.after.iters_per_sec\",\n");
    std::fprintf(out, "    \"iterations\": 120,\n");
    std::fprintf(out, "    \"iters_per_sec\": %.3f,\n", iters_per_sec);
    std::fprintf(out, "    \"typed_kernels_reference\": 12.306\n");
    std::fprintf(out, "  }\n}\n");
    if (out != stdout)
        std::fclose(out);
    return identical && bins_per_10_iters > 1.0 ? 0 : 1;
}
