/**
 * @file
 * Defect-reduction quality + overhead harness.
 *
 * Four sections:
 *
 *  1. "graph reduction": a 200-iteration NNSmith campaign against the
 *     full backend trio with --minimize on. Every flagged case must be
 *     reduced to a repro that re-validates and still triggers the
 *     identical defect-trace fingerprint (reduce::reproStillFires);
 *     reports the median node-count reduction ratio and the dedup
 *     collapse (bug reports with vs without fingerprint rekeying).
 *
 *  2. "sequence reduction": the same over a PassSequenceFuzzer
 *     campaign — median pass-count reduction ratio of the minimal
 *     failing subsequences.
 *
 *  3. "shard invariance": the minimizing campaign at shards 1, 2 and 4
 *     must merge byte-identically — equal fuzz::renderCampaignResult
 *     renderings, minimized repros included (minimization is
 *     per-iteration deterministic, so it composes with the sharded
 *     runner).
 *
 *  4. "overhead": wall-clock campaign throughput with minimization off
 *     vs on, next to the committed BENCH_pass_fuzz.json campaign
 *     reference (13.6 iters/sec) for cross-PR context.
 *
 * BENCH_reduce.json at the repo root is a committed record of this
 * output (see DESIGN.md "Reduction & reporting").
 *
 *   ./bench/bench_reduce [--seed N] [--iters N] [--out FILE]
 *                        [--report-dir DIR]
 */
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "fuzz/pass_fuzzer.h"
#include "graph/validate.h"
#include "reduce/reducer.h"

namespace {

using namespace nnsmith;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

fuzz::ParallelCampaignConfig
nnsmithCampaign(int shards, uint64_t seed, size_t iters, bool minimize,
                const std::string& report_dir,
                fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = minimize;
    config.campaign.reportDir = report_dir;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = seed;
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        // The paper's §5.1 configuration, value search included.
        return std::make_unique<fuzz::NNSmithFuzzer>(
            fuzz::NNSmithFuzzer::Options(), iteration_seed);
    };
    config.backendFactory = [] { return difftest::makeAllBackends(); };
    return config;
}

fuzz::ParallelCampaignConfig
sequenceCampaign(uint64_t seed, size_t iters)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.shards = 1;
    config.masterSeed = seed;
    config.fuzzerFactory = [](uint64_t iteration_seed) {
        return std::make_unique<fuzz::PassSequenceFuzzer>(iteration_seed);
    };
    config.backendFactory = [] {
        return std::vector<std::unique_ptr<backends::Backend>>{};
    };
    return config;
}

/** Reduction quality over one campaign's deduplicated bug map. */
struct ReductionAudit {
    size_t withRepro = 0;
    size_t minimized = 0;
    size_t verified = 0;   ///< minimized repro re-fires its fingerprint
    size_t validated = 0;  ///< minimized graphs passing graph/validate
    std::vector<double> ratios; ///< minimized / original size
};

ReductionAudit
audit(const fuzz::CampaignResult& result,
      const std::vector<backends::Backend*>& backends)
{
    ReductionAudit out;
    for (const auto& [key, bug] : result.bugs) {
        const bool graph_bug = bug.graphRepro != nullptr;
        if (!graph_bug && bug.seqRepro == nullptr)
            continue;
        ++out.withRepro;
        if (!bug.minimized)
            continue;
        ++out.minimized;
        out.ratios.push_back(static_cast<double>(bug.minimizedSize) /
                             static_cast<double>(bug.originalSize));
        if (graph_bug &&
            graph::validate(bug.graphRepro->graph).ok())
            ++out.validated;
        if (reduce::reproStillFires(bug, backends))
            ++out.verified;
    }
    return out;
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
        options.iters = 200; // the acceptance campaign size

    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());

    // ---- 1 + 4. graph reduction & overhead ---------------------------
    auto start = Clock::now();
    const auto baseline = fuzz::runParallelCampaign(nnsmithCampaign(
        1, options.seed, options.iters, /*minimize=*/false, ""));
    const double off_seconds = secondsSince(start);

    start = Clock::now();
    const auto minimized = fuzz::runParallelCampaign(nnsmithCampaign(
        1, options.seed, options.iters, /*minimize=*/true,
        options.reportDir));
    const double on_seconds = secondsSince(start);

    const ReductionAudit graphs = audit(minimized, backend_list);
    const double node_ratio = median(graphs.ratios);
    const double off_ips =
        static_cast<double>(baseline.iterations) / off_seconds;
    const double on_ips =
        static_cast<double>(minimized.iterations) / on_seconds;
    std::printf("graph reduction: %zu flagged reports (%zu raw), "
                "%zu minimized, %zu verified, median node ratio %.3f\n",
                minimized.bugs.size(), baseline.bugs.size(),
                graphs.minimized, graphs.verified, node_ratio);
    std::printf("overhead: %.3f iters/sec off vs %.3f on "
                "(%zu iterations)\n",
                off_ips, on_ips, minimized.iterations);

    // ---- 2. sequence reduction ---------------------------------------
    const auto seq_result = fuzz::runParallelCampaign(
        sequenceCampaign(options.seed, options.iters));
    const ReductionAudit seqs = audit(seq_result, {});
    const double pass_ratio = median(seqs.ratios);
    std::printf("sequence reduction: %zu flagged, %zu minimized, "
                "%zu verified, median pass ratio %.3f\n",
                seqs.withRepro, seqs.minimized, seqs.verified, pass_ratio);

    // ---- 3. shard invariance with --minimize -------------------------
    const auto two = fuzz::runParallelCampaign(nnsmithCampaign(
        2, options.seed, options.iters, /*minimize=*/true, "",
        options.workerMode));
    const auto four = fuzz::runParallelCampaign(nnsmithCampaign(
        4, options.seed, options.iters, /*minimize=*/true, "",
        options.workerMode));
    const std::string rendered = fuzz::renderCampaignResult(minimized);
    const bool identical = rendered == fuzz::renderCampaignResult(two) &&
                           rendered == fuzz::renderCampaignResult(four);
    std::printf("sharded minimizing campaign identical "
                "(1 vs 2 vs 4 shards): %s\n",
                identical ? "yes" : "NO — BUG");

    // Guard against a vacuous pass: a regression that stops attaching
    // repros would zero out withRepro and make every ratio/equality
    // below trivially true.
    const bool all_minimized =
        graphs.withRepro > 0 &&
        graphs.minimized == graphs.withRepro &&
        seqs.minimized == seqs.withRepro;
    const bool all_verified = graphs.verified == graphs.minimized &&
                              seqs.verified == seqs.minimized;
    const bool ratios_ok = node_ratio <= 0.5 && pass_ratio <= 0.5;

    FILE* out = out_path != nullptr ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"reduce\",\n");
    std::fprintf(out, "  \"driver\": \"bench/bench_reduce --iters %zu "
                      "--seed %llu\",\n",
                 options.iters,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(out, "  \"graph_reduction\": {\n");
    std::fprintf(out, "    \"campaign_iterations\": %zu,\n",
                 minimized.iterations);
    std::fprintf(out, "    \"raw_bug_reports\": %zu,\n",
                 baseline.bugs.size());
    std::fprintf(out, "    \"minimized_bug_reports\": %zu,\n",
                 minimized.bugs.size());
    std::fprintf(out, "    \"flagged_with_repro\": %zu,\n",
                 graphs.withRepro);
    std::fprintf(out, "    \"minimized\": %zu,\n", graphs.minimized);
    std::fprintf(out, "    \"revalidated\": %zu,\n", graphs.validated);
    std::fprintf(out, "    \"fingerprint_verified\": %zu,\n",
                 graphs.verified);
    std::fprintf(out, "    \"median_node_ratio\": %.3f\n  },\n",
                 node_ratio);
    std::fprintf(out, "  \"sequence_reduction\": {\n");
    std::fprintf(out, "    \"flagged_with_repro\": %zu,\n", seqs.withRepro);
    std::fprintf(out, "    \"minimized\": %zu,\n", seqs.minimized);
    std::fprintf(out, "    \"fingerprint_verified\": %zu,\n",
                 seqs.verified);
    std::fprintf(out, "    \"median_pass_ratio\": %.3f\n  },\n",
                 pass_ratio);
    std::fprintf(out, "  \"sharded_campaign\": {\n");
    std::fprintf(out, "    \"merged_results_identical_1_2_4\": %s\n"
                      "  },\n",
                 identical ? "true" : "false");
    std::fprintf(out, "  \"overhead\": {\n");
    std::fprintf(out, "    \"note\": \"same campaign, minimize off vs "
                      "on; pass_fuzz_reference is "
                      "BENCH_pass_fuzz.json "
                      "campaign_pass_fuzz_tvmlite.iters_per_sec\",\n");
    std::fprintf(out, "    \"iters_per_sec_minimize_off\": %.3f,\n",
                 off_ips);
    std::fprintf(out, "    \"iters_per_sec_minimize_on\": %.3f,\n",
                 on_ips);
    std::fprintf(out, "    \"pass_fuzz_reference\": 13.620\n  }\n}\n");
    if (out != stdout)
        std::fclose(out);
    return all_minimized && all_verified && ratios_ok && identical ? 0 : 1;
}
