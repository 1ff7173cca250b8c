/**
 * @file
 * Cross-backend pass-sequence coverage Venn — the paper's Fig. 8
 * "what does each system's bug surface share?" decomposition, lifted
 * to pass-sequence space now that all three backends draw from named
 * pass registries (backends/graph_pass.h, tirlite/tir_passes.h).
 *
 * For each backend, a sharded PassSequenceFuzzer campaign runs at
 * shards 1, 2 and 4; the merged results must be byte-identical, i.e.
 * render to equal fuzz::renderCampaignResult strings (the fuzzer is
 * iteration-independent). The sequence-coverage bins each
 * campaign explored are then reconstructed from the merged distinct
 * sequences via the shared sequenceCoverageBins() helper, and the
 * three bin sets are decomposed into the 7-region Venn. Pass names are
 * disjoint across backends, so the center region is the shared
 * structural bins (sequence-length buckets) — it must be nonempty, as
 * must every per-backend set.
 *
 * BENCH_pass_venn.json at the repo root is a committed record of this
 * output (see DESIGN.md "One pass registry, three backends").
 *
 *   ./bench/bench_pass_venn [--seed N] [--iters N] [--out FILE]
 */
#include <set>

#include "backends/graph_pass.h"
#include "bench_util.h"
#include "fuzz/pass_fuzzer.h"

namespace {

using namespace nnsmith;

struct BackendRun {
    std::string backend;       ///< "OrtLite" | "TVMLite" | "TrtLite"
    std::string component;     ///< coverage component prefix
    fuzz::CampaignResult merged;
    std::set<std::string> bins;
    bool shardsIdentical = false;
};

fuzz::ParallelCampaignConfig
vennCampaign(const std::string& backend, const std::string& component,
             int shards, uint64_t seed, size_t iters,
             fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = component;
    config.campaign.sampleEveryMinutes = 10;
    config.shards = shards;
    config.workerMode = mode;
    config.masterSeed = seed;
    config.fuzzerFactory = [backend](uint64_t iteration_seed) {
        fuzz::PassSequenceFuzzer::Options options;
        options.backend = backend;
        return std::make_unique<fuzz::PassSequenceFuzzer>(iteration_seed,
                                                          options);
    };
    // TVMLite sequences run through the TIR interpreter (no backend);
    // graph-pass backends are their own differential oracle and must
    // be present in the campaign's backend list.
    config.backendFactory =
        [backend]() -> std::vector<std::unique_ptr<backends::Backend>> {
        std::vector<std::unique_ptr<backends::Backend>> owned;
        if (backend == "OrtLite")
            owned.push_back(backends::makeOrtLite());
        else if (backend == "TrtLite")
            owned.push_back(backends::makeTrtLite());
        return owned;
    };
    return config;
}

/** Reconstruct the sequence-coverage bins a campaign explored from its
 *  merged instance keys ("tirseq/<joined>" for TVMLite,
 *  "passseq/<backend>/<joined>" for graph-pass backends) — the
 *  coverage registry exposes counts, not key strings. */
std::set<std::string>
binsOf(const fuzz::CampaignResult& result)
{
    std::set<std::string> bins;
    for (const auto& key : result.instanceKeys) {
        std::string joined;
        if (key.rfind("tirseq/", 0) == 0) {
            joined = key.substr(7);
        } else if (key.rfind("passseq/", 0) == 0) {
            const auto slash = key.find('/', 8);
            if (slash == std::string::npos)
                continue;
            joined = key.substr(slash + 1);
        } else {
            continue;
        }
        std::vector<std::string> sequence;
        size_t start = 0;
        while (start <= joined.size()) {
            const auto comma = joined.find(',', start);
            sequence.push_back(joined.substr(
                start,
                comma == std::string::npos ? std::string::npos
                                           : comma - start));
            if (comma == std::string::npos)
                break;
            start = comma + 1;
        }
        for (const auto& bin : backends::sequenceCoverageBins(sequence))
            bins.insert(bin);
    }
    return bins;
}

size_t
minus2(const std::set<std::string>& x, const std::set<std::string>& y,
       const std::set<std::string>& z)
{
    size_t n = 0;
    for (const auto& bin : x)
        n += y.count(bin) == 0 && z.count(bin) == 0;
    return n;
}

size_t
pairOnly(const std::set<std::string>& x, const std::set<std::string>& y,
         const std::set<std::string>& z)
{
    size_t n = 0;
    for (const auto& bin : x)
        n += y.count(bin) != 0 && z.count(bin) == 0;
    return n;
}

std::set<std::string>
center(const std::set<std::string>& x, const std::set<std::string>& y,
       const std::set<std::string>& z)
{
    std::set<std::string> out;
    for (const auto& bin : x)
        if (y.count(bin) != 0 && z.count(bin) != 0)
            out.insert(bin);
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
        options.iters = 150; // bin discovery saturates well before

    std::vector<BackendRun> runs = {{"OrtLite", "ortlite", {}, {}, false},
                                    {"TVMLite", "tvmlite", {}, {}, false},
                                    {"TrtLite", "trtlite", {}, {}, false}};
    for (auto& run : runs) {
        std::vector<std::string> renders;
        for (const int shards : {1, 2, 4}) {
            auto result = fuzz::runParallelCampaign(vennCampaign(
                run.backend, run.component, shards, options.seed,
                options.iters, options.workerMode));
            renders.push_back(fuzz::renderCampaignResult(result));
            if (shards == 1)
                run.merged = std::move(result);
        }
        run.shardsIdentical =
            renders[0] == renders[1] && renders[0] == renders[2];
        run.bins = binsOf(run.merged);
        std::printf("%s: %zu iters, %zu distinct sequences, %zu seq "
                    "bins, %zu bugs; shards {1,2,4} identical: %s\n",
                    run.backend.c_str(), run.merged.iterations,
                    run.merged.instanceKeys.size(), run.bins.size(),
                    run.merged.bugs.size(),
                    run.shardsIdentical ? "yes" : "NO — BUG");
    }

    const auto& A = runs[0].bins; // OrtLite
    const auto& B = runs[1].bins; // TVMLite
    const auto& C = runs[2].bins; // TrtLite
    const auto shared_bins = center(A, B, C);
    std::printf("\npass-sequence bin Venn (paper Fig. 8, pass space)\n");
    std::printf("  unique(OrtLite)=%zu unique(TVMLite)=%zu "
                "unique(TrtLite)=%zu\n",
                minus2(A, B, C), minus2(B, A, C), minus2(C, A, B));
    std::printf("  ort&tvm=%zu ort&trt=%zu tvm&trt=%zu\n",
                pairOnly(A, B, C), pairOnly(A, C, B), pairOnly(B, C, A));
    std::printf("  common(all three)=%zu\n", shared_bins.size());

    const bool all_nonempty = !A.empty() && !B.empty() && !C.empty();
    const bool all_identical = runs[0].shardsIdentical &&
                               runs[1].shardsIdentical &&
                               runs[2].shardsIdentical;
    const bool ok =
        all_nonempty && !shared_bins.empty() && all_identical;

    FILE* out = out_path != nullptr ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"pass_venn\",\n");
    std::fprintf(out, "  \"driver\": \"bench/bench_pass_venn --iters %zu "
                      "--seed %llu\",\n",
                 options.iters,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"backends\": {\n");
    for (size_t i = 0; i < runs.size(); ++i) {
        const auto& run = runs[i];
        std::fprintf(out,
                     "    \"%s\": {\"iterations\": %zu, "
                     "\"distinct_sequences\": %zu, \"seq_bins\": %zu, "
                     "\"bugs\": %zu, \"shards_1_2_4_identical\": %s}%s\n",
                     run.backend.c_str(), run.merged.iterations,
                     run.merged.instanceKeys.size(), run.bins.size(),
                     run.merged.bugs.size(),
                     run.shardsIdentical ? "true" : "false",
                     i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"venn\": {\n");
    std::fprintf(out, "    \"only_ortlite\": %zu,\n", minus2(A, B, C));
    std::fprintf(out, "    \"only_tvmlite\": %zu,\n", minus2(B, A, C));
    std::fprintf(out, "    \"only_trtlite\": %zu,\n", minus2(C, A, B));
    std::fprintf(out, "    \"ortlite_tvmlite\": %zu,\n",
                 pairOnly(A, B, C));
    std::fprintf(out, "    \"ortlite_trtlite\": %zu,\n",
                 pairOnly(A, C, B));
    std::fprintf(out, "    \"tvmlite_trtlite\": %zu,\n",
                 pairOnly(B, C, A));
    std::fprintf(out, "    \"all_three\": %zu,\n", shared_bins.size());
    std::fprintf(out, "    \"all_three_bins\": [");
    size_t printed = 0;
    for (const auto& bin : shared_bins) {
        std::fprintf(out, "%s\"%s\"", printed++ > 0 ? ", " : "",
                     bin.c_str());
    }
    std::fprintf(out, "]\n");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"ok\": %s\n", ok ? "true" : "false");
    std::fprintf(out, "}\n");
    if (out != stdout)
        std::fclose(out);
    return ok ? 0 : 1;
}
