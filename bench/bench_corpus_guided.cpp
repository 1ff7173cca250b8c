/**
 * @file
 * Corpus-guided generation discovery-speed harness (fuzz/mutator.h)
 * -> BENCH_corpus_guided.json.
 *
 *  1. "emit": short --minimize acceptance campaigns write a graph
 *     repro corpus (NNSmith vs the difftest trio) and a sequence repro
 *     corpus (PassSequenceFuzzer over TIR), exactly like bench_corpus.
 *  2. "measure": at a fresh master seed, run matched-iteration
 *     campaigns with guidance off (pure fresh sampling) and on
 *     (--corpus-guided over the emitted corpus) and compare coverage,
 *     pass/seq coverage bins, and deduped-bug discovery at equal
 *     iteration count. Guided fresh iterations draw the exact same
 *     cases as the baseline's, so the comparison isolates what the
 *     mutated iterations add.
 *  3. "shard invariance": the guided graph campaign — --minimize and
 *     --corpus included — must merge byte-identically across
 *     {thread, process} x shards {1, 2, 4} (bench::runIdentityMatrix:
 *     canonical rendering with regression verdicts, plus report tree).
 *
 * Exit is zero only when the guided runs discover at least the
 * baseline's coverage bins and deduped bugs and the identity matrix
 * holds — the acceptance gate for corpus-guided mode.
 *
 *   ./bench/bench_corpus_guided [--seed N] [--iters N] [--out FILE]
 *                               [--report-dir DIR]
 */
#include <filesystem>

#include "bench_util.h"
#include "corpus/corpus.h"
#include "fuzz/pass_fuzzer.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
graphCampaign(int shards, uint64_t seed, size_t iters,
              const std::string& report_dir, const std::string& corpus_dir,
              bool guided,
              fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    // Count the trio's whole optimizer surface (empty prefix = every
    // component): guided mutants explore OrtLite/TrtLite pass
    // pipelines as well as TVMLite lowering, and the discovery-speed
    // comparison should see all of it.
    config.campaign.coverageComponent = "";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.campaign.corpusGuided = guided;
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
sequenceCampaign(uint64_t seed, size_t iters, const std::string& report_dir,
                 const std::string& corpus_dir, bool guided)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
    config.campaign.corpusGuided = guided;
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

/** The discovery-speed scoreboard of one campaign. */
struct Score {
    size_t coverage = 0;
    size_t passBins = 0;
    size_t bugs = 0;
    size_t instances = 0;
};

Score
scoreOf(const fuzz::CampaignResult& result)
{
    return {result.coverAll.count(), result.coverPass.count(),
            result.bugs.size(), result.instanceKeys.size()};
}

void
printScore(const char* label, const Score& s)
{
    std::printf("  %-22s coverage=%zu pass_bins=%zu bugs=%zu "
                "instances=%zu\n",
                label, s.coverage, s.passBins, s.bugs, s.instances);
}

void
emitScore(FILE* out, const char* label, const Score& s, const char* tail)
{
    std::fprintf(out,
                 "    \"%s\": {\"coverage\": %zu, \"pass_bins\": %zu, "
                 "\"bugs\": %zu, \"instances\": %zu}%s\n",
                 label, s.coverage, s.passBins, s.bugs, s.instances, tail);
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

    const std::filesystem::path base =
        options.reportDir.empty()
            ? std::filesystem::temp_directory_path() /
                  "nnsmith-bench-corpus-guided"
            : std::filesystem::path(options.reportDir);
    const std::string graph_dir = (base / "graph").string();
    const std::string seq_dir = (base / "seq").string();
    std::filesystem::remove_all(base);

    // ---- 1. emit the seed corpora ------------------------------------
    fuzz::runParallelCampaign(graphCampaign(
        1, options.seed, options.iters, graph_dir, "", false));
    fuzz::runParallelCampaign(sequenceCampaign(
        options.seed, options.iters, seq_dir, "", false));
    std::printf("seed corpora: %zu graph repros, %zu sequence repros\n",
                corpus::loadCorpusIndex(graph_dir).size(),
                corpus::loadCorpusIndex(seq_dir).size());

    // ---- 2. guidance off vs on at a fresh master seed ----------------
    // The guided runs persist their repro corpus: anything fresh
    // sampling cannot produce (e.g. graph-sequence repros — fresh
    // iterations never run explicit pass sequences) is by construction
    // surfaced by the mutation loop.
    const uint64_t measure_seed = options.seed + 1;
    const auto graph_baseline = fuzz::runParallelCampaign(graphCampaign(
        1, measure_seed, options.iters, "", "", false));
    const auto graph_guided = fuzz::runParallelCampaign(graphCampaign(
        1, measure_seed, options.iters, (base / "guided_graph").string(),
        graph_dir, true));
    const auto seq_baseline = fuzz::runParallelCampaign(sequenceCampaign(
        measure_seed, options.iters, "", "", false));
    const auto seq_guided = fuzz::runParallelCampaign(sequenceCampaign(
        measure_seed, options.iters, (base / "guided_seq").string(),
        seq_dir, true));

    const Score gb = scoreOf(graph_baseline);
    const Score gg = scoreOf(graph_guided);
    const Score sb = scoreOf(seq_baseline);
    const Score sg = scoreOf(seq_guided);
    std::printf("graph campaign, %zu iterations each:\n", options.iters);
    printScore("baseline", gb);
    printScore("corpus-guided", gg);
    std::printf("sequence campaign, %zu iterations each:\n", options.iters);
    printScore("baseline", sb);
    printScore("corpus-guided", sg);

    const bool guided_not_worse =
        gg.passBins >= gb.passBins && gg.bugs >= gb.bugs &&
        sg.passBins >= sb.passBins && sg.bugs >= sb.bugs;
    std::printf("guided >= baseline on pass bins and deduped bugs: %s\n",
                guided_not_worse ? "yes" : "NO — BUG");

    // ---- 3. shard invariance of the guided campaign ------------------
    const bool shard_identical =
        bench::runIdentityMatrix(
            base / "identity",
            [&](const bench::IdentityCell& cell,
                const std::string& report_dir) {
                return fuzz::runParallelCampaign(graphCampaign(
                    cell.shards, measure_seed, options.iters, report_dir,
                    graph_dir, true, cell.mode));
            })
            .identical();
    std::printf("guided merge identical across {thread,process} x "
                "{1,2,4}: %s\n",
                shard_identical ? "yes" : "NO — BUG");

    FILE* out = out_path != nullptr ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"corpus_guided\",\n");
    std::fprintf(out,
                 "  \"driver\": \"bench/bench_corpus_guided --iters %zu "
                 "--seed %llu\",\n",
                 options.iters,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"iterations_per_campaign\": %zu,\n",
                 options.iters);
    std::fprintf(out, "  \"graph_campaign\": {\n");
    emitScore(out, "baseline", gb, ",");
    emitScore(out, "corpus_guided", gg, "");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"sequence_campaign\": {\n");
    emitScore(out, "baseline", sb, ",");
    emitScore(out, "corpus_guided", sg, "");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"guided_not_worse\": %s,\n",
                 guided_not_worse ? "true" : "false");
    std::fprintf(out, "  \"shard_identity\": {\n");
    std::fprintf(out,
                 "    \"identical_thread_process_1_2_4\": %s\n  }\n}\n",
                 shard_identical ? "true" : "false");
    if (out != stdout)
        std::fclose(out);
    return guided_not_worse && shard_identical ? 0 : 1;
}
