/**
 * @file
 * Regression-corpus round-trip + replay harness.
 *
 * Full mode (no --corpus) drives the whole reduce -> corpus -> replay
 * loop on the acceptance campaign and records BENCH_corpus.json:
 *
 *  1. "emit": the 200-iteration NNSmith campaign against the full
 *     backend trio with --minimize on writes its repro corpus
 *     (29 fingerprints at the committed seed), and a PassSequenceFuzzer
 *     campaign writes a sequence corpus alongside in a second dir.
 *  2. "round trip": every emitted repro must satisfy
 *     renderRepro(parseRepro(text)) == text, byte for byte.
 *  3. "replay": replaying both corpora against the live oracle must
 *     classify every fingerprint still-fires (same code, same bugs —
 *     the seed regression suite property).
 *  4. "shard invariance": a campaign with --corpus + --minimize must
 *     produce byte-identical regressions.tsv and identical merged
 *     results for shards {1, 2, 4}.
 *
 * Replay-only mode (`--corpus DIR`) re-checks an existing corpus and
 * exits zero only when every fingerprint classifies `still-fires` —
 * the scripts/check.sh CI probe, where the corpus was emitted moments
 * earlier by this same binary and anything short of a full re-fire
 * means the replay machinery regressed.
 *
 *   ./bench/bench_corpus [--seed N] [--iters N] [--out FILE]
 *                        [--report-dir DIR] [--corpus DIR]
 */
#include <filesystem>

#include "bench_util.h"
#include "corpus/parser.h"
#include "corpus/replay.h"
#include "fuzz/pass_fuzzer.h"

namespace {

using namespace nnsmith;

fuzz::ParallelCampaignConfig
nnsmithCampaign(int shards, uint64_t seed, size_t iters,
                const std::string& report_dir,
                const std::string& corpus_dir,
                fuzz::WorkerMode mode = fuzz::WorkerMode::kThread)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
    config.campaign.corpusDir = corpus_dir;
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
sequenceCampaign(uint64_t seed, size_t iters, const std::string& report_dir)
{
    fuzz::ParallelCampaignConfig config;
    config.campaign.virtualBudget = 240ll * 60 * 1000;
    config.campaign.maxIterations = iters;
    config.campaign.coverageComponent = "tvmlite";
    config.campaign.sampleEveryMinutes = 10;
    config.campaign.minimize = true;
    config.campaign.reportDir = report_dir;
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

/** Count of repro files whose serialize->parse->re-serialize round
 *  trip is byte-identical (against the total). */
struct RoundTrip {
    size_t files = 0;
    size_t identical = 0;
};

RoundTrip
auditRoundTrip(const std::string& dir)
{
    RoundTrip out;
    for (const auto& entry : corpus::loadCorpusIndex(dir)) {
        const auto path =
            (std::filesystem::path(dir) / entry.file).string();
        const std::string text = corpus::readCorpusFile(path);
        ++out.files;
        try {
            if (corpus::renderRepro(corpus::parseRepro(text)) == text)
                ++out.identical;
            else
                std::printf("round trip NOT byte-identical: %s\n",
                            entry.file.c_str());
        } catch (const corpus::ParseError& error) {
            std::printf("round trip parse error in %s: %s\n",
                        entry.file.c_str(), error.what());
        }
    }
    return out;
}

void
printReplay(const char* label, const corpus::ReplayResult& replay)
{
    std::printf("%s: %zu repros — %zu still-fire, %zu changed, "
                "%zu fixed, %zu parse errors\n",
                label, replay.total(), replay.stillFires, replay.changed,
                replay.fixed, replay.parseErrors);
    for (const auto& outcome : replay.outcomes) {
        if (outcome.status != corpus::ReplayStatus::kStillFires)
            std::printf("  %-11s %s  %s\n",
                        corpus::replayStatusName(outcome.status).c_str(),
                        outcome.fingerprint.c_str(),
                        outcome.detail.c_str());
    }
}

int
replayOnly(const std::string& dir)
{
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());
    corpus::ReplayResult replay;
    try {
        replay = corpus::replayCorpus(dir, backend_list);
    } catch (const corpus::ParseError& error) {
        std::fprintf(stderr, "bench_corpus --corpus: %s\n", error.what());
        return 1;
    }
    corpus::writeRegressions(dir, replay);
    printReplay(dir.c_str(), replay);
    // The probe contract: a corpus emitted by this same binary must
    // re-fire every fingerprint. "fixed" here cannot mean a genuine
    // fix — it means the replay machinery failed to re-fire a known
    // bug — so anything short of all-still-fires fails. (Corpora that
    // legitimately accumulate fixed bugs are the campaign drivers'
    // --corpus territory, which records verdicts without gating.)
    return replay.total() > 0 && replay.stillFires == replay.total() ? 0
                                                                     : 1;
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

    if (!options.corpusDir.empty())
        return replayOnly(options.corpusDir);

    const std::filesystem::path base =
        options.reportDir.empty()
            ? std::filesystem::temp_directory_path() / "nnsmith-bench-corpus"
            : std::filesystem::path(options.reportDir);
    const std::string graph_dir = (base / "graph").string();
    const std::string seq_dir = (base / "seq").string();
    std::filesystem::remove_all(base);

    // ---- 1. emit the acceptance corpora ------------------------------
    const auto emitted = fuzz::runParallelCampaign(nnsmithCampaign(
        1, options.seed, options.iters, graph_dir, ""));
    const auto seq_emitted = fuzz::runParallelCampaign(
        sequenceCampaign(options.seed, options.iters, seq_dir));
    const size_t graph_reports = corpus::loadCorpusIndex(graph_dir).size();
    const size_t seq_reports = corpus::loadCorpusIndex(seq_dir).size();
    std::printf("emitted: %zu graph repros (%zu deduped bugs), "
                "%zu sequence repros (%zu deduped bugs)\n",
                graph_reports, emitted.bugs.size(), seq_reports,
                seq_emitted.bugs.size());

    // ---- 2. round trip -----------------------------------------------
    const RoundTrip graph_rt = auditRoundTrip(graph_dir);
    const RoundTrip seq_rt = auditRoundTrip(seq_dir);
    std::printf("round trip: graph %zu/%zu byte-identical, "
                "sequence %zu/%zu\n",
                graph_rt.identical, graph_rt.files, seq_rt.identical,
                seq_rt.files);

    // ---- 3. replay ----------------------------------------------------
    auto owned = difftest::makeAllBackends();
    std::vector<backends::Backend*> backend_list;
    for (auto& backend : owned)
        backend_list.push_back(backend.get());
    const auto graph_replay = corpus::replayCorpus(graph_dir, backend_list);
    const auto seq_replay = corpus::replayCorpus(seq_dir, {});
    printReplay("graph corpus replay", graph_replay);
    printReplay("sequence corpus replay", seq_replay);

    // ---- 4. shard invariance with --corpus ---------------------------
    auto regressions_of = [&](int shards) {
        const auto result = fuzz::runParallelCampaign(nnsmithCampaign(
            shards, options.seed, options.iters, "", graph_dir,
            options.workerMode));
        return std::pair<std::string, size_t>(
            corpus::renderRegressions(result.regressions),
            result.bugs.size());
    };
    const auto one = regressions_of(1);
    const auto two = regressions_of(2);
    const auto four = regressions_of(4);
    const bool shard_identical = one == two && one == four;
    std::printf("regressions.tsv identical across shards {1,2,4}: %s\n",
                shard_identical ? "yes" : "NO — BUG");

    const bool all_still_fire =
        graph_replay.total() > 0 &&
        graph_replay.stillFires == graph_replay.total() &&
        seq_replay.total() > 0 &&
        seq_replay.stillFires == seq_replay.total();
    const bool roundtrip_ok = graph_rt.identical == graph_rt.files &&
                              seq_rt.identical == seq_rt.files;

    FILE* out = out_path != nullptr ? std::fopen(out_path, "w") : stdout;
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"corpus\",\n");
    std::fprintf(out, "  \"driver\": \"bench/bench_corpus --iters %zu "
                      "--seed %llu\",\n",
                 options.iters,
                 static_cast<unsigned long long>(options.seed));
    std::fprintf(out, "  \"graph_corpus\": {\n");
    std::fprintf(out, "    \"reports\": %zu,\n", graph_replay.total());
    std::fprintf(out, "    \"still_fires\": %zu,\n",
                 graph_replay.stillFires);
    std::fprintf(out, "    \"changed\": %zu,\n", graph_replay.changed);
    std::fprintf(out, "    \"fixed\": %zu,\n", graph_replay.fixed);
    std::fprintf(out, "    \"parse_errors\": %zu\n  },\n",
                 graph_replay.parseErrors);
    std::fprintf(out, "  \"sequence_corpus\": {\n");
    std::fprintf(out, "    \"reports\": %zu,\n", seq_replay.total());
    std::fprintf(out, "    \"still_fires\": %zu,\n", seq_replay.stillFires);
    std::fprintf(out, "    \"changed\": %zu,\n", seq_replay.changed);
    std::fprintf(out, "    \"fixed\": %zu,\n", seq_replay.fixed);
    std::fprintf(out, "    \"parse_errors\": %zu\n  },\n",
                 seq_replay.parseErrors);
    std::fprintf(out, "  \"round_trip\": {\n");
    std::fprintf(out, "    \"files\": %zu,\n",
                 graph_rt.files + seq_rt.files);
    std::fprintf(out, "    \"byte_identical\": %zu\n  },\n",
                 graph_rt.identical + seq_rt.identical);
    std::fprintf(out, "  \"sharded_replay\": {\n");
    std::fprintf(out, "    \"regressions_identical_1_2_4\": %s\n  }\n}\n",
                 shard_identical ? "true" : "false");
    if (out != stdout)
        std::fclose(out);
    return all_still_fire && roundtrip_ok && shard_identical ? 0 : 1;
}
