/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *   --seed N        campaign seed (default 2023)
 *   --iters N       per-fuzzer real-iteration cap (figure benches)
 *   --minutes N     virtual budget in minutes (default 240, as in the
 *                   paper's 4-hour runs)
 *   --shards N      run campaigns sharded over N workers via
 *                   fuzz/parallel_campaign.h (default 1; the merged
 *                   results are byte-identical for any N, so --shards
 *                   only changes wall-clock time; Tzer is stateful
 *                   across iterations and always runs serially)
 *   --workers N     alias of --shards (the campaign-fabric spelling)
 *   --worker-mode M how the workers execute (fuzz/worker_runtime.h):
 *                   "thread" (default; std::thread per shard) or
 *                   "process" (forked, crash-isolated worker processes
 *                   streaming wire-format records over pipes). The
 *                   merged results are byte-identical either way.
 *   --pass-fuzz     run every backend's optimizer with randomized pass
 *                   sequences instead of the fixed default pipeline:
 *                   TVMLite draws TIR sequences (tirlite/tir_passes.h),
 *                   OrtLite/TrtLite draw graph-pass sequences
 *                   (backends/graph_pass.h). Each sequence is a pure
 *                   function of (campaign seed, test case), so
 *                   sharding stays byte-identical.
 *   --minimize      delta-debug every flagged case to a minimal repro
 *                   before dedup (reduce/reducer.h); dedup keys become
 *                   minimized fingerprints. Off by default: it
 *                   re-runs the oracle on every flagged case, which
 *                   the coverage figures do not need.
 *   --report-dir D  write one minimized-repro report per deduped bug
 *                   into directory D (reduce/report.h)
 *   --corpus D      replay the regression corpus in directory D (a
 *                   --report-dir tree) before fresh fuzzing: every
 *                   known fingerprint is re-checked and classified
 *                   still-fires / changed / fixed into D/regressions.tsv
 *                   (corpus/replay.h). Replay stays out of coverage
 *                   accounting, so it composes with --shards.
 *   --corpus-guided mutate the replayed corpus instead of only
 *                   re-checking it (fuzz/mutator.h; requires --corpus):
 *                   each iteration chooses, from its own derived
 *                   iteration seed, between fresh sampling and
 *                   mutating a corpus repro (graph edits or pass-
 *                   sequence splice/truncate/reorder). The pool is
 *                   immutable after load, so merged results stay
 *                   byte-identical across shard counts and worker
 *                   modes.
 *   --batch N       fuzz cases per NNSmith iteration: each generated
 *                   graph is executed on N independent input sets
 *                   through the batched executor (exec/batched.h),
 *                   amortizing generation/solving across lanes
 *                   (default 1 = off). Per-lane outcomes are
 *                   bit-identical to sequential runs, so merged
 *                   results stay byte-identical across shard counts
 *                   and worker modes at any fixed N (bench_batch
 *                   gates this). Baseline fuzzers ignore the flag.
 *   --out FILE      machine-readable bench output (the BENCH_*.json
 *                   files); consumed by the individual drivers
 *   --trace-out F   write chrome-trace-compatible JSONL phase spans
 *                   (gen / exec:<backend> / oracle / minimize /
 *                   replay) to F (obs/trace.h); load in Perfetto by
 *                   wrapping the lines in [...]
 *   --metrics-out F enable the metrics registry (obs/metrics.h) and
 *                   dump the final merged snapshot — iterations,
 *                   per-phase timing histograms, oracle comparisons,
 *                   mutation outcomes, ddmin budget, worker respawns —
 *                   to F as canonical JSON at exit
 *   --progress      live throttled progress line on stderr (iters/sec,
 *                   hits, bugs, per-worker liveness with stalled
 *                   workers flagged distinctly from crashed ones;
 *                   obs/progress.h)
 *
 * All telemetry flags are inert by contract: merged campaign results,
 * report trees and regressions.tsv are byte-identical with them on or
 * off (DESIGN.md "Telemetry"). Unknown flags are rejected with a
 * one-line error (exit code 2) instead of being silently ignored.
 *
 * Virtual time: iteration costs follow the calibrated CostModel in
 * fuzz/fuzzer.h, so per-iteration cost *ratios* (LEMON ~100x slower,
 * TVM compiles slower than ORT) match §5.2. Real iterations are capped
 * because substrate coverage converges quickly; once the cap is hit
 * the series holds its converged value to the end of the virtual
 * window (DESIGN.md "Virtual time and the CostModel").
 */
#ifndef NNSMITH_BENCH_BENCH_UTIL_H
#define NNSMITH_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/graphfuzzer.h"
#include "baselines/lemon.h"
#include "baselines/tzer.h"
#include "fuzz/campaign.h"
#include "fuzz/parallel_campaign.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace nnsmith::bench {

/** Parsed common CLI options. */
struct BenchOptions {
    uint64_t seed = 2023;
    size_t iters = 600;     ///< --iters, or the driver's default
    int minutes = 240;
    int shards = 1;
    fuzz::WorkerMode workerMode = fuzz::WorkerMode::kThread;
    bool passFuzz = false;
    bool minimize = false;  ///< ddmin flagged cases before dedup
    std::string reportDir;  ///< write minimized repro reports here
    std::string corpusDir;  ///< replay this regression corpus first
    bool corpusGuided = false; ///< mutate corpus entries (fuzz/mutator.h)
    size_t batch = 1;       ///< --batch: NNSmith input lanes per graph
    std::string outPath;    ///< --out: BENCH_*.json destination
    std::string traceOut;   ///< --trace-out: phase-span JSONL sink
    std::string metricsOut; ///< --metrics-out: final metrics snapshot
    bool progress = false;  ///< --progress: live stderr progress line
};

/**
 * Strict parse: an unknown flag or a value-taking flag at the end of
 * the line throws FatalError instead of being silently ignored — a
 * mistyped `--metrics-outt` must not turn a telemetry run into a
 * silent no-telemetry run. Drivers go through parseArgs (below), which
 * turns the throw into a one-line error and exit(2).
 */
inline BenchOptions
parseArgsOrThrow(int argc, char** argv, size_t default_iters = 600)
{
    BenchOptions options;
    options.iters = default_iters;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char* flag) {
            if (std::strcmp(argv[i], flag) != 0)
                return false;
            if (i + 1 >= argc)
                fatal(std::string(flag) + " requires a value");
            return true;
        };
        if (want("--seed"))
            options.seed = std::stoull(argv[++i]);
        else if (want("--iters"))
            options.iters = std::stoull(argv[++i]);
        else if (want("--minutes"))
            options.minutes = std::stoi(argv[++i]);
        else if (want("--shards") || want("--workers"))
            options.shards = std::max(1, std::stoi(argv[++i]));
        else if (want("--worker-mode")) {
            const std::string mode = argv[++i];
            if (mode == "thread")
                options.workerMode = fuzz::WorkerMode::kThread;
            else if (mode == "process")
                options.workerMode = fuzz::WorkerMode::kProcess;
            else
                fatal("--worker-mode must be 'thread' or 'process', "
                      "got '" + mode + "'");
        } else if (std::strcmp(argv[i], "--pass-fuzz") == 0)
            options.passFuzz = true;
        else if (std::strcmp(argv[i], "--minimize") == 0)
            options.minimize = true;
        else if (want("--report-dir"))
            options.reportDir = argv[++i];
        else if (want("--corpus"))
            options.corpusDir = argv[++i];
        else if (std::strcmp(argv[i], "--corpus-guided") == 0)
            options.corpusGuided = true;
        else if (want("--batch"))
            options.batch =
                std::max<size_t>(1, std::stoull(argv[++i]));
        else if (want("--out"))
            options.outPath = argv[++i];
        else if (want("--trace-out"))
            options.traceOut = argv[++i];
        else if (want("--metrics-out"))
            options.metricsOut = argv[++i];
        else if (std::strcmp(argv[i], "--progress") == 0)
            options.progress = true;
        else
            fatal("unknown flag '" + std::string(argv[i]) +
                  "' (see the flag list in bench/bench_util.h)");
    }
    return options;
}

/** Where the atexit hook dumps the final metrics snapshot. */
inline std::string&
metricsOutPath()
{
    static std::string path;
    return path;
}

/**
 * Turn the telemetry flags on for this process. The metrics snapshot
 * is written (and the trace closed) from an atexit hook, so every
 * campaign driver gets `--metrics-out`/`--trace-out` behavior without
 * individual wiring — whatever path the binary exits through, the
 * merged snapshot of everything it recorded lands on disk.
 */
inline void
initTelemetry(const BenchOptions& options)
{
    if (!options.traceOut.empty())
        obs::traceOpen(options.traceOut);
    if (!options.metricsOut.empty()) {
        obs::setMetricsEnabled(true);
        metricsOutPath() = options.metricsOut;
    }
    if (options.progress)
        obs::setProgressRequested(true);
    if (!options.traceOut.empty() || !options.metricsOut.empty()) {
        std::atexit([] {
            if (!metricsOutPath().empty()) {
                std::ofstream out(metricsOutPath(), std::ios::binary);
                out << obs::metricsSnapshot().renderJson();
            }
            obs::traceClose();
        });
    }
}

/** Driver-facing parse: strict flags, telemetry initialized, errors
 *  reported as one line on stderr + exit(2). @p default_iters is the
 *  driver's --iters when the flag is absent. */
inline BenchOptions
parseArgs(int argc, char** argv, size_t default_iters = 600)
{
    try {
        const BenchOptions options =
            parseArgsOrThrow(argc, argv, default_iters);
        initTelemetry(options);
        return options;
    } catch (const FatalError& error) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
        std::exit(2);
    }
}

/** A backend-under-test selector. */
struct SystemUnderTest {
    const char* label;      ///< "ONNXRuntime" / "TVM"
    const char* component;  ///< coverage prefix
    int backendIndex;       ///< index into makeAllBackends()
};

inline std::vector<SystemUnderTest>
coverageSystems()
{
    return {{"ONNXRuntime", "ortlite", 0}, {"TVM", "tvmlite", 1}};
}

/** Make the standard fuzzer by name with figure-default options.
 *  @p batch only affects NNSmith (input lanes per generated graph);
 *  the baselines have no batched path and ignore it. */
inline std::unique_ptr<fuzz::Fuzzer>
makeFuzzer(const std::string& name, uint64_t seed, size_t batch = 1)
{
    if (name == "NNSmith") {
        fuzz::NNSmithFuzzer::Options options;
        options.generator.targetOpNodes = 10; // §5.1 default size
        options.search.timeBudgetMs = 8.0;
        options.batch = batch;
        return std::make_unique<fuzz::NNSmithFuzzer>(options, seed);
    }
    if (name == "GraphFuzzer") {
        baselines::GraphFuzzerLite::Options options;
        options.targetOps = 10;
        return std::make_unique<baselines::GraphFuzzerLite>(options, seed);
    }
    if (name == "LEMON")
        return std::make_unique<baselines::LemonFuzzer>(seed);
    if (name == "Tzer")
        return std::make_unique<baselines::TzerFuzzer>(seed);
    fatal("unknown fuzzer " + name);
}

/** A sharded campaign over @p campaign with the CLI's --shards,
 *  --worker-mode and --seed; the caller sets the factories. */
inline fuzz::ParallelCampaignConfig
shardedCampaign(const BenchOptions& options,
                const fuzz::CampaignConfig& campaign)
{
    fuzz::ParallelCampaignConfig parallel;
    parallel.campaign = campaign;
    parallel.shards = options.shards;
    parallel.workerMode = options.workerMode;
    parallel.masterSeed = options.seed;
    // Telemetry (metrics frames, progress aggregator) attaches inside
    // runParallelCampaign from the process-global flags initTelemetry
    // set — inert either way.
    return parallel;
}

/** Run one fuzzer against one system under test. Iteration-independent
 *  fuzzers always go through the sharded runner — even at --shards 1 —
 *  so the figures are byte-identical for any shard count. Tzer's
 *  corpus carries state across iterations (it learns from each
 *  iteration's coverage through Fuzzer::observeCoverage), so it runs
 *  on the serial driver, a one-shard producer for the same merge. */
inline fuzz::CampaignResult
runOne(const std::string& fuzzer_name, const SystemUnderTest& sut,
       const BenchOptions& options, size_t iter_cap)
{
    fuzz::CampaignConfig config;
    config.virtualBudget =
        static_cast<VirtualMs>(options.minutes) * 60 * 1000;
    config.maxIterations = iter_cap;
    config.coverageComponent = sut.component;
    config.sampleEveryMinutes = 10;
    config.minimize = options.minimize;
    config.reportDir = options.reportDir;
    config.corpusDir = options.corpusDir;
    config.corpusGuided = options.corpusGuided;
    if (fuzzer_name != "Tzer") {
        auto parallel = shardedCampaign(options, config);
        parallel.fuzzerFactory = [fuzzer_name,
                                  batch = options.batch](uint64_t seed) {
            return makeFuzzer(fuzzer_name, seed, batch);
        };
        parallel.backendFactory =
            [index = static_cast<size_t>(sut.backendIndex),
             pass_fuzz = options.passFuzz, seed = options.seed]() {
                auto owned = difftest::makeAllBackends();
                if (pass_fuzz) {
                    owned[0] = backends::makeOrtLite(
                        /*pass_fuzz_seed=*/seed | 1);
                    owned[1] = backends::makeTvmLite(
                        /*pass_fuzz_seed=*/seed | 1);
                    owned[2] = backends::makeTrtLite(
                        /*pass_fuzz_seed=*/seed | 1);
                }
                std::vector<std::unique_ptr<backends::Backend>> picked;
                picked.push_back(std::move(owned[index]));
                return picked;
            };
        return fuzz::runParallelCampaign(parallel);
    }
    // Only Tzer reaches the serial driver. It needs no backend (it
    // feeds TIR straight into the passes), but constructing the
    // backends still registers their coverage sites and declared
    // totals, which the figure footers rely on. Replaying graph
    // repros against that empty backend list would misclassify every
    // known bug as fixed (and clobber regressions.tsv written by the
    // sibling campaigns), so --corpus is a no-op on this path.
    config.corpusDir.clear();
    config.corpusGuided = false;
    auto owned = difftest::makeAllBackends();
    auto fuzzer = makeFuzzer(fuzzer_name, options.seed);
    return fuzz::runCampaign(*fuzzer, /*backends=*/{}, config);
}

/** Per-fuzzer iteration caps (LEMON's virtual cost bounds it anyway). */
inline size_t
iterCapFor(const std::string& fuzzer, size_t base)
{
    if (fuzzer == "LEMON")
        return base / 2;
    if (fuzzer == "Tzer")
        return base * 4; // TIR cases are much cheaper
    return base;
}

/** Print a coverage series table: one row per sample. */
inline void
printSeries(const char* figure, const char* system,
            const std::vector<fuzz::CampaignResult>& results,
            bool pass_only, bool by_iterations)
{
    std::printf("\n%s — %s (%s branch coverage)\n", figure, system,
                pass_only ? "pass-only" : "total");
    std::printf("%-12s", by_iterations ? "iteration" : "minute");
    for (const auto& r : results)
        std::printf("%16s", r.fuzzer.c_str());
    std::printf("\n");
    size_t rows = 0;
    for (const auto& r : results)
        rows = std::max(rows, r.series.size());
    for (size_t i = 0; i < rows; ++i) {
        bool printed_key = false;
        for (const auto& r : results) {
            const auto& s =
                r.series[std::min(i, r.series.size() - 1)];
            if (!printed_key) {
                if (by_iterations)
                    std::printf("%-12zu", s.iterations);
                else
                    std::printf("%-12.0f", s.minutes);
                printed_key = true;
            }
            std::printf("%16zu", pass_only ? s.coveragePass
                                           : s.coverageAll);
        }
        std::printf("\n");
    }
}

/** Print a 3-set Venn decomposition like the paper's Fig. 7. */
inline void
printVenn3(const char* title, const fuzz::CampaignResult& a,
           const fuzz::CampaignResult& b, const fuzz::CampaignResult& c)
{
    using coverage::CoverageMap;
    const CoverageMap& A = a.coverAll;
    const CoverageMap& B = b.coverAll;
    const CoverageMap& C = c.coverAll;
    std::printf("\n%s\n", title);
    std::printf("  %s total: %zu; %s total: %zu; %s total: %zu\n",
                a.fuzzer.c_str(), A.count(), b.fuzzer.c_str(), B.count(),
                c.fuzzer.c_str(), C.count());
    const auto only = [](const CoverageMap& x, const CoverageMap& y,
                         const CoverageMap& z) {
        return x.minus(y.unionWith(z)).count();
    };
    std::printf("  unique(%s)=%zu unique(%s)=%zu unique(%s)=%zu\n",
                a.fuzzer.c_str(), only(A, B, C), b.fuzzer.c_str(),
                only(B, A, C), c.fuzzer.c_str(), only(C, A, B));
    std::printf("  common(all three)=%zu\n",
                A.intersect(B).intersect(C).count());
}

/** Relative paths + raw bytes of every file under @p dir, in sorted
 *  path order — equal strings mean byte-identical report trees. */
inline std::string
treeDigest(const std::filesystem::path& dir)
{
    std::vector<std::filesystem::path> files;
    if (std::filesystem::exists(dir)) {
        for (const auto& entry :
             std::filesystem::recursive_directory_iterator(dir)) {
            if (entry.is_regular_file())
                files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    std::string digest;
    for (const auto& path : files) {
        digest += std::filesystem::relative(path, dir).string();
        digest += '\0';
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        digest += buffer.str();
        digest += '\0';
    }
    return digest;
}

/** One cell of an identity matrix. */
struct IdentityCell {
    std::string variant; ///< value on the variant axis ("" without one)
    fuzz::WorkerMode mode = fuzz::WorkerMode::kThread;
    int shards = 1;
    double seconds = 0.0;   ///< wall time of the campaign alone
    bool identical = false; ///< rendering + report tree match cell 0
};

/** What an identity matrix concluded. */
struct IdentityMatrix {
    std::vector<IdentityCell> cells;
    fuzz::CampaignResult reference; ///< cell 0's merged result
    std::string referenceTree;      ///< cell 0's report tree digest

    bool identical() const
    {
        return std::all_of(cells.begin(), cells.end(),
                           [](const IdentityCell& c) { return c.identical; });
    }
};

/** Runs one cell's campaign; @p report_dir is the cell's own report
 *  directory, or "" when the matrix writes none. */
using IdentityCellRunner = std::function<fuzz::CampaignResult(
    const IdentityCell& cell, const std::string& report_dir)>;

/**
 * The identity matrix: every value of @p variants on the @p axis
 * (one unnamed value when empty) × workers {thread, process} × shards
 * {1, 2, 4}, variant outermost. Each cell is compared with cell 0 by
 * fuzz::renderCampaignResult and — when @p report_base is non-empty —
 * by the bytes of the report tree it wrote into its own subdirectory
 * of @p report_base. Prints one line per cell and a MISMATCH line for
 * every cell that diverges.
 */
inline IdentityMatrix
runIdentityMatrix(const std::filesystem::path& report_base,
                  const IdentityCellRunner& run, const char* axis = "",
                  std::vector<std::string> variants = {})
{
    if (variants.empty())
        variants.emplace_back();
    IdentityMatrix matrix;
    std::string reference_render;
    for (const auto& variant : variants) {
        for (const auto mode :
             {fuzz::WorkerMode::kThread, fuzz::WorkerMode::kProcess}) {
            for (const int shards : {1, 2, 4}) {
                IdentityCell cell{variant, mode, shards};
                std::string label;
                if (!variant.empty())
                    label = std::string(axis) + "=" + variant + " ";
                label += "mode=" + std::string(fuzz::workerModeName(mode)) +
                         " shards=" + std::to_string(shards);
                std::string report_dir;
                if (!report_base.empty()) {
                    report_dir =
                        (report_base /
                         ((variant.empty() ? "" : variant + "-") +
                          fuzz::workerModeName(mode) + "-" +
                          std::to_string(shards)))
                            .string();
                    std::filesystem::remove_all(report_dir);
                }
                const auto start = std::chrono::steady_clock::now();
                auto result = run(cell, report_dir);
                cell.seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
                const std::string render = fuzz::renderCampaignResult(result);
                const std::string tree = treeDigest(report_dir);
                if (matrix.cells.empty()) {
                    reference_render = render;
                    matrix.referenceTree = tree;
                }
                const bool result_same = render == reference_render;
                const bool tree_same = tree == matrix.referenceTree;
                cell.identical = result_same && tree_same;
                if (!cell.identical)
                    std::printf("MISMATCH: %s result_same=%d tree_same=%d\n",
                                label.c_str(), result_same, tree_same);
                std::printf("%s  %.3fs  iters=%zu coverage=%zu bugs=%zu  "
                            "identical=%s\n",
                            label.c_str(), cell.seconds, result.iterations,
                            result.coverAll.count(), result.bugs.size(),
                            cell.identical ? "yes" : "NO — BUG");
                if (matrix.cells.empty())
                    matrix.reference = std::move(result);
                matrix.cells.push_back(std::move(cell));
            }
        }
    }
    return matrix;
}

} // namespace nnsmith::bench

#endif // NNSMITH_BENCH_BENCH_UTIL_H
