/**
 * @file
 * Campaign driver: runs one fuzzer for a virtual-time budget against a
 * set of backends, recording coverage time series (Figs. 4-6), final
 * coverage sets (Figs. 7, 8, 10), instance-diversity keys (Fig. 9) and
 * deduplicated bug records (Table 3, §5.4).
 */
#ifndef NNSMITH_FUZZ_CAMPAIGN_H
#define NNSMITH_FUZZ_CAMPAIGN_H

#include <map>
#include <set>

#include "corpus/replay.h"
#include "coverage/coverage.h"
#include "fuzz/fuzzer.h"
#include "support/vclock.h"

namespace nnsmith::fuzz {

/** Campaign parameters. */
struct CampaignConfig {
    /** Virtual budget; the paper runs 4 hours (240 minutes). */
    VirtualMs virtualBudget = 240ll * 60 * 1000;

    /** Real-iteration safety cap (coverage saturates well before). */
    size_t maxIterations = 4000;

    /** Component prefix whose coverage is the campaign's metric,
     *  e.g. "ortlite" or "tvmlite". */
    std::string coverageComponent;

    /** Sample the coverage series every this many virtual minutes. */
    int sampleEveryMinutes = 5;

    /**
     * Delta-debug every flagged case before dedup (reduce/reducer.h):
     * each bug's repro is ddmin-minimized while its defect-trace
     * fingerprint is held fixed, and the dedup key becomes the
     * minimized fingerprint, collapsing reports that differ only in
     * trigger order or unrelated co-triggered defects. Off by default
     * so existing campaign records stay comparable. Minimization
     * re-runs the oracle outside coverage collection, so coverage
     * results are unchanged, and it is deterministic per iteration, so
     * sharded campaigns stay byte-identical for any shard count.
     */
    bool minimize = false;

    /** When non-empty, write one minimized-repro report per deduped
     *  bug into this directory at campaign end (reduce/report.h). */
    std::string reportDir;

    /**
     * When non-empty, replay this regression corpus (a `--report-dir`
     * tree, see corpus/replay.h) *before* fresh fuzzing: every known
     * fingerprint is re-checked against the live oracle and classified
     * still-fires / changed / fixed, results land in the result's
     * `regressions` and in `regressions.tsv` next to the reports.
     * Replay's oracle runs are kept out of coverage accounting, so
     * `--corpus` never changes the campaign's coverage or bug map and
     * composes with any shard count.
     */
    std::string corpusDir;

    /**
     * Corpus-guided generation (fuzz/mutator.h): requires corpusDir.
     * The sharded runner parses the corpus once into an immutable
     * mutation pool (before any worker starts) and wraps each derived
     * per-iteration fuzzer in a CorpusGuidedFuzzer, so every iteration
     * chooses — from its own iteration seed, never shared state —
     * between fresh sampling and mutating a corpus entry. Composes
     * with minimize/reportDir/any worker mode, preserving the
     * byte-identical merge guarantee. The serial runCampaign ignores
     * this flag; construct a CorpusGuidedFuzzer directly instead.
     */
    bool corpusGuided = false;
};

/** One sample of the coverage growth curves. */
struct CampaignPoint {
    double minutes = 0.0;
    size_t iterations = 0;
    size_t coverageAll = 0;
    size_t coveragePass = 0;
};

/**
 * One worker-fabric incident observed during a sharded run
 * (fuzz/worker_runtime.h): a crashed worker process (pipe EOF, the
 * worker was respawned and the round re-run) or an error frame (the
 * worker reported a structured failure instead of a result block).
 * Faults are telemetry — surfaced for post-run inspection, never part
 * of the deterministic merge, so a run that survives its faults still
 * produces the byte-identical campaign result.
 */
struct WorkerFault {
    int shard = 0;
    size_t roundBegin = 0; ///< global iteration range of the round
    size_t roundEnd = 0;
    std::string kind;   ///< "crash" | "error" | "stall"
    std::string detail; ///< error text for kind == "error"
    int attempt = 0;    ///< 0-based retry attempt the fault hit
};

/** Everything a campaign produces. */
struct CampaignResult {
    std::string fuzzer;
    std::vector<CampaignPoint> series;
    coverage::CoverageMap coverAll;   ///< component-filtered
    coverage::CoverageMap coverPass;  ///< pass-only subset
    std::map<std::string, BugRecord> bugs; ///< keyed by dedupKey
    /** Corpus replay verdicts (empty unless corpusDir was set). */
    corpus::ReplayResult regressions;
    std::set<std::string> instanceKeys;
    std::set<std::string> defectsFound; ///< seeded defects observed
    size_t iterations = 0;
    size_t produced = 0;
    VirtualMs virtualTime = 0;  ///< total, including converged plateau
    VirtualMs activeTime = 0;   ///< virtual time actually spent fuzzing

    /**
     * Worker-fabric telemetry from sharded runs (empty for the serial
     * driver and thread workers that never fault). Deliberately
     * left out of renderCampaignResult: two runs that merged the same
     * records are the same campaign even if one needed respawns.
     */
    std::vector<WorkerFault> workerFaults;
    /** Total worker respawns (crash recoveries) during the run. */
    size_t respawns = 0;
};

/**
 * Run @p fuzzer serially for the configured budget — the driver for
 * stateful fuzzers (Tzer). A one-shard producer: captureIteration
 * records each iteration of the caller's fuzzer (feeding it
 * Fuzzer::observeCoverage) and mergeShardResults computes the result.
 * Must not be called while a collector is active on this thread.
 */
CampaignResult runCampaign(Fuzzer& fuzzer,
                           const std::vector<backends::Backend*>& backends,
                           const CampaignConfig& config);

/** Replay @p corpus_dir against @p backends and write its
 *  regressions.tsv; fatal on a bad index. Opens no collector: the
 *  caller's (at most one per thread) keeps replay out of coverage. */
corpus::ReplayResult
replayCampaignCorpus(const std::string& corpus_dir,
                     const std::vector<backends::Backend*>& backends);

/**
 * Everything a campaign concludes, as one canonical string: the
 * fuzzer name and counters, every series point, both coverage sets as
 * sorted site keys, every bug as its full wire document
 * (wire::encodeBug, in dedup-key order), instance keys, defects found
 * and the corpus replay verdicts. Worker faults and respawns are
 * telemetry and are left out.
 *
 * This is the repo's one definition of campaign identity: two results
 * are the same campaign iff their renderings are equal strings, for
 * any shard count, worker mode, batch sweep or telemetry setting.
 * Rendering graph repros re-runs the ONNX export under a scratch
 * CoverageCollector, so it must not be called while a collector is
 * active on the calling thread.
 */
std::string renderCampaignResult(const CampaignResult& result);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_CAMPAIGN_H
