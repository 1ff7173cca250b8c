/**
 * @file
 * Defect reduction: ddmin over computation graphs and TIR pass
 * sequences, keyed by defect-trace fingerprints (paper §5.4's
 * "turn a flagged iteration into an actionable repro" workflow).
 *
 * Two engines share the ddmin core (reduce/ddmin.h):
 *
 *  - **GraphReducer** delta-debugs a flagged Graph by removing op
 *    nodes (candidate kept-sets are closed over producers so the
 *    subgraph stays well-formed), re-validates every candidate via
 *    graph/validate, and re-runs the difftest oracle to check that the
 *    *same* defect-trace fingerprint still fires.
 *
 *  - **PassSequenceReducer** ddmins a flagged pass list to the minimal
 *    failing subsequence: TIR sequences under the bitwise tir_interp
 *    differential oracle, graph-level sequences (OrtLite/TrtLite,
 *    backends/graph_pass.h) under the owning backend's
 *    run(kO0)-vs-runWithPasses oracle (both contracts from
 *    fuzz/pass_fuzzer.h).
 *
 * A **fingerprint** pins down what must keep firing while the repro
 * shrinks: for crashes it is (backend, kind, crash kind) — the crash
 * kind *is* the seeded defect id; for wrong results it is the sorted
 * set of semantic defects attributable to the flagged backend (its own
 * system's plus the exporter's, whose corrupted metadata every backend
 * mis-executes). The campaign layer rekeys bug dedup by the minimized
 * fingerprint, which collapses reports that differ only in trigger
 * order or in unrelated co-triggered defects. Everything here is
 * deterministic — pure functions of the repro — so sharded campaigns
 * that minimize inside workers stay byte-identical for any shard
 * count. See DESIGN.md "Reduction & reporting".
 */
#ifndef NNSMITH_REDUCE_REDUCER_H
#define NNSMITH_REDUCE_REDUCER_H

#include "fuzz/fuzzer.h"
#include "reduce/ddmin.h"

namespace nnsmith::reduce {

/** Knobs shared by both engines. */
struct ReduceOptions {
    /** Oracle-evaluation cap per bug (deterministic cut; a graph
     *  oracle run is one export + compile + compare). */
    size_t maxOracleRuns = 256;
};

/**
 * Canonical fingerprint key of a bug observation — the minimized dedup
 * key. Crashes keep their (backend, kind, crash-kind) identity;
 * wrong-results are keyed by the sorted set of semantic defects
 * relevant to the flagged backend instead of the raw trigger trace.
 */
std::string fingerprintKey(const fuzz::BugRecord& bug);

/**
 * Third field of a "backend|tag|kind" dedup key — the crash kind that
 * must re-fire for crash/export-crash records; empty when the key has
 * fewer than three fields. The single parser of the dedup-key wire
 * format, shared with corpus replay (corpus/replay.h).
 */
std::string crashKindOfKey(const std::string& dedup_key);

/**
 * Minimize one flagged bug record in place: ddmin its repro (graph or
 * pass sequence), replace the repro with the minimized one, fill
 * originalSize/minimizedSize/minimizedDefects (the minimized repro's
 * own trigger trace; `defects` keeps the discovery-time one), and
 * rewrite dedupKey to fingerprintKey.
 * Returns false — leaving the record untouched — when the bug carries
 * no repro or the full repro does not reproduce its fingerprint.
 * @p backends is the list the flagged case ran against (graph bugs
 * re-run the oracle on it; sequence bugs need none).
 */
bool minimizeBug(fuzz::BugRecord& bug,
                 const std::vector<backends::Backend*>& backends,
                 const ReduceOptions& options = ReduceOptions());

/** minimizeBug over a whole iteration outcome's records. */
void minimizeBugs(std::vector<fuzz::BugRecord>& bugs,
                  const std::vector<backends::Backend*>& backends,
                  const ReduceOptions& options = ReduceOptions());

/**
 * Re-run a (minimized) bug's repro through its oracle and check the
 * fingerprint still fires — the acceptance probe used by the
 * minimizing-campaign tests (tests/reduce_test.cpp). True also for
 * untouched records whose repro fires.
 */
bool reproStillFires(const fuzz::BugRecord& bug,
                     const std::vector<backends::Backend*>& backends);

} // namespace nnsmith::reduce

#endif // NNSMITH_REDUCE_REDUCER_H
