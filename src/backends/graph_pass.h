/**
 * @file
 * The backend-agnostic graph-pass registry.
 *
 * PR 3 made TVMLite's low-level TIR stage a *named pass registry*
 * (tirlite/tir_passes.h) so pass subset and order became a fuzzable
 * dimension. This header lifts the same structure to the graph level:
 * OrtLite's pattern optimizer and TrtLite's builder tactics are
 * decomposed into named `GraphPass` entries, so `--pass-fuzz`, the
 * pass-sequence reducer, and corpus replay work uniformly across all
 * three compilers under test (the paper's Fig. 8 Venn, lifted to pass
 * space).
 *
 * Graph passes are *scan-only*: OrtLite and TrtLite execute models
 * through the shared interpreter, so a pass never rewrites the model —
 * it walks it the way the real optimizer would, records coverage,
 * throws backends::BackendError for crash-symptom defects whose
 * structural trigger matches, and appends semantic defect ids to
 * `fired_semantic` (the driver perturbs outputs per fired id, exactly
 * like the monolithic optimizers did). Running the backend's default
 * pipeline is therefore bit-for-bit the historical kO3 behavior.
 *
 * Coverage: every backend records pass bins under one canonical
 * `<backend>/pass/...` scheme (DESIGN.md "Coverage component naming"
 * has the old->new mapping). Sequence bins land under
 * `<backend>/pass/seq`.
 */
#ifndef NNSMITH_BACKENDS_GRAPH_PASS_H
#define NNSMITH_BACKENDS_GRAPH_PASS_H

#include <string>
#include <vector>

#include "onnx/onnx_lite.h"
#include "support/rng.h"

namespace nnsmith::backends {

/**
 * One registered graph-level pass of a backend.
 *
 * `semanticsPreserving` is false exactly for passes that host a
 * *semantic* (wrong-result) seeded defect; every other pass must keep
 * outputs bitwise identical to the pass-off run on any model — the
 * contract the cross-backend property test (tests/graph_pass_test.cpp)
 * checks with the difftest comparator.
 */
struct GraphPass {
    const char* name;     ///< e.g. "fuse.matmul_add_gemm"
    const char* category; ///< "analysis" | "fuse" | "simplify" | "misc" | "tactic"
    bool semanticsPreserving;
    void (*apply)(const onnx::OnnxModel& model,
                  std::vector<std::string>& fired_semantic);
};

/** Does @p backend ("OrtLite" | "TrtLite") own a graph-pass registry?
 *  TVMLite's sequenceable passes live at the TIR level instead. */
bool isGraphPassBackend(const std::string& backend);

/** All passes of @p backend, in stable registration order (which is
 *  also the default pipeline order). Panics for other backends. */
const std::vector<GraphPass>& graphPasses(const std::string& backend);

/** Look up a pass by name; nullptr when unknown. */
const GraphPass* findGraphPass(const std::string& backend,
                               const std::string& name);

/** The fixed default pipeline — the order the non-fuzzed kO3 compile
 *  uses. Equals the registration order of every registered pass. */
const std::vector<std::string>& defaultGraphPipeline(
    const std::string& backend);

/**
 * Run an explicit pass sequence over @p model. Unknown names panic.
 * Semantic defect ids are appended to @p fired_semantic exactly as
 * fired (NOT deduplicated — the historical monolithic optimizers
 * perturbed once per firing, and the default pipeline must stay
 * bit-identical to them).
 */
void runGraphPasses(const onnx::OnnxModel& model,
                    const std::string& backend,
                    const std::vector<std::string>& pass_names,
                    std::vector<std::string>& fired_semantic);

/**
 * The backend's kO3 pass stage: with @p pass_fuzz_seed == 0 run the
 * default pipeline; otherwise draw a randomized sequence from
 * `Rng(pass_fuzz_seed ^ hashOnnxModel(model))` — a pure function of
 * the test case, so sharded campaigns stay byte-identical — record
 * its sequence-coverage bins, and run it.
 */
void runGraphPassStage(const onnx::OnnxModel& model,
                       const std::string& backend,
                       uint64_t pass_fuzz_seed,
                       std::vector<std::string>& fired_semantic);

/** Draw a random pass sequence — a nonempty subset of the registry in
 *  random order — deterministically from @p rng (same idiom as
 *  tirlite::drawPassSequence). */
std::vector<std::string> drawGraphPassSequence(const std::string& backend,
                                               Rng& rng);

/**
 * The sequence-coverage bins of @p sequence: length bucket, first and
 * last pass, and every adjacent ordered pass pair ("pair/<a>><b>").
 * Shared by recordGraphSequenceCoverage and the three-backend bin
 * test in tests/parallel_campaign_test.cpp (the coverage registry
 * exposes counts, not key strings).
 */
std::vector<std::string> sequenceCoverageBins(
    const std::vector<std::string>& sequence);

/** Record @p sequence's bins under `<backend lowercase>/pass/seq`
 *  (pass-only sites). For TrtLite these bins describe the *fuzzer's
 *  input space*, not compiler internals — the closed-source analogue
 *  still exports no optimizer instrumentation (§5.1). */
void recordGraphSequenceCoverage(const std::string& backend,
                                 const std::vector<std::string>& sequence);

/** Structural FNV-1a hash of a model (over its stable text
 *  serialization) — the graph-level hashTirProgram analogue. */
uint64_t hashOnnxModel(const onnx::OnnxModel& model);

/**
 * Multiset subtraction over fired-semantic lists, order-preserving:
 * the entries of @p fired not matched by an entry of @p baseline.
 * The pass-fuzz oracle (run(kO0) vs runWithPasses) uses this to
 * attribute firings to the pass stage: import-stage defects appear in
 * both lists and cancel, leaving exactly the pass-stage firings.
 */
std::vector<std::string> subtractFired(
    const std::vector<std::string>& fired,
    const std::vector<std::string>& baseline);

// Per-backend registries (defined next to each backend's passes).
const std::vector<GraphPass>& ortLiteGraphPasses();
const std::vector<GraphPass>& trtLiteGraphPasses();

} // namespace nnsmith::backends

#endif // NNSMITH_BACKENDS_GRAPH_PASS_H
