/**
 * @file
 * The fuzzer interface and the NNSmith fuzzer itself.
 *
 * A fuzzer produces and executes one test case per iterate() call,
 * reporting its virtual cost (see support/vclock.h and DESIGN.md —
 * wall-clock campaign dynamics are replayed in virtual time) plus any
 * bug signals. Baselines (LEMON / GraphFuzzer / Tzer) implement the
 * same interface in baselines/.
 */
#ifndef NNSMITH_FUZZ_FUZZER_H
#define NNSMITH_FUZZ_FUZZER_H

#include <string>
#include <vector>

#include "autodiff/grad_search.h"
#include "coverage/coverage.h"
#include "difftest/oracle.h"
#include "gen/generator.h"
#include "support/rng.h"
#include "support/vclock.h"
#include "tirlite/tir_interp.h"

namespace nnsmith::fuzz {

/**
 * Repro material of a flagged graph-level test case: the concrete
 * model plus the leaf tensors that triggered the defect. Attached to
 * every bug record by executeGraphCase so the reduction subsystem
 * (reduce/reducer.h) can delta-debug the case after the fact. Shared
 * (immutable) because one flagged iteration may emit several records.
 */
struct GraphRepro {
    graph::Graph graph;
    exec::LeafValues leaves;
};

/**
 * Repro material of a flagged TIR pass-sequence case: the program, the
 * pass sequence that was run over it, and (when the flagging oracle
 * was the differential interpreter) the initial buffer contents.
 */
struct SeqRepro {
    tirlite::TirProgram program;
    std::vector<std::string> sequence;
    tirlite::Buffers initial; ///< empty when the oracle needed none
};

/**
 * Repro material of a flagged *graph-level* pass-sequence case
 * (backends/graph_pass.h): the model, its leaf tensors, and the
 * OrtLite/TrtLite pass sequence that was run over it. The replaying
 * oracle is the backend itself: run(kO0) vs runWithPasses(sequence).
 */
struct GraphSeqRepro {
    graph::Graph graph;
    exec::LeafValues leaves;
    std::vector<std::string> sequence;
};

/** One deduplicable bug observation. */
struct BugRecord {
    std::string dedupKey; ///< e.g. "TVMLite|crash|tvm.layout.nchw4c_slice"
    std::string backend;
    std::string kind;     ///< "crash" | "wrong-result" | "export-crash"
    std::string detail;
    std::vector<std::string> defects; ///< seeded defects in the trace

    /** At most one of these is set; all null for repro-less fuzzers. */
    std::shared_ptr<const GraphRepro> graphRepro;
    std::shared_ptr<const SeqRepro> seqRepro;
    std::shared_ptr<const GraphSeqRepro> graphSeqRepro;

    /** Filled by reduce::minimizeBug: size is op nodes for graph
     *  repros, passes for sequence repros. `defects` keeps the
     *  discovery-time trace (found/seeded accounting); the minimized
     *  repro's own trace lands in `minimizedDefects`. */
    bool minimized = false;
    size_t originalSize = 0;
    size_t minimizedSize = 0;
    std::vector<std::string> minimizedDefects;
};

/** Result of one fuzzer iteration. */
struct IterationOutcome {
    VirtualMs cost = 0;     ///< virtual milliseconds consumed
    bool produced = false;  ///< a test case was generated & executed
    std::vector<BugRecord> bugs;
    std::vector<std::string> instanceKeys; ///< Fig. 9 diversity keys
};

/** A test-case generator + executor. */
class Fuzzer {
  public:
    virtual ~Fuzzer() = default;
    virtual std::string name() const = 0;

    /** Produce and execute one test case against @p backends. */
    virtual IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) = 0;

    /** The sorted branch ids the last iterate() hit, from the
     *  campaign loop. Only stateful fuzzers (Tzer) use this feedback. */
    virtual void observeCoverage(const std::vector<coverage::BranchId>&) {}
};

/** Translate a differential-test result into bug records. */
std::vector<BugRecord> bugsFromCase(const difftest::CaseResult& result);

/**
 * Virtual cost model constants (DESIGN.md "Substitutions").
 *
 * Values are calibrated at *testbed scale*: they preserve the paper's
 * cost ratios (generation ~83ms/10-node model before the testbed's
 * compile+run dominates; TVM compiles slower than ONNXRuntime; LEMON
 * pays two orders of magnitude extra for running real models) so that
 * a 240-virtual-minute campaign performs a paper-plausible number of
 * iterations per fuzzer.
 */
struct CostModel {
    VirtualMs generationPerOp = 180; ///< solving dominates generation
    VirtualMs valueSearch = 90;
    VirtualMs backendCompileOrt = 1400;
    VirtualMs backendCompileTvm = 5600; ///< codegen makes TVM slower
    VirtualMs backendCompileTrt = 2800;
    VirtualMs run = 220;
};

/** The NNSmith fuzzer (generator + binning + gradient value search +
 *  differential testing). */
class NNSmithFuzzer final : public Fuzzer {
  public:
    struct Options {
        gen::GeneratorConfig generator;
        autodiff::SearchConfig search;
        CostModel cost;
        bool runValueSearch = true;
        /**
         * Fuzz cases per iteration: one generated graph executed on
         * `batch` independent input sets ("lanes"). Lane 0 keeps the
         * exact sequential input path (value search or random leaves);
         * extra lanes draw additional random leaves. Default 1 = off.
         * Batching amortizes generation/solving cost across lanes —
         * that is the virtual-time speedup — while per-lane outcomes
         * stay bit-identical to running each lane as its own case.
         */
        size_t batch = 1;
        /**
         * When batch > 1, run lanes through the batched sweep executor
         * (exec/batched.h: one topo walk, SIMD kernel sweeps) instead
         * of per-lane sequential cases. Outcomes are bit-identical
         * either way (bench_batch gates this); off exists only as the
         * identity-check baseline.
         */
        bool batchSweep = true;
    };

    NNSmithFuzzer(Options options, uint64_t seed);

    std::string name() const override { return "NNSmith"; }
    IterationOutcome
    iterate(const std::vector<backends::Backend*>& backend_list) override;

    /** Total models generated so far (diagnostics). */
    size_t generated() const { return generated_; }

  private:
    Options options_;
    Rng rng_;
    uint64_t next_seed_;
    size_t generated_ = 0;
};

/** Shared helper for graph-producing fuzzers: run the differential
 *  test and fill an outcome. */
IterationOutcome
executeGraphCase(const graph::Graph& graph, const exec::LeafValues& leaves,
                 const std::vector<backends::Backend*>& backend_list,
                 const CostModel& cost);

/**
 * Batched variant: one graph, `lanes.size()` independent input sets in
 * one outcome. Bug records, repros and virtual cost are accounted per
 * lane exactly as `lanes.size()` sequential executeGraphCase calls
 * would produce them (in lane order). @p sweep picks the batched
 * reference executor (difftest::runCaseBatch) over per-lane runCase;
 * the outcome is bit-identical either way.
 */
IterationOutcome
executeGraphCaseBatch(const graph::Graph& graph,
                      const std::vector<exec::LeafValues>& lanes,
                      const std::vector<backends::Backend*>& backend_list,
                      const CostModel& cost, bool sweep);

} // namespace nnsmith::fuzz

#endif // NNSMITH_FUZZ_FUZZER_H
